import numpy as np
import pytest

from frogline import (NumericalConsistencyError, ParameterError, Pmf,
                      check_logconcave, expected_hit,
                      geometric_convolution_law, half_e2_t0,
                      hitting_eigenvalues, hitting_law, hitting_pmf_dp,
                      level_chain, spectral_bd, total_variation)
from frogline.errors import CONFIG_BYTE_LIMIT
from frogline.spectral_bd import BirthDeathChain

from oracles import absorbing_t0_pmf


def _law(d, n):
    ch = level_chain(d, n)
    gammas = hitting_eigenvalues(ch)
    return ch, gammas, geometric_convolution_law(gammas,
                                                 "odd" if n % 2 else "even")


def test_eigenvalues_frozen_d2_n4():
    _, gammas, _ = _law(2, 4)
    want = np.sort([(4 - np.sqrt(13)) / 9, (4 + np.sqrt(13)) / 9])
    assert np.allclose(gammas, want, atol=1e-12)  # returned ascending


def test_eigenvalues_single_state():
    # n=2: one even interior state, gamma = 1/(d+1)
    for d in (2, 3, 5):
        _, gammas, _ = _law(d, 2)
        assert gammas.shape == (1,)
        assert gammas[0] == pytest.approx(1 / (d + 1))


def test_dp_matches_matrix_power_oracle():
    ch = level_chain(2, 3)
    t_max = 200
    dp = hitting_pmf_dp(ch, 3, t_max)
    ref = absorbing_t0_pmf(ch, t_max)
    got = np.zeros(t_max + 1)
    got[dp.offset:dp.offset + len(dp.masses)] = dp.masses
    assert np.abs(got - ref).max() < 1e-12


def test_law_mean_identity():
    for d, n in [(2, 4), (3, 5), (4, 6)]:
        ch, gammas, law = _law(d, n)
        want = 2.0 * float((1.0 / gammas).sum()) + (n % 2)
        assert law.mean() == pytest.approx(want, rel=1e-9)


def test_parity_support():
    _, _, even_law = _law(2, 4)
    assert even_law.offset == 4  # two geometric summands, each >= 1, doubled
    assert np.all(even_law.masses[1::2] == 0)  # only even lattice points
    _, _, odd_law = _law(2, 5)
    assert odd_law.offset == 5
    assert odd_law.offset % 2 == 1  # from a leaf at odd depth, T_0 is odd


def test_point_mass_at_zero():
    pmf = hitting_pmf_dp(level_chain(2, 3), 0, 10)
    assert pmf.offset == 0
    assert pmf.masses[0] == 1.0
    assert pmf.mean() == 0.0


def test_truncated_mass_accounting():
    ch = level_chain(2, 4)
    short = hitting_pmf_dp(ch, 4, 20)
    assert short.truncated > 0
    assert short.masses.sum() + short.truncated == pytest.approx(1.0)


def test_half_e2_t0_frozen():
    assert half_e2_t0(level_chain(2, 4)) == pytest.approx(21.0)


def test_logconcave_laws_and_counterexample():
    # the laws and the bimodal counterexample are checks.check_logconcavity's;
    # unimodal but not log-concave: caught by the ratio test
    ok, where = check_logconcave(
        Pmf(offset=0, masses=np.array([0.5, 0.25, 0.125, 0.12, 0.005])))
    assert not ok and where == 2


def test_invalid_chain_rejected():
    up = np.array([1.0, 0.5, 0.0])
    down = np.array([0.0, 0.4, 1.0])  # rows sum to 0.9, not stochastic
    with pytest.raises((ParameterError, NumericalConsistencyError)):
        hitting_eigenvalues(BirthDeathChain(n=2, up=up, down=down))


def test_total_variation_disjoint_support():
    a = Pmf(offset=0, masses=np.array([1.0]))
    b = Pmf(offset=5, masses=np.array([1.0]))
    assert total_variation(a, b) == pytest.approx(1.0)
    assert total_variation(a, a) == 0.0


class _Bound(Exception):
    pass


def test_law_bound_refuses_what_the_estimate_refuses(monkeypatch):
    # hitting_law refuses on a lower bound of the bytes that
    # geometric_convolution_law estimates from the eigenvalues: below the
    # estimate wherever the estimate admits the law, over the limit
    # wherever it refuses it or the eigensolver raises
    estimates = {}
    for d in (2, 3, 4, 5, 8):
        for n in range(2, 41):
            try:
                gammas = hitting_eigenvalues(level_chain(d, n))
            except NumericalConsistencyError:
                estimates[d, n] = None
                continue
            estimates[d, n] = 32 * sum(map(spectral_bd._geometric_length,
                                           gammas))

    def stop(what, nbytes):
        raise _Bound(nbytes)

    monkeypatch.setattr(spectral_bd, "check_budget", stop)
    for (d, n), estimate in estimates.items():
        with pytest.raises(_Bound) as bound:
            hitting_law(level_chain(d, n))
        bound = bound.value.args[0]
        if estimate is not None and estimate <= CONFIG_BYTE_LIMIT:
            assert bound <= estimate, (d, n, bound, estimate)
        else:
            assert bound > CONFIG_BYTE_LIMIT, (d, n, bound, estimate)


def test_eigenvalues_keep_the_mean_hitting_time():
    # 2 sum(1/gamma) + (n mod 2) = E_n[T_0] on every chain whose law
    # hitting_law admits, to 1e-8 relative (at most 1.9e-10 on all of them)
    for d, n_max in ((2, 20), (3, 14), (4, 11), (5, 10), (8, 8)):
        for n in range(1, n_max + 1):
            ch = level_chain(d, n)
            gammas = hitting_eigenvalues(ch)
            mean = 2 * np.sum(1 / gammas) + n % 2
            exact = expected_hit(ch, "leaf_to_root")
            assert abs(mean - exact) <= 1e-8 * exact, (d, n)


@pytest.mark.parametrize("d,n,gap", [(4, 26, "0.209"), (2, 30, "5.66e-08")])
def test_eigenvalues_that_miss_the_mean_raise(d, n, gap):
    # smallest gammas below the eigensolver's absolute accuracy: 21% and
    # 5.7e-8 off the exact mean, no longer returned in silence
    with pytest.raises(NumericalConsistencyError,
                       match="miss the mean hitting time by %s relative"
                       % gap):
        hitting_eigenvalues(level_chain(d, n))
