"""The closed-form chi-square and Poisson laws behind the two chi-square
checks of `validate --suite full`."""

from math import erfc, exp, sqrt

import numpy as np
import pytest

from frogline.checks import chi2_sf, chisquare, poisson_pmf_tail


@pytest.mark.parametrize("k, x", [(1, 3.841458820694124),
                                  (2, 5.991464547107979),
                                  (3, 7.814727903251178),
                                  (10, 18.307038053275146)])
def test_chi2_upper_five_percent_points(k, x):
    assert abs(chi2_sf(x, k) - 0.05) <= 1e-12


def test_chi2_tail_at_zero_is_one():
    assert all(chi2_sf(0.0, k) == 1.0 for k in range(1, 41))


def test_pearson_statistic_and_degrees_of_freedom():
    # equal cells: mean 20, statistic (100 + 0 + 100)/20 = 10 on 2 df
    assert chisquare([10, 20, 30]) == pytest.approx(exp(-5), rel=1e-14)
    # statistic 1/2 + 1/2 on 1 df
    assert chisquare([1, 3], [2, 2]) == pytest.approx(erfc(sqrt(0.5)),
                                                      rel=1e-14)


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_poisson_pmf_and_tail_sum_to_one(lam):
    pmf, tail = poisson_pmf_tail(lam, 64)
    for k in range(64):
        assert abs(pmf[:k].sum() + tail[k] - 1.0) <= 1e-15, k


def test_closed_forms_match_scipy():
    pytest.importorskip("scipy")
    from scipy import stats
    xs = np.linspace(0.0, 120.0, 1201)[1:]
    for k in range(1, 41):
        got = np.array([chi2_sf(x, k) for x in xs])
        assert np.max(np.abs(got - stats.chi2.sf(xs, k))) <= 1e-12, k
    ks = np.arange(64)
    for lam in (0.5, 1.0, 4.0):
        pmf, tail = poisson_pmf_tail(lam, 64)
        assert np.max(np.abs(pmf - stats.poisson.pmf(ks, lam))) <= 1e-15
        assert np.max(np.abs(tail - stats.poisson.sf(ks - 1, lam))) <= 1e-15
