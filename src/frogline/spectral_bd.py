"""Birth-death hitting times as geometric convolutions.

For a birth-death chain on {0..n} with zero holding, kill the walk at 0
and restrict the two-step kernel K^2 to the even states {2, 4, ...} (up to
n for even n, n-1 for odd n; an odd chain's first step n -> n-1 is forced).
That restriction is tridiagonal and similar to a symmetric matrix via the
reversibility weights, so I - K^2 has real eigenvalues gamma_1 <= ... <=
gamma_m, all in (0, 1]. The hitting time T_0 started from n then satisfies:
T_0/2 (even n) or (T_0-1)/2 (odd n) is distributed as an independent sum of
Geometric(gamma_i) variables on {1, 2, ...}. An absorbing DP provides the
exact oracle, and the law is log-concave hence unimodal on its lattice.
"""

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import NumericalConsistencyError, ParameterError, check_budget

_TAIL = 1e-16  # per-factor geometric tail kept below this


@dataclass
class BirthDeathChain:
    """General BD chain on {0..n}: up[i] = P(i,i+1), down[i] = P(i,i-1).

    Same layout as the d-ary level chain: up[0] = 1, down[n] = 1, interior
    up[i] + down[i] = 1 (no holding), unused slots zero.
    """

    n: int
    up: np.ndarray
    down: np.ndarray


def _validate_chain(chain):
    n = chain.n
    up = np.asarray(chain.up, dtype=float)
    down = np.asarray(chain.down, dtype=float)
    if n < 1 or len(up) != n + 1 or len(down) != n + 1:
        raise ParameterError("chain arrays must have length n+1, n >= 1")
    if not np.isclose(up[0], 1.0) or not np.isclose(down[n], 1.0):
        raise ParameterError("chain needs up[0] = 1 and down[n] = 1")
    interior = slice(1, n)
    if not np.allclose(up[interior] + down[interior], 1.0):
        raise ParameterError("interior holding must be zero (up + down = 1)")
    if np.any(up[:n] <= 0) or np.any(down[1:] <= 0):
        raise ParameterError("interior rates must be positive")
    return n, up, down


@dataclass
class Pmf:
    """Finite pmf on consecutive integers starting at `offset`.

    Parity chains leave zeros at every other index; `truncated` reports the
    tail mass dropped by adaptive truncation (or left unabsorbed by a DP).
    """

    offset: int
    masses: np.ndarray
    truncated: float = 0.0

    def mean(self):
        return float(np.dot(self.offset + np.arange(len(self.masses)),
                            self.masses))


def crossing_times(chain):
    """c[j] = E_{j+1}[T_j], the mean time to cross the edge (j+1, j)
    downward, j = 0..n-1, by first-step analysis from the top: c[n-1] = 1,
    c[j] = (1 + up[j+1] c[j+1]) / down[j+1]. E_n[T_0] is their sum.

    A crossing time past the float range is inf, never nan, and raises no
    warning; sum c.tolist(), whose Python floats overflow to inf quietly too.
    """
    n, up, down = _validate_chain(chain)
    c = np.ones(n)
    with np.errstate(over="ignore"):
        for j in range(n - 2, -1, -1):
            c[j] = (1.0 + up[j + 1] * c[j + 1]) / down[j + 1]
    return c


def hitting_eigenvalues(chain):
    """Ascending eigenvalues gamma of I - K^2 restricted to the killed
    chain's even class.

    eigvalsh gives the small gammas only to absolute accuracy, so the law
    they imply is checked against the exact mean: 2 sum(1/gamma) + (n mod
    2) = E_n[T_0], to 1e-8 relative, or NumericalConsistencyError."""
    n, up, down = _validate_chain(chain)
    top = n if n % 2 == 0 else n - 1
    states = np.arange(2, top + 1, 2, dtype=np.int64)
    m = len(states)
    if m == 0:
        return np.empty(0)
    # the dense m x m matrix, of which eigvalsh touches about m^3 entries:
    # m <= 1625, so n <= 3251, while a law is refused from n = 21 at d = 2
    check_budget("a %d x %d even-class matrix" % (m, m), 8 * m * m, m, m * m)
    # K^2 on the even states; up[n] = 0 makes the boundary rows come out right
    diag = np.empty(m)
    hi = np.empty(max(m - 1, 0))
    lo = np.empty(max(m - 1, 0))
    for j, i in enumerate(states):
        diag[j] = down[i] * up[i - 1] + (up[i] * down[i + 1] if i < n else 0.0)
        if j + 1 < m:
            hi[j] = up[i] * up[i + 1]
            lo[j] = down[i + 2] * down[i + 1]
    sym_off = -np.sqrt(hi * lo)
    gammas = np.linalg.eigvalsh(
        np.diag(1.0 - diag) + np.diag(sym_off, -1) + np.diag(sym_off, 1))
    if np.any(gammas < -1e-9) or np.any(gammas > 1 + 1e-9):
        raise NumericalConsistencyError(
            "eigenvalues of I - K^2 left (0,1]: %r" % (gammas,))
    gammas = np.clip(gammas, None, 1.0)
    if np.any(gammas <= 0):
        raise NumericalConsistencyError(
            "nonpositive eigenvalue of I - K^2: %r" % (gammas,))
    mean = sum(crossing_times(chain).tolist())
    gap = abs(2 * float(np.sum(1 / gammas)) + n % 2 - mean) / mean
    # at most 1.9e-10 on every chain hitting_law admits (d in {2,3,4,5,8},
    # n <= 40), 5.7e-8 on the d=2 n=30 level chain; nan, when the mean
    # overflows, fails too
    if not gap <= 1e-8:
        raise NumericalConsistencyError(
            "eigenvalues miss the mean hitting time by %.3g relative" % gap)
    return np.sort(gammas)


def _geometric_length(gamma):
    """Length of the Geometric(gamma) pmf whose dropped tail is below _TAIL."""
    if gamma >= 1.0:
        return 1
    return max(1, int(np.ceil(log(_TAIL) / np.log1p(-gamma))))


def _geometric_pmf(gamma, length):
    k = np.arange(length)
    return gamma * (1.0 - gamma) ** k


def geometric_convolution_law(gammas, n_parity):
    """Pmf of T_0 from the top state, as the geometric convolution of the
    hitting_eigenvalues `gammas` says.

    n_parity: 'even' or 'odd', the parity of n; odd chains spend one
    deterministic step n -> n-1 before the convolution starts.
    """
    if n_parity not in ("even", "odd"):
        raise ParameterError("n_parity must be 'even' or 'odd'")
    odd = n_parity == "odd"
    lengths = [_geometric_length(gamma) for gamma in gammas]
    # tracemalloc peaks measured 24-25.3 B per unit of summed factor length
    # (d=2 n=8..16, d=3 n=7 and 10): the longest factor dominates
    check_budget("a hitting-time law of %d geometric factors" % len(lengths),
                 32 * sum(lengths))
    conv = np.array([1.0])
    for gamma, length in zip(gammas, lengths):
        conv = np.convolve(conv, _geometric_pmf(gamma, length))
        # trim the far tail so iterated convolutions stay short
        tail = np.cumsum(conv[::-1])[::-1]
        keep = int(np.searchsorted(-tail, -1e-13))
        conv = conv[:max(keep, 1)]
    m = len(gammas)
    # conv index j corresponds to the geometric sum equal to m + j
    masses = np.zeros(2 * len(conv) - 1)
    masses[::2] = conv
    offset = 2 * m + (1 if odd else 0)
    return Pmf(offset=offset, masses=masses,
               truncated=float(max(0.0, 1.0 - conv.sum())))


def hitting_law(chain):
    """Pmf of T_0 from the top state of `chain`: geometric_convolution_law
    of its hitting_eigenvalues, refused before the eigensolver when the
    law's factors cannot fit the byte limit.

    A Geometric(gamma) factor is at least log(1/_TAIL) (1/gamma - 1) long,
    and the m factors' 1/gamma sum to the mean of the geometric sum,
    (E_n[T_0] - (n mod 2))/2. So 32 log(1/_TAIL) ((E_n[T_0] - n mod 2)/2 - m)
    bytes is a lower bound on geometric_convolution_law's own estimate: it
    refuses no law that the estimate admits, and it stops the chains whose
    smallest gamma, about d^-n, lies below the eigensolver's accuracy
    before they raise there.
    """
    n = chain.n
    mean = sum(crossing_times(chain).tolist())
    m = n // 2
    check_budget("a hitting-time law of %d geometric factors" % m,
                 32 * log(1 / _TAIL) * ((mean - n % 2) / 2 - m))
    return geometric_convolution_law(hitting_eigenvalues(chain),
                                     "odd" if n % 2 else "even")


def hitting_pmf_dp(chain, start, t_max):
    """Exact law of T_0 by forward DP with state 0 absorbing."""
    n, up, down = _validate_chain(chain)
    if not 0 <= start <= n:
        raise ParameterError("start must be a chain state")
    if start == 0:
        return Pmf(offset=0, masses=np.array([1.0]), truncated=0.0)
    if t_max < start:
        raise ParameterError("t_max %d cannot reach 0 from %d" % (t_max, start))
    p = np.zeros(n + 1)
    p[start] = 1.0
    masses = np.zeros(t_max + 1)
    for t in range(1, t_max + 1):
        masses[t] = p[1] * down[1]
        new = np.zeros(n + 1)
        new[2:] += p[1:-1] * up[1:-1]   # up-moves into 2..n
        new[1:-1] += p[2:] * down[2:]   # down-moves into 1..n-1
        p = new
    residual = float(p.sum())
    return Pmf(offset=start, masses=masses[start:], truncated=residual)


def total_variation(a, b):
    """TV distance between two Pmfs on the integers."""
    lo = min(a.offset, b.offset)
    hi = max(a.offset + len(a.masses), b.offset + len(b.masses))
    pa = np.zeros(hi - lo)
    pb = np.zeros(hi - lo)
    pa[a.offset - lo:a.offset - lo + len(a.masses)] = a.masses
    pb[b.offset - lo:b.offset - lo + len(b.masses)] = b.masses
    return 0.5 * float(np.abs(pa - pb).sum())


def _lattice(pmf):
    """Masses on the pmf's own arithmetic progression (step 2 or step 1)."""
    masses = np.asarray(pmf.masses, dtype=float)
    if len(masses) >= 2 and np.all(masses[1::2] < 1e-15):
        return masses[::2], 2
    return masses, 1


def check_logconcave(pmf, rel_slack=1e-12):
    """m_k^2 >= m_{k-1} m_{k+1} on the lattice; unimodality asserted too.

    Returns (ok, first_violation_index) with the index on the lattice.
    """
    m, _ = _lattice(pmf)
    # ignore the underflow-level far tail
    live = np.nonzero(m > 1e-280)[0]
    if len(live) == 0:
        return True, None
    m = m[live[0]:live[-1] + 1]
    for k in range(1, len(m) - 1):
        if m[k] * m[k] < m[k - 1] * m[k + 1] * (1.0 - rel_slack):
            return False, k + live[0]
    peak = int(np.argmax(m))
    for k in range(len(m) - 1):
        rising = m[k + 1] >= m[k] * (1.0 - rel_slack)
        falling = m[k + 1] <= m[k] * (1.0 + rel_slack)
        if (k < peak and not rising) or (k >= peak and not falling):
            return False, k + live[0]
    return True, None


def half_e2_t0(chain):
    """E_2[T_0]/2 = (c[0] + c[1])/2 in crossing_times c; the smallest
    eigenvalue obeys 1/gamma_1 >= this."""
    if chain.n < 2:
        raise ParameterError("needs n >= 2")
    return sum(crossing_times(chain)[:2].tolist()) / 2
