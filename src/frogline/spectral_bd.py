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


def reversible_weights(chain):
    """Unnormalized reversible measure: w_0 = 1, w_{i+1} = w_i up_i / down_{i+1}."""
    n = chain.n
    w = np.ones(n + 1)
    for i in range(n):
        w[i + 1] = w[i] * chain.up[i] / chain.down[i + 1]
    return w


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


def hitting_eigenvalues(chain):
    """Ascending eigenvalues gamma of I - K^2 restricted to the killed
    chain's even class."""
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

    n_parity: 'even' or 'odd' (or the integer n itself); odd chains spend
    one deterministic step n -> n-1 before the convolution starts.
    """
    if isinstance(n_parity, str):
        if n_parity not in ("even", "odd"):
            raise ParameterError("n_parity must be 'even' or 'odd'")
        odd = n_parity == "odd"
    else:
        odd = int(n_parity) % 2 == 1
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
    """(pi(2) + pi(4) + ...)/(pi(2) P^2(2,0)) with pi the edge-weight measure.

    Equals E_2[T_0]/2; the smallest eigenvalue obeys 1/gamma_1 >= this.
    """
    n, _, down = _validate_chain(chain)
    if n < 2:
        raise ParameterError("needs n >= 2")
    w = reversible_weights(chain)
    evens = np.arange(2, n + 1, 2)
    return float(w[evens].sum() / (w[2] * down[2] * down[1]))
