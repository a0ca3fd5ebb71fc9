"""Frozen band constants for every order-of-magnitude claim.

Scaling statements ("grows like", "is of order") only pin shapes, not
constants. Each constant here was fitted once on a pilot grid with the
command recorded next to it, then frozen; the checks and the test suite
assert against these exact numbers so regressions show up as band exits.
Do not refit casually: moving a band to make a test pass defeats its point.
"""

# Return sums on tree leaves: sum_{i<=t} p^i(v,v) vs log_d(dt) + t*d^-n,
# t in {4, 16, 64, 256}, (d,n) in {(2,6),(3,4)}. Observed ratios 0.435..0.629.
# Pilot: python scripts/pilot.py returns. Band: center/3 .. 3*center.
RETURN_SUM_CENTER = 0.52
RETURN_SUM_FACTOR = 3.0

# First even t with parity-restricted L-inf deviation <= 1/e on tree(d,n),
# as a multiple of d^(n-1) ln d. Observed 4.87 (d=4,n=3) .. 14.52 (d=2,n=6)
# on the pilot grid; frozen with a factor-2 margin each way.
# Pilot: python scripts/pilot.py mixing.
MIXING_BAND_LO = 2.4
MIXING_BAND_HI = 29.0

# Cover time on tree(2,8), lambda=4, origin=root: CT <= CT_BAND_C * n ln n / lambda.
# Pilot: python scripts/pilot.py cover (30 seeds; max ratio 6.73, mean 4.67).
CT_BAND_C = 10.0

# Killed leaf walk, d=2, n in {4..7}, s=d^(n-1): mean tau_cov/(d^n n ln s).
# Observed 0.831..0.917. Pilot: python scripts/pilot.py leafwalk (200
# trials/cell). One factor-5 band for the grid: [center/sqrt(5), center*sqrt(5)].
# The realized walks moved when the excursion loop on Philox draws gave way
# to the exact leaf chain on the keyed hash, with trial_seed seeds; the
# same pilot then read 0.818..0.853, and the bands were not refitted.
LEAFWALK_CENTER = 0.87
LEAFWALK_FACTOR = 5.0

# Restart-count floor: restarts >= LEAFWALK_RESTART_C0 * n d^n ln(s) / s on a
# majority of trials per cell. Same pilot; observed median ratios 0.395..0.421,
# frozen at half the minimum; the leaf chain's pilot reads the same range.
LEAFWALK_RESTART_C0 = 0.2

# Heat-kernel sandwich on tree(2,6) leaf pairs, t even, t >= dist(u,v),
# t in [d^(k-1), d^k], max(1, coheight(meet)) <= k <= 5, envelope
# d^-k + d^-(k-1) exp(-t d^-(k-1)): HK_LO * env <= p^t(u,v)/deg(v) <= HK_HI * env.
# Observed ratio range [0.00421, 1.949]; the small end is the direct-path mass
# at t = dist in the widest window. Pilot: python scripts/pilot.py heatkernel.
HK_LO = 0.002
HK_HI = 4.0

# Range hits on tree(2,10), A = leaves, t = 2^k for k=5..9:
# median |R_t cap A| / g(t), g(t) = t / log_d(dt). Observed 0.375..0.457.
# Band: center/4 .. 4*center. Pilot: python scripts/pilot.py range.
RANGE_CENTER = 0.41
RANGE_FACTOR = 4.0
