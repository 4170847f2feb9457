"""Numerical substrate: composite Simpson quadrature and the Gauss-Legendre
rule.

``integrate`` takes a vectorized integrand: a function of a 1-D float
array of abscissae that returns the values as an array of the same
length. It calls it once with the FIRST_BATCH + 1 nodes of the first
FIRST_BATCH intervals, which serve every level up to FIRST_BATCH
intervals, then once per further doubling with that doubling's new
midpoints.
``gauss_legendre`` builds its nodes once per order, on first use.

Everything here is a pure function of its arguments and safe for
concurrent use.
"""

import functools
import math

import numpy as np

from .errors import AccuracyError

__all__ = [
    "integrate",
    "gauss_legendre",
]

# each doubling of integrate evaluates one new node per interval of the
# rule; a tolerance that cannot be met would double them until memory runs
# out. The widest doubling of a Marcus-form rate is 2^12 nodes on the
# rate_quadrature benchmark's draws, and 2^13 on random draws over lam
# 0.5-8 eV and 200-400 K.
MAX_LEVEL_NODES = 2**20
# intervals of integrate's first call of f. The Marcus-form rates of the
# rate_quadrature benchmark stop at 2^10-2^13 intervals, so on them the
# batch evaluates no node the rule would not; an integrand that converges
# sooner pays for the whole batch.
FIRST_BATCH = 64


def integrate(f, a, b, rel_tol=1e-9):
    """Composite Simpson quadrature of a vectorized f on [a, b].

    ``f`` takes a 1-D float array of abscissae and returns the values as
    an array of the same length; ``a`` and ``b`` are floats.

    The rule starts from the single Simpson panel [a, b] and halves its
    intervals until two successive Simpson sums S differ by at most
    rel_tol*|S|, and returns the last. Each sum is (4*T_2n - T_n)/3 from
    the running trapezoid sums on n and 2n intervals. The first call of f
    evaluates the FIRST_BATCH + 1 nodes of FIRST_BATCH intervals, and the
    levels up to there take their new midpoints from it by stride; each
    later doubling passes its new midpoints to f in one call. Exact on
    cubics. Raises ValueError unless a and b are finite with a < b and
    rel_tol is finite and positive, and AccuracyError (carrying the last
    Simpson sum) before a doubling would evaluate more than
    MAX_LEVEL_NODES new nodes.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got {a}, {b}")
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    h = 0.5 * (b - a)
    stride = FIRST_BATCH // 2  # spacing in y of the current level's nodes
    # (h/stride)*j rounds the same real as a level's h'*(i + 0.5) (h' is
    # h/2^k), so each node is bit for bit the one the doublings would make
    x = a + (h / stride) * np.arange(FIRST_BATCH + 1)
    x[-1] = b
    y = np.asarray(f(x))
    fa, fm, fb = y[0], y[stride], y[-1]
    trap = h * (0.5 * (fa + fb) + fm)
    simpson = (h / 3.0) * (fa + 4.0 * fm + fb)
    n = 2  # intervals of the trapezoid sum, each h wide
    while True:
        if n > MAX_LEVEL_NODES:
            raise AccuracyError(
                f"composite Simpson would evaluate {n} new nodes in one "
                f"doubling (limit MAX_LEVEL_NODES = {MAX_LEVEL_NODES}) on "
                f"[{a}, {b}]",
                best_estimate=float(simpson),
            )
        if stride > 1:
            mids = y[stride // 2 :: stride]
            stride //= 2
        else:
            mids = f(a + h * (np.arange(n) + 0.5))
        h *= 0.5
        n *= 2
        last_trap, trap = trap, 0.5 * trap + h * np.sum(mids)
        last, simpson = simpson, (4.0 * trap - last_trap) / 3.0
        if abs(simpson - last) <= rel_tol * abs(simpson):
            return float(simpson)


# home-grown: at n = 128 numpy's leggauss has 50x its end-weight error (1.4e-11)
@functools.cache
def gauss_legendre(n):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule
    on [-1, 1], as read-only arrays.

    Newton's method on the three-term recurrence of the Legendre
    polynomials, from the asymptotic estimate of each node.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")

    def legendre(x):
        # P_n(x) and P_n'(x)
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))

    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, slope = legendre(x)
        step = p / slope
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    slope = legendre(x)[1]
    weights = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights

