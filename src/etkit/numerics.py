"""Numerical substrate: trapezoid quadrature on halved grids, and the
Gauss-Legendre rule.

``integrate`` takes a vectorized integrand: a function of a 1-D float
array of abscissae that returns the values as an array of the same
length. It calls it once with the FIRST_BATCH + 1 nodes of the grid of
its first convergence test, then once per doubling with that doubling's
new midpoints.
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
# out. The widest doubling of a Marcus-form rate is 2^11 nodes on the
# rate_quadrature benchmark's draws; on the random draws of
# tests/quadrature_traffic.py it is 2^18 for narrow Condon eff channels
# and this limit for one eff channel that closes inside its window.
MAX_LEVEL_NODES = 2**20
# intervals of integrate's first call, the finer grid of its first
# convergence test (against its even nodes). The Marcus-form rates of the
# rate_quadrature benchmark stop at 2^9-2^12 intervals, so it evaluates
# no node the rule would not; its nodes see a Condon eff channel down to
# lam_eff/lam of about 4e-6.
FIRST_BATCH = 256
# relative agreement of integrate's successive sums; the Marcus-form
# rates also bound the mass outside their window by it
REL_TOL = 1e-9


def integrate(f, a, b):
    """Trapezoid quadrature of a vectorized f on [a, b], on equal
    intervals halved until two successive sums agree.

    ``f`` takes a 1-D float array of abscissae and returns the values as
    an array of the same length; ``a`` and ``b`` are floats.

    The rule's first call of f is the n + 1 nodes of n = FIRST_BATCH
    equal intervals, whose trapezoid sum T_n it tests against T_(n/2),
    the sum on their even nodes. It returns T_n once
    |T_n - T_(n/2)| <= REL_TOL*|T_n|; otherwise it halves the intervals,
    one call of f with the new midpoints per doubling, and tests again.
    The sums converge geometrically on an integrand that is analytic in a
    strip about [a, b] and negligible at both ends, such as a Marcus-form
    rate's over its window. Raises ValueError unless a and b are finite
    with a < b, and AccuracyError (carrying the last trapezoid sum)
    before a doubling would evaluate more than MAX_LEVEL_NODES new nodes.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got {a}, {b}")
    n = FIRST_BATCH
    h = (b - a) / n
    x = a + h * np.arange(n + 1)
    x[-1] = b
    y = np.asarray(f(x))
    last = 2.0 * h * (np.sum(y[::2]) - 0.5 * (y[0] + y[-1]))
    trap = 0.5 * last + h * np.sum(y[1::2])
    while True:
        if abs(trap - last) <= REL_TOL * abs(trap):
            return float(trap)
        if n > MAX_LEVEL_NODES:
            raise AccuracyError(
                f"quadrature would evaluate {n} new nodes in one doubling "
                f"(limit MAX_LEVEL_NODES = {MAX_LEVEL_NODES}) on [{a}, {b}]",
                best_estimate=float(trap),
            )
        mids = f(a + h * (np.arange(n) + 0.5))
        h *= 0.5
        n *= 2
        last, trap = trap, 0.5 * trap + h * np.sum(mids)


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

