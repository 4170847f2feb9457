"""Numerical substrate: composite Simpson quadrature and the Gauss-Legendre
rule.

``integrate`` takes a vectorized integrand: a function of a 1-D float
array of abscissae that returns the values as an array of the same
length. It calls it once with the three nodes of the first panel, then
once per doubling with that doubling's new midpoints.
``gauss_legendre`` builds its nodes once per order, on first use.

Everything here is a pure function of its arguments and safe for
concurrent use.
"""

import functools

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


def integrate(f, a, b, rel_tol=1e-9):
    """Composite Simpson quadrature of a vectorized f on [a, b].

    ``f`` takes a 1-D float array of abscissae and returns the values as
    an array of the same length; ``a`` and ``b`` are floats.

    The rule starts from the single Simpson panel [a, b] and halves its
    intervals until two successive Simpson sums S differ by at most
    rel_tol*|S|, and returns the last. Each sum is (4*T_2n - T_n)/3 from
    the running trapezoid sums on n and 2n intervals, and each doubling
    passes its new midpoints to f in one call. Exact on cubics. Raises
    AccuracyError (carrying the last Simpson sum) before a doubling would
    evaluate more than MAX_LEVEL_NODES new nodes.
    """
    if not a < b:
        raise ValueError(f"need a < b, got {a}, {b}")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    h = 0.5 * (b - a)
    fa, fm, fb = np.asarray(f(np.array([a, a + h, b])))
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
        mids = a + h * (np.arange(n) + 0.5)
        h *= 0.5
        n *= 2
        last_trap, trap = trap, 0.5 * trap + h * np.sum(f(mids))
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

