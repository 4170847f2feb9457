"""Numerical substrate: adaptive quadrature and the Gauss-Legendre rule.

``integrate`` takes a vectorized integrand: a function of a 1-D float
array of abscissae that returns the values as an array of the same
length. It calls it once per refinement level with every node of that
level. ``gauss_legendre`` builds its nodes once per order, on first use.

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

# integrate holds every open subinterval of a level at once; a tolerance
# that cannot be met doubles them each level until memory runs out. The
# widest level of any integral that converges is about 2.2e5 nodes.
MAX_LEVEL_NODES = 2**20


def _simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def integrate(f, a, b, rel_tol=1e-9, abs_tol=1e-300, max_depth=60):
    """Adaptive Simpson quadrature of a vectorized f on [a, b].

    ``f`` takes a 1-D float array of abscissae and returns the values as
    an array of the same length; ``a`` and ``b`` are floats.

    A subinterval is accepted once splitting it changes its Simpson value
    by at most 15*tol, and contributes the split value plus the
    Richardson term; otherwise both halves are refined with tol/2. The
    starting tol is max(abs_tol, rel_tol*|S|), with S the three-point
    Simpson value of [a, b]. All open subintervals of one depth are
    evaluated in a single call to f, so f sees the nodes of the
    depth-first recursion, in batches. Raises AccuracyError (carrying the
    best estimate) if a subinterval is still open at depth max_depth, or
    before a depth that would evaluate more than MAX_LEVEL_NODES nodes.
    """
    if not a < b:
        raise ValueError(f"need a < b, got {a}, {b}")
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    # the open subintervals of a level, as arrays: one to start with
    a, b = np.array([a], dtype=float), np.array([b], dtype=float)
    m = 0.5 * (a + b)
    fa, fm, fb = np.asarray(f(np.concatenate([a, m, b]))).reshape(3, 1)
    whole = _simpson(fa, fm, fb, b - a)
    tol = np.maximum(abs_tol, rel_tol * np.abs(whole))
    parts = []
    for depth in range(max_depth + 1):
        n = len(a)
        if 2 * n > MAX_LEVEL_NODES:
            raise AccuracyError(
                f"adaptive quadrature would evaluate {2 * n} nodes in one "
                f"level (limit MAX_LEVEL_NODES = {MAX_LEVEL_NODES}), first "
                f"subinterval [{a[0]}, {b[0]}]",
                best_estimate=math.fsum(np.concatenate(parts + [whole])),
            )
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        fx = np.asarray(f(np.concatenate([lm, rm])))
        flm, frm = fx[:n], fx[n:]
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        estimate = left + right + delta / 15.0
        done = np.abs(delta) <= 15.0 * tol
        parts.append(estimate[done])
        if done.all():
            return math.fsum(np.concatenate(parts))
        keep = ~done
        if depth == max_depth:
            raise AccuracyError(
                f"adaptive quadrature exceeded depth {max_depth} on "
                f"{int(keep.sum())} subinterval(s), first "
                f"[{a[keep][0]}, {b[keep][0]}]",
                best_estimate=math.fsum(np.concatenate(parts + [estimate[keep]])),
            )
        # each open subinterval splits into its left and right half, in
        # that order, so that the arrays stay in ascending x
        halves = np.array(
            [[a, m, fa, flm, fm, left, tol], [m, b, fm, frm, fb, right, tol]]
        )[:, :, keep]
        halves = halves.transpose(1, 2, 0).reshape(7, -1)
        a, b, fa, fm, fb, whole, tol = halves
        m = 0.5 * (a + b)
        tol = 0.5 * tol


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

