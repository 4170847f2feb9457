"""Numerical substrate: Brent minimization, adaptive quadrature, erfc.

``integrate`` takes a vectorized integrand: a function of a 1-D float
array of abscissae that returns the values as an array of the same
length. It calls it once per refinement level with every node of that
level, and integrates one interval or, given arrays of interval ends,
several intervals in the same calls. ``minimize_1d`` works on scalars.
``erfc`` is the standard library's ``math.erfc`` behind a check that
rejects non-finite input.

Everything here is a pure function of its arguments and safe for
concurrent use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, NumericalDomainError

__all__ = [
    "Bracket",
    "ExtremumResult",
    "minimize_1d",
    "integrate",
    "erfc",
]

_GOLDEN = 0.3819660112501051  # 2 - golden ratio

# integrate holds every open subinterval of a level at once; a tolerance
# that cannot be met doubles them each level until memory runs out. The
# widest level of any integral that converges is about 2.2e5 nodes.
MAX_LEVEL_NODES = 2**20


@dataclass(frozen=True)
class Bracket:
    """Three abscissae lo < mid < hi enclosing an extremum."""

    lo: float
    mid: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.mid < self.hi):
            raise ValueError(f"bracket must satisfy lo < mid < hi, got {self}")


@dataclass(frozen=True)
class ExtremumResult:
    x: float
    fx: float
    iterations: int
    converged: bool


def minimize_1d(f, bracket, tol_x=1e-10, max_iter=200):
    """Refine a minimum bracket to width <= tol_x (Brent's method).

    Combines golden-section steps with parabolic interpolation. Returns
    ``converged=False`` if the iteration cap is hit first.
    """
    if tol_x <= 0:
        raise ValueError(f"tol_x must be positive, got {tol_x}")
    a, b = bracket.lo, bracket.hi
    x = w = v = bracket.mid
    fx = fw = fv = f(x)
    d = e = 0.0
    for it in range(1, max_iter + 1):
        m = 0.5 * (a + b)
        tol1 = 0.5 * tol_x
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return ExtremumResult(x, fx, it, True)
        use_golden = True
        if abs(e) > tol1:
            # trial parabolic fit through (v, w, x)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x < m else -tol1
                use_golden = False
        if use_golden:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return ExtremumResult(x, fx, max_iter, False)


def _simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def integrate(f, a, b, rel_tol=1e-9, abs_tol=1e-300, max_depth=60):
    """Adaptive Simpson quadrature of a vectorized f on [a, b].

    ``f`` takes a 1-D float array of abscissae and returns the values as
    an array of the same length. ``a`` and ``b`` are floats, or
    equal-length 1-D arrays of interval ends; the result is then the sum
    of the integrals over the intervals [a[i], b[i]], each refined with
    its own tolerance as if integrated alone.

    A subinterval is accepted once splitting it changes its Simpson value
    by at most 15*tol, and contributes the split value plus the
    Richardson term; otherwise both halves are refined with tol/2. The
    starting tol of an interval is max(abs_tol, rel_tol*|S|), with S its
    three-point Simpson value. All open subintervals of one depth are
    evaluated in a single call to f, so f sees the nodes of the
    depth-first recursion, in batches. Raises AccuracyError (carrying the
    best estimate) if a subinterval is still open at depth max_depth, or
    before a depth that would evaluate more than MAX_LEVEL_NODES nodes.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("a and b must be floats or equal-length 1-D arrays")
    if not np.all(a < b):
        raise ValueError(f"need a < b, got {a}, {b}")
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    m = 0.5 * (a + b)
    n = len(a)
    fx = np.asarray(f(np.concatenate([a, m, b])))
    fa, fm, fb = fx[:n], fx[n : 2 * n], fx[2 * n :]
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


def erfc(x):
    """Complementary error function of a finite float (``math.erfc``).

    Underflows to 0 for x above about 27.2.
    """
    if not math.isfinite(x):
        raise NumericalDomainError(f"erfc requires finite x, got {x}")
    return math.erfc(x)
