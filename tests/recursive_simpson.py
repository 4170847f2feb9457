"""The scalar, depth-first adaptive Simpson rule that etkit used before
its quadrature was evaluated one refinement level at a time.

Kept as the reference for ``etkit.numerics.integrate``: both apply the
same acceptance test to the same subintervals, so they must visit the
same nodes and agree up to the order in which the accepted pieces are
summed.
"""

from etkit.errors import AccuracyError


def _simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def recursive_simpson(f, a, b, rel_tol=1e-9, abs_tol=1e-300, max_depth=60):
    """Adaptive Simpson quadrature of a scalar f on [a, b].

    The estimated error is kept below max(rel_tol*|result|, abs_tol).
    Raises AccuracyError (carrying the best estimate) if the recursion
    depth cap is exceeded.
    """
    if not a < b:
        raise ValueError(f"need a < b, got {a}, {b}")
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    tol = max(abs_tol, rel_tol * abs(whole))
    failed_on = []

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        if depth >= max_depth:
            failed_on.append((a, b))
            return left + right + delta / 15.0
        half = 0.5 * tol
        return recurse(a, fa, lm, flm, m, fm, left, half, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, half, depth + 1
        )

    total = recurse(a, fa, m, fm, b, fb, whole, tol, 0)
    if failed_on:
        lo, hi = failed_on[0]
        raise AccuracyError(
            f"adaptive quadrature exceeded depth {max_depth} on "
            f"{len(failed_on)} subinterval(s), first [{lo}, {hi}]",
            best_estimate=total,
        )
    return total
