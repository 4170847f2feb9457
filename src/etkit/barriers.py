"""Activation barriers for the coupled two-state system.

Four methods are provided: the uncoupled Marcus barrier, the traditional
constant shift by V(1/2), a Marcus-form barrier built from a reduced
effective reorganization energy, and exact extremum analysis of the lower
adiabat, whose stationary points are the real roots of a polynomial.
"""

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .constants import K_B
from .errors import SingularRegimeError, SurfaceTopologyError
from .model import (
    as_polynomial,
    coupling_eval,
    coupling_max,
    lower_adiabat,
)

__all__ = [
    "BarrierMethod",
    "BarrierResult",
    "marcus_ts",
    "marcus_barrier",
    "effective_lambda",
    "effective_lambdas",
    "barrier",
    "ExactAdiabat",
    "adiabatic_driving_force",
    "validity_report",
]

# window for adiabat extrema: both diabatic minima (q=0, 1) and the
# crossing lie strictly inside for the normal regime
SCAN_Q_LO = -0.5
SCAN_Q_HI = 1.5
# |V| (eV) at the diabatic crossing below which it counts as a kink
_KINK_V = 1e-12
# (2q - 1)^3, ascending
_CUBE = np.array([-1.0, 6.0, -12.0, 8.0])


class BarrierMethod(enum.Enum):
    MARCUS = "marcus"
    CONSTANT_SHIFT = "shift"
    EFFECTIVE_LAMBDA = "eff"
    EXACT_ADIABAT = "exact"


@dataclass(frozen=True)
class BarrierResult:
    e_star: float
    q_ts: float
    q_r: float
    lambda_used: float
    activationless: bool


def marcus_ts(sys):
    """Diabatic crossing coordinate q* = (1 + dg0/lam)/2."""
    return 0.5 * (1.0 + sys.dg0 / sys.lam)


def marcus_barrier(sys):
    """Uncoupled barrier (lam + dg0)^2 / (4*lam)."""
    return (sys.lam + sys.dg0) ** 2 / (4.0 * sys.lam)


def effective_lambdas(lam, c, dg0):
    """lam_eff of effective_lambda at each driving force in dg0 (a scalar
    or an array), returned as it is where it is not positive."""
    v0 = float(coupling_eval(c, 0.0))
    return lam - 4.0 * coupling_eval(c, 0.5 * (1.0 + dg0 / lam)) + 4.0 * v0 * v0 / lam


def effective_lambda(sys, c):
    """Reduced effective reorganization energy.

    lam_eff = lam - 4*V(q*) + 4*V(0)^2/lam with q* the diabatic crossing;
    for a constant coupling V and dg0=0 this is lam*(1 - 2V/lam)^2.
    Raises SingularRegimeError when the result is non-positive (the
    Marcus-form barrier diverges there).
    """
    lam_eff = float(effective_lambdas(sys.lam, c, sys.dg0))
    if lam_eff <= 0.0:
        raise SingularRegimeError(
            f"effective reorganization energy non-positive ({lam_eff:.6g} eV)"
        )
    return lam_eff


class ExactAdiabat:
    """Extrema of the lower adiabat of (lam, c) at arrays of level shifts.

    The stationary points at a level shift dg are the real roots in the
    window of P(q) = M'^2 g - h^2, where M' = lam*(2q - 1) is the slope
    of the diabat mean, g = Delta^2/4 + V^2, h = lam*Delta/2 + V V' and
    Delta = lam*(2q - 1) - dg is the diabat gap. Squaring adds the roots
    where sign(M') != sign(h); they are dropped. P = A + dg*B + dg^2*C
    with polynomials A, B, C of lam and the coupling only: they are
    formed once here, and one stacked companion-matrix eigenvalue call
    solves every dg of a batch. Where V vanishes at the diabatic
    crossing, E_minus has a kink there that is no root of E_minus', so
    the crossing is added as a candidate.
    """

    def __init__(self, lam, c):
        self.lam = lam
        self.coupling = c
        v = np.array(as_polynomial(c).coeffs)
        # 1 + degree of P: max(4, 2d + 2, 4d - 2) for a coupling of degree d
        n = max(5, 2 * len(v) + 1, 4 * len(v) - 5)
        # V, V' and V'' as rows of ascending coefficients
        taylor = np.zeros((3, len(v)))
        taylor[0] = v
        taylor[1, :-1] = v[1:] * np.arange(1.0, len(v))
        taylor[2, :-1] = taylor[1, 1:] * np.arange(1.0, len(v))
        # Horner coefficients from the top power down, each a (3, 1, 1) column
        self._horner = taylor.T[::-1, :, None, None]
        l2 = lam * lam
        m2 = np.zeros(n)  # M'^2 = lam^2 (2q - 1)^2
        m2[:3] = l2, -4.0 * l2, 4.0 * l2
        vv = np.zeros(n)
        vv[: 2 * len(v) - 1] = np.convolve(v, v)
        h0 = np.zeros(n)  # h at dg = 0: lam M'/2 + V V'
        h0[: 2 * len(v) - 1] = np.convolve(v, taylor[1])
        h0[:2] += -0.5 * l2, l2
        abc = np.zeros((3, n))
        abc[0] = np.convolve(m2, 0.25 * m2 + vv)[:n] - np.convolve(h0, h0)[:n]
        abc[1] = lam * h0
        abc[1, :4] -= 0.5 * lam * l2 * _CUBE  # M'^3/2
        abc[2, 1:3] = -l2, l2  # (M'^2 - lam^2)/4
        # drop top coefficients that vanish for every dg
        scale = np.abs(abc).max(axis=1)
        while (np.abs(abc[:, -1]) <= 1e-14 * scale).all():
            abc = abc[:, :-1]
        self._abc = abc
        self._companion = np.eye(abc.shape[1] - 1, k=-1)[None]

    def extrema(self, dg):
        """Stationary points at every level shift in the 1-D array dg.

        Returns (q, e, is_min, is_max), each of shape (len(dg), k): the
        candidates in ascending q, then SCAN_Q_HI as padding; E_minus
        there; and which of them are strict minima and maxima (of two
        equal neighbours, the left one counts).
        """
        lam = self.lam
        l2 = lam * lam
        column = dg[:, None]
        a, b, c2 = self._abc
        p = a + column * (b + column * c2)
        companion = self._companion.repeat(len(dg), axis=0)
        companion[:, :, -1] = p[:, :-1] / -p[:, -1:]
        roots = np.linalg.eigvals(companion)
        q = roots.real
        # V, V' and V'' at the roots, by Horner's rule
        v = self._horner[0] + 0.0 * q
        for coef in self._horner[1:]:
            v = v * q + coef
        v, dv, ddv = v
        slope = lam * (2.0 * q - 1.0)
        delta = slope - column
        h = 0.5 * lam * delta + v * dv
        # a double root of P (the transition state at q = 1/2 when h
        # vanishes there, or a near-kink) comes back as a pair split by
        # ~1e-8, possibly complex (one of the two is kept), with M'*h at
        # noise level
        slope_h = slope * h
        keep = (0.0 <= roots.imag) & (roots.imag <= 1e-6)
        keep &= slope_h >= -1e-12 * lam * l2
        # so refine by one Newton step on F = M' sqrt(g) - h, whose
        # genuine roots are simple (F' = 2 lam sqrt(g) + M' h / sqrt(g) - h')
        with np.errstate(divide="ignore", invalid="ignore"):
            root_g = np.sqrt(0.25 * delta * delta + v * v)
            step = (slope * root_g - h) / (
                2.0 * lam * root_g + slope_h / root_g - (l2 + dv * dv + v * ddv)
            )
        q = np.where(np.abs(step) <= 1e-6, q - step, q)
        # candidates between the window ends; a rejected one moves to the
        # upper end, so that after sorting the valid ones lead
        crossing = 0.5 * (1.0 + column / lam)
        kink = np.abs(coupling_eval(self.coupling, crossing)) <= _KINK_V
        ends = np.ones_like(column, dtype=bool)
        grid = np.concatenate([SCAN_Q_LO * ends, q, crossing, SCAN_Q_HI * ends], axis=1)
        keep = np.concatenate([ends, keep, kink, ends], axis=1)
        keep &= (SCAN_Q_LO <= grid) & (grid <= SCAN_Q_HI)
        grid = np.where(keep, grid, SCAN_Q_HI)
        grid.sort(axis=1)
        cand = grid[:, 1:-1]
        valid = (SCAN_Q_LO < cand) & (cand < SCAN_Q_HI)
        # lower_adiabat reads only lam and dg0 of a system; here dg0 is
        # the column of level shifts, one per row
        e = lower_adiabat(SimpleNamespace(lam=lam, dg0=column), self.coupling, grid)
        left, mid, right = e[:, :-2], e[:, 1:-1], e[:, 2:]
        is_min = valid & (mid < left) & (mid <= right)
        is_max = valid & (mid > left) & (mid >= right)
        return cand, mid, is_min, is_max

    def barriers(self, dg):
        """Exact barriers at every level shift in dg (scalar or array).

        The first two minima in q are the reactant and product wells and
        the transition state is the highest maximum between them. With
        fewer than two minima, or no maximum between them, the surface is
        activationless (barrier 0). Returns the arrays (e_star, q_ts, q_r,
        activationless); q_ts is NaN where activationless. Raises
        SurfaceTopologyError if some level shift has no minimum in the
        window.
        """
        dg = np.atleast_1d(np.asarray(dg, dtype=float))
        q, e, is_min, is_max = self.extrema(dg)
        count = is_min.cumsum(axis=1)
        if not count[:, -1].all():
            raise SurfaceTopologyError(
                "no minimum of the lower adiabat in the scan window"
            )
        # maxima past the reactant well (the first minimum) but not past
        # the product well (the second)
        e_ts = np.where(is_max & (count == 1) & (count[:, -1:] >= 2), e, -np.inf)
        rows = np.arange(len(dg))
        reactant = is_min.argmax(axis=1)
        ts = e_ts.argmax(axis=1)
        e_ts = e_ts[rows, ts]
        e_star = np.maximum(e_ts - e[rows, reactant], 0.0)
        activationless = e_ts == -np.inf
        q_ts = np.where(activationless, np.nan, q[rows, ts])
        return e_star, q_ts, q[rows, reactant], activationless


def barrier(sys, c, method):
    """Activation barrier by the requested method.

    ConstantShift is deliberately not clamped at zero: the negative
    barriers it predicts for strongly exothermic reactions are part of
    its known pathology.
    """
    q_star = marcus_ts(sys)
    if method is BarrierMethod.MARCUS:
        e = marcus_barrier(sys)
        return BarrierResult(e, q_star, 0.0, sys.lam, e == 0.0)
    if method is BarrierMethod.CONSTANT_SHIFT:
        e = marcus_barrier(sys) - float(coupling_eval(c, 0.5))
        return BarrierResult(e, q_star, 0.0, sys.lam, False)
    if method is BarrierMethod.EFFECTIVE_LAMBDA:
        lam_eff = effective_lambda(sys, c)
        e = (lam_eff + sys.dg0) ** 2 / (4.0 * lam_eff)
        return BarrierResult(e, q_star, 0.0, lam_eff, e == 0.0)
    if method is BarrierMethod.EXACT_ADIABAT:
        e, q_ts, q_r, activationless = ExactAdiabat(sys.lam, c).barriers(sys.dg0)
        return BarrierResult(
            float(e[0]), float(q_ts[0]), float(q_r[0]), sys.lam,
            bool(activationless[0]),
        )
    raise TypeError(f"unknown barrier method: {method!r}")


def adiabatic_driving_force(sys, c):
    """E_minus(product minimum) - E_minus(reactant minimum).

    Diagnostic only; with coupling on, this deviates from dg0 at second
    order. Raises SurfaceTopologyError for a single-well surface.
    """
    _q, e, is_min, _ = ExactAdiabat(sys.lam, c).extrema(np.array([float(sys.dg0)]))
    minima = e[is_min]
    if len(minima) < 2:
        raise SurfaceTopologyError(
            "lower adiabat is single-welled; no adiabatic driving force"
        )
    return float(minima[1] - minima[0])


def validity_report(sys, c):
    """Heuristic warnings for regimes where the reduced-lambda barrier
    formula degrades."""
    warnings = []
    v_max = coupling_max(c)
    try:
        lam_eff = effective_lambda(sys, c)
    except SingularRegimeError:
        lam_eff = 0.0
    if lam_eff <= 0.1 * sys.lam:
        warnings.append(
            f"effective reorganization energy {lam_eff:.4g} eV is <= 10% of "
            f"lam={sys.lam:.4g} eV; Marcus-form barrier near singular"
        )
    if abs(sys.dg0) / sys.lam > 0.25:
        warnings.append(
            f"|dg0|/lam = {abs(sys.dg0) / sys.lam:.3g} > 0.25; truncated "
            "higher-order terms may matter"
        )
    if v_max / sys.lam > 0.5:
        warnings.append(
            f"max coupling {v_max:.4g} eV exceeds lam/2; expansion about the "
            "crossing unreliable"
        )
    if v_max < K_B * 300.0:
        warnings.append(
            f"max coupling {v_max:.4g} eV is below k_B*T at 300 K; system is "
            "in the non-adiabatic regime"
        )
    return warnings
