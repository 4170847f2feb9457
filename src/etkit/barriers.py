"""Activation barriers for the coupled two-state system.

Four methods are provided: the uncoupled Marcus barrier, the traditional
constant shift by V(1/2), a Marcus-form barrier built from a reduced
effective reorganization energy, and exact extremum analysis of the lower
adiabat, whose stationary points are the real roots of a polynomial.
``ExactAdiabat`` also cuts the axis of level shifts into pieces on which
the exact barrier is smooth, and keeps per-piece seeds from which
Newton's method finds it at many level shifts without the roots.
"""

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .constants import K_B
from .errors import SingularRegimeError, SurfaceTopologyError
from .model import (
    _coeffs,
    coupling_eval,
    coupling_max,
    derivative,
    horner,
    lower_adiabat,
)

__all__ = [
    "BarrierMethod",
    "BarrierResult",
    "marcus_ts",
    "marcus_barrier",
    "marcus_form",
    "effective_lambda",
    "effective_lambdas",
    "positive_effective_lambda",
    "barrier",
    "ExactAdiabat",
    "exact_adiabat",
    "closed_channel",
    "piece_shifts",
    "CLOSED",
    "DOWNHILL",
    "BARRIER",
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
# level shifts closer than this (eV) count as one
_SAME_SHIFT = 1e-12
# Chebyshev-Gauss points per BARRIER piece behind ExactAdiabat.seeds
_SEED_POINTS = 32
# Newton's method polishes the seeds until every step is at most
# _POLISH_STEP (in q), for at most _POLISH_STEPS steps; a root must end at
# most _POLISH_MOVE from its seed. Near a fold F' vanishes and the steps
# stall at their round-off floor (2.3e-12 at 1.6e-11 eV from one); an
# error d in q changes E_minus at a stationary point by about E'' d^2/2.
_POLISH_STEPS = 8
_POLISH_STEP = 1e-10
_POLISH_MOVE = 1e-6
# kinds of a piece of the dg axis (ExactAdiabat.pieces)
CLOSED, DOWNHILL, BARRIER = 0, 1, 2


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
    return _marcus(sys.lam, sys.dg0)


def _marcus(lam, dg):
    return (lam + dg) ** 2 / (4.0 * lam)


def marcus_form(lam, c, method):
    """The barrier of a Marcus-form method (MARCUS, CONSTANT_SHIFT or
    EFFECTIVE_LAMBDA) as a function of the driving force dg, a float or
    an array; built once, called per batch of driving forces.

    +inf marks a closed channel, as on the exact route: where lam_eff is
    not positive, the Marcus-form barrier diverges."""
    if method is BarrierMethod.MARCUS:
        return lambda dg: _marcus(lam, dg)
    if method is BarrierMethod.CONSTANT_SHIFT:
        v_half = float(coupling_eval(c, 0.5))
        return lambda dg: _marcus(lam, dg) - v_half
    if method is BarrierMethod.EFFECTIVE_LAMBDA:

        def eff(dg):
            lam_eff = effective_lambdas(lam, c, dg)
            open_ = lam_eff > 0.0
            # [()] leaves an array as it is and makes a float a numpy
            # scalar, whose ** 2 is the float's (a 0-d array's is x*x)
            lam_eff = np.where(open_, lam_eff, 1.0)[()]
            return np.where(open_, _marcus(lam_eff, dg), np.inf)[()]

        return eff
    raise TypeError(f"not a Marcus-form barrier method: {method!r}")


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
    return positive_effective_lambda(effective_lambdas(sys.lam, c, sys.dg0))


def positive_effective_lambda(lam_eff):
    """lam_eff as a float; raises SingularRegimeError if it is not
    positive."""
    lam_eff = float(lam_eff)
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

    ``shifts``, ``center_shift``, ``pieces`` and ``seeds`` depend on
    (lam, c) only: each is computed on first use and kept, its arrays
    read-only. Callers share one instance per pair through
    ``exact_adiabat``. ``barriers`` solves for every stationary point at
    each level shift; ``seeded_barriers`` serves the exact rate's nodes on
    the BARRIER pieces without an eigenvalue solve, by Newton's method
    from ``seeds``.
    """

    def __init__(self, lam, c):
        self.lam = lam
        self.coupling = c
        # ascending coefficients of V
        self._v = v = np.array(_coeffs(c), dtype=float)
        # 1 + degree of P: max(4, 2d + 2, 4d - 2) for a coupling of degree d
        n = max(5, 2 * len(v) + 1, 4 * len(v) - 5)
        # V, V' and V'' as rows of ascending coefficients
        dv = derivative(v)
        ddv = derivative(dv)
        taylor = np.zeros((3, len(v)))
        taylor[0], taylor[1, : len(dv)], taylor[2, : len(ddv)] = v, dv, ddv
        # for horner: ascending coefficients, each a (3, 1, 1) column
        self._taylor = taylor.T[:, :, None, None]
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
        column = dg[:, None]
        a, b, c2 = self._abc
        p = a + column * (b + column * c2)
        companion = self._companion.repeat(len(dg), axis=0)
        companion[:, :, -1] = p[:, :-1] / -p[:, -1:]
        roots = np.linalg.eigvals(companion)
        q = roots.real
        # a double root of P (the transition state at q = 1/2 when h
        # vanishes there, or a near-kink) comes back as a pair split by
        # ~1e-8, possibly complex (one of the two is kept), with M'*h at
        # noise level; so refine by one Newton step on F
        step, slope_h = self._newton_step(q, column)
        keep = (0.0 <= roots.imag) & (roots.imag <= 1e-6)
        keep &= slope_h >= -1e-12 * lam * (lam * lam)
        q = np.where(np.abs(step) <= 1e-6, q - step, q)
        # candidates between the window ends; a rejected one moves to the
        # upper end, so that after sorting the valid ones lead
        crossing, kink = self._crossing(column)
        ends = np.ones_like(column, dtype=bool)
        grid = np.concatenate([SCAN_Q_LO * ends, q, crossing, SCAN_Q_HI * ends], axis=1)
        keep = np.concatenate([ends, keep, kink, ends], axis=1)
        keep &= (SCAN_Q_LO <= grid) & (grid <= SCAN_Q_HI)
        grid = np.where(keep, grid, SCAN_Q_HI)
        grid.sort(axis=1)
        if kink.any():
            # a root of P at the kink candidate is one point: as two with
            # equal E_minus, the left copy would pass for an extremum
            # where E_minus is monotone (V = 0, dg outside (-lam, lam))
            twice = np.zeros_like(keep)
            twice[:, 1:] = grid[:, 1:] - grid[:, :-1] <= 1e-12
            grid[twice] = SCAN_Q_HI
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

    def _newton_step(self, q, dg):
        """Newton step toward a stationary point of E_minus at each q of a
        2-D array, and M'*h there; dg broadcasts against q.

        The step is on F = M' sqrt(g) - h, whose genuine roots are simple
        (F' = 2 lam sqrt(g) + M' h / sqrt(g) - h'), unlike those of P.
        """
        lam = self.lam
        v, dv, ddv = horner(self._taylor, q)
        slope = lam * (2.0 * q - 1.0)
        delta = slope - dg
        h = 0.5 * lam * delta + v * dv
        slope_h = slope * h
        with np.errstate(divide="ignore", invalid="ignore"):
            root_g = np.sqrt(0.25 * delta * delta + v * v)
            step = (slope * root_g - h) / (
                2.0 * lam * root_g + slope_h / root_g - (lam * lam + dv * dv + v * ddv)
            )
        return step, slope_h

    def _crossing(self, dg):
        """The diabatic crossing q = (1 + dg/lam)/2 of level shifts dg, and
        where V vanishes there (to _KINK_V): E_minus has a kink there that
        is no root of F."""
        q = 0.5 * (1.0 + dg / self.lam)
        return q, np.abs(coupling_eval(self.coupling, q)) <= _KINK_V

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

    @cached_property
    def shifts(self):
        """Level shifts (eV), ascending, at which the exact barrier can
        jump or kink.

        They are the fold points, where two stationary points of the lower
        adiabat meet; the kinks, where V vanishes at the diabatic
        crossing; and ``center_shift``. The fold points are the real roots
        in the window of the fold polynomial S(q) (the resultant in Delta
        of P and dP/dq, stripped of its factors (2q - 1)^2 V^2
        (lam^2 + V'^2)), polished by Newton's method. With a coupling that
        is 0 to within 1e-12 eV the folds are -lam and +lam. Some shifts
        may change nothing.
        """
        lam = self.lam
        v = self._v
        if coupling_max(self.coupling) <= _KINK_V:
            # E_minus = min(E_a, E_b): the reactant well turns downhill
            # at -lam and the product well vanishes at +lam
            folds = np.array([-lam, lam])
        else:
            folds = _fold_shifts(lam, v)
        roots = np.roots(v[::-1])
        q = roots.real[np.abs(roots.imag) <= 1e-8]
        kinks = lam * (2.0 * q[(SCAN_Q_LO <= q) & (q <= SCAN_Q_HI)] - 1.0)
        shifts = _distinct(np.concatenate([folds, kinks, [self.center_shift]]))
        shifts.flags.writeable = False
        return shifts

    @cached_property
    def center_shift(self):
        """The level shift 2 V V' / lam (at q = 1/2), the only one at which
        a stationary point sits at q = 1/2: P(1/2) = -h^2 there. A single
        well passes from the product side to the reactant side there."""
        v = self._v
        return 2.0 * float(horner(v, 0.5) * horner(derivative(v), 0.5)) / self.lam

    @cached_property
    def pieces(self):
        """The level-shift axis cut at ``shifts``, with each piece's kind.

        (lo, hi, kind): the ends of the pieces in ascending order (the
        first lo is -inf and the last hi +inf) and, from the topology at
        each piece's midpoint (one ``barriers`` call), CLOSED (see
        ``closed_channel``), DOWNHILL (a single product-side well, barrier
        0) or BARRIER. Across ``center_shift`` a stationary point only
        moves, unless V vanishes at q = 1/2 (a kink), so the two pieces
        next to it are joined when they are of the same kind. Raises
        SurfaceTopologyError if a stationary point crosses an end of the
        scan window inside a BARRIER piece: the barrier can jump there,
        and no shift cuts the piece.
        """
        edges = self.shifts
        ends = [edges[0] - self.lam], [edges[-1] + self.lam]
        probes = np.concatenate([ends[0], 0.5 * (edges[:-1] + edges[1:]), ends[1]])
        _e, _q_ts, q_r, single = self.barriers(probes)
        kind = np.where(single, DOWNHILL, BARRIER)
        kind[closed_channel(q_r, single)] = CLOSED
        i = np.abs(edges - self.center_shift).argmin()
        if kind[i] == kind[i + 1] and abs(coupling_eval(self.coupling, 0.5)) > _KINK_V:
            edges, kind = np.delete(edges, i), np.delete(kind, i)
        out = np.append(-np.inf, edges), np.append(edges, np.inf), kind
        inner = kind == BARRIER
        for dg in self._edge_crossings():
            if ((out[0][inner] < dg) & (dg < out[1][inner])).any():
                raise SurfaceTopologyError(
                    "a stationary point of the lower adiabat crosses an end of the "
                    f"scan window at level shift {dg:.6g} eV, inside a barrier piece"
                )
        for x in out:
            x.flags.writeable = False
        return out

    @cached_property
    def seeds(self):
        """Chebyshev series of the reactant well q_r(t) and the transition
        state q_ts(t) on each BARRIER piece (lo, hi), with t in [0, 1]
        under ``piece_shifts``, the map of the exact rate's rule; and which
        pieces they seed.

        One ``barriers`` call at _SEED_POINTS interior Chebyshev-Gauss
        points of every BARRIER piece gives them. A piece is seeded only if
        it is bounded and at every point the surface has two wells, the
        transition state lies right of the reactant well and the diabatic
        crossing is no kink. Returns (coef, seeded): coef[k] holds the
        coefficients of T_k(2t - 1), shape (2, pieces), q_r then q_ts;
        seeded one flag per BARRIER piece in order. Seeds nothing if the
        samples leave the scan window (``barriers`` raises).
        """
        lo, hi, kind = self.pieces
        lo, hi = lo[kind == BARRIER], hi[kind == BARRIER]
        n = _SEED_POINTS
        theta = np.pi * (np.arange(n) + 0.5) / n
        coef = np.zeros((n, 2, len(lo)))
        seeded = np.isfinite(lo) & np.isfinite(hi)
        dg = piece_shifts(lo[seeded, None], hi[seeded, None], 0.5 + 0.5 * np.cos(theta))
        try:
            _e, q_ts, q_r, single = self.barriers(dg.ravel())
        except SurfaceTopologyError:
            seeded[:] = False
        else:
            q_r, q_ts = q_r.reshape(dg.shape), q_ts.reshape(dg.shape)
            good = ~single.reshape(dg.shape) & (q_r < q_ts) & ~self._crossing(dg)[1]
            good = good.all(axis=1)
            # the discrete Chebyshev transform at the Gauss points
            samples = np.where(good[:, None], np.stack([q_r, q_ts]), 0.0)
            c = samples @ np.cos(np.outer(np.arange(n), theta)).T * (2.0 / n)
            c[:, :, 0] *= 0.5
            coef[:, :, seeded] = c.transpose(2, 0, 1)
            seeded[seeded] = good
        for x in coef, seeded:
            x.flags.writeable = False
        return coef, seeded

    def seeded_barriers(self, t, dg):
        """Exact barriers at the level shifts dg = piece_shifts(lo, hi, t)
        of the BARRIER pieces, without an eigenvalue solve.

        t and dg have shape (pieces, nodes), one row per BARRIER piece in
        order. The reactant well and the transition state come from
        ``seeds`` by Clenshaw's recurrence and are polished by Newton's
        method on F (``_newton_step``); E* = E_minus(q_ts) - E_minus(q_r).
        Returns (e_star, ok), ok one flag per piece: False where the piece
        is not seeded, or at some node the diabatic crossing is a kink, the
        last Newton step exceeds _POLISH_STEP, a root moved more than
        _POLISH_MOVE from its seed or q_r >= q_ts. e_star is meaningful
        only where ok; such a piece takes ``barriers`` at its nodes.
        """
        coef, ok = self.seeds
        # q_r and q_ts at every node, one row each
        seed = _clenshaw(coef, 2.0 * t - 1.0).reshape(2, -1)
        dg_all = dg.ravel()
        q = seed
        # a piece whose Newton iterates run off is rejected below, and
        # E_minus is taken at its seeds, where it is finite
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(_POLISH_STEPS):
                step, _slope_h = self._newton_step(q, dg_all)
                q = q - step
                if (np.abs(step) <= _POLISH_STEP).all():
                    break
            good = (np.abs(step) <= _POLISH_STEP) & (np.abs(q - seed) <= _POLISH_MOVE)
            good = good.all(axis=0) & (q[0] < q[1]) & ~self._crossing(dg_all)[1]
            ok = ok & good.reshape(dg.shape).all(axis=1)
            q = np.where(good, q, seed)
        # lower_adiabat reads only lam and dg0 of a system
        e = lower_adiabat(SimpleNamespace(lam=self.lam, dg0=dg_all), self.coupling, q)
        return np.maximum(e[1] - e[0], 0.0).reshape(dg.shape), ok

    def _edge_crossings(self):
        """Level shifts at which a stationary point crosses an end q of the
        window: the real roots in dg of P = A + dg*B + dg^2*C there (with
        C = lam^2 q (q - 1) > 0) at which M'*h >= 0."""
        q = np.repeat([SCAN_Q_LO, SCAN_Q_HI], 2)
        a, b, c2 = (horner(p, q) for p in self._abc)
        root = np.emath.sqrt(b * b - 4.0 * a * c2) * [-1.0, 1.0, -1.0, 1.0]
        dg = (root - b) / (2.0 * c2)
        real = dg.imag == 0.0
        q, dg = q[real], dg.real[real]
        v, dv, _ddv = horner(self._taylor[:, :, 0], q)
        slope = self.lam * (2.0 * q - 1.0)
        return dg[slope * (0.5 * self.lam * (slope - dg) + v * dv) >= 0.0]


@lru_cache(maxsize=64)
def exact_adiabat(lam, c):
    """The ExactAdiabat of (lam, c), one per pair for every caller (the
    last 64 are kept): its set-up depends on neither dg0, eta nor T."""
    return ExactAdiabat(lam, c)


def closed_channel(q_r, activationless):
    """Where ``ExactAdiabat.barriers`` reads a closed channel: a single
    reactant-side well (q_r < 1/2), no product state; rates use E* = +inf."""
    return activationless & (q_r < 0.5)


def piece_shifts(lo, hi, t):
    """The level shifts lo + (hi - lo) sin^2(pi t / 2) of t in [0, 1] on a
    piece (lo, hi); arrays broadcast. Under this map the exact rate's rule
    integrates a BARRIER piece, and E* is analytic in t at its fold ends.
    """
    sin = np.sin(0.5 * np.pi * t)
    return lo + (hi - lo) * sin * sin


def _clenshaw(coef, x):
    """sum_k coef[k] T_k(x) by Clenshaw's recurrence, coef[k] of shape
    (m, pieces) and x of shape (pieces, nodes); returns shape
    (m, pieces, nodes)."""
    coef = coef[:, :, :, None]
    x2 = 2.0 * x
    b1 = b2 = 0.0
    for c in coef[:0:-1]:
        b1, b2 = x2 * b1 - b2 + c, b1
    return x * b1 - b2 + coef[0]


def _padd(*polys):
    """Sum of polynomials with ascending coefficients."""
    out = np.zeros(max(len(p) for p in polys))
    for p in polys:
        out[: len(p)] += p
    return out


def _fold_terms(lam, v, dv, ddv, m, k, mul, add):
    """The fold polynomial S = k (k - W')^2 + 4 lam [M' W (k - V'^2)
    + V^2 (lam (V'^2 + lam^2) - M' V' V'')], with W = V V', from V, V',
    V'', M' = lam*(2q - 1) and k = M'^2 - lam^2. Given as values, with
    (np.multiply, np.add), it is S at those q; given as ascending
    coefficients, with (np.convolve, _padd), its coefficients."""
    dv2 = mul(dv, dv)
    kd = add(k, -add(dv2, mul(v, ddv)))
    middle = mul(mul(m, mul(v, dv)), add(k, -dv2))
    outer = mul(mul(v, v), add(lam * add(dv2, [lam * lam]), -mul(m, mul(dv, ddv))))
    return add(mul(k, mul(kd, kd)), 4.0 * lam * add(middle, outer))


def _fold_shifts(lam, v):
    """Level shifts of the fold points: the double roots in q of P, for
    V with ascending coefficients v.

    The roots of the fold polynomial are taken about q = 0 for q < 1/2
    and about q = 1 (in p = 1 - q) for q >= 1/2. A weak coupling puts a
    near-triple cluster at each of q = 0 and 1, and np.roots resolves
    one only near the origin of its expansion (about q = 0 alone, the
    fold near +lam was lost for 1e-12 < |V| < about 1e-8 eV).
    """
    return np.concatenate([_fold_half(lam, v, 1.0), _fold_half(lam, _reflected(v), -1.0)])


def _reflected(v):
    """Ascending coefficients in p of V(1 - p), from those v of V(q)."""
    out = np.zeros(len(v))
    for coef in v[::-1]:
        out = np.convolve(out, [1.0, -1.0])[: len(v)]
        out[0] += coef
    return out


def _fold_half(lam, v, sign):
    """Fold shifts from the roots x < 1/2 of the fold polynomial in
    x = q (sign 1, v the coefficients of V(q)) or x = 1 - q (sign -1, v
    those of V(1 - x)). dq/dx = sign, so M' = sign*lam*(2x - 1) and
    V'(q) = sign*dV/dx; q (q - 1) = x (x - 1)."""
    dv = sign * derivative(v)
    ddv = derivative(derivative(v))
    l2 = lam * lam
    m, k = sign * np.array([-lam, 2.0 * lam]), np.array([0.0, -4.0 * l2, 4.0 * l2])
    s = _fold_terms(lam, v, dv, ddv, m, k, np.convolve, _padd)
    scale = np.abs(s).max()
    while len(s) > 1 and abs(s[-1]) <= 1e-14 * scale:
        s = s[:-1]
    roots = np.roots(s[::-1])
    x = roots.real[np.abs(roots.imag) <= 1e-3]
    # the other half is the other expansion's; a root far outside the
    # window is rejected below anyway, and its Newton iterates can
    # overflow
    x = x[(SCAN_Q_LO - 1.0 <= x) & (x < 0.5)]
    ds = derivative(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Newton's method on S evaluated from V, V' and V'' at x, which
        # is better conditioned than its expanded coefficients
        for _ in range(8):
            m, k = sign * lam * (2.0 * x - 1.0), 4.0 * l2 * x * (x - 1.0)
            values = horner(v, x), horner(dv, x), horner(ddv, x)
            step = _fold_terms(lam, *values, m, k, np.multiply, np.add)
            step = step / horner(ds, x)
            x = x - step
            if not (np.abs(step) > 1e-15).any():
                break
        m, k = sign * lam * (2.0 * x - 1.0), 4.0 * l2 * x * (x - 1.0)
        vq, dvq, ddvq = horner(v, x), horner(dv, x), horner(ddv, x)
        # P = a2 Delta^2 + a1 Delta + a0 and dP/dq at fixed dg,
        # b2 Delta^2 + b1 Delta + b0, share the root Delta
        a2, a1, a0 = 0.25 * k, -lam * vq * dvq, vq * vq * (m * m - dvq * dvq)
        b2 = lam * m
        b1 = -lam * (dvq * dvq + vq * ddvq) + lam * k
        b0 = (
            2.0 * vq * dvq * (m * m - dvq * dvq)
            + 4.0 * lam * m * vq * vq
            - 2.0 * vq * vq * dvq * ddvq
            + 2.0 * lam * a1
        )
        delta = -(a2 * b0 - a0 * b2) / (a2 * b1 - a1 * b2)
        dg = m - delta
    ok = np.isfinite(dg) & (np.abs(step) <= 1e-9) & (SCAN_Q_LO <= x) & (x <= SCAN_Q_HI)
    return dg[ok]


def _distinct(x):
    """Sorted x with values within _SAME_SHIFT of their predecessor dropped."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = np.diff(x) > _SAME_SHIFT
    return x[keep]


def barrier(sys, c, method):
    """Activation barrier by the requested method.

    ConstantShift is deliberately not clamped at zero: the negative
    barriers it predicts for strongly exothermic reactions are part of
    its known pathology.
    """
    if method is BarrierMethod.EXACT_ADIABAT:
        e, q_ts, q_r, activationless = exact_adiabat(sys.lam, c).barriers(sys.dg0)
        return BarrierResult(
            float(e[0]), float(q_ts[0]), float(q_r[0]), sys.lam,
            bool(activationless[0]),
        )
    lam_used = sys.lam
    if method is BarrierMethod.EFFECTIVE_LAMBDA:
        lam_used = effective_lambda(sys, c)
    e = float(marcus_form(sys.lam, c, method)(sys.dg0))
    activationless = method is not BarrierMethod.CONSTANT_SHIFT and e == 0.0
    return BarrierResult(e, marcus_ts(sys), 0.0, lam_used, activationless)


def adiabatic_driving_force(sys, c):
    """E_minus(product minimum) - E_minus(reactant minimum).

    Diagnostic only; with coupling on, this deviates from dg0 at second
    order. Raises SurfaceTopologyError for a single-well surface.
    """
    _q, e, is_min, _ = exact_adiabat(sys.lam, c).extrema(np.array([float(sys.dg0)]))
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
