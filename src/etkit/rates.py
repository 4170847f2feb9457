"""Heterogeneous rate constants for a molecular level exchanging an
electron with a metallic continuum.

The total reduction rate integrates single-level Marcus-type rates over
the Fermi-weighted continuum (wide-band density of states): by composite
Simpson quadrature, its intervals halved until it converges, on the
Marcus-form routes, and by a fixed Gauss-Legendre rule between the fold
points of the lower adiabat on the exact route. A closed-form
approximation of that integral is provided for the Marcus-form barrier,
and the driving-force-dependent effective reorganization energy supplies
the inverse problem of extracting the coupling.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .barriers import (
    BARRIER,
    DOWNHILL,
    BarrierMethod,
    closed_channel,
    effective_lambda,
    exact_adiabat,
    marcus_form,
    piece_shifts,
)
from .constants import H, HBAR, K_B, beta
from .errors import (
    AccuracyError,
    NumericalDomainError,
    SingularRegimeError,
    SurfaceTopologyError,
)
from .model import coupling_eval

__all__ = [
    "PrefactorKind",
    "ElectrodeConditions",
    "RateRequest",
    "fermi_dirac",
    "prefactor",
    "mhc_rate_numeric",
    "effective_lambda_overpotential",
    "mhc_rate_closed_form",
    "closed_form_rates",
    "extract_coupling",
]

# Gauss-Legendre nodes on each side of the Fermi step in a barrier piece
_EXACT_NODES = 128
# Marcus-form routes: integrate's rel_tol, and the most the mass outside
# the window may be, relative to the window's integral
_REL_TOL = 1e-9


class PrefactorKind(enum.Enum):
    ADIABATIC = "adiabatic"
    NON_ADIABATIC = "non_adiabatic"


@dataclass(frozen=True)
class ElectrodeConditions:
    """Electrode-side inputs for the rate integral.

    eta_f is the formal overpotential in volts; for a single electron
    e*eta_f in eV equals eta_f numerically. rho is the wide-band density
    of states in 1/eV.
    """

    temperature: float
    eta_f: float
    rho: float = 1.0
    prefactor: PrefactorKind = PrefactorKind.ADIABATIC

    def __post_init__(self):
        beta(self.temperature)  # raises unless finite and positive
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not math.isfinite(self.eta_f):
            raise ValueError(f"eta_f must be finite, got {self.eta_f}")


@dataclass(frozen=True)
class RateRequest:
    sys: object
    coupling: object
    cond: ElectrodeConditions
    barrier_method: BarrierMethod


def fermi_dirac(eps, T):
    """Occupancy 1/(1 + exp(eps/kT)); stable for |eps/kT| up to ~700.

    eps may be a scalar or an array.
    """
    x = beta(T) * np.asarray(eps, dtype=float)
    e = np.exp(-np.minimum(np.abs(x), 745.0))
    return np.where(x >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))[()]


def prefactor(kind, sys, coupling_at_crossing, T):
    """Attempt-frequency prefactor in 1/s.

    Adiabatic: classical attempt frequency kT/h. Non-adiabatic: golden
    rule form (V^2/hbar)*sqrt(pi*beta/lam) with V the coupling at the
    crossing.
    """
    b = beta(T)  # also rejects a temperature that is not finite and positive
    if kind is PrefactorKind.ADIABATIC:
        return K_B * T / H
    if kind is PrefactorKind.NON_ADIABATIC:
        v = coupling_at_crossing
        return (v * v / HBAR) * math.sqrt(math.pi * b / sys.lam)
    raise TypeError(f"unknown prefactor kind: {kind!r}")


def _exact_integral(adiabat, eta, T):
    """integral of n(eps) * exp(-beta*E*(eta - eps)) over eps on the exact
    route, piece by piece of the level-shift axis.

    Closed pieces and nodes (E* = +inf) contribute 0. On a downhill piece
    E* = 0 and the integral of the Fermi function is kT*ln(1 + e^(-beta*eps))
    between its ends. A barrier piece (lo, hi) is mapped by
    dg = lo + (hi - lo)*sin^2(pi*t/2) (``piece_shifts``), which makes the
    integrand analytic in t at fold singularities, split at the Fermi step
    dg = eta (or at t = 1/2), and integrated by Gauss-Legendre on each
    part. E* at the nodes comes from ``ExactAdiabat.seeded_barriers``
    (Newton's method from the pieces' cached seeds); the nodes of the
    pieces it does not accept go into one ``barriers`` call.
    """
    b = beta(T)
    lo, hi, kind = adiabat.pieces
    down, barrier = kind == DOWNHILL, kind == BARRIER
    if np.isinf(lo[barrier]).any() or np.isinf(hi[barrier | down]).any():
        raise SurfaceTopologyError(
            "a barrier piece of the level-shift axis, or a downhill one "
            "above it, is unbounded: the exact rate integral has no end"
        )
    # kT*ln(1 + e^(-beta*eps)) at eps = eta - hi minus at eps = eta - lo
    downhill = np.sum(
        np.logaddexp(0.0, -b * (eta - hi[down]))
        - np.logaddexp(0.0, -b * (eta - lo[down]))
    ) / b
    lo, hi = lo[barrier], hi[barrier]
    width = hi - lo
    # the t of the Fermi step, or t = 1/2 where the step lies outside
    s = (eta - lo) / width
    s = np.where((0.0 < s) & (s < 1.0), s, 0.5)
    split = np.arcsin(np.sqrt(s)) / (0.5 * np.pi)
    # t and its weights on [0, split] and [split, 1], one row per part
    x, w = numerics.gauss_legendre(_EXACT_NODES)
    start = np.stack([np.zeros_like(split), split], axis=1)[:, :, None]
    half = 0.5 * np.stack([split, 1.0 - split], axis=1)[:, :, None]
    t = start + half * (x + 1.0)
    phase = 0.5 * np.pi * t
    # d dg / dt = (hi - lo) * (pi/2) * sin(pi t)
    weight = half * w * width[:, None, None] * np.pi * np.sin(phase) * np.cos(phase)
    # one row of nodes per piece
    t = t.reshape(len(t), 2 * _EXACT_NODES)
    dg = piece_shifts(lo[:, None], hi[:, None], t)
    e_star, seeded = adiabat.seeded_barriers(t, dg)
    if not seeded.all():
        e, _q_ts, q_r, single = adiabat.barriers(dg[~seeded].ravel())
        e = np.where(closed_channel(q_r, single), np.inf, e)
        e_star[~seeded] = e.reshape(-1, 2 * _EXACT_NODES)
    dg = dg.ravel()
    nodes = weight.ravel() * fermi_dirac(eta - dg, T) * np.exp(-b * e_star.ravel())
    return float(downhill + np.sum(nodes))


def mhc_rate_numeric(req):
    """Reduction rate in 1/s, integrated over the continuum.

    k = A * rho * integral n(eps) * exp(-beta*E*(lam, e*eta_f - eps)) deps.
    A closed channel has E* = +inf and contributes exp(-inf) = 0: on the
    exact route a single reactant-side well, on the eff route lam_eff <= 0.

    On the EXACT_ADIABAT route the integral has no window and no
    adaptivity: closed forms on the downhill pieces of the level-shift
    axis and a fixed Gauss-Legendre rule on its barrier pieces (see
    ``ExactAdiabat.pieces``), which depend on (lam, coupling) only: the
    ``ExactAdiabat`` of a pair comes from ``barriers.exact_adiabat``, shared
    with ``barrier()``. The barrier at the rule's nodes is exact: Newton's
    method from the pieces' cached seeds (``ExactAdiabat.seeded_barriers``),
    or the eigenvalue path ``ExactAdiabat.barriers`` on a piece that the
    seeds cannot serve. It raises SurfaceTopologyError if a barrier piece
    is unbounded or a stationary point leaves the scan window inside one.

    On the Marcus-form routes, one composite Simpson quadrature
    (``numerics.integrate``: intervals halved until two successive sums
    agree to relative 1e-9) runs over the window [-W, W],
    W = 2*lam + |e*eta_f| + 40*kT. The mass outside it is bounded in
    closed form: every Marcus-form barrier has E*(dg) >= dg - v_s and
    E* >= -v_s, with v_s = max(V(1/2), 0) on the shift route and 0 on
    the others, because (l + dg)^2/(4 l) - dg = (l - dg)^2/(4 l) >= 0
    for every l > 0. With n(eps) <= e^(-beta*eps) above the window and
    n <= 1 below it, the tails hold at most
    B = kT (e^(beta(v_s - W)) + e^(beta(v_s - e*eta_f - W))). Raises
    AccuracyError, carrying the best estimate of the rate, unless
    B <= 1e-9 times the window's integral; if that integral is 0 (a rate
    whose every node is closed, e.g. lam_eff = 0 everywhere, or a
    channel too narrow for the quadrature's nodes; raises with 0); or if
    the quadrature gives up (``numerics.MAX_LEVEL_NODES``).
    """
    sys, c, cond = req.sys, req.coupling, req.cond
    T = cond.temperature
    b = beta(T)
    v_half = float(coupling_eval(c, 0.5))
    a_pref = prefactor(cond.prefactor, sys, v_half, T)
    if a_pref == 0.0:
        return 0.0
    scale = a_pref * cond.rho
    if req.barrier_method is BarrierMethod.EXACT_ADIABAT:
        return scale * _exact_integral(exact_adiabat(sys.lam, c), cond.eta_f, T)
    e_star = marcus_form(sys.lam, c, req.barrier_method)

    def integrand(eps):
        return fermi_dirac(eps, T) * np.exp(-b * e_star(cond.eta_f - eps))

    w = 2.0 * sys.lam + abs(cond.eta_f) + 40.0 * K_B * T
    try:
        total = numerics.integrate(integrand, -w, w, rel_tol=_REL_TOL)
    except AccuracyError as exc:
        raise AccuracyError(str(exc), best_estimate=scale * exc.best_estimate) from exc
    v_s = 0.0
    if req.barrier_method is BarrierMethod.CONSTANT_SHIFT:
        v_s = max(v_half, 0.0)
    # each term in one exponent, which w >= |eta| + 40 kT keeps below
    # beta*v_s - 40
    tail = K_B * T * (np.exp(b * (v_s - w)) + np.exp(b * (v_s - cond.eta_f - w)))
    if not tail <= _REL_TOL * total:
        raise AccuracyError(
            f"tail bound {tail:.3g} eV outside the window +-{w:.6g} eV exceeds "
            f"{_REL_TOL:g} of the window's integral {total:.3g} eV",
            best_estimate=scale * total,
        )
    if total == 0.0:
        # the bound underflowed to 0 as well, yet certifies no rate of 0
        raise AccuracyError(
            f"every quadrature node over the window +-{w:.6g} eV is closed "
            "or underflows: the window's integral is 0",
            best_estimate=0.0,
        )
    return scale * total


def effective_lambda_overpotential(sys, c, eta_f):
    """Effective reorganization energy at the Fermi level for a given
    overpotential: lam - 4*V((lam + e*eta_f)/(2*lam)) + 4*V(0)^2/lam."""
    return effective_lambda(replace(sys, dg0=eta_f), c)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def closed_form_rates(lambda_eff, eta_f, T, rho):
    """Closed-form rates (1/s), lambda_eff, eta_f and T broadcast against
    each other.

    The array form of ``mhc_rate_closed_form``, with the same arithmetic
    element by element. T is taken as valid (finite and positive), as
    ``ElectrodeConditions`` makes it. Raises SingularRegimeError if any
    lambda_eff is not positive, and NumericalDomainError if an erfc
    argument is not finite (e.g. a NaN or infinite lambda_eff).
    """
    lambda_eff = np.asarray(lambda_eff, dtype=float)
    if np.any(lambda_eff <= 0.0):
        raise SingularRegimeError(
            f"lambda_eff must be positive, got {lambda_eff}"
        )
    b = 1.0 / (K_B * np.asarray(T, dtype=float))
    bl = b * lambda_eff
    be = b * np.asarray(eta_f, dtype=float)
    # an infinite lambda_eff makes inf - inf: NaN, reported below
    with np.errstate(invalid="ignore"):
        arg = (bl - np.sqrt(1.0 + np.sqrt(bl) + be * be)) / (2.0 * np.sqrt(bl))
    finite = np.isfinite(arg)
    if not finite.all():
        raise NumericalDomainError(
            f"erfc requires finite x, got {float(arg[~finite][0])}"
        )
    occupancy = 1.0 / (1.0 + np.exp(np.minimum(be, 700.0)))
    return (
        rho
        * np.sqrt(math.pi * lambda_eff / b)
        / (b * H)
        * occupancy
        * np.asarray(_erfc(arg), dtype=float)
    )


def mhc_rate_closed_form(lambda_eff, cond):
    """Closed-form rate (1/s) for a Marcus-form barrier with lambda_eff.

    Uses the classical attempt-frequency structure; the coupling enters
    only through lambda_eff, never the prefactor.
    """
    return float(
        closed_form_rates(lambda_eff, cond.eta_f, cond.temperature, cond.rho)
    )


def extract_coupling(lam, lambda_eff):
    """Condon coupling recovered from (lam, lambda_eff):
    V = lam/2 - sqrt(lam*lambda_eff)/2."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if not lambda_eff > 0.0:
        raise ValueError(f"lambda_eff must be positive, got {lambda_eff}")
    if lambda_eff > lam:
        raise ValueError(
            f"lambda_eff={lambda_eff} exceeds lam={lam}; would require a "
            "negative-branch coupling"
        )
    return 0.5 * lam - 0.5 * math.sqrt(lam * lambda_eff)
