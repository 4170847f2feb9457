"""Heterogeneous rate constants for a molecular level exchanging an
electron with a metallic continuum.

The total reduction rate integrates single-level Marcus-type rates over
the Fermi-weighted continuum (wide-band density of states). A closed-form
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
    BarrierMethod,
    ExactAdiabat,
    effective_lambda,
    effective_lambdas,
)
from .constants import H, HBAR, K_B, beta
from .errors import AccuracyError, SingularRegimeError
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

# exp(-beta*E*) is clamped below at e^-700 to dodge underflow in the tails
_EXP_FLOOR = -700.0


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
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(
                f"temperature must be positive, got {self.temperature}"
            )
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
    if kind is PrefactorKind.ADIABATIC:
        return K_B * T / H
    if kind is PrefactorKind.NON_ADIABATIC:
        v = coupling_at_crossing
        return (v * v / HBAR) * math.sqrt(math.pi * beta(T) / sys.lam)
    raise TypeError(f"unknown prefactor kind: {kind!r}")


def _barrier_of_dg(sys, c, method):
    """e_star over an array of level-shifted driving forces dg.

    +inf marks a closed channel: a node whose integrand is exactly 0.
    """
    lam = sys.lam
    if method is BarrierMethod.MARCUS:
        return lambda dg: (lam + dg) ** 2 / (4.0 * lam)
    if method is BarrierMethod.CONSTANT_SHIFT:
        v_half = float(coupling_eval(c, 0.5))
        return lambda dg: (lam + dg) ** 2 / (4.0 * lam) - v_half

    if method is BarrierMethod.EFFECTIVE_LAMBDA:

        def eff(dg):
            # where lam_eff is not positive the Marcus-form barrier
            # diverges: the channel is closed, as on the exact route
            lam_eff = effective_lambdas(lam, c, dg)
            open_ = lam_eff > 0.0
            lam_eff = np.where(open_, lam_eff, 1.0)
            return np.where(open_, (lam_eff + dg) ** 2 / (4.0 * lam_eff), np.inf)

        return eff

    if method is BarrierMethod.EXACT_ADIABAT:
        adiabat = ExactAdiabat(lam, c)

        def exact(dg):
            e_star, _q_ts, q_r, activationless = adiabat.barriers(dg)
            # a single well on the reactant side means the product well
            # does not exist at this level shift: the channel is closed
            # (not barrierless). Downhill single wells contribute exp(0) = 1
            return np.where(activationless & (q_r < 0.5), np.inf, e_star)

        return exact
    raise TypeError(f"unknown barrier method: {method!r}")


def mhc_rate_numeric(req, rel_tol=1e-9, window_scale=1.0):
    """Reduction rate in 1/s by adaptive quadrature over the continuum.

    k = A * rho * integral n(eps) * exp(-beta*E*(lam, e*eta_f - eps)) deps
    over a window [-W, W], W = 2*lam + |e*eta_f| + 40*kT (times
    window_scale), doubled until the result is converged to 1e-6
    relative. Nodes whose channel is closed contribute 0: on the exact
    route a single reactant-side well, on the eff route lam_eff <= 0.
    Raises AccuracyError, carrying the best estimate of the rate, if the
    sixth doubling still changes the result by more than that.
    """
    sys, c, cond = req.sys, req.coupling, req.cond
    T = cond.temperature
    b = beta(T)
    v_half = float(coupling_eval(c, 0.5))
    a_pref = prefactor(cond.prefactor, sys, v_half, T)
    if a_pref == 0.0:
        return 0.0
    e_star = _barrier_of_dg(sys, c, req.barrier_method)

    def integrand(eps):
        e = e_star(cond.eta_f - eps)
        boltzmann = np.exp(np.maximum(-b * e, _EXP_FLOOR))
        return np.where(np.isinf(e), 0.0, fermi_dirac(eps, T) * boltzmann)

    w = (2.0 * sys.lam + abs(cond.eta_f) + 40.0 * K_B * T) * window_scale
    total = numerics.integrate(integrand, -w, w, rel_tol=rel_tol)
    for _ in range(6):
        # both extensions, [-2w, -w] and [w, 2w], in the same calls
        extension = numerics.integrate(
            integrand, [-2.0 * w, w], [-w, 2.0 * w], rel_tol=rel_tol
        )
        new_total = total + extension
        converged = abs(new_total - total) <= 1e-6 * abs(new_total)
        total = new_total
        w *= 2.0
        if converged:
            return a_pref * cond.rho * total
    raise AccuracyError(
        f"rate window still changing after 6 doublings (to +-{w:.6g} eV)",
        best_estimate=a_pref * cond.rho * total,
    )


def effective_lambda_overpotential(sys, c, eta_f):
    """Effective reorganization energy at the Fermi level for a given
    overpotential: lam - 4*V((lam + e*eta_f)/(2*lam)) + 4*V(0)^2/lam."""
    return effective_lambda(replace(sys, dg0=eta_f), c)


_erfc = np.frompyfunc(numerics.erfc, 1, 1)


def closed_form_rates(lambda_eff, eta_f, T, rho):
    """Closed-form rates (1/s), lambda_eff broadcast against eta_f.

    The array form of ``mhc_rate_closed_form``, with the same arithmetic
    element by element. Raises SingularRegimeError if any lambda_eff is
    not positive, and NumericalDomainError if an erfc argument is not
    finite (e.g. a NaN lambda_eff).
    """
    lambda_eff = np.asarray(lambda_eff, dtype=float)
    if np.any(lambda_eff <= 0.0):
        raise SingularRegimeError(
            f"lambda_eff must be positive, got {lambda_eff}"
        )
    b = beta(T)
    bl = b * lambda_eff
    be = b * np.asarray(eta_f, dtype=float)
    arg = (bl - np.sqrt(1.0 + np.sqrt(bl) + be * be)) / (2.0 * np.sqrt(bl))
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
    if not lambda_eff > 0.0:
        raise ValueError(f"lambda_eff must be positive, got {lambda_eff}")
    if lambda_eff > lam:
        raise ValueError(
            f"lambda_eff={lambda_eff} exceeds lam={lam}; would require a "
            "negative-branch coupling"
        )
    return 0.5 * lam - 0.5 * math.sqrt(lam * lambda_eff)
