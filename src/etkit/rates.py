"""Heterogeneous rate constants for a molecular level exchanging an
electron with a metallic continuum.

The total reduction rate integrates single-level Marcus-type rates over
the Fermi-weighted continuum (wide-band density of states): by trapezoid
sums on intervals halved until two successive sums agree, on the
Marcus-form routes, and by a fixed Gauss-Legendre rule between the fold
points of the lower adiabat on the exact route, whose nodes, weights and
barriers all come from ``barriers.ExactAdiabat`` (``rule`` and
``rate_nodes``): this module adds the downhill closed form and the
kernel. A closed-form approximation of that integral is provided for the
Marcus-form barrier, and the driving-force-dependent effective
reorganization energy supplies the inverse problem of extracting the
coupling. ``validity_report`` judges the regime the reduced lam_eff needs,
the adiabatic limit of the Marcus normal regime, by the prefactors here.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .barriers import BarrierMethod, effective_lambda, exact_adiabat, marcus_form
from .constants import H, HBAR, K_B, beta
from .errors import AccuracyError, NumericalDomainError, SingularRegimeError
from .model import coupling_eval, coupling_max

__all__ = [
    "PrefactorKind",
    "ElectrodeConditions",
    "RateRequest",
    "fermi_dirac",
    "prefactor",
    "validity_report",
    "mhc_rate_numeric",
    "effective_lambda_overpotential",
    "mhc_rate_closed_form",
    "closed_form_model",
    "closed_form_rates",
    "extract_coupling",
]


class PrefactorKind(enum.Enum):
    ADIABATIC = "adiabatic"
    NON_ADIABATIC = "non_adiabatic"


@dataclass(frozen=True)
class ElectrodeConditions:
    """Electrode-side inputs for the rate integral.

    eta_f is the formal overpotential in volts; for a single electron
    e*eta_f in eV equals eta_f numerically. rho is the wide-band density
    of states in 1/eV. prefactor is a PrefactorKind (TypeError otherwise).
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
        if not isinstance(self.prefactor, PrefactorKind):
            raise TypeError(f"unknown prefactor kind: {self.prefactor!r}")


@dataclass(frozen=True)
class RateRequest:
    """The inputs of one rate: the system, the coupling model, the
    electrode conditions and the barrier method.

    A rate reads only ``sys.lam`` of the system: the level shift of each
    electronic level comes from ``cond.eta_f``, and ``sys.dg0`` is not
    read.
    """

    sys: object
    coupling: object
    cond: ElectrodeConditions
    barrier_method: BarrierMethod


def _fermi_boltzmann(b, eps, e_star):
    """n(eps) * exp(-b*E*) = exp(-b*E*) / (1 + exp(b*eps)) at inverse
    temperature b, element by element.

    A closed channel (E* = +inf) gives exp(-inf) = 0, and an exp(b*eps)
    that overflows gives 0 with no warning.
    """
    with np.errstate(over="ignore"):
        return np.exp(-b * e_star) / (1.0 + np.exp(b * eps))


def fermi_dirac(eps, T):
    """Occupancy 1/(1 + exp(eps/kT)), for any finite eps: 0 where
    exp(eps/kT) overflows (eps/kT above ~709.78), with no warning.

    eps may be a scalar or an array.
    """
    return _fermi_boltzmann(beta(T), np.asarray(eps, dtype=float), 0.0)[()]


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


def validity_report(sys, c, temperature=300.0):
    """Heuristic warnings for regimes where the reduced-lambda barrier
    formula degrades.

    The last one measures adiabaticity with the model's own prefactors
    (``rates.prefactor``) at lam and the temperature (K): the golden-rule
    (V(1/2)^2/hbar) sqrt(pi beta/lam) below the classical kT/h marks the
    non-adiabatic regime, where the reduced lam_eff does not apply.
    """
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
    if v_max < K_B * temperature:
        warnings.append(
            f"max coupling {v_max:.4g} eV is below k_B*T at {temperature:.4g} K; "
            "system is in the non-adiabatic regime"
        )
    v_half = float(coupling_eval(c, 0.5))
    ratio = prefactor(PrefactorKind.NON_ADIABATIC, sys, v_half, temperature) / prefactor(
        PrefactorKind.ADIABATIC, sys, v_half, temperature
    )
    if ratio < 1.0:
        warnings.append(
            f"golden-rule prefactor is {ratio:.3g} of kT/h at lam={sys.lam:.4g} eV "
            f"and T={temperature:.4g} K (V(1/2) = {v_half:.4g} eV); the rate is "
            "non-adiabatic by the model's own prefactors"
        )
    return warnings


def mhc_rate_numeric(req):
    """Reduction rate in 1/s, integrated over the continuum.

    k = A * rho * integral n(eps) * exp(-beta*E*(lam, e*eta_f - eps)) deps.
    A closed channel has E* = +inf and contributes exp(-inf) = 0: on the
    exact route a single reactant-side well, on the eff route lam_eff <= 0.

    On the EXACT_ADIABAT route the integral has no window and no
    adaptivity: closed forms on the downhill pieces of the level-shift
    axis and a fixed Gauss-Legendre rule on its barrier pieces (see
    ``ExactAdiabat.pieces``). The ``ExactAdiabat`` of a pair comes from
    ``barriers.exact_adiabat``, shared with ``barrier()``, and is the one
    owner of the rule: ``ExactAdiabat.rule`` holds what depends on
    (lam, coupling) only, built on the pair's first rate, and
    ``ExactAdiabat.rate_nodes`` gives the nodes, weights and exact E* at
    eta. A rate adds the downhill closed form and one kernel sum. It
    raises SurfaceTopologyError if a barrier piece is unbounded or the
    scan window holds no minimum on some piece.

    On every route the integrand at a node is n(eps) * exp(-beta*E*) in
    one kernel, exp(-beta*E*) / (1 + exp(beta*eps)): 0, with no warning,
    at a closed node or where exp(beta*eps) overflows.

    On the Marcus-form routes, one quadrature (``numerics.integrate``:
    256 intervals, whose 257 nodes are one call, then halved until two
    successive trapezoid sums agree to relative ``numerics.REL_TOL`` =
    1e-9, first tested at 256 against 128 intervals) runs over the
    window [-W, W], W = 2*lam + |e*eta_f| + 40*kT. There the integrand
    is analytic in a strip of half-width pi*kT (unless an eff channel
    closes inside the window) and negligible at both ends, so the
    trapezoid sums converge geometrically. The mass outside the window
    is bounded in closed form. The eff barrier is built once per rate
    from lam_eff(dg) as one polynomial in dg (``marcus_form``); with a
    Condon coupling it is the Marcus barrier at the one number lam_eff,
    and the integrand evaluates no coupling polynomial. The shift barrier
    is the Marcus barrier less V(1/2), so the shift route integrates the
    Marcus barrier and multiplies by e^(beta*V(1/2)) once, in logs; every
    barrier integrated then has E*(dg) >= dg and E* >= 0, because
    (l + dg)^2/(4 l) - dg = (l - dg)^2/(4 l) >= 0 for every l > 0. With
    n(eps) <= e^(-beta*eps) above the window and n <= 1 below it, the
    tails hold at most B = kT (e^(-beta*W) + e^(-beta(e*eta_f + W))).
    Raises AccuracyError, carrying the best estimate of the rate, unless
    B <= REL_TOL times the window's integral; if that integral is 0 (a
    rate whose every node is closed, e.g. lam_eff = 0 everywhere, or a
    Condon eff channel that the first grid misses, seen only with
    lam_eff/lam below about 4e-6; raises with 0); or if the quadrature
    gives up (``numerics.MAX_LEVEL_NODES``). Raises NumericalDomainError
    if a shift-route rate or estimate overflows, or underflows to 0.
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
        adiabat, eta = exact_adiabat(sys.lam, c), cond.eta_f
        rule = adiabat.rule
        # kT*ln(1 + e^(-b*eps)) at eps = eta - hi minus at eps = eta - lo
        downhill = np.sum(
            np.logaddexp(0.0, -b * (eta - rule.down_hi))
            - np.logaddexp(0.0, -b * (eta - rule.down_lo))
        ) / b
        dg, weight, e_star = adiabat.rate_nodes(eta)
        nodes = weight * _fermi_boltzmann(b, eta - dg, e_star)
        return scale * float(downhill + np.sum(nodes))
    method, shift = req.barrier_method, 0.0
    if method is BarrierMethod.CONSTANT_SHIFT:
        method, shift = BarrierMethod.MARCUS, b * v_half
    e_star = marcus_form(sys.lam, c, method)

    def integrand(eps):
        return _fermi_boltzmann(b, eps, e_star(cond.eta_f - eps))

    def rate(integral):
        # scale * e^shift * integral, with e^shift formed only in the
        # exponent of the integral's logarithm
        if shift == 0.0 or integral == 0.0:
            return scale * integral
        try:
            k = scale * math.exp(shift + math.log(integral))
        except OverflowError:
            k = math.inf
        if 0.0 < k < math.inf:
            return k
        raise NumericalDomainError(
            "rate beyond float range: ln k = "
            f"{math.log(scale) + shift + math.log(integral):.6g}"
        )

    w = 2.0 * sys.lam + abs(cond.eta_f) + 40.0 * K_B * T
    try:
        total = numerics.integrate(integrand, -w, w)
    except AccuracyError as exc:
        raise AccuracyError(str(exc), best_estimate=rate(exc.best_estimate)) from exc
    # each term in one exponent, which w >= |eta| + 40 kT keeps below -40
    tail = K_B * T * (np.exp(-b * w) + np.exp(-b * (cond.eta_f + w)))
    if not tail <= numerics.REL_TOL * total:
        raise AccuracyError(
            f"tail bound {tail:.3g} eV outside the window +-{w:.6g} eV exceeds "
            f"{numerics.REL_TOL:g} of the window's integral {total:.3g} eV",
            best_estimate=rate(total),
        )
    if total == 0.0:
        # the bound underflowed to 0 as well, yet certifies no rate of 0
        raise AccuracyError(
            f"every quadrature node over the window +-{w:.6g} eV is closed "
            "or underflows: the window's integral is 0",
            best_estimate=0.0,
        )
    return rate(total)


def effective_lambda_overpotential(sys, c, eta_f):
    """Effective reorganization energy at the Fermi level for a given
    overpotential: lam - 4*V((lam + e*eta_f)/(2*lam)) + 4*V(0)^2/lam."""
    return effective_lambda(replace(sys, dg0=eta_f), c)


def closed_form_model(eta_f, T, rho):
    """The closed form's rates (1/s) at eta_f, T and rho, as a function
    of lambda_eff.

    Forms what does not depend on lambda_eff once: 1/kT, beta*eta_f, its
    square, the occupancy 1/(1 + e^(beta*eta_f)) and beta*h. The
    returned function takes lambda_eff, broadcast against eta_f and T,
    and gives the rates of ``closed_form_rates``, bit for bit; a row of
    lambda_eff gives the same rates whatever the other rows are. It
    raises SingularRegimeError if any lambda_eff is not positive, and
    NumericalDomainError if an erfc argument is not finite (e.g. a NaN
    or infinite lambda_eff). T is taken as valid (finite and positive),
    as ``ElectrodeConditions`` makes it.

    numpy has no erfc, so ``math.erfc`` is mapped over the flattened
    arguments into a float64 array of their broadcast shape, at about
    80-100 ns per rate: the floor of a call's cost.
    """
    b = 1.0 / (K_B * np.asarray(T, dtype=float))
    be = b * np.asarray(eta_f, dtype=float)
    bh = b * H
    # an overflowing e^(b*eta) makes the occupancy 0
    with np.errstate(over="ignore"):
        be2 = be * be
        occupancy = 1.0 / (1.0 + np.exp(be))

    def rates(lambda_eff):
        lambda_eff = np.asarray(lambda_eff, dtype=float)
        if (lambda_eff <= 0.0).any():
            raise SingularRegimeError(
                f"lambda_eff must be positive, got {lambda_eff}"
            )
        bl = b * lambda_eff
        # an infinite lambda_eff makes inf - inf: NaN, reported below
        with np.errstate(invalid="ignore", over="ignore"):
            root = np.sqrt(bl)
            arg = (bl - np.sqrt((1.0 + root) + be2)) / (2.0 * root)
        finite = np.isfinite(arg)
        if not finite.all():
            raise NumericalDomainError(
                f"erfc requires finite x, got {float(arg[~finite][0])}"
            )
        erfc = np.fromiter(map(math.erfc, arg.ravel().tolist()), float, arg.size)
        return (
            rho
            * np.sqrt(math.pi * lambda_eff / b)
            / bh
            * occupancy
            * erfc.reshape(arg.shape)
        )

    return rates


def closed_form_rates(lambda_eff, eta_f, T, rho):
    """Closed-form rates (1/s), lambda_eff, eta_f and T broadcast against
    each other.

    The array form of ``mhc_rate_closed_form``, with the same arithmetic
    element by element: ``closed_form_model(eta_f, T, rho)`` called once
    on lambda_eff, with its raises. A caller that rates many lambda_eff
    at one (eta_f, T, rho), as ``fit_lambda_eff`` does, builds the model
    once instead.
    """
    return closed_form_model(eta_f, T, rho)(lambda_eff)


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
