"""Parameter sweeps, Tafel/Arrhenius diagnostics, and recovery of the
effective reorganization energy from Tafel data."""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .barriers import BarrierMethod, barrier
from .constants import K_B
from .errors import EtkitError
from .model import (
    ConstantCoupling,
    LinearCoupling,
    PolynomialCoupling,
)
from .rates import (
    ElectrodeConditions,
    PrefactorKind,
    RateRequest,
    closed_form_rates,
    effective_lambda_overpotential,
    mhc_rate_closed_form,
    mhc_rate_numeric,
)
from .tables import SweepTable

__all__ = [
    "SweepVariable",
    "SweepSpec",
    "FitResult",
    "METHOD_NAMES",
    "barrier_sweep",
    "tafel_sweep",
    "arrhenius_sweep",
    "fit_lambda_eff",
    "effective_activation_energy",
]

METHOD_NAMES = {
    BarrierMethod.MARCUS: "marcus",
    BarrierMethod.CONSTANT_SHIFT: "shift",
    BarrierMethod.EFFECTIVE_LAMBDA: "eff",
    BarrierMethod.EXACT_ADIABAT: "exact",
}

_X_COLUMN = {
    "dg0": "dG0_eV",
    "coupling_scalar": "V_eV",
    "lambda": "lambda_eV",
    "eta_f": "eta_f_V",
    "inv_temperature": "invT_per_K",
}


class SweepVariable(enum.Enum):
    DG0 = "dg0"
    COUPLING_SCALAR = "coupling_scalar"
    LAMBDA = "lambda"
    ETA_F = "eta_f"
    INV_TEMPERATURE = "inv_temperature"


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable plus the fixed bundle everything else uses.

    ``start``/``stop`` bound the sweep (must differ), ``n`` >= 2 points.
    ``conditions`` may be None for pure barrier sweeps.
    """

    variable: SweepVariable
    start: float
    stop: float
    n: int
    system: object
    coupling: object
    methods: tuple
    conditions: ElectrodeConditions = None

    def __post_init__(self):
        if self.start == self.stop:
            raise ValueError("sweep needs start != stop")
        if self.n < 2:
            raise ValueError(f"sweep needs n >= 2, got {self.n}")
        if not self.methods:
            raise ValueError("sweep needs at least one method")

    def grid(self):
        xs = np.linspace(self.start, self.stop, self.n)
        return np.sort(xs)


def _with_coupling_scalar(c, x):
    """Swap the swept coupling scalar into the model.

    Constant models sweep v; Linear models sweep v0 at fixed v1;
    Polynomial models sweep the constant coefficient.
    """
    if isinstance(c, ConstantCoupling):
        return ConstantCoupling(x)
    if isinstance(c, LinearCoupling):
        return LinearCoupling(x, c.v1)
    if isinstance(c, PolynomialCoupling):
        return PolynomialCoupling((x,) + c.coeffs[1:])
    raise TypeError(f"not a coupling model: {c!r}")


def barrier_sweep(spec):
    """Barrier E* (eV) for each method against dg0, a coupling scalar,
    or lam. Method failures leave an empty cell plus a warning."""
    if spec.variable not in (
        SweepVariable.DG0,
        SweepVariable.COUPLING_SCALAR,
        SweepVariable.LAMBDA,
    ):
        raise ValueError(
            f"barrier_sweep cannot sweep {spec.variable.value}"
        )
    columns = [_X_COLUMN[spec.variable.value]] + [
        f"Estar_{METHOD_NAMES[m]}_eV" for m in spec.methods
    ]
    rows = []
    warnings = []
    for x in spec.grid():
        sys, c = spec.system, spec.coupling
        if spec.variable is SweepVariable.DG0:
            sys = replace(sys, dg0=float(x))
        elif spec.variable is SweepVariable.LAMBDA:
            sys = replace(sys, lam=float(x))
        else:
            c = _with_coupling_scalar(c, float(x))
        row = [float(x)]
        for m in spec.methods:
            try:
                row.append(barrier(sys, c, m).e_star)
            except EtkitError as exc:
                warnings.append(
                    f"{METHOD_NAMES[m]} failed at "
                    f"{columns[0]}={x:.6g}: {exc}"
                )
                row.append(math.nan)
        rows.append(row)
    return SweepTable(columns=columns, rows=rows, warnings=warnings)


def _rate_for_method(spec, method, eta_f, temperature):
    """One rate evaluation following the per-method route conventions."""
    cond = replace(
        spec.conditions, eta_f=float(eta_f), temperature=float(temperature)
    )
    if method is BarrierMethod.EFFECTIVE_LAMBDA:
        lam_eff = effective_lambda_overpotential(
            spec.system, spec.coupling, cond.eta_f
        )
        return mhc_rate_closed_form(lam_eff, cond)
    if method is BarrierMethod.MARCUS:
        cond = replace(cond, prefactor=PrefactorKind.NON_ADIABATIC)
    else:
        cond = replace(cond, prefactor=PrefactorKind.ADIABATIC)
    req = RateRequest(spec.system, spec.coupling, cond, method)
    return mhc_rate_numeric(req)


def _rate_sweep(spec, xs, eta_of_x, temp_of_x, log_fn, prefix):
    if spec.conditions is None:
        raise ValueError("rate sweeps need electrode conditions")
    columns = [_X_COLUMN[spec.variable.value]] + [
        f"{prefix}{METHOD_NAMES[m]}" for m in spec.methods
    ]
    rows = []
    warnings = []
    for x in xs:
        row = [float(x)]
        for m in spec.methods:
            try:
                k = _rate_for_method(spec, m, eta_of_x(x), temp_of_x(x))
                if k <= 0.0:
                    raise EtkitError("rate is zero; log undefined")
                row.append(log_fn(k))
            except EtkitError as exc:
                warnings.append(
                    f"{METHOD_NAMES[m]} failed at "
                    f"{columns[0]}={x:.6g}: {exc}"
                )
                row.append(math.nan)
        rows.append(row)
    return SweepTable(columns=columns, rows=rows, warnings=warnings)


def tafel_sweep(spec):
    """log10(k * 1 s) per method against the formal overpotential.

    Route per method: marcus = quadrature with the golden-rule prefactor,
    shift and exact = quadrature with the classical prefactor, eff =
    closed form with the overpotential-level effective lambda.
    """
    if spec.variable is not SweepVariable.ETA_F:
        raise ValueError("tafel_sweep sweeps eta_f")
    if spec.conditions is None:
        raise ValueError("rate sweeps need electrode conditions")
    t0 = spec.conditions.temperature
    return _rate_sweep(
        spec, spec.grid(), lambda x: x, lambda x: t0, math.log10, "log10k_"
    )


def arrhenius_sweep(spec):
    """ln(k * 1 s) per method against inverse temperature (1/K)."""
    if spec.variable is not SweepVariable.INV_TEMPERATURE:
        raise ValueError("arrhenius_sweep sweeps inv_temperature")
    if spec.conditions is None:
        raise ValueError("rate sweeps need electrode conditions")
    eta0 = spec.conditions.eta_f
    return _rate_sweep(
        spec,
        spec.grid(),
        lambda x: eta0,
        lambda x: 1.0 / x,
        math.log,
        "lnk_",
    )


@dataclass(frozen=True)
class FitResult:
    lambda_eff: float
    log10_scale: float
    rms_residual: float
    n_points: int
    converged: bool


# search domain spans ab-initio reorganization energies down to the small
# effective values recovered from Tafel fits
_FIT_LO = 0.05
_FIT_HI = 10.0
_FIT_SCAN = 200


def fit_lambda_eff(eta_f, log10_k, T, rho=1.0):
    """Least-squares recovery of lambda_eff from Tafel data.

    Fits log10 of the closed-form rate plus a free vertical offset to the
    (eta_f, log10_k) points. The offset is solved in closed form per
    candidate lambda_eff (mean residual); lambda_eff itself comes from a
    log-spaced scan over [0.05, 10] eV refined by Brent's method. Raises
    ValueError if the closed form underflows to 0 (very low T).

    The model assumes one lambda_eff that does not depend on the
    overpotential. For a q-dependent coupling lam_eff varies with eta, so
    the result is the best single value over the fitted window, not
    lambda_eff at any one overpotential; rms_residual (dex) measures the
    mismatch (0.28-0.63 dex for exact-adiabat data with linear couplings
    at lam=4 on eta in [-1, 0.5], 0.11 dex for the Condon case).
    """
    eta = np.asarray(eta_f, dtype=float)
    y = np.asarray(log10_k, dtype=float)
    keep = np.isfinite(eta) & np.isfinite(y)
    eta, y = eta[keep], y[keep]
    if len(eta) < 5:
        raise ValueError(f"need at least 5 finite points, got {len(eta)}")

    def objective(lam_eff):
        # rms residual and offset for each candidate lam_eff; the last
        # axis of the rates runs over the data points
        k = closed_form_rates(np.expand_dims(lam_eff, -1), eta, T, rho)
        if not np.all(k > 0.0):
            raise ValueError(
                "closed-form rate underflows to 0 on the lambda_eff "
                f"search range [{_FIT_LO}, {_FIT_HI}] eV at T={T} K"
            )
        model = np.log10(k)
        s = np.mean(y - model, axis=-1)
        rms = np.sqrt(np.mean((model + s[..., None] - y) ** 2, axis=-1))
        return rms, s

    grid = np.geomspace(_FIT_LO, _FIT_HI, _FIT_SCAN)
    values, offsets = objective(grid)
    i = int(np.argmin(values))
    degenerate = float(np.std(y)) < 1e-12
    if i == 0 or i == len(grid) - 1 or degenerate:
        return FitResult(
            float(grid[i]), float(offsets[i]), float(values[i]), len(eta), False
        )
    bracket = numerics.Bracket(grid[i - 1], grid[i], grid[i + 1])
    res = numerics.minimize_1d(
        lambda g: float(objective(g)[0]), bracket, tol_x=1e-9
    )
    rms, s = objective(res.x)
    return FitResult(res.x, float(s), float(rms), len(eta), res.converged)


def effective_activation_energy(inv_t, ln_k):
    """Activation energy in eV from the slope of ln k against beta."""
    inv_t = np.asarray(inv_t, dtype=float)
    ln_k = np.asarray(ln_k, dtype=float)
    keep = np.isfinite(inv_t) & np.isfinite(ln_k)
    inv_t, ln_k = inv_t[keep], ln_k[keep]
    if len(inv_t) < 3:
        raise ValueError(
            f"need at least 3 finite points, got {len(inv_t)}"
        )
    betas = inv_t / K_B
    slope = np.polyfit(betas, ln_k, 1)[0]
    return -float(slope)
