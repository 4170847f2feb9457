"""Parameter sweeps, Tafel/Arrhenius diagnostics, and recovery of the
effective reorganization energy from Tafel data."""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .barriers import (
    BarrierMethod,
    barrier,
    effective_lambdas,
    positive_effective_lambda,
)
from .constants import K_B, beta
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
    mhc_rate_numeric,
)
from .tables import SweepTable

__all__ = [
    "SweepVariable",
    "SweepSpec",
    "FitResult",
    "barrier_sweep",
    "tafel_sweep",
    "arrhenius_sweep",
    "fit_lambda_eff",
    "effective_activation_energy",
]

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

    ``start``/``stop`` bound the sweep (finite, must differ), ``n`` >= 2
    points. ``conditions`` may be None for pure barrier sweeps.
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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(
                f"sweep bounds must be finite, got {self.start}, {self.stop}"
            )
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


def _table(spec, xs, column, cell):
    """SweepTable of cell(i, method) at each point xs[i] of the sweep,
    one column per method (column.format(method name)).

    A method that fails at a point leaves an empty cell plus a warning.
    """
    columns = [_X_COLUMN[spec.variable.value]] + [
        column.format(m.value) for m in spec.methods
    ]
    rows = []
    warnings = []
    for i, x in enumerate(xs):
        row = [float(x)]
        for m in spec.methods:
            try:
                row.append(cell(i, m))
            except EtkitError as exc:
                warnings.append(
                    f"{m.value} failed at "
                    f"{columns[0]}={x:.6g}: {exc}"
                )
                row.append(math.nan)
        rows.append(row)
    return SweepTable(columns=columns, rows=rows, warnings=warnings)


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
    xs = spec.grid()

    def cell(i, method):
        sys, c, x = spec.system, spec.coupling, float(xs[i])
        if spec.variable is SweepVariable.DG0:
            sys = replace(sys, dg0=x)
        elif spec.variable is SweepVariable.LAMBDA:
            sys = replace(sys, lam=x)
        else:
            c = _with_coupling_scalar(c, x)
        return barrier(sys, c, method).e_star

    return _table(spec, xs, "Estar_{}_eV", cell)


def _rate_sweep(spec):
    """Rates against eta_f (log10 k) or inverse temperature (ln k).

    The eff column is the closed form at the overpotential-level lam_eff,
    in one call for the whole sweep; the other methods take one
    quadrature per point.
    """
    cond = spec.conditions
    if cond is None:
        raise ValueError("rate sweeps need electrode conditions")
    xs = spec.grid()
    if spec.variable is SweepVariable.ETA_F:
        eta, T = xs, np.full_like(xs, cond.temperature)
        log_fn, column = math.log10, "log10k_{}"
    else:
        if not xs[0] > 0.0:
            raise ValueError(f"inverse temperatures must be positive, got {xs[0]}")
        eta, T = np.full_like(xs, cond.eta_f), 1.0 / xs
        log_fn, column = math.log, "lnk_{}"
    if BarrierMethod.EFFECTIVE_LAMBDA in spec.methods:
        lam_eff = effective_lambdas(spec.system.lam, spec.coupling, eta)
        open_ = lam_eff > 0.0
        k_eff = np.full(len(xs), math.nan)
        k_eff[open_] = closed_form_rates(lam_eff[open_], eta[open_], T[open_], cond.rho)

    def cell(i, method):
        if method is BarrierMethod.EFFECTIVE_LAMBDA:
            positive_effective_lambda(lam_eff[i])
            k = k_eff[i]
        else:
            kind = (
                PrefactorKind.NON_ADIABATIC
                if method is BarrierMethod.MARCUS
                else PrefactorKind.ADIABATIC
            )
            point = replace(
                cond, eta_f=float(eta[i]), temperature=float(T[i]), prefactor=kind
            )
            k = mhc_rate_numeric(RateRequest(spec.system, spec.coupling, point, method))
        if k <= 0.0:
            raise EtkitError("rate is zero; log undefined")
        return log_fn(k)

    return _table(spec, xs, column, cell)


def tafel_sweep(spec):
    """log10(k * 1 s) per method against the formal overpotential.

    Route per method: marcus = quadrature with the golden-rule prefactor,
    shift and exact = quadrature with the classical prefactor, eff =
    closed form with the overpotential-level effective lambda.
    """
    if spec.variable is not SweepVariable.ETA_F:
        raise ValueError("tafel_sweep sweeps eta_f")
    return _rate_sweep(spec)


def arrhenius_sweep(spec):
    """ln(k * 1 s) per method against inverse temperature (1/K)."""
    if spec.variable is not SweepVariable.INV_TEMPERATURE:
        raise ValueError("arrhenius_sweep sweeps inv_temperature")
    return _rate_sweep(spec)


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
# the scan's log-spaced grid, evaluated coarse to fine in two objective
# calls: every _FIT_STEP-th point and both ends (26 points), then every
# grid point less than _FIT_STEP points from any local minimum of those
# (about 40 points in all, at most 54 on 3,300 Tafel lines of
# tests/fit_traffic.py, always with the argmin of the whole grid)
_FIT_SCAN = 200
_FIT_STEP = 8
# width (eV) of the bracket at which the parabolic refinement of the scan
# stops: about 5 objective calls after the scan (at most 11 on 300 noisy
# and clean Tafel lines, tests/fit_traffic.py)
_FIT_TOL = 1e-9


def fit_lambda_eff(eta_f, log10_k, T, rho=1.0):
    """Least-squares recovery of lambda_eff from Tafel data.

    Fits log10 of the closed-form rate plus a free vertical offset to the
    (eta_f, log10_k) points. The offset is solved in closed form per
    candidate lambda_eff (mean residual); lambda_eff itself comes from a
    scan of a 200-point log-spaced grid over [0.05, 10] eV, refined by
    safeguarded parabolic steps on the bracket of the best scan point
    until it is 1e-9 eV wide. The scan evaluates every 8th grid point and
    both ends, then, in a second call, the grid points within 7 points of
    every local minimum of those (not only of the best one); the best
    scan point is the best evaluated one. converged is False when it is
    at an edge of the grid or the data are flat. Raises ValueError if T
    or rho is not positive, or if the closed form underflows to 0 (very
    low T; the rate is smallest at an end of the grid).

    The model assumes one lambda_eff that does not depend on the
    overpotential. For a q-dependent coupling lam_eff varies with eta, so
    the result is the best single value over the fitted window, not
    lambda_eff at any one overpotential; rms_residual (dex) measures the
    mismatch (0.28-0.63 dex for exact-adiabat data with linear couplings
    at lam=4 on eta in [-1, 0.5], 0.11 dex for the Condon case).
    """
    beta(T)  # raises unless finite and positive
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be positive, got {rho}")
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
    # a candidate's rms and offset do not depend on the other candidates
    # of its call, so the scan's points hold the values a call on the
    # whole grid gives them; the points it skips hold inf
    values = np.full(_FIT_SCAN, np.inf)
    offsets = np.zeros(_FIT_SCAN)
    index = np.arange(_FIT_SCAN)
    coarse = np.r_[index[:-1:_FIT_STEP], index[-1]]
    values[coarse], offsets[coarse] = objective(grid[coarse])
    v = np.r_[np.inf, values[coarse], np.inf]
    minima = coarse[(v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])]
    near = np.abs(index[:, None] - minima).min(axis=1) < _FIT_STEP
    fine = index[near & np.isinf(values)]
    values[fine], offsets[fine] = objective(grid[fine])
    i = int(np.argmin(values))
    degenerate = float(np.std(y)) < 1e-12
    if i == 0 or i == len(grid) - 1 or degenerate:
        return FitResult(
            float(grid[i]), float(offsets[i]), float(values[i]), len(eta), False
        )
    # safeguarded parabolic refinement of the bracket (a, b, c), with b the
    # best point so far. Each step makes one objective call, on the vertex
    # v of the parabola through the three mean squared residuals (in
    # [a, c], since b's is lowest), on v +- |v - b|/2, and on the
    # midpoints of [a, b] and [b, c]; the best point so far and its sorted
    # neighbours are the next, narrower bracket
    xs = grid[i - 1 : i + 2].tolist()
    rms = values[i - 1 : i + 2].tolist()
    offs = offsets[i - 1 : i + 2].tolist()
    while xs[2] - xs[0] > _FIT_TOL:
        a, b, c = xs
        p = (b - a) * (rms[2] ** 2 - rms[1] ** 2)
        q = (c - b) * (rms[0] ** 2 - rms[1] ** 2)
        trial = [0.5 * (a + b), 0.5 * (b + c)]
        if p + q > 0.0:
            v = b - 0.5 * ((b - a) * p - (c - b) * q) / (p + q)
            trial += [v, v - 0.5 * abs(v - b), v + 0.5 * abs(v - b)]
        # a trial on a known abscissa would collapse the bracket onto it
        trial = sorted({x for x in trial if a < x < c and x != b})
        r_new, s_new = objective(np.array(trial))
        pool = sorted(zip(xs + trial, rms + r_new.tolist(), offs + s_new.tolist()))
        # ties keep b, so the best point always has two neighbours
        j = min(range(len(pool)), key=lambda k: (pool[k][1], pool[k][0] != b))
        xs, rms, offs = (list(t) for t in zip(*pool[j - 1 : j + 2]))
    return FitResult(xs[1], offs[1], rms[1], len(eta), True)


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
