"""The four workloads: seeded operation lists with their reference checks.

An operation is one public etkit call or pipeline. ``build`` turns a
workload name and a seed into a fixed list of operations; the runner
repeats that list. Every call goes through a module attribute looked up
at call time (``etkit.rates.mhc_rate_numeric``), so the tracer's hooks
see it. Checks compute their references lazily, after the timed passes,
with the tier-1 tolerances.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import etkit
import etkit.analysis
import etkit.barriers
import etkit.rates
import etkit.tables

WORKLOADS = ("tafel_exact", "rate_quadrature", "barrier_map", "tafel_fit")

T_ROOM = 300.0
# tests/test_rates.py::test_exact_route_pinned, 40001-point trapezoid
EXACT_PINNED = 36546.69099305575
# tests/test_rates.py::test_pinned_equilibrium_value, 30-digit mpmath
CLOSED_PINNED = 281.86537695053019
# acceptance criterion 8: closed form against the exact route
CLOSED_VS_EXACT_DEX = 0.31


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` calls etkit, ``check`` returns None when the
    output matches its reference and a reason otherwise."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _lhs(rng, n, *ranges):
    """n Latin-hypercube draws: each range is cut into n strata with one
    draw per stratum, so every seed covers every range evenly."""
    cols = []
    for lo, hi in ranges:
        u = (rng.permutation(n) + rng.random(n)) / n
        cols.append([float(x) for x in lo + (hi - lo) * u])
    return list(zip(*cols))


def _coupling(coeffs):
    """etkit coupling model and its label for ascending coefficients."""
    if len(coeffs) == 1:
        return etkit.ConstantCoupling(coeffs[0]), f"const:{coeffs[0]:.4g}"
    if len(coeffs) == 2:
        v0, v1 = coeffs[0], coeffs[0] + coeffs[1]
        return etkit.LinearCoupling(v0, v1), f"linear:{v0:.4g},{v1:.4g}"
    return (
        etkit.PolynomialCoupling(tuple(coeffs)),
        "poly:" + ",".join(f"{c:.4g}" for c in coeffs),
    )


def _oracles():
    # imported on first check, after the timed passes, so that mpmath
    # counts in neither set-up time nor peak memory
    import oracles

    return oracles


def _rel_miss(got, ref, rel, what):
    if not (math.isfinite(got) and abs(got - ref) <= rel * abs(ref)):
        return f"{what}: {got!r} vs reference {ref!r} (rel limit {rel:g})"
    return None


# ---------------------------------------------------------------- tafel_exact


def _exact_rate_op(coeffs, eta, pinned=False):
    c, clabel = _coupling(coeffs)
    req = etkit.RateRequest(
        etkit.DiabaticSystem(4.0, 0.0),
        c,
        etkit.ElectrodeConditions(T_ROOM, eta, 1.0),
        etkit.BarrierMethod.EXACT_ADIABAT,
    )

    def check(k):
        oracles = _oracles()
        miss = _rel_miss(k, oracles.exact_rate(4.0, coeffs, eta, T_ROOM), 1e-4,
                         "exact rate vs dense trapezoid")
        if miss is None and pinned:
            miss = _rel_miss(k, EXACT_PINNED, 1e-4, "exact rate vs pin")
        if miss is None and len(coeffs) == 1:
            # Condon case: closed form with lam_eff = lam*(1 - 2V/lam)^2
            lam_eff = 4.0 * (1.0 - 2.0 * coeffs[0] / 4.0) ** 2
            dev = abs(math.log10(oracles.closed_form_mp(lam_eff, T_ROOM, eta) / k))
            if dev > CLOSED_VS_EXACT_DEX:
                miss = f"closed form {dev:.4f} dex from exact route"
        return miss

    return Op(
        f"exact {clabel} eta={eta:.4f}",
        lambda: etkit.rates.mhc_rate_numeric(req),
        check,
    )


def _tafel_exact(rng):
    # the inputs of acceptance criteria 8 and 10, plus the quadratic case
    couplings = (
        [0.5],
        [0.1, 0.4],
        [0.2, 0.8],
        [0.6, 0.4],
        [0.3, 0.5, -0.4],
    )
    ops = [_exact_rate_op([0.5], -0.3, pinned=True)]
    for coeffs in couplings:
        for (eta,) in _lhs(rng, 12, (-1.0, 0.5)):
            ops.append(_exact_rate_op(coeffs, eta))
    return ops


# ------------------------------------------------------------ rate_quadrature


def _quadrature_op(route, lam, coeffs, eta, T, label_extra=""):
    method = {
        "marcus": etkit.BarrierMethod.MARCUS,
        "shift": etkit.BarrierMethod.CONSTANT_SHIFT,
        "eff": etkit.BarrierMethod.EFFECTIVE_LAMBDA,
    }[route]
    # the prefactor each route gets in etkit's Tafel sweep
    kind = "non_adiabatic" if route == "marcus" else "adiabatic"
    c, clabel = _coupling(coeffs)
    req = etkit.RateRequest(
        etkit.DiabaticSystem(lam, 0.0),
        c,
        etkit.ElectrodeConditions(T, eta, 1.0, etkit.PrefactorKind(kind)),
        method,
    )

    def check(k):
        ref = _oracles().marcus_family_rate(route, lam, coeffs, eta, T, kind)
        return _rel_miss(k, ref, 1e-6, f"{route} rate vs dense trapezoid")

    return Op(
        f"{route} lam={lam:.4g} {clabel} eta={eta:.4f} T={T:.1f}{label_extra}",
        lambda: etkit.rates.mhc_rate_numeric(req),
        check,
    )


def _rate_quadrature(rng):
    ops = []
    # (route, constant draws, linear draws). Most linear draws on the
    # EFFECTIVE_LAMBDA route abort at a far-tail node today (ROADMAP item
    # 4); there are few of them so that a fix which turns those fast
    # failures into full rates moves wall_s by less than its bound.
    for route, n_const, n_linear in (
        ("marcus", 160, 160), ("shift", 160, 160), ("eff", 160, 40)
    ):
        for (lam, eta, T, f) in _lhs(
            rng, n_const, (1.0, 6.0), (-1.0, 0.5), (250.0, 350.0), (0.02, 0.25)
        ):
            ops.append(_quadrature_op(route, lam, [f * lam], eta, T))
        for (lam, eta, T, f0, f1) in _lhs(
            rng, n_linear, (1.0, 6.0), (-1.0, 0.5), (250.0, 350.0), (0.02, 0.25),
            (0.02, 0.25),
        ):
            ops.append(
                _quadrature_op(route, lam, [f0 * lam, (f1 - f0) * lam], eta, T)
            )
    # ROADMAP item 4: lam_eff(dg) <= 0 at a far-tail node aborts the rate
    ops.append(
        _quadrature_op("eff", 4.0, [0.2, 0.8], -0.3, T_ROOM, " (item-4 reproducer)")
    )
    return ops


# ---------------------------------------------------------------- barrier_map


def _barrier_op(lam, dg0, coeffs, reference, what):
    c, clabel = _coupling(coeffs)
    s = etkit.DiabaticSystem(lam, dg0)
    exact = etkit.BarrierMethod.EXACT_ADIABAT

    def check(res):
        ref = reference()
        if not (math.isfinite(res.e_star) and abs(res.e_star - ref) <= 1e-8):
            return f"barrier {res.e_star!r} eV vs {what} {ref!r} (limit 1e-8 eV)"
        return None

    return Op(
        f"barrier lam={lam:.4g} dg0={dg0:.4g} {clabel}",
        lambda: etkit.barriers.barrier(s, c, exact),
        check,
    )


def _algebraic(lam, dg0, coeffs):
    return lambda: float(_oracles().exact_barriers(lam, dg0, coeffs)[0][0])


def _barrier_map(rng):
    ops = []
    # acceptance criterion 3: zero coupling collapses to Marcus
    for lam, u in _lhs(rng, 20, (1.0, 8.0), (0.0, 1.0)):
        dg0 = -0.9 * lam + u * (0.6 + 0.9 * lam)
        ops.append(
            _barrier_op(lam, dg0, [0.0], lambda lam=lam, dg0=dg0: (lam + dg0) ** 2 / (4 * lam),
                        "Marcus barrier")
        )
    # acceptance criterion 4: symmetric Condon case is lam_eff/4
    for lam, f in _lhs(rng, 20, (1.0, 8.0), (0.05, 0.44)):
        ops.append(
            _barrier_op(lam, 0.0, [f * lam], lambda lam=lam, f=f: lam * (1 - 2 * f) ** 2 / 4,
                        "lam_eff/4")
        )
    n = 320
    for lam, g, f in _lhs(rng, n, (0.5, 8.0), (-0.5, 0.5), (0.0, 0.45)):
        ops.append(_barrier_op(lam, g * lam, [f * lam], _algebraic(lam, g * lam, [f * lam]),
                               "algebraic barrier"))
    for lam, g, f0, f1 in _lhs(rng, n, (0.5, 8.0), (-0.5, 0.5), (0.0, 0.45), (0.0, 0.45)):
        co = [f0 * lam, (f1 - f0) * lam]
        ops.append(_barrier_op(lam, g * lam, co, _algebraic(lam, g * lam, co), "algebraic barrier"))
    for lam, g, a, b, q in _lhs(
        rng, n, (0.5, 8.0), (-0.5, 0.5), (0.0, 0.3), (-0.3, 0.3), (-0.3, 0.3)
    ):
        co = [a * lam, b * lam, q * lam]
        ops.append(_barrier_op(lam, g * lam, co, _algebraic(lam, g * lam, co), "algebraic barrier"))
    return ops


# ------------------------------------------------------------------ tafel_fit


@dataclass(frozen=True)
class PipelineOutput:
    eta: tuple
    log10k: tuple
    fit: object
    coupling: float


def _pipeline_op(lam, v, pinned=False):
    spec = etkit.SweepSpec(
        variable=etkit.SweepVariable.ETA_F,
        start=-1.0,
        stop=0.5,
        n=31,
        system=etkit.DiabaticSystem(lam, 0.0),
        coupling=etkit.ConstantCoupling(v),
        methods=(etkit.BarrierMethod.EFFECTIVE_LAMBDA,),
        conditions=etkit.ElectrodeConditions(T_ROOM, 0.0, 1.0),
    )

    def run():
        # etkit tafel --method eff -> CSV -> etkit fit -> etkit extract-v
        table = etkit.analysis.tafel_sweep(spec)
        text = table.to_csv()
        back = etkit.tables.SweepTable.from_csv(text)
        fit = etkit.analysis.fit_lambda_eff(
            back.column("eta_f_V"), back.column("log10k_eff"), T_ROOM
        )
        return PipelineOutput(
            tuple(table.column("eta_f_V")),
            tuple(table.column("log10k_eff")),
            fit,
            etkit.rates.extract_coupling(lam, fit.lambda_eff),
        )

    def check(out):
        oracles = _oracles()
        lam_eff = lam * (1.0 - 2.0 * v / lam) ** 2
        for eta, logk in zip(out.eta, out.log10k):
            ref = oracles.closed_form_mp(lam_eff, T_ROOM, eta)
            miss = _rel_miss(10.0 ** logk, ref, 1e-11, f"closed form at eta={eta:.4f}")
            if miss:
                return miss
            if pinned and abs(eta) < 1e-12:
                miss = _rel_miss(10.0 ** logk, CLOSED_PINNED, 1e-12, "closed form vs pin")
                if miss:
                    return miss
        if not out.fit.converged:
            return "fit_lambda_eff did not converge"
        if not abs(out.coupling - v) <= 1e-6:
            return f"recovered V {out.coupling!r} vs {v!r} (limit 1e-6 eV)"
        return None

    return Op(f"pipeline lam={lam:.4g} V={v:.4g}", run, check)


def _tafel_fit(rng):
    # the README example and criterion 10's Condon case on criterion 10's
    # 31-point grid, then seeded draws
    ops = [_pipeline_op(4.0, 0.5, pinned=True)]
    for lam, f in _lhs(rng, 50, (1.0, 8.0), (0.05, 0.35)):
        ops.append(_pipeline_op(lam, f * lam))
    return ops


_BUILDERS = {
    "tafel_exact": _tafel_exact,
    "rate_quadrature": _rate_quadrature,
    "barrier_map": _barrier_map,
    "tafel_fit": _tafel_fit,
}


def build(workload, seed):
    """The workload's fixed operation list for this seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)
