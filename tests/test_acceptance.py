"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Tolerances marked "pinned" were frozen from the independent
oracles in tests/pin_oracles.py before this suite was written.
"""

import math
import os
import subprocess
import sys

import numpy as np

import etkit as ek
from etkit.analysis import (
    SweepSpec,
    SweepVariable,
    arrhenius_sweep,
    effective_activation_energy,
    fit_lambda_eff,
    tafel_sweep,
)
from etkit.barriers import BarrierMethod
from etkit.numerics import gauss_legendre

ALL_METHODS = (
    BarrierMethod.MARCUS,
    BarrierMethod.CONSTANT_SHIFT,
    BarrierMethod.EFFECTIVE_LAMBDA,
    BarrierMethod.EXACT_ADIABAT,
)

# pinned from the dense-trapezoid / nested-minimization oracles: the
# closed-form rate deviates from its own defining integral by up to
# 0.2512 dex on this grid, and from the exact-adiabat quadrature by up
# to 0.2905 dex (worst case near eta=0 at large beta*lambda_eff)
CLOSED_VS_QUADRATURE_DEX = 0.26
CLOSED_VS_EXACT_DEX = 0.31

# pinned from reference.theory_curve_fit_linear: the single
# lambda_eff (eV) that best fits the reduced-lambda theory's own Tafel
# curve, log10 k_closed(lam_eff(eta)), on criterion 10's grid (lam=4,
# eta in [-1, 0.5], 31 points, 300 K), keyed by linear coupling (v0, v1)
THEORY_CURVE_FIT_LAMBDA = {
    (0.1, 0.5): 1.570655,
    (0.2, 1.0): 0.866391,
    (0.6, 1.0): 0.929832,
}


def report(num, ok, detail):
    line = f"[CRITERION {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_coupling_extraction_strong_coupling_benchmark():
    v = ek.extract_coupling(6.3, 0.75)
    report(
        1,
        2.05 <= v <= 2.10,
        f"extract_coupling(6.3, 0.75) = {v:.4f} eV, expected in [2.05, 2.10]",
    )


def test_criterion_02_condon_identity_roundtrip():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        lam = float(rng.uniform(0.5, 8.0))
        v = float(rng.uniform(0.0, 0.5 * lam))
        if v == 0.0 or v == 0.5 * lam:
            continue
        lam_eff = lam * (1.0 - 2.0 * v / lam) ** 2
        back = ek.extract_coupling(lam, lam_eff)
        worst = max(worst, abs(back - v) / v)
    report(
        2,
        worst <= 1e-12,
        f"worst relative roundtrip error {worst:.3g}, limit 1e-12",
    )


def test_criterion_03_zero_coupling_collapse():
    c = ek.ConstantCoupling(0.0)
    worst = 0.0
    for lam in np.linspace(1.0, 8.0, 20):
        for dg0 in np.linspace(-0.9 * lam, 0.6, 20):
            s = ek.DiabaticSystem(float(lam), float(dg0))
            ex = ek.barrier(s, c, BarrierMethod.EXACT_ADIABAT).e_star
            worst = max(worst, abs(ex - ek.marcus_barrier(s)))
    report(
        3,
        worst <= 1e-8,
        f"max |exact - Marcus| = {worst:.3g} eV on 20x20 grid, limit 1e-8",
    )


def test_criterion_04_symmetric_case_exactness():
    worst_e = 0.0
    worst_q = 0.0
    for lam in np.linspace(1.0, 8.0, 15):
        for frac in (0.05, 0.15, 0.25, 0.35, 0.44):
            v = frac * float(lam)
            s = ek.DiabaticSystem(float(lam), 0.0)
            c = ek.ConstantCoupling(v)
            res = ek.barrier(s, c, BarrierMethod.EXACT_ADIABAT)
            lam_eff = ek.effective_lambda(s, c)
            worst_e = max(worst_e, abs(res.e_star - lam_eff / 4.0))
            q_r = (1.0 - math.sqrt(1.0 - 4.0 * v * v / lam**2)) / 2.0
            worst_q = max(worst_q, abs(res.q_r - q_r))
    report(
        4,
        worst_e <= 1e-8 and worst_q <= 1e-6,
        f"max |E*_exact - lam_eff/4| = {worst_e:.3g} eV (limit 1e-8), "
        f"max |q_r - analytic| = {worst_q:.3g}",
    )


def test_criterion_05_reduced_lambda_dominates_constant_shift():
    c = ek.ConstantCoupling(1.0)
    dev_eff = []
    dev_shift = []
    for dg0 in np.arange(-1.0, 0.6001, 0.05):
        s = ek.DiabaticSystem(4.0, float(dg0))
        ex = ek.barrier(s, c, BarrierMethod.EXACT_ADIABAT).e_star
        dev_eff.append(
            abs(ek.barrier(s, c, BarrierMethod.EFFECTIVE_LAMBDA).e_star - ex)
        )
        dev_shift.append(
            abs(ek.barrier(s, c, BarrierMethod.CONSTANT_SHIFT).e_star - ex)
        )
    report(
        5,
        max(dev_eff) < max(dev_shift) and max(dev_eff) <= 0.08,
        f"max dev: eff {max(dev_eff):.4f} eV (limit 0.08, pinned), "
        f"shift {max(dev_shift):.4f} eV",
    )


def test_criterion_06_truncation_order_behavior():
    s = ek.DiabaticSystem(4.0, 0.3)
    errs = []
    for v in (0.4, 0.2, 0.1, 0.05):
        c = ek.ConstantCoupling(v)
        ex = ek.barrier(s, c, BarrierMethod.EXACT_ADIABAT).e_star
        eff = ek.barrier(s, c, BarrierMethod.EFFECTIVE_LAMBDA).e_star
        errs.append(abs(ex - eff))
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    ratio = errs[0] / errs[1]
    report(
        6,
        monotone and ratio <= 10.0,
        f"errors {['%.3g' % e for e in errs]} monotone={monotone}, "
        f"err(0.4)/err(0.2) = {ratio:.2f} (limit 10)",
    )


def test_criterion_07_closed_form_vs_quadrature():
    worst = 0.0
    c0 = ek.ConstantCoupling(0.0)
    for lam_eff in (0.8, 1.55, 2.25, 3.0):
        s = ek.DiabaticSystem(lam_eff, 0.0)
        for eta in np.arange(-1.0, 0.5001, 0.05):
            cond = ek.ElectrodeConditions(300.0, float(eta), 1.0)
            k_num = ek.mhc_rate_numeric(
                ek.RateRequest(s, c0, cond, BarrierMethod.MARCUS)
            )
            k_cf = ek.mhc_rate_closed_form(lam_eff, cond)
            worst = max(worst, abs(math.log10(k_cf / k_num)))
    report(
        7,
        worst <= CLOSED_VS_QUADRATURE_DEX,
        f"max |dlog10 k| = {worst:.4f} dex, limit "
        f"{CLOSED_VS_QUADRATURE_DEX} (pinned; worst case at large "
        "beta*lambda_eff near eta=0)",
    )


def test_criterion_08_tafel_table_replication():
    spec = SweepSpec(
        variable=SweepVariable.ETA_F,
        start=-1.0,
        stop=0.5,
        n=31,
        system=ek.DiabaticSystem(4.0, 0.0),
        coupling=ek.ConstantCoupling(0.5),
        methods=ALL_METHODS,
        conditions=ek.ElectrodeConditions(300.0, 0.0, 1.0),
    )
    t = tafel_sweep(spec)
    exact = t.column("log10k_exact")
    dev_eff = np.nanmax(np.abs(t.column("log10k_eff") - exact))
    dev_shift = np.nanmax(np.abs(t.column("log10k_shift") - exact))
    dev_marcus = np.nanmax(np.abs(t.column("log10k_marcus") - exact))
    report(
        8,
        dev_eff <= CLOSED_VS_EXACT_DEX
        and dev_shift > dev_eff
        and dev_marcus > dev_eff,
        f"max dev vs exact: eff {dev_eff:.4f} dex (limit "
        f"{CLOSED_VS_EXACT_DEX}, pinned), shift {dev_shift:.4f}, "
        f"marcus {dev_marcus:.4f}",
    )


def test_criterion_09_arrhenius_replication():
    spec = SweepSpec(
        variable=SweepVariable.INV_TEMPERATURE,
        start=1.0 / 350.0,
        stop=1.0 / 250.0,
        n=21,
        system=ek.DiabaticSystem(4.0, 0.0),
        coupling=ek.ConstantCoupling(0.5),
        methods=(BarrierMethod.EFFECTIVE_LAMBDA,),
        conditions=ek.ElectrodeConditions(300.0, -0.3, 1.0),
    )
    t = arrhenius_sweep(spec)
    x = t.column("invT_per_K")
    y = t.column("lnk_eff")
    slope, icpt = np.polyfit(x, y, 1)
    resid = y - (slope * x + icpt)
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((y - y.mean()) ** 2))
    ea = effective_activation_energy(x, y)
    lam_eff = 2.25
    ref = (lam_eff - 0.3) ** 2 / (4.0 * lam_eff)
    rel = abs(ea - ref) / ref
    report(
        9,
        r2 >= 0.99 and rel <= 0.15,
        f"R^2 = {r2:.6f} (limit 0.99), Ea = {ea:.4f} eV vs "
        f"(lam_eff+e*eta)^2/4lam_eff = {ref:.4f} eV ({100 * rel:.1f}%, "
        "limit 15%)",
    )


def _exact_tafel_fit(coupling, n=31):
    spec = SweepSpec(
        variable=SweepVariable.ETA_F,
        start=-1.0,
        stop=0.5,
        n=n,
        system=ek.DiabaticSystem(4.0, 0.0),
        coupling=coupling,
        methods=(BarrierMethod.EXACT_ADIABAT,),
        conditions=ek.ElectrodeConditions(300.0, 0.0, 1.0),
    )
    t = tafel_sweep(spec)
    return fit_lambda_eff(
        t.column("eta_f_V"), t.column("log10k_exact"), 300.0
    )


def test_criterion_10_fit_recovery():
    res = _exact_tafel_fit(ek.ConstantCoupling(0.5))
    rel_condon = abs(res.lambda_eff - 2.25) / 2.25
    details = [
        f"Condon fit {res.lambda_eff:.4f} eV vs 2.25 "
        f"({100 * rel_condon:.1f}%, limit 10%)"
    ]
    ok = rel_condon <= 0.10
    # a q-dependent coupling makes lam_eff depend on eta, so a single-
    # lambda fit is compared with the same fit of the theory's own curve;
    # the midpoint lam_eff(-0.25) is printed for information only
    for (v0, v1), ref in THEORY_CURVE_FIT_LAMBDA.items():
        c = ek.LinearCoupling(v0, v1)
        fit = _exact_tafel_fit(c)
        mid = ek.effective_lambda_overpotential(
            ek.DiabaticSystem(4.0, 0.0), c, -0.25
        )
        rel = abs(fit.lambda_eff - ref) / ref
        details.append(
            f"linear({v0},{v1}) fit {fit.lambda_eff:.4f} eV vs "
            f"theory-curve fit {ref:.4f} (pinned; {100 * rel:.1f}%, "
            f"limit 15%; midpoint lam_eff {mid:.4f})"
        )
        ok = ok and rel <= 0.15
    report(10, ok, "; ".join(details))


def test_criterion_11_invariant_bundle():
    failures = []

    rng = np.random.default_rng(2026)
    for _ in range(500):
        s = ek.DiabaticSystem(
            float(rng.uniform(0.5, 8.0)), float(rng.uniform(-2.0, 2.0))
        )
        v = float(rng.uniform(0.0, 2.0))
        q = float(rng.uniform(-1.0, 2.0))
        sm = ek.adiabats(s, ek.ConstantCoupling(v), q)
        if abs(sm.e_plus + sm.e_minus - sm.e_a - sm.e_b) > 1e-10:
            failures.append("trace identity")
        if abs(
            (sm.e_plus - sm.e_minus) ** 2
            - ((sm.e_a - sm.e_b) ** 2 + 4 * v * v)
        ) > 1e-8:
            failures.append("discriminant identity")
        if sm.e_plus - sm.e_minus < 2 * v - 1e-12:
            failures.append("gap bound")

    for eps in (0.013, 0.21, 1.7):
        total = ek.fermi_dirac(eps, 300.0) + ek.fermi_dirac(-eps, 300.0)
        if abs(total - 1.0) > 1e-14:
            failures.append("Fermi-Dirac complement")

    # the 2-point Gauss-Legendre rule, which the exact route integrates
    # with, is exact through cubics
    t, w = gauss_legendre(2)
    x = 0.5 + 1.5 * t  # [-1, 2]
    got = 1.5 * np.dot(w, 2 * x**3 - x + 0.5)
    exact = 2 * (2.0**4 - 1.0) / 4 - (2.0**2 - 1.0) / 2 + 0.5 * 3.0
    if abs(got - exact) > 1e-12:
        failures.append("quadrature cubic exactness")

    argv = [
        "barrier", "--lambda", "4", "--dg", "0.3",
        "--coupling", "linear:0.6,1.0",
    ]
    # the child imports the etkit under test, installed or not
    src = os.path.dirname(os.path.dirname(ek.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [
        subprocess.run(
            [sys.executable, "-m", "etkit.cli"] + argv,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
        ).stdout
        for _ in range(2)
    ]
    if outs[0] != outs[1] or not outs[0]:
        failures.append("CLI byte-determinism")

    report(
        11,
        not failures,
        "invariant bundle clean"
        if not failures
        else f"failing invariants: {sorted(set(failures))}",
    )
