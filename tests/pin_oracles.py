"""Regenerates every frozen reference pin of the test suite and checks it.

Run directly (`PYTHONPATH=src python3 tests/pin_oracles.py`). Each pin
comes from ``reference`` or from its formula in 30-digit mpmath, never
from the etkit code it checks; only ``closed_vs_exact_max_dev`` measures
etkit's exact route itself. Each line prints a pin beside its frozen
value, their gap and the tolerance of the test that reads it; the tool
exits 1 if a gap exceeds its tolerance (or a value its frozen bound).
"""

import math
import sys

import mpmath as mp
import numpy as np
from reference import (
    closed_form_mp,
    exact_rate,
    marcus_family_rate,
    theory_curve_fit_linear,
)


def pin_lower_adiabat_at_zero():
    # lam=4, dg0=0.3, V=1, q=0: 2.15 - sqrt(4.3^2 + 4)/2
    with mp.workdps(30):
        return mp.mpf("2.15") - mp.sqrt(mp.mpf("4.3") ** 2 + 4) / 2


def pin_nonadiabatic_prefactor():
    # (V^2/hbar) sqrt(pi beta/lam) at lam=4, V=0.5, 300 K
    with mp.workdps(30):
        b = 1 / (mp.mpf("8.617333262e-5") * 300)
        return (mp.mpf("0.25") / mp.mpf("6.582119569e-16")) * mp.sqrt(mp.pi * b / 4)


def shift_rate_mp(lam, v, eta, T):
    """Adiabatic CONSTANT_SHIFT rate (1/s, rho 1) for a constant V: kT/h
    times the integral of n(eps) exp(-beta((lam + eta - eps)^2/(4 lam) - V))
    over the window +-(2 lam + |eta| + 40 kT), in 40-digit mpmath
    quadrature with breakpoints every 0.2 eV within 2 eV of the Fermi
    level (801 breakpoints there agree to 20 digits)."""
    with mp.workdps(40):
        kT = mp.mpf("8.617333262e-5") * T
        lam, v, eta = mp.mpf(lam), mp.mpf(v), mp.mpf(eta)

        def f(eps):
            return mp.exp(((lam + eta - eps) ** 2 / (4 * lam) - v) / -kT) / (
                1 + mp.exp(eps / kT)
            )

        w = 2 * lam + abs(eta) + 40 * kT
        integral = mp.quad(f, [-w, *mp.linspace(-2, 2, 21), w])
        return integral * kT / mp.mpf("4.135667696e-15")


def closed_vs_trapezoid_max_dev():
    """Worst |dlog10| of the closed form against the Marcus-route
    trapezoid over lam_eff in {0.8, 1.55, 2.25, 3.0}, eta in [-1, 0.5]
    step 0.05."""
    worst = 0.0
    for lam_eff in (0.8, 1.55, 2.25, 3.0):
        for eta in np.arange(-1.0, 0.5001, 0.05):
            kq = marcus_family_rate("marcus", lam_eff, (0.0,), float(eta), 300.0, "adiabatic")
            kc = float(closed_form_mp(mp.mpf(lam_eff), 300, mp.mpf(float(eta))))
            worst = max(worst, abs(math.log10(kc / kq)))
    return worst


def closed_vs_exact_max_dev():
    """Worst |dlog10| of the closed form (lam_eff route) against the
    package's exact-adiabat route over the Tafel grid, lam=4, V=0.5."""
    import etkit as ek

    s = ek.DiabaticSystem(4.0, 0.0)
    c = ek.ConstantCoupling(0.5)
    worst = 0.0
    for eta in np.arange(-1.0, 0.5001, 0.05):
        cond = ek.ElectrodeConditions(300.0, float(eta), 1.0)
        k_ex = ek.mhc_rate_numeric(
            ek.RateRequest(s, c, cond, ek.BarrierMethod.EXACT_ADIABAT)
        )
        k_eff = ek.mhc_rate_closed_form(
            ek.effective_lambda_overpotential(s, c, float(eta)), cond
        )
        worst = max(worst, abs(math.log10(k_eff / k_ex)))
    return worst


# (lam, ascending coefficients of V, T, eta, pin) of the exact-rate pins
# of test_rates.py::TestExactRouteFixedRule::test_against_quad_pins: the
# worst stall of the adaptive route (a product fold where E* is about
# 0.65 eV), V crossing 0 at q = 1/2 and 0.3 (kinks at dg = 0 and -1.6),
# and zero and sub-kink couplings
EXACT_QUAD_CASES = (
    (4.0, (0.6, 0.4), 400.0, 0.4, 912940.7991629516),
    (4.0, (0.2, -0.4), 300.0, -0.3, 0.0024867253378102866),
    (4.0, (0.2, -0.4), 300.0, 0.0, 6.070179310991449e-06),
    (4.0, (0.2, -0.4), 300.0, -0.6, 0.7392744921296626),
    (4.0, (0.15, -0.5), 300.0, -1.5, 163680.95376436974),
    (4.0, (0.0,), 300.0, -0.3, 0.0021274090970449786),
    (4.0, (1e-13,), 300.0, -0.3, 0.002127409097053191),
    (2.0, (0.0,), 300.0, -0.2, 78274.95700481138),
    (2.0, (1e-13,), 300.0, -0.2, 78274.95700511338),
)

# (lam, V, T, eta, pin) of narrow Condon eff channels, lam_eff =
# lam*(1 - 2V/lam)^2 of 1e-4 and 5e-3 eV, pinned by a 4,000,001-point
# trapezoid; read by tests/test_rates.py::TestTailBound
NARROW_EFF_CASES = (
    (4.0, 1.99, 300.0, -0.3, 35628416309.44694),
    (8.0, 3.9, 220.0, -0.9, 158211356147.87848),
)


# (lam, V, T, eta, pin) of the shift rate whose exp(-beta*E*) and
# exp(beta*eps) both overflow (beta*V(1/2) = 846.5), though the rate is a
# float; read by tests/test_rates.py::TestShiftFactor
SHIFT_OVERFLOW_CASE = (8.904, 3.793, 52.0, -1.5, 4.327903111977823e+228)


def pins():
    """(label, value, frozen, tolerance, kind, reader) of every pin; kind
    is "rel" or "abs" (the gap against the tolerance) or "bound" (the
    value against the frozen bound)."""
    yield ("E_minus(q=0; lam=4, dg=0.3, V=1)", float(pin_lower_adiabat_at_zero()),
           -0.22118114027587525, 1e-14, "abs",
           "test_model.py::TestAdiabats::test_pinned_value_at_origin")
    yield ("closed form (2.25 eV, 300 K, 0 V)",
           float(closed_form_mp(mp.mpf("2.25"), 300, 0)), 281.86537695053019, 1e-12,
           "rel", "test_rates.py::TestClosedForm::test_pinned_equilibrium_value")
    yield ("non-adiabatic prefactor (lam=4, V=0.5, 300 K)",
           float(pin_nonadiabatic_prefactor()), 2093495878481287.7, 1e-12, "rel",
           "test_rates.py::TestPrefactor::test_non_adiabatic_pinned")
    yield ("exact rate (lam=4, V=0.5, 300 K, -0.3 V)", exact_rate(4.0, (0.5,), -0.3, 300.0),
           36546.69099305575, 1e-12, "rel",
           "test_reference.py; at 1e-4 test_rates.py::TestNumericRate::test_exact_route_pinned")
    for lam, coeffs, T, eta, pin in EXACT_QUAD_CASES:
        yield (f"exact rate (lam={lam}, V={coeffs}, {T} K, {eta} V)",
               exact_rate(lam, coeffs, eta, T), pin, 1e-9, "rel",
               "test_rates.py::TestExactRouteFixedRule::test_against_quad_pins")
    for lam, v, T, eta, pin in NARROW_EFF_CASES:
        lam_eff = lam * (1.0 - 2.0 * v / lam) ** 2
        yield (f"narrow eff channel (lam={lam}, V={v}, {T} K, {eta} V)",
               marcus_family_rate("marcus", lam_eff, (0.0,), eta, T, "adiabatic", n=4000001),
               pin, 1e-9, "rel",
               "test_rates.py::TestTailBound::test_narrow_channel_matches_dense_trapezoid")
    lam, v, T, eta, pin = SHIFT_OVERFLOW_CASE
    yield (f"shift rate past exp's range (lam={lam}, V={v}, {T} K, {eta} V)",
           float(shift_rate_mp(str(lam), str(v), str(eta), T)), pin, 1e-9, "rel",
           "test_rates.py::TestShiftFactor::test_rate_whose_boltzmann_factor_overflows")
    # the bounds were frozen from 0.2512 and 0.2905 dex
    yield ("closed-vs-quadrature max dev (dex)", closed_vs_trapezoid_max_dev(), 0.26,
           None, "bound", "test_acceptance.py::test_criterion_07 (CLOSED_VS_QUADRATURE_DEX)")
    yield ("closed-vs-exact max dev (dex)", closed_vs_exact_max_dev(), 0.31, None,
           "bound", "test_acceptance.py::test_criterion_08 (CLOSED_VS_EXACT_DEX)")
    for (v0, v1), pin in {(0.1, 0.5): 1.570655, (0.2, 1.0): 0.866391,
                          (0.6, 1.0): 0.929832}.items():
        yield (f"theory-curve lambda_eff fit, linear({v0},{v1})",
               theory_curve_fit_linear(v0, v1), pin, 0.15, "rel",
               "test_acceptance.py::test_criterion_10 (THEORY_CURVE_FIT_LAMBDA)")


def main():
    failed = 0
    for label, value, frozen, tol, kind, reader in pins():
        if kind == "bound":
            ok = value <= frozen
            check = f"bound {frozen!r}"
        else:
            gap = abs(value - frozen) / (abs(frozen) if kind == "rel" else 1.0)
            ok = gap <= tol
            check = f"frozen {frozen!r}, {kind} gap {gap:.2e} (tolerance {tol:g})"
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {float(value)!r}; {check}; {reader}",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
