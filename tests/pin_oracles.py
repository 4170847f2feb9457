"""Regenerates every frozen expected value used by the test suite.

Run directly (`python3 tests/pin_oracles.py`); takes a few minutes. Each
pin is produced by a route independent of the code path it later checks:
mpmath high-precision scalar evaluation, dense trapezoid quadrature, or
closed-form stationary analysis.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import erfc, expit

import etkit as ek
from etkit.barriers import BarrierMethod
from etkit.constants import H, K_B

mp.mp.dps = 30


def pin_lower_adiabat_at_zero():
    # lam=4, dg0=0.3, V=1, q=0: 2.15 - sqrt(4.3^2 + 4)/2
    return mp.mpf("2.15") - mp.sqrt(mp.mpf("4.3") ** 2 + 4) / 2


def pin_erfc_one():
    return mp.erfc(1)


def closed_form_mp(lam_eff, T, eta, rho=1):
    b = 1 / (mp.mpf("8.617333262e-5") * T)
    bl, be = b * lam_eff, b * eta
    arg = (bl - mp.sqrt(1 + mp.sqrt(bl) + be * be)) / (2 * mp.sqrt(bl))
    return (
        rho
        * mp.sqrt(mp.pi * lam_eff / b)
        / (b * mp.mpf("4.135667696e-15") * (1 + mp.exp(be)))
        * mp.erfc(arg)
    )


def pin_nonadiabatic_prefactor():
    b = 1 / (mp.mpf("8.617333262e-5") * 300)
    return (mp.mpf("0.25") / mp.mpf("6.582119569e-16")) * mp.sqrt(
        mp.pi * b / 4
    )


def trapezoid_marcus_rate(lam, T, eta, rho=1.0, n=1_000_001):
    """1e6-point trapezoid for the Marcus-barrier continuum integral."""
    b = 1.0 / (K_B * T)
    w = 2 * lam + abs(eta) + 40 * K_B * T
    x = np.linspace(-4 * w, 4 * w, n)
    expo = np.clip(-b * (lam + (eta - x)) ** 2 / (4 * lam), -700, 0)
    bx = np.clip(b * x, -700, 700)
    occ = np.where(x >= 0, np.exp(-np.abs(bx)) / (1 + np.exp(-np.abs(bx))),
                   1 / (1 + np.exp(bx)))
    return (K_B * T / H) * rho * np.trapezoid(occ * np.exp(expo), x)


def trapezoid_exact_rate(lam, c, T, eta, rho=1.0, n=40001):
    """Dense trapezoid with per-node extremum analysis of the adiabat."""
    b = 1.0 / (K_B * T)
    w = 2 * lam + abs(eta) + 40 * K_B * T
    xs = np.linspace(-w, w, n)
    vals = np.empty(n)
    for i, eps in enumerate(xs):
        res = ek.barrier(
            ek.DiabaticSystem(lam, eta - eps), c, BarrierMethod.EXACT_ADIABAT
        )
        if res.activationless and res.q_r < 0.5:
            vals[i] = 0.0
        else:
            vals[i] = ek.fermi_dirac(eps, T) * math.exp(
                max(-b * res.e_star, -700)
            )
    return (K_B * T / H) * rho * np.trapezoid(vals, xs)


def topology_flag(lam, c, dg):
    """Topology of the lower adiabat at level shift dg, from the scalar
    exact barrier: "closed" (a single reactant-side well), "downhill" (a
    single product-side well) or "barrier"."""
    res = ek.barrier(ek.DiabaticSystem(lam, dg), c, BarrierMethod.EXACT_ADIABAT)
    if res.activationless:
        return "closed" if res.q_r < 0.5 else "downhill"
    return "barrier"


def flag_changes(lam, c, lo, hi, n=4001, tol=1e-13):
    """Level shifts in [lo, hi] where topology_flag changes: a scan on n
    points, then bisection of each change to tol."""
    grid = np.linspace(lo, hi, n)
    flags = [topology_flag(lam, c, float(g)) for g in grid]
    changes = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], flags[:-1], flags[1:]):
        if fa == fb:
            continue
        while b - a > tol:
            mid = 0.5 * (a + b)
            if topology_flag(lam, c, mid) == fa:
                a = mid
            else:
                b = mid
        changes.append(0.5 * (a + b))
    return changes


def kink_shifts(lam, coeffs):
    """Level shifts lam*(2q - 1) at the real roots q in [-0.5, 1.5] of V,
    where the exact barrier has a kink."""
    if not any(coeffs):
        return []
    roots = np.roots(list(coeffs)[::-1])
    q = roots.real[np.abs(roots.imag) <= 1e-12]
    return [lam * (2.0 * x - 1.0) for x in q if -0.5 <= x <= 1.5]


def quad_exact_rate(lam, coeffs, T, eta, rho=1.0):
    """EXACT_ADIABAT rate (1/s, adiabatic prefactor) by scipy's adaptive
    quad over eps.

    The eps axis is cut at the Fermi step and at eta - dg for every fold
    and kink shift dg: the folds where the topology flags of the scalar
    ``ek.barrier`` change, found by bisection on a scan over
    dg in eta +- (2*lam + |eta| + 40*kT), and the kinks from the roots
    of V. Each piece is one quad call at epsrel 1e-12; the pieces past
    the outermost cuts run to +-inf.
    """
    c = ek.PolynomialCoupling(tuple(coeffs))
    b = 1.0 / (K_B * T)
    w = 2 * lam + abs(eta) + 40 * K_B * T
    shifts = flag_changes(lam, c, eta - w, eta + w) + kink_shifts(lam, coeffs)
    assert topology_flag(lam, c, eta + w) == "closed"
    assert topology_flag(lam, c, eta - w) != "barrier"

    def integrand(eps):
        res = ek.barrier(
            ek.DiabaticSystem(lam, eta - eps), c, BarrierMethod.EXACT_ADIABAT
        )
        if res.activationless and res.q_r < 0.5:
            return 0.0
        return float(expit(-b * eps)) * math.exp(-b * res.e_star)

    cuts = sorted({0.0, *(eta - s for s in shifts)})
    total = 0.0
    for lo, hi in zip([-math.inf] + cuts, cuts + [math.inf]):
        val, _err = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=500)
        total += val
    return (K_B * T / H) * rho * total


def closed_vs_trapezoid_max_dev():
    """Worst |dlog10| of the closed form against the trapezoid oracle
    over lam_eff in {0.8, 1.55, 2.25, 3.0}, eta in [-1, 0.5] step 0.05."""
    worst = 0.0
    for lam_eff in (0.8, 1.55, 2.25, 3.0):
        for eta in np.arange(-1.0, 0.5001, 0.05):
            kq = trapezoid_marcus_rate(lam_eff, 300.0, float(eta))
            kc = float(closed_form_mp(mp.mpf(lam_eff), 300, mp.mpf(float(eta))))
            worst = max(worst, abs(math.log10(kc / kq)))
    return worst


def closed_vs_exact_max_dev():
    """Worst |dlog10| of the closed form (lam_eff route) against the
    exact-adiabat quadrature over the Tafel grid, lam=4, V=0.5."""
    s = ek.DiabaticSystem(4.0, 0.0)
    c = ek.ConstantCoupling(0.5)
    worst = 0.0
    for eta in np.arange(-1.0, 0.5001, 0.05):
        cond = ek.ElectrodeConditions(300.0, float(eta), 1.0)
        k_ex = ek.mhc_rate_numeric(
            ek.RateRequest(s, c, cond, BarrierMethod.EXACT_ADIABAT)
        )
        k_eff = ek.mhc_rate_closed_form(
            ek.effective_lambda_overpotential(s, c, float(eta)), cond
        )
        worst = max(worst, abs(math.log10(k_eff / k_ex)))
    return worst


def log10_closed_form(lam_eff, eta, T, rho=1.0):
    """log10 of the closed-form rate, evaluated with scipy's erfc."""
    b = 1.0 / (K_B * T)
    bl, be = b * lam_eff, b * eta
    arg = (bl - np.sqrt(1 + np.sqrt(bl) + be * be)) / (2 * np.sqrt(bl))
    return (
        np.log10(rho)
        + 0.5 * np.log10(np.pi * lam_eff / b)
        - np.log10(b * H)
        - np.log10(1 + np.exp(be))
        + np.log10(erfc(arg))
    )


def fit_closed_form(eta, y, T, rho=1.0, n_scan=4001):
    """Single lambda_eff of the least-squares fit of log10 closed form
    plus a free offset to the points (eta, y).

    A dense log scan over [0.05, 10] eV refined by
    scipy.optimize.minimize_scalar (Brent); no etkit routine is called.
    """
    eta, y = np.asarray(eta, dtype=float), np.asarray(y, dtype=float)

    def rms(lam_eff):
        r = log10_closed_form(lam_eff, eta, T, rho) - y
        return float(np.sqrt(np.mean((r - r.mean()) ** 2)))

    grid = np.geomspace(0.05, 10.0, n_scan)
    i = int(np.argmin([rms(g) for g in grid]))
    res = minimize_scalar(
        rms, bracket=(grid[i - 1], grid[i], grid[i + 1]),
        options={"xtol": 1e-12},
    )
    return float(res.x)


def theory_curve_fit_linear(v0, v1, lam=4.0, T=300.0, n=31):
    """Single lambda_eff fitted to the reduced-lambda theory's own Tafel
    curve for the linear coupling V(q) = v0 + (v1 - v0)*q.

    The curve is log10 of the closed form at
    lam_eff(eta) = lam - 4*V((lam + eta)/(2*lam)) + 4*V(0)^2/lam on the
    criterion-10 grid (eta in [-1, 0.5], n points), fitted by
    ``fit_closed_form``.
    """
    eta = np.linspace(-1.0, 0.5, n)
    q_star = (lam + eta) / (2 * lam)
    lam_eff_eta = lam - 4 * (v0 + (v1 - v0) * q_star) + 4 * v0 * v0 / lam
    return fit_closed_form(eta, log10_closed_form(lam_eff_eta, eta, T), T)


# (lam, ascending coefficients of V, T, eta) of the quad_exact_rate pins:
# the worst stall of the adaptive exact route, couplings that cross 0 at
# q = 1/2 and q = 0.3 (kinks at dg = 0 and -1.6), and zero and sub-kink
# couplings
EXACT_QUAD_CASES = (
    (4.0, (0.6, 0.4), 400.0, 0.4),
    (4.0, (0.2, -0.4), 300.0, -0.3),
    (4.0, (0.2, -0.4), 300.0, 0.0),
    (4.0, (0.2, -0.4), 300.0, -0.6),
    (4.0, (0.15, -0.5), 300.0, -1.5),
    (4.0, (0.0,), 300.0, -0.3),
    (4.0, (1e-13,), 300.0, -0.3),
    (2.0, (0.0,), 300.0, -0.2),
    (2.0, (1e-13,), 300.0, -0.2),
)

# (lam, V, T, eta) of narrow Condon eff channels, lam_eff = lam*(1 - 2V/lam)^2
# of 1e-4 and 5e-3 eV, whose rates are pinned by a 4,000,001-point trapezoid
NARROW_EFF_CASES = (
    (4.0, 1.99, 300.0, -0.3),
    (8.0, 3.9, 220.0, -0.9),
)


def main():
    print("E_minus(q=0; lam=4, dg=0.3, V=1):",
          mp.nstr(pin_lower_adiabat_at_zero(), 17))
    print("erfc(1):", mp.nstr(pin_erfc_one(), 17))
    print("closed form (2.25 eV, 300 K, 0 V, rho=1):",
          mp.nstr(closed_form_mp(mp.mpf("2.25"), 300, 0), 17))
    print("non-adiabatic prefactor (lam=4, V=0.5, 300 K):",
          mp.nstr(pin_nonadiabatic_prefactor(), 17))
    print("exact rate (lam=4, V=0.5, 300 K, -0.3 V):",
          trapezoid_exact_rate(4.0, ek.ConstantCoupling(0.5), 300.0, -0.3))
    for lam, coeffs, T, eta in EXACT_QUAD_CASES:
        print(f"exact rate by quad (lam={lam}, V={coeffs}, {T} K, {eta} V):",
              quad_exact_rate(lam, coeffs, T, eta))
    for lam, v, T, eta in NARROW_EFF_CASES:
        lam_eff = lam * (1.0 - 2.0 * v / lam) ** 2
        print(f"narrow eff channel (lam={lam}, V={v}, {T} K, {eta} V):",
              trapezoid_marcus_rate(lam_eff, T, eta, n=4_000_001))
    print("closed-vs-quadrature max dev (dex):", closed_vs_trapezoid_max_dev())
    print("closed-vs-exact max dev (dex):", closed_vs_exact_max_dev())
    for v0, v1 in ((0.1, 0.5), (0.2, 1.0), (0.6, 1.0)):
        print(f"theory-curve lambda_eff fit, linear({v0},{v1}):",
              theory_curve_fit_linear(v0, v1))


if __name__ == "__main__":
    main()
