import math

import numpy as np
import pytest
import scipy.special

from etkit.barriers import BarrierMethod
from etkit.constants import H, K_B, beta
from etkit.errors import AccuracyError, NumericalDomainError, SingularRegimeError
from etkit.model import ConstantCoupling, DiabaticSystem, LinearCoupling
from etkit.rates import (
    ElectrodeConditions,
    PrefactorKind,
    RateRequest,
    closed_form_rates,
    effective_lambda_overpotential,
    extract_coupling,
    fermi_dirac,
    mhc_rate_closed_form,
    mhc_rate_numeric,
    prefactor,
)


class TestFermiDirac:
    def test_at_fermi_level(self):
        assert fermi_dirac(0.0, 300.0) == 0.5

    def test_particle_hole_symmetry(self):
        for eps in (0.01, 0.1, 0.5, 2.0):
            assert fermi_dirac(eps, 300.0) + fermi_dirac(-eps, 300.0) == (
                pytest.approx(1.0, abs=1e-14)
            )

    def test_against_logistic(self):
        b = beta(300.0)
        for eps in np.linspace(-1.0, 1.0, 201):
            ref = float(scipy.special.expit(-b * eps))
            assert fermi_dirac(float(eps), 300.0) == pytest.approx(
                ref, rel=1e-13
            )

    def test_extreme_tails_do_not_overflow(self):
        assert fermi_dirac(100.0, 300.0) < 1e-300
        assert fermi_dirac(-100.0, 300.0) == 1.0


class TestPrefactor:
    def test_adiabatic_is_classical_attempt_frequency(self):
        got = prefactor(
            PrefactorKind.ADIABATIC, DiabaticSystem(4.0, 0.0), 0.5, 300.0
        )
        assert got == pytest.approx(K_B * 300.0 / H, rel=1e-15)

    def test_non_adiabatic_pinned(self):
        # mpmath 30-digit: (V^2/hbar)*sqrt(pi*beta/lam), lam=4, V=0.5, 300 K
        got = prefactor(
            PrefactorKind.NON_ADIABATIC, DiabaticSystem(4.0, 0.0), 0.5, 300.0
        )
        assert got == pytest.approx(2093495878481287.7, rel=1e-12)

    def test_non_adiabatic_scales_as_coupling_squared(self):
        s = DiabaticSystem(4.0, 0.0)
        p1 = prefactor(PrefactorKind.NON_ADIABATIC, s, 0.1, 300.0)
        p2 = prefactor(PrefactorKind.NON_ADIABATIC, s, 0.2, 300.0)
        assert p2 / p1 == pytest.approx(4.0, rel=1e-12)

    def test_zero_coupling_kills_non_adiabatic_rate(self):
        s = DiabaticSystem(2.0, 0.0)
        cond = ElectrodeConditions(
            300.0, 0.0, 1.0, PrefactorKind.NON_ADIABATIC
        )
        req = RateRequest(s, ConstantCoupling(0.0), cond, BarrierMethod.MARCUS)
        assert mhc_rate_numeric(req) == 0.0


class TestConditionsValidation:
    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            ElectrodeConditions(0.0, 0.0)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            ElectrodeConditions(300.0, 0.0, rho=-1.0)

    def test_rejects_non_finite_overpotential(self):
        with pytest.raises(ValueError):
            ElectrodeConditions(300.0, math.inf)


def trapezoid_marcus_rate(lam, T, eta, rho=1.0, n=1_000_001):
    """Dense-trapezoid oracle for the Marcus-barrier continuum integral."""
    b = 1.0 / (K_B * T)
    w = 2 * lam + abs(eta) + 40 * K_B * T
    x = np.linspace(-4 * w, 4 * w, n)
    expo = np.clip(-b * (lam + (eta - x)) ** 2 / (4 * lam), -700, 0)
    bx = np.clip(b * x, -700, 700)
    occ = np.where(
        x >= 0,
        np.exp(-np.abs(bx)) / (1 + np.exp(-np.abs(bx))),
        1 / (1 + np.exp(bx)),
    )
    return (K_B * T / H) * rho * np.trapezoid(occ * np.exp(expo), x)


def trapezoid_eff_rate(lam, v0, v1, T, eta, n=2_000_001):
    """Dense-trapezoid oracle for the EFFECTIVE_LAMBDA continuum integral
    with a linear coupling; nodes with lam_eff <= 0 contribute 0."""
    b = 1.0 / (K_B * T)
    w = 2 * lam + abs(eta) + 40 * K_B * T
    x = np.linspace(-4 * w, 4 * w, n)
    dg = eta - x
    v_ts = v0 + 0.5 * (1.0 + dg / lam) * (v1 - v0)
    lam_eff = lam - 4.0 * v_ts + 4.0 * v0 * v0 / lam
    open_ = lam_eff > 0.0
    safe = np.where(open_, lam_eff, 1.0)
    expo = np.where(open_, -b * (safe + dg) ** 2 / (4.0 * safe), -np.inf)
    weight = scipy.special.expit(-b * x) * np.exp(np.maximum(expo, -700.0))
    return (K_B * T / H) * np.trapezoid(np.where(open_, weight, 0.0), x)


class TestNumericRate:
    def test_eff_route_closes_channel_where_lam_eff_not_positive(self):
        # lam_eff(dg) = 3.24 - 0.8*(1 + dg/4) drops to 0 at dg = 4.1, a
        # far-tail node of the window; it used to abort the whole rate
        s = DiabaticSystem(4.0, 0.0)
        cond = ElectrodeConditions(300.0, -0.3, 1.0)
        req = RateRequest(
            s, LinearCoupling(0.2, 1.0), cond, BarrierMethod.EFFECTIVE_LAMBDA
        )
        ref = trapezoid_eff_rate(4.0, 0.2, 1.0, 300.0, -0.3)
        assert mhc_rate_numeric(req) == pytest.approx(ref, rel=1e-6)

    def test_window_exhaustion_raises_with_best_estimate(self):
        s = DiabaticSystem(4.0, 0.0)
        cond = ElectrodeConditions(300.0, -0.3, 1.0)
        req = RateRequest(s, ConstantCoupling(0.5), cond, BarrierMethod.MARCUS)
        full = mhc_rate_numeric(req)
        with pytest.raises(AccuracyError) as err:
            mhc_rate_numeric(req, window_scale=1e-3)
        assert 0.0 < err.value.best_estimate < full


    def test_marcus_route_vs_dense_trapezoid(self):
        s = DiabaticSystem(1.55, 0.0)
        cond = ElectrodeConditions(300.0, -0.2, 1.0)
        req = RateRequest(s, ConstantCoupling(0.0), cond, BarrierMethod.MARCUS)
        got = mhc_rate_numeric(req)
        ref = trapezoid_marcus_rate(1.55, 300.0, -0.2)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_exact_route_pinned(self):
        # 40001-point trapezoid with per-node extremum analysis
        s = DiabaticSystem(4.0, 0.0)
        cond = ElectrodeConditions(300.0, -0.3, 1.0)
        req = RateRequest(
            s, ConstantCoupling(0.5), cond, BarrierMethod.EXACT_ADIABAT
        )
        assert mhc_rate_numeric(req) == pytest.approx(
            36546.69099305575, rel=1e-4
        )

    def test_rate_scales_linearly_with_dos(self):
        s = DiabaticSystem(2.0, 0.0)
        c = ConstantCoupling(0.3)
        k1 = mhc_rate_numeric(
            RateRequest(
                s, c, ElectrodeConditions(300.0, 0.0, 1.0),
                BarrierMethod.EFFECTIVE_LAMBDA,
            )
        )
        k3 = mhc_rate_numeric(
            RateRequest(
                s, c, ElectrodeConditions(300.0, 0.0, 3.0),
                BarrierMethod.EFFECTIVE_LAMBDA,
            )
        )
        assert k3 / k1 == pytest.approx(3.0, rel=1e-9)

    def test_cathodic_rate_grows_with_driving(self):
        s = DiabaticSystem(4.0, 0.0)
        c = ConstantCoupling(0.5)
        ks = [
            mhc_rate_numeric(
                RateRequest(
                    s, c, ElectrodeConditions(300.0, eta, 1.0),
                    BarrierMethod.EXACT_ADIABAT,
                )
            )
            for eta in (-0.6, -0.3, 0.0, 0.3)
        ]
        assert ks == sorted(ks, reverse=True)


class TestEffectiveLambdaOverpotential:
    def test_condon_at_equilibrium(self):
        assert effective_lambda_overpotential(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(1.0), 0.0
        ) == pytest.approx(1.0, abs=1e-14)

    def test_linear_coupling_with_bias(self):
        # crossing at (1 - 0.3/4)/2 = 0.4625; V there is 0.6 + 0.4*0.4625:
        # 4 - 4*0.785 + 4*0.36/4 = 1.22
        assert effective_lambda_overpotential(
            DiabaticSystem(4.0, 0.0), LinearCoupling(0.6, 1.0), -0.3
        ) == pytest.approx(1.22, abs=1e-12)

    def test_singular_when_coupling_too_strong(self):
        with pytest.raises(SingularRegimeError):
            effective_lambda_overpotential(
                DiabaticSystem(1.0, 0.0), ConstantCoupling(0.5), 0.0
            )


class TestClosedForm:
    def test_pinned_equilibrium_value(self):
        # mpmath 30-digit evaluation of the closed form
        cond = ElectrodeConditions(300.0, 0.0, 1.0)
        assert mhc_rate_closed_form(2.25, cond) == pytest.approx(
            281.86537695053019, rel=1e-12
        )

    def test_matches_independent_recomputation(self):
        # same algebra evaluated with scipy's erfc and raw floats
        for lam_eff in (0.8, 1.55, 3.0):
            for eta in np.linspace(-1.0, 0.5, 31):
                b = beta(300.0)
                bl, be = b * lam_eff, b * float(eta)
                arg = (bl - math.sqrt(1 + math.sqrt(bl) + be * be)) / (
                    2 * math.sqrt(bl)
                )
                ref = (
                    math.sqrt(math.pi * lam_eff / b)
                    / (b * H * (1 + math.exp(be)))
                    * scipy.special.erfc(arg)
                )
                got = mhc_rate_closed_form(
                    lam_eff, ElectrodeConditions(300.0, float(eta), 1.0)
                )
                assert got == pytest.approx(ref, rel=1e-11)

    def test_rate_saturates_at_large_driving(self):
        # inverted-region-free plateau: k(-1.5) close to k(-2.5)
        k1 = mhc_rate_closed_form(0.8, ElectrodeConditions(300.0, -1.5))
        k2 = mhc_rate_closed_form(0.8, ElectrodeConditions(300.0, -2.5))
        assert abs(math.log10(k2 / k1)) < 0.2

    def test_rejects_non_positive_lambda(self):
        with pytest.raises(SingularRegimeError):
            mhc_rate_closed_form(0.0, ElectrodeConditions(300.0, 0.0))

    @pytest.mark.parametrize("T", [300.0, 20.0])
    def test_array_form_equals_scalar_form(self, T):
        lam_eff = np.array([0.05, 0.8, 2.25, 10.0, 120.0])
        eta = np.array([-1.5, -0.3, 0.0, 0.4, 20.0])
        got = closed_form_rates(lam_eff[:, None], eta, T, 2.0)
        assert got.shape == (5, 5)
        # eta = 20 V clamps the occupancy's exponent; large beta*lam_eff
        # drives erfc to underflow
        assert beta(T) * 20.0 > 700.0
        assert np.any(got == 0.0) and np.any(got > 0.0)
        for i, lam in enumerate(lam_eff):
            for j, e in enumerate(eta):
                want = mhc_rate_closed_form(
                    float(lam), ElectrodeConditions(T, float(e), 2.0)
                )
                assert got[i, j] == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_nan_lambda_raises_domain_error(self):
        with pytest.raises(NumericalDomainError):
            mhc_rate_closed_form(math.nan, ElectrodeConditions(300.0, 0.0))
        with pytest.raises(NumericalDomainError):
            closed_form_rates([1.0, math.nan], 0.0, 300.0, 1.0)
        with pytest.raises(SingularRegimeError):
            closed_form_rates([1.0, 0.0], 0.0, 300.0, 1.0)


class TestExtractCoupling:
    def test_strong_coupling_example(self):
        # 6.3/2 - sqrt(6.3*0.75)/2
        v = extract_coupling(6.3, 0.75)
        assert v == pytest.approx(3.15 - math.sqrt(4.725) / 2, rel=1e-14)
        assert 2.05 <= v <= 2.10

    def test_roundtrip_with_condon_effective_lambda(self):
        for lam in (1.0, 2.5, 6.3):
            for v in (0.05, 0.3, 0.45 * lam):
                lam_eff = lam * (1.0 - 2.0 * v / lam) ** 2
                assert extract_coupling(lam, lam_eff) == pytest.approx(
                    v, abs=1e-12
                )

    def test_zero_coupling_limit(self):
        assert extract_coupling(4.0, 4.0) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            extract_coupling(4.0, 0.0)
        with pytest.raises(ValueError):
            extract_coupling(4.0, 4.5)
