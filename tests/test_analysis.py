import math

import numpy as np
import pytest

from etkit.analysis import (
    SweepSpec,
    SweepVariable,
    arrhenius_sweep,
    barrier_sweep,
    effective_activation_energy,
    fit_lambda_eff,
    tafel_sweep,
)
from etkit.barriers import BarrierMethod
from etkit.model import ConstantCoupling, DiabaticSystem
from etkit.rates import ElectrodeConditions, mhc_rate_closed_form

ALL_METHODS = (
    BarrierMethod.MARCUS,
    BarrierMethod.CONSTANT_SHIFT,
    BarrierMethod.EFFECTIVE_LAMBDA,
    BarrierMethod.EXACT_ADIABAT,
)


def spec(variable, start, stop, n, methods=ALL_METHODS, v=0.5,
         conditions=None, lam=4.0, dg0=0.0):
    return SweepSpec(
        variable=variable, start=start, stop=stop, n=n,
        system=DiabaticSystem(lam, dg0), coupling=ConstantCoupling(v),
        methods=methods, conditions=conditions,
    )


class TestSweepSpec:
    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            spec(SweepVariable.DG0, 0.0, 0.0, 5)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            spec(SweepVariable.DG0, 0.0, 1.0, 1)

    def test_grid_is_sorted_even_for_reversed_bounds(self):
        s = spec(SweepVariable.DG0, 1.0, -1.0, 5)
        g = s.grid()
        assert list(g) == sorted(g)


class TestBarrierSweep:
    def test_columns_and_shape(self):
        t = barrier_sweep(spec(SweepVariable.DG0, -1.0, 0.5, 7))
        assert t.columns == [
            "dG0_eV", "Estar_marcus_eV", "Estar_shift_eV",
            "Estar_eff_eV", "Estar_exact_eV",
        ]
        assert len(t.rows) == 7

    def test_marcus_column_matches_closed_form(self):
        t = barrier_sweep(spec(SweepVariable.DG0, -1.0, 0.5, 7))
        dg = t.column("dG0_eV")
        expected = (4.0 + dg) ** 2 / 16.0
        assert np.allclose(t.column("Estar_marcus_eV"), expected, atol=1e-14)

    def test_singular_method_leaves_empty_cell_and_warns(self):
        t = barrier_sweep(
            spec(SweepVariable.COUPLING_SCALAR, 0.0, 2.0, 5, lam=1.0,
                 methods=(BarrierMethod.EFFECTIVE_LAMBDA,))
        )
        col = t.column("Estar_eff_eV")
        assert np.isnan(col).any()
        assert t.warnings
        assert any("eff" in w for w in t.warnings)

    def test_lambda_sweep(self):
        t = barrier_sweep(
            spec(SweepVariable.LAMBDA, 2.0, 6.0, 5,
                 methods=(BarrierMethod.MARCUS,))
        )
        lam = t.column("lambda_eV")
        assert np.allclose(t.column("Estar_marcus_eV"), lam / 4.0)

    def test_rejects_rate_variables(self):
        with pytest.raises(ValueError):
            barrier_sweep(spec(SweepVariable.ETA_F, -0.5, 0.5, 5))


class TestTafelSweep:
    def test_eff_column_matches_closed_form(self):
        cond = ElectrodeConditions(300.0, 0.0, 1.0)
        t = tafel_sweep(
            spec(SweepVariable.ETA_F, -0.5, 0.2, 8,
                 methods=(BarrierMethod.EFFECTIVE_LAMBDA,), conditions=cond)
        )
        for eta, logk in zip(t.column("eta_f_V"), t.column("log10k_eff")):
            # constant coupling: lam_eff is independent of the level shift
            ref = mhc_rate_closed_form(
                4.0 * (1.0 - 2.0 * 0.5 / 4.0) ** 2,
                ElectrodeConditions(300.0, float(eta), 1.0),
            )
            assert logk == pytest.approx(math.log10(ref), abs=1e-12)

    def test_cathodic_branch_decreases_with_eta(self):
        cond = ElectrodeConditions(300.0, 0.0, 1.0)
        t = tafel_sweep(
            spec(SweepVariable.ETA_F, -0.6, 0.0, 7,
                 methods=(BarrierMethod.EFFECTIVE_LAMBDA,), conditions=cond)
        )
        col = list(t.column("log10k_eff"))
        assert col == sorted(col, reverse=True)

    def test_requires_conditions(self):
        with pytest.raises(ValueError):
            tafel_sweep(spec(SweepVariable.ETA_F, -0.5, 0.2, 5))

    def test_rejects_wrong_variable(self):
        cond = ElectrodeConditions(300.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tafel_sweep(
                spec(SweepVariable.DG0, -0.5, 0.2, 5, conditions=cond)
            )


class TestArrheniusSweep:
    def test_slope_recovers_barrier_scale(self):
        cond = ElectrodeConditions(300.0, 0.0, 1.0)
        t = arrhenius_sweep(
            spec(SweepVariable.INV_TEMPERATURE, 1.0 / 320.0, 1.0 / 280.0, 9,
                 methods=(BarrierMethod.EFFECTIVE_LAMBDA,), conditions=cond)
        )
        ea = effective_activation_energy(
            t.column("invT_per_K"), t.column("lnk_eff")
        )
        # lam_eff/4 = 0.5625 at eta=0; prefactor T-dependence shifts it
        assert ea == pytest.approx(0.5625, rel=0.15)

    def test_rejects_wrong_variable(self):
        cond = ElectrodeConditions(300.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            arrhenius_sweep(
                spec(SweepVariable.ETA_F, -0.5, 0.2, 5, conditions=cond)
            )


class TestEffectiveActivationEnergy:
    def test_exact_on_synthetic_line(self):
        # ln k = ln A - beta * Ea with Ea = 0.37 eV
        inv_t = np.linspace(1.0 / 350.0, 1.0 / 250.0, 11)
        betas = inv_t / 8.617333262e-5
        ln_k = 30.0 - betas * 0.37
        assert effective_activation_energy(inv_t, ln_k) == pytest.approx(
            0.37, abs=1e-12
        )

    def test_ignores_non_finite_points(self):
        inv_t = np.array([1 / 300.0, 1 / 310.0, 1 / 320.0, 1 / 330.0])
        betas = inv_t / 8.617333262e-5
        ln_k = 5.0 - betas * 0.2
        ln_k[1] = math.nan
        assert effective_activation_energy(inv_t, ln_k) == pytest.approx(
            0.2, abs=1e-10
        )

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            effective_activation_energy([1 / 300.0, 1 / 310.0], [1.0, 2.0])


class TestFitLambdaEff:
    def synthetic(self, lam_eff, offset, n=31):
        eta = np.linspace(-0.8, 0.4, n)
        y = np.array(
            [
                math.log10(
                    mhc_rate_closed_form(
                        lam_eff, ElectrodeConditions(300.0, float(e), 1.0)
                    )
                )
                + offset
                for e in eta
            ]
        )
        return eta, y

    def test_self_consistent_recovery(self):
        eta, y = self.synthetic(1.0, 3.5)
        res = fit_lambda_eff(eta, y, 300.0)
        assert res.converged
        assert res.lambda_eff == pytest.approx(1.0, abs=1e-6)
        assert res.log10_scale == pytest.approx(3.5, abs=1e-8)
        assert res.rms_residual < 1e-8
        assert res.n_points == len(eta)

    def test_recovery_with_noise(self):
        rng = np.random.default_rng(42)
        eta, y = self.synthetic(2.25, -1.0)
        y = y + rng.normal(0.0, 0.02, size=len(y))
        res = fit_lambda_eff(eta, y, 300.0)
        assert res.converged
        assert res.lambda_eff == pytest.approx(2.25, rel=0.1)
        assert res.rms_residual < 0.05

    def test_degenerate_data_flagged_unconverged(self):
        eta = np.linspace(-0.5, 0.5, 11)
        y = np.zeros_like(eta)
        res = fit_lambda_eff(eta, y, 300.0)
        assert not res.converged

    def test_drops_non_finite_and_counts_rest(self):
        eta, y = self.synthetic(1.0, 0.0, n=12)
        y[3] = math.nan
        res = fit_lambda_eff(eta, y, 300.0)
        assert res.n_points == 11
        assert res.lambda_eff == pytest.approx(1.0, abs=1e-6)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            fit_lambda_eff([0.0, 0.1, 0.2], [1.0, 2.0, 3.0], 300.0)

    def test_underflowing_rate_raises(self):
        # at 20 K the closed form underflows to 0 for large lambda_eff;
        # its log10 must not reach the scan's argmin as -inf
        eta = np.linspace(-0.5, 0.2, 11)
        with pytest.raises(ValueError, match="underflows"):
            fit_lambda_eff(eta, -8.0 * eta, 20.0)
