import math

import numpy as np
import pytest
from fit_traffic import counting_model, draws
from reference import fit_closed_form, log10_closed_form

import etkit.analysis
from etkit.analysis import (
    SweepSpec,
    SweepVariable,
    arrhenius_sweep,
    barrier_sweep,
    effective_activation_energy,
    fit_lambda_eff,
    tafel_sweep,
)
from etkit.barriers import BarrierMethod, ExactAdiabat, barrier, exact_adiabat
from etkit.model import (
    ConstantCoupling,
    DiabaticSystem,
    LinearCoupling,
    PolynomialCoupling,
)
from etkit.rates import (
    ElectrodeConditions,
    PrefactorKind,
    closed_form_rates,
    mhc_rate_closed_form,
)

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

    @pytest.mark.parametrize("start, stop", [(-1.0, math.inf), (math.nan, 0.5)])
    def test_rejects_non_finite_bounds(self, start, stop):
        with pytest.raises(ValueError, match="finite"):
            spec(SweepVariable.ETA_F, start, stop, 5)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            spec(SweepVariable.DG0, 0.0, 1.0, 1)

    def test_grid_is_sorted_even_for_reversed_bounds(self):
        s = spec(SweepVariable.DG0, 1.0, -1.0, 5)
        g = s.grid()
        assert list(g) == sorted(g)

    def test_rejects_no_methods(self):
        with pytest.raises(ValueError, match="^sweep needs at least one method$"):
            spec(SweepVariable.DG0, 0.0, 1.0, 5, methods=())


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

    @pytest.mark.parametrize(
        "c, swept",
        [
            (LinearCoupling(0.5, 0.9), lambda x: LinearCoupling(x, 0.9)),
            (
                PolynomialCoupling((0.5, 0.3, -0.2)),
                lambda x: PolynomialCoupling((x, 0.3, -0.2)),
            ),
        ],
        ids=["linear", "polynomial"],
    )
    def test_coupling_sweep_keeps_the_other_coefficients(self, c, swept):
        # the swept scalar replaces v0 (the constant coefficient) only
        sys = DiabaticSystem(4.0, -0.3)
        t = barrier_sweep(
            SweepSpec(
                variable=SweepVariable.COUPLING_SCALAR, start=0.1, stop=0.4,
                n=4, system=sys, coupling=c,
                methods=(BarrierMethod.EFFECTIVE_LAMBDA,),
            )
        )
        for x, e in zip(t.column("V_eV"), t.column("Estar_eff_eV")):
            want = barrier(sys, swept(x), BarrierMethod.EFFECTIVE_LAMBDA).e_star
            assert e == want

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

    def test_dg0_sweep_builds_one_exact_set_up(self, monkeypatch):
        # every row shares (lam, c), so every row's barrier() call reuses
        # the ExactAdiabat that barriers.exact_adiabat keeps for the pair
        built = []
        init = ExactAdiabat.__init__

        def counting_init(self, lam, c):
            built.append(lam)
            init(self, lam, c)

        monkeypatch.setattr(ExactAdiabat, "__init__", counting_init)
        exact_adiabat.cache_clear()
        t = barrier_sweep(
            spec(SweepVariable.DG0, -1.0, 0.5, 33,
                 methods=(BarrierMethod.EXACT_ADIABAT,))
        )
        assert len(t.rows) == 33 and not t.warnings
        assert built == [4.0]

    def test_coupling_scalar_of_a_non_coupling_raises(self):
        # no EtkitError: a TypeError is no empty cell, it ends the sweep
        s = SweepSpec(
            SweepVariable.COUPLING_SCALAR, 0.1, 0.5, 3, DiabaticSystem(4.0, 0.0),
            "const:0.5", (BarrierMethod.MARCUS,),
        )
        with pytest.raises(TypeError, match="^not a coupling model: 'const:0.5'$"):
            barrier_sweep(s)


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

    def test_zero_rate_leaves_empty_cell_and_warns(self):
        # at 68 K and lam_eff = 18.05 eV the closed form underflows to 0
        # for eta above about -0.5 V
        cond = ElectrodeConditions(68.0, 0.0, 1.0)
        t = tafel_sweep(
            spec(SweepVariable.ETA_F, -1.0, 0.5, 7, lam=20.0,
                 methods=(BarrierMethod.EFFECTIVE_LAMBDA,), conditions=cond)
        )
        col = t.column("log10k_eff")
        assert np.isfinite(col[:3]).all() and np.isnan(col[3:]).all()
        assert t.warnings == [
            f"eff failed at eta_f_V={eta:.6g}: rate is zero; log undefined"
            for eta in t.column("eta_f_V")[3:]
        ]

    def test_reads_neither_the_prefactor_nor_the_swept_eta(self):
        # each column sets its own prefactor (golden-rule for marcus, kT/h
        # otherwise) and its own eta_f
        def rows(cond):
            return tafel_sweep(spec(SweepVariable.ETA_F, -0.5, 0.0, 3, conditions=cond)).rows

        ref = rows(ElectrodeConditions(300.0, 0.0, 1.0, PrefactorKind.NON_ADIABATIC))
        assert rows(ElectrodeConditions(300.0, 0.0, 1.0, PrefactorKind.ADIABATIC)) == ref
        assert rows(ElectrodeConditions(300.0, 0.3, 1.0, PrefactorKind.NON_ADIABATIC)) == ref

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
        assert ea == pytest.approx(0.5625, rel=0.15, abs=0)

    @pytest.mark.parametrize("start", [-1.0 / 300.0, 0.0])
    def test_rejects_non_positive_inverse_temperature(self, start):
        # the eff column builds no ElectrodeConditions per point to catch
        # T <= 0 or T = inf
        cond = ElectrodeConditions(300.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="must be positive"):
            arrhenius_sweep(
                spec(SweepVariable.INV_TEMPERATURE, start, 1.0 / 300.0, 2,
                     methods=(BarrierMethod.EFFECTIVE_LAMBDA,),
                     conditions=cond)
            )

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

    def test_rejects_a_single_temperature(self):
        # no slope: np.polyfit would return one from a rank-deficient fit
        with pytest.raises(ValueError, match="distinct temperatures"):
            effective_activation_energy([1 / 300.0] * 4, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="distinct temperatures"):
            effective_activation_energy(
                [1 / 300.0, 1 / 300.0, 1 / 300.0, math.nan], [1.0, 2.0, 3.0, 4.0]
            )


def synthetic(lam_eff, offset, n=31, T=300.0, rho=1.0):
    # log10 of the closed form plus offset, on eta in [-0.8, 0.4]
    eta = np.linspace(-0.8, 0.4, n)
    y = np.array(
        [
            math.log10(
                mhc_rate_closed_form(
                    lam_eff, ElectrodeConditions(T, float(e), rho)
                )
            )
            + offset
            for e in eta
        ]
    )
    return eta, y


class TestFitLambdaEff:
    def test_self_consistent_recovery(self):
        eta, y = synthetic(1.0, 3.5)
        res = fit_lambda_eff(eta, y, 300.0)
        assert res.converged
        assert res.lambda_eff == pytest.approx(1.0, abs=1e-6)
        assert res.log10_scale == pytest.approx(3.5, abs=1e-8)
        assert res.rms_residual < 1e-8
        assert res.n_points == len(eta)

    def test_recovery_with_noise(self):
        rng = np.random.default_rng(42)
        eta, y = synthetic(2.25, -1.0)
        y = y + rng.normal(0.0, 0.02, size=len(y))
        res = fit_lambda_eff(eta, y, 300.0)
        assert res.converged
        assert res.lambda_eff == pytest.approx(2.25, rel=0.1, abs=0)
        assert res.rms_residual < 0.05

    def test_degenerate_data_flagged_unconverged(self):
        eta = np.linspace(-0.5, 0.5, 11)
        y = np.zeros_like(eta)
        res = fit_lambda_eff(eta, y, 300.0)
        assert not res.converged

    def test_drops_non_finite_and_counts_rest(self):
        eta, y = synthetic(1.0, 0.0, n=12)
        y[3] = math.nan
        res = fit_lambda_eff(eta, y, 300.0)
        assert res.n_points == 11
        assert res.lambda_eff == pytest.approx(1.0, abs=1e-6)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            fit_lambda_eff([0.0, 0.1, 0.2], [1.0, 2.0, 3.0], 300.0)

    @pytest.mark.parametrize(
        "T, rho, match",
        [
            (math.nan, 1.0, "temperature"),
            (0.0, 1.0, "temperature"),
            (-300.0, 1.0, "temperature"),
            (300.0, -1.0, "rho"),
            (300.0, 0.0, "rho"),
            (300.0, math.inf, "rho"),
            # 1/(k_B T) divided by zero at 5e-324 K and overflowed at 1e-310 K
            (5e-324, 1.0, "temperature"),
            (1e-310, 1.0, "temperature"),
        ],
    )
    def test_rejects_bad_temperature_or_rho(self, T, rho, match):
        eta, y = synthetic(1.0, 0.0)
        with pytest.raises(ValueError, match=f"{match} must be positive"):
            fit_lambda_eff(eta, y, T, rho)

    def test_underflowing_rate_raises(self):
        # at 20 K the closed form underflows to 0 for large lambda_eff;
        # its log10 must not reach the scan's argmin as -inf
        eta = np.linspace(-0.5, 0.2, 11)
        with pytest.raises(ValueError, match="underflows"):
            fit_lambda_eff(eta, -8.0 * eta, 20.0)


class TestFitTraffic:
    # 24 noisy and clean closed-form Tafel lines drawn as in
    # tests/fit_traffic.py (lam_eff 0.06-9 eV, 200-400 K, 8-61 points,
    # noise 0-0.2 dex); the seed gives one line whose best scan point is
    # at an edge
    @pytest.mark.parametrize(
        "lam, T, eta, y", draws(24, seed=5), ids=[f"draw{k}" for k in range(24)]
    )
    def test_against_scan_rule_and_scipy_oracle(self, lam, T, eta, y):
        res = fit_lambda_eff(eta, y, T)
        # converged exactly when the best of the 200 scan points is
        # interior (no line here is flat)
        grid = np.geomspace(0.05, 10.0, 200)
        r = log10_closed_form(grid[:, None], eta, T) - y
        i = int(np.argmin(np.std(r, axis=1)))
        assert res.converged == (0 < i < len(grid) - 1)
        if res.converged:
            ref = fit_closed_form(eta, y, T)
            r = log10_closed_form(ref, eta, T) - y
            assert res.rms_residual <= np.std(r) + 1e-12


# lines of tests/fit_traffic.py's draws(3000, seed=11) on which the values
# at every 8th grid point and both ends have two local minima: both inside
# the grid on 80 and 140, both at its ends on 1016, one inside and one at
# the 10 eV end on the others. On 442 a fine pass around the best coarse
# point only would miss the best grid point at a coarse step of 12
TWO_MINIMA = (80, 140, 255, 442, 1016, 1101, 2064)
TWO_MINIMA_LINES = draws(max(TWO_MINIMA) + 1, seed=11)


class TestCoarseToFineScan:
    GRID = np.geomspace(0.05, 10.0, 200)

    @staticmethod
    def scan_candidates(monkeypatch, eta, y, T):
        # fit_lambda_eff's result and the lam_eff candidates of its first
        # two objective calls: the scan
        calls = []
        monkeypatch.setattr(etkit.analysis, "closed_form_model", counting_model(calls))
        res = fit_lambda_eff(eta, y, T)
        assert len(calls) >= 2
        return res, np.concatenate([lam for lam, _ in calls[:2]])

    @pytest.mark.parametrize(
        "k", TWO_MINIMA, ids=[f"draw{k}" for k in TWO_MINIMA]
    )
    def test_lines_with_two_coarse_minima(self, monkeypatch, k):
        _, T, eta, y = TWO_MINIMA_LINES[k]
        res, scanned = self.scan_candidates(monkeypatch, eta, y, T)
        grid = self.GRID
        v = np.std(log10_closed_form(grid[:, None], eta, T) - y, axis=1)
        i = int(np.argmin(v))
        assert res.converged == (0 < i < len(grid) - 1)
        if res.converged:
            assert grid[i - 1] < res.lambda_eff < grid[i + 1]
        # the fine pass covers the 7 grid points either side of both
        # coarse local minima
        coarse = np.r_[0:199:8, 199]
        c = np.r_[np.inf, v[coarse], np.inf]
        minima = coarse[(c[1:-1] <= c[:-2]) & (c[1:-1] <= c[2:])]
        assert len(minima) == 2
        for m in minima:
            assert np.isin(grid[max(m - 7, 0) : m + 8], scanned).all()

    @pytest.mark.parametrize(
        "k", TWO_MINIMA, ids=[f"draw{k}" for k in TWO_MINIMA]
    )
    def test_scan_evaluates_at_most_60_candidates(self, monkeypatch, k):
        _, T, eta, y = TWO_MINIMA_LINES[k]
        _, scanned = self.scan_candidates(monkeypatch, eta, y, T)
        assert len(np.unique(scanned)) == len(scanned) <= 60
        assert np.isin(scanned, self.GRID).all()

    def test_underflow_at_the_10_ev_end_only_raises(self):
        # bisect T to where the rate underflows on the 10 eV end of the
        # grid only: the coarse pass holds both ends, so the fit still
        # raises as a scan of the whole grid does
        eta = np.linspace(-0.5, 0.2, 11)

        def underflows(lam_eff, T):
            return not np.all(closed_form_rates(lam_eff, eta, T, 1.0) > 0.0)

        lo, hi = 20.0, 45.0
        assert underflows(10.0, lo) and not underflows(10.0, hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if underflows(10.0, mid) else (lo, mid)
        assert underflows(self.GRID[-1], lo)
        assert not underflows(self.GRID[:-1, None], lo)
        with pytest.raises(ValueError, match="underflows"):
            fit_lambda_eff(eta, -8.0 * eta, lo)


def exact_tafel_line(coupling):
    # criterion 10's data: exact-route Tafel line at lam = 4, 300 K
    t = tafel_sweep(
        SweepSpec(
            variable=SweepVariable.ETA_F, start=-1.0, stop=0.5, n=31,
            system=DiabaticSystem(4.0, 0.0), coupling=coupling,
            methods=(BarrierMethod.EXACT_ADIABAT,),
            conditions=ElectrodeConditions(300.0, 0.0, 1.0),
        )
    )
    return t.column("eta_f_V"), t.column("log10k_exact")


CLEAN_LINES = (0.3, 1.0, 2.25, 6.0)
NOISY_LINES = ((0.6, 1), (2.25, 2), (4.5, 3))


class TestFitAgainstScipyOracle:
    # reference.fit_closed_form: the same least-squares
    # objective with scipy's erfc, minimized by scipy's Brent
    def check(self, eta, y, T=300.0, rho=1.0):
        res = fit_lambda_eff(eta, y, T, rho)
        assert res.converged
        ref = fit_closed_form(eta, y, T, rho)
        assert res.lambda_eff == pytest.approx(ref, rel=1e-7, abs=0)

    @staticmethod
    def clean_line(lam_eff):
        return synthetic(lam_eff, 1.5)

    @staticmethod
    def noisy_line(lam_eff, seed):
        eta, y = synthetic(lam_eff, -0.5)
        return eta, y + np.random.default_rng(seed).normal(0.0, 0.05, size=len(y))

    @pytest.mark.parametrize("lam_eff", CLEAN_LINES)
    def test_clean_lines(self, lam_eff):
        self.check(*self.clean_line(lam_eff))

    @pytest.mark.parametrize("lam_eff, seed", NOISY_LINES)
    def test_noisy_lines(self, lam_eff, seed):
        self.check(*self.noisy_line(lam_eff, seed))

    def test_refinement_calls(self, monkeypatch):
        # objective calls after the two calls of the scan on the seven
        # lines above: a zoom to the same width by 9 evenly spaced points
        # per call makes 11-13 each (83 in all). The last steps of a noisy line run where the mean
        # squared residuals differ by rounding only, so its count moves
        # by a few calls under ulp-sized changes of the data (6-10 for
        # the 4.5 eV line); the bound is on their mean, not on each line
        calls = []
        monkeypatch.setattr(etkit.analysis, "closed_form_model", counting_model(calls))
        counts = []
        lines = [self.clean_line(lam) for lam in CLEAN_LINES]
        lines += [self.noisy_line(*a) for a in NOISY_LINES]
        for eta, y in lines:
            calls.clear()
            assert fit_lambda_eff(eta, y, 300.0).converged
            # the scan's two calls and at least one refinement step: a
            # counter that counts nothing fails here
            assert len(calls) >= 3
            counts.append(len(calls) - 2)
        assert sum(counts) <= 8 * len(counts)
        assert np.median(counts) <= 5

    def test_other_temperature_and_rho(self):
        eta, y = synthetic(1.7, 0.0, n=25, T=380.0, rho=2.5)
        self.check(eta, y, 380.0, 2.5)

    @pytest.mark.parametrize(
        "coupling",
        [ConstantCoupling(0.5), LinearCoupling(0.1, 0.5),
         LinearCoupling(0.2, 1.0), LinearCoupling(0.6, 1.0)],
    )
    def test_criterion_10_exact_route_data(self, coupling):
        self.check(*exact_tafel_line(coupling))
