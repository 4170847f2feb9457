import math

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pin_oracles import trapezoid_marcus_rate

from etkit import numerics
from etkit.barriers import BARRIER, BarrierMethod, ExactAdiabat, exact_adiabat
from etkit.constants import H, K_B, beta
from etkit.errors import (
    AccuracyError,
    NumericalDomainError,
    SingularRegimeError,
    SurfaceTopologyError,
)
from etkit.model import (
    ConstantCoupling,
    DiabaticSystem,
    LinearCoupling,
    PolynomialCoupling,
    coupling_eval,
)
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

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -300.0])
    def test_beta_rejects_non_finite_or_non_positive_temperature(self, T):
        # NaN and inf used to pass (nan <= 0 is False) and give NaN rates
        with pytest.raises(ValueError, match="temperature must be positive"):
            beta(T)
        with pytest.raises(ValueError):
            fermi_dirac(0.1, T)
        for kind in PrefactorKind:
            with pytest.raises(ValueError):
                prefactor(kind, DiabaticSystem(4.0, 0.0), 0.5, T)


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


# rate_quadrature benchmark draws (by seed) where the Marcus-form routes
# missed their reference under the adaptive Simpson rule, whose tolerance
# came from a 3-point estimate: (method, lam, coupling, eta, T, reference
# rate)
SIMPSON_MISSES = {
    "seed9-shift": (
        BarrierMethod.CONSTANT_SHIFT, 4.987393786768216,
        ConstantCoupling(0.8657449674903248), -0.7091994146215426,
        326.0451677699748, 96160448079.33624,
    ),
    "seed23-marcus": (
        BarrierMethod.MARCUS, 1.6147784929441418,
        ConstantCoupling(0.36463512505694845), 0.2509835905651894,
        330.0927766164205, 869714.5738874798,
    ),
    "seed29-marcus": (
        BarrierMethod.MARCUS, 5.614551751943742,
        ConstantCoupling(0.1490207551181033), -0.8142365587061964,
        334.16248229351777, 0.00456836977034392,
    ),
    "seed31-shift": (
        BarrierMethod.CONSTANT_SHIFT, 5.833403837751577,
        LinearCoupling(1.0952252430097615, 0.2954020406038367),
        -0.465601643373039, 307.68999384029644, 774.3825332476132,
    ),
    "seed41-shift": (
        BarrierMethod.CONSTANT_SHIFT, 4.934039222681077,
        LinearCoupling(0.8822905997806554, 0.6369453364255224),
        0.2991493573574129, 251.37025045842665, 0.0908518757422947,
    ),
    "seed51-eff": (
        BarrierMethod.EFFECTIVE_LAMBDA, 3.693216419123336,
        ConstantCoupling(0.8869725901334131), -0.07178832899397103,
        270.9075037674606, 39956709.35237677,
    ),
    "seed57-marcus": (
        BarrierMethod.MARCUS, 4.116524280021344,
        ConstantCoupling(0.3068835409718904), -0.6626205688273357,
        252.53182312525075, 0.2051788737091294,
    ),
    "seed62-eff": (
        BarrierMethod.EFFECTIVE_LAMBDA, 1.5952748353180757,
        ConstantCoupling(0.05972115900560545), 0.03583627662238342,
        256.87664853538206, 31770.67698727278,
    ),
}


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

    @pytest.mark.parametrize(
        "method, lam, c, eta, T, pin",
        [
            pytest.param(*case, id=name)
            for name, case in SIMPSON_MISSES.items()
        ],
    )
    def test_marcus_form_routes_vs_dense_trapezoid(
        self, method, lam, c, eta, T, pin
    ):
        # the draws of the rate_quadrature benchmark workload that missed its
        # dense-trapezoid reference by more than 1e-6; pin is that
        # reference. Each barrier is the Marcus one at some lam, minus a
        # constant, so the rate is a Marcus-route integral times a factor
        kind = PrefactorKind.NON_ADIABATIC
        if method is not BarrierMethod.MARCUS:
            kind = PrefactorKind.ADIABATIC
        s = DiabaticSystem(lam, 0.0)
        v_half = coupling_eval(c, 0.5)
        factor = prefactor(kind, s, v_half, T) / (K_B * T / H)
        if method is BarrierMethod.CONSTANT_SHIFT:
            factor *= math.exp(beta(T) * v_half)
        if method is BarrierMethod.EFFECTIVE_LAMBDA:
            lam = lam * (1.0 - 2.0 * c.v / lam) ** 2  # Condon lam_eff
        ref = trapezoid_marcus_rate(lam, T, eta) * factor
        assert ref == pytest.approx(pin, rel=1e-12)
        req = RateRequest(s, c, ElectrodeConditions(T, eta, 1.0, kind), method)
        assert mhc_rate_numeric(req) == pytest.approx(ref, rel=1e-6)


MARCUS_FORM = (
    BarrierMethod.MARCUS,
    BarrierMethod.CONSTANT_SHIFT,
    BarrierMethod.EFFECTIVE_LAMBDA,
)


class TestTailBound:
    # a Marcus-form rate integrates one window and bounds the mass outside
    # it in closed form

    def test_narrow_open_channel_raises_naming_the_bound(self):
        # Condon lam_eff = 1e-4 eV: the channel is 3e-3 eV wide and the
        # quadrature's first nodes miss it, so the window's integral
        # underflows to 0; the closed form puts the rate near 3.6e10 1/s
        cond = ElectrodeConditions(300.0, -0.3)
        closed = mhc_rate_closed_form(
            effective_lambda_overpotential(
                DiabaticSystem(4.0, 0.0), ConstantCoupling(1.99), -0.3
            ),
            cond,
        )
        assert closed == pytest.approx(3.6e10, rel=0.02)
        with pytest.raises(AccuracyError, match="^tail bound .* exceeds 1e-09 of"):
            adiabatic_rate(4.0, (1.99,), 300.0, -0.3, BarrierMethod.EFFECTIVE_LAMBDA)

    def test_channel_closed_everywhere_raises_with_zero(self):
        # V = lam/2 makes lam_eff = 0 at every driving force: the window's
        # integral is 0, which no tail bound can certify
        with pytest.raises(AccuracyError, match="^tail bound") as err:
            adiabatic_rate(4.0, (2.0,), 300.0, -0.3, BarrierMethod.EFFECTIVE_LAMBDA)
        assert err.value.best_estimate == 0.0

    def test_channel_missed_by_every_node_raises_with_zero(self):
        # Condon lam_eff = 5e-3 eV: the channel is 0.04 eV wide, no node of
        # the first two Simpson sums sees it, and at 220 K the tail bound
        # underflows to 0 as well; the closed form puts the rate near
        # 1.6e11 1/s
        cond = ElectrodeConditions(220.0, -0.9)
        closed = mhc_rate_closed_form(
            effective_lambda_overpotential(
                DiabaticSystem(8.0, 0.0), ConstantCoupling(3.9), -0.9
            ),
            cond,
        )
        assert closed == pytest.approx(1.6e11, rel=0.02)
        with pytest.raises(AccuracyError, match="integral is 0$") as err:
            adiabatic_rate(8.0, (3.9,), 220.0, -0.9, BarrierMethod.EFFECTIVE_LAMBDA)
        assert err.value.best_estimate == 0.0

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        method=st.sampled_from(MARCUS_FORM),
        lam=st.floats(1.0, 6.0),
        shape=st.one_of(
            st.tuples(st.floats(0.02, 0.25)),
            st.builds(
                lambda f0, f1: (f0, f1 - f0),
                st.floats(0.02, 0.25), st.floats(0.02, 0.25),
            ),
        ),
        T=st.floats(250.0, 350.0),
        eta=st.floats(-1.0, 0.5),
    )
    # the adaptive Simpson rule gave up on this eff-route rate
    # (MAX_LEVEL_NODES)
    @example(
        method=BarrierMethod.EFFECTIVE_LAMBDA, lam=1.0, shape=(0.25,), T=250.0,
        eta=-1.0,
    )
    def test_bound_holds_on_the_benchmark_ranges(self, method, lam, shape, T, eta):
        # rate_quadrature's draws: constant V = f*lam, or linear from
        # f0*lam at q = 0 to f1*lam at q = 1; neither the quadrature nor
        # the tail bound may give up on them
        coeffs = tuple(f * lam for f in shape)
        k = adiabatic_rate(lam, coeffs, T, eta, method)
        assert math.isfinite(k) and k > 0.0

    @pytest.mark.parametrize("method", MARCUS_FORM)
    def test_one_quadrature_per_rate(self, monkeypatch, method):
        calls = []
        integrate = numerics.integrate

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(numerics, "integrate", counted)
        for eta in (-0.6, 0.2):
            adiabatic_rate(4.0, (0.6, 0.4), 300.0, eta, method)
        w = [2.0 * 4.0 + abs(eta) + 40.0 * K_B * 300.0 for eta in (-0.6, 0.2)]
        assert calls == [(-w[0], w[0]), (-w[1], w[1])]


def exact_rate(lam, coeffs, T, eta):
    return mhc_rate_numeric(
        RateRequest(
            DiabaticSystem(lam, 0.0), PolynomialCoupling(tuple(coeffs)),
            ElectrodeConditions(T, eta, 1.0), BarrierMethod.EXACT_ADIABAT,
        )
    )


def counted_barriers(monkeypatch):
    """The sizes of the level-shift arrays that ExactAdiabat.barriers is
    called with from now on, in order."""
    calls = []
    barriers = ExactAdiabat.barriers

    def counted(self, dg):
        calls.append(np.size(dg))
        return barriers(self, dg)

    monkeypatch.setattr(ExactAdiabat, "barriers", counted)
    return calls


class TestExactRouteFixedRule:
    # tests/pin_oracles.py::quad_exact_rate: scipy's adaptive quad over
    # eps at epsrel 1e-12, cut at the fold shifts bisected on the topology
    # flags of the scalar barrier and at the kinks from the roots of V
    @pytest.mark.parametrize(
        "lam, coeffs, T, eta, pin",
        [
            # the adaptive route took seconds here: the product well
            # vanishes at a level shift where E* is about 0.65 eV
            (4.0, (0.6, 0.4), 400.0, 0.4, 912940.7991629516),
            # V crosses 0 at q = 1/2: E*(dg) has a kink at dg = 0
            (4.0, (0.2, -0.4), 300.0, -0.3, 0.0024867253378102866),
            (4.0, (0.2, -0.4), 300.0, 0.0, 6.070179310991449e-06),
            (4.0, (0.2, -0.4), 300.0, -0.6, 0.7392744921296626),
            # and at q = 0.3: a kink at dg = -1.6; without that cut the
            # rule is 2.4e-5 off
            (4.0, (0.15, -0.5), 300.0, -1.5, 163680.95376436974),
            # zero coupling, and one below the kink threshold of 1e-12 eV
            (4.0, (0.0,), 300.0, -0.3, 0.0021274090970449786),
            (4.0, (1e-13,), 300.0, -0.3, 0.002127409097053191),
            (2.0, (0.0,), 300.0, -0.2, 78274.95700481138),
            (2.0, (1e-13,), 300.0, -0.2, 78274.95700511338),
        ],
    )
    def test_against_quad_pins(self, lam, coeffs, T, eta, pin):
        assert exact_rate(lam, coeffs, T, eta) == pytest.approx(pin, rel=1e-9)

    @pytest.mark.parametrize(
        "lam, T, eta",
        [
            (4.0, 300.0, -0.3),
            (2.0, 300.0, -0.2),
            # a Condon V of 1e-11 to 1e-9 eV lost the fold near +lam: these
            # rates were 0.0024x, 0.5x and 5.2e-8x the V = 0 rate
            (4.0, 300.0, 0.3),
            (1.0, 300.0, 0.0),
            (5.682799372390694, 206.81005578940753, 0.6147252661126439),
        ],
        ids=["4.0--0.3", "2.0--0.2", "4.0-0.3", "1.0-0.0", "5.68-206.8K-0.61"],
    )
    def test_zero_coupling_is_the_marcus_route(self, lam, T, eta):
        # as ratios: approx's absolute 1e-12 would pass any rate of 1e-32
        ref = trapezoid_marcus_rate(lam, T, eta)
        for v in (0.0, 1e-13):
            assert exact_rate(lam, (v,), T, eta) / ref == pytest.approx(1.0, rel=1e-9)
        # E* moves by about V, so the rate by about V/kT
        for v in (1e-11, 1e-10, 1e-9, 1e-8):
            assert exact_rate(lam, (v,), T, eta) / ref == pytest.approx(1.0, rel=1e-5)

    def test_no_adaptive_quadrature(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the exact route called numerics.integrate")

        monkeypatch.setattr(numerics, "integrate", refuse)
        assert exact_rate(4.0, (0.5,), 300.0, -0.3) > 0.0

    @pytest.mark.parametrize(
        "lam, coeffs, eta",
        [(4.0, (0.5,), -0.3), (4.0, (0.6, 0.4), 0.4), (4.0, (0.2, -0.4), -0.3)],
    )
    def test_seeded_pieces_solve_no_eigenvalues(self, monkeypatch, lam, coeffs, eta):
        # on a warm cache the nodes of a seeded piece take Newton's method
        # from the seeds, not ExactAdiabat.barriers
        exact_rate(lam, coeffs, 300.0, eta)
        assert exact_adiabat(lam, PolynomialCoupling(coeffs)).seeds[1].all()
        calls = counted_barriers(monkeypatch)
        assert exact_rate(lam, coeffs, 300.0, eta) > 0.0
        assert calls == []

    @pytest.mark.parametrize(
        "lam, coeffs, eta, pin",
        [
            (4.0, (0.0,), -0.3, 0.0021274090970449786),
            (4.0, (1e-13,), -0.3, 0.002127409097053191),
            (2.0, (0.0,), -0.2, 78274.95700481138),
            (2.0, (1e-13,), -0.2, 78274.95700511338),
        ],
    )
    def test_kink_pieces_fall_back_to_barriers(self, monkeypatch, lam, coeffs, eta, pin):
        # V = 0 at the diabatic crossing: the transition state is a kink,
        # no root of F, so no barrier piece is seeded and all their nodes
        # go to one ExactAdiabat.barriers call (the quad pins above)
        exact_rate(lam, coeffs, 300.0, eta)
        adiabat = exact_adiabat(lam, PolynomialCoupling(coeffs))
        assert not adiabat.seeds[1].any()
        pieces = np.count_nonzero(adiabat.pieces[2] == BARRIER)
        calls = counted_barriers(monkeypatch)
        assert exact_rate(lam, coeffs, 300.0, eta) == pytest.approx(pin, rel=1e-9)
        assert calls == [pieces * 2 * 128]

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        lam=st.floats(1.0, 6.0),
        shape=st.one_of(
            st.tuples(st.floats(0.02, 0.25)),
            st.tuples(st.floats(0.02, 0.25), st.floats(-0.2, 0.2)),
            st.tuples(st.floats(0.02, 0.2), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
        ),
        T=st.floats(250.0, 400.0),
        eta=st.floats(-1.0, 0.5),
    )
    def test_seeded_rate_equals_the_eigenvalue_rate(self, lam, shape, T, eta):
        # the same rate with every piece forced onto ExactAdiabat.barriers
        coeffs = tuple(f * lam for f in shape)
        seeded = exact_rate(lam, coeffs, T, eta)

        def refuse(self, t, dg):
            return np.full(np.shape(dg), np.nan), np.zeros(len(dg), dtype=bool)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExactAdiabat, "seeded_barriers", refuse)
            assert seeded / exact_rate(lam, coeffs, T, eta) == pytest.approx(1.0, rel=1e-12)

    def test_unbounded_barrier_piece_raises(self, monkeypatch):
        def open_ended(self):
            return np.array([-np.inf]), np.array([np.inf]), np.array([BARRIER])

        monkeypatch.setattr(ExactAdiabat, "pieces", property(open_ended))
        with pytest.raises(SurfaceTopologyError):
            exact_rate(4.0, (0.5,), 300.0, -0.3)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        lam=st.floats(1.0, 6.0),
        shape=st.one_of(
            st.tuples(st.floats(0.02, 0.25), st.floats(-0.2, 0.2)),
            st.tuples(st.floats(0.02, 0.2), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
        ),
        T=st.floats(250.0, 400.0),
    )
    def test_tafel_branch_monotone_in_eta(self, lam, shape, T):
        # the reduction rate grows with the cathodic driving -eta
        coeffs = tuple(f * lam for f in shape)
        ks = [exact_rate(lam, coeffs, T, eta) for eta in np.linspace(-1.0, 0.5, 7)]
        assert all(a > b for a, b in zip(ks, ks[1:]))


class TestExactAdiabatCache:
    # every exact rate of a (lam, coupling) uses the one ExactAdiabat that
    # barriers.exact_adiabat keeps for the pair: its fold points and
    # pieces do not depend on eta or T

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        lam=st.floats(1.0, 6.0),
        shape=st.one_of(
            st.tuples(st.floats(0.02, 0.25)),
            st.tuples(st.floats(0.02, 0.25), st.floats(-0.2, 0.2)),
            st.tuples(st.floats(0.02, 0.2), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
        ),
        points=st.lists(
            st.tuples(st.floats(-1.0, 0.5), st.floats(250.0, 400.0)),
            min_size=2, max_size=4,
        ),
    )
    def test_warm_cache_rates_equal_cold_cache_rates(self, lam, shape, points):
        # one adiabat serves every (eta, T) of a (lam, c)
        v = [f * lam for f in shape]
        if len(v) == 1:
            c = ConstantCoupling(v[0])
        elif len(v) == 2:
            c = LinearCoupling(v[0], v[0] + v[1])
        else:
            c = PolynomialCoupling(tuple(v))

        def rate(eta, T):
            return mhc_rate_numeric(
                RateRequest(
                    DiabaticSystem(lam, 0.0), c, ElectrodeConditions(T, eta, 1.0),
                    BarrierMethod.EXACT_ADIABAT,
                )
            )

        cold = []
        for point in points:
            exact_adiabat.cache_clear()
            cold.append(rate(*point))
        assert [rate(*point) for point in points] == cold

    @pytest.mark.parametrize(
        "a, b",
        [
            (ConstantCoupling(0.5), PolynomialCoupling((0.5,))),
            (LinearCoupling(0.6, 1.0), PolynomialCoupling((0.6, 1.0 - 0.6))),
        ],
    )
    def test_equal_valued_couplings_of_other_types(self, a, b):
        # distinct keys (the dataclasses compare unequal), equal rates
        assert a != b
        assert exact_adiabat(4.0, a) is not exact_adiabat(4.0, b)
        for eta in (-0.6, -0.3, 0.2):
            k = [
                mhc_rate_numeric(
                    RateRequest(
                        DiabaticSystem(4.0, 0.0), c, ElectrodeConditions(300.0, eta),
                        BarrierMethod.EXACT_ADIABAT,
                    )
                )
                for c in (a, b)
            ]
            assert k[0] == k[1]


def adiabatic_rate(lam, coeffs, T, eta, method):
    return mhc_rate_numeric(
        RateRequest(
            DiabaticSystem(lam, 0.0), PolynomialCoupling(tuple(coeffs)),
            ElectrodeConditions(T, eta, 1.0, PrefactorKind.ADIABATIC), method,
        )
    )


class TestMarcusFormRouteProperties:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        lam=st.floats(0.5, 8.0),
        coeffs=st.one_of(
            st.just((0.0,)),
            st.tuples(st.floats(-1e-12, 1e-12)),
            st.tuples(st.floats(-1e-12, 1e-12), st.floats(-1e-12, 1e-12)),
        ),
        T=st.floats(250.0, 400.0),
        eta=st.floats(-1.0, 0.5),
    )
    def test_zero_coupling_is_the_marcus_route(self, lam, coeffs, T, eta):
        ref = adiabatic_rate(lam, (0.0,), T, eta, BarrierMethod.MARCUS)
        for method in (BarrierMethod.CONSTANT_SHIFT, BarrierMethod.EFFECTIVE_LAMBDA):
            got = adiabatic_rate(lam, coeffs, T, eta, method)
            assert got == pytest.approx(ref, rel=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        lam=st.floats(1.0, 6.0),
        shape=st.one_of(
            st.tuples(st.floats(0.0, 0.1)),
            st.builds(
                lambda f0, f1: (f0, f1 - f0), st.floats(0.0, 0.1), st.floats(0.0, 0.1)
            ),
        ),
        T=st.floats(250.0, 400.0),
    )
    def test_tafel_branch_monotone_in_eta(self, lam, shape, T):
        # the reduction rate grows with the cathodic driving -eta; with
        # |V| <= 0.1*lam on q in [0, 1], lam_eff >= 0.6 eV > |eta|, so
        # every eta is on the activated branch, and 0.2 V steps change the
        # rate far more than the quadrature error
        coeffs = tuple(f * lam for f in shape)
        for method in (
            BarrierMethod.MARCUS,
            BarrierMethod.CONSTANT_SHIFT,
            BarrierMethod.EFFECTIVE_LAMBDA,
        ):
            ks = [
                adiabatic_rate(lam, coeffs, T, eta, method)
                for eta in np.linspace(-0.5, 0.5, 6)
            ]
            assert all(a > b for a, b in zip(ks, ks[1:])), method


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

    def test_temperature_array_equals_scalar_form(self):
        # the arrhenius eff column: one eta, one temperature per point
        T = np.array([250.0, 300.0, 350.0])
        got = closed_form_rates(np.array([0.9, 2.25, 4.0]), -0.3, T, 1.5)
        for k, lam, t in zip(got, (0.9, 2.25, 4.0), T):
            want = mhc_rate_closed_form(lam, ElectrodeConditions(t, -0.3, 1.5))
            assert k == want

    def test_nan_lambda_raises_domain_error(self):
        message = "^erfc requires finite x, got nan$"
        with pytest.raises(NumericalDomainError, match=message):
            mhc_rate_closed_form(math.nan, ElectrodeConditions(300.0, 0.0))
        with pytest.raises(NumericalDomainError, match=message):
            closed_form_rates([1.0, math.nan], 0.0, 300.0, 1.0)
        with pytest.raises(SingularRegimeError):
            closed_form_rates([1.0, 0.0], 0.0, 300.0, 1.0)

    def test_infinite_lambda_raises_domain_error(self):
        # inf - inf in the erfc argument is NaN: the error, not a warning
        message = "^erfc requires finite x, got nan$"
        with pytest.raises(NumericalDomainError, match=message):
            mhc_rate_closed_form(math.inf, ElectrodeConditions(300.0, 0.0))
        with pytest.raises(NumericalDomainError, match=message):
            closed_form_rates([1.0, math.inf], -0.3, 300.0, 1.0)


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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -4.0, 0.0])
    def test_rejects_non_finite_or_non_positive_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            extract_coupling(lam, 1.0)
