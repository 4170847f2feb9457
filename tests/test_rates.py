import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pin_oracles import EXACT_QUAD_CASES, NARROW_EFF_CASES, SHIFT_OVERFLOW_CASE
from reference import exact_rate as reference_exact_rate
from reference import log10_closed_form, marcus_family_rate

from etkit import numerics
from etkit.barriers import (
    BARRIER,
    BarrierMethod,
    ExactAdiabat,
    adiabatic_driving_force,
    barrier,
    exact_adiabat,
)
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
    as_polynomial,
)
from etkit.rates import (
    ElectrodeConditions,
    PrefactorKind,
    RateRequest,
    _fermi_boltzmann,
    closed_form_model,
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


class TestFermiBoltzmannKernel:
    def test_closed_node_next_to_overflowing_occupancy_is_zero(self):
        b = beta(300.0)
        # e^(b*eps) overflows at the second and third nodes
        eps = np.array([-0.5, 30.0, 30.0, 0.1])
        e_star = np.array([np.inf, np.inf, 0.2, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _fermi_boltzmann(b, eps, e_star)
        assert got[:3].tolist() == [0.0, 0.0, 0.0]
        ref = math.exp(-b * 0.3) * scipy.special.expit(-b * 0.1)
        assert got[3] == pytest.approx(ref, rel=1e-14, abs=0)

    def test_fermi_dirac_tails_to_relative_accuracy(self):
        # out to eps/kT = 700, where the occupancy is 1e-304
        eps = np.linspace(-1.0, 700.0 / beta(300.0), 2001)
        ref = scipy.special.expit(-beta(300.0) * eps)
        assert fermi_dirac(eps, 300.0) == pytest.approx(ref, rel=1e-13, abs=0)


class TestPrefactor:
    def test_adiabatic_is_classical_attempt_frequency(self):
        got = prefactor(
            PrefactorKind.ADIABATIC, DiabaticSystem(4.0, 0.0), 0.5, 300.0
        )
        assert got == pytest.approx(K_B * 300.0 / H, rel=1e-15, abs=0)

    def test_non_adiabatic_pinned(self):
        # mpmath 30-digit: (V^2/hbar)*sqrt(pi*beta/lam), lam=4, V=0.5, 300 K
        got = prefactor(
            PrefactorKind.NON_ADIABATIC, DiabaticSystem(4.0, 0.0), 0.5, 300.0
        )
        assert got == pytest.approx(2093495878481287.7, rel=1e-12, abs=0)

    def test_non_adiabatic_scales_as_coupling_squared(self):
        s = DiabaticSystem(4.0, 0.0)
        p1 = prefactor(PrefactorKind.NON_ADIABATIC, s, 0.1, 300.0)
        p2 = prefactor(PrefactorKind.NON_ADIABATIC, s, 0.2, 300.0)
        assert p2 / p1 == pytest.approx(4.0, rel=1e-12, abs=0)

    def test_zero_coupling_kills_non_adiabatic_rate(self):
        s = DiabaticSystem(2.0, 0.0)
        cond = ElectrodeConditions(
            300.0, 0.0, 1.0, PrefactorKind.NON_ADIABATIC
        )
        req = RateRequest(s, ConstantCoupling(0.0), cond, BarrierMethod.MARCUS)
        assert mhc_rate_numeric(req) == 0.0

    def test_unknown_kind_raises(self):
        # the kind's value is no kind
        with pytest.raises(TypeError, match="^unknown prefactor kind: 'adiabatic'$"):
            prefactor("adiabatic", DiabaticSystem(4.0, 0.0), 0.5, 300.0)


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

    @pytest.mark.parametrize("kind", ["adiabatic", None, 1.0])
    def test_rejects_prefactor_that_is_no_kind(self, kind):
        # a string was accepted, and the first rate raised instead
        with pytest.raises(TypeError, match="unknown prefactor kind"):
            ElectrodeConditions(300.0, 0.0, 1.0, kind)

    @pytest.mark.parametrize("T", [5e-324, 1e-310])
    def test_beta_rejects_subnormal_temperature(self, T):
        # 1/(k_B T) divided by zero at 5e-324 K and was inf at 1e-310 K,
        # which ElectrodeConditions accepted: a Marcus rate then warned of
        # an invalid multiply and raised AccuracyError
        with pytest.raises(ValueError, match="temperature must be positive"):
            beta(T)
        with pytest.raises(ValueError, match="temperature must be positive"):
            ElectrodeConditions(T, -0.3)
        assert math.isfinite(beta(1e-300))

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
        ref = marcus_family_rate("eff", 4.0, (0.2, 0.8), -0.3, 300.0, "adiabatic", n=2000001)
        assert mhc_rate_numeric(req) == pytest.approx(ref, rel=1e-6, abs=0)

    def test_marcus_route_vs_dense_trapezoid(self):
        s = DiabaticSystem(1.55, 0.0)
        cond = ElectrodeConditions(300.0, -0.2, 1.0)
        req = RateRequest(s, ConstantCoupling(0.0), cond, BarrierMethod.MARCUS)
        got = mhc_rate_numeric(req)
        ref = marcus_family_rate("marcus", 1.55, (0.0,), -0.2, 300.0, "adiabatic")
        assert got == pytest.approx(ref, rel=1e-6, abs=0)

    def test_exact_route_pinned(self):
        # 40001-point trapezoid with per-node extremum analysis
        s = DiabaticSystem(4.0, 0.0)
        cond = ElectrodeConditions(300.0, -0.3, 1.0)
        req = RateRequest(
            s, ConstantCoupling(0.5), cond, BarrierMethod.EXACT_ADIABAT
        )
        assert mhc_rate_numeric(req) == pytest.approx(
            36546.69099305575, rel=1e-4, abs=0
        )

    @pytest.mark.parametrize("method", list(BarrierMethod))
    def test_rate_reads_lam_and_not_dg0(self, method):
        # the level shift of each level comes from cond.eta_f
        cond = ElectrodeConditions(300.0, -0.3, 1.0)
        k0, k1 = (
            mhc_rate_numeric(
                RateRequest(DiabaticSystem(4.0, dg0), ConstantCoupling(0.5), cond, method)
            )
            for dg0 in (0.0, 0.5)
        )
        assert k0 == k1

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
        assert k3 / k1 == pytest.approx(3.0, rel=1e-9, abs=0)

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
        # reference, with the prefactor etkit's Tafel sweep gives the route
        kind = PrefactorKind.NON_ADIABATIC
        if method is not BarrierMethod.MARCUS:
            kind = PrefactorKind.ADIABATIC
        coeffs = as_polynomial(c).coeffs
        ref = marcus_family_rate(method.value, lam, coeffs, eta, T, kind.value)
        assert ref == pytest.approx(pin, rel=1e-12, abs=0)
        cond = ElectrodeConditions(T, eta, 1.0, kind)
        req = RateRequest(DiabaticSystem(lam, 0.0), c, cond, method)
        assert mhc_rate_numeric(req) == pytest.approx(ref, rel=1e-6, abs=0)


# mhc_rate_numeric before the Fermi-Boltzmann kernel and the batched first
# Simpson levels, printed with repr: the same rule at the same nodes moves
# them by rounding alone. (method, lam, coupling, eta, T, rate)
MARCUS_FORM_PINS = {
    "marcus-const": (
        BarrierMethod.MARCUS, 1.55, ConstantCoupling(0.1), -0.2, 300.0,
        5735739.935286494,
    ),
    "marcus-linear": (
        BarrierMethod.MARCUS, 2.0, LinearCoupling(0.3, -0.2), 0.1, 320.0,
        1167.207155614418,
    ),
    "shift-const": (
        BarrierMethod.CONSTANT_SHIFT, 3.0, ConstantCoupling(0.4), -0.5, 280.0,
        2995118496.0973535,
    ),
    "shift-linear": (
        BarrierMethod.CONSTANT_SHIFT, 4.0, LinearCoupling(0.2, 1.0), -0.3, 300.0,
        25550969.458315555,
    ),
    "eff-const": (
        BarrierMethod.EFFECTIVE_LAMBDA, 2.0, ConstantCoupling(0.3), 0.0, 300.0,
        36684029.773913614,
    ),
    # ROADMAP item 4's reproducer: lam_eff <= 0 at far-tail nodes
    "eff-linear": (
        BarrierMethod.EFFECTIVE_LAMBDA, 4.0, LinearCoupling(0.2, 1.0), -0.3, 300.0,
        4695122.999964154,
    ),
}


@pytest.mark.parametrize(
    "method, lam, c, eta, T, pin",
    [pytest.param(*case, id=name) for name, case in MARCUS_FORM_PINS.items()],
)
def test_marcus_form_rate_pinned(method, lam, c, eta, T, pin):
    req = RateRequest(DiabaticSystem(lam, 0.0), c, ElectrodeConditions(T, eta), method)
    assert mhc_rate_numeric(req) == pytest.approx(pin, rel=1e-12, abs=0)


MARCUS_FORM = (
    BarrierMethod.MARCUS,
    BarrierMethod.CONSTANT_SHIFT,
    BarrierMethod.EFFECTIVE_LAMBDA,
)


class TestTailBound:
    # a Marcus-form rate integrates one window and bounds the mass outside
    # it in closed form

    def test_narrow_open_channel_raises_naming_the_bound(self):
        # Condon lam_eff/lam = 1e-6: the channel, 3.2e-4 eV wide, falls
        # between the nodes of the first grid, so the window's integral
        # underflows to 0 and no tail bound can be met
        with pytest.raises(
            AccuracyError, match="^tail bound .* exceeds 1e-09 of"
        ) as err:
            adiabatic_rate(1.0, (0.4995,), 300.0, -0.3, BarrierMethod.EFFECTIVE_LAMBDA)
        assert err.value.best_estimate == 0.0

    def test_channel_closed_everywhere_raises_with_zero(self):
        # V = lam/2 makes lam_eff = 0 at every driving force: the window's
        # integral is 0, which no tail bound can certify
        with pytest.raises(AccuracyError, match="^tail bound") as err:
            adiabatic_rate(4.0, (2.0,), 300.0, -0.3, BarrierMethod.EFFECTIVE_LAMBDA)
        assert err.value.best_estimate == 0.0

    def test_channel_missed_by_every_node_raises_with_zero(self):
        # Condon lam_eff/lam = 1e-6 at lam = 8: no node of the first grid
        # sees the channel, and at 250 K the tail bound underflows to 0
        # as well
        with pytest.raises(AccuracyError, match="integral is 0$") as err:
            adiabatic_rate(8.0, (3.996,), 250.0, -0.3, BarrierMethod.EFFECTIVE_LAMBDA)
        assert err.value.best_estimate == 0.0

    @pytest.mark.parametrize("lam, v, T, eta, pin", NARROW_EFF_CASES)
    def test_narrow_channel_matches_dense_trapezoid(self, lam, v, T, eta, pin):
        # Condon channels (lam_eff/lam = 2.5e-5, 6.25e-4) that the first
        # Simpson sums on 2 and 4 intervals missed, so that the rate raised
        k = adiabatic_rate(lam, (v,), T, eta, BarrierMethod.EFFECTIVE_LAMBDA)
        assert k == pytest.approx(pin, rel=1e-9, abs=0)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        lam=st.floats(0.5, 8.0),
        T=st.floats(200.0, 400.0),
        eta=st.floats(-1.5, 1.0),
        log_ratio=st.floats(-6.0, -2.0),
    )
    def test_narrow_channel_rated_or_raises(self, lam, T, eta, log_ratio):
        # Condon V = (lam/2)(1 - sqrt(lam_eff/lam)); a channel the first
        # grid cannot resolve must raise, never return a wrong rate
        v = 0.5 * lam * (1.0 - math.sqrt(10.0**log_ratio))
        try:
            k = adiabatic_rate(lam, (v,), T, eta, BarrierMethod.EFFECTIVE_LAMBDA)
        except AccuracyError:
            return
        lam_eff = lam * (1.0 - 2.0 * v / lam) ** 2
        ref = marcus_family_rate("marcus", lam_eff, (0.0,), eta, T, "adiabatic")
        assert k == pytest.approx(ref, rel=1e-9, abs=0)

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

    def test_quadrature_give_up_carries_the_scaled_estimate(self, monkeypatch):
        # no rate reaches MAX_LEVEL_NODES, so the quadrature is made to
        # give up with 2 eV; the rate's estimate is prefactor * rho times it
        def gives_up(f, a, b):
            raise AccuracyError("gave up", best_estimate=2.0)

        monkeypatch.setattr(numerics, "integrate", gives_up)
        cond = ElectrodeConditions(300.0, -0.3, 3.0)
        req = RateRequest(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(0.5), cond,
            BarrierMethod.MARCUS,
        )
        with pytest.raises(AccuracyError, match="^gave up$") as err:
            mhc_rate_numeric(req)
        scale = prefactor(PrefactorKind.ADIABATIC, req.sys, 0.5, 300.0) * 3.0
        assert err.value.best_estimate == pytest.approx(2.0 * scale, rel=1e-15, abs=0)

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


def refused_seeds(self, t, dg):
    """An ExactAdiabat.seeded_barriers that accepts no node: every node of
    the exact rate takes ExactAdiabat.barriers."""
    return np.full(np.shape(dg), np.nan), np.zeros(np.shape(dg), dtype=bool)


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


# (lam, coeffs, T, eta, pin): the five couplings of the tafel_exact
# benchmark, three etas each
TAFEL_EXACT_PINS = [
    (4.0, (0.5,), 300.0, -0.8, 70042789.36368881),
    (4.0, (0.5,), 300.0, -0.3, 36546.69099305614),
    (4.0, (0.5,), 300.0, 0.2, 3.649318890968494),
    (4.0, (0.1, 0.4), 300.0, -0.8, 125071.71195958578),
    (4.0, (0.1, 0.4), 300.0, -0.3, 100.5235748977214),
    (4.0, (0.1, 0.4), 300.0, 0.2, 0.02177366331093433),
    (4.0, (0.2, 0.8), 300.0, -0.8, 500640749.47141385),
    (4.0, (0.2, 0.8), 300.0, -0.3, 1980012.0471130933),
    (4.0, (0.2, 0.8), 300.0, 0.2, 1914.688314810161),
    (4.0, (0.6, 0.4), 300.0, -0.8, 77984401258.49998),
    (4.0, (0.6, 0.4), 300.0, -0.3, 328014489.06105256),
    (4.0, (0.6, 0.4), 300.0, 0.2, 183696.7874578536),
    (4.0, (0.3, 0.5, -0.4), 300.0, -0.8, 34415538.343613096),
    (4.0, (0.3, 0.5, -0.4), 300.0, -0.3, 21797.222156652686),
    (4.0, (0.3, 0.5, -0.4), 300.0, 0.2, 2.489057241012386),
]
# draws 149 and 157 of tests/exact_traffic.py: (lam, coeffs, T, eta)
DRAW_149 = (
    5.17949782600355, (-0.5926938148223172, 0.033778078275239445, 0.5646145062171052),
    304.1145480534742, 0.5726991207618264,
)
DRAW_157 = (
    2.662623260827285, (0.7666324319134604, -0.7649304145935234), 358.6988535935767,
    0.5620783809514625,
)


class TestExactRouteFixedRule:
    # frozen from scipy's adaptive quad; `python tests/pin_oracles.py`
    # checks them against reference.exact_rate
    @pytest.mark.parametrize("lam, coeffs, T, eta, pin", EXACT_QUAD_CASES)
    def test_against_quad_pins(self, lam, coeffs, T, eta, pin):
        got = exact_rate(lam, coeffs, T, eta)
        assert got == pytest.approx(pin, rel=1e-9, abs=0)

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
        ref = marcus_family_rate("marcus", lam, (0.0,), eta, T, "adiabatic")
        for v in (0.0, 1e-13):
            assert exact_rate(lam, (v,), T, eta) / ref == pytest.approx(1.0, rel=1e-9)
        # E* moves by about V, so the rate by about V/kT
        for v in (1e-11, 1e-10, 1e-9, 1e-8):
            assert exact_rate(lam, (v,), T, eta) / ref == pytest.approx(1.0, rel=1e-5)

    @pytest.mark.parametrize(
        "lam, coeffs, T, eta, pin",
        [
            *TAFEL_EXACT_PINS,
            # 400 K, and a fold where E* is about 0.65 eV
            (4.0, (0.6, 0.4), 400.0, 0.4, 912940.7991629479),
            # two seeded barrier pieces, interpolated in one pass
            (2.0, (0.2, -0.6), 300.0, -0.4, 4171855.827399624),
            (4.0, (0.1, -0.1, -0.25), 300.0, -1.0, 458.82277419038286),
            # V = 0.2 - 0.4 q vanishes at the crossing only at dg = 0, a
            # piece end: both barrier pieces are seeded (the kink fallback
            # is pinned by test_kink_pieces_fall_back_to_barriers)
            (4.0, (0.2, -0.4), 300.0, -0.3, 0.0024867253378102906),
            # a quadratic coupling off lam 4 and 300 K
            (2.0, (0.1, 0.3, -0.2), 350.0, -0.5, 16802391270.605501),
            # a tiny Condon coupling, near its fold points
            (4.0, (1e-10,), 300.0, -0.3, 0.0021274091052646436),
            # no barrier piece: one downhill piece in closed form
            (1.0, (0.8,), 300.0, -0.3, 1875297196046.9292),
            # the one draw with fallback nodes: the unseeded piece and 18
            # nodes of the seeded one take ExactAdiabat.barriers
            # (test_fallback_pieces_pinned)
            (*DRAW_149, 4.715888836471434e-10),
            # three seeded barrier pieces, polished in one array
            (*DRAW_157, 0.28662781403171206),
        ],
    )
    def test_rates_pinned(self, lam, coeffs, T, eta, pin):
        # repr of each rate when every seeded root was polished and E_minus
        # evaluated again there, seeded by the degree-31 polynomial through
        # the rule's samples, as now: E* from the last Newton step moves
        # E_minus by about E''*(1e-10)^2/2 at most. The last two were
        # pinned before the polish took one (pieces, 2, nodes) array
        assert exact_rate(lam, coeffs, T, eta) == pytest.approx(pin, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "lam, coeffs, T, eta, seeded, refused",
        [
            # the second piece is not seeded, and 18 nodes of the seeded
            # one, next to its fold end, fail their polish (a root moves
            # more than _POLISH_MOVE from its seed)
            (*DRAW_149, [True, False], [18, 256]),
            (*DRAW_157, [True, True, True], [0, 0, 0]),
        ],
        ids=["draw149", "draw157"],
    )
    def test_fallback_pieces_pinned(self, monkeypatch, lam, coeffs, T, eta, seeded, refused):
        exact_rate(lam, coeffs, T, eta)
        assert exact_adiabat(lam, PolynomialCoupling(coeffs)).rule.seeded.tolist() == seeded
        seen = []
        seeded_barriers = ExactAdiabat.seeded_barriers

        def recorded(self, t, dg):
            e_star, ok = seeded_barriers(self, t, dg)
            seen.append(ok)
            return e_star, ok

        monkeypatch.setattr(ExactAdiabat, "seeded_barriers", recorded)
        calls = counted_barriers(monkeypatch)
        exact_rate(lam, coeffs, T, eta)
        [ok] = seen
        assert ok.shape == (len(seeded), 2 * 128)
        assert (~ok).sum(axis=1).tolist() == refused
        # the refused nodes only, in one call
        fallback = sum(refused)
        assert calls == ([fallback] if fallback else [])

    @pytest.mark.parametrize("lam, coeffs", [(4.0, (0.0, 0.2)), (2.0, (0.0, 0.05))])
    def test_refused_nodes_fall_back_alone(self, monkeypatch, lam, coeffs):
        # V = a q vanishes at the reactant well: both barrier pieces end at
        # the kink dg = -lam and are seeded, but their interpolants
        # converge only algebraically there and some nodes fail the
        # polish. Those nodes alone take ExactAdiabat.barriers
        T, eta = 300.0, -0.3
        exact_rate(lam, coeffs, T, eta)
        assert exact_adiabat(lam, PolynomialCoupling(coeffs)).rule.seeded.tolist() == [True] * 2
        calls = counted_barriers(monkeypatch)
        got = exact_rate(lam, coeffs, T, eta)
        [nodes] = calls
        assert 0 < nodes < 2 * 256
        assert got == pytest.approx(reference_exact_rate(lam, coeffs, eta, T), rel=1e-9, abs=0)
        monkeypatch.setattr(ExactAdiabat, "seeded_barriers", refused_seeds)
        assert got / exact_rate(lam, coeffs, T, eta) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.xfail(
        reason="ROADMAP items 4 and 23: next to the kink at dg = lam, nodes of the unseeded "
        "piece where |V| at the crossing is 4e-12 to 8e-9 eV read a closed channel, and "
        "both rates are 2.94e-6 relative low",
        strict=True,
    )
    @pytest.mark.parametrize("eta", [2.5, 3.0])
    def test_kink_adjacent_rates_match_the_reference(self, eta):
        lam, coeffs, T = 2.0, (0.125, -0.125), 300.0
        want = reference_exact_rate(lam, coeffs, eta, T)
        assert exact_rate(lam, coeffs, T, eta) == pytest.approx(want, rel=1e-9, abs=0)

    def test_warm_tafel_exact_rates_take_one_newton_step(self, monkeypatch):
        # the cost of a warm seeded rate: one Newton evaluation settles
        # both roots of every node of every piece, and no node takes the
        # eigenvalue path
        for lam, coeffs, T, eta, _pin in TAFEL_EXACT_PINS:
            exact_rate(lam, coeffs, T, eta)
        shapes = []
        newton_step = ExactAdiabat._newton_step

        def counted(self, q, dg):
            shapes.append(q.shape)
            return newton_step(self, q, dg)

        monkeypatch.setattr(ExactAdiabat, "_newton_step", counted)
        calls = counted_barriers(monkeypatch)
        for lam, coeffs, T, eta, _pin in TAFEL_EXACT_PINS:
            shapes.clear()
            exact_rate(lam, coeffs, T, eta)
            kind = exact_adiabat(lam, PolynomialCoupling(coeffs)).pieces[2]
            pieces = np.count_nonzero(kind == BARRIER)
            assert shapes == [(pieces, 2, 2 * 128)], (coeffs, eta)
        assert calls == []

    def test_rule_is_built_on_the_first_rate_only(self):
        # barrier() and adiabatic_driving_force() pay for no rate set-up
        lam, c = 3.0, PolynomialCoupling((0.31, 0.27))
        exact_adiabat.cache_clear()
        sys = DiabaticSystem(lam, -0.2)
        barrier(sys, c, BarrierMethod.EXACT_ADIABAT)
        adiabatic_driving_force(sys, c)
        adiabat = exact_adiabat(lam, c)
        assert not {"pieces", "rule"} & set(vars(adiabat))
        exact_rate(lam, c.coeffs, 300.0, -0.2)
        assert {"pieces", "rule"} <= set(vars(adiabat))
        assert all(not column.flags.writeable for column in adiabat.rule)
        assert adiabat.rule.seeded.all()

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
        assert exact_adiabat(lam, PolynomialCoupling(coeffs)).rule.seeded.all()
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
        assert not adiabat.rule.seeded.any()
        pieces = np.count_nonzero(adiabat.pieces[2] == BARRIER)
        calls = counted_barriers(monkeypatch)
        got = exact_rate(lam, coeffs, 300.0, eta)
        assert got == pytest.approx(pin, rel=1e-9, abs=0)
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

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExactAdiabat, "seeded_barriers", refused_seeds)
            assert seeded / exact_rate(lam, coeffs, T, eta) == pytest.approx(1.0, rel=1e-12)

    def test_unbounded_barrier_piece_raises(self, monkeypatch):
        def open_ended(self):
            return np.array([-np.inf]), np.array([np.inf]), np.array([BARRIER])

        # a fresh set-up: the rule that a warm one keeps never reads the
        # patched pieces
        exact_adiabat.cache_clear()
        monkeypatch.setattr(ExactAdiabat, "pieces", property(open_ended))
        # the rule keeps nothing when it raises, so every rate raises
        for _ in range(2):
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
        # the reduction rate grows with the cathodic driving -eta, and by no
        # more than d ln k/d eta = -beta <1 - n> > -beta allows
        coeffs = tuple(f * lam for f in shape)
        etas = np.linspace(-1.0, 0.5, 7)
        ks = [exact_rate(lam, coeffs, T, eta) for eta in etas]
        assert all(a > b for a, b in zip(ks, ks[1:]))
        assert np.all(-np.diff(np.log(ks)) <= beta(T) * np.diff(etas))


    def test_unseeded_rule_gives_the_seeded_rate(self, monkeypatch):
        # a rule whose seed call fails seeds no piece, and every node then
        # takes ExactAdiabat.barriers
        c = PolynomialCoupling((0.1, 0.4))
        adiabat = ExactAdiabat(4.0, c)
        adiabat.pieces  # the set-up before the seeds runs unpatched

        def leaves_window(self, dg):
            raise SurfaceTopologyError("no minimum of the lower adiabat in the scan window")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExactAdiabat, "barriers", leaves_window)
            rule = adiabat.rule
        assert rule.seeded.size and not rule.seeded.any()
        assert not rule.samples.any()
        assert exact_adiabat(4.0, c).rule.seeded.all()
        seeded = exact_rate(4.0, c.coeffs, 300.0, -0.3)
        monkeypatch.setattr("etkit.rates.exact_adiabat", lambda lam, c: adiabat)
        assert exact_rate(4.0, c.coeffs, 300.0, -0.3) == pytest.approx(seeded, rel=1e-12)


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


class TestShiftFactor:
    # the shift route integrates the Marcus barrier and multiplies by
    # e^(beta*V(1/2)) once, in logs

    def test_rate_whose_boltzmann_factor_overflows(self):
        # exp(-beta*E*) and exp(beta*eps) overflowed together, NaN nodes
        # followed (a RuntimeWarning), and the quadrature doubled its grid
        # until it gave up
        lam, v, T, eta, pin = SHIFT_OVERFLOW_CASE
        k = adiabatic_rate(lam, (v,), T, eta, BarrierMethod.CONSTANT_SHIFT)
        assert k == pytest.approx(pin, rel=1e-9, abs=0)

    @pytest.mark.parametrize("v, ln_k", [(3.793, "894.2"), (-3.793, "-2040")])
    def test_rate_beyond_float_range_raises(self, v, ln_k):
        # at 30 K, ln k is about 894 (overflow) or -2040 (underflow to 0)
        with pytest.raises(
            NumericalDomainError, match=f"^rate beyond float range: ln k = {ln_k}"
        ):
            adiabatic_rate(8.904, (v,), 30.0, -1.5, BarrierMethod.CONSTANT_SHIFT)


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
            assert got == pytest.approx(ref, rel=1e-9, abs=0)

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
        # rate far more than the quadrature error. It grows by no more than
        # d ln k/d eta = -beta <1 - n> > -beta allows
        coeffs = tuple(f * lam for f in shape)
        etas = np.linspace(-0.5, 0.5, 6)
        for method in (
            BarrierMethod.MARCUS,
            BarrierMethod.CONSTANT_SHIFT,
            BarrierMethod.EFFECTIVE_LAMBDA,
        ):
            ks = [adiabatic_rate(lam, coeffs, T, eta, method) for eta in etas]
            assert all(a > b for a, b in zip(ks, ks[1:])), method
            assert np.all(-np.diff(np.log(ks)) <= beta(T) * np.diff(etas)), method


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


TAFEL_ETA = np.linspace(-1.0, 0.5, 31)


class TestClosedForm:
    def test_pinned_equilibrium_value(self):
        # mpmath 30-digit evaluation of the closed form
        cond = ElectrodeConditions(300.0, 0.0, 1.0)
        assert mhc_rate_closed_form(2.25, cond) == pytest.approx(
            281.86537695053019, rel=1e-12, abs=0
        )

    def test_matches_independent_recomputation(self):
        # same algebra evaluated with scipy's erfc in log10
        for lam_eff in (0.8, 1.55, 3.0):
            for eta in np.linspace(-1.0, 0.5, 31):
                ref = 10.0 ** log10_closed_form(lam_eff, float(eta), 300.0)
                got = mhc_rate_closed_form(
                    lam_eff, ElectrodeConditions(300.0, float(eta), 1.0)
                )
                assert got == pytest.approx(ref, rel=1e-11, abs=0)

    def test_rate_saturates_at_large_driving(self):
        # inverted-region-free plateau: k(-1.5) close to k(-2.5)
        k1 = mhc_rate_closed_form(0.8, ElectrodeConditions(300.0, -1.5))
        k2 = mhc_rate_closed_form(0.8, ElectrodeConditions(300.0, -2.5))
        assert abs(math.log10(k2 / k1)) < 0.2

    def test_rate_falls_to_zero_far_above_the_fermi_level(self):
        # the occupancy's exponent was clamped at 700, so the rate stopped
        # at 3.5e-292 1/s from eta = 18.1 V on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ks = [
                mhc_rate_closed_form(1.0, ElectrodeConditions(300.0, eta))
                for eta in (17.0, 18.1, 19.0, 25.0)
            ]
        # e^(beta*eta) overflows from about 18.3 V on
        assert ks[0] > ks[1] > 0.0
        assert ks[2:] == [0.0, 0.0]

    def test_rejects_non_positive_lambda(self):
        with pytest.raises(SingularRegimeError):
            mhc_rate_closed_form(0.0, ElectrodeConditions(300.0, 0.0))

    @pytest.mark.parametrize("T", [300.0, 20.0])
    def test_array_form_equals_scalar_form(self, T):
        lam_eff = np.array([0.05, 0.8, 2.25, 10.0, 120.0])
        eta = np.array([-1.5, -0.3, 0.0, 0.4, 20.0])
        got = closed_form_rates(lam_eff[:, None], eta, T, 2.0)
        assert got.shape == (5, 5)
        # eta = 20 V overflows the occupancy's exponent; large
        # beta*lam_eff drives erfc to underflow
        assert beta(T) * 20.0 > 700.0
        assert np.any(got == 0.0) and np.any(got > 0.0)
        for i, lam in enumerate(lam_eff):
            for j, e in enumerate(eta):
                want = mhc_rate_closed_form(
                    float(lam), ElectrodeConditions(T, float(e), 2.0)
                )
                assert got[i, j] == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "lam_eff, eta, shape",
        [
            (2.25, -0.3, ()),
            (np.array(2.25), TAFEL_ETA, (31,)),
            (np.geomspace(0.05, 10.0, 200)[:, None], TAFEL_ETA, (200, 31)),
            (np.ones((0, 1)), TAFEL_ETA, (0, 31)),
        ],
        ids=["0-d", "1-D", "scan", "empty"],
    )
    def test_keeps_float64_and_broadcast_shape(self, lam_eff, eta, shape):
        got = closed_form_rates(lam_eff, eta, 300.0, 1.0)
        assert np.shape(got) == shape
        assert np.asarray(got).dtype == np.float64
        lam_b, eta_b = np.broadcast_arrays(lam_eff, eta)
        want = [
            mhc_rate_closed_form(float(lam), ElectrodeConditions(300.0, float(e)))
            for lam, e in zip(lam_b.ravel(), eta_b.ravel())
        ]
        assert np.array_equal(np.ravel(got), want)

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


class TestClosedFormModel:
    LAM = np.array([0.05, 0.8, 2.25, 4.0, 10.0, 120.0])
    ETA = np.array([-1.5, -0.3, 0.0, 0.4, 20.0])

    def test_a_row_does_not_depend_on_the_others(self):
        # the scan's premise: a candidate's rates are the same in any call
        model = closed_form_model(self.ETA, 300.0, 1.0)
        lam = self.LAM[:, None]
        whole = model(lam)
        assert np.array_equal(model(lam[[0, 3]]), whole[[0, 3]])
        assert np.array_equal(model(lam[[4]]), whole[[4]])

    def test_a_model_called_twice_gives_the_same_rates(self):
        model = closed_form_model(self.ETA, 300.0, 2.0)
        first = model(self.LAM[:, None])
        second = model(self.LAM[:, None])
        assert first is not second
        assert np.array_equal(first, second)
        assert np.any(first == 0.0) and np.any(first > 0.0)

    @pytest.mark.parametrize(
        "lam_eff, eta, T",
        [
            (2.25, -0.3, 300.0),
            (LAM[:, None], ETA, 300.0),
            (LAM[:, None], ETA, 20.0),
            # the arrhenius eff column: one temperature per point
            (LAM[:3], -0.3, np.array([250.0, 300.0, 350.0])),
        ],
        ids=["scalar", "k x 1 by n", "k x 1 by n, 20 K", "array T"],
    )
    def test_closed_form_rates_is_the_model(self, lam_eff, eta, T):
        got = closed_form_rates(lam_eff, eta, T, 1.5)
        want = closed_form_model(eta, T, 1.5)(lam_eff)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "lam_eff, error",
        [
            ([1.0, 0.0], SingularRegimeError),
            ([1.0, -2.0], SingularRegimeError),
            ([1.0, math.nan], NumericalDomainError),
            ([1.0, math.inf], NumericalDomainError),
        ],
    )
    def test_the_same_raises(self, lam_eff, error):
        model = closed_form_model(-0.3, 300.0, 1.0)
        with pytest.raises(error) as from_model:
            model(lam_eff)
        with pytest.raises(error) as from_rates:
            closed_form_rates(lam_eff, -0.3, 300.0, 1.0)
        assert str(from_model.value) == str(from_rates.value)


class TestExtractCoupling:
    def test_strong_coupling_example(self):
        # 6.3/2 - sqrt(6.3*0.75)/2
        v = extract_coupling(6.3, 0.75)
        assert v == pytest.approx(3.15 - math.sqrt(4.725) / 2, rel=1e-14, abs=0)
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
