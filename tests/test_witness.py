"""Tests for the certification condition, crossings, and closed-form limits."""
import math
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from thermwit.entanglement import (
    BoundKind,
    RobustnessBound,
    bound_from_relative_entropy,
    singlet_robustness,
)
from thermwit.errors import NoSignChange, ThermwitError
from thermwit.systems import DimerParams, Spectrum, ToySpectrumParams, dimer_spectrum, toy_spectrum
from thermwit.thermal import log_ground_population_alpha_closed, log_population
from thermwit.witness import (
    concurrence_vanishing_temperature,
    flip_probability_from_temperature,
    ground_crossing,
    noise_threshold,
    stabilizer_t_trans,
    toy_t0,
    toy_t0_rel_tol,
    toy_t_alpha,
    transition_temperature,
)

T_ZERO_FIELD = 4.0 / math.log(3.0)



class TestWeakBoundCrossing:
    """Near 1 + R = 1 the crossing sits where the thermal tail is about R,
    far below the ulp of 1: the kernel must keep that tail's relative error."""

    @given(log2_r=st.floats(min_value=-36.0, max_value=-19.0))
    @settings(max_examples=100, deadline=None)
    def test_within_four_ulps_of_mpmath(self, log2_r):
        s = Spectrum((0.0, 1.0, 2.5), (1, 2, 3))
        bound = RobustnessBound(1.0 + 2.0**log2_r, BoundKind.LOWER_BOUND)
        t = transition_temperature(s, bound).t_trans
        with mpmath.workprec(300):
            log_threshold = mpmath.mpf(bound.log_threshold)

            def margin(temp):
                beta = 1 / temp
                z = 1 + 2 * mpmath.exp(-beta) + 3 * mpmath.exp(-mpmath.mpf(2.5) * beta)
                return -mpmath.log(z) - log_threshold

            exact = mpmath.findroot(margin, mpmath.mpf(t))
            assert abs(margin(exact)) < mpmath.mpf(2) ** -280
            assert abs(mpmath.mpf(t) - exact) <= 4 * math.ulp(t), (t, exact)

class TestEvaluateCondition:
    """The condition itself: log p0 above the bound's log threshold."""

    def test_cold_dimer_satisfied(self):
        s = dimer_spectrum(DimerParams(0.0, 1.0))
        log_p0 = log_population(s, 1.0, 0)
        assert log_p0 > singlet_robustness().log_threshold and math.exp(log_p0) > 0.5

    def test_hot_dimer_not_satisfied(self):
        s = dimer_spectrum(DimerParams(0.0, 1.0))
        assert not log_population(s, 10.0, 0) > singlet_robustness().log_threshold

    def test_threshold_recorded(self):
        s = dimer_spectrum(DimerParams(0.0, 1.0))
        bound = bound_from_relative_entropy(2.0)
        assert bound.threshold == 0.25
        assert log_population(s, 1.0, 0) > bound.log_threshold


class TestTransitionTemperature:
    def test_dimer_zero_field_closed_form(self):
        tr = transition_temperature(dimer_spectrum(DimerParams(0.0, 1.0)), singlet_robustness())
        assert tr.detected
        assert tr.t_trans == pytest.approx(T_ZERO_FIELD, rel=1e-9)

    def test_scales_with_j(self):
        for j in (0.5, 2.0, 7.3):
            tr = transition_temperature(
                dimer_spectrum(DimerParams(0.0, j)), singlet_robustness()
            )
            assert tr.t_trans == pytest.approx(j * T_ZERO_FIELD, rel=1e-9)

    def test_boltzmann_constant_rescales(self):
        tr = transition_temperature(
            dimer_spectrum(DimerParams(0.0, 1.0)), singlet_robustness(), k_b=2.0
        )
        assert tr.t_trans == pytest.approx(T_ZERO_FIELD / 2.0, rel=1e-9)

    def test_matches_scipy_brentq(self):
        s = dimer_spectrum(DimerParams(1.0, 1.0))
        f = lambda kt: math.exp(log_population(s, kt, 0)) - 0.5
        ref = scipy.optimize.brentq(f, 0.1, 10.0, xtol=1e-13)
        tr = transition_temperature(s, singlet_robustness())
        assert tr.t_trans == pytest.approx(ref, rel=1e-9)
        assert tr.t_trans == pytest.approx(3.556193150034734, rel=1e-9)

    def test_population_at_crossing_equals_threshold(self):
        s = dimer_spectrum(DimerParams(2.0, 1.0))
        bound = bound_from_relative_entropy(0.7)
        tr = transition_temperature(s, bound)
        p = math.exp(log_population(s, tr.t_trans, 0))
        assert p == pytest.approx(bound.threshold, rel=1e-8)

    def test_trivial_bound_never_detected(self):
        trivial = RobustnessBound(1.0, BoundKind.EXACT)
        tr = transition_temperature(dimer_spectrum(DimerParams(0.0, 1.0)), trivial)
        assert not tr.detected
        assert tr.t_trans is None

    def test_unreachably_low_threshold_raises(self):
        # threshold below 1/dim would hold at any temperature
        s = Spectrum((0.0, 1.0), (1, 1))
        with pytest.raises(NoSignChange):
            transition_temperature(s, bound_from_relative_entropy(5.0))

    def test_crossing_beyond_the_initial_bracket(self):
        # threshold just above the infinite-temperature population 1/2: the
        # crossing kT ~ 7.2e4 lies above the initial end 1e4 * spread
        s = Spectrum((0.0, 1.0), (1, 1))
        bound = bound_from_relative_entropy(0.99999)
        tr = transition_temperature(s, bound)
        assert tr.detected and tr.t_trans > tr.bracket[1]
        assert log_population(s, tr.t_trans, 0) > bound.log_threshold
        above = math.nextafter(tr.t_trans, math.inf)
        assert not log_population(s, above, 0) > bound.log_threshold

    def test_degenerate_ground_rejected(self):
        s = Spectrum((0.0, 1.0), (2, 1))
        with pytest.raises(ThermwitError, match="ground level carries degeneracy 2; need 1"):
            transition_temperature(s, singlet_robustness())

    @given(
        st.floats(min_value=0.05, max_value=3.5),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_detected_iff_condition_holds_below(self, b, j, log_k_b):
        # safe side to the last ulp: the condition holds at t_trans itself
        # and fails at the next float up, in the reported unit
        if b >= 3.99 * j:
            return
        k_b = 10.0**log_k_b
        s = dimer_spectrum(DimerParams(b, j))
        tr = transition_temperature(s, singlet_robustness(), k_b)
        assert tr.detected
        log_threshold = singlet_robustness().log_threshold
        above = math.nextafter(tr.t_trans, math.inf)
        assert log_population(s, tr.t_trans * k_b, 0) > log_threshold
        assert not log_population(s, above * k_b, 0) > log_threshold


@pytest.mark.parametrize("k_b", [0.0, -1.0, math.nan, math.inf])
def test_searches_reject_bad_boltzmann_constant(k_b):
    # the searches take k_b and evaluate at T * k_b; a negative k_b times a
    # negative temperature would otherwise be a valid kT
    s = dimer_spectrum(DimerParams(0.0, 1.0))
    bound = singlet_robustness()
    searches = [
        lambda: ground_crossing(lambda kt: log_population(s, kt, 0), bound, 4.0, 4.0, 4, k_b),
        lambda: transition_temperature(s, bound, k_b),
        lambda: concurrence_vanishing_temperature(DimerParams(0.0, 1.0), k_b),
    ]
    for search in searches:
        with pytest.raises(ThermwitError, match="k_b must be positive and finite"):
            search()


class TestCrossingTemperature:
    """The search's ends on margins T -> log p0(T) - log threshold, from [1, 10]."""

    BOUND = bound_from_relative_entropy(2.0)  # threshold 1/4

    def crossing(self, margin, dimension):
        # the gap and spread put the starting bracket at [1, 10]
        result = ground_crossing(
            lambda kt: margin(kt) + self.BOUND.log_threshold, self.BOUND, 1e6, 1e-3, dimension
        )
        assert result.bracket == (1.0, 10.0)
        return result.t_trans

    def test_reports_inf_without_settles(self):
        # 1/2 of the population at infinite temperature is above the threshold
        assert self.crossing(lambda t: 1e6 - t, 2) == math.inf

    def test_settles_extends_the_upper_end(self):
        assert self.crossing(lambda t: 1e6 - t, 8) == math.nextafter(1e6, 0.0)

    def test_settles_gives_inf_when_no_float_gets_there(self):
        assert self.crossing(lambda t: 1.0, 8) == math.inf

    def test_never_satisfied_is_none(self):
        assert self.crossing(lambda t: -1.0, 8) is None

    @pytest.mark.parametrize("k_b", [1e-10, 0.3, 0.5, 1.0, 3.0, 1e10])
    @pytest.mark.parametrize("gap", [0.0, 5e-324, 1e-320, 4e-318])
    def test_never_evaluates_at_zero_kt(self, gap, k_b):
        # 1e-6 * gap / k_b rounds to 0 for these gaps: the lower end is
        # raised so that kT = temp * k_b stays a positive float
        seen = []

        def log_p0(kt):
            seen.append(kt)
            return 0.0 if kt < 1e-300 else -1.0

        ground_crossing(log_p0, self.BOUND, gap, 1e-300, 8, k_b)
        assert seen and min(seen) > 0.0


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.5, 1.3, 2.0, 3.9])
def test_dimer_crossing_is_unit_free(ratio):
    # B and J scaled by 2^k scale the levels, the merge tolerance and every
    # probe of the search exactly, so the crossing scales bit for bit
    def crossing(j):
        s = dimer_spectrum(DimerParams(ratio * j, j))
        return transition_temperature(s, singlet_robustness()).t_trans

    base = crossing(1.0)
    for k in range(-100, 101, 5):
        assert crossing(math.ldexp(1.0, k)) == math.ldexp(base, k), k


class TestConcurrenceVanishing:
    def test_zero_field_equals_witness_boundary(self):
        t = concurrence_vanishing_temperature(DimerParams(0.0, 1.0))
        assert t == pytest.approx(T_ZERO_FIELD, rel=1e-9)

    def test_field_independent(self):
        # the concurrence zero of this model does not move with the field
        ts = [
            concurrence_vanishing_temperature(DimerParams(b, 1.0))
            for b in (0.0, 1.0, 2.0, 3.9, 5.0)
        ]
        for t in ts[1:]:
            assert t == pytest.approx(ts[0], rel=1e-9)

    def test_scales_with_j(self):
        t = concurrence_vanishing_temperature(DimerParams(1.0, 2.0))
        assert t == pytest.approx(2.0 * T_ZERO_FIELD, rel=1e-9)


class TestToyClosedForms:
    def test_t0_against_direct_root(self):
        for d, e_r in [(4, 1.0), (16, 2.0), (1000, 3.3)]:
            t0 = toy_t0(d, bound_from_relative_entropy(e_r), 1.0)
            # at the crossing, p0 = 1/(1 + (D-1) e^{-delta/kT}) = 2^{-eR}
            p0 = 1.0 / (1.0 + (d - 1) * math.exp(-1.0 / t0))
            assert p0 == pytest.approx(2.0 ** (-e_r), rel=1e-12)

    @pytest.mark.parametrize("d", [4, 100, 10**4, 10**6])
    @pytest.mark.parametrize("e_r", [0.5, 1.0, 2.0, 4.0])
    def test_t0_near_ladder_crossing(self, d, e_r):
        # the formula meets the crossing the generic search finds on the
        # alpha = 0 ladder within its own rounding; inf once 1 + R reaches D
        bound = bound_from_relative_entropy(e_r)
        t0 = toy_t0(d, bound, 1.0)
        if bound.one_plus_r >= d:
            assert t0 == math.inf
            return
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.0, n_levels=d)
        log_p0 = partial(log_ground_population_alpha_closed, p)
        t_star = ground_crossing(log_p0, bound, p.delta, p.spread, d).t_trans
        assert abs(t0 - t_star) <= toy_t0_rel_tol(d, bound) * t_star

    def test_t0_inf_where_log_ratio_rounds_to_zero(self):
        # 1 + R one float below D = 10^6: log(D-1) - log R rounds to 0
        bound = RobustnessBound(math.nextafter(1e6, 0.0), BoundKind.LOWER_BOUND)
        assert toy_t0(10**6, bound, 1.0) == math.inf

    def test_t0_rejects_nonpositive_entanglement(self):
        with pytest.raises(ThermwitError, match="need R > 0, got 0.0"):
            toy_t0(4, bound_from_relative_entropy(0.0), 1.0)

    def test_t1_is_deep_ladder_limit_of_alpha_one(self):
        # a depth-10^6 linear ladder reproduces the infinite-depth crossing
        # p0 = 1 - e^{-delta/kT} = 1/4, at kT = delta / ln(4/3)
        t1 = 1.0 / math.log(4.0 / 3.0)
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=1.0, n_levels=10**6)
        log_p0 = log_ground_population_alpha_closed(p, t1)
        assert math.exp(log_p0) == pytest.approx(0.25, rel=1e-12)

    def test_t_alpha_closed_form_values(self):
        # T_alpha = delta (alpha R / Gamma(1/alpha))^alpha; the n = 4 Dicke
        # state has R = 5/3
        r = 5.0 / 3.0
        assert toy_t_alpha(1.0, r, 1.0) == pytest.approx(r, rel=1e-12)
        assert toy_t_alpha(0.5, r, 1.0) == pytest.approx(math.sqrt(0.5 * r), rel=1e-12)
        assert toy_t_alpha(1.0, r, 2.0) == pytest.approx(2.0 * r, rel=1e-12)
        assert toy_t_alpha(0.25, r, 1.0) == pytest.approx(
            (0.25 * r / math.gamma(4.0)) ** 0.25, rel=1e-12
        )

    def test_t_alpha_rejects_bad_inputs(self):
        with pytest.raises(ThermwitError, match=r"alpha must lie in \(0, 1\], got 0.0"):
            toy_t_alpha(0.0, 1.0, 1.0)
        with pytest.raises(ThermwitError, match=r"alpha must lie in \(0, 1\], got 1.2"):
            toy_t_alpha(1.2, 1.0, 1.0)
        with pytest.raises(ThermwitError, match="R must be positive and finite, got 0.0"):
            toy_t_alpha(0.5, 0.0, 1.0)
        with pytest.raises(ThermwitError, match="R must be positive and finite, got inf"):
            toy_t_alpha(0.5, math.inf, 1.0)

    @given(st.floats(min_value=0.05, max_value=1.9), st.integers(min_value=5, max_value=10**5))
    @settings(max_examples=200, deadline=None)
    def test_t0_monotone(self, e_r, d):
        # more levels pull the crossing down; a more entangled ground state
        # keeps the condition open to higher temperature
        if e_r >= math.log2(d) - 0.1:
            return
        t = toy_t0(d, bound_from_relative_entropy(e_r), 1.0)
        assert toy_t0(d + 5, bound_from_relative_entropy(e_r), 1.0) < t
        assert toy_t0(d, bound_from_relative_entropy(e_r + 0.05), 1.0) > t


class TestStabilizerClosedForms:
    def test_t_trans_half_entanglement_constant(self):
        for n in (2, 6, 20, 1000):
            assert stabilizer_t_trans(n, 1.0, n / 2.0) == pytest.approx(
                2.2691853142130225, rel=1e-12
            )

    def test_t_trans_linear_in_b(self):
        assert stabilizer_t_trans(8, 3.0, 4.0) == pytest.approx(
            3.0 * stabilizer_t_trans(8, 1.0, 4.0), rel=1e-12
        )

    def test_t_trans_against_direct_root(self):
        n, b, e_r = 10, 1.5, 3.7
        t = stabilizer_t_trans(n, b, e_r)
        # p0 = (1 + e^{-2B/kT})^{-n} = 2^{-eR} at the crossing
        p0 = (1.0 + math.exp(-2.0 * b / t)) ** (-n)
        assert p0 == pytest.approx(2.0 ** (-e_r), rel=1e-10)

    def test_t_trans_rejects_ratio_outside_unit_interval(self):
        with pytest.raises(ThermwitError, match=r"e_r / n = 1.0 outside \(0, 1\)"):
            stabilizer_t_trans(4, 1.0, 4.0)
        with pytest.raises(ThermwitError, match=r"e_r / n = 0.0 outside \(0, 1\)"):
            stabilizer_t_trans(4, 1.0, 0.0)

    def test_noise_threshold_values(self):
        assert noise_threshold(2.0, 4) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0), rel=1e-14
        )
        assert noise_threshold(4.0, 4) == pytest.approx(0.5, rel=1e-14)

    def test_flip_probability_composes_with_t_trans(self):
        for n, b, e_r in [(4, 1.0, 2.0), (12, 0.7, 3.0), (100, 2.0, 60.0)]:
            kt = stabilizer_t_trans(n, b, e_r)
            p = flip_probability_from_temperature(b, kt)
            assert p == pytest.approx(noise_threshold(e_r, n), rel=1e-12)

    @given(
        st.integers(min_value=2, max_value=500),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_composition_identity_property(self, n, ratio, b):
        kt = stabilizer_t_trans(n, b, ratio * n)
        p = flip_probability_from_temperature(b, kt)
        assert p == pytest.approx(noise_threshold(ratio * n, n), rel=1e-12)

    @pytest.mark.parametrize("b", [1e-300, 1e-3, 1.0, 2.5, 1e5])
    def test_flip_probability_array_is_one_point_calls(self, b):
        # 2B/kT overflows at the low end and underflows at the high end; a
        # RuntimeWarning on the way would be an error here. The linear part
        # puts every point where libm and numpy's exp could round apart.
        kts = np.concatenate([np.logspace(-320.0, 300.0, 2001), np.linspace(0.05, 50.0, 2000) * b])
        expected = [flip_probability_from_temperature(b, kt).hex() for kt in kts.tolist()]
        got = flip_probability_from_temperature(b, kts)
        assert [x.hex() for x in got.tolist()] == expected
        assert flip_probability_from_temperature(b, kts[1:].reshape(2, 2000)).shape == (2, 2000)
        assert type(flip_probability_from_temperature(b, np.float64(1.0))) is float

    def test_noise_threshold_monotone_in_ratio(self):
        values = [noise_threshold(r * 10, 10) for r in np.linspace(0.05, 1.0, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestToySpectrumTransitionAgreement:
    def test_spectrum_bisection_matches_t0(self):
        p = ToySpectrumParams(e0=0.5, delta=1.3, alpha=0.0, n_levels=32)
        bound = bound_from_relative_entropy(2.0)
        tr = transition_temperature(toy_spectrum(p), bound)
        t0 = toy_t0(32, bound, 1.3)
        assert abs(tr.t_trans - t0) <= toy_t0_rel_tol(32, bound) * t0

    def test_ground_energy_location_irrelevant(self):
        a = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.7, n_levels=64)
        b = ToySpectrumParams(e0=-50.0, delta=1.0, alpha=0.7, n_levels=64)
        bound = bound_from_relative_entropy(1.0)
        ta = transition_temperature(toy_spectrum(a), bound)
        tb = transition_temperature(toy_spectrum(b), bound)
        assert ta.t_trans == pytest.approx(tb.t_trans, rel=1e-9)
