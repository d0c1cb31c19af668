"""Tests for partition functions, populations, and Gibbs states.

Closed forms are cross-checked against independent routes: direct
exponential sums, scipy matrix exponentials, and quadrature of the
continuum integral behind the Gamma-function approximation.
"""
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import thermwit.thermal
from thermwit.errors import ThermwitError
from thermwit.systems import (
    DimerParams,
    Spectrum,
    ToySpectrumParams,
    build_dimer_hamiltonian,
    dimer_spectrum,
    stabilizer_spectrum,
    toy_spectrum,
)
from thermwit.thermal import (
    EXP_TINY,
    LEAF,
    _ladder_levels,
    exp_or_inf,
    log_ground_population_alpha_closed,
    log_partition_function_alpha_gamma,
    log_population,
    thermal_density_matrix,
)
from thermwit.witness import dimer_condition_margin, flip_probability_from_temperature


def _log_z(s, kt):
    """log Z by the Z column's rule, -E0/kT - log p0, as ``graph --matrix-check``
    derives the dense one."""
    return -s.ground_energy / kt - log_population(s, kt)


class TestPartitionFunction:
    def test_against_direct_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            energies = np.sort(rng.uniform(-5.0, 5.0, n))
            for i in range(1, n):
                energies[i] = max(energies[i], energies[i - 1] + 1e-3)
            degs = rng.integers(1, 5, n)
            s = Spectrum(tuple(energies), tuple(int(d) for d in degs))
            kt = float(rng.uniform(0.1, 10.0))
            direct = float(np.sum(degs * np.exp(-energies / kt)))
            assert exp_or_inf(_log_z(s, kt)) == pytest.approx(direct, rel=1e-12)

    def test_against_matrix_trace(self):
        for b, j, kt in [(0.0, 1.0, 1.0), (1.0, 1.0, 2.5), (3.0, 0.8, 0.7)]:
            h = build_dimer_hamiltonian(DimerParams(b, j))
            z_trace = float(np.trace(scipy.linalg.expm(-h / kt)).real)
            z_closed = exp_or_inf(_log_z(dimer_spectrum(DimerParams(b, j)), kt))
            assert z_closed == pytest.approx(z_trace, rel=1e-9)

    def test_deep_spectrum_no_overflow(self):
        s = Spectrum((-2000.0, 0.0), (1, 1))
        assert math.isinf(exp_or_inf(_log_z(s, 1.0)))
        assert _log_z(s, 1.0) == pytest.approx(2000.0)
        assert math.exp(log_population(s, 1.0, 0)) == pytest.approx(1.0)

    def test_infinite_temperature_limit(self):
        s = Spectrum((0.0, 1.0), (1, 3))
        z = exp_or_inf(_log_z(s, 1e8))
        assert z == pytest.approx(4.0, rel=1e-6)


class TestPopulation:
    def test_profile_sums_to_one(self):
        s = dimer_spectrum(DimerParams(1.0, 1.0))
        kts = np.geomspace(0.1, 10.0, 7)
        total = sum(g * np.exp(log_population(s, kts, j)) for j, g in enumerate(s.degeneracies))
        np.testing.assert_allclose(total, 1.0, rtol=1e-14)

    def test_per_state_vs_aggregated(self):
        # the three excited states together hold 3 e^{-1/kT} / (1 + 3 e^{-1/kT})
        s = Spectrum((0.0, 1.0), (1, 3))
        kts = np.array([0.5, 2.0, 8.0])
        w = 3.0 * np.exp(-1.0 / kts)
        excited = 3.0 * np.exp(log_population(s, kts, 1))
        np.testing.assert_allclose(excited, w / (1.0 + w), rtol=1e-14)

    def test_ground_population_monotone_in_temperature(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            energies = np.cumsum(rng.uniform(0.05, 2.0, n)) - 1.0
            degs = tuple(int(d) for d in rng.integers(1, 4, n))
            s = Spectrum(tuple(energies), degs)
            pops = [log_population(s, kt, 0) for kt in np.geomspace(0.05, 50.0, 50).tolist()]
            assert all(a > b for a, b in zip(pops, pops[1:]))

    def test_level_index_bounds(self):
        s = Spectrum((0.0, 1.0), (1, 1))
        with pytest.raises(ThermwitError, match=r"level 2 outside 0\.\.1"):
            log_population(s, 1.0, 2)


def _log_g(s):
    """math.log of each level's exact degeneracy, as the kernel takes it."""
    return np.array([math.log(g) for g in s.degeneracies])


def _top_and_others(a):
    """The largest term m and the others, level 0's term in the top's slot."""
    top = int(np.argmax(a))
    others = a.copy()
    others[top] = a[0]
    return float(a[top]), others[1:]


def _one_point_terms(s, kt):
    """log sum_j g_j e^{-(E_j - E0)/kT} in the kernel's form with every term
    exponentiated, no cut and no block: m + log1p(e^{m2-m} * S2), with m2 the
    largest of the others and S2 their sum of e^{a_j - m2}. With one log g
    for all levels that log g comes out of the sum."""
    e = s.energies
    log_g = _log_g(s)
    one_log_g = bool(np.all(log_g == log_g[0]))
    a = -((e - e[0]) / kt) if one_log_g else log_g - (e - e[0]) / kt
    m, others = _top_and_others(a)
    m2 = float(np.max(others))
    f = math.exp(m2 - m)
    lse = m + math.log1p(f * float(np.sum(np.exp(others - m2)))) if f else m
    return float(log_g[0]) + lse if one_log_g else lse


def _hex(values):
    return [float(v).hex() for v in values]


_SPECTRA = st.lists(
    st.tuples(st.floats(min_value=-1e3, max_value=1e3), st.integers(1, 10**6)),
    min_size=2, max_size=64, unique_by=lambda x: x[0],
).map(lambda levels: Spectrum(*zip(*sorted(levels))))
_KTS = st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=40)


class TestGridKernel:
    """An array of kT gives, point for point, the bits of a one-kT call, and
    those are the bits of the kernel's form with every term exponentiated."""

    @given(s=_SPECTRA, level=st.integers(0, 63), kts=_KTS)
    @example(s=dimer_spectrum(DimerParams(2.1, 1.0)), level=0, kts=[0.05])
    @settings(max_examples=300, deadline=None)
    def test_log_population(self, s, level, kts):
        j = level % s.n_levels
        grid = log_population(s, np.array(kts), j)
        points = [log_population(s, kt, j) for kt in kts]
        assert isinstance(grid, np.ndarray) and grid.shape == (len(kts),)
        assert all(type(x) is float for x in points)
        assert _hex(grid) == _hex(points)
        shift = [(s.energies[j] - s.ground_energy) / kt for kt in kts]
        assert _hex(points) == _hex(-d - _one_point_terms(s, kt) for d, kt in zip(shift, kts))

    @given(s=_SPECTRA, kts=_KTS)
    @settings(max_examples=300, deadline=None)
    def test_log_z_from_log_population(self, s, kts):
        grid = _log_z(s, np.array(kts))
        points = [_log_z(s, kt) for kt in kts]
        assert isinstance(grid, np.ndarray) and grid.shape == (len(kts),)
        assert all(type(x) is float for x in points)
        assert _hex(grid) == _hex(points)
        assert _hex(points) == _hex(
            -s.ground_energy / kt + _one_point_terms(s, kt) for kt in kts
        )

    @given(
        alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        n_levels=st.integers(min_value=2, max_value=3000),
        kts=_KTS,
    )
    @settings(max_examples=150, deadline=None)
    def test_log_ground_population_alpha_closed(self, alpha, n_levels, kts):
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=alpha, n_levels=n_levels)
        grid = log_ground_population_alpha_closed(p, np.array(kts))
        points = [log_ground_population_alpha_closed(p, kt) for kt in kts]
        assert isinstance(grid, np.ndarray) and grid.shape == (len(kts),)
        assert all(type(x) is float for x in points)
        assert _hex(grid) == _hex(points)

    @pytest.mark.parametrize("b", [0.0, 1.3, 1.7, 2.1, 3.0, 4.0, 5.3])
    def test_dimer_grid_keeps_the_one_point_bits(self, b):
        # numpy's log in place of math.log moves some of these by an ulp
        s = dimer_spectrum(DimerParams(b, 1.0))
        kts = np.geomspace(1e-6, 1e6, 2000)
        for j in range(s.n_levels):
            expected = [
                -((s.energies[j] - s.ground_energy) / kt) - _one_point_terms(s, kt)
                for kt in kts.tolist()
            ]
            assert _hex(log_population(s, kts, j)) == _hex(expected), j

    def test_grid_shape_carries_through(self):
        s = dimer_spectrum(DimerParams(1.3, 1.0))
        kts = np.geomspace(0.1, 10.0, 6).reshape(2, 3)
        assert log_population(s, kts, 1).shape == (2, 3)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_kt(self, bad):
        # every public function that takes kT, at that one kT; those that take
        # an array of kT also with it inside one
        s = dimer_spectrum(DimerParams(1.0, 1.0))
        h = build_dimer_hamiltonian(DimerParams(1.0, 1.0))
        ladders = [ToySpectrumParams(0.0, 1.0, alpha, 10) for alpha in (0.0, 0.5, 1.0)]
        grid_kernels = {
            "log_population": lambda kt: log_population(s, kt),
            "thermal_density_matrix": lambda kt: thermal_density_matrix(h, kt),
            **{
                f"log_ground_population_alpha_closed[alpha={p.alpha}]": (
                    lambda kt, p=p: log_ground_population_alpha_closed(p, kt)
                )
                for p in ladders
            },
            "flip_probability_from_temperature": (
                lambda kt: flip_probability_from_temperature(1.0, kt)
            ),
        }
        scalar_kernels = {
            "log_partition_function_alpha_gamma": (
                lambda kt: log_partition_function_alpha_gamma(ladders[1], kt)
            ),
            "dimer_condition_margin": lambda kt: dimer_condition_margin(1.0, 1.0, kt),
        }
        calls = [(name, call, bad) for name, call in {**grid_kernels, **scalar_kernels}.items()]
        calls += [(name, call, np.array([1.0, bad])) for name, call in grid_kernels.items()]
        accepted = []
        for name, call, kt in calls:
            try:
                call(kt)
            except ThermwitError as exc:
                assert "kT must be positive" in str(exc), name
            else:
                accepted.append((name, kt))
        assert accepted == []


class TestThermalDensityMatrix:
    def test_matches_expm(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = 0.5 * (g + g.conj().T)
            kt = float(rng.uniform(0.3, 5.0))
            direct = scipy.linalg.expm(-h / kt)
            direct /= np.trace(direct).real
            assert np.allclose(thermal_density_matrix(h, kt), direct, atol=1e-11)

    def test_unit_trace_and_positivity(self):
        h = build_dimer_hamiltonian(DimerParams(2.0, 1.0))
        rho = thermal_density_matrix(h, 0.9)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.min(np.linalg.eigvalsh(rho)) >= 0.0


    def test_stack_of_temperatures_matches_each_point(self):
        rng = np.random.default_rng(6)
        for dim in (2, 4, 8, 12):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = 0.5 * (g + g.conj().T)
            kts = rng.uniform(0.05, 6.0, size=20)
            stack = thermal_density_matrix(h, kts)
            assert stack.shape == (20, dim, dim)
            for kt, rho in zip(kts, stack):
                assert rho.tobytes() == thermal_density_matrix(h, kt).tobytes()

    def test_stack_of_hamiltonians_matches_each_one(self):
        rng = np.random.default_rng(7)
        hs = np.array([build_dimer_hamiltonian(DimerParams(b, 1.0)) for b in rng.uniform(0, 6, 30)])
        kts = rng.uniform(0.05, 6.0, size=30)
        stack = thermal_density_matrix(hs, kts)
        for h, kt, rho in zip(hs, kts, stack):
            assert rho.tobytes() == thermal_density_matrix(h, kt).tobytes()
        # one H against many kT, and many H against one kT, broadcast
        assert thermal_density_matrix(hs[:1], kts).shape == (30, 4, 4)
        assert thermal_density_matrix(hs, 0.7).shape == (30, 4, 4)

    @pytest.mark.parametrize("kts", [[1.0, 0.0], [-1.0], [1.0, math.nan]])
    def test_rejects_non_positive_kt(self, kts):
        h = build_dimer_hamiltonian(DimerParams(1.0, 1.0))
        with pytest.raises(ThermwitError):
            thermal_density_matrix(h, np.array(kts))


class TestRelativeEntropy:
    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_and_decreasing_location_free(self, kt, shift):
        # the relative entropy of the pure ground state to the Gibbs state,
        # -log p0, is positive, and shifting all energies leaves it unchanged
        s1 = Spectrum((0.0, 1.0, 2.5), (1, 2, 1))
        s2 = Spectrum((shift, 1.0 + shift, 2.5 + shift), (1, 2, 1))
        d1 = -log_population(s1, kt, 0)
        d2 = -log_population(s2, kt, 0)
        assert d1 >= 0.0
        assert d1 == pytest.approx(d2, rel=1e-10, abs=1e-12)


class TestLadderClosedForms:
    def test_matches_spectrum_route(self):
        for alpha in (0.0, 0.3, 0.5, 1.0):
            p = ToySpectrumParams(e0=-1.0, delta=0.7, alpha=alpha, n_levels=500)
            s = toy_spectrum(p)
            for kt in (0.2, 1.0, 4.0):
                assert log_ground_population_alpha_closed(p, kt) == pytest.approx(
                    log_population(s, kt, 0), rel=1e-12, abs=1e-12
                )

    def test_sqrt_alpha_value_at_unit_temperature(self):
        # exact sum 1 + sum_{m>=1} exp(-sqrt(m)) over a million levels
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.5, n_levels=10**6)
        z = exp_or_inf(-log_ground_population_alpha_closed(p, 1.0))
        assert z == pytest.approx(2.67040681796634, rel=1e-12)

    def test_gamma_route_matches_quadrature(self):
        for alpha in (0.4, 0.7, 1.0):
            p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=alpha, n_levels=10**6)
            for kt in (5.0, 20.0):
                integral, err = scipy.integrate.quad(
                    lambda m: math.exp(-(m**alpha) / kt), 0.0, math.inf
                )
                lg = log_partition_function_alpha_gamma(p, kt)
                assert math.exp(lg) == pytest.approx(integral, rel=1e-8)

    def test_gamma_route_at_tiny_alpha(self):
        # from 1/alpha = 1e305 on the route takes Stirling's series, since
        # math.lgamma(1/alpha) overflows from about 2.5e305 on
        alpha = 5e-306
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=alpha, n_levels=2)
        for kt in (1e-300, 1.0, 10.0):
            # both sum terms near 1.4e308 to as little as 2.2e306, so each
            # carries ~60 ulps of cancellation
            direct = math.lgamma(1.0 / alpha) - math.log(alpha) + math.log(kt) / alpha
            assert log_partition_function_alpha_gamma(p, kt) == pytest.approx(direct, rel=1e-13)
        # past the overflow the log of the Gamma form is beyond float range
        for alpha in (2.2250738585072014e-308, 5e-324):
            p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=alpha, n_levels=2)
            assert log_partition_function_alpha_gamma(p, 1.0) == math.inf

    def test_gamma_route_when_kt_over_delta_underflows(self):
        # 1e-320 / 1e10 is 0.0 in floats: log kT - log delta stands in for its log
        p = ToySpectrumParams(e0=0.0, delta=1e10, alpha=0.5, n_levels=100)
        want = math.lgamma(2.0) - math.log(0.5) + 2.0 * (math.log(1e-320) - math.log(1e10))
        assert log_partition_function_alpha_gamma(p, 1e-320) == pytest.approx(want, rel=1e-15)
        # and in the Stirling branch for a tiny alpha
        assert math.isfinite(log_partition_function_alpha_gamma(replace(p, alpha=5e-306), 1e-320))

    def test_gamma_route_rejects_alpha_zero(self):
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.0, n_levels=100)
        with pytest.raises(ThermwitError, match="Gamma-integral form undefined at alpha = 0"):
            log_partition_function_alpha_gamma(p, 1.0)

    def test_linear_ladder_geometric_sum(self):
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=1.0, n_levels=50)
        q = math.exp(-0.5)
        exact = (1.0 - q**50) / (1.0 - q)
        z = exp_or_inf(-log_ground_population_alpha_closed(p, 2.0))
        assert z == pytest.approx(exact, rel=1e-13)


def _ladder_log1p_tail_reference(p, kt):
    """log(1 + tail) of the ladder as one expression: levels rebuilt, every term
    exponentiated. It is -log p0, and log Z of the e0 = 0 ladder."""
    m = np.arange(1, p.n_levels, dtype=float)
    terms = -np.power(m, p.alpha) * p.delta / kt
    mx = float(np.max(terms))
    tail = math.exp(mx) * float(np.sum(np.exp(terms - mx)))
    return math.log1p(tail)


def _filled_slots(call) -> int:
    """Slots that the kernel's leaves fill, computed or written as 0.0, during call()."""
    fill = thermwit.thermal._fill_terms
    filled = []

    def counting(src, start, stop, out):
        filled.append(stop - start)
        return fill(src, start, stop, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thermwit.thermal, "_fill_terms", counting)
        call()
    return sum(filled)


class TestLadderKernelBits:
    @given(
        n_levels=st.integers(min_value=2, max_value=2 * 10**5),
        alpha=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        delta=st.floats(min_value=1e-3, max_value=1e3),
        e0=st.floats(min_value=-10.0, max_value=10.0),
        depth=st.floats(min_value=1e-3, max_value=1e4),
    )
    @example(n_levels=2 * 10**5, alpha=0.5, delta=1.0, e0=0.0, depth=730.0)  # subnormal tail
    @example(n_levels=2 * 10**5, alpha=0.5, delta=1.0, e0=0.0, depth=3000.0)  # both bands
    @example(n_levels=2 * 10**5, alpha=1.0, delta=2.0, e0=1.0, depth=1e4)
    # a million levels with the deepest term on both sides of the subnormal
    # edge of exp and of its zero edge, and at -746
    @example(n_levels=10**6, alpha=0.5, delta=1.0, e0=0.0, depth=708.3)
    @example(n_levels=10**6, alpha=0.5, delta=1.0, e0=0.0, depth=708.5)
    @example(n_levels=10**6, alpha=0.5, delta=1.0, e0=0.0, depth=745.1)
    @example(n_levels=10**6, alpha=0.5, delta=1.0, e0=0.0, depth=745.2)
    @example(n_levels=10**6, alpha=0.5, delta=1.0, e0=0.0, depth=745.9)
    @example(n_levels=10**6, alpha=0.5, delta=1.0, e0=0.0, depth=746.1)
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_reference(self, n_levels, alpha, delta, e0, depth):
        # kT puts the deepest shifted term at -depth, so draws past 708 reach
        # the subnormal band of exp and past 745 its zero band
        p = ToySpectrumParams(e0=e0, delta=delta, alpha=alpha, n_levels=n_levels)
        width = delta * (float(n_levels - 1) ** alpha - 1.0)
        kt = (width if width > 0 else delta) / depth
        # log p0 carries no e0: the same bits as the e0 = 0 ladder's
        log_p0 = log_ground_population_alpha_closed(p, kt)
        assert log_p0.hex() == (-_ladder_log1p_tail_reference(p, kt)).hex()
        assert log_p0.hex() == log_ground_population_alpha_closed(replace(p, e0=0.0), kt).hex()

    def test_skipped_subtrees_keep_the_bits(self):
        # the bench grid's kTs and the crossing's probes on the D = 10^6,
        # alpha = 0.5 ladder, where the sum leaves out subtrees below half an
        # ulp; one-point calls and one grid call
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.5, n_levels=10**6)
        kts = [1.0, 1.5, 3.0, 10.0, 1e-6, 282.6, 1e7]
        grid = log_ground_population_alpha_closed(p, np.array(kts))
        for kt, from_grid in zip(kts, grid.tolist()):
            want = (-_ladder_log1p_tail_reference(p, kt)).hex()
            assert log_ground_population_alpha_closed(p, kt).hex() == want, kt
            assert from_grid.hex() == want, kt

    @pytest.mark.parametrize("kt, most", [(1.5, 2**16), (10.0, 3 * 10**5)])
    def test_one_point_call_fills_few_slots(self, kt, most):
        # the D = 10^6 ladder computes only the head of its pairwise tree
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.5, n_levels=10**6)
        assert 0 < _filled_slots(lambda: log_ground_population_alpha_closed(p, kt)) < most

    @pytest.mark.parametrize("n_levels", [2, 3, 10**6])
    def test_alpha_zero_same_bits_as_reference(self, n_levels):
        # alpha = 0 is the two-level spectrum: one excited level of degeneracy
        # D-1, at kT from deep below -delta/kT = -746 to 1e7, and with
        # -delta/kT on both sides of the subnormal and zero edges of exp
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.0, n_levels=n_levels)
        s = toy_spectrum(p)
        assert s.degeneracies == (1, n_levels - 1) and s.energies[1] == 1.0
        depths = [708.3, 708.5, 745.1, 745.2, 745.9, 746.0, 746.1]
        for kt in np.geomspace(1e-4, 1e7, 45).tolist() + [1.0 / d for d in depths]:
            got = log_ground_population_alpha_closed(p, kt)
            assert got.hex() == (-_one_point_terms(s, kt)).hex(), kt
            assert got.hex() == log_population(s, kt, 0).hex(), kt

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_overflowing_delta_over_kt_gives_p0_one(self, alpha):
        # -delta/kT overflows to -inf, where shifting by the largest term
        # would give -inf - -inf = NaN; p0 is 1 to the last bit
        p = ToySpectrumParams(e0=0.0, delta=1e300, alpha=alpha, n_levels=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kt in (1e-10, 1e-300, 5e-324):
                got = log_ground_population_alpha_closed(p, kt)
                assert got.hex() == (-0.0).hex()

    def test_cached_levels_read_only_and_evicted(self):
        a = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.5, n_levels=1000)
        b = ToySpectrumParams(e0=0.0, delta=2.0, alpha=0.3, n_levels=700)
        first = [log_ground_population_alpha_closed(p, 0.7).hex() for p in (a, b)]
        assert [log_ground_population_alpha_closed(p, 0.7).hex() for p in (a, b)] == first
        assert [(-_ladder_log1p_tail_reference(p, 0.7)).hex() for p in (a, b)] == first
        assert _ladder_levels(b) is _ladder_levels(b)
        with pytest.raises(ValueError):
            _ladder_levels(b)[0][0] = 0.0


def _random_spectrum(n_levels: int, seed: int, max_deg_exp: int) -> Spectrum:
    """Ascending levels in [-3, 3] with degeneracies log-uniform up to 10**max_deg_exp."""
    rng = np.random.default_rng(seed)
    energies = np.unique(rng.uniform(-3.0, 3.0, n_levels))
    degs = [int(10 ** rng.uniform(0.0, max_deg_exp)) for _ in energies]
    return Spectrum(tuple(energies.tolist()), tuple(degs))


def _kt_at_depth(s: Spectrum, depth: float) -> float:
    """kT at which the lowest shifted log term sits depth below the highest."""
    gap = s.energies - s.ground_energy
    log_g = _log_g(s)

    def spread(beta: float) -> float:
        terms = log_g - gap * beta
        return float(np.max(terms) - np.min(terms)) - depth

    # spread(0) < 0 as ln(1e40) < depth; at the upper end the top term is at
    # least log g0 and the last level's sits depth + 100 below its log g
    return 1.0 / scipy.optimize.brentq(spread, 0.0, (depth + 100.0) / gap[-1], xtol=1e-300)


class TestSpectrumKernelBits:
    def test_exp_tiny_cut_on_installed_numpy(self):
        # the kernels write 0.0 at or below EXP_TINY instead of calling exp,
        # whose result there is subnormal or zero
        assert np.exp(EXP_TINY) < np.finfo(float).tiny
        assert np.exp(EXP_TINY + 0.01) >= np.finfo(float).tiny

    def test_nan_term_gives_nan(self):
        # at kT = inf an infinite excitation's term is inf/inf = NaN: the
        # kernel cuts nothing there, so the NaN reaches the sum; at kT = 1
        # that term is -inf and counts as 0. A Spectrum's energies are finite,
        # so these levels go to the kernel directly.
        levels = (np.array([0.0, 1.0, math.inf]), 0.0, 0.0, 0.0)
        assert math.isnan(thermwit.thermal._log_sums(levels, np.array([math.inf]))[0])
        got = thermwit.thermal._log_sums(levels, np.array([1.0, math.inf]))
        assert got[0] == pytest.approx(math.log1p(math.exp(-1.0))) and math.isnan(got[1])

    @given(
        n_levels=st.integers(min_value=2, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_deg_exp=st.integers(min_value=0, max_value=40),
        depth=st.floats(min_value=600.0, max_value=900.0),
    )
    @example(n_levels=2000, seed=0, max_deg_exp=40, depth=708.3)
    @example(n_levels=2000, seed=0, max_deg_exp=40, depth=708.5)
    @example(n_levels=2000, seed=0, max_deg_exp=40, depth=745.1)
    @example(n_levels=2000, seed=0, max_deg_exp=40, depth=746.1)
    @example(n_levels=2000, seed=1, max_deg_exp=0, depth=708.3)
    @example(n_levels=2000, seed=1, max_deg_exp=0, depth=708.5)
    @example(n_levels=2000, seed=1, max_deg_exp=0, depth=745.1)
    @example(n_levels=2000, seed=1, max_deg_exp=0, depth=746.1)
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_reference(self, n_levels, seed, max_deg_exp, depth):
        # the first kT puts the deepest shifted term at -depth, and the others
        # move it to between depth / 1.25 and 1.25 * depth, so every draw has
        # points past the subnormal edge of exp, 708.4, and many past 745.13
        s = _random_spectrum(n_levels, seed, max_deg_exp)
        kts = _kt_at_depth(s, depth) * np.array([1.0, 0.8, 0.9, 1.1, 1.25])
        kernels = {
            "log_p0": lambda t: log_population(s, t, 0),
            "log_p1": lambda t: log_population(s, t, 1),
            "log_z": lambda t: _log_z(s, t),
        }
        grid = {name: f(kts) for name, f in kernels.items()}
        for i, kt in enumerate(kts.tolist()):
            lse = _one_point_terms(s, kt)  # exponentiates every term
            want = {
                "log_p0": -(s.energies[0] - s.ground_energy) / kt - lse,
                "log_p1": -(s.energies[1] - s.ground_energy) / kt - lse,
                "log_z": -s.ground_energy / kt + lse,
            }
            for name, f in kernels.items():
                ref = np.asarray(want[name]).tobytes()
                assert np.asarray(f(kt)).tobytes() == ref, (name, kt)
                assert grid[name][i].tobytes() == ref, (name, kt)


def _spectrum_of_size(n_levels: int, seed: int, max_deg_exp: int) -> Spectrum:
    """Exactly n_levels ascending levels in about [-3, 3]; the ground level is
    nondegenerate, the others log-uniform up to 10**max_deg_exp."""
    rng = np.random.default_rng(seed)
    energies = np.cumsum(rng.uniform(0.5, 1.5, n_levels)) * (6.0 / n_levels) - 3.0
    degs = [1] + [int(10 ** rng.uniform(0.0, max_deg_exp)) for _ in range(n_levels - 1)]
    return Spectrum(energies, tuple(degs))


def _assert_every_term_bits(s: Spectrum, kts: np.ndarray) -> None:
    """Grid and one-point calls against the sum that exponentiates every term.

    At a subnormal kT the gap to level 1 over kT, and E0/kT, overflow to inf
    in the kernels and the reference alike.
    """
    kernels = {
        "log_p0": lambda t: log_population(s, t, 0),
        "log_p1": lambda t: log_population(s, t, 1),
        "log_z": lambda t: _log_z(s, t),
    }
    with np.errstate(over="ignore"):
        grids = {name: f(kts) for name, f in kernels.items()}
    for i, kt in enumerate(kts.tolist()):
        with np.errstate(over="ignore"):
            lse = _one_point_terms(s, kt)
            points = {name: f(kt) for name, f in kernels.items()}
            want = {
                "log_p0": -((s.energies[0] - s.ground_energy) / kt) - lse,
                "log_p1": -((s.energies[1] - s.ground_energy) / kt) - lse,
                "log_z": -s.ground_energy / kt + lse,
            }
        for name, value in want.items():
            assert float(grids[name][i]).hex() == value.hex(), (name, kt)
            assert points[name].hex() == value.hex(), (name, kt)


def _assert_cut_drops_only_tiny_terms(s: Spectrum, kt: float) -> None:
    """Every term past the kernel's cut for kT, at kT and at smaller kT, is at
    or below EXP_TINY against m2 in the every-term reference."""
    cut = thermwit.thermal._cut(s._levels, kt)
    assert 2 <= cut <= s.n_levels
    e = s.energies
    for t in (kt, kt / 3.0, max(kt * 1e-9, 5e-324)):
        with np.errstate(over="ignore"):
            a = _log_g(s) - (e - e[0]) / t
        m2 = float(np.max(_top_and_others(a)[1]))
        with np.errstate(invalid="ignore"):
            # where m2 is -inf the kernel returns m without the sum
            assert m2 == -math.inf or np.all(a[cut:] - m2 <= EXP_TINY), (kt, t)


class TestSpectrumKernelBlocks:
    """Row blocks and the sorted cut keep the bits of the every-term sum."""

    @given(
        block=st.sampled_from([7, 64, 1000]),
        n_levels=st.sampled_from([2, 3, 6, 7, 8, 63, 64, 65, 300, 999, 1000, 1001, 2500]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_deg_exp=st.sampled_from([0, 3, 40]),
        depth=st.floats(min_value=100.0, max_value=2000.0),
    )
    @example(block=64, n_levels=65, seed=0, max_deg_exp=40, depth=708.4)
    @example(block=7, n_levels=8, seed=1, max_deg_exp=0, depth=745.2)
    @settings(max_examples=120, deadline=None)
    def test_blocks_and_cut_keep_the_bits(self, block, n_levels, seed, max_deg_exp, depth):
        # 41 kT around the one that puts the deepest term at -depth, shuffled,
        # so that rows of very different cuts share a block; with 7, 64 and
        # 1000 terms a block, the grids split across block edges
        s = _spectrum_of_size(n_levels, seed, max_deg_exp)
        kts = _kt_at_depth(s, depth) * np.geomspace(0.02, 50.0, 41)
        np.random.default_rng(seed).shuffle(kts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thermwit.thermal, "BLOCK_TERMS", block)
            _assert_every_term_bits(s, kts)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_spectra_at_the_block_size(self, offset):
        # one row a block, at the real block size and one level either side
        s = _spectrum_of_size(thermwit.thermal.BLOCK_TERMS + offset, offset + 5, 40)
        kts = np.array([1e-3, 0.01, 0.1, 1.0, 10.0, 1e3, 1e6])
        _assert_every_term_bits(s, kts)

    def test_loose_cut_bound_with_degeneracies_to_1e40(self):
        # log g spans 0 to ln(1e40) = 92.1, so the cut sits 92 kT further out
        # than a nondegenerate spectrum's; alternating degeneracies put huge
        # weights just past levels that are tiny
        n = 5000
        energies = np.linspace(0.0, 50.0, n)
        degs = (1,) + tuple(10**40 if i % 2 else 1 for i in range(1, n))
        s = Spectrum(energies, degs)
        assert s._levels[3] == math.log(10**40)
        kts = np.geomspace(1e-3, 10.0, 60)
        _assert_every_term_bits(s, kts)
        for kt in kts.tolist():
            _assert_cut_drops_only_tiny_terms(s, kt)

    def test_skipped_subtrees_with_degeneracies_to_1e40(self):
        # 3 * 10^5 levels take one row a block and the path with a log g per
        # level; up to kT = 1 the top is a degenerate level, not level 0, and
        # at kT = 1e-3 the sum leaves most of the tree out
        s = _spectrum_of_size(3 * 10**5, 7, 40)
        kts = np.array([1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0, 1e3])
        x = s.energies - s.ground_energy
        tops = [int(np.argmax(_log_g(s) - x / kt)) for kt in kts[:5].tolist()]
        assert 0 not in tops
        _assert_every_term_bits(s, kts)
        assert _filled_slots(lambda: log_population(s, 1e-3)) < s.n_levels // 2

    def test_subnormal_kt(self):
        s = _spectrum_of_size(300, 11, 40)
        kts = np.array([5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0])
        _assert_every_term_bits(s, kts)
        assert log_population(s, 5e-324, 0) == 0.0

    def test_excited_levels_at_subnormal_kt(self):
        # each excited level's shift overflows to inf: log p is -inf, with no
        # overflow warning, at one kT and in a grid
        s = _spectrum_of_size(300, 11, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(1, s.n_levels):
                assert log_population(s, 1e-320, j) == -math.inf, j
                assert log_population(s, np.array([1e-320, 1.0]), j)[0] == -math.inf, j

    @given(
        n_levels=st.integers(min_value=2, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_deg_exp=st.sampled_from([0, 3, 40, 300]),
        log_kt=st.floats(min_value=-323.0, max_value=307.0),
    )
    @example(n_levels=3000, seed=0, max_deg_exp=300, log_kt=-323.0)
    @example(n_levels=3000, seed=0, max_deg_exp=0, log_kt=-2.0)
    @settings(max_examples=150, deadline=None)
    def test_cut_drops_only_terms_the_mask_writes_as_zero(
        self, n_levels, seed, max_deg_exp, log_kt
    ):
        # every term past the cut, at its kT and at smaller kT, is at or below
        # EXP_TINY in the every-term reference
        _assert_cut_drops_only_tiny_terms(
            _spectrum_of_size(n_levels, seed, max_deg_exp), max(10.0**log_kt, 5e-324)
        )

    def test_rows_of_one_grid_call_need_no_common_cut(self):
        # the block's cut follows its largest kT, so a row at a small kT gets
        # terms computed past its own cut; they are still written as 0.0
        s = _spectrum_of_size(2000, 3, 0)
        kts = np.array([1e-4, 1e4, 1e-3, 5.0, 1e-4])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thermwit.thermal, "BLOCK_TERMS", 2 * 2000)
            _assert_every_term_bits(s, kts)


class TestPairwiseTree:
    """The kernel's walk adds slot ranges in numpy's own pairwise order.

    It relies on how numpy's pairwise sum (np.add.reduce along a contiguous
    float64 axis) works: a range of at most 128 slots, its block size, is
    summed in one pass with 8 accumulators, and a longer one splits at n/2
    rounded down to a multiple of 8. A numpy that changes any of this fails
    here first.
    """

    @given(
        n=st.integers(min_value=1, max_value=3 * 10**5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        spread=st.sampled_from([0.0, 3.0, 40.0]),
        leaf=st.sampled_from([128, LEAF]),
    )
    @example(n=127, seed=0, spread=3.0, leaf=128)
    @example(n=128, seed=0, spread=3.0, leaf=128)
    @example(n=129, seed=0, spread=3.0, leaf=128)
    @example(n=136, seed=0, spread=3.0, leaf=128)
    @example(n=LEAF - 1, seed=1, spread=0.0, leaf=LEAF)
    @example(n=LEAF + 1, seed=1, spread=0.0, leaf=LEAF)
    @example(n=2**17 - 1, seed=2, spread=40.0, leaf=LEAF)
    @example(n=2**17 + 1, seed=2, spread=40.0, leaf=LEAF)
    @example(n=10**6 - 1, seed=3, spread=3.0, leaf=LEAF)
    @example(n=10**6 - 1, seed=3, spread=3.0, leaf=128)
    @settings(max_examples=60, deadline=None)
    def test_walk_without_skipping_is_np_sum(self, n, seed, spread, leaf):
        # non-negative terms over up to 40 e-folds; the row of a 2-D block
        # starts one slot in, as the kernel's slots 1..n-1 do
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1.0, n) * np.exp(rng.uniform(-spread, 0.0, n))
        block = np.zeros((2, n + 1))
        block[1, 1:] = a
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thermwit.thermal, "LEAF", leaf)
            walk = thermwit.thermal._pairwise_sum(
                lambda start, stop: float(np.sum(a[start:stop])), 0, n, lambda *_: False
            )
        assert walk.hex() == float(np.sum(a)).hex()
        assert walk.hex() == float(block[:, 1:].sum(axis=1)[1]).hex()

    @given(left=st.floats(min_value=0.0, max_value=sys.float_info.max), data=st.data())
    @settings(max_examples=300)
    def test_below_half_an_ulp_adds_nothing(self, left, data):
        # the skip: fl(L + R) is L for 0 <= R < ulp(L)/2
        half = math.ulp(left) / 2
        right = data.draw(st.floats(min_value=0.0, max_value=half))
        assume(right < half)
        assert left + right == left


class TestLadderConcavity:
    @given(
        n_levels=st.integers(min_value=2, max_value=10**4),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        e0=st.floats(min_value=-5.0, max_value=5.0),
        beta0=st.floats(min_value=1e-2, max_value=10.0),
        step=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_log_p0_concave_in_beta(self, n_levels, alpha, e0, beta0, step):
        # d^2/dbeta^2 log p0 = -Var(E) <= 0: second differences on a beta grid
        # are at most rounding above zero
        p = ToySpectrumParams(e0=e0, delta=1.0, alpha=alpha, n_levels=n_levels)
        betas = beta0 + step * np.arange(12)

        f = [log_ground_population_alpha_closed(p, 1.0 / float(b)) for b in betas]
        for k in range(1, len(f) - 1):
            scale = abs(f[k - 1]) + 2.0 * abs(f[k]) + abs(f[k + 1]) + abs(e0) * betas[k + 1]
            assert f[k - 1] - 2.0 * f[k] + f[k + 1] <= 64 * np.finfo(float).eps * scale


class TestPopulationConcavity:
    @given(
        levels=st.lists(
            st.tuples(st.floats(min_value=-5.0, max_value=5.0), st.integers(1, 5)),
            min_size=1, max_size=12, unique_by=lambda x: x[0],
        ),
        level=st.integers(min_value=0, max_value=11),
        beta0=st.floats(min_value=1e-2, max_value=10.0),
        step=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_log_population_concave_in_beta(self, levels, level, beta0, step):
        # log p_j = -beta (E_j - E0) - log sum_i g_i e^{-beta (E_i - E0)} has
        # second derivative -Var(E) <= 0 in beta, for any level j: second
        # differences on a beta grid are at most rounding above zero
        levels.sort()
        s = Spectrum(tuple(e for e, _ in levels), tuple(g for _, g in levels))
        j = level % s.n_levels
        betas = beta0 + step * np.arange(12)
        f = [log_population(s, 1.0 / float(b), j) for b in betas]
        spread = s.energies[-1] - s.energies[0]
        for k in range(1, len(f) - 1):
            scale = abs(f[k - 1]) + 2.0 * abs(f[k]) + abs(f[k + 1]) + spread * betas[k + 1]
            assert f[k - 1] - 2.0 * f[k] + f[k + 1] <= 64 * np.finfo(float).eps * scale


def _stabilizer_log_z(n, b, kt):
    """Closed form log Z = n (log(1 + e^{2B/kT}) - B/kT) of n independent generators."""
    x = 2.0 * b / kt
    return n * (float(np.logaddexp(0.0, x)) - 0.5 * x)


class TestStabilizerPartition:
    def test_matches_spectrum_route(self):
        for n, b, kt in [(3, 1.0, 0.5), (8, 2.0, 3.0), (200, 0.5, 1.1)]:
            assert _log_z(stabilizer_spectrum(n, b), kt) == pytest.approx(
                _stabilizer_log_z(n, b, kt), rel=1e-12
            )

    def test_factorizes_over_sites(self):
        one = _log_z(stabilizer_spectrum(1, 1.0), 1.3)
        ten = _log_z(stabilizer_spectrum(10, 1.0), 1.3)
        assert ten == pytest.approx(10.0 * one, rel=1e-13)
