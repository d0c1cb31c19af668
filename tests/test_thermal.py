"""Tests for partition functions, populations, and Gibbs states.

Closed forms are cross-checked against independent routes: direct
exponential sums, scipy matrix exponentials, and quadrature of the
continuum integral behind the Gamma-function approximation.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermwit.errors import AlphaZero, DegenerateGround, IndexOutOfRange, ThermwitError
from thermwit.systems import (
    DimerParams,
    Spectrum,
    ToySpectrumParams,
    build_dimer_hamiltonian,
    dimer_spectrum,
    toy_spectrum,
)
from thermwit.thermal import (
    EXP_ZERO,
    ThermalPoint,
    _ladder_levels,
    exp_or_inf,
    log_ground_population_alpha_closed,
    log_partition_function,
    log_partition_function_alpha_closed,
    log_partition_function_alpha_gamma,
    log_stabilizer_partition_function,
    log_population,
    population_profile,
    relative_entropy_ground_to_thermal,
    thermal_density_matrix,
)


class TestThermalPoint:
    def test_kt_product(self):
        assert ThermalPoint(2.0, 0.5).kt == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ThermwitError):
            ThermalPoint(0.0)
        with pytest.raises(ThermwitError):
            ThermalPoint(1.0, -1.0)


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
            t = ThermalPoint(float(rng.uniform(0.1, 10.0)))
            direct = float(np.sum(degs * np.exp(-energies / t.kt)))
            assert exp_or_inf(log_partition_function(s, t)) == pytest.approx(direct, rel=1e-12)

    def test_against_matrix_trace(self):
        for b, j, temp in [(0.0, 1.0, 1.0), (1.0, 1.0, 2.5), (3.0, 0.8, 0.7)]:
            h = build_dimer_hamiltonian(DimerParams(b, j))
            t = ThermalPoint(temp)
            z_trace = float(np.trace(scipy.linalg.expm(-h / t.kt)).real)
            z_closed = exp_or_inf(log_partition_function(dimer_spectrum(DimerParams(b, j)), t))
            assert z_closed == pytest.approx(z_trace, rel=1e-9)

    def test_deep_spectrum_no_overflow(self):
        s = Spectrum((-2000.0, 0.0), (1, 1))
        t = ThermalPoint(1.0)
        assert math.isinf(exp_or_inf(log_partition_function(s, t)))
        assert log_partition_function(s, t) == pytest.approx(2000.0)
        assert math.exp(log_population(s, t, 0)) == pytest.approx(1.0)

    def test_infinite_temperature_limit(self):
        s = Spectrum((0.0, 1.0), (1, 3))
        z = exp_or_inf(log_partition_function(s, ThermalPoint(1e8)))
        assert z == pytest.approx(4.0, rel=1e-6)


class TestPopulation:
    def test_profile_sums_to_one(self):
        s = dimer_spectrum(DimerParams(1.0, 1.0))
        prof = population_profile(s, ThermalPoint(1.7))
        assert np.sum(prof) == pytest.approx(1.0)

    def test_per_state_vs_aggregated(self):
        s = Spectrum((0.0, 1.0), (1, 3))
        t = ThermalPoint(2.0)
        prof = population_profile(s, t)
        assert prof[1] == pytest.approx(3.0 * math.exp(log_population(s, t, 1)))

    def test_ground_population_monotone_in_temperature(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            energies = np.cumsum(rng.uniform(0.05, 2.0, n)) - 1.0
            degs = tuple(int(d) for d in rng.integers(1, 4, n))
            s = Spectrum(tuple(energies), degs)
            temps = np.geomspace(0.05, 50.0, 50)
            pops = [log_population(s, ThermalPoint(float(t)), 0) for t in temps]
            assert all(a > b for a, b in zip(pops, pops[1:]))

    def test_level_index_bounds(self):
        s = Spectrum((0.0, 1.0), (1, 1))
        with pytest.raises(IndexOutOfRange):
            log_population(s, ThermalPoint(1.0), 2)


class TestThermalDensityMatrix:
    def test_matches_expm(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = 0.5 * (g + g.conj().T)
            t = ThermalPoint(float(rng.uniform(0.3, 5.0)))
            direct = scipy.linalg.expm(-h / t.kt)
            direct /= np.trace(direct).real
            assert np.allclose(thermal_density_matrix(h, t), direct, atol=1e-11)

    def test_unit_trace_and_positivity(self):
        h = build_dimer_hamiltonian(DimerParams(2.0, 1.0))
        rho = thermal_density_matrix(h, ThermalPoint(0.9))
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
                assert rho.tobytes() == thermal_density_matrix(h, ThermalPoint(kt)).tobytes()

    def test_stack_of_hamiltonians_matches_each_one(self):
        rng = np.random.default_rng(7)
        hs = np.array([build_dimer_hamiltonian(DimerParams(b, 1.0)) for b in rng.uniform(0, 6, 30)])
        kts = rng.uniform(0.05, 6.0, size=30)
        stack = thermal_density_matrix(hs, kts)
        for h, kt, rho in zip(hs, kts, stack):
            assert rho.tobytes() == thermal_density_matrix(h, ThermalPoint(kt)).tobytes()
        # one H against many kT, and many H against one kT, broadcast
        assert thermal_density_matrix(hs[:1], kts).shape == (30, 4, 4)
        assert thermal_density_matrix(hs, ThermalPoint(0.7)).shape == (30, 4, 4)

    @pytest.mark.parametrize("kts", [[1.0, 0.0], [-1.0], [1.0, math.nan]])
    def test_rejects_non_positive_kt(self, kts):
        h = build_dimer_hamiltonian(DimerParams(1.0, 1.0))
        with pytest.raises(ThermwitError):
            thermal_density_matrix(h, np.array(kts))


class TestRelativeEntropy:
    def test_equals_minus_log2_ground_population(self):
        s = dimer_spectrum(DimerParams(1.5, 1.0))
        t = ThermalPoint(2.0)
        d = relative_entropy_ground_to_thermal(s, t)
        assert d == pytest.approx(-math.log2(math.exp(log_population(s, t, 0))), rel=1e-13)

    def test_rejects_degenerate_ground(self):
        s = Spectrum((0.0, 1.0), (2, 1))
        with pytest.raises(DegenerateGround):
            relative_entropy_ground_to_thermal(s, ThermalPoint(1.0))

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_and_decreasing_location_free(self, temp, shift):
        # shifting all energies leaves the divergence unchanged
        s1 = Spectrum((0.0, 1.0, 2.5), (1, 2, 1))
        s2 = Spectrum((shift, 1.0 + shift, 2.5 + shift), (1, 2, 1))
        t = ThermalPoint(temp)
        d1 = relative_entropy_ground_to_thermal(s1, t)
        d2 = relative_entropy_ground_to_thermal(s2, t)
        assert d1 >= 0.0
        assert d1 == pytest.approx(d2, rel=1e-10, abs=1e-12)


class TestLadderClosedForms:
    def test_matches_spectrum_route(self):
        for alpha in (0.0, 0.3, 0.5, 1.0):
            p = ToySpectrumParams(e0=-1.0, delta=0.7, alpha=alpha, n_levels=500)
            s = toy_spectrum(p)
            for temp in (0.2, 1.0, 4.0):
                t = ThermalPoint(temp)
                assert log_partition_function_alpha_closed(p, t) == pytest.approx(
                    log_partition_function(s, t), rel=1e-12, abs=1e-12
                )

    def test_sqrt_alpha_value_at_unit_temperature(self):
        # exact sum 1 + sum_{m>=1} exp(-sqrt(m)) over a million levels
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.5, n_levels=10**6)
        z = exp_or_inf(log_partition_function_alpha_closed(p, ThermalPoint(1.0)))
        assert z == pytest.approx(2.67040681796634, rel=1e-12)

    def test_gamma_route_matches_quadrature(self):
        for alpha in (0.4, 0.7, 1.0):
            p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=alpha, n_levels=10**6)
            for kt in (5.0, 20.0):
                integral, err = scipy.integrate.quad(
                    lambda m: math.exp(-(m**alpha) / kt), 0.0, math.inf
                )
                lg = log_partition_function_alpha_gamma(p, ThermalPoint(kt))
                assert math.exp(lg) == pytest.approx(integral, rel=1e-8)

    def test_gamma_route_rejects_alpha_zero(self):
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.0, n_levels=100)
        with pytest.raises(AlphaZero):
            log_partition_function_alpha_gamma(p, ThermalPoint(1.0))

    def test_linear_ladder_geometric_sum(self):
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=1.0, n_levels=50)
        t = ThermalPoint(2.0)
        q = math.exp(-0.5)
        exact = (1.0 - q**50) / (1.0 - q)
        z = exp_or_inf(log_partition_function_alpha_closed(p, t))
        assert z == pytest.approx(exact, rel=1e-13)


def _ladder_log1p_tail_reference(p, t):
    """log(1 + tail) of the ladder as one expression: levels rebuilt, every term
    exponentiated."""
    m = np.arange(1, p.n_levels, dtype=float)
    terms = -np.power(m, p.alpha) * p.delta / t.kt
    mx = float(np.max(terms))
    tail = math.exp(mx) * float(np.sum(np.exp(terms - mx)))
    return math.log1p(tail)


def _ladder_log_z_reference(p, t):
    return -p.e0 / t.kt + _ladder_log1p_tail_reference(p, t)


class TestLadderKernelBits:
    def test_exp_zero_cut_on_installed_numpy(self):
        # the kernel writes 0.0 at or below EXP_ZERO instead of calling exp
        assert np.exp(EXP_ZERO) == 0.0
        assert np.all(np.exp(np.array([EXP_ZERO] * 16 + [-800.0, -1e300, -np.inf])) == 0.0)
        assert np.exp(-745.0) > 0.0

    @given(
        n_levels=st.integers(min_value=2, max_value=2 * 10**5),
        alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        delta=st.floats(min_value=1e-3, max_value=1e3),
        e0=st.floats(min_value=-10.0, max_value=10.0),
        depth=st.floats(min_value=1e-3, max_value=1e4),
    )
    @example(n_levels=2 * 10**5, alpha=0.5, delta=1.0, e0=0.0, depth=730.0)  # subnormal tail
    @example(n_levels=2 * 10**5, alpha=0.5, delta=1.0, e0=0.0, depth=3000.0)  # both bands
    @example(n_levels=2 * 10**5, alpha=1.0, delta=2.0, e0=1.0, depth=1e4)
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_reference(self, n_levels, alpha, delta, e0, depth):
        # kT puts the deepest shifted term at -depth, so draws past 708 reach
        # the subnormal band of exp and past 745 its zero band
        p = ToySpectrumParams(e0=e0, delta=delta, alpha=alpha, n_levels=n_levels)
        width = delta * (float(n_levels - 1) ** alpha - 1.0)
        t = ThermalPoint((width if width > 0 else delta) / depth)
        got = log_partition_function_alpha_closed(p, t)
        assert got.hex() == _ladder_log_z_reference(p, t).hex()
        # log p0 carries no e0: the same bits as the e0 = 0 ladder's -log Z
        log_p0 = log_ground_population_alpha_closed(p, t)
        assert log_p0.hex() == (-_ladder_log1p_tail_reference(p, t)).hex()
        assert log_p0.hex() == (-log_partition_function_alpha_closed(replace(p, e0=0.0), t)).hex()

    def test_cached_levels_read_only_and_evicted(self):
        a = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.5, n_levels=1000)
        b = ToySpectrumParams(e0=0.0, delta=2.0, alpha=0.3, n_levels=700)
        t = ThermalPoint(0.7)
        first = [log_partition_function_alpha_closed(p, t).hex() for p in (a, b)]
        assert [log_partition_function_alpha_closed(p, t).hex() for p in (a, b)] == first
        assert [_ladder_log_z_reference(p, t).hex() for p in (a, b)] == first
        assert _ladder_levels(b) is _ladder_levels(b)
        with pytest.raises(ValueError):
            _ladder_levels(b)[0] = 0.0


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

        def log_p0(beta):
            t = ThermalPoint(1.0 / beta)
            return -p.e0 / t.kt - log_partition_function_alpha_closed(p, t)

        f = [log_p0(float(b)) for b in betas]
        for k in range(1, len(f) - 1):
            scale = abs(f[k - 1]) + 2.0 * abs(f[k]) + abs(f[k + 1]) + abs(e0) * betas[k + 1]
            assert f[k - 1] - 2.0 * f[k] + f[k + 1] <= 64 * np.finfo(float).eps * scale


class TestStabilizerPartition:
    def test_matches_spectrum_route(self):
        from thermwit.systems import stabilizer_spectrum

        for n, b, temp in [(3, 1.0, 0.5), (8, 2.0, 3.0), (200, 0.5, 1.1)]:
            t = ThermalPoint(temp)
            lz = log_stabilizer_partition_function(n, b, t)
            assert lz == pytest.approx(
                log_partition_function(stabilizer_spectrum(n, b), t), rel=1e-12
            )

    def test_factorizes_over_sites(self):
        t = ThermalPoint(1.3)
        one = log_stabilizer_partition_function(1, 1.0, t)
        ten = log_stabilizer_partition_function(10, 1.0, t)
        assert ten == pytest.approx(10.0 * one, rel=1e-13)
