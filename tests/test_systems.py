"""Tests for model construction: spectra, states, Hamiltonians, graphs."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermwit.errors import ThermwitError
from thermwit.numerics import hermitian_eigendecompose
from thermwit.systems import (
    MERGE_TOL_SCALE,
    DimerParams,
    Graph,
    PureState,
    Spectrum,
    ToySpectrumParams,
    build_dimer_hamiltonian,
    build_stabilizer_hamiltonian,
    dicke_state,
    dimer_spectrum,
    graph_state,
    odd_weight_mask,
    read_edge_list,
    stabilizer_spectrum,
    toy_spectrum,
    write_edge_list,
)
from thermwit.systems import _stabilizer_action


def _generator(g, i):
    """K_i as a dense matrix, from the per-basis-state action the builder sums."""
    rows, sign = _stabilizer_action(g, i)
    op = np.zeros((rows.size, rows.size))
    op[rows, np.arange(rows.size)] = sign
    return op


def _merge_loop_reference(values):
    """Level merging one value at a time, in ascending order: a value joins
    the last level when its gap to the previous value is at most one
    tolerance, MERGE_TOL_SCALE times the largest |value|; each level is the
    mean of its values, summed as np.add.reduceat sums a segment: its first
    value plus numpy's pairwise sum of the rest."""
    ordered = sorted(float(v) for v in values)
    tol = MERGE_TOL_SCALE * max(abs(v) for v in ordered)
    groups = [[ordered[0]]]
    for prev, e in zip(ordered, ordered[1:]):
        if e - prev <= tol:
            groups[-1].append(e)
        else:
            groups.append([e])
    means = tuple((g[0] + float(np.sum(g[1:]))) / len(g) for g in groups)
    return means, tuple(map(len, groups))


class TestSpectrum:
    def test_basic_properties(self):
        s = Spectrum(energies=(-1.0, 0.5, 2.0), degeneracies=(1, 3, 2))
        assert s.dimension == 6
        assert s.n_levels == 3
        assert s.ground_energy == -1.0
        assert s.gap == 1.5
        assert s.spread == 3.0

    def test_level_arrays_are_read_only(self):
        values = np.array([0.5, -1.0, 2.0])
        for s in (Spectrum.from_values(values), Spectrum((-1.0, 0.5, 2.0), (1, 3, 2))):
            assert s.energies.dtype == np.float64
            assert not s.energies.flags.writeable
            with pytest.raises(ValueError):
                s.energies[0] = 0.0
        # the caller's array is copied, not frozen
        assert values.flags.writeable and values.tolist() == [0.5, -1.0, 2.0]
        # the kernel's per-level logs are math.log of each int, also frozen
        log_g = Spectrum((-1.0, 0.5, 2.0), (1, 3, 2))._levels[1]
        assert log_g.tolist() == [0.0, math.log(3), math.log(2)]
        assert not log_g.flags.writeable

    def test_from_values_merges_degenerate(self):
        s = Spectrum.from_values([0.0, 1.0, 1.0 + 1e-12, 2.0])
        assert s.degeneracies == (1, 2, 1)
        assert s.n_levels == 3

    def test_from_values_keeps_separated(self):
        s = Spectrum.from_values([0.0, 1.0, 1.001])
        assert s.degeneracies == (1, 1, 1)

    def test_rejects_unsorted(self):
        with pytest.raises(ThermwitError):
            Spectrum(energies=(1.0, 0.0), degeneracies=(1, 1))

    def test_rejects_bad_degeneracy(self):
        with pytest.raises(ThermwitError):
            Spectrum(energies=(0.0,), degeneracies=(0,))

    def test_rejects_equal_energies(self):
        with pytest.raises(ThermwitError, match="strictly ascending"):
            Spectrum(energies=(0.0, 0.0), degeneracies=(1, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_energies(self, bad):
        # one level has no order to check, so finiteness is checked on its own;
        # a RuntimeWarning on the way would be an error here
        for energies in [(bad,), (0.0, bad, 1.0), (bad, 0.0), (0.0, bad)]:
            with pytest.raises(ThermwitError, match="finite"):
                Spectrum(energies=energies, degeneracies=(1,) * len(energies))
            with pytest.raises(ThermwitError, match="finite"):
                Spectrum.from_values(list(energies))

    def test_rejects_a_span_that_overflows(self):
        # both energies are finite, but E_1 - E_0 is not; a RuntimeWarning on
        # the way would be an error here
        with pytest.raises(ThermwitError, match="span more than a float holds"):
            Spectrum(energies=(-1e308, 1e308), degeneracies=(1, 1))
        with pytest.raises(ThermwitError, match="span more than a float holds"):
            Spectrum.from_values([-1e308, 1e308])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                st.sampled_from([0.0, 1e-12, -3e-10, 5e-10, 9.99e-10, 2e-9, 1e-6]),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @example([(1.0, 0.0), (1.0, 1e-12), (1.0, -3e-10), (3.0, 0.0)])
    @example([(2.0, 0.0), (-1.0, 0.0), (-1.0, 0.0), (5.0, 0.0)])
    # the gap sits just inside the tolerance, then just outside it
    @example([(1000.0, 0.0), (1000.0, 9.99e-10), (1001.0, 0.0), (1001.0, 1.001e-9)])
    @settings(max_examples=300, deadline=None)
    def test_from_values_matches_merge_loop(self, draws):
        # values cluster within a few tolerances of each other, so gaps fall
        # on both sides of it
        top = max(abs(v) for v, _ in draws)
        values = [v + dv * top for v, dv in draws]
        energies, counts = _merge_loop_reference(values)
        got = Spectrum.from_values(values)
        assert [e.hex() for e in got.energies] == [e.hex() for e in energies]
        assert got.degeneracies == counts

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-2000, max_value=2000),
                st.sampled_from([0.0, 1e-12, 5e-10, 9.99e-10, 1.001e-9, 1e-6]),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=-900, max_value=900),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_values_is_unit_free(self, draws, k):
        # 2^k scales the values, the one tolerance and each level's mean
        # exactly, so the levels scale and the degeneracies stay
        values = [v + dv * 2000.0 for v, dv in draws]
        plain = Spectrum.from_values(values)
        scaled = Spectrum.from_values(np.ldexp(values, k))
        assert scaled.degeneracies == plain.degeneracies
        assert scaled.energies.tolist() == np.ldexp(plain.energies, k).tolist()

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_from_values_conserves_dimension(self, values):
        s = Spectrum.from_values(values)
        assert s.dimension == len(values)
        assert all(d >= 1 for d in s.degeneracies)
        assert list(s.energies) == sorted(s.energies)


class TestDimer:
    def test_matrix_spectrum_matches_analytic(self):
        for b, j in [(0.0, 1.0), (1.0, 1.0), (2.5, 0.7), (5.0, 1.0), (3.0, 0.0)]:
            h = build_dimer_hamiltonian(DimerParams(b, j))
            dense = Spectrum.from_values(hermitian_eigendecompose(h)[0])
            analytic = dimer_spectrum(DimerParams(b, j))
            assert dense.degeneracies == analytic.degeneracies
            assert np.allclose(dense.energies, analytic.energies, atol=1e-12)

    def test_zero_field_levels(self):
        s = dimer_spectrum(DimerParams(0.0, 1.0))
        assert s.energies.tolist() == [-3.0, 1.0]
        assert s.degeneracies == (1, 3)

    def test_field_splits_triplet(self):
        s = dimer_spectrum(DimerParams(1.0, 1.0))
        assert s.energies.tolist() == [-3.0, 0.0, 1.0, 2.0]

    def test_singlet_is_ground_below_crossover(self):
        h = build_dimer_hamiltonian(DimerParams(3.9, 1.0))
        _, v = hermitian_eigendecompose(h)
        ground = v[:, 0]
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert abs(abs(np.vdot(singlet, ground)) - 1.0) < 1e-12

    def test_product_state_is_ground_above_crossover(self):
        h = build_dimer_hamiltonian(DimerParams(4.1, 1.0))
        _, v = hermitian_eigendecompose(h)
        assert abs(abs(v[0, 0]) - 1.0) < 1e-12

    def test_rejects_negative_parameters(self):
        with pytest.raises(ThermwitError):
            DimerParams(-1.0, 1.0)
        with pytest.raises(ThermwitError):
            DimerParams(1.0, -1.0)

    @pytest.mark.parametrize(
        "b, j", [(0.0, 5e307), (math.inf, 1.0), (1e308, 1e308), (math.inf, math.inf)]
    )
    def test_rejects_levels_that_overflow(self, b, j):
        with pytest.raises(ThermwitError, match="span more than a float holds"):
            DimerParams(b, j)

    def test_widest_finite_levels_build_without_warning(self):
        # 4J = 1.6e308 is the spread, still a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp = dimer_spectrum(DimerParams(0.0, 4e307))
        assert sp.spread == pytest.approx(1.6e308)


class TestToySpectrum:
    def test_alpha_zero_collapses_ladder(self):
        s = toy_spectrum(ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.0, n_levels=16))
        assert s.energies.tolist() == [0.0, 1.0]
        assert s.degeneracies == (1, 15)

    def test_alpha_one_is_linear(self):
        s = toy_spectrum(ToySpectrumParams(e0=-2.0, delta=0.5, alpha=1.0, n_levels=5))
        assert s.energies.tolist() == [-2.0, -1.5, -1.0, -0.5, 0.0]
        assert s.degeneracies == (1, 1, 1, 1, 1)

    def test_sublinear_spacing_compresses(self):
        s = toy_spectrum(ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.5, n_levels=10))
        diffs = np.diff(s.energies)
        assert np.all(diffs[1:] < diffs[:-1])
        assert s.energies[-1] == pytest.approx(3.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ThermwitError):
            ToySpectrumParams(e0=0.0, delta=0.0, alpha=0.0, n_levels=4)
        with pytest.raises(ThermwitError):
            ToySpectrumParams(e0=0.0, delta=1.0, alpha=1.5, n_levels=4)
        with pytest.raises(ThermwitError):
            ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.5, n_levels=1)

    @pytest.mark.parametrize(
        "delta, alpha, n_levels",
        [(1e307, 1.0, 100), (1e308, 0.5, 10), (1e303, 1.0, 10**6), (math.inf, 0.0, 2)],
    )
    def test_rejects_overflowing_top_level(self, delta, alpha, n_levels):
        with pytest.raises(ThermwitError, match="overflows a float"):
            ToySpectrumParams(e0=0.0, delta=delta, alpha=alpha, n_levels=n_levels)

    def test_spread_is_the_top_level(self):
        p = ToySpectrumParams(e0=-2.0, delta=1e305, alpha=1.0, n_levels=100)
        assert p.spread == 9.9e306
        assert ToySpectrumParams(e0=0.0, delta=0.5, alpha=0.5, n_levels=10).spread == 1.5


class TestDickeState:
    def test_amplitudes_uniform_on_correct_weight(self):
        psi = dicke_state(4, 2)
        amp = psi.amplitudes
        for idx in range(16):
            w = bin(idx).count("1")
            if w == 2:
                assert amp[idx] == pytest.approx(1.0 / math.sqrt(6.0))
            else:
                assert amp[idx] == 0.0

    def test_normalized(self):
        for n, k in [(2, 1), (6, 3), (9, 4), (12, 6)]:
            psi = dicke_state(n, k)
            assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)

    def test_rejects_bad_excitation(self):
        with pytest.raises(ThermwitError, match=r"excitation count 5 outside 0\.\.4"):
            dicke_state(4, 5)
        with pytest.raises(ThermwitError, match=r"excitation count -1 outside 0\.\.4"):
            dicke_state(4, -1)


class TestGraphStates:
    def test_stabilizers_fix_graph_state(self):
        for g in [Graph.path(4), Graph.ring(5), Graph.star(5), Graph.complete(4)]:
            psi = graph_state(g).amplitudes
            for i in range(g.n):
                k = _generator(g, i)
                assert np.allclose(k @ psi, psi, atol=1e-12)

    def test_stabilizers_commute(self):
        g = Graph.ring(4)
        ops = [_generator(g, i) for i in range(4)]
        for a in ops:
            for b in ops:
                assert np.allclose(a @ b, b @ a, atol=1e-12)

    def test_hamiltonian_ground_energy(self):
        g = Graph.path(5)
        h = build_stabilizer_hamiltonian(g, 2.0)
        w, _ = hermitian_eigendecompose(h)
        assert w[0] == pytest.approx(-10.0)

    def test_spectrum_is_binomial_for_any_graph(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            mask = rng.random(len(all_pairs)) < 0.5
            g = Graph.from_edges(n, [p for p, m in zip(all_pairs, mask) if m])
            dense = Spectrum.from_values(
                hermitian_eigendecompose(build_stabilizer_hamiltonian(g, 1.3))[0]
            )
            analytic = stabilizer_spectrum(n, 1.3)
            assert dense.degeneracies == analytic.degeneracies
            assert np.allclose(dense.energies, analytic.energies, atol=1e-9)

    def test_spectrum_degeneracies_are_binomials(self):
        s = stabilizer_spectrum(6, 1.0)
        assert s.degeneracies == (1, 6, 15, 20, 15, 6, 1)
        assert s.energies.tolist() == [-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0]

    def test_site_count_caps(self):
        with pytest.raises(ThermwitError, match="graph on 13 vertices exceeds cap 12"):
            build_stabilizer_hamiltonian(Graph.path(13), 1.0)
        with pytest.raises(ThermwitError):
            stabilizer_spectrum(10**4 + 1, 1.0)

    def test_rejects_bad_edges(self):
        with pytest.raises(ThermwitError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ThermwitError):
            Graph(3, frozenset({(0, 3)}))


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I = np.eye(2, dtype=complex)


def _kron_generator(g, i):
    """K_i as the chained Kronecker product over sites, site 0 leftmost."""
    nbrs = {v for u, v in g.edges if u == i} | {u for u, v in g.edges if v == i}
    op = np.ones((1, 1), dtype=complex)
    for site in range(g.n):
        op = np.kron(op, _X if site == i else _Z if site in nbrs else _I)
    return op


def _exactness_graphs():
    graphs = [Graph.path(n) for n in range(1, 9)]
    graphs += [Graph.ring(n) for n in range(3, 9)]
    graphs += [Graph.star(n) for n in range(2, 9)]
    graphs += [Graph.complete(n) for n in range(2, 9)]
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = rng.random(len(pairs)) < rng.random()
        graphs.append(Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k]))
    return graphs


class TestExactConstructions:
    """The bit-operation builders against independent references, bit for bit."""

    @pytest.mark.parametrize("b", [1.0, 0.37, 2.5])
    def test_hamiltonian_equals_kron_chain(self, b):
        for g in _exactness_graphs():
            reference = np.zeros((2**g.n, 2**g.n), dtype=complex)
            for i in range(g.n):
                reference -= b * _kron_generator(g, i)
            h = build_stabilizer_hamiltonian(g, b)
            assert h.dtype == np.float64
            assert np.array_equal(h, reference), (g.n, sorted(g.edges))

    @pytest.mark.parametrize("b", [1.0, 0.37, 1e-320])
    def test_hamiltonian_entries_are_written_once(self, b):
        # each generator assigns -B * sign to its own n-th of the entries,
        # and every entry it does not reach stays the map's +0.0
        for g in _exactness_graphs():
            h = build_stabilizer_hamiltonian(g, b)
            nonzero = h != 0.0
            assert np.all(np.count_nonzero(nonzero, axis=0) == g.n), (g.n, sorted(g.edges))
            assert np.all(np.abs(h[nonzero]) == b), (g.n, sorted(g.edges))
            assert not np.any(np.signbit(h[~nonzero])), (g.n, sorted(g.edges))

    def test_generators_equal_kron_chain(self):
        for g in _exactness_graphs():
            for i in range(g.n):
                assert np.array_equal(_generator(g, i), _kron_generator(g, i))

    def test_generator_checks_vertex_and_size(self):
        with pytest.raises(ThermwitError, match=r"vertex 4 outside 0\.\.3"):
            _stabilizer_action(Graph.ring(4), 4)
        with pytest.raises(ThermwitError, match="graph on 13 vertices exceeds cap 12"):
            build_stabilizer_hamiltonian(Graph.path(13), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 999])
    def test_spectrum_degeneracies_equal_math_comb(self, n):
        s = stabilizer_spectrum(n, 1.0)
        assert s.degeneracies == tuple(math.comb(n, i) for i in range(n + 1))

    def test_spectrum_degeneracies_at_the_site_cap(self):
        # math.comb over the whole row takes ~13 s at n = 10^4, so it checks
        # every 37th entry, both ends and the middle; the row sum is exact.
        n = 10**4
        degs = stabilizer_spectrum(n, 1.0).degeneracies
        assert len(degs) == n + 1 and sum(degs) == 2**n
        for i in sorted({*range(0, n + 1, 37), 1, n // 2, n - 1, n}):
            assert degs[i] == math.comb(n, i), i

    def test_dicke_state_equals_popcount_reference(self):
        for n in range(1, 13):
            popcount = [bin(b).count("1") for b in range(2**n)]
            for k in range(n + 1):
                reference = np.zeros(2**n, dtype=complex)
                for b, w in enumerate(popcount):
                    if w == k:
                        reference[b] = 1.0
                reference /= math.sqrt(math.comb(n, k))
                assert dicke_state(n, k).amplitudes.tobytes() == reference.tobytes(), (n, k)

    @pytest.mark.parametrize("k", [0, 1, 10, 20])
    def test_dicke_state_at_the_site_cap(self, k):
        idx = np.arange(2**20, dtype=np.uint32)
        weight = sum((idx >> bit) & 1 for bit in range(20))
        reference = (weight == k).astype(complex)
        reference /= math.sqrt(math.comb(20, k))
        assert dicke_state(20, k).amplitudes.tobytes() == reference.tobytes()

    def test_odd_weight_mask_equals_popcount_parity(self):
        for n in range(1, 13):
            reference = [bin(b).count("1") % 2 == 1 for b in range(2**n)]
            mask = odd_weight_mask(n)
            assert mask.dtype == bool and mask.tolist() == reference, n
        for n in (0, 13):
            with pytest.raises(ThermwitError, match=r"site count .* outside 1\.\.12"):
                odd_weight_mask(n)

    def test_stabilizer_hamiltonian_is_odd_under_parity(self):
        # Z^n H Z^n = -H: both diagonal parity blocks are exactly zero
        for g in _exactness_graphs():
            h = build_stabilizer_hamiltonian(g, 0.37)
            z = 1.0 - 2.0 * odd_weight_mask(g.n)
            assert np.array_equal(z[:, None] * h * z[None, :], -h), (g.n, sorted(g.edges))

    def test_dicke_state_allocates_little_beside_its_vector(self):
        # the complex vector is 16 bytes per basis index; the weight table
        # and the mask add one byte each
        dicke_state(16, 8)
        tracemalloc.start()
        try:
            dicke_state(16, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**16 <= 19.0


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = Graph.ring(7)
        path = tmp_path / "ring.edges"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back == g

    def test_reads_comments_and_blanks(self, tmp_path):
        text = "4\n# a comment\n\n0 1\n2 3\n# trailing\n"
        path = tmp_path / "g.edges"
        path.write_text(text)
        g = read_edge_list(path)
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (2, 3)})

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3\n0 1 2\n")
        with pytest.raises(ThermwitError):
            read_edge_list(path)
        path.write_text("")
        with pytest.raises(ThermwitError):
            read_edge_list(path)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ThermwitError):
            PureState(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ThermwitError):
            PureState(2, np.array([1.0, 0.0]))

    def test_norm_gate_and_message(self):
        PureState(1, np.array([math.sqrt(1.0 + 1e-12), 0.0]))
        with pytest.raises(ThermwitError, match=r"state norm 1\.0000000000015.* deviates from 1 beyond 1e-12"):
            PureState(1, np.array([math.sqrt(1.0 + 3e-12), 0.0]))

    def test_strided_amplitudes_are_stored_contiguous(self):
        strided = np.full(8, 0.5, dtype=complex)[::2]
        psi = PureState(2, strided)
        assert psi.amplitudes.flags.c_contiguous
        assert np.array_equal(psi.amplitudes, strided)
