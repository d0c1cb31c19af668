"""Unit tests for the shared numerical layer."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermwit.errors import NoSignChange, ThermwitError
from thermwit.numerics import (
    DIM_CAP,
    chiral_eigenvalues,
    hermitian_eigendecompose,
    hermitian_eigenvalues,
    partial_transpose,
    root_bracket,
)
from thermwit.systems import (
    Graph,
    Spectrum,
    build_stabilizer_hamiltonian,
    odd_weight_mask,
    stabilizer_spectrum,
)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_chiral(rng, half, complex_entries=True):
    """A Hermitian [[0, C], [C^H, 0]] on a shuffled basis, and its odd-half mask."""
    dim = 2 * half
    odd = np.zeros(dim, dtype=bool)
    odd[rng.permutation(dim)[:half]] = True
    c = rng.standard_normal((half, half))
    if complex_entries:
        c = c + 1j * rng.standard_normal((half, half))
    m = np.zeros((dim, dim), dtype=c.dtype)
    even_idx, odd_idx = np.flatnonzero(~odd), np.flatnonzero(odd)
    m[np.ix_(even_idx, odd_idx)] = c
    m[np.ix_(odd_idx, even_idx)] = c.conj().T
    return m, odd


def assert_within_backward_error(values, reference):
    """Two solvers of one matrix agree to a few dim * eps * ||m||_2."""
    scale = max(1.0, float(np.max(np.abs(reference))))
    budget = 4.0 * reference.size * np.finfo(float).eps * scale
    assert np.all(np.diff(values) >= 0)
    assert np.max(np.abs(values - reference)) <= budget


class TestEigendecompose:
    def test_residuals_and_orthonormality_over_many_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            dim = int(rng.integers(2, 65))
            h = random_hermitian(rng, dim)
            w, v = hermitian_eigendecompose(h)
            scale = max(1.0, float(np.max(np.abs(h))))
            assert np.max(np.abs(h @ v - v * w)) <= 1e-11 * scale * dim
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-12 * dim
            assert np.all(np.diff(w) >= 0)

    def test_eigenvalues_match_characteristic_roots_2x2(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        w, _ = hermitian_eigendecompose(h)
        assert w == pytest.approx([-math.sqrt(5), math.sqrt(5)])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ThermwitError, match=r"max \|m - m\^dagger\| = 1\.000e\+00"):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ThermwitError, match=f"dimension {DIM_CAP + 1} exceeds cap"):
            hermitian_eigendecompose(np.zeros((DIM_CAP + 1, DIM_CAP + 1)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ThermwitError, match=r"expected square matrices, got shape \(2, 3\)"):
            hermitian_eigendecompose(np.zeros((2, 3)))


class TestEigenvalues:
    def test_matches_the_full_eigensystem(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dim = int(rng.integers(1, 33))
            h = random_hermitian(rng, dim)
            for m in (h, h.real):
                w = hermitian_eigenvalues(m)
                assert np.all(np.diff(w) >= 0)
                assert np.allclose(w, hermitian_eigendecompose(m)[0], atol=1e-12 * dim)

    def test_real_input_stays_real(self):
        assert hermitian_eigenvalues(np.array([[1.0, 2.0], [2.0, -1.0]])).dtype == np.float64

    @pytest.mark.parametrize(
        "m, match",
        [
            (np.array([[0.0, 1.0], [0.0, 0.0]]), r"m\^dagger\| = 1\.000e\+00"),
            (np.array([[0.0, 1j], [1j, 0.0]]), r"m\^dagger\| = 2\.000e\+00"),
            (np.array([[1.0, 1e-13], [0.0, 1.0]]), None),
            (np.array([[1.0, 2e-12], [0.0, 1.0]]), r"above 1\.000e-12"),
            # HERMITICITY_TOL applies on the matrix's own scale
            (np.array([[1e4, 2.0], [2.0 + 1e-9, 1e4]]), None),
            (np.zeros((DIM_CAP + 1, DIM_CAP + 1)), "exceeds cap"),
            (np.zeros((2, 3)), "expected square matrices"),
            (np.zeros(4), "expected square matrices"),
            (np.zeros((0, 0)), None),
        ],
        # each id names the kind of failure its row provokes
        ids=[
            "m0-NotHermitian",
            "m1-NotHermitian",
            "m2-None",
            "m3-NotHermitian",
            "m4-None",
            "m5-DimensionTooLarge",
            "m6-BadDimensionFactorization",
            "m7-BadDimensionFactorization",
            "m9-None",
        ],
    )
    def test_raises_where_eigendecompose_does(self, m, match):
        for solve in (hermitian_eigendecompose, hermitian_eigenvalues):
            if match is None:
                solve(m)
            else:
                with pytest.raises(ThermwitError, match=match):
                    solve(m)


class TestStackedEigendecompose:
    def test_each_matrix_matches_the_single_solver(self):
        rng = np.random.default_rng(13)
        for dim in (1, 2, 4, 7):
            stack = np.array([random_hermitian(rng, dim) for _ in range(9)]).reshape(3, 3, dim, dim)
            w, v = hermitian_eigendecompose(stack)
            assert w.shape == (3, 3, dim)
            for idx in np.ndindex(3, 3):
                w_one, v_one = hermitian_eigendecompose(stack[idx])
                assert w[idx].tobytes() == w_one.tobytes()
                assert v[idx].tobytes() == v_one.tobytes()
            for m in (stack, stack.real):
                values = hermitian_eigenvalues(m)
                for idx in np.ndindex(3, 3):
                    assert values[idx].tobytes() == hermitian_eigenvalues(m[idx]).tobytes()

    def test_single_matrix_is_a_stack_without_leading_axes(self):
        h = random_hermitian(np.random.default_rng(14), 5)
        w, v = hermitian_eigendecompose(h)
        w_stack, v_stack = hermitian_eigendecompose(h[None])
        assert w.shape == (5,) and v.shape == (5, 5)
        assert w_stack[0].tobytes() == w.tobytes()
        assert v_stack[0].tobytes() == v.tobytes()

    def test_each_matrix_checked_on_its_own_scale(self):
        # 1e-10 of asymmetry passes next to entries of 1e3, not next to entries of 1
        big = np.array([[1e3, 1.0], [1.0 + 1e-10, 0.0]])
        small = np.array([[1.0, 0.5], [0.5 + 1e-10, 0.0]])
        for solve in (hermitian_eigendecompose, hermitian_eigenvalues):
            solve(np.array([big, big]))
            with pytest.raises(ThermwitError, match=r"above 1\.000e-12 at index \(1,\)"):
                solve(np.array([big, small]))

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (5, 2, 3)])
    def test_rejects_non_square(self, shape):
        for solve in (hermitian_eigendecompose, hermitian_eigenvalues):
            with pytest.raises(ThermwitError, match=r"expected square matrices, got shape"):
                solve(np.zeros(shape))


class TestChiralEigenvalues:
    GRAPHS = (
        [Graph.path(n) for n in range(2, 9)]
        + [Graph.ring(n) for n in range(3, 9)]
        + [Graph.star(n) for n in range(2, 9)]
        + [Graph.complete(n) for n in range(2, 9)]
    )

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}-e{len(g.edges)}")
    def test_matches_the_dense_solver_on_stabilizer_hamiltonians(self, g):
        h = build_stabilizer_hamiltonian(g, 1.0)
        values = chiral_eigenvalues(h, odd_weight_mask(g.n))
        reference = hermitian_eigenvalues(h)
        assert_within_backward_error(values, reference)
        merged, dense = Spectrum.from_values(values), Spectrum.from_values(reference)
        assert merged.degeneracies == dense.degeneracies == stabilizer_spectrum(g.n, 1.0).degeneracies

    def test_matches_the_dense_solver_on_random_bipartite_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            half = int(rng.integers(1, 33))
            m, odd = random_chiral(rng, half, complex_entries=bool(rng.integers(2)))
            assert_within_backward_error(chiral_eigenvalues(m, odd), hermitian_eigenvalues(m))

    def test_real_input_and_empty_matrix(self):
        m, odd = random_chiral(np.random.default_rng(22), 3, complex_entries=False)
        assert chiral_eigenvalues(m, odd).dtype == np.float64
        assert chiral_eigenvalues(np.zeros((0, 0)), np.zeros(0, dtype=bool)).size == 0

    def test_rejects_a_nonzero_diagonal_block(self):
        m, odd = random_chiral(np.random.default_rng(23), 4)
        for side in (odd, ~odd):
            i = int(np.flatnonzero(side)[1])
            bad = m.copy()
            bad[i, i] = 1e-300  # exactly zero, not zero to a tolerance
            with pytest.raises(ThermwitError, match="nonzero entry in a diagonal parity block"):
                chiral_eigenvalues(bad, odd)

    def test_rejects_a_non_hermitian_pair(self):
        m, odd = random_chiral(np.random.default_rng(24), 4)
        i, j = int(np.flatnonzero(~odd)[0]), int(np.flatnonzero(odd)[0])
        m[i, j] += 1e-6 * max(1.0, float(np.max(np.abs(m))))
        with pytest.raises(ThermwitError, match=r"max \|m - m\^dagger\| = .* above"):
            chiral_eigenvalues(m, odd)
        m[i, j] = m[j, i].conjugate() + 1e-13  # inside the rule on m's own scale
        chiral_eigenvalues(m, odd)

    def test_rejects_unequal_halves(self):
        m = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ThermwitError, match="parity halves of 2 and 1 are unequal"):
            chiral_eigenvalues(m, np.array([True, False, False]))

    def test_rejects_oversized_and_misshapen_input(self):
        big = DIM_CAP + 2
        with pytest.raises(ThermwitError, match=f"dimension {big} exceeds cap"):
            chiral_eigenvalues(np.zeros((big, big)), np.arange(big) % 2 == 1)
        with pytest.raises(ThermwitError, match="expected one square matrix"):
            chiral_eigenvalues(np.zeros((2, 2, 2)), np.array([False, True]))
        with pytest.raises(ThermwitError, match="parity mask of shape"):
            chiral_eigenvalues(np.zeros((4, 4)), np.array([False, True]))


class TestPartialTranspose:
    def test_double_transpose_is_identity(self):
        rng = np.random.default_rng(11)
        for dims in [(2, 2), (2, 3), (3, 2, 2), (2, 2, 2, 2)]:
            d = int(np.prod(dims))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for subset in [(0,), (len(dims) - 1,), tuple(range(1, len(dims)))]:
                if len(subset) == len(dims):
                    continue
                once = partial_transpose(m, dims, subset)
                twice = partial_transpose(once, dims, subset)
                assert np.array_equal(twice, m)

    def test_transposes_single_factor_of_product(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3))
        ab = np.kron(a, b)
        assert np.allclose(partial_transpose(ab, (2, 3), (0,)), np.kron(a.T, b))
        assert np.allclose(partial_transpose(ab, (2, 3), (1,)), np.kron(a, b.T))

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(15)
        stack = rng.standard_normal((2, 3, 12, 12)) + 1j * rng.standard_normal((2, 3, 12, 12))
        for dims, subset in [((2, 6), (0,)), ((3, 2, 2), (0, 2)), ((2, 3, 2), (1,))]:
            got = partial_transpose(stack, dims, subset)
            for idx in np.ndindex(2, 3):
                assert np.array_equal(got[idx], partial_transpose(stack[idx], dims, subset))

    def test_rejects_bad_subsets(self):
        m = np.zeros((4, 4))
        with pytest.raises(ThermwitError):
            partial_transpose(m, (2, 2), ())
        with pytest.raises(ThermwitError):
            partial_transpose(m, (2, 2), (0, 1))
        with pytest.raises(ThermwitError):
            partial_transpose(m, (2, 2), (0, 0))
        with pytest.raises(ThermwitError):
            partial_transpose(m, (2, 3), (0,))
        with pytest.raises(ThermwitError):
            partial_transpose(m, (2, 2), (2,))


class TestRootBracket:
    def test_cubic_root(self):
        # real root of x^3 - x - 2, cross-checked with scipy.optimize.brentq
        inside, outside = root_bracket(lambda x: x**3 - x - 2.0, 2.0, 1.0)
        assert inside == pytest.approx(1.5213797068045676, abs=1e-9)
        assert math.nextafter(inside, outside) == outside

    def test_endpoint_zero_counts_as_outside(self):
        # f = 0 is not positive, so the bracket closes on the positive side
        assert root_bracket(lambda x: x - 1.0, 1.0, 2.0) == (math.nextafter(1.0, 2.0), 1.0)
        assert root_bracket(lambda x: 2.0 - x, 1.0, 2.0) == (math.nextafter(2.0, 1.0), 2.0)

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChange):
            root_bracket(lambda x: 1.0 + x * x, -1.0, 1.0)
        with pytest.raises(NoSignChange):
            root_bracket(lambda x: -x * x, -1.0, 1.0)

    def test_sign_orientation_irrelevant(self):
        up = root_bracket(lambda x: x - 0.25, 0.0, 1.0)
        down = root_bracket(lambda x: 0.25 - x, 0.0, 1.0)
        assert up == (math.nextafter(0.25, 1.0), 0.25)
        assert down == (math.nextafter(0.25, 0.0), 0.25)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=1e-3, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_finds_planted_root(self, root, halfwidth):
        f = lambda x: math.tanh(x - root)
        inside, outside = root_bracket(f, root + halfwidth, root - halfwidth)
        assert f(inside) > 0.0 >= f(outside)
        assert math.nextafter(inside, outside) == outside
        assert inside == pytest.approx(root, abs=1e-9 * max(1.0, abs(root)))

