"""Unit tests for the shared numerical layer."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermwit.errors import (
    BadDimensionFactorization,
    DimensionTooLarge,
    NoSignChange,
    NotHermitian,
    ThermwitError,
)
from thermwit.numerics import (
    DIM_CAP,
    hermitian_eigendecompose,
    hermitian_eigenvalues,
    partial_transpose,
    root_bracket,
    stacked_eigendecompose,
)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


class TestEigendecompose:
    def test_residuals_and_orthonormality_over_many_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            dim = int(rng.integers(2, 65))
            h = random_hermitian(rng, dim)
            eig = hermitian_eigendecompose(h)
            v, w = eig.eigenvectors, eig.eigenvalues
            scale = max(1.0, float(np.max(np.abs(h))))
            assert np.max(np.abs(h @ v - v * w)) <= 1e-11 * scale * dim
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-12 * dim
            assert np.all(np.diff(w) >= 0)

    def test_eigenvalues_match_characteristic_roots_2x2(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        eig = hermitian_eigendecompose(h)
        assert eig.eigenvalues == pytest.approx([-math.sqrt(5), math.sqrt(5)])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(DimensionTooLarge):
            hermitian_eigendecompose(np.zeros((DIM_CAP + 1, DIM_CAP + 1)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ThermwitError):
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
                assert np.allclose(w, hermitian_eigendecompose(m).eigenvalues, atol=1e-12 * dim)

    def test_real_input_stays_real(self):
        assert hermitian_eigenvalues(np.array([[1.0, 2.0], [2.0, -1.0]])).dtype == np.float64

    @pytest.mark.parametrize(
        "m, tol, error",
        [
            (np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-12, NotHermitian),
            (np.array([[0.0, 1j], [1j, 0.0]]), 1e-12, NotHermitian),
            (np.array([[1.0, 1e-13], [0.0, 1.0]]), 1e-12, None),
            (np.array([[1.0, 1e-13], [0.0, 1.0]]), 1e-14, NotHermitian),
            (np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]]), 1e-8, None),
            (np.zeros((DIM_CAP + 1, DIM_CAP + 1)), 1e-12, DimensionTooLarge),
            (np.zeros((2, 3)), 1e-12, BadDimensionFactorization),
            (np.zeros(4), 1e-12, BadDimensionFactorization),
            (np.zeros((2, 2, 2)), 1e-12, BadDimensionFactorization),
            (np.zeros((0, 0)), 1e-12, None),
        ],
    )
    def test_raises_where_eigendecompose_does(self, m, tol, error):
        for solve in (hermitian_eigendecompose, hermitian_eigenvalues):
            if error is None:
                solve(m, tol=tol)
            else:
                with pytest.raises(error):
                    solve(m, tol=tol)


class TestStackedEigendecompose:
    def test_each_matrix_matches_the_single_solver(self):
        rng = np.random.default_rng(13)
        for dim in (1, 2, 4, 7):
            stack = np.array([random_hermitian(rng, dim) for _ in range(9)]).reshape(3, 3, dim, dim)
            eig = stacked_eigendecompose(stack)
            assert eig.eigenvalues.shape == (3, 3, dim)
            for idx in np.ndindex(3, 3):
                one = hermitian_eigendecompose(stack[idx])
                assert eig.eigenvalues[idx].tobytes() == one.eigenvalues.tobytes()
                assert eig.eigenvectors[idx].tobytes() == one.eigenvectors.tobytes()

    def test_single_matrix_is_a_stack_without_leading_axes(self):
        h = random_hermitian(np.random.default_rng(14), 5)
        assert stacked_eigendecompose(h).eigenvalues.tobytes() == (
            hermitian_eigendecompose(h).eigenvalues.tobytes()
        )

    def test_each_matrix_checked_on_its_own_scale(self):
        # 1e-10 of asymmetry passes next to entries of 1e3, not next to entries of 1
        big = np.array([[1e3, 1.0], [1.0 + 1e-10, 0.0]])
        small = np.array([[1.0, 0.5], [0.5 + 1e-10, 0.0]])
        stacked_eigendecompose(np.array([big, big]))
        with pytest.raises(NotHermitian, match=r"at index \(1,\)"):
            stacked_eigendecompose(np.array([big, small]))

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (5, 2, 3)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(BadDimensionFactorization):
            stacked_eigendecompose(np.zeros(shape))


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

