"""Tests for robustness bounds, entanglement monotones, and the ALS search."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from thermwit.entanglement import (
    BoundKind,
    BoundSource,
    Partition,
    RobustnessBound,
    als_sweep_overlaps,
    bipartite_pure_robustness,
    bound_from_relative_entropy,
    concurrence_signed,
    concurrence_two_qubit,
    dicke_overlap_closed,
    dicke_robustness,
    geometric_measure_als,
    ppt_min_eigenvalue,
    random_density_matrix,
    schmidt_coefficients,
    singlet_robustness,
)
from thermwit.entanglement import _als, _als_starts, _random_unit_qubit, _stirling_remainder
from thermwit.errors import (
    BadPartition,
    NegativeEntanglement,
    NotHermitian,
    SeparableCase,
    ThermwitError,
)
from thermwit.systems import DimerParams, PureState, build_dimer_hamiltonian, dicke_state
from thermwit.thermal import ThermalPoint, thermal_density_matrix

SINGLET = PureState(2, np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))


def ghz(n):
    amp = np.zeros(2**n)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, amp)


def random_pure(n, rng):
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, amp / np.linalg.norm(amp))


class TestSchmidt:
    def test_singlet_coefficients(self):
        lam = schmidt_coefficients(SINGLET, Partition.bipartition([0], 2))
        assert np.allclose(lam, [0.5, 0.5])

    def test_product_state_is_rank_one(self):
        amp = np.kron([1.0, 0.0], [math.sqrt(0.3), math.sqrt(0.7)])
        lam = schmidt_coefficients(PureState(2, amp), Partition.bipartition([1], 2))
        assert lam[0] == pytest.approx(1.0)
        assert np.all(lam[1:] < 1e-15)

    def test_against_direct_svd_with_site_permutation(self):
        rng = np.random.default_rng(21)
        psi = random_pure(3, rng)
        lam = schmidt_coefficients(psi, Partition.bipartition([1], 3))
        tensor = psi.amplitudes.reshape(2, 2, 2)
        mat = np.moveaxis(tensor, 1, 0).reshape(2, 4)
        s = scipy.linalg.svd(mat, compute_uv=False)
        assert np.allclose(lam, np.sort(s**2)[::-1], atol=1e-12)

    def test_coefficients_sum_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            psi = random_pure(4, rng)
            lam = schmidt_coefficients(psi, Partition.bipartition([0, 2], 4))
            assert np.sum(lam) == pytest.approx(1.0)


class TestPartition:
    def test_bipartition_blocks(self):
        cut = Partition.bipartition([0, 2], 4)
        assert cut.blocks == ((0, 2), (1, 3))

    def test_rejects_bad_blocks(self):
        with pytest.raises(BadPartition):
            Partition(((0, 1),), 2)
        with pytest.raises(BadPartition):
            Partition(((0,), (0, 1)), 2)
        with pytest.raises(BadPartition):
            Partition(((0,), (2,)), 2)
        with pytest.raises(BadPartition):
            Partition.bipartition([], 3)
        with pytest.raises(BadPartition):
            Partition.bipartition([0, 1, 2], 3)


class TestRobustnessBounds:
    def test_singlet_value(self):
        b = singlet_robustness()
        assert b.one_plus_r == 2.0
        assert b.kind is BoundKind.EXACT
        assert b.threshold == 0.5

    def test_bipartite_singlet_matches_known(self):
        b = bipartite_pure_robustness(SINGLET, Partition.bipartition([0], 2))
        assert b.one_plus_r == pytest.approx(2.0, rel=1e-14)

    def test_ghz_half_cut(self):
        for n in (2, 4, 6):
            b = bipartite_pure_robustness(
                ghz(n), Partition.bipartition(range(n // 2), n)
            )
            assert b.one_plus_r == pytest.approx(2.0, rel=1e-13)

    def test_exact_small_dicke_fractions(self):
        # 1 + R = n^n / (C(n,k) k^k (n-k)^(n-k))
        expected = {
            (2, 1): Fraction(2),
            (4, 2): Fraction(8, 3),
            (6, 3): Fraction(16, 5),
            (8, 4): Fraction(256, 70),
            (4, 1): Fraction(64, 27),
        }
        for (n, k), frac in expected.items():
            assert dicke_robustness(n, k).one_plus_r == pytest.approx(
                float(frac), rel=1e-15
            )

    def test_exact_dicke_never_rounds_up(self):
        # the largest float not above n^n / (C(n,k) k^k (n-k)^(n-k))
        for n in range(2, 61):
            for k in range(1, n):
                exact = Fraction(n**n, math.comb(n, k) * k**k * (n - k) ** (n - k))
                value = dicke_robustness(n, k).one_plus_r
                assert Fraction(value) <= exact < Fraction(math.nextafter(value, math.inf))

    def test_large_n_value(self):
        assert dicke_robustness(100, 50).one_plus_r == pytest.approx(
            12.5645129018549, rel=1e-12
        )

    def test_log_gamma_route_consistent_with_exact(self):
        # n=2000 goes through integer arithmetic, n=2002 through log-Gamma
        exact = dicke_robustness(2000, 1000).one_plus_r
        approx = dicke_robustness(2002, 1001).one_plus_r
        # adjacent half-filled values differ by O(1/n); the routes must agree
        # far better than that
        predicted_step = exact * (1.0 / 2000)
        assert abs(approx - exact) < predicted_step

    def test_overlap_score_inverse_square(self):
        for n, k in [(3, 1), (5, 2), (10, 4)]:
            overlap = dicke_overlap_closed(n, k)
            assert dicke_robustness(n, k).one_plus_r == pytest.approx(
                1.0 / overlap**2, rel=1e-12
            )

    def test_separable_cases_rejected(self):
        for k in (0, 4):
            with pytest.raises(SeparableCase):
                dicke_robustness(4, k)

    def test_entropy_bound_is_power_of_two(self):
        b = bound_from_relative_entropy(3.0)
        assert b.one_plus_r == 8.0
        assert b.kind is BoundKind.LOWER_BOUND

    def test_entropy_bound_rejects_bad_inputs(self):
        with pytest.raises(NegativeEntanglement):
            bound_from_relative_entropy(-0.1)
        with pytest.raises(ThermwitError):
            bound_from_relative_entropy(2000.0)
        with pytest.raises(ThermwitError):
            bound_from_relative_entropy(1.0, source=BoundSource.SINGLET_KNOWN)

    def test_exact_kind_needs_exact_source(self):
        with pytest.raises(ThermwitError):
            RobustnessBound(2.0, BoundKind.EXACT, BoundSource.RELATIVE_ENTROPY_INPUT)
        with pytest.raises(ThermwitError):
            RobustnessBound(0.5, BoundKind.EXACT, BoundSource.SINGLET_KNOWN)

    def test_one_site_cut_is_strictly_weaker_for_w_states(self):
        for n in (3, 4, 5):
            w = dicke_state(n, 1)
            bip = bipartite_pure_robustness(w, Partition.bipartition([0], n))
            multi = dicke_robustness(n, 1)
            assert bip.one_plus_r < multi.one_plus_r - 1e-6

    def test_half_cut_equals_full_for_half_filling(self):
        for n in (4, 6, 8, 10):
            half = bipartite_pure_robustness(
                dicke_state(n, n // 2), Partition.bipartition(range(n // 2), n)
            )
            full = dicke_robustness(n, n // 2)
            assert half.one_plus_r == pytest.approx(full.one_plus_r, rel=1e-12)


class TestDickeOverlapLargeN:
    def test_direct_product_kept_where_finite(self):
        for n in (2, 7, 100, 1000, 1029):
            for k in {1, max(1, n // 3), n // 2}:
                direct = math.sqrt(math.comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k))
                assert dicke_overlap_closed(n, k).hex() == direct.hex()

    @pytest.mark.parametrize("n", [1030, 3000, 10**5])
    def test_matches_mpmath_beyond_float_binomials(self, n):
        for k in (n // 2, n // 3):
            with mpmath.workdps(50):
                exact = mpmath.sqrt(
                    mpmath.binomial(n, k)
                    * (mpmath.mpf(k) / n) ** k
                    * (mpmath.mpf(n - k) / n) ** (n - k)
                )
            assert abs(dicke_overlap_closed(n, k) - float(exact)) <= 1e-12 * float(exact)


def _exact_dicke_one_plus_r(n: int, k: int) -> mpmath.mpf:
    with mpmath.workprec(200):
        n_, k_ = mpmath.mpf(n), mpmath.mpf(k)
        log_c = mpmath.loggamma(n_ + 1) - mpmath.loggamma(k_ + 1) - mpmath.loggamma(n_ - k_ + 1)
        return mpmath.exp(k_ * mpmath.log(n_ / k_) + (n_ - k_) * mpmath.log(n_ / (n_ - k_)) - log_c)


class TestDickeRobustnessLargeN:
    """Beyond the exact-integer range the Stirling value still rounds down."""

    @pytest.mark.parametrize("n", [2002, 10**4, 10**5, 10**6])
    def test_half_filling_never_above_exact(self, n):
        k = n // 2
        value = dicke_robustness(n, k).one_plus_r
        exact = _exact_dicke_one_plus_r(n, k)
        with mpmath.workprec(200):
            assert mpmath.mpf(value) <= exact
            assert (exact - value) / exact <= 1e-12

    @pytest.mark.parametrize("n", [2001, 10**4, 10**7])
    @pytest.mark.parametrize("k", [1, 2, 9, 14, 15, 16, 17])
    def test_few_excitations_never_above_exact(self, n, k):
        for kk in (k, n - k):
            value = dicke_robustness(n, kk).one_plus_r
            exact = _exact_dicke_one_plus_r(n, kk)
            with mpmath.workprec(200):
                assert mpmath.mpf(value) <= exact
                assert (exact - value) / exact <= 1e-12

    def test_stirling_table_is_rounded_to_nearest(self):
        for m in range(1, 16):
            with mpmath.workprec(200):
                mm = mpmath.mpf(m)
                exact = mpmath.loggamma(mm + 1) - (
                    (mm + 0.5) * mpmath.log(mm) - mm + mpmath.log(mpmath.sqrt(2 * mpmath.pi))
                )
                assert _stirling_remainder(m) == float(exact)


class TestConcurrence:
    def test_bell_states_maximal(self):
        for psi in (
            SINGLET,
            ghz(2),
            PureState(2, np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)),
        ):
            assert concurrence_two_qubit(psi.projector()) == pytest.approx(1.0)

    def test_product_state_zero(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert concurrence_two_qubit(rho) == pytest.approx(0.0, abs=1e-12)

    def test_werner_family_closed_form(self):
        # p |singlet><singlet| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
        proj = SINGLET.projector()
        eye = np.eye(4) / 4.0
        for p in np.linspace(0.0, 1.0, 21):
            rho = p * proj + (1.0 - p) * eye
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert concurrence_two_qubit(rho) == pytest.approx(expected, abs=1e-10)
            # the PPT test must agree exactly on two qubits
            negative = ppt_min_eigenvalue(rho, (2, 2), (0,)) < -1e-12
            assert negative == (expected > 0) or abs(3.0 * p - 1.0) < 1e-9

    def test_signed_form_continues_through_zero(self):
        proj = SINGLET.projector()
        eye = np.eye(4) / 4.0
        signed = [
            concurrence_signed(p * proj + (1.0 - p) * eye)
            for p in np.linspace(0.2, 0.45, 10)
        ]
        assert all(a < b for a, b in zip(signed, signed[1:]))
        assert signed[0] < 0.0 < signed[-1]

    def test_agrees_with_ppt_on_random_states(self):
        rng = np.random.default_rng(31)
        disagreements = 0
        entangled = 0
        for _ in range(500):
            rho = random_density_matrix(4, rng)
            c = concurrence_two_qubit(rho)
            pt = ppt_min_eigenvalue(rho, (2, 2), (0,))
            if c > 1e-7:
                entangled += 1
                if pt > -1e-12:
                    disagreements += 1
            elif pt < -1e-7 and c < 1e-12:
                disagreements += 1
        assert disagreements == 0
        assert entangled > 50  # the ensemble genuinely mixes both phases

    def test_rejects_non_state_inputs(self):
        with pytest.raises(ThermwitError):
            concurrence_two_qubit(np.eye(3) / 3.0)
        with pytest.raises(ThermwitError):
            concurrence_two_qubit(np.eye(4))  # trace 4


def _per_matrix(fn, stack, *args):
    return [fn(m, *args) for m in stack]


class TestStackedOracles:
    """A stack (..., d, d) gives, bit for bit, what each matrix gives alone."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_random_states(self, seed, count):
        rng = np.random.default_rng(seed)
        stack = np.array([random_density_matrix(4, rng) for _ in range(count)])
        assert list(concurrence_signed(stack)) == _per_matrix(concurrence_signed, stack)
        assert list(concurrence_two_qubit(stack)) == _per_matrix(concurrence_two_qubit, stack)
        for subset in ((0,), (1,)):
            got = ppt_min_eigenvalue(stack, (2, 2), subset)
            assert list(got) == _per_matrix(ppt_min_eigenvalue, stack, (2, 2), subset)
        six = np.array([random_density_matrix(6, rng) for _ in range(count)])
        got = ppt_min_eigenvalue(six, (2, 3), (1,))
        assert list(got) == _per_matrix(ppt_min_eigenvalue, six, (2, 3), (1,))

    @given(
        st.floats(0.0, 6.0),
        st.lists(st.floats(0.01, 20.0), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_dimer_gibbs_states(self, b, kts):
        h = build_dimer_hamiltonian(DimerParams(b, 1.0))
        stack = thermal_density_matrix(h, np.array(kts))
        for kt, rho in zip(kts, stack):
            assert rho.tobytes() == thermal_density_matrix(h, ThermalPoint(kt)).tobytes()
        assert list(concurrence_two_qubit(stack)) == _per_matrix(concurrence_two_qubit, stack)
        assert list(ppt_min_eigenvalue(stack, (2, 2), (0,))) == _per_matrix(
            ppt_min_eigenvalue, stack, (2, 2), (0,)
        )

    def test_one_matrix_gives_a_float(self):
        rho = random_density_matrix(4, np.random.default_rng(50))
        for value in (
            concurrence_signed(rho),
            concurrence_two_qubit(rho),
            ppt_min_eigenvalue(rho, (2, 2), (0,)),
        ):
            assert type(value) is float

    def test_keeps_leading_axes(self):
        rng = np.random.default_rng(51)
        stack = np.array([random_density_matrix(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        assert concurrence_signed(stack).shape == (2, 3)
        assert ppt_min_eigenvalue(stack, (2, 2), (0,)).shape == (2, 3)

    def test_rejects_one_non_hermitian_matrix(self):
        rng = np.random.default_rng(52)
        stack = np.array([random_density_matrix(4, rng) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        for oracle in (concurrence_signed, lambda m: ppt_min_eigenvalue(m, (2, 2), (0,))):
            with pytest.raises(ThermwitError, match=r"not Hermitian at index \(3,\)"):
                oracle(stack)

    def test_rejects_one_matrix_off_unit_trace(self):
        rng = np.random.default_rng(53)
        stack = np.array([random_density_matrix(4, rng) for _ in range(5)])
        stack[1] *= 1.0 + 1e-6
        for oracle in (concurrence_two_qubit, lambda m: ppt_min_eigenvalue(m, (2, 2), (1,))):
            with pytest.raises(ThermwitError, match=r"deviates from 1 at index \(1,\)"):
                oracle(stack)

    def test_ppt_keeps_the_strict_hermiticity_check(self):
        # a 1e-10 asymmetry passes the 1e-9 state check but not the solver's 1e-12
        rho = random_density_matrix(4, np.random.default_rng(54))
        rho[0, 1] += 1e-10
        stack = np.array([random_density_matrix(4, np.random.default_rng(55)), rho])
        with pytest.raises(NotHermitian, match=r"at index \(1,\)"):
            ppt_min_eigenvalue(stack, (2, 2), (0,))
        with pytest.raises(NotHermitian):
            ppt_min_eigenvalue(rho, (2, 2), (0,))


class TestPPT:
    def test_isotropic_threshold(self):
        # 2x2 isotropic states are entangled exactly above fidelity 1/2
        phi = ghz(2).projector()
        eye = np.eye(4) / 4.0
        for f in (0.3, 0.49, 0.51, 0.9):
            rho = f * phi + (1.0 - f) * (4.0 * eye - phi) / 3.0
            assert (ppt_min_eigenvalue(rho, (2, 2), (1,)) < -1e-10) == (f > 0.5)

    def test_symmetric_under_choice_of_side(self):
        rng = np.random.default_rng(33)
        rho = random_density_matrix(4, rng)
        a = ppt_min_eigenvalue(rho, (2, 2), (0,))
        b = ppt_min_eigenvalue(rho, (2, 2), (1,))
        assert a == pytest.approx(b, abs=1e-12)


class TestRandomDensityMatrix:
    def test_is_a_state(self):
        rng = np.random.default_rng(40)
        for dim in (2, 3, 4, 6):
            rho = random_density_matrix(dim, rng)
            assert np.trace(rho).real == pytest.approx(1.0)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-14


class TestGeometricMeasureALS:
    def test_ghz_overlap(self):
        for n in (2, 3, 4):
            overlap, eg = geometric_measure_als(ghz(n), restarts=8, seed=1)
            assert overlap == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)
            assert eg == pytest.approx(1.0, abs=1e-9)

    def test_dicke_matches_closed_form(self):
        for n, k in [(3, 1), (4, 2), (6, 3), (6, 2)]:
            overlap, _ = geometric_measure_als(dicke_state(n, k), seed=2)
            assert overlap == pytest.approx(dicke_overlap_closed(n, k), abs=1e-10)

    def test_product_state_reaches_one(self):
        amp = np.kron(np.kron([1.0, 0.0], [0.6, 0.8]), [0.0, 1.0])
        overlap, eg = geometric_measure_als(PureState(3, amp), restarts=4, seed=3)
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert eg == pytest.approx(0.0, abs=1e-10)

    def test_overlap_never_exceeds_one(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            overlap, eg = geometric_measure_als(random_pure(3, rng), restarts=4, seed=5)
            assert 0.0 < overlap <= 1.0
            assert eg >= 0.0

    def test_sweeps_monotone_nondecreasing(self):
        from thermwit.entanglement import als_sweep_overlaps

        history = als_sweep_overlaps(dicke_state(5, 2), seed=6, max_sweeps=40)
        arr = np.array(history)
        assert np.all(np.diff(arr) >= -1e-13)


def _reference_als_run(tensor, n, rng, tol, max_sweeps):
    """The sequential search: one restart, an n-operand einsum per site update."""
    vecs = [_random_unit_qubit(rng) for _ in range(n)]
    history = []
    overlap = 0.0
    prev = -1.0
    for _ in range(max_sweeps):
        for site in range(n):
            args = [tensor, list(range(n))]
            for j in range(n):
                if j != site:
                    args.extend([vecs[j].conj(), [j]])
            c = np.einsum(*args, [site])
            nc = float(np.linalg.norm(c))
            if nc > 0.0:
                vecs[site] = c / nc
            overlap = nc
            history.append(overlap)
        if overlap - prev < tol:
            break
        prev = overlap
    return overlap, history


def _reference_als_best(psi, restarts, seed, tol=1e-12, max_sweeps=500):
    rng = np.random.default_rng(seed)
    runs = [
        _reference_als_run(psi.as_tensor(), psi.n_sites, rng, tol, max_sweeps)[0]
        for _ in range(restarts)
    ]
    return min(max(runs), 1.0)


_EQUIVALENCE_CASES = [
    *((f"dicke({n},{k})", dicke_state(n, k)) for n in range(2, 11) for k in sorted({1, n // 2})),
    *((f"ghz({n})", ghz(n)) for n in (3, 4, 5)),
    *(
        (f"random({n},{i})", random_pure(n, np.random.default_rng(100 * n + i)))
        for n in (3, 4, 5)
        for i in range(2)
    ),
]
_EQUIVALENCE_IDS = [name for name, _ in _EQUIVALENCE_CASES]
_EQUIVALENCE_STATES = [psi for _, psi in _EQUIVALENCE_CASES]


class TestBatchedALSMatchesSequential:
    """The batched search against the sequential one it replaced."""

    @pytest.mark.parametrize("psi", _EQUIVALENCE_STATES, ids=_EQUIVALENCE_IDS)
    def test_best_overlap(self, psi):
        for seed in range(5):
            overlap, _ = geometric_measure_als(psi, restarts=8, seed=seed)
            assert abs(overlap - _reference_als_best(psi, 8, seed)) <= 1e-12

    @pytest.mark.parametrize("psi", _EQUIVALENCE_STATES, ids=_EQUIVALENCE_IDS)
    def test_sweep_history(self, psi):
        # tol = 0 would stop on the first sweep whose overlap rounds no higher,
        # a rounding accident; 1e-12 (the search's default) stops on convergence.
        for seed in range(5):
            _, expected = _reference_als_run(
                psi.as_tensor(), psi.n_sites, np.random.default_rng(seed), 1e-12, 100
            )
            history = als_sweep_overlaps(psi, seed=seed, tol=1e-12)
            assert len(history) == len(expected)
            assert np.max(np.abs(history - np.array(expected))) <= 1e-12

    def test_restarts_stop_independently(self):
        # with a loose tolerance the restarts stop after different sweeps;
        # each must end where its own sequential run ends
        psi = dicke_state(6, 2)
        rng = np.random.default_rng(9)
        runs = [_reference_als_run(psi.as_tensor(), 6, rng, 1e-4, 500) for _ in range(8)]
        assert len({len(h) for _, h in runs}) > 1
        overlaps = _als(psi.as_tensor(), _als_starts(6, 8, 9), 1e-4, 500)
        assert np.max(np.abs(overlaps - np.array([o for o, _ in runs]))) <= 1e-12


class TestALSSettings:
    def test_rejects_no_sweeps(self):
        with pytest.raises(ThermwitError):
            geometric_measure_als(ghz(3), max_sweeps=0)
        with pytest.raises(ThermwitError):
            als_sweep_overlaps(ghz(3), max_sweeps=-1)

    @pytest.mark.parametrize("tol", [-1e-12, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ThermwitError):
            geometric_measure_als(ghz(3), tol=tol)

    def test_rejects_no_restarts(self):
        with pytest.raises(ThermwitError):
            geometric_measure_als(ghz(3), restarts=0)


def _exact_power_of_two(e_r: float) -> mpmath.mpf:
    with mpmath.workprec(200):
        return mpmath.power(2, mpmath.mpf(e_r))


class TestDirectedRounding:
    """A lower bound on 1 + R never rounds up; the threshold never rounds down."""

    @given(st.floats(min_value=0.0, max_value=12.0))
    @settings(max_examples=500, deadline=None)
    def test_entropy_bound_never_above_power_of_two(self, e_r):
        value = bound_from_relative_entropy(e_r).one_plus_r
        exact = _exact_power_of_two(e_r)
        with mpmath.workprec(200):
            assert mpmath.mpf(value) <= exact
            # and no looser than two floats below 2^{e_r}
            assert mpmath.mpf(math.nextafter(math.nextafter(value, math.inf), math.inf)) > exact

    @given(st.floats(min_value=12.0, max_value=1000.0))
    @settings(max_examples=200, deadline=None)
    def test_entropy_bound_never_above_power_of_two_large(self, e_r):
        with mpmath.workprec(200):
            assert mpmath.mpf(bound_from_relative_entropy(e_r).one_plus_r) <= _exact_power_of_two(e_r)

    def test_integer_inputs_are_exact_powers(self):
        for k in range(0, 1001):
            assert Fraction(bound_from_relative_entropy(float(k)).one_plus_r) == 2**k
        assert bound_from_relative_entropy(7).one_plus_r == 128.0

    def test_tiny_input_stays_at_one(self):
        # 2^{1e-20} rounds to 1.0; a step below it would not be a valid 1 + R
        assert bound_from_relative_entropy(1e-20).one_plus_r == 1.0
        assert bound_from_relative_entropy(5e-324).one_plus_r == 1.0

    def test_nan_input_rejected(self):
        with pytest.raises(ThermwitError):
            bound_from_relative_entropy(math.nan)

    @given(st.floats(min_value=1.0, max_value=1e300))
    @settings(max_examples=500, deadline=None)
    def test_threshold_is_smallest_float_not_below_reciprocal(self, one_plus_r):
        b = RobustnessBound(one_plus_r, BoundKind.LOWER_BOUND, BoundSource.RELATIVE_ENTROPY_INPUT)
        exact = 1 / Fraction(one_plus_r)
        assert Fraction(b.threshold) >= exact
        assert Fraction(math.nextafter(b.threshold, 0.0)) < exact

    @given(st.floats(min_value=1.0, max_value=1e300))
    @settings(max_examples=500, deadline=None)
    def test_log_threshold_never_below_exact_log(self, one_plus_r):
        b = RobustnessBound(one_plus_r, BoundKind.LOWER_BOUND, BoundSource.RELATIVE_ENTROPY_INPUT)
        with mpmath.workprec(200):
            exact = mpmath.log(mpmath.mpf(b.threshold))
            assert mpmath.mpf(b.log_threshold) >= exact
            # and at most two floats above it
            two_below = math.nextafter(math.nextafter(b.log_threshold, -math.inf), -math.inf)
            assert mpmath.mpf(two_below) <= exact

    def test_threshold_steps_up_for_dicke(self):
        # 1 + R(8, 4) = 128/35 rounds down, so the reciprocal of the float
        # lies just above 35/128 and the threshold steps one float up
        b = dicke_robustness(8, 4)
        assert b.threshold == math.nextafter(35 / 128, 1.0)
        assert singlet_robustness().threshold == 0.5

    def test_rejects_infinite_one_plus_r(self):
        with pytest.raises(ThermwitError):
            RobustnessBound(math.inf, BoundKind.LOWER_BOUND, BoundSource.RELATIVE_ENTROPY_INPUT)


class TestBoundSubstitution:
    @given(st.floats(min_value=0.01, max_value=12.0), st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_smaller_input_gives_weaker_threshold(self, e_r, shrink):
        full = bound_from_relative_entropy(e_r)
        partial = bound_from_relative_entropy(e_r * shrink)
        assert partial.one_plus_r <= full.one_plus_r
        assert partial.threshold >= full.threshold

    def test_geometric_input_reproduces_dicke_bound(self):
        # for symmetric states the geometric measure saturates the chain
        overlap, eg = geometric_measure_als(dicke_state(4, 2), seed=7)
        via_eg = bound_from_relative_entropy(eg, source=BoundSource.GEOMETRIC_INPUT)
        assert via_eg.one_plus_r == pytest.approx(
            dicke_robustness(4, 2).one_plus_r, rel=1e-9
        )
