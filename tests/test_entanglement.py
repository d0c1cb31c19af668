"""Tests for robustness bounds, entanglement monotones, and the ALS search."""
import math
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from thermwit.entanglement import (
    ALS_MAX_SWEEPS,
    ALS_RESTARTS,
    ALS_TOL,
    BoundKind,
    RobustnessBound,
    bipartite_pure_robustness,
    bound_from_relative_entropy,
    concurrence_signed,
    concurrence_two_qubit,
    dicke_overlap_closed,
    dicke_robustness,
    geometric_measure_als,
    ppt_min_eigenvalue,
    singlet_robustness,
)
from thermwit.entanglement import (
    _als,
    _als_starts,
    _bipartite_singular_values,
    _stirling_remainder,
)
from thermwit.errors import ThermwitError
from thermwit.numerics import partial_transpose
from thermwit.systems import (
    SIGMA_Y,
    DimerParams,
    PureState,
    build_dimer_hamiltonian,
    dicke_state,
)
from thermwit.thermal import thermal_density_matrix

SINGLET = PureState(2, np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))


def ghz(n):
    amp = np.zeros(2**n)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, amp)


def random_pure(n, rng):
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, amp / np.linalg.norm(amp))


def projector(psi):
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


def random_density_matrix(dim, rng):
    """Hilbert-Schmidt-distributed random state: normalized G G^dagger."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def schmidt_coefficients(psi, block):
    """Squared Schmidt coefficients across the cut between ``block`` and the
    rest, descending; they sum to one."""
    lam = _bipartite_singular_values(psi, block) ** 2
    return np.sort(lam / lam.sum())[::-1]


def sweep_overlaps(psi, seed=0, tol=1e-12, max_sweeps=100):
    """Overlap after every site update of one alternating-search run."""
    trace = []
    _als(psi.as_tensor(), _als_starts(psi.n_sites, 1, seed), tol, max_sweeps, trace)
    return np.concatenate(trace)


class TestSchmidt:
    def test_singlet_coefficients(self):
        lam = schmidt_coefficients(SINGLET, [0])
        assert np.allclose(lam, [0.5, 0.5])

    def test_product_state_is_rank_one(self):
        amp = np.kron([1.0, 0.0], [math.sqrt(0.3), math.sqrt(0.7)])
        lam = schmidt_coefficients(PureState(2, amp), [1])
        assert lam[0] == pytest.approx(1.0)
        assert np.all(lam[1:] < 1e-15)

    def test_against_direct_svd_with_site_permutation(self):
        rng = np.random.default_rng(21)
        psi = random_pure(3, rng)
        lam = schmidt_coefficients(psi, [1])
        tensor = psi.amplitudes.reshape(2, 2, 2)
        mat = np.moveaxis(tensor, 1, 0).reshape(2, 4)
        s = scipy.linalg.svd(mat, compute_uv=False)
        assert np.allclose(lam, np.sort(s**2)[::-1], atol=1e-12)

    def test_coefficients_sum_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            psi = random_pure(4, rng)
            lam = schmidt_coefficients(psi, [0, 2])
            assert np.sum(lam) == pytest.approx(1.0)


class TestCut:
    @pytest.mark.parametrize(
        "block, message",
        [
            ([], r"cut \(\) leaves no site on one side of 3"),
            ([0, 1, 2], r"cut \(0, 1, 2\) leaves no site on one side of 3"),
            ([2, 0, 1], r"cut \(2, 0, 1\) leaves no site on one side of 3"),
            ([0, 0], r"cut \(0, 0\) repeats a site"),
            ([1, 3], r"cut \(1, 3\) names a site outside 0\.\.2"),
            ([-1], r"cut \(-1,\) names a site outside 0\.\.2"),
        ],
        ids=["empty", "all-sites", "all-sites-unsorted", "repeat", "too-high", "negative"],
    )
    def test_rejects_bad_block(self, block, message):
        with pytest.raises(ThermwitError, match=message):
            bipartite_pure_robustness(random_pure(3, np.random.default_rng(5)), block)

    def test_block_order_does_not_matter(self):
        psi = random_pure(4, np.random.default_rng(6))
        assert np.array_equal(
            _bipartite_singular_values(psi, [2, 0]), _bipartite_singular_values(psi, (0, 2))
        )


class TestRobustnessBounds:
    def test_singlet_value(self):
        b = singlet_robustness()
        assert b.one_plus_r == 2.0
        assert b.kind is BoundKind.EXACT
        assert b.threshold == 0.5

    def test_bipartite_singlet_matches_known(self):
        b = bipartite_pure_robustness(SINGLET, [0])
        assert b.one_plus_r == pytest.approx(2.0, rel=1e-14)

    def test_ghz_half_cut(self):
        for n in (2, 4, 6):
            b = bipartite_pure_robustness(ghz(n), range(n // 2))
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
            with pytest.raises(ThermwitError, match="product state: robustness 0"):
                dicke_robustness(4, k)

    def test_entropy_bound_is_power_of_two(self):
        b = bound_from_relative_entropy(3.0)
        assert b.one_plus_r == 8.0
        assert b.kind is BoundKind.LOWER_BOUND

    def test_entropy_bound_rejects_bad_inputs(self):
        with pytest.raises(ThermwitError, match="entanglement input must be >= 0"):
            bound_from_relative_entropy(-0.1)
        with pytest.raises(ThermwitError):
            bound_from_relative_entropy(2000.0)

    def test_one_site_cut_is_strictly_weaker_for_w_states(self):
        for n in (3, 4, 5):
            w = dicke_state(n, 1)
            bip = bipartite_pure_robustness(w, [0])
            multi = dicke_robustness(n, 1)
            assert bip.one_plus_r < multi.one_plus_r - 1e-6

    def test_half_cut_equals_full_for_half_filling(self):
        for n in (4, 6, 8, 10):
            half = bipartite_pure_robustness(dicke_state(n, n // 2), range(n // 2))
            full = dicke_robustness(n, n // 2)
            assert half.one_plus_r == pytest.approx(full.one_plus_r, rel=1e-12)

    def test_exact_half_cut_never_rounds_up(self):
        # the plain square of the float sum reads 3.2000000000000006 here
        half = bipartite_pure_robustness(dicke_state(6, 3), (0, 1, 2))
        assert Fraction(half.one_plus_r) <= Fraction(16, 5)

    def test_dicke_cuts_match_mpmath_from_below(self):
        # the first a sites of D(n, k) against the rest have Schmidt values
        # sqrt(C(a, j) C(n - a, k - j) / C(n, k)); each cut's 1 + R stays at
        # or below their sum squared, and within 2e-12 of it
        with mpmath.workprec(200):
            for n in range(2, 13):
                for k in range(1, n):
                    psi = dicke_state(n, k)
                    for a in range(1, n):
                        terms = (
                            mpmath.sqrt(math.comb(a, j) * math.comb(n - a, k - j))
                            for j in range(max(0, k - n + a), min(a, k) + 1)
                        )
                        exact = mpmath.fsum(terms) ** 2 / math.comb(n, k)
                        got = bipartite_pure_robustness(psi, range(a))
                        assert exact * (1 - 2e-12) <= got.one_plus_r <= exact, (n, k, a)
                        assert got.kind is (BoundKind.EXACT if n == 2 else BoundKind.LOWER_BOUND)


class TestDickeOverlapLargeN:
    def test_within_an_ulp_of_mpmath_up_to_the_cutoff(self):
        # the square root of the correctly rounded 1 / (1 + R): every k below
        # 80 sites, sampled k above; a float product of C(n, k), (k/n)^k and
        # ((n-k)/n)^(n-k) is 463 ulps off at (2000, 3)
        cases = [(n, k) for n in range(2, 80) for k in range(1, n)]
        cases += [
            (n, k) for n in range(80, 2001, 41) for k in {1, 2, 3, n // 3, n // 2, n - 1}
        ]
        cases += [(2000, 3), (2000, 1000)]
        for n, k in cases:
            got = dicke_overlap_closed(n, k)
            exact = _exact_dicke_one_plus_r(n, k) ** -0.5
            with mpmath.workprec(200):
                assert abs(mpmath.mpf(got) - exact) <= math.ulp(got), (n, k)

    @pytest.mark.parametrize("n", [2001, 10**4, 10**6, 10**9])
    def test_within_8_ulps_of_mpmath_above_the_cutoff(self, n):
        # Stirling's log; the float product is 1.3e8 ulps off at (10^9, 2)
        for k in (1, 2, 3, 5, 16, 50, n // 2):
            got = dicke_overlap_closed(n, k)
            exact = _exact_dicke_one_plus_r(n, k) ** -0.5
            with mpmath.workprec(200):
                assert abs(mpmath.mpf(got) - exact) <= 8 * math.ulp(got), (n, k)

    @pytest.mark.parametrize("n, k", [(10**9, 10**9 // 2), (10**9, 2), (2000, 3), (7, 2)])
    def test_square_is_the_threshold_within_its_budget(self, n, k):
        # both come from one route, so they agree within the robustness's own
        # rounding budget, 8 eps (1 + |ln threshold|)
        threshold = dicke_robustness(n, k).threshold
        budget = 8 * sys.float_info.epsilon * (1.0 + abs(math.log(threshold)))
        assert abs(dicke_overlap_closed(n, k) ** 2 / threshold - 1.0) <= budget

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

    @pytest.mark.parametrize("n", [10**6, 10**7, 10**9])
    def test_half_filling_at_huge_n_is_fast_and_accurate(self, n):
        # building C(n, n/2) takes ~7 s at n = 10^6 and never ends at 10^9
        start = time.perf_counter()
        overlap = dicke_overlap_closed(n, n // 2)
        assert time.perf_counter() - start < 1.0
        exact = _exact_dicke_one_plus_r(n, n // 2) ** -0.5
        assert abs(overlap - float(exact)) <= 1e-12 * float(exact)


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
            assert concurrence_two_qubit(projector(psi)) == pytest.approx(1.0)

    def test_product_state_zero(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert concurrence_two_qubit(rho) == pytest.approx(0.0, abs=1e-12)

    def test_werner_family_closed_form(self):
        # p |singlet><singlet| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
        proj = projector(SINGLET)
        eye = np.eye(4) / 4.0
        for p in np.linspace(0.0, 1.0, 21):
            rho = p * proj + (1.0 - p) * eye
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert concurrence_two_qubit(rho) == pytest.approx(expected, abs=1e-10)
            # the PPT test must agree exactly on two qubits
            negative = ppt_min_eigenvalue(rho, (2, 2), (0,)) < -1e-12
            assert negative == (expected > 0) or abs(3.0 * p - 1.0) < 1e-9

    def test_signed_form_continues_through_zero(self):
        proj = projector(SINGLET)
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

    @pytest.mark.parametrize("b", [0.0, 1.3, 3.9, 4.5, 6.0])
    def test_dimer_gibbs_states_match_x_state_form(self, b):
        for kt in np.geomspace(0.5, 20.0, 40):
            rho = thermal_density_matrix(build_dimer_hamiltonian(DimerParams(b, 1.0)), kt)
            got = concurrence_signed(rho)
            assert abs(got - _dimer_x_state_concurrence(b, 1.0, kt)) <= 1e-12, (b, kt)

    def test_dimer_gibbs_state_far_below_the_gap(self):
        # The point a dimer --B 1.3 --oracles sweep reaches at T = 0.155: the
        # three small spin-flip eigenvalues sit near 0 with ~eps of noise and
        # the oracle takes their square roots, so it is good to ~5e-9 here
        # (0.99999996749 against 0.99999997276), not to eps.
        rho = thermal_density_matrix(build_dimer_hamiltonian(DimerParams(1.3, 1.0)), 0.155)
        exact = _dimer_x_state_concurrence(1.3, 1.0, 0.155)
        assert abs(concurrence_signed(rho) - exact) <= 1e-8


def _dimer_x_state_concurrence(b, j, kt):
    """|p_s - p_t0| - 2 sqrt(p_00 p_11) from the four dimer populations.

    The dimer's Gibbs state is an X-state: diagonal in |00>, |11> and a 2x2
    block on |01>, |10> whose eigenvectors are the singlet and triplet zero.
    """
    levels = {"00": j - b, "s": -3.0 * j, "t0": j, "11": j + b}
    ground = min(levels.values())
    weights = {name: math.exp(-(e - ground) / kt) for name, e in levels.items()}
    z = math.fsum(weights.values())
    p = {name: w / z for name, w in weights.items()}
    return abs(p["s"] - p["t0"]) - 2.0 * math.sqrt(p["00"] * p["11"])


def _per_matrix(fn, stack, *args):
    return [fn(m, *args) for m in stack]


def _concurrence_signed_kron(rho):
    """concurrence_signed with the spin flip as two matrix products by Y x Y."""
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    a = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    ev = np.linalg.eigvalsh(root @ yy @ a.conj() @ yy @ root)
    mu = np.sqrt(np.clip(ev, 0.0, None))[..., ::-1]
    return mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3]


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


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
            assert rho.tobytes() == thermal_density_matrix(h, kt).tobytes()
        assert list(concurrence_two_qubit(stack)) == _per_matrix(concurrence_two_qubit, stack)
        assert list(ppt_min_eigenvalue(stack, (2, 2), (0,))) == _per_matrix(
            ppt_min_eigenvalue, stack, (2, 2), (0,)
        )

    def test_concurrence_matches_the_kron_reference(self):
        # the spin flip is a signed reversal of columns, not two matmuls by Y x Y
        stacks = [
            thermal_density_matrix(
                build_dimer_hamiltonian(DimerParams(b, 1.0)), np.linspace(0.05, 10.0, 2000)
            )
            for b in (0.0, 1.3, 5.1)
        ]
        rng = np.random.default_rng(53)
        stacks.append(np.array([random_density_matrix(4, rng) for _ in range(200)]))
        for stack in stacks:
            assert _hex(concurrence_signed(stack)) == _hex(_concurrence_signed_kron(stack))
        for rho in stacks[-1][:20]:
            assert _hex(concurrence_signed(rho)) == _hex(_concurrence_signed_kron(rho))

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
            with pytest.raises(ThermwitError, match=r"above 1\.000e-12 at index \(3,\)"):
                oracle(stack)

    def test_rejects_one_matrix_off_unit_trace(self):
        rng = np.random.default_rng(53)
        stack = np.array([random_density_matrix(4, rng) for _ in range(5)])
        stack[1] *= 1.0 + 1e-6
        for oracle in (concurrence_two_qubit, lambda m: ppt_min_eigenvalue(m, (2, 2), (1,))):
            with pytest.raises(ThermwitError, match=r"deviates from 1 at index \(1,\)"):
                oracle(stack)

    def test_ppt_keeps_the_strict_hermiticity_check(self):
        # both oracles hold a state to the solver's 1e-12 * max(1, max|rho|)
        rho = random_density_matrix(4, np.random.default_rng(54))
        rho[0, 1] += 1e-10
        stack = np.array([random_density_matrix(4, np.random.default_rng(55)), rho])
        flat = np.eye(4) / 4.0
        flat[0, 1] = 1e-10
        message = r"= 1\.000e-10 above 1\.000e-12"
        for oracle in (concurrence_two_qubit, lambda m: ppt_min_eigenvalue(m, (2, 2), (0,))):
            with pytest.raises(ThermwitError, match=message + r" at index \(1,\)$"):
                oracle(stack)
            for one in (rho, flat):
                with pytest.raises(ThermwitError, match=message + "$"):
                    oracle(one)


class TestPPT:
    @pytest.mark.parametrize("dims, subset", [((2, 2), (0,)), ((2, 3), (1,)), ((2, 2, 2), (0, 2))])
    def test_partial_transpose_keeps_the_hermiticity_measures(self, dims, subset):
        # why ppt_min_eigenvalue checks rho and not its partial transpose again
        rng = np.random.default_rng(56)
        d = math.prod(dims)
        for _ in range(20):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            pt = partial_transpose(m, dims, subset)
            assert np.max(np.abs(pt - pt.conj().T)) == np.max(np.abs(m - m.conj().T))
            assert np.max(np.abs(pt)) == np.max(np.abs(m))

    def test_non_hermitian_state_raises(self):
        rho = random_density_matrix(6, np.random.default_rng(57))
        rho[1, 4] += 1e-9  # an entry the transpose of the second factor moves
        for subset in ((0,), (1,)):
            with pytest.raises(ThermwitError, match=r"max \|m - m\^dagger\| = 1\.000e-09"):
                ppt_min_eigenvalue(rho, (2, 3), subset)

    def test_isotropic_threshold(self):
        # 2x2 isotropic states are entangled exactly above fidelity 1/2
        phi = projector(ghz(2))
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
            overlap, eg = geometric_measure_als(ghz(n), seed=1)
            assert overlap == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)
            assert eg == pytest.approx(1.0, abs=1e-9)

    def test_dicke_matches_closed_form(self):
        for n, k in [(3, 1), (4, 2), (6, 3), (6, 2)]:
            overlap, _ = geometric_measure_als(dicke_state(n, k), seed=2)
            assert overlap == pytest.approx(dicke_overlap_closed(n, k), abs=1e-10)

    def test_product_state_reaches_one(self):
        amp = np.kron(np.kron([1.0, 0.0], [0.6, 0.8]), [0.0, 1.0])
        overlap, eg = geometric_measure_als(PureState(3, amp), seed=3)
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert eg == pytest.approx(0.0, abs=1e-10)

    def test_overlap_never_exceeds_one(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            overlap, eg = geometric_measure_als(random_pure(3, rng), seed=5)
            assert 0.0 < overlap <= 1.0
            assert eg >= 0.0

    def test_sweeps_monotone_nondecreasing(self):
        history = sweep_overlaps(dicke_state(5, 2), seed=6, max_sweeps=40)
        arr = np.array(history)
        assert np.all(np.diff(arr) >= -1e-13)


def _random_unit_qubit(rng):
    """One start vector as the search first drew them, one site at a time."""
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


class TestALSStarts:
    @pytest.mark.parametrize("restarts", [1, 32])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12])
    def test_bits_of_the_site_by_site_draw(self, n, restarts):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            expected = [[_random_unit_qubit(rng) for _ in range(n)] for _ in range(restarts)]
            got = _als_starts(n, restarts, seed)
            assert got.shape == (restarts, n, 2)
            assert [z.hex() for z in got.view(float).ravel().tolist()] == [
                z.hex() for z in np.array(expected).view(float).ravel().tolist()
            ]


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


def _reference_als_best(psi, seed):
    rng = np.random.default_rng(seed)
    runs = [
        _reference_als_run(psi.as_tensor(), psi.n_sites, rng, ALS_TOL, ALS_MAX_SWEEPS)[0]
        for _ in range(ALS_RESTARTS)
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
            overlap, _ = geometric_measure_als(psi, seed=seed)
            assert abs(overlap - _reference_als_best(psi, seed)) <= 1e-12

    @pytest.mark.parametrize("psi", _EQUIVALENCE_STATES, ids=_EQUIVALENCE_IDS)
    def test_sweep_history(self, psi):
        # tol = 0 would stop on the first sweep whose overlap rounds no higher,
        # a rounding accident; 1e-12 (the search's default) stops on convergence.
        for seed in range(5):
            _, expected = _reference_als_run(
                psi.as_tensor(), psi.n_sites, np.random.default_rng(seed), 1e-12, 100
            )
            history = sweep_overlaps(psi, seed=seed, tol=1e-12)
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
        b = RobustnessBound(one_plus_r, BoundKind.LOWER_BOUND)
        exact = 1 / Fraction(one_plus_r)
        assert Fraction(b.threshold) >= exact
        assert Fraction(math.nextafter(b.threshold, 0.0)) < exact

    @given(st.floats(min_value=1.0, max_value=1e300))
    @settings(max_examples=500, deadline=None)
    def test_log_threshold_never_below_exact_log(self, one_plus_r):
        b = RobustnessBound(one_plus_r, BoundKind.LOWER_BOUND)
        with mpmath.workprec(200):
            exact = mpmath.log(mpmath.mpf(b.threshold))
            assert mpmath.mpf(b.log_threshold) >= exact
            # and at most two floats above it
            two_below = math.nextafter(math.nextafter(b.log_threshold, -math.inf), -math.inf)
            assert mpmath.mpf(two_below) <= exact

    def test_threshold_steps_up_for_dicke(self):
        # 1 + R(8, 4) = 128/35 rounds down, so the reciprocal of that float
        # lies just above 35/128 and a threshold from it steps one float up;
        # the closed form hands over the exact value, whose reciprocal is
        # the float 35/128 itself
        b = dicke_robustness(8, 4)
        from_float = RobustnessBound(b.one_plus_r, b.kind)
        assert from_float.threshold == math.nextafter(35 / 128, 1.0)
        assert b.threshold == 35 / 128
        assert dicke_robustness(12, 6).threshold == 0.2255859375
        assert singlet_robustness().threshold == 0.5

    def test_dicke_threshold_is_smallest_float_not_below_exact(self):
        for n in range(2, 65):
            for k in range(1, n):
                b = dicke_robustness(n, k)
                exact = Fraction(math.comb(n, k) * k**k * (n - k) ** (n - k), n**n)
                assert Fraction(b.threshold) >= exact, (n, k)
                assert Fraction(math.nextafter(b.threshold, 0.0)) < exact, (n, k)

    def test_rejects_exact_value_below_the_float(self):
        with pytest.raises(ThermwitError, match="lies above its exact value"):
            RobustnessBound(2.0, BoundKind.EXACT, exact_one_plus_r=Fraction(199, 100))

    def test_rejects_infinite_one_plus_r(self):
        with pytest.raises(ThermwitError):
            RobustnessBound(math.inf, BoundKind.LOWER_BOUND)

    def test_rejects_one_plus_r_below_one(self):
        with pytest.raises(ThermwitError, match="1 \\+ R must be finite and >= 1, got 0.5"):
            RobustnessBound(0.5, BoundKind.EXACT)


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
        via_eg = bound_from_relative_entropy(eg)
        assert via_eg.one_plus_r == pytest.approx(
            dicke_robustness(4, 2).one_plus_r, rel=1e-9
        )
