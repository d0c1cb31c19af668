"""Robustness bounds and reference entanglement quantities.

The witness consumes a single number per candidate state: 1 + R, either
exact (closed forms, bipartite Schmidt data) or a certified lower bound
derived from relative-entropy input. The diagnostics at the bottom
(concurrence, partial-transpose spectra, alternating-search overlap) are
cross-checks only; the alternating search in particular returns a plain
tuple because its output bounds the geometric measure from the wrong side
and must never be promoted into a RobustnessBound.
"""
from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ThermwitError
from .numerics import (
    _checked_hermitian,
    _float_or_array,
    first_failure,
    hermitian_eigendecompose,
    partial_transpose,
)
from .systems import SIGMA_Y, PureState

_EXACT_DICKE_CUTOFF = 2000
# The alternating search: restarts per call, the overlap gain below which a
# restart stops, and a cap on its sweeps.
ALS_RESTARTS = 32
ALS_TOL = 1e-12
ALS_MAX_SWEEPS = 500


class BoundKind(Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class RobustnessBound:
    """1 + R for a candidate ground state.

    ``kind`` records whether the number is the exact robustness or a
    certified lower bound; substituting a smaller lower bound can only make
    the witness more conservative, never unsound.
    """

    one_plus_r: float
    kind: BoundKind
    # Population the ground state must exceed: the smallest float not below
    # 1 / (1 + R), so rounding never lowers the bar.
    threshold: float = field(init=False, repr=False, compare=False)
    # log of ``threshold``, one float up from the rounded log so it never sits
    # below the exact one: the witness holds where log p0 exceeds it.
    log_threshold: float = field(init=False, repr=False, compare=False)
    # The exact 1 + R where a closed form knows it, so the threshold comes
    # from 1 / exact rather than from the rounded-down float; not stored.
    exact_one_plus_r: InitVar[Fraction | None] = None

    def __post_init__(self, exact_one_plus_r: Fraction | None) -> None:
        if not 1.0 <= self.one_plus_r < math.inf:
            raise ThermwitError(f"1 + R must be finite and >= 1, got {self.one_plus_r}")
        if exact_one_plus_r is None:
            exact_one_plus_r = Fraction(self.one_plus_r)
        elif exact_one_plus_r < Fraction(self.one_plus_r):
            raise ThermwitError(f"1 + R = {self.one_plus_r} lies above its exact value")
        exact_threshold = 1 / exact_one_plus_r
        threshold = float(exact_threshold)
        if Fraction(threshold) < exact_threshold:
            threshold = math.nextafter(threshold, math.inf)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "log_threshold", math.nextafter(math.log(threshold), math.inf))

    @property
    def relative_entropy_bits(self) -> float:
        return math.log2(self.one_plus_r)


def _bipartite_singular_values(psi: PureState, block: Sequence[int]) -> np.ndarray:
    """Singular values of ``psi`` across the cut between the sites in ``block``
    and the rest; ``block`` must be a nonempty proper subset of 0..n-1."""
    n = psi.n_sites
    cut = tuple(int(i) for i in block)
    if not all(0 <= i < n for i in cut):
        raise ThermwitError(f"cut {cut} names a site outside 0..{n - 1}")
    if len(set(cut)) != len(cut):
        raise ThermwitError(f"cut {cut} repeats a site")
    if not 0 < len(cut) < n:
        raise ThermwitError(f"cut {cut} leaves no site on one side of {n}")
    a = sorted(cut)
    b = [i for i in range(n) if i not in cut]
    matrix = psi.as_tensor().transpose(a + b).reshape(2 ** len(a), 2 ** len(b))
    return np.linalg.svd(matrix, compute_uv=False)


def bipartite_pure_robustness(psi: PureState, block: Sequence[int]) -> RobustnessBound:
    """1 + R of a pure state across the cut between the sites in ``block`` and
    the rest, (sum_i sigma_i)^2 over its singular values, rounded down.

    LAPACK's SVD is backward stable: the computed sigma_i are the singular
    values of some M + dM with ||dM||_2 <= p eps ||M||_2 for a modest p
    (Golub & Van Loan, *Matrix Computations*, section 8.6), and by Weyl's
    inequality each sigma_i is then off by at most ||dM||_2. Taking p as
    r = min(d_A, d_B), the number of values, each is off by at most
    delta = r eps sigma_max; the sum less r delta, squared and stepped one
    float down, stays at or below the exact value on every cut of every
    Dicke state on 2..12 sites (tested against mpmath). On two sites the cut
    is the whole state; on more it bounds the multipartite 1 + R from below.
    """
    s = _bipartite_singular_values(psi, block)
    r = s.size
    delta = r * sys.float_info.epsilon * float(s[0])
    value = math.nextafter((float(np.sum(s)) - r * delta) ** 2, 0.0)
    kind = BoundKind.EXACT if psi.n_sites == 2 else BoundKind.LOWER_BOUND
    return RobustnessBound(one_plus_r=max(1.0, value), kind=kind)


def singlet_robustness() -> RobustnessBound:
    """The two-qubit singlet has robustness R = 1 exactly."""
    return RobustnessBound(one_plus_r=2.0, kind=BoundKind.EXACT)


def dicke_robustness(n: int, k: int) -> RobustnessBound:
    """Closed-form 1 + R for the symmetric state with k excitations on n sites.

    1 + R = (1/C(n,k)) (n/k)^k (n/(n-k))^{n-k}. Small n goes through exact
    integer arithmetic and returns the largest float not above the exact
    value. Large n takes log(1 + R) from Stirling's formula, as
    ``dicke_overlap_closed`` does, and exponentiates it below an error
    budget, so the value still does not round up.
    """
    if n < 2:
        raise ThermwitError(f"need n >= 2 sites, got {n}")
    if k < 0 or k > n:
        raise ThermwitError(f"excitation count {k} outside 0..{n}")
    if k == 0 or k == n:
        raise ThermwitError("product state: robustness 0 is not a witness input")
    exact = None
    if n <= _EXACT_DICKE_CUTOFF:
        exact = Fraction(n**n, math.comb(n, k) * k**k * (n - k) ** (n - k))
        value = float(exact)
        if Fraction(value) > exact:
            value = math.nextafter(value, 0.0)
    else:
        log_value = -_dicke_log_overlap_sq(n, k)
        # The log carries a few ulps of its own size, and exp turns that into
        # as many parts in 2^52 of the value (up to ~20 ulps at n ~ 1e7), so
        # one step down is not enough: step below a budget of 4 ulps per unit
        # of |log|, then one float down for the exp's own rounding.
        budget = 4.0 * sys.float_info.epsilon * (abs(log_value) + 1.0)
        value = math.nextafter(math.exp(log_value - budget), 0.0)
    return RobustnessBound(one_plus_r=value, kind=BoundKind.EXACT, exact_one_plus_r=exact)


# log m! - ((m + 1/2) log m - m + log sqrt(2 pi)) for m = 1..15, rounded to
# nearest from 200-bit mpmath: in double arithmetic those terms cancel to
# ~1e-14, far above the 1e-16 the series gives from 16 up.
_STIRLING_SMALL = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirling_remainder(m: int) -> float:
    """log m! - ((m + 1/2) log m - m + log sqrt(2 pi)) for m >= 1, to ~1e-16.

    Below 16 it is read from a table; from 16 up the series through
    1/(1188 m^9) is used, whose truncation error is below 1e-16 there.
    """
    if m < 16:
        return _STIRLING_SMALL[m - 1]
    x = 1.0 / (m * m)
    return (1 / 12 - x * (1 / 360 - x * (1 / 1260 - x * (1 / 1680 - x / 1188)))) / m


def _dicke_log_overlap_sq(n: int, k: int) -> float:
    """log of 1 / (1 + R) for the (n, k) symmetric state, from Stirling's formula.

    log C(n, k) + k log(k/n) + (n-k) log((n-k)/n), with the m log m terms
    cancelled exactly; its error is a few ulps of the log's own size.
    """
    return (
        0.5 * math.log(n / (2.0 * math.pi * k * (n - k)))
        + _stirling_remainder(n)
        - _stirling_remainder(k)
        - _stirling_remainder(n - k)
    )


def dicke_overlap_closed(n: int, k: int) -> float:
    """Largest product-state overlap of the (n, k) symmetric state.

    The square of this overlap is exactly 1 / (1 + R), so the geometric and
    robustness routes agree for these states. Where C(n, k) exceeds float
    range, log overlap^2 = log C(n, k) + k log(k/n) + (n-k) log((n-k)/n) is
    summed from Stirling's formula, in which the m log m terms cancel exactly,
    so the result keeps ~1e-14 relative accuracy at any n.
    """
    if n < 2 or k <= 0 or k >= n:
        raise ThermwitError(f"need n >= 2 and 0 < k < n, got n={n}, k={k}")
    # Building C(n, k) exactly takes seconds from n ~ 1e6 on. Above ~1030
    # bits (lgamma puts log2 C(n, k) within far less than a bit) it would
    # overflow float range anyway, so skip it there.
    log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    if log_comb <= 1030.0 * math.log(2.0):
        try:
            return math.sqrt(math.comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k))
        except OverflowError:  # C(n, k) beyond float range
            pass
    return math.exp(0.5 * _dicke_log_overlap_sq(n, k))


def bound_from_relative_entropy(e_r: float) -> RobustnessBound:
    """Certified lower bound 1 + R >= 2^{e_r} from relative-entropy input.

    Also accepts geometric-measure input, which lower-bounds the relative
    entropy and therefore stays on the safe side of the chain.
    """
    if e_r < 0:
        raise ThermwitError(f"entanglement input must be >= 0, got {e_r}")
    if e_r > 1000:
        raise ThermwitError(f"2^{e_r} not representable; rescale the input")
    if float(e_r).is_integer():
        value = math.ldexp(1.0, int(e_r))
    else:
        # pow is within one ulp; one step toward 0 keeps the bound below
        # 2^{e_r}, and 1 is below it for any e_r >= 0
        value = math.nextafter(2.0**e_r, 0.0)
        if value < 1.0:
            value = 1.0
    return RobustnessBound(one_plus_r=value, kind=BoundKind.LOWER_BOUND)


def _validate_density_matrix(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """``rho`` as complex, once each matrix of it (one, or a stack of shape
    (..., d, d)) passes ``hermitian_eigendecompose``'s Hermiticity check and
    has unit trace within 1e-9."""
    a = _checked_hermitian(np.asarray(rho, dtype=complex))
    if dim is not None and a.shape[-1] != dim:
        raise ThermwitError(f"expected dimension {dim}, got {a.shape[-1]}")
    trace = np.trace(a, axis1=-2, axis2=-1).real
    bad = np.abs(trace - 1.0) > 1e-9
    if np.any(bad):
        first = trace.flat[int(np.argmax(bad))]
        raise ThermwitError(f"trace {first} deviates from 1{first_failure(bad)}")
    return a


_YY = np.kron(SIGMA_Y, SIGMA_Y)


def concurrence_signed(rho: np.ndarray) -> float | np.ndarray:
    """mu1 - mu2 - mu3 - mu4 from the spin-flip spectrum of a two-qubit state.

    The mu_i are the eigenvalues, descending, of the Hermitian matrix
    sqrt(sqrt(rho) rho~ sqrt(rho)) with rho~ = (Y x Y) rho* (Y x Y)
    (Wootters, PRL 80, 2245, 1998), so a Hermitian solver gives them without
    the imaginary noise of a non-Hermitian product. The concurrence is the
    positive part of this; the signed value is handy for root finding because
    it crosses zero where entanglement vanishes. A stack of states, shape
    (..., 4, 4), gives an array of the values each state gives alone.
    """
    a = _validate_density_matrix(rho, dim=4)
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    ev = np.linalg.eigvalsh(root @ _YY @ a.conj() @ _YY @ root)
    mu = np.sqrt(np.clip(ev, 0.0, None))[..., ::-1]
    return _float_or_array(mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])


def concurrence_two_qubit(rho: np.ndarray) -> float | np.ndarray:
    c = concurrence_signed(rho)
    return _float_or_array(np.where(c > 0.0, c, 0.0))


def ppt_min_eigenvalue(
    rho: np.ndarray, local_dims: Sequence[int], subset: Sequence[int]
) -> float | np.ndarray:
    """Smallest eigenvalue of the partial transpose; negative certifies
    entanglement across the cut. A stack of states gives an array."""
    pt = partial_transpose(_validate_density_matrix(rho), local_dims, subset)
    return _float_or_array(hermitian_eigendecompose(pt)[0][..., 0])


def _random_unit_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _als(
    tensor: np.ndarray,
    starts: np.ndarray,
    tol: float = ALS_TOL,
    max_sweeps: int = ALS_MAX_SWEEPS,
    trace: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Alternating single-site updates for a stack of restarts at once.

    ``starts`` holds one unit vector per restart and site, shape (r, n, 2).
    Each sweep first builds the right environments conj(v_{s+1}) x ... x
    conj(v_{n-1}), then walks left to right carrying the tensor contracted
    with the already-updated left vectors, so a site update is two batched
    contractions. A restart stops updating after the first sweep in which
    its overlap rose by less than ``tol``; the final overlap of each restart
    is returned. ``trace``, when given, receives the active restarts'
    overlaps after every site update.
    """
    r, n, _ = starts.shape
    vecs = starts.copy()
    flat = tensor.reshape(2, -1)
    overlap = np.zeros(r)
    prev = np.full(r, -1.0)
    active = np.arange(r)
    for _ in range(max_sweeps):
        m = len(active)
        v = vecs[active]
        conj = v.conj()
        right = [np.ones((m, 1), dtype=complex)]
        for s in range(n - 1, 0, -1):
            right.append((conj[:, s, :, None] * right[-1][:, None, :]).reshape(m, -1))
        right.reverse()
        carried = np.broadcast_to(flat, (m, *flat.shape))
        for s in range(n):
            c = np.einsum("rab,rb->ra", carried, right[s])
            nc = np.linalg.norm(c, axis=1)
            moved = nc > 0.0
            v[moved, s] = c[moved] / nc[moved, None]
            if trace is not None:
                trace.append(nc)
            if s < n - 1:
                carried = np.einsum("rab,ra->rb", carried, v[:, s].conj()).reshape(m, 2, -1)
        vecs[active] = v
        overlap[active] = nc
        done = nc - prev[active] < tol
        prev[active] = nc
        active = active[~done]
        if active.size == 0:
            break
    return overlap


def _als_starts(n: int, restarts: int, seed: int) -> np.ndarray:
    """Random start vectors, drawn restart by restart and site by site."""
    rng = np.random.default_rng(seed)
    return np.array([[_random_unit_qubit(rng) for _ in range(n)] for _ in range(restarts)])


def geometric_measure_als(psi: PureState, seed: int) -> tuple[float, float]:
    """Best product-state overlap found by ALS_RESTARTS runs of alternating
    single-site updates from random starts drawn with ``seed``.

    Returns (overlap_estimate, eg_upper) with eg_upper = -log2(overlap^2).
    Each restart only ever increases the overlap it reports, so the estimate
    is a lower bound on the true maximal overlap and eg_upper is an UPPER
    bound on the geometric measure. Upper bounds must not enter the witness,
    which is why this returns a bare tuple rather than a RobustnessBound.
    """
    starts = _als_starts(psi.n_sites, ALS_RESTARTS, seed)
    best = min(float(np.max(_als(psi.as_tensor(), starts))), 1.0)
    eg_upper = -2.0 * math.log2(best) if best > 0 else math.inf
    return best, max(0.0, eg_upper)
