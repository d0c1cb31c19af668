"""Gibbs-state quantities over discrete spectra.

Everything is computed in the log domain after shifting by the ground
energy, so populations and log partition functions stay finite at any
temperature the package accepts (T = 0 itself is excluded; probe the limit
with kT around 1e-6 times the gap).

Every kernel takes kT, the product of temperature and Boltzmann's constant;
only the searches in ``witness`` take k_B and work in temperature. The
spectrum kernel (``log_population``, ``log_partition_function``) takes one
kT, giving a float, or an array of kT values, giving an array, and each
point gets the bits a one-kT call gives: every row is summed on its own
along the contiguous level axis. It works in row blocks of at most
BLOCK_TERMS = 2^17 terms, so each temporary stays within 1 MB (or one
row, for a spectrum with more levels): a sweep's 2,000 x 4 dimer grid is
one block, and the `toy --oracles` re-sum of 10^5 levels over its whole
grid is one call of one row a block.

The spectrum kernel cuts its rows on the sorted levels. x_j = E_j - E_0
ascends from x_0 = 0, and the largest shifted term m of a row is at least
the j = 0 one, log g_0. So a level with x_j >= kT * (log g_max - log g_0
- EXP_TINY + 1) has a_j - m <= log g_max - x_j/kT - log g_0 <= EXP_TINY - 1
for its term a_j = log g_j - x_j/kT. The 1 covers the rounding of that
product (half a subnormal ulp over kT, at most 1/2, at the smallest kT;
about 1e-13 elsewhere) and of the divisions and subtractions. One binary
search per block, at its largest kT, finds the first such level; the
terms from there on are written 0.0 without being computed, as the
EXP_TINY mask below would have written them, and the sum still runs over
all levels, so its pairwise order and its bits are unchanged. At a kT that
overflows the product nothing is cut, since x/kT is NaN where both are inf.

The closed-form ladder sum costs O(1) at alpha = 0, one excited level of
degeneracy D-1. For alpha > 0 it keeps one cache entry: the read-only level
array -m**alpha * delta of the last ladder it summed, so a sweep or a
crossing search over one ladder builds it once. One entry bounds the memory
to one ladder (8 MB at 10^6 levels). The levels are sorted, so a binary
search finds the terms above EXP_TINY.

Both kernels write 0.0 for every shifted term at or below EXP_TINY without
calling exp: there exp is subnormal or zero, and a subnormal result costs
~120-160 ns against ~1 ns for a normal one. Each dropped term is below
2^-1022 and there are fewer than 2^20 of them, while each sum holds
exp(0) = 1, so the dropped mass sits ~950 binades below half an ulp of the
sum. That is not a proof that no bit moves: a rounding difference inside a
subtree of tiny terms could still reach the last bit if every pairwise
addition above it sat within that difference of a rounding tie. The tests
compare both kernels hex for hex against sums that exponentiate every term.
"""
from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .errors import ThermwitError
from .numerics import _float_or_array, hermitian_eigendecompose
from .systems import Spectrum, ToySpectrumParams

LN2 = math.log(2.0)
# np.exp is exactly +0.0 at and below about -745.13: a ladder whose largest
# shifted term is at or below this cut has a tail of exactly 0.
EXP_ZERO = -746.0
# Just below ln(2^-1022) = -708.3964..., so np.exp of any value at or below
# it is subnormal or zero; the kernels write such terms as 0.0.
EXP_TINY = -708.4
# The spectrum kernel works in row blocks of at most this many terms (1 MB of
# float64 per temporary); a spectrum with more levels takes one row a block.
BLOCK_TERMS = 2**17


def _kt_array(kt: float | np.ndarray) -> np.ndarray:
    """kT as an array, 0-d for one kT; any kT not > 0 (NaN too) raises."""
    kt = np.asarray(kt, dtype=float)
    if not (kt > 0.0).all():
        raise ThermwitError("kT must be positive")
    return kt


def _cut(s: Spectrum, kt: float) -> int:
    """First level whose shifted term is at or below EXP_TINY at kT or any smaller kT.

    Every level from it on is, too (see the module docstring); at least 1.
    """
    # a Python float: inf where the product overflows
    reach = kt * (s._log_degeneracy_span - EXP_TINY + 1.0)
    if not reach < math.inf:
        return s.n_levels
    return int(s._excitations[1:].searchsorted(reach)) + 1


# at a subnormal kT a gap over kT overflows to inf, as intended
@np.errstate(over="ignore")
def _log_sums(s: Spectrum, kt: np.ndarray) -> np.ndarray:
    """log sum_j g_j exp(-(E_j - E0)/kT) for each kT, in kT's shape.

    The one log-sum behind the spectrum kernel. Each row holds the shifted
    terms a_j = log g_j - (E_j - E0)/kT less their max m, exponentiated
    where above EXP_TINY and 0.0 elsewhere, and returns m + log of their
    sum. Levels from each block's cut on (see the module docstring) are
    written 0.0 without being computed; the sum still runs over all
    levels. The last log is math.log row by row, as in a one-point call:
    numpy's log on the sums moved 203 of 350,000 log populations by an ulp
    (7 dimer fields and 40 random spectra of 2-40 levels, j <= 2, kT from
    1e-6 to 1e6).
    """
    x, log_g = s._excitations, s.log_degeneracies
    n = x.size
    flat = kt.reshape(-1)
    rows = max(1, BLOCK_TERMS // n)
    out = np.empty(flat.size)
    block = np.zeros((min(rows, flat.size), n))
    zero_from = 0  # every row of block is 0.0 from this column on
    for start in range(0, flat.size, rows):
        k = flat[start:start + rows, None]
        cut = _cut(s, float(k.max()))
        terms = block[:k.shape[0]]
        if cut < zero_from:
            terms[:, cut:zero_from] = 0.0
        zero_from = cut
        head = terms[:, :cut]
        np.divide(x[:cut], k, out=head)
        np.subtract(log_g[:cut], head, out=head)
        m = head.max(axis=1)
        head -= m[:, None]
        # a NaN term is not <= EXP_TINY, so it goes through exp and stays NaN
        np.putmask(head, head <= EXP_TINY, -np.inf)
        np.exp(head, out=head)
        sums = terms.sum(axis=1)
        out[start:start + k.shape[0]] = m + [math.log(v) for v in sums.tolist()]
    return out.reshape(kt.shape)


def log_partition_function(s: Spectrum, kt: float | np.ndarray) -> float | np.ndarray:
    """log Z = -E0/kT + log sum_j g_j exp(-(E_j - E0)/kT)."""
    kt = _kt_array(kt)
    return _float_or_array(-s.ground_energy / kt + _log_sums(s, kt))


def exp_or_inf(log_z: float) -> float:
    """Z from log Z; inf only when log Z exceeds float range."""
    try:
        return math.exp(log_z)
    except OverflowError:
        return math.inf


def log_population(
    s: Spectrum, kt: float | np.ndarray, level_index: int = 0
) -> float | np.ndarray:
    """log e^{-E_j/kT} / Z of one state in level j: the one spectrum kernel.

    ``kt`` is one kT, giving a float, or an array of kT values, giving an
    array of their shape with the same bits per point.
    """
    if not 0 <= level_index < s.n_levels:
        raise ThermwitError(f"level {level_index} outside 0..{s.n_levels - 1}")
    kt = _kt_array(kt)
    shift = (float(s.energies[level_index]) - s.ground_energy) / kt
    return _float_or_array(-shift - _log_sums(s, kt))


def thermal_density_matrix(h: np.ndarray, kt: float | np.ndarray) -> np.ndarray:
    """exp(-H/kT) / Z as dense matrices, from the eigensystem of H.

    ``h`` is one Hermitian matrix or a stack of them, shape (..., d, d);
    ``kt`` is one kT or an array of them. One matrix at one kT gives a
    (d, d) matrix; otherwise the leading shapes of ``h`` and kT broadcast
    into a stack of Gibbs states, each with the bits its own H and kT give
    alone.
    """
    kt = _kt_array(kt)
    w, v = hermitian_eigendecompose(h)
    with np.errstate(over="ignore"):
        p = np.exp(-(w - w[..., :1]) / kt[..., None])
    p /= p.sum(axis=-1, keepdims=True)
    return (v * p[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def relative_entropy_ground_to_thermal(
    s: Spectrum, kt: float | np.ndarray
) -> float | np.ndarray:
    """Relative entropy (bits) between the pure ground state and the Gibbs state.

    For a nondegenerate ground level this is exactly -log2 p0, with p0 the
    ground-state population; it needs a unique ground state to be meaningful.
    ``kt`` is one kT or an array of them, as in log_population.
    """
    if s.degeneracies[0] != 1:
        raise ThermwitError(f"ground level carries degeneracy {s.degeneracies[0]}; need 1")
    return -log_population(s, kt, 0) / LN2


@functools.lru_cache(maxsize=1)
def _ladder_levels(p: ToySpectrumParams) -> np.ndarray:
    """Read-only excited levels -m**alpha * delta, m = 1..D-1, relative to e0."""
    levels = -np.power(np.arange(1, p.n_levels, dtype=float), p.alpha) * p.delta
    levels.setflags(write=False)
    return levels


def log_ground_population_alpha_closed(p: ToySpectrumParams, kt: float) -> float:
    """Exact finite sum log p0 = -log(1 + sum_m e^{-m^alpha delta/kT}).

    The ground energy e0 drops out, so any e0 gives the same bits. The levels
    are sorted, so the largest term is the m = 1 one and the shifted terms
    fall with m: alpha = 0 (one level of degeneracy D-1) costs O(1), and for
    alpha > 0 only the terms above EXP_TINY go through exp, found by binary
    search.
    """
    kt = float(_kt_array(kt))
    # pow(1, alpha) is exactly 1, so the largest term is exactly -delta/kT
    mx = -p.delta / kt
    if mx <= EXP_ZERO:
        # e^mx is exactly 0, so the tail is 0 whatever the sum; this also
        # covers delta/kT overflowing to inf, where the shift would give NaN
        return -0.0
    if p.alpha == 0.0:
        # every shifted term is exp(0) = 1, and numpy's pairwise sum of
        # D-1 < 2^53 ones is exactly D-1
        return -math.log1p(math.exp(mx) * float(p.n_levels - 1))
    levels = _ladder_levels(p)
    # First term at or below EXP_TINY: the computed terms fall with m up to
    # an ulp-level wobble of pow (below 1e-12 here, since |mx| < 746 keeps the
    # terms near the cut below ~1500 in size), and EXP_TINY sits 0.0036 below
    # ln(2^-1022), so every term past the cut has a subnormal or zero exp.
    # The m = 1 term is exp(0) = 1, so the sum is at least 1 and the fewer
    # than 2^20 dropped terms, each below 2^-1022, lie ~950 binades below
    # half its ulp (see the module docstring for why that is not a proof).
    cut = bisect.bisect_left(
        range(levels.size), True, key=lambda j: levels.item(j) / kt - mx <= EXP_TINY
    )
    terms = np.empty(levels.size)
    head = np.divide(levels[:cut], kt, out=terms[:cut])
    head -= mx
    np.exp(head, out=head)
    # the sum still runs over all D-1 terms, so its pairwise order is unchanged
    terms[cut:] = 0.0
    # log1p of the summed tail keeps accuracy when every term underflows the
    # ground contribution.
    tail = math.exp(mx) * float(np.sum(terms))
    return -math.log1p(tail)


def log_partition_function_alpha_gamma(p: ToySpectrumParams, kt: float) -> float:
    """Continuum approximation of the ladder sum by a Gamma-function integral.

    Replacing sum_m e^{-m^alpha delta/kT} with the integral over m gives
    (Gamma(1/alpha) / alpha) * (kT/delta)^{1/alpha}; good once kT is several
    deltas, and asymptotically exact as kT/delta grows.
    """
    kt = float(_kt_array(kt))
    if p.alpha == 0.0:
        raise ThermwitError("Gamma-integral form undefined at alpha = 0")
    inv = 1.0 / p.alpha
    ratio = kt / p.delta
    # a subnormal kT over a large delta underflows to 0; a difference of logs does not
    log_ratio = math.log(ratio) if ratio > 0.0 else math.log(kt) - math.log(p.delta)
    if inv < 1e305:
        return -p.e0 / kt + math.lgamma(inv) - math.log(p.alpha) + inv * log_ratio
    # math.lgamma overflows from about 2.5e305 on, and 1/alpha is inf for a
    # subnormal alpha. Here Stirling's (x - 1/2) ln x - x + ln(2 pi)/2 is
    # lgamma(x) to the last bit; the x-sized terms share one product, which
    # rounds to +-inf outside a narrow band of kT.
    log_inv = -math.log(p.alpha)
    return (
        -p.e0 / kt
        + inv * (log_inv - 1.0 + log_ratio)
        + 0.5 * (log_inv + math.log(2.0 * math.pi))
    )


def log_stabilizer_partition_function(n: int, B: float, kt: float) -> float:
    """Closed form log Z = n * (log(1 + e^{2B/kT}) - B/kT) for n generators."""
    if n < 1:
        raise ThermwitError(f"need n >= 1 generators, got {n}")
    if not B > 0:
        raise ThermwitError(f"field B must be positive, got {B}")
    x = 2.0 * B / float(_kt_array(kt))
    return n * (float(np.logaddexp(0.0, x)) - 0.5 * x)
