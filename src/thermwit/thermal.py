"""Gibbs-state quantities over discrete spectra.

Everything is computed in the log domain after shifting by the ground
energy, so log populations stay finite at any temperature the package
accepts (T = 0 itself is excluded; probe the limit with kT around 1e-6
times the gap). A Spectrum's log Z follows from its ground level as
-E0/kT - log p0.

Every kernel takes kT, the product of temperature and Boltzmann's constant;
only the searches in ``witness`` take k_B and work in temperature. The
population kernels take one kT, giving a float, or an array of kT values,
giving an array with the bits of one-kT calls: each row is summed on its
own, in row blocks of at most BLOCK_TERMS = 2^17 terms (1 MB a temporary).

They share one log-sum, ``_log_sums``, over levels x_j = E_j - E_0 that
ascend from x_0 = 0: a Spectrum's (one log g if all are equal), or the
ladder's cached x_m = m**alpha * delta with log g = 0 (at alpha = 0 the
levels (0, delta) with degeneracies 1 and D-1), so no 10^6-level Spectrum
is built. With a_j = log g_j - x_j/kT, m the largest term and m2 the
largest of the others, a row is m + log1p(e^{m2-m} * S2). S2 sums
e^{a_j - m2} over slots 1..n-1, where level 0's term takes the top's slot
(for the ladder: its D-1 excited levels in order); e^{m2-m} comes from
math.exp, and a zero factor returns m, also where m2 = -inf makes a_j - m2
NaN. With one log g the top is level 0 and m2 level 1, so a row's terms
are x_1/kT - x_j/kT in one pass. The tail goes through log1p because at a
weak bound, 1 + R near 1, the crossing sits where the tail is about R,
and m + log(1 + tail) rounds it to ~1e-16 absolute: that put crossings up
to 1e-11 relative above the exact one (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., SIAM 2002, ch. 4).

The level source precomputes D = log g_max - min(log g_0, log g_1) and
W = log g_max - log g_min (0 for one log g). As m >= a_0, m2 >= min(a_0,
a_1) >= min(log g_0, log g_1) - x_1/kT and a_j <= log g_max - x_j/kT:
- Candidates: from x_j > x_1 + kT (D + 1) on, a_j < min(a_0, a_1) - 1,
  so the top and m2 are looked for only below there. Where x_1/kT is so
  large that rounding reaches that 1, only level 0 can be the top and
  e^{m2-m} is 0.
- Cut: from x_j >= x_1 + kT (D + 1 - EXP_TINY) on, a_j - m2 <= EXP_TINY - 1
  at the block's largest kT and below, so those terms are written 0.0
  without being computed (the 1 covers rounding: at most 1/2 at a
  subnormal kT, ~1e-13 elsewhere). Where the product overflows nothing is
  cut.
- Mask: m2 <= log g_max, so a_j - m2 > EXP_TINY below x_j = kT (-EXP_TINY
  - W - 1) at the block's smallest kT. From there to the cut, each a_j - m2
  at or below EXP_TINY is written 0.0 without calling exp.
Below EXP_TINY exp is subnormal (~120-160 ns against ~1 ns) or zero. Each
dropped term is below 2^-1022, there are fewer than 2^20 of them, and S2
holds e^0 = 1 for m2, so their mass sits ~950 binades below half an ulp of
S2. That is not a proof that no bit moves (a subtree of tiny terms could
still reach the last bit through a chain of near-ties), so the tests
compare the kernel hex for hex with sums that exponentiate every term.

S2 keeps the pairwise order of np.sum over all slots 1..n-1, zeros
included. A block of rows takes that one sum. A row of more than
BLOCK_TERMS // 2 levels, a block on its own, walks numpy's pairwise tree
itself (``_pairwise_sum``): a range of more than 128 slots splits at n/2
rounded down to a multiple of 8, a leaf of at most LEAF slots is filled and
summed with np.sum only when the walk reaches it, and each split adds
L + R in Python floats. Before a right child from slot r on is filled, it
is bounded by 2 (e - r) e^{y_r}, with y_r = x_1/kT - x_r/kT for one log g and
log g_max - x_r/kT - m2 for a log g per level. The levels ascend and
rounding is monotone, so no computed term of the child is above ~e^{y_r};
each is 0.0 or exp of a value above EXP_TINY (by the mask), so the 2
covers exp's few-ulp error and the fewer than 60 roundings in a pairwise
sum. Where the bound is below half an ulp of L, fl(L + R) is L (Higham,
section 4.2), and the walk returns L: the skip is proved, not tested. A NaN
bound skips nothing, and neither does a child that starts among the
candidates, where the top's slot holds level 0's term.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ThermwitError
from .numerics import _float_or_array, hermitian_eigendecompose
from .systems import Spectrum, ToySpectrumParams

LN2 = math.log(2.0)
# Just below ln(2^-1022) = -708.3964..., so np.exp of any value at or below
# it is subnormal or zero; the kernel writes such terms as 0.0.
EXP_TINY = -708.4
# The kernel works in row blocks of at most this many terms (1 MB of float64
# per temporary); a level source with more levels takes one row a block.
BLOCK_TERMS = 2**17
# A row of more than BLOCK_TERMS // 2 levels is summed as numpy's pairwise
# tree in leaves of at most this many slots; at least numpy's block of 128.
LEAF = 2**15


def _kt_array(kt: float | np.ndarray) -> np.ndarray:
    """kT as an array, 0-d for one kT; any kT not > 0 (NaN too) raises."""
    kt = np.asarray(kt, dtype=float)
    if not (kt > 0.0).all():
        raise ThermwitError("kT must be positive")
    return kt


def _cut(levels: tuple, kt: float) -> int:
    """The cut of the module docstring at kT: from this level (at least 2) on,
    every a_j - m2 is at or below EXP_TINY at kT and any smaller kT."""
    x, _, span, _ = levels
    # a Python float: inf where the product overflows
    reach = kt * (span + 1.0 - EXP_TINY)
    if not reach < math.inf:
        return x.size
    return max(2, int(x.searchsorted(float(x[1]) + reach)))


def _fill_terms(src: tuple, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """The summed terms of slots start..stop-1, row by row, in out[:, :stop - start].

    ``src`` is (x, log g, kT column, t1 or m2 column, candidate head or None,
    cut, mask_from); the head holds a_j up to the candidates' end with level
    0's term in the top's slot. Past the cut a term is 0.0 without being
    computed, and from mask_from on so is any a_j - m2 at or below EXP_TINY.
    """
    x, log_g, k, shift, head, cut, mask_from = src
    out = out[:, :stop - start]
    end = max(start, min(stop, cut))
    terms = out[:, :end - start]
    if head is None:  # one log g: x_1/kT - x_j/kT
        np.subtract(shift, np.divide(x[start:end], k, out=terms), out=terms)
    else:
        mid = max(start, min(head.shape[1], end))
        np.subtract(head[:, start:mid], shift, out=terms[:, :mid - start])
        if mid < end:
            rest = terms[:, mid - start:]
            np.subtract(log_g[mid:end], np.divide(x[mid:end], k, out=rest), out=rest)
            rest -= shift
    if mask_from < end:
        # a NaN term is not <= EXP_TINY, so it goes through exp and stays NaN
        tiny = terms[:, max(mask_from, start) - start:]
        np.putmask(tiny, tiny <= EXP_TINY, -np.inf)
    np.exp(terms, out=terms)
    out[:, end - start:] = 0.0
    return out


def _pairwise_sum(leaf, start: int, stop: int, negligible) -> float:
    """np.sum of slots start..stop-1 in numpy's own pairwise order.

    Above LEAF slots a node splits at half its size rounded down to a multiple
    of 8, as numpy's pairwise sum does; a leaf is ``leaf(s, e)``, np.sum of
    those slots. A right child is left out where ``negligible(r, e, left)``
    proves it below half an ulp of its left sibling, where fl(L + R) is L.
    """
    size = stop - start
    if size <= LEAF:
        return leaf(start, stop)
    half = size // 2
    mid = start + half - half % 8
    left = _pairwise_sum(leaf, start, mid, negligible)
    if negligible(mid, stop, left):
        return left
    return left + _pairwise_sum(leaf, mid, stop, negligible)


def _walk(src: tuple, buf: np.ndarray) -> float:
    """S2 of a block of one row, leaf by leaf in ``buf``, leaving out each
    right child that the module docstring's bound puts below half an ulp."""
    x, log_g, k, shift, head, _, _ = src
    kt = k.item()
    if head is None:
        ceiling, m2, skip_from = float(shift[0, 0]), 0.0, 1
    else:
        ceiling, m2, skip_from = float(log_g.max()), float(shift[0, 0]), head.shape[1]

    def negligible(r: int, stop: int, left: float) -> bool:
        y = ceiling - float(x[r]) / kt - m2
        # a NaN y, or one above 0, skips nothing
        return r >= skip_from and y <= 0.0 and 2.0 * (stop - r) * math.exp(y) < math.ulp(left) / 2

    def leaf(start: int, stop: int) -> float:
        return float(np.sum(_fill_terms(src, start, stop, buf)[0]))

    return _pairwise_sum(leaf, 1, x.size, negligible)


# at a subnormal kT a gap over kT overflows to inf, and a row whose m2 is
# -inf gets NaN terms; its factor e^{m2-m} is 0, so it returns m
@np.errstate(over="ignore", invalid="ignore")
def _log_sums(levels: tuple, kt: np.ndarray) -> np.ndarray:
    """log sum_j g_j exp(-x_j/kT) for each kT, in kT's shape: the one log-sum.

    ``levels`` is (x, log g, D, W) as in the module docstring. The last
    log1p is math.log1p row by row, as in a one-point call.
    """
    x, log_g, span, width = levels
    if x.size == 1:
        return np.full(kt.shape, log_g)
    flat = kt.reshape(-1)
    rows = max(1, BLOCK_TERMS // x.size)
    out = np.empty(flat.size)
    # a block of rows is filled whole; a row alone, a leaf at a time
    block = np.empty((min(rows, flat.size), x.size if rows > 1 else min(LEAF, x.size - 1)))
    for start in range(0, flat.size, rows):
        k = flat[start:start + rows, None]
        lo, hi = (float(k.min()), float(k.max())) if k.size > 1 else (k.item(),) * 2
        cut = _cut(levels, hi)
        if isinstance(log_g, float):
            shift, head = x[1] / k, None
            m, diff = [log_g] * k.shape[0], (-shift[:, 0]).tolist()
        else:
            # the top and m2 are among the levels up to x_1 + kT (D + 1)
            c = min(int(x.searchsorted(float(x[1]) + hi * (span + 1.0), "right")), cut)
            head = block[:k.shape[0], :c] if rows > 1 else np.empty((1, c))
            np.subtract(log_g[:c], np.divide(x[:c], k, out=head), out=head)
            at_top = (np.arange(k.shape[0]), head.argmax(axis=1))
            top = head[at_top]
            head[at_top] = head[:, 0]  # level 0's term takes the top's slot
            shift = head[:, 1:].max(axis=1, keepdims=True)  # m2
            m, diff = top.tolist(), (shift[:, 0] - top).tolist()
        mask_from = max(1, int(x.searchsorted(lo * (-EXP_TINY - width - 1.0))))
        src = (x, log_g, k, shift, head, cut, mask_from)
        if rows > 1:
            sums = _fill_terms(src, 1, x.size, block[:k.shape[0], 1:]).sum(axis=1).tolist()
        else:
            sums = [_walk(src, block)]
        out[start:start + k.shape[0]] = [
            t + math.log1p(f * s) if (f := math.exp(d)) else t for t, d, s in zip(m, diff, sums)
        ]
    return out.reshape(kt.shape)


def exp_or_inf(log_z: float) -> float:
    """Z from log Z; inf only when log Z exceeds float range."""
    try:
        return math.exp(log_z)
    except OverflowError:
        return math.inf


def log_population(
    s: Spectrum, kt: float | np.ndarray, level_index: int = 0
) -> float | np.ndarray:
    """log e^{-E_j/kT} / Z of one state in level j.

    ``kt`` is one kT, giving a float, or an array of kT values, giving an
    array of their shape with the same bits per point.
    """
    if not 0 <= level_index < s.n_levels:
        raise ThermwitError(f"level {level_index} outside 0..{s.n_levels - 1}")
    kt = _kt_array(kt)
    # at a subnormal kT an excited level's shift overflows to inf: log p is -inf
    with np.errstate(over="ignore"):
        shift = (float(s.energies[level_index]) - s.ground_energy) / kt
    return _float_or_array(-shift - _log_sums(s._levels, kt))


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


@functools.lru_cache(maxsize=1)
def _ladder_levels(p: ToySpectrumParams) -> tuple:
    """The kernel's levels for a ladder, relative to e0: read-only x_m = m**alpha * delta,
    m = 0..D-1, with one log g = 0; at alpha = 0 the two-level spectrum's."""
    if p.alpha == 0.0:
        return Spectrum((0.0, p.delta), (1, p.n_levels - 1))._levels
    x = np.arange(p.n_levels, dtype=float)
    np.power(x[1:], p.alpha, out=x[1:])
    x *= p.delta
    x.setflags(write=False)
    return x, 0.0, 0.0, 0.0


def log_ground_population_alpha_closed(
    p: ToySpectrumParams, kt: float | np.ndarray
) -> float | np.ndarray:
    """Exact finite sum log p0 = -log(1 + sum_m e^{-m^alpha delta/kT}).

    The ground energy e0 drops out, so any e0 gives the same bits. ``kt`` is
    one kT or an array of them, as in log_population.
    """
    kt = _kt_array(kt)
    return _float_or_array(-_log_sums(_ladder_levels(p), kt))


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
