"""Gibbs-state quantities over discrete spectra.

Everything is computed in the log domain after shifting by the ground
energy, so populations and log partition functions stay finite at any
temperature the package accepts (T = 0 itself is excluded; probe the limit
with kT around 1e-6 times the gap).

The closed-form ladder sum keeps one cache entry: the read-only level
array -m**alpha * delta of the last ladder it summed, so a sweep or a
crossing search over one ladder builds it once. One entry bounds the memory
to one ladder (8 MB at 10^6 levels).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaZero, DegenerateGround, IndexOutOfRange, ThermwitError
from .numerics import stacked_eigendecompose
from .systems import Spectrum, ToySpectrumParams

LN2 = math.log(2.0)
# np.exp is exactly +0.0 at and below about -745.13, so terms at or below
# this cut are written as 0.0 without calling it (an exp that underflows to
# zero costs ~18 ns, one in the normal range ~1 ns).
EXP_ZERO = -746.0


@dataclass(frozen=True)
class ThermalPoint:
    """A temperature together with the Boltzmann-constant convention.

    Internal math always uses the product kT; the default k_b = 1 gives
    reduced units, and a physical k_b only rescales reported temperatures.
    """

    temperature: float
    k_b: float = 1.0

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ThermwitError(f"temperature must be positive, got {self.temperature}")
        if not self.k_b > 0:
            raise ThermwitError(f"k_b must be positive, got {self.k_b}")

    @property
    def kt(self) -> float:
        return self.temperature * self.k_b


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    return m + math.log(float(np.sum(np.exp(a - m))))


def _shifted_log_terms(s: Spectrum, kt: float) -> np.ndarray:
    e = s.energy_array()
    return s.log_degeneracy_array() - (e - e[0]) / kt


def log_partition_function(s: Spectrum, t: ThermalPoint) -> float:
    """log Z = -E0/kT + log sum_j g_j exp(-(E_j - E0)/kT)."""
    return -s.ground_energy / t.kt + _logsumexp(_shifted_log_terms(s, t.kt))


def exp_or_inf(log_z: float) -> float:
    """Z from log Z; inf only when log Z exceeds float range."""
    try:
        return math.exp(log_z)
    except OverflowError:
        return math.inf


def population_profile(s: Spectrum, t: ThermalPoint) -> np.ndarray:
    """Population of each level with its degeneracy multiplied in; sums to one."""
    terms = _shifted_log_terms(s, t.kt)
    return np.exp(terms - _logsumexp(terms))


def log_population(s: Spectrum, t: ThermalPoint, level_index: int = 0) -> float:
    """log e^{-E_j/kT} / Z of one state in level j: the one spectrum kernel."""
    if not 0 <= level_index < s.n_levels:
        raise IndexOutOfRange(f"level {level_index} outside 0..{s.n_levels - 1}")
    shift = (s.energies[level_index] - s.ground_energy) / t.kt
    return -shift - _logsumexp(_shifted_log_terms(s, t.kt))


def thermal_density_matrix(h: np.ndarray, t: ThermalPoint | np.ndarray) -> np.ndarray:
    """exp(-H/kT) / Z as dense matrices, from the eigensystem of H.

    ``h`` is one Hermitian matrix or a stack of them, shape (..., d, d); ``t``
    is one ThermalPoint or an array of kT values. One matrix at one
    ThermalPoint gives a (d, d) matrix; otherwise the leading shapes of ``h``
    and kT broadcast into a stack of Gibbs states, each with the bits its own
    H and kT give alone.
    """
    kt = np.asarray(t.kt if isinstance(t, ThermalPoint) else t, dtype=float)
    if not np.all(kt > 0.0):
        raise ThermwitError("kT must be positive")
    eig = stacked_eigendecompose(h)
    w, v = eig.eigenvalues, eig.eigenvectors
    p = np.exp(-(w - w[..., :1]) / kt[..., None])
    p /= p.sum(axis=-1, keepdims=True)
    return (v * p[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def relative_entropy_ground_to_thermal(s: Spectrum, t: ThermalPoint) -> float:
    """Relative entropy (bits) between the pure ground state and the Gibbs state.

    For a nondegenerate ground level this is exactly -log2 p0, with p0 the
    ground-state population; it needs a unique ground state to be meaningful.
    """
    if s.degeneracies[0] != 1:
        raise DegenerateGround(
            f"ground level carries degeneracy {s.degeneracies[0]}; need 1"
        )
    return -log_population(s, t, 0) / LN2


@functools.lru_cache(maxsize=1)
def _ladder_levels(p: ToySpectrumParams) -> np.ndarray:
    """Read-only excited levels -m**alpha * delta, m = 1..D-1, relative to e0."""
    levels = -np.power(np.arange(1, p.n_levels, dtype=float), p.alpha) * p.delta
    levels.setflags(write=False)
    return levels


def log_ground_population_alpha_closed(p: ToySpectrumParams, t: ThermalPoint) -> float:
    """Exact finite sum log p0 = -log(1 + sum_m e^{-m^alpha delta/kT}).

    The ground energy e0 drops out, so any e0 gives the same bits.
    """
    terms = _ladder_levels(p) / t.kt
    mx = float(np.max(terms))
    terms -= mx
    # exp only where it is not exactly zero (NaN goes through and propagates);
    # the sum still runs over every term, so its pairwise order is unchanged
    zero = np.less_equal(terms, EXP_ZERO)
    np.logical_not(zero, out=zero)
    np.exp(terms, out=terms, where=zero)
    np.logical_not(zero, out=zero)
    np.copyto(terms, 0.0, where=zero)
    # log1p of the summed tail keeps accuracy when every term underflows the
    # ground contribution.
    tail = math.exp(mx) * float(np.sum(terms))
    return -math.log1p(tail)


def log_partition_function_alpha_closed(p: ToySpectrumParams, t: ThermalPoint) -> float:
    """Exact finite sum log Z = -e0/kT + log(1 + sum_m e^{-m^alpha delta/kT})."""
    return -p.e0 / t.kt - log_ground_population_alpha_closed(p, t)


def log_partition_function_alpha_gamma(p: ToySpectrumParams, t: ThermalPoint) -> float:
    """Continuum approximation of the ladder sum by a Gamma-function integral.

    Replacing sum_m e^{-m^alpha delta/kT} with the integral over m gives
    (Gamma(1/alpha) / alpha) * (kT/delta)^{1/alpha}; good once kT is several
    deltas, and asymptotically exact as kT/delta grows.
    """
    if p.alpha == 0.0:
        raise AlphaZero("Gamma-integral form undefined at alpha = 0")
    inv = 1.0 / p.alpha
    return (
        -p.e0 / t.kt
        + math.lgamma(inv)
        - math.log(p.alpha)
        + inv * math.log(t.kt / p.delta)
    )


def log_stabilizer_partition_function(n: int, B: float, t: ThermalPoint) -> float:
    """Closed form log Z = n * (log(1 + e^{2B/kT}) - B/kT) for n generators."""
    if n < 1:
        raise ThermwitError(f"need n >= 1 generators, got {n}")
    if not B > 0:
        raise ThermwitError(f"field B must be positive, got {B}")
    x = 2.0 * B / t.kt
    return n * (float(np.logaddexp(0.0, x)) - 0.5 * x)
