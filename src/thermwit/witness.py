"""The ground-population witness and its closed-form transition temperatures.

A thermal state is certifiably entangled once the population of an entangled
eigenstate exceeds 1/(1+R) for that state's robustness R (or any certified
lower bound on it). The condition is one-sided: failing it proves nothing.

``ground_crossing`` finds where a log ground population, given as a
callable of kT, meets the threshold; ``transition_temperature`` feeds it a
Spectrum's populations. The condition at one kT is decided one way only, as
the CLI's ``satisfied`` column decides it: log p0 > the bound's
``log_threshold``. No model has a verdict of its own. The closed forms at
the bottom specialize the crossing temperature to the example systems and
are cross-checked against the generic root bracket in tests; the dimer's
concurrence zero is an independent oracle.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entanglement import RobustnessBound, concurrence_signed
from .errors import NoSignChange, ThermwitError
from .numerics import _float_or_array, root_bracket
from .systems import DimerParams, Spectrum, build_dimer_hamiltonian
from .thermal import LN2, _kt_array, log_population, thermal_density_matrix

BRACKET_GAP_FACTOR = 1e-6
BRACKET_SPREAD_FACTOR = 1e4


@dataclass(frozen=True)
class TransitionResult:
    """Crossing temperature of the ground-level condition, if any.

    ``t_trans`` is None when the condition fails at every temperature in the
    bracket (reported as not-detected: the witness is silent, not a proof of
    separability), and inf when it holds at every temperature. Otherwise the
    condition holds at ``t_trans`` and fails at the next float up. Where the
    float margin is not monotone, floats further up may read either way.
    """

    t_trans: float | None
    bracket: tuple[float, float]  # where the search started

    @property
    def detected(self) -> bool:
        return self.t_trans is not None


def _check_k_b(k_b: float) -> None:
    """A search's k_B must be positive and finite, as a run's kB is."""
    if not 0.0 < k_b < math.inf:
        raise ThermwitError(f"k_b must be positive and finite, got {k_b}")


def ground_crossing(
    log_p0: Callable[[float], float],
    bound: RobustnessBound,
    gap: float,
    spread: float,
    dimension: int,
    k_b: float = 1.0,
) -> TransitionResult:
    """Last temperature where log p0 > log(1/(1+R)): every model's crossing.

    ``log_p0(kt)`` falls with kT, for a spectrum with the given gap, spread
    and number of states. The search runs in temperature and evaluates at
    kT = temp * k_b, so the reported crossing is a temperature on the safe
    side in its own unit. It starts on [1e-6 * gap, 1e4 * spread] / k_b, the
    lower end raised to keep kT above 0, and returns the inside end of
    ``root_bracket``: the condition holds there and fails at the next float
    up. Where the float margin is not monotone, floats further up may read
    either way. None when the condition fails at the lower end; inf when it
    still holds at the upper end. While it does and 1/dimension (the
    population at infinite temperature) is at or below the threshold, so the
    margin ends non-positive as T grows, that end is doubled until the
    condition fails; inf then comes back only if no finite float gets there.
    """
    _check_k_b(k_b)
    # 1e-6 * gap rounds to 0 below a gap of ~5e-318, and kT = temp * k_b must not
    lo = max(BRACKET_GAP_FACTOR * gap / k_b, math.ulp(0.0) / min(k_b, 1.0))
    lo, hi = bracket = (lo, BRACKET_SPREAD_FACTOR * spread / k_b)

    def margin(temp: float) -> float:
        return log_p0(temp * k_b) - bound.log_threshold

    try:
        inside, outside = root_bracket(margin, lo, hi)
        # a margin rising across the bracket is not positive at lo
        t_star = inside if inside < outside else None
    except NoSignChange:
        t_star = math.inf if margin(lo) > 0.0 else None
        settles = 1 / dimension <= bound.threshold
        while t_star == math.inf and settles and math.isfinite(2.0 * hi):
            lo, hi = hi, 2.0 * hi
            if not margin(hi) > 0.0:
                t_star = root_bracket(margin, lo, hi)[0]
    return TransitionResult(t_trans=t_star, bracket=bracket)


def transition_temperature(
    s: Spectrum, bound: RobustnessBound, k_b: float = 1.0
) -> TransitionResult:
    """Temperature where the ground-level population crosses 1/(1+R).

    One ``ground_crossing`` search over the spectrum. A nondegenerate ground
    level is required unless the bound is trivial: that one (R = 0) and one
    the spectrum never reaches return not-detected; a threshold below 1/dim
    would hold everywhere and raises instead.
    """
    if s.n_levels < 2:
        raise ThermwitError("transition needs at least two levels")
    # no population exceeds a threshold of 1, whatever the ground degeneracy
    if s.degeneracies[0] != 1 and bound.threshold < 1.0:
        raise ThermwitError(f"ground level carries degeneracy {s.degeneracies[0]}; need 1")
    result = ground_crossing(
        lambda kt: log_population(s, kt, 0), bound, s.gap, s.spread, s.dimension, k_b
    )
    if result.t_trans == math.inf:
        raise NoSignChange(
            "condition holds at every temperature; 1/(1+R) is at or below "
            "the infinite-temperature population"
        )
    return result


# --- spin-dimer oracle --------------------------------------------------------


def concurrence_vanishing_temperature(p: DimerParams, k_b: float = 1.0) -> float:
    """Temperature where the dimer thermal state's concurrence hits zero.

    Independent diagnostic: runs on the explicit 4x4 Gibbs state via the
    spin-flip spectrum, with no input from the witness path. The bracket is
    a window around 4J / ln 3, where the zero sits for any field.
    """
    if not p.J > 0:
        raise ThermwitError("concurrence vanishes identically at J = 0")
    _check_k_b(k_b)
    scale = 4.0 * p.J / (math.log(3.0) * k_b)
    h = build_dimer_hamiltonian(p)

    def f(temp: float) -> float:
        return concurrence_signed(thermal_density_matrix(h, temp * k_b))

    return root_bracket(f, 0.2 * scale, 3.0 * scale)[0]


# --- power-law ladder closed forms -------------------------------------------


def toy_t0(n_levels: int, bound: RobustnessBound, delta: float = 1.0) -> float:
    """Crossing of the fully degenerate (alpha = 0) ladder: kT = delta / log((D-1) / R).

    The ladder has p0 = 1 / (1 + (D-1) e^{-delta/kT}); setting that equal to
    1/(1+R), for R = one_plus_r - 1 of ``bound``, gives the formula. It is
    not a certificate: it meets the rows' crossing within ``toy_t0_rel_tol``.
    Once 1 + R reaches D the threshold is at or below the infinite-temperature
    population, the condition holds at every temperature, and this is inf.
    """
    if n_levels < 2:
        raise ThermwitError(f"need at least 2 levels, got {n_levels}")
    if not delta > 0:
        raise ThermwitError(f"delta must be positive, got {delta}")
    r = bound.one_plus_r - 1.0
    if not r > 0:
        raise ThermwitError(f"need R > 0, got {r}")
    # 0 or below once 1 + R reaches D, and where the two logs round together
    log_ratio = math.log(n_levels - 1) - math.log(r)
    return delta / log_ratio if log_ratio > 0.0 else math.inf


def toy_t0_rel_tol(n_levels: int, bound: RobustnessBound) -> float:
    """Relative distance within which a finite ``toy_t0`` meets the rows' crossing.

    First-order rounding, doubled. L = log(D-1) - log R loses one rounding
    of each log. The rows' log threshold and log p0 each sit a few roundings
    of (1 + log(1+R)) off -log(1+R), which moves log R by (1+R)/R times as
    much. Both are relative to L; the divisions, kT = T * kB and the last
    holding float add a few roundings more.
    """
    one_plus_r = bound.one_plus_r
    r = one_plus_r - 1.0
    log_ratio = math.log(n_levels - 1) - math.log(r)
    log_terms = (
        math.log(n_levels - 1) + abs(math.log(r))
        + 3.0 * one_plus_r / r * (1.0 + math.log(one_plus_r))
    )
    return 2.0 * sys.float_info.epsilon * (log_terms / log_ratio + 4.0)


def toy_t_alpha(alpha: float, r: float, delta: float = 1.0) -> float:
    """Power-law ladder crossing in the continuum limit, for robustness R = r.

    The Gamma integral sums the excited weights to (kT/delta)^{1/alpha}
    Gamma(1/alpha) / alpha; setting that equal to R gives
    kT = delta * (alpha * R / Gamma(1/alpha))^alpha.
    """
    if not 0.0 < alpha <= 1.0:
        raise ThermwitError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < r < math.inf:
        raise ThermwitError(f"R must be positive and finite, got {r}")
    if not delta > 0:
        raise ThermwitError(f"delta must be positive, got {delta}")
    log_val = alpha * (math.log(alpha) + math.log(r) - math.lgamma(1.0 / alpha))
    return delta * math.exp(log_val)


# --- stabilizer closed forms --------------------------------------------------


def stabilizer_t_trans(n: int, B: float, e_r: float) -> float:
    """Crossing temperature kT = -2B / log(2^{e_r/n} - 1) for n generators.

    Depends on the entanglement only through the per-site ratio e_r / n,
    which must stay strictly inside (0, 1) for a finite crossing.
    """
    if n < 1:
        raise ThermwitError(f"need n >= 1, got {n}")
    if not B > 0:
        raise ThermwitError(f"field B must be positive, got {B}")
    ratio = e_r / n
    if not 0.0 < ratio < 1.0:
        raise ThermwitError(f"e_r / n = {ratio} outside (0, 1)")
    return -2.0 * B / math.log(math.expm1(ratio * LN2))


def flip_probability_from_temperature(
    B: float, kt: float | np.ndarray
) -> float | np.ndarray:
    """Independent per-site flip probability matching the Gibbs weights.

    P = 1 / (1 + e^{2B/kT}): vanishes at zero temperature and saturates at
    1/2, mapping the thermal ensemble onto a local spin-flip noise channel.
    ``kt`` is one kT, giving a float, or an array of kT values, giving an
    array of their shape with the bits of one-point calls: the log-sum runs
    on the array and libm's exp on each point.
    """
    if not B > 0:
        raise ThermwitError(f"field B must be positive, got {B}")
    kt = _kt_array(kt)
    # at a subnormal kT, 2B/kT overflows to inf and P is 0, as intended
    with np.errstate(over="ignore"):
        log_odds = np.logaddexp(0.0, 2.0 * B / kt)
    p = np.array(list(map(math.exp, (-log_odds).ravel().tolist())))
    return _float_or_array(p.reshape(kt.shape))


def noise_threshold(e_r: float, n: int) -> float:
    """Largest flip probability the witness tolerates: P = 1 - 2^{-e_r/n}.

    Defined for 0 < e_r/n <= 1; at the top of that range it reaches 1/2,
    the infinite-temperature flip rate.
    """
    if n < 1:
        raise ThermwitError(f"need n >= 1, got {n}")
    ratio = e_r / n
    if not 0.0 < ratio <= 1.0:
        raise ThermwitError(f"e_r / n = {ratio} outside (0, 1]")
    return -math.expm1(-ratio * LN2)
