"""Self-contained verification checks runnable from the CLI.

Each check re-derives a headline claim two independent ways (closed form vs
generic solver, analytic spectrum vs dense matrix, witness vs concurrence)
and passes only when they agree at the stated tolerance. The acceptance
test suite runs the same registry, so `thermwit verify` and `pytest` cannot
drift apart. A check takes a seed and returns ``(passed, detail)``;
ALL_CHECKS pairs each with its name, in report order, and ``thermwit
verify`` reads those pairs directly.

All randomness is seeded; a fixed seed gives byte-identical reports.
"""
from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from . import entanglement as ent
from .entanglement import (
    bipartite_pure_robustness,
    bound_from_relative_entropy,
    concurrence_two_qubit,
    dicke_overlap_closed,
    geometric_measure_als,
    ppt_min_eigenvalue,
    singlet_robustness,
)
from .numerics import chiral_eigenvalues, hermitian_eigendecompose
from .systems import (
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
    stabilizer_spectrum,
    toy_spectrum,
)
from .thermal import (
    LN2,
    exp_or_inf,
    log_ground_population_alpha_closed,
    log_partition_function_alpha_gamma,
    log_population,
    thermal_density_matrix,
)
from .witness import (
    concurrence_vanishing_temperature,
    dimer_condition_margin,
    flip_probability_from_temperature,
    ground_crossing,
    noise_threshold,
    stabilizer_t_trans,
    toy_t0,
    toy_t0_rel_tol,
    toy_t_alpha,
    transition_temperature,
)

T_DIMER_ZERO_FIELD = 4.0 / math.log(3.0)          # 3.6409569065073493
T_STAB_PER_B = -2.0 / math.log(math.sqrt(2.0) - 1.0)  # 2.2691853142130225
P_TRANS_HALF = 1.0 - 1.0 / math.sqrt(2.0)         # 0.29289321881345254


def check_dimer_zero_field_coincidence(seed: int = 0) -> tuple[bool, str]:
    """Witness crossing at B=0 equals 4J/ln3 and the concurrence zero, 1e-6."""
    p = DimerParams(B=0.0, J=1.0)
    tr = transition_temperature(dimer_spectrum(p), singlet_robustness())
    t_conc = concurrence_vanishing_temperature(p)
    rel_formula = abs(tr.t_trans - T_DIMER_ZERO_FIELD) / T_DIMER_ZERO_FIELD
    rel_conc = abs(tr.t_trans - t_conc) / T_DIMER_ZERO_FIELD
    ok = tr.detected and rel_formula <= 1e-6 and rel_conc <= 1e-6
    return ok, (
        f"t_trans={tr.t_trans:.10g} formula={T_DIMER_ZERO_FIELD:.10g} "
        f"concurrence_zero={t_conc:.10g} rel_err=({rel_formula:.2e},{rel_conc:.2e})"
    )


def check_dimer_field_conservative(seed: int = 0) -> tuple[bool, str]:
    """At B=J the witness crossing sits strictly below the concurrence zero."""
    p = DimerParams(B=1.0, J=1.0)
    tr = transition_temperature(dimer_spectrum(p), singlet_robustness())
    t_conc = concurrence_vanishing_temperature(p)
    gap = t_conc - (tr.t_trans if tr.detected else math.inf)
    ok = tr.detected and gap > 1e-3
    return ok, (
        f"t_witness={tr.t_trans:.10g} t_concurrence={t_conc:.10g} gap={gap:.6g}"
    )


def check_dimer_high_field_phase(seed: int = 0) -> tuple[bool, str]:
    """B=5, J=1: product ground state, witness silent, concurrence still fires."""
    p = DimerParams(B=5.0, J=1.0)
    h = build_dimer_hamiltonian(p)
    _, v = hermitian_eigendecompose(h)
    ground_is_00 = abs(abs(v[0, 0]) - 1.0) <= 1e-9
    sp = dimer_spectrum(p)
    ground_bound = bipartite_pure_robustness(PureState(2, np.array([1.0, 0.0, 0.0, 0.0])), [0])
    tr = transition_temperature(sp, ground_bound)
    grid = np.linspace(0.2, 10.0, 60)
    never = not np.any(log_population(sp, grid, 0) > ground_bound.log_threshold)
    singlet_level = int(np.argmin(np.abs(sp.energies - (-3.0 * p.J))))
    singlet_rows = np.count_nonzero(
        log_population(sp, grid, singlet_level) > singlet_robustness().log_threshold
    )
    conc = float(np.max(concurrence_two_qubit(thermal_density_matrix(h, grid))))
    ok = (
        ground_is_00
        and not tr.detected
        and never
        and singlet_rows == 0
        and conc > 1e-3
    )
    return ok, (
        f"ground=|00> {ground_is_00}, detected={tr.detected}, "
        f"singlet_rows={singlet_rows}, max_concurrence={conc:.4f}"
    )


def check_witness_soundness_sample(seed: int = 0) -> tuple[bool, str]:
    """Whenever the condition holds, concurrence and partial transpose concur.

    200 random (B, T) points inside the singlet-ground phase: every sample
    the witness accepts must have positive concurrence and a negative
    partial-transpose eigenvalue.
    """
    rng = np.random.default_rng(seed)
    accepted = []
    attempts = 0
    while len(accepted) < 200 and attempts < 5000:
        attempts += 1
        b = float(rng.uniform(0.0, 3.99))
        kt = float(rng.uniform(0.05, 1.2 * T_DIMER_ZERO_FIELD))
        if dimer_condition_margin(b, 1.0, kt) > 0.0:
            accepted.append((b, kt))
    found = len(accepted)
    h = np.array([build_dimer_hamiltonian(DimerParams(b, 1.0)) for b, _ in accepted])
    rho = thermal_density_matrix(h.reshape(-1, 4, 4), np.array([kt for _, kt in accepted]))
    c = concurrence_two_qubit(rho)
    pt = ppt_min_eigenvalue(rho, (2, 2), (0,))
    violations = int(np.count_nonzero(~((c > 0.0) & (pt < 0.0))))
    min_conc = float(np.min(c, initial=math.inf))
    max_pt = float(np.max(pt, initial=-math.inf))
    ok = found == 200 and violations == 0
    return ok, (
        f"satisfied_samples={found} violations={violations} "
        f"min_concurrence={min_conc:.3e} max_pt_eig={max_pt:.3e}"
    )


def check_dicke_bound_chain(seed: int = 0) -> tuple[bool, str]:
    """Closed-form 1+R, overlap route, and alternating search all agree.

    For even n <= 8 at half filling the three expressions of the same bound
    must coincide (1e-12 between the closed forms, 1e-6 for the search), and
    the growth ratio toward sqrt(n) must fall monotonically toward 1 in the
    log domain.
    """
    issues = []
    for n in (2, 4, 6, 8):
        k = n // 2
        one_plus_r = ent.dicke_robustness(n, k).one_plus_r
        overlap = dicke_overlap_closed(n, k)
        inv_sq = 1.0 / overlap**2
        if abs(one_plus_r - inv_sq) > 1e-12 * inv_sq:
            issues.append(f"n={n}: 1+R={one_plus_r!r} vs 1/overlap^2={inv_sq!r}")
        als, _ = geometric_measure_als(dicke_state(n, k), seed=seed)
        if abs(als - overlap) > 1e-6:
            issues.append(f"n={n}: ALS={als!r} vs closed={overlap!r}")
    if ent.dicke_robustness(2, 1).one_plus_r != 2.0:
        issues.append("n=2 half filling must give exactly 2")
    ratios = []
    for n in (4, 16, 64, 256, 1024):
        one_plus_r = ent.dicke_robustness(n, n // 2).one_plus_r
        ratios.append(math.log2(one_plus_r) / math.log2(math.sqrt(n)))
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    toward_one = all(r > 1.0 for r in ratios) and ratios[-1] < 1.07
    if not (decreasing and toward_one):
        issues.append(f"log-domain ratios {ratios} not decreasing toward 1")
    ok = not issues
    detail = "; ".join(issues) if issues else (
        f"n<=8 identities pass; log-ratio sequence "
        + ",".join(f"{r:.5f}" for r in ratios)
    )
    return ok, detail


def check_ladder_closed_forms(seed: int = 0) -> tuple[bool, str]:
    """Ladder partition identities: generic solver vs formula, ordering, Gamma form.

    The alpha=0 crossing from the generic solver must match the closed form
    within the formula's rounding (toy_t0_rel_tol); the degenerate ladder
    dominates every alpha > 0 ladder pointwise; and the Gamma-integral form
    tracks the exact alpha=1 sum within 6% in log Z for kT >= 5 delta at
    D = 10^6 (4.9% linear at kT = 10 delta).
    """
    issues = []
    sp = toy_spectrum(ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.0, n_levels=4))
    one_bit = bound_from_relative_entropy(1.0)
    tr = transition_temperature(sp, one_bit)
    t0 = toy_t0(4, one_bit, 1.0)
    if not tr.detected or abs(tr.t_trans - t0) > toy_t0_rel_tol(4, one_bit) * t0:
        issues.append(f"bisection {tr.t_trans!r} vs closed form {t0!r}")
    kts = np.geomspace(0.05, 20.0, 20)
    # log Z of an E0 = 0 ladder is -log p0
    lz0 = -log_ground_population_alpha_closed(ToySpectrumParams(0.0, 1.0, 0.0, 64), kts)
    for alpha in np.linspace(0.0, 1.0, 20):
        base = ToySpectrumParams(e0=0.0, delta=1.0, alpha=float(alpha), n_levels=64)
        lza = -log_ground_population_alpha_closed(base, kts)
        for kt in kts[lza > lz0 + 1e-12].tolist():
            issues.append(f"Z_alpha exceeds Z_0 at alpha={alpha:.3f} kT={kt:.3f}")
    big = ToySpectrumParams(e0=0.0, delta=1.0, alpha=1.0, n_levels=10**6)
    worst_log = 0.0
    for ratio in (5.0, 6.25, 8.0, 10.0, 20.0, 50.0, 100.0):
        lz = -log_ground_population_alpha_closed(big, ratio)
        lg = log_partition_function_alpha_gamma(big, ratio)
        worst_log = max(worst_log, abs(lg - lz) / abs(lz))
    if worst_log >= 0.06:
        issues.append(f"log-domain Gamma error {worst_log:.4f} >= 6%")
    z = exp_or_inf(-log_ground_population_alpha_closed(big, 10.0))
    zg = exp_or_inf(log_partition_function_alpha_gamma(big, 10.0))
    lin_err = abs(zg - z) / z
    if lin_err >= 0.051:
        issues.append(f"linear Gamma error at kT=10delta {lin_err:.4f} >= 5.1%")
    ok = not issues
    detail = "; ".join(issues) if issues else (
        f"t0={t0:.10g} bisect={tr.t_trans:.10g}; worst log-Gamma err "
        f"{worst_log:.4%}; linear err at 10delta {lin_err:.4%}"
    )
    return ok, detail


def dense_stabilizer_oracle(g: Graph, b: float) -> tuple[Spectrum, bool, float]:
    """The dense stabilizer Hamiltonian of ``g`` at field ``b`` against its closed forms.

    Returns the merged levels of the solved matrix; whether they match
    ``stabilizer_spectrum`` (the same degeneracies, energies within
    1e-9 * |b|, which the dense solve meets at every scale); and the graph state's residual |H psi - E0 psi|,
    taken on the real amplitudes so H is never cast to complex.
    """
    h = build_stabilizer_hamiltonian(g, b)
    dense = Spectrum.from_values(chiral_eigenvalues(h, odd_weight_mask(g.n)))
    analytic = stabilizer_spectrum(g.n, b)
    levels_ok = dense.degeneracies == analytic.degeneracies and bool(
        np.max(np.abs(dense.energies - analytic.energies)) <= 1e-9 * abs(b)
    )
    a = graph_state(g).amplitudes.real
    residual = float(np.linalg.norm(h @ a - analytic.ground_energy * a))
    return dense, levels_ok, residual


def check_stabilizer_closed_forms(seed: int = 0) -> tuple[bool, str]:
    """Analytic stabilizer levels vs dense matrices, crossing and flip numbers."""
    issues = []
    graphs = [Graph.path(n) for n in range(2, 9)]
    graphs += [Graph.ring(n) for n in range(3, 9)]
    graphs += [Graph.star(n) for n in range(2, 9)]
    graphs += [Graph.complete(n) for n in range(2, 9)]
    for g in graphs:
        _, levels_ok, residual = dense_stabilizer_oracle(g, 1.0)
        if not levels_ok:
            issues.append(f"spectrum mismatch on {g.n}-vertex graph")
        if residual > 1e-9:
            issues.append(f"graph-state residual {residual:.2e} on {g.n} vertices")
    for n, b in ((4, 1.0), (6, 1.0), (8, 2.5)):
        t_formula = stabilizer_t_trans(n, b, n / 2.0)
        if abs(t_formula - T_STAB_PER_B * b) > 1e-6 * t_formula:
            issues.append(f"t_trans formula off at n={n}, B={b}")
        tr = transition_temperature(
            stabilizer_spectrum(n, b), bound_from_relative_entropy(n / 2.0)
        )
        if not tr.detected or abs(tr.t_trans - t_formula) > 1e-6 * t_formula:
            issues.append(f"bisection {tr.t_trans!r} vs formula {t_formula!r} at n={n}")
        p_noise = noise_threshold(n / 2.0, n)
        if abs(p_noise - P_TRANS_HALF) > 1e-12:
            issues.append(f"noise threshold off at n={n}: {p_noise!r}")
        p_at_t = flip_probability_from_temperature(b, t_formula)
        if abs(p_at_t - p_noise) > 1e-12:
            issues.append(f"flip map at t_trans {p_at_t!r} != threshold {p_noise!r}")
    ok = not issues
    detail = "; ".join(issues) if issues else (
        f"{len(graphs)} graphs match analytic levels; "
        f"t_trans/B={T_STAB_PER_B:.10g}, P_trans={P_TRANS_HALF:.12g}"
    )
    return ok, detail


def check_relative_entropy_identity(seed: int = 0) -> tuple[bool, str]:
    """Matrix-route relative entropy equals -log2 p0 to 1e-12.

    100 random spectra in random eigenbases, 20 temperatures each: the
    ground-to-thermal relative entropy computed from the dense Gibbs matrix
    (fresh eigensystem, spectral logarithm) must match the population form.
    All draws come first, in one fixed order; the dense work then runs as
    one stack per dimension.
    """
    rng = np.random.default_rng(seed)
    draws: dict[int, list] = {}
    for _ in range(100):
        d = int(rng.integers(2, 13))
        e = np.sort(rng.uniform(0.0, 8.0, size=d))
        for i in range(1, d):
            e[i] = max(e[i], e[i - 1] + 0.05)
        gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sp = Spectrum.from_values(e)
        if sp.n_levels != d:
            continue
        draws.setdefault(d, []).append((sp, e, gauss, rng.uniform(0.8, 6.0, size=20)))
    worst = 0.0
    for group in draws.values():
        sps, e, gauss, temps = zip(*group)
        temps = np.array(temps)
        basis, _ = np.linalg.qr(np.array(gauss))
        h = (basis * np.array(e)[:, None, :]) @ np.swapaxes(basis.conj(), -1, -2)
        h = 0.5 * (h + np.swapaxes(h.conj(), -1, -2))
        w, v = hermitian_eigendecompose(thermal_density_matrix(h[:, None], temps))
        # the ground state of each draw, once per temperature
        ground = basis[:, None, :, 0, None]
        weights = np.abs(np.swapaxes(v.conj(), -1, -2) @ ground)[..., 0] ** 2
        mat = -np.sum(weights * np.log2(np.maximum(w, 1e-300)), axis=-1)
        # the spectra are nondegenerate, so the relative entropy is -log2 p0
        stat = np.array([-log_population(sp, t, 0) / LN2 for sp, t in zip(sps, temps)])
        worst = max(worst, float(np.max(np.abs(mat - stat))))
    ok = worst <= 1e-12
    return ok, f"max |D_matrix - (-log2 p0)| = {worst:.3e}"


def check_partial_bound_ordering(seed: int = 0) -> tuple[bool, str]:
    """Half-cut bipartite input never raises the crossing above the full bound."""
    issues = []
    pairs = []
    for n in (4, 6, 8):
        sp = toy_spectrum(ToySpectrumParams(e0=0.0, delta=1.0, alpha=1.0, n_levels=2**n))
        full = ent.dicke_robustness(n, n // 2)
        half = bipartite_pure_robustness(dicke_state(n, n // 2), range(n // 2))
        if half.one_plus_r > full.one_plus_r * (1.0 + 1e-12):
            issues.append(f"bipartite 1+R exceeds full bound at n={n}")
        t_full = transition_temperature(sp, full).t_trans
        t_half = transition_temperature(sp, half).t_trans
        pairs.append((n, t_half, t_full))
        if t_half > t_full * (1.0 + 1e-8):
            issues.append(f"ordering violated at n={n}: {t_half!r} > {t_full!r}")
    ok = not issues
    detail = "; ".join(issues) if issues else ", ".join(
        f"n={n}: t_half={a:.8g} <= t_full={b:.8g}" for n, a, b in pairs
    )
    return ok, detail


def check_asymptotic_monotonicity(seed: int = 0) -> tuple[bool, str]:
    """Finite-size scans behind the limit claims move the right way.

    The degenerate-ladder crossing falls as the level count grows at fixed
    entanglement. For each spacing exponent, the continuum crossing with the
    exact half-filled Dicke R closes in on the kernel's crossing on a
    10^4-level ladder as the site count grows.
    """
    issues = []
    one_bit = bound_from_relative_entropy(1.0)
    t0s = [toy_t0(d, one_bit, 1.0) for d in (4, 16, 256, 4096, 10**6)]
    if not all(a > b for a, b in zip(t0s, t0s[1:])):
        issues.append(f"t0 not decreasing in D: {t0s}")
    errs = {}
    for alpha in (0.25, 0.5, 1.0):
        ladder = ToySpectrumParams(e0=0.0, delta=1.0, alpha=alpha, n_levels=10**4)
        errs[alpha] = []
        for n in (4, 16, 64):
            bound = ent.dicke_robustness(n, n // 2)
            t_star = ground_crossing(
                partial(log_ground_population_alpha_closed, ladder),
                bound, ladder.delta, ladder.spread, ladder.n_levels,
            ).t_trans
            t_alpha = toy_t_alpha(alpha, bound.one_plus_r - 1.0, 1.0)
            errs[alpha].append(abs(t_alpha / t_star - 1.0))
        if not all(a > b for a, b in zip(errs[alpha], errs[alpha][1:])):
            issues.append(f"t_alpha error not falling in n at alpha={alpha}: {errs[alpha]}")
    ok = not issues
    detail = "; ".join(issues) if issues else (
        f"t0(D): {t0s[0]:.4g} .. {t0s[-1]:.4g} decreasing; t_alpha rel err, n = 4 .. 64: "
        + ", ".join(f"alpha={a}: {e[0]:.4f} .. {e[-1]:.4f}" for a, e in errs.items())
    )
    return ok, detail


ALL_CHECKS: tuple[tuple[str, Callable[[int], tuple[bool, str]]], ...] = (
    ("dimer-zero-field-coincidence", check_dimer_zero_field_coincidence),
    ("dimer-field-conservative", check_dimer_field_conservative),
    ("dimer-high-field-phase", check_dimer_high_field_phase),
    ("witness-soundness-sample", check_witness_soundness_sample),
    ("dicke-bound-chain", check_dicke_bound_chain),
    ("ladder-closed-forms", check_ladder_closed_forms),
    ("stabilizer-closed-forms", check_stabilizer_closed_forms),
    ("relative-entropy-identity", check_relative_entropy_identity),
    ("partial-bound-ordering", check_partial_bound_ordering),
    ("asymptotic-monotonicity", check_asymptotic_monotonicity),
)
