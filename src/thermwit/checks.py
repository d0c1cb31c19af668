"""Self-contained verification checks runnable from the CLI.

Each check re-derives a headline claim two independent ways (closed form vs
generic solver, analytic spectrum vs dense matrix, witness vs concurrence)
and passes only when they agree at the stated tolerance. The acceptance
test suite runs the same registry, so `thermwit verify` and `pytest` cannot
drift apart.

All randomness is seeded; a fixed seed gives byte-identical reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import entanglement as ent
from .entanglement import (
    Partition,
    bipartite_pure_robustness,
    bound_from_relative_entropy,
    concurrence_two_qubit,
    dicke_overlap_closed,
    geometric_measure_als,
    ppt_min_eigenvalue,
    singlet_robustness,
)
from .numerics import hermitian_eigendecompose, hermitian_eigenvalues, stacked_eigendecompose
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
    stabilizer_spectrum,
    toy_spectrum,
)
from .thermal import (
    ThermalPoint,
    exp_or_inf,
    log_partition_function_alpha_closed,
    log_partition_function_alpha_gamma,
    relative_entropy_ground_to_thermal,
    thermal_density_matrix,
)
from .witness import (
    concurrence_vanishing_temperature,
    dimer_condition_margin,
    evaluate_condition,
    flip_probability_from_temperature,
    noise_threshold,
    satisfying_intervals,
    stabilizer_t_trans,
    toy_t0,
    toy_t_alpha,
    transition_temperature,
)

T_DIMER_ZERO_FIELD = 4.0 / math.log(3.0)          # 3.6409569065073493
T_STAB_PER_B = -2.0 / math.log(math.sqrt(2.0) - 1.0)  # 2.2691853142130225
P_TRANS_HALF = 1.0 - 1.0 / math.sqrt(2.0)         # 0.29289321881345254


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_dimer_zero_field_coincidence(seed: int = 0) -> CheckResult:
    """Witness crossing at B=0 equals 4J/ln3 and the concurrence zero, 1e-6."""
    p = DimerParams(B=0.0, J=1.0)
    tr = transition_temperature(dimer_spectrum(p), singlet_robustness())
    t_conc = concurrence_vanishing_temperature(p)
    rel_formula = abs(tr.t_trans - T_DIMER_ZERO_FIELD) / T_DIMER_ZERO_FIELD
    rel_conc = abs(tr.t_trans - t_conc) / T_DIMER_ZERO_FIELD
    ok = tr.detected and rel_formula <= 1e-6 and rel_conc <= 1e-6
    return _result(
        "dimer-zero-field-coincidence",
        ok,
        f"t_trans={tr.t_trans:.10g} formula={T_DIMER_ZERO_FIELD:.10g} "
        f"concurrence_zero={t_conc:.10g} rel_err=({rel_formula:.2e},{rel_conc:.2e})",
    )


def check_dimer_field_conservative(seed: int = 0) -> CheckResult:
    """At B=J the witness crossing sits strictly below the concurrence zero."""
    p = DimerParams(B=1.0, J=1.0)
    tr = transition_temperature(dimer_spectrum(p), singlet_robustness())
    t_conc = concurrence_vanishing_temperature(p)
    gap = t_conc - (tr.t_trans if tr.detected else math.inf)
    ok = tr.detected and gap > 1e-3
    return _result(
        "dimer-field-conservative",
        ok,
        f"t_witness={tr.t_trans:.10g} t_concurrence={t_conc:.10g} gap={gap:.6g}",
    )


def check_dimer_high_field_phase(seed: int = 0) -> CheckResult:
    """B=5, J=1: product ground state, witness silent, concurrence still fires."""
    p = DimerParams(B=5.0, J=1.0)
    h = build_dimer_hamiltonian(p)
    eig = hermitian_eigendecompose(h)
    ground_is_00 = abs(abs(eig.eigenvectors[0, 0]) - 1.0) <= 1e-9
    sp = dimer_spectrum(p)
    ground_bound = bipartite_pure_robustness(
        PureState(2, np.array([1.0, 0.0, 0.0, 0.0])), Partition.bipartition([0], 2)
    )
    tr = transition_temperature(sp, ground_bound)
    grid = np.linspace(0.2, 10.0, 60)
    never = all(
        not evaluate_condition(sp, ThermalPoint(t), ground_bound).satisfied for t in grid
    )
    singlet_level = int(np.argmin(np.abs(np.array(sp.energies) - (-3.0 * p.J))))
    singlet_iv = satisfying_intervals(sp, singlet_robustness(), grid, singlet_level)
    conc = float(np.max(concurrence_two_qubit(thermal_density_matrix(h, grid))))
    ok = (
        ground_is_00
        and not tr.detected
        and never
        and not singlet_iv
        and conc > 1e-3
    )
    return _result(
        "dimer-high-field-phase",
        ok,
        f"ground=|00> {ground_is_00}, detected={tr.detected}, "
        f"singlet_intervals={len(singlet_iv)}, max_concurrence={conc:.4f}",
    )


def check_witness_soundness_sample(seed: int = 0) -> CheckResult:
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
        point = ThermalPoint(float(rng.uniform(0.05, 1.2 * T_DIMER_ZERO_FIELD)))
        if dimer_condition_margin(b, 1.0, point) > 0.0:
            accepted.append((b, point))
    found = len(accepted)
    h = np.array([build_dimer_hamiltonian(DimerParams(b, 1.0)) for b, _ in accepted])
    rho = thermal_density_matrix(h.reshape(-1, 4, 4), np.array([t.kt for _, t in accepted]))
    c = concurrence_two_qubit(rho)
    pt = ppt_min_eigenvalue(rho, (2, 2), (0,))
    violations = int(np.count_nonzero(~((c > 0.0) & (pt < 0.0))))
    min_conc = float(np.min(c, initial=math.inf))
    max_pt = float(np.max(pt, initial=-math.inf))
    ok = found == 200 and violations == 0
    return _result(
        "witness-soundness-sample",
        ok,
        f"satisfied_samples={found} violations={violations} "
        f"min_concurrence={min_conc:.3e} max_pt_eig={max_pt:.3e}",
    )


def check_dicke_bound_chain(seed: int = 0) -> CheckResult:
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
    return _result("dicke-bound-chain", ok, detail)


def check_ladder_closed_forms(seed: int = 0) -> CheckResult:
    """Ladder partition identities: generic solver vs formula, ordering, Gamma form.

    The alpha=0 crossing from the generic solver must match the closed form to
    1e-6; the degenerate ladder dominates every alpha > 0 ladder pointwise;
    and the Gamma-integral form tracks the exact alpha=1 sum within 6% in
    log Z for kT >= 5 delta at D = 10^6 (4.9% linear at kT = 10 delta).
    """
    issues = []
    sp = toy_spectrum(ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.0, n_levels=4))
    tr = transition_temperature(sp, bound_from_relative_entropy(1.0))
    t0 = toy_t0(4, 1.0, 1.0)
    if not tr.detected or abs(tr.t_trans - t0) > 1e-6 * t0:
        issues.append(f"bisection {tr.t_trans!r} vs closed form {t0!r}")
    for alpha in np.linspace(0.0, 1.0, 20):
        base = ToySpectrumParams(e0=0.0, delta=1.0, alpha=float(alpha), n_levels=64)
        zero = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.0, n_levels=64)
        for kt in np.geomspace(0.05, 20.0, 20):
            t = ThermalPoint(float(kt))
            lz0 = log_partition_function_alpha_closed(zero, t)
            lza = log_partition_function_alpha_closed(base, t)
            if lza > lz0 + 1e-12:
                issues.append(f"Z_alpha exceeds Z_0 at alpha={alpha:.3f} kT={kt:.3f}")
    big = ToySpectrumParams(e0=0.0, delta=1.0, alpha=1.0, n_levels=10**6)
    worst_log = 0.0
    for ratio in (5.0, 6.25, 8.0, 10.0, 20.0, 50.0, 100.0):
        t = ThermalPoint(ratio)
        lz = log_partition_function_alpha_closed(big, t)
        lg = log_partition_function_alpha_gamma(big, t)
        worst_log = max(worst_log, abs(lg - lz) / abs(lz))
    if worst_log >= 0.06:
        issues.append(f"log-domain Gamma error {worst_log:.4f} >= 6%")
    t10 = ThermalPoint(10.0)
    z = exp_or_inf(log_partition_function_alpha_closed(big, t10))
    zg = exp_or_inf(log_partition_function_alpha_gamma(big, t10))
    lin_err = abs(zg - z) / z
    if lin_err >= 0.051:
        issues.append(f"linear Gamma error at kT=10delta {lin_err:.4f} >= 5.1%")
    ok = not issues
    detail = "; ".join(issues) if issues else (
        f"t0={t0:.10g} bisect={tr.t_trans:.10g}; worst log-Gamma err "
        f"{worst_log:.4%}; linear err at 10delta {lin_err:.4%}"
    )
    return _result("ladder-closed-forms", ok, detail)


def check_stabilizer_closed_forms(seed: int = 0) -> CheckResult:
    """Analytic stabilizer levels vs dense matrices, crossing and flip numbers."""
    issues = []
    graphs = [Graph.path(n) for n in range(2, 9)]
    graphs += [Graph.ring(n) for n in range(3, 9)]
    graphs += [Graph.star(n) for n in range(2, 9)]
    graphs += [Graph.complete(n) for n in range(2, 9)]
    for g in graphs:
        h = build_stabilizer_hamiltonian(g, 1.0)
        merged = Spectrum.from_values(hermitian_eigenvalues(h))
        analytic = stabilizer_spectrum(g.n, 1.0)
        if merged.degeneracies != analytic.degeneracies or np.max(
            np.abs(np.array(merged.energies) - np.array(analytic.energies))
        ) > 1e-9:
            issues.append(f"spectrum mismatch on {g.n}-vertex graph")
        psi = graph_state(g)
        residual = float(np.linalg.norm(h @ psi.amplitudes + g.n * 1.0 * psi.amplitudes))
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
        p_at_t = flip_probability_from_temperature(b, ThermalPoint(t_formula))
        if abs(p_at_t - p_noise) > 1e-12:
            issues.append(f"flip map at t_trans {p_at_t!r} != threshold {p_noise!r}")
    ok = not issues
    detail = "; ".join(issues) if issues else (
        f"{len(graphs)} graphs match analytic levels; "
        f"t_trans/B={T_STAB_PER_B:.10g}, P_trans={P_TRANS_HALF:.12g}"
    )
    return _result("stabilizer-closed-forms", ok, detail)


def check_relative_entropy_identity(seed: int = 0) -> CheckResult:
    """Matrix-route relative entropy equals -log2 p0 to 1e-12.

    100 random spectra in random eigenbases, 20 temperatures each: the
    ground-to-thermal relative entropy computed from the dense Gibbs matrix
    (fresh eigensystem, spectral logarithm) must match the population form.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 13))
        e = np.sort(rng.uniform(0.0, 8.0, size=d))
        for i in range(1, d):
            e[i] = max(e[i], e[i - 1] + 0.05)
        gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis, _ = np.linalg.qr(gauss)
        h = (basis * e) @ basis.conj().T
        h = 0.5 * (h + h.conj().T)
        sp = Spectrum.from_values(e)
        if sp.n_levels != d:
            continue
        ground = basis[:, 0]
        temps = rng.uniform(0.8, 6.0, size=20)
        stat = [relative_entropy_ground_to_thermal(sp, ThermalPoint(float(t))) for t in temps]
        eig = stacked_eigendecompose(thermal_density_matrix(h, temps))
        weights = np.abs(np.swapaxes(eig.eigenvectors.conj(), -1, -2) @ ground) ** 2
        mat = -np.sum(weights * np.log2(np.maximum(eig.eigenvalues, 1e-300)), axis=-1)
        worst = max(worst, float(np.max(np.abs(mat - stat))))
    ok = worst <= 1e-12
    return _result(
        "relative-entropy-identity", ok, f"max |D_matrix - (-log2 p0)| = {worst:.3e}"
    )


def check_partial_bound_ordering(seed: int = 0) -> CheckResult:
    """Half-cut bipartite input never raises the crossing above the full bound."""
    issues = []
    pairs = []
    for n in (4, 6, 8):
        sp = toy_spectrum(ToySpectrumParams(e0=0.0, delta=1.0, alpha=1.0, n_levels=2**n))
        full = ent.dicke_robustness(n, n // 2)
        half = bipartite_pure_robustness(
            dicke_state(n, n // 2), Partition.bipartition(range(n // 2), n)
        )
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
    return _result("partial-bound-ordering", ok, detail)


def check_asymptotic_monotonicity(seed: int = 0) -> CheckResult:
    """Finite-size scans behind the limit claims move the right way.

    The degenerate-ladder crossing falls as the level count grows at fixed
    entanglement; the power-law crossing rises with the site count for each
    spacing exponent.
    """
    issues = []
    t0s = [toy_t0(d, 1.0, 1.0) for d in (4, 16, 256, 4096, 10**6)]
    if not all(a > b for a, b in zip(t0s, t0s[1:])):
        issues.append(f"t0 not decreasing in D: {t0s}")
    for alpha in (0.25, 0.5, 1.0):
        ts = [toy_t_alpha(alpha, n, 1.0) for n in (4, 16, 64, 256, 1024)]
        if not all(a < b for a, b in zip(ts, ts[1:])):
            issues.append(f"t_alpha not increasing in n at alpha={alpha}: {ts}")
    ok = not issues
    detail = "; ".join(issues) if issues else (
        f"t0(D): {t0s[0]:.4g} .. {t0s[-1]:.4g} decreasing; "
        "t_alpha(n) increasing for alpha in {0.25, 0.5, 1}"
    )
    return _result("asymptotic-monotonicity", ok, detail)


ALL_CHECKS: tuple[tuple[str, Callable[[int], CheckResult]], ...] = (
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


def run_all(seed: int = 0) -> list[CheckResult]:
    return [fn(seed) for _, fn in ALL_CHECKS]
