"""Command-line interface.

Subcommands sweep a temperature grid for one of the model systems and emit
a small CSV dialect:

    # thermwit-csv v1          <- format tag
    # key = value              <- config echo, one line per setting
    T,Z,p,threshold,...        <- column header, then data rows
    ## key = value             <- scalar results (transitions, bounds)

Floats are written with repr() so equal configs give byte-identical output.
`thermwit verify` runs the built-in cross-check suite instead of a sweep.

Exit codes: 0 success, 1 verification failure, 2 bad configuration,
3 numerical failure, 4 cross-check mismatch.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .checks import run_all
from .config import SETTINGS, GridSpec, RunConfig, load_config
from .entanglement import (
    Partition,
    RobustnessBound,
    bipartite_pure_robustness,
    bound_from_relative_entropy,
    concurrence_two_qubit,
    dicke_overlap_closed,
    dicke_robustness,
    geometric_measure_als,
    ppt_min_eigenvalue,
    singlet_robustness,
)
from .errors import NoSignChange, ThermwitError, ThresholdUnreachable
from .numerics import hermitian_eigenvalues
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
    read_edge_list,
    stabilizer_spectrum,
    toy_spectrum,
)
from .thermal import (
    ThermalPoint,
    exp_or_inf,
    log_ground_population_alpha_closed,
    log_partition_function,
    log_partition_function_alpha_gamma,
    log_population,
    log_stabilizer_partition_function,
    thermal_density_matrix,
)
from .witness import (
    concurrence_vanishing_temperature,
    flip_probability_from_temperature,
    gapping_rule_min_gap,
    ground_crossing,
    noise_threshold,
    satisfying_intervals,
    stabilizer_t_trans,
    toy_t0,
    toy_t1,
    toy_t_alpha,
    transition_temperature,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4

ORACLE_LEVEL_CAP = 10**5


class MismatchError(ThermwitError):
    """An oracle cross-check disagreed beyond tolerance."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _fb(b: bool) -> str:
    return "true" if b else "false"


def _emit(
    config_pairs: Sequence[tuple[str, str]],
    columns: Sequence[str],
    rows: Sequence[Sequence[str]],
    summaries: Sequence[tuple[str, str]],
) -> str:
    lines = ["# thermwit-csv v1"]
    lines.extend(f"# {k} = {v}" for k, v in config_pairs)
    if columns:
        lines.append(",".join(columns))
        lines.extend(",".join(row) for row in rows)
    lines.extend(f"## {k} = {v}" for k, v in summaries)
    return "\n".join(lines) + "\n"


def _deliver(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    Path(out).write_text(text, encoding="utf-8")
    for line in text.splitlines():
        if line.startswith("## "):
            sys.stdout.write(line[3:] + "\n")


# --- shared sweep driver --------------------------------------------------------


def _sweep(
    cfg: RunConfig,
    system: str,
    params: Sequence[tuple[str, str]],
    bound: RobustnessBound,
    e0: float,
    log_p0: Callable[[ThermalPoint], float],
    shape: tuple[float, float, int],
    extra_columns: Sequence[str],
    extra: Callable[[np.ndarray, np.ndarray], Sequence[Sequence[float]]],
    summaries: Callable[[float | None], Sequence[tuple[str, str]]],
    tail: Sequence[tuple[str, str]] = (),
) -> int:
    """Sweep the temperature grid and emit the CSV for one model.

    ``log_p0(point)`` is the model's one input: at each grid point Z =
    e^{-e0/kT} / p0, p and the verdict log p0 > log threshold are derived
    from it here alone, and after the rows the one ``ground_crossing``
    search runs on it over ``shape`` = (gap, spread, dimension).
    ``extra(kT, log p0)``, called once with the whole grid's arrays, gives
    the model's extra columns, and ``summaries(t_trans)`` its summary lines;
    it may raise MismatchError.
    """
    config_pairs = [
        ("system", system),
        *params,
        ("kB", _fmt(cfg.k_b)),
        ("grid", cfg.grid.spec_string()),
        ("seed", str(cfg.seed)),
        ("oracles", _fb(cfg.oracles)),
        *tail,
    ]
    columns = ["T", "Z", "p", "threshold", "satisfied", "bound_kind", *extra_columns]
    temps = cfg.grid.values()
    points = [ThermalPoint(float(temp), cfg.k_b) for temp in temps]
    kts = [point.kt for point in points]
    log_ps = [log_p0(point) for point in points]
    extra_cells = extra(np.array(kts), np.array(log_ps))
    rows = [
        [
            _fmt(temp),
            _fmt(exp_or_inf(-e0 / kt - log_p)),
            _fmt(math.exp(log_p)),
            _fmt(bound.threshold),
            _fb(log_p > bound.log_threshold),
            bound.kind.value,
            *(_fmt(column[i]) for column in extra_cells),
        ]
        for i, (temp, kt, log_p) in enumerate(zip(temps, kts, log_ps))
    ]
    t_trans = ground_crossing(log_p0, bound, *shape, cfg.k_b).t_trans
    results = [
        ("one_plus_r", _fmt(bound.one_plus_r)),
        ("threshold", _fmt(bound.threshold)),
        ("bound_kind", bound.kind.value),
        *summaries(t_trans),
    ]
    _deliver(_emit(config_pairs, columns, rows, results), cfg.out)
    return EXIT_OK


def _rel_err(log_a: float, log_b: float) -> float:
    """|a/b - 1| from log a and log b, so neither a nor b can overflow or underflow."""
    try:
        return abs(math.expm1(log_a - log_b))
    except OverflowError:
        return math.inf


def _crossing_lines(t_star: float | None) -> list[tuple[str, str]]:
    """The ``t_trans`` summary of a ground_crossing result."""
    if t_star is None:
        return [("t_trans", "none")]
    if math.isinf(t_star):
        return [("t_trans", "inf"), ("t_trans_note", "condition holds at every temperature")]
    return [("t_trans", _fmt(t_star))]


# --- spin dimer ---------------------------------------------------------------


def _dimer_bound(p: DimerParams) -> RobustnessBound:
    if p.B < 4.0 * p.J:
        return singlet_robustness()
    product_ground = PureState(2, np.array([1.0, 0.0, 0.0, 0.0]))
    return bipartite_pure_robustness(product_ground, Partition.bipartition([0], 2))


def cmd_dimer(cfg: RunConfig) -> int:
    p = DimerParams(B=cfg.dimer_b, J=cfg.dimer_j)
    sp = dimer_spectrum(p)
    bound = _dimer_bound(p)
    singlet_phase = p.B < 4.0 * p.J
    if cfg.oracles:
        h = build_dimer_hamiltonian(p)

    def extra(kt: np.ndarray, log_p0: np.ndarray):
        if not cfg.oracles:
            return ()
        rho = thermal_density_matrix(h, kt)
        return concurrence_two_qubit(rho), ppt_min_eigenvalue(rho, (2, 2), (0,))

    def summaries(t_trans: float | None):
        out = [("phase", "singlet-ground" if singlet_phase else "product-ground")]
        out += _crossing_lines(t_trans)
        if not singlet_phase:
            singlet_energy = -3.0 * p.J
            level = int(np.argmin(np.abs(np.array(sp.energies) - singlet_energy)))
            intervals = satisfying_intervals(
                sp, singlet_robustness(), cfg.grid.values(), level, cfg.k_b
            )
            out.append(("singlet_level_intervals", repr(intervals)))
        if cfg.oracles and singlet_phase:
            t_conc = concurrence_vanishing_temperature(p, k_b=cfg.k_b)
            out.append(("t_concurrence_zero", _fmt(t_conc)))
            if t_trans is not None:
                out.append(("t_margin", _fmt(t_conc - t_trans)))
                if t_trans > t_conc * (1.0 + 1e-9):
                    raise MismatchError(
                        f"witness crossing {t_trans!r} above concurrence zero {t_conc!r}"
                    )
        return out

    columns = ["concurrence", "min_pt_eig"] if cfg.oracles else []
    params = [("B", _fmt(p.B)), ("J", _fmt(p.J))]
    return _sweep(
        cfg, "dimer", params, bound, sp.ground_energy,
        lambda point: log_population(sp, point, 0), (sp.gap, sp.spread, sp.dimension),
        columns, extra, summaries,
    )


# --- power-law ladder ---------------------------------------------------------


def cmd_toy(cfg: RunConfig) -> int:
    p = ToySpectrumParams(
        e0=cfg.toy_e0, delta=cfg.toy_delta, alpha=cfg.toy_alpha, n_levels=cfg.toy_d
    )
    if cfg.toy_n is not None:
        if cfg.toy_n < 2 or cfg.toy_n % 2:
            raise ThermwitError(f"--n must be even and >= 2, got {cfg.toy_n}")
        e_r = math.log2(dicke_robustness(cfg.toy_n, cfg.toy_n // 2).one_plus_r)
    elif cfg.toy_e_r is not None:
        e_r = cfg.toy_e_r
    else:
        raise ThermwitError("toy needs --eR or --n")
    if not e_r > 0.0:
        raise ThermwitError(f"entanglement input must be positive, got {e_r}")
    bound = bound_from_relative_entropy(e_r)
    if cfg.oracles:
        if p.n_levels > ORACLE_LEVEL_CAP:
            raise ThermwitError(
                f"--oracles re-sums the spectrum and needs D <= {ORACLE_LEVEL_CAP}"
            )
        # log p0 carries no E0, so the re-sum runs on the ladder at E0 = 0:
        # stored as floats e0 + m**alpha delta, a large |E0| would round and
        # merge its levels.
        sp_oracle = toy_spectrum(replace(p, e0=0.0))

    worst_oracle = 0.0

    def extra(kts: np.ndarray, log_p0s: np.ndarray):
        nonlocal worst_oracle
        # per point in Python floats, which overflow to inf without a warning
        kts, log_p0s = kts.tolist(), log_p0s.tolist()
        columns = []
        if p.alpha > 0.0:
            log_zg = [log_partition_function_alpha_gamma(p, ThermalPoint(kt)) for kt in kts]
            columns.append([exp_or_inf(x) for x in log_zg])
            columns.append(
                [_rel_err(x, -p.e0 / kt - y) for x, kt, y in zip(log_zg, kts, log_p0s)]
            )
        if cfg.oracles:
            log_p0_sp = [log_population(sp_oracle, ThermalPoint(kt), 0) for kt in kts]
            columns.append([exp_or_inf(-p.e0 / kt - x) for x, kt in zip(log_p0_sp, kts)])
            # Z_sp / Z = p0 / p0_sp: compared without the -E0/kT both carry.
            # np.maximum keeps a NaN, which then fails the gate below.
            for x, y in zip(log_p0_sp, log_p0s):
                worst_oracle = float(np.maximum(worst_oracle, _rel_err(y, x)))
        return columns

    def summaries(t_trans: float | None):
        out = [("min_gap_rule", _fmt(gapping_rule_min_gap(e_r)))]
        out += _crossing_lines(t_trans)
        if p.alpha == 0.0:
            try:
                out.append(
                    ("t0_closed_form", _fmt(toy_t0(p.n_levels, e_r, p.delta) / cfg.k_b))
                )
            except ThresholdUnreachable:
                out.append(("t0_closed_form", "unreachable"))
            t1 = toy_t1(e_r, p.delta)
            out.append(("t1_exact", _fmt(t1.exact / cfg.k_b)))
            out.append(("t1_low_t", _fmt(t1.low_t / cfg.k_b)))
        if p.alpha > 0.0 and cfg.toy_n is not None:
            out.append(
                ("t_alpha_formula", _fmt(toy_t_alpha(p.alpha, cfg.toy_n, p.delta) / cfg.k_b))
            )
        if cfg.oracles:
            out.append(("z_spectrum_max_rel_err", _fmt(worst_oracle)))
            if not worst_oracle <= 1e-9:
                raise MismatchError(
                    f"spectrum re-sum disagrees with closed form by {worst_oracle:.3e}"
                )
        return out

    columns = (["z_gamma", "gamma_rel_err"] if p.alpha > 0.0 else []) + (
        ["z_spectrum"] if cfg.oracles else []
    )
    params = [
        ("E0", _fmt(p.e0)),
        ("delta", _fmt(p.delta)),
        ("alpha", _fmt(p.alpha)),
        ("D", str(p.n_levels)),
        ("eR", _fmt(e_r)),
    ]
    if cfg.toy_n is not None:
        params.append(("n", str(cfg.toy_n)))
    spread = p.delta * float(p.n_levels - 1) ** p.alpha
    return _sweep(
        cfg, "toy", params, bound, p.e0,
        lambda point: log_ground_population_alpha_closed(p, point),
        (p.delta, spread, p.n_levels), columns, extra, summaries,
    )


# --- symmetric (Dicke) bound report -------------------------------------------


def cmd_dicke(cfg: RunConfig) -> int:
    n = cfg.dicke_n
    k = cfg.dicke_k if cfg.dicke_k is not None else n // 2
    bound = dicke_robustness(n, k)
    overlap = dicke_overlap_closed(n, k)

    config_pairs = [
        ("system", "dicke"),
        ("n", str(n)),
        ("k", str(k)),
        ("seed", str(cfg.seed)),
        ("oracles", _fb(cfg.oracles)),
    ]
    summaries = [
        ("one_plus_r", _fmt(bound.one_plus_r)),
        ("threshold", _fmt(bound.threshold)),
        ("bound_kind", bound.kind.value),
        ("e_r_bits", _fmt(bound.relative_entropy_bits)),
        ("max_product_overlap", _fmt(overlap)),
        ("max_product_overlap_sq", _fmt(overlap**2)),
    ]
    if n % 2 == 0 and k == n // 2:
        summaries.append(("sqrt_n", _fmt(math.sqrt(n))))
        summaries.append(
            ("log_ratio_to_sqrt_n", _fmt(math.log2(bound.one_plus_r) / math.log2(math.sqrt(n))))
        )
    if cfg.oracles:
        if n > 12:
            raise ThermwitError("--oracles runs a dense search and needs n <= 12")
        als_overlap, eg_upper = geometric_measure_als(dicke_state(n, k), seed=cfg.seed)
        summaries += [
            ("als_overlap", _fmt(als_overlap)),
            ("als_eg_upper_bits", _fmt(eg_upper)),
            ("als_vs_closed", _fmt(abs(als_overlap - overlap))),
        ]
        if abs(als_overlap - overlap) > 1e-6:
            raise MismatchError(
                f"search overlap {als_overlap!r} vs closed form {overlap!r}"
            )
        if n % 2 == 0 and k == n // 2:
            half = bipartite_pure_robustness(
                dicke_state(n, k), Partition.bipartition(range(n // 2), n)
            )
            summaries.append(("half_cut_one_plus_r", _fmt(half.one_plus_r)))
            if abs(half.one_plus_r - bound.one_plus_r) > 1e-8 * bound.one_plus_r:
                raise MismatchError(
                    f"half-cut bound {half.one_plus_r!r} vs closed {bound.one_plus_r!r}"
                )

    _deliver(_emit(config_pairs, [], [], summaries), cfg.out)
    return EXIT_OK


# --- stabilizer graph ----------------------------------------------------------


def _graph_log_p0(n: int, b: float, kt: float) -> float:
    return -n * float(np.logaddexp(0.0, -2.0 * b / kt))


def _matrix_check(g: Graph, b: float, cfg: RunConfig) -> list[tuple[str, str]]:
    """Dense diagonalization of the stabilizer Hamiltonian vs the closed forms."""
    if g.n > 12:
        raise ThermwitError("--matrix-check builds 2^n matrices and needs n <= 12")
    h = build_stabilizer_hamiltonian(g, b)
    dense = Spectrum.from_values(hermitian_eigenvalues(h))
    analytic = stabilizer_spectrum(g.n, b)
    levels_ok = dense.degeneracies == analytic.degeneracies and bool(
        np.max(np.abs(np.array(dense.energies) - np.array(analytic.energies)))
        <= 1e-9 * max(1.0, abs(b) * g.n)
    )
    psi = graph_state(g)
    residual = float(
        np.linalg.norm(h @ psi.amplitudes - analytic.ground_energy * psi.amplitudes)
    )
    temps = cfg.grid.values()
    z_err = 0.0
    for temp in temps[:: max(1, len(temps) // 8)]:
        point = ThermalPoint(float(temp), cfg.k_b)
        log_z_closed = log_stabilizer_partition_function(g.n, b, point)
        log_z_dense = log_partition_function(dense, point)
        z_err = max(z_err, _rel_err(log_z_dense, log_z_closed))
    if not levels_ok or residual > 1e-9 or z_err > 1e-9:
        raise MismatchError(
            f"dense matrix check failed: levels_ok={levels_ok} "
            f"residual={residual:.3e} z_err={z_err:.3e}"
        )
    return [
        ("matrix_levels_match", _fb(levels_ok)),
        ("ground_state_residual", _fmt(residual)),
        ("z_trace_max_rel_err", _fmt(z_err)),
    ]


def cmd_graph(cfg: RunConfig) -> int:
    if cfg.graph_edges is None:
        raise ThermwitError("graph needs --edges FILE (first line n, then 'u v' rows)")
    g = read_edge_list(cfg.graph_edges)
    b = cfg.graph_b
    if not b > 0.0:
        raise ThermwitError(f"coupling B must be positive, got {b}")
    ratio = cfg.graph_e_r_per_site
    if not 0.0 < ratio < 1.0:
        raise ThermwitError(f"per-site eR must lie in (0, 1), got {ratio}")
    e_r = ratio * g.n
    if e_r > 1000.0:
        raise ThermwitError(
            f"total eR = {e_r:g} bits makes the population threshold underflow; "
            "for very large graphs call stabilizer_t_trans / noise_threshold directly"
        )
    bound = bound_from_relative_entropy(e_r)
    worst_flip = 0.0

    def extra(kts: np.ndarray, log_p0s: np.ndarray):
        nonlocal worst_flip
        if not cfg.oracles:
            return ()
        p_flip = [flip_probability_from_temperature(b, ThermalPoint(kt)) for kt in kts.tolist()]
        p_from_flip = [(1.0 - x) ** g.n for x in p_flip]
        for y, log_p0 in zip(p_from_flip, log_p0s.tolist()):
            worst_flip = max(worst_flip, abs(y - math.exp(log_p0)))
        return p_flip, p_from_flip

    def summaries(t_trans: float | None):
        p_flip = flip_probability_from_temperature(b, ThermalPoint(t_trans, cfg.k_b))
        out = [
            *_crossing_lines(t_trans),
            ("p_flip_threshold", _fmt(noise_threshold(e_r, g.n))),
            ("p_flip_at_t_trans", _fmt(p_flip)),
        ]
        if cfg.oracles:
            out.append(("flip_identity_max_err", _fmt(worst_flip)))
            if worst_flip > 1e-12:
                raise MismatchError(
                    f"(1 - p_flip)^n disagrees with ground population by {worst_flip:.3e}"
                )
            t_closed = stabilizer_t_trans(g.n, b, e_r) / cfg.k_b
            tr = transition_temperature(stabilizer_spectrum(g.n, b), bound, cfg.k_b)
            out.append(("t_trans_bisect", _fmt(tr.t_trans) if tr.detected else "none"))
            if not tr.detected or abs(tr.t_trans - t_closed) > 1e-8 * t_closed:
                raise MismatchError(
                    f"generic-solver crossing {tr.t_trans!r} vs closed form {t_closed!r}"
                )
        if cfg.matrix_check:
            out += _matrix_check(g, b, cfg)
        return out

    columns = ["p_flip", "p_from_flip"] if cfg.oracles else []
    params = [
        ("edges", str(cfg.graph_edges)),
        ("n", str(g.n)),
        ("n_edges", str(len(g.edges))),
        ("B", _fmt(b)),
        ("eR_per_site", _fmt(ratio)),
    ]
    tail = [("matrix_check", _fb(cfg.matrix_check))]
    return _sweep(
        cfg, "graph", params, bound, -g.n * b,
        lambda point: _graph_log_p0(g.n, b, point.kt), (2.0 * b, 2.0 * g.n * b, 2**g.n),
        columns, extra, summaries, tail,
    )


# --- verification --------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    results = run_all(cfg.seed)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{tag}] {r.name:<{width}}  {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"passed {passed}/{len(results)}")
    text = "\n".join(lines) + "\n"
    if cfg.out is not None:
        Path(cfg.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK if passed == len(results) else EXIT_VERIFY_FAILED


# --- argument plumbing ----------------------------------------------------------


# Model subcommands: (subcommand help, --oracles help). Each takes the common
# flags, then one --key flag per setting declared in its config section.
_MODELS = {
    "dimer": ("two-qubit exchange dimer in a field",
              "add concurrence and partial-transpose columns"),
    "toy": ("power-law ladder above an entangled ground state",
            "re-sum the spectrum as a partition-function cross-check"),
    "dicke": ("closed-form bound for symmetric states",
              "cross-check the bound with an alternating product search"),
    "graph": ("stabilizer Hamiltonian of a graph state",
              "add flip-probability identity columns and a generic-solver cross-check"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermwit",
        description="Certify thermal-state entanglement from ground-state weight.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for model, (about, oracles_help) in _MODELS.items():
        sub = subs.add_parser(model, help=about)
        sub.add_argument("--config", metavar="FILE", help="load settings from a config file")
        sub.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
        sub.add_argument("--out", metavar="FILE", default=None, help="write output here")
        if model != "dicke":
            sub.add_argument("--kB", type=float, default=None, dest="k_b",
                             help="Boltzmann constant (sets temperature units)")
            sub.add_argument("--grid", type=GridSpec.parse, default=None,
                             metavar="LO:HI:N:lin|log", help="temperature grid")
        for s in SETTINGS:
            if s.section == model:
                sub.add_argument(f"--{s.key}", type=s.kind, default=None, dest=s.name,
                                 help=s.help, metavar=s.metavar)
        sub.add_argument("--oracles", action="store_const", const=True, default=None,
                         help=oracles_help)
        if model == "graph":
            sub.add_argument("--matrix-check", action="store_const", const=True, default=None,
                             dest="matrix_check",
                             help="diagonalize the dense Hamiltonian (n <= 12)")

    v = subs.add_parser("verify", help="run the built-in cross-check suite")
    v.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    v.add_argument("--out", metavar="FILE", default=None, help="also write the report here")

    return parser


_COMMANDS: dict[str, Callable[[RunConfig], int]] = {
    "dimer": cmd_dimer,
    "toy": cmd_toy,
    "dicke": cmd_dicke,
    "graph": cmd_graph,
    "verify": cmd_verify,
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    command, path = values.pop("command"), values.pop("config", None)
    base = load_config(path) if path is not None else RunConfig()
    overrides = {key: value for key, value in values.items() if value is not None}
    if command != "verify":
        overrides["system"] = command
    return replace(base, **overrides)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; keep main() returning an int
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        cfg = _config_from_args(args)
    except (ThermwitError, OSError) as exc:
        print(f"thermwit: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except MismatchError as exc:
        print(f"thermwit: cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (NoSignChange, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"thermwit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ThermwitError, OSError) as exc:
        print(f"thermwit: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
