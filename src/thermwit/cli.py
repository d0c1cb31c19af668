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
import functools
import math
import sys
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .checks import ALL_CHECKS, dense_stabilizer_oracle
from .config import SETTINGS, GridSpec, RunConfig, load_config
from .entanglement import (
    BoundKind,
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
from .errors import NoSignChange, ThermwitError
from .systems import (
    MATRIX_SITE_CAP,
    DimerParams,
    Graph,
    ToySpectrumParams,
    build_dimer_hamiltonian,
    dicke_state,
    dimer_spectrum,
    read_edge_list,
    stabilizer_spectrum,
)
from .thermal import (
    exp_or_inf,
    log_ground_population_alpha_closed,
    log_partition_function_alpha_gamma,
    log_population,
    thermal_density_matrix,
)
from .witness import (
    concurrence_vanishing_temperature,
    flip_probability_from_temperature,
    ground_crossing,
    noise_threshold,
    stabilizer_t_trans,
    toy_t0,
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


def _fmt(x: float | None) -> str:
    return "none" if x is None else repr(float(x))


def _fb(b: bool) -> str:
    return "true" if b else "false"


# --- shared sweep driver --------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """One model command's record: ``_write`` reads ``system``, ``params``
    and ``tail`` (the config echo around the common settings) and ``bound``;
    ``_sweep`` reads the rest. ``dicke`` has no temperature axis and leaves
    ``e0``, ``log_p0``, ``shape`` and ``extra`` at their defaults.
    """

    system: str
    params: Sequence[tuple[str, str]]
    bound: RobustnessBound
    e0: float = 0.0
    log_p0: Callable[[np.ndarray], np.ndarray] | None = None
    shape: tuple[float, float, int] = (0.0, 0.0, 0)
    extra: Callable[[np.ndarray, np.ndarray, float | None], tuple[dict, Sequence]] | None = None
    tail: Sequence[tuple[str, str]] = ()


def _write(
    cfg: RunConfig,
    model: Model,
    table: Sequence[str],
    summaries: Sequence[tuple[str, str]],
) -> int:
    """Write one model's CSV, the only place that knows its layout.

    The format tag; the echo of ``system``, the model's params, ``kB`` and
    ``grid`` only when there is a ``table`` (its CSV lines: a header, then
    its rows), ``seed``, ``oracles`` and the model's tail; the table; then
    the bound's ``one_plus_r``, ``threshold`` and ``bound_kind`` and
    ``summaries``. With ``--out`` the file gets all of it and stdout only
    the result lines.
    """
    grid = [("kB", _fmt(cfg.k_b)), ("grid", cfg.grid.spec_string())] if table else []
    echo = [
        ("system", model.system),
        *model.params,
        *grid,
        ("seed", str(cfg.seed)),
        ("oracles", _fb(cfg.oracles)),
        *model.tail,
    ]
    bound = model.bound
    results = [
        f"{k} = {v}\n"
        for k, v in [
            ("one_plus_r", _fmt(bound.one_plus_r)),
            ("threshold", _fmt(bound.threshold)),
            ("bound_kind", bound.kind.value),
            *summaries,
        ]
    ]
    head = ["# thermwit-csv v1", *(f"# {k} = {v}" for k, v in echo), *table]
    text = "\n".join(head) + "\n" + "".join(f"## {r}" for r in results)
    if cfg.out is not None:
        Path(cfg.out).write_text(text, encoding="utf-8")
        text = "".join(results)
    sys.stdout.write(text)
    return EXIT_OK


def _sweep(cfg: RunConfig, model: Model) -> int:
    """Sweep the temperature grid and write the CSV for one model.

    ``model.log_p0(kts)`` is the model's one input: called once with the
    whole grid, it gives each row's Z = e^{-e0/kT} / p0, p and the verdict
    log p0 > log threshold, derived here alone. The one ``ground_crossing``
    search then runs on its one-point view over ``model.shape``. Last,
    ``model.extra(kts, log_ps, t_trans)`` is called once with the grid's kT
    and log p0 arrays and the crossing; it returns ``(columns, summaries)``:
    a dict from each extra column's name to its float values (a sequence or
    array, one per row) in CSV order, and the model's ``(key, value)``
    summary lines. It may raise MismatchError. Non-finite e0, gap, spread or
    kT, and a kT that underflows to 0, are rejected before anything is
    evaluated. The table is built a column at a time: each column becomes
    Python floats once and each cell their repr, as ``_fmt`` gives one.
    """
    e0, log_p0, bound = model.e0, model.log_p0, model.bound
    gap, spread, _ = model.shape
    if not all(math.isfinite(x) for x in (e0, gap, spread)):
        raise ThermwitError(
            f"energies must be finite: E0 = {e0!r}, gap = {gap!r}, spread = {spread!r}"
        )
    temps = cfg.grid.values()
    t_max = float(temps.max())
    if not math.isfinite(t_max * cfg.k_b):
        raise ThermwitError(
            f"kT = T * kB must be finite; kB = {cfg.k_b!r} overflows it at T = {t_max!r}"
        )
    kts = temps * cfg.k_b
    if not np.all(kts > 0.0):
        raise ThermwitError(f"kT = T * kB must be positive; kB = {cfg.k_b!r} underflows it")
    log_ps = log_p0(kts)
    t_trans = ground_crossing(
        lambda kt: float(log_p0(np.array([kt]))[0]), bound, *model.shape, cfg.k_b
    ).t_trans
    columns, summaries = model.extra(kts, log_ps, t_trans)
    # at a subnormal kT, E0/kT overflows to +-inf and Z reads inf or 0
    with np.errstate(over="ignore"):
        log_zs = -e0 / kts - log_ps
    rows = map(",".join, zip(
        map(repr, temps.tolist()),
        map(repr, map(exp_or_inf, log_zs.tolist())),
        # libm exp per row, not np.exp, which may differ in the last bit
        map(repr, map(math.exp, log_ps.tolist())),
        repeat(_fmt(bound.threshold)),
        map(_fb, (log_ps > bound.log_threshold).tolist()),
        repeat(bound.kind.value),
        *(map(repr, np.asarray(column, dtype=float).tolist()) for column in columns.values()),
    ))
    header = ",".join(["T", "Z", "p", "threshold", "satisfied", "bound_kind", *columns])
    return _write(cfg, model, [header, *rows], summaries)


def _rel_err(log_a: float, log_b: float) -> float:
    """|a/b - 1| from log a and log b, so neither a nor b can overflow or underflow."""
    try:
        return abs(math.expm1(log_a - log_b))
    except OverflowError:
        return math.inf


def _crossing_lines(t_star: float | None) -> list[tuple[str, str]]:
    """The ``t_trans`` summary of a ground_crossing result."""
    if t_star == math.inf:
        return [("t_trans", "inf"), ("t_trans_note", "condition holds at every temperature")]
    return [("t_trans", _fmt(t_star))]


# --- spin dimer ---------------------------------------------------------------


def cmd_dimer(cfg: RunConfig) -> int:
    p = DimerParams(B=cfg.dimer_b, J=cfg.dimer_j)
    sp = dimer_spectrum(p)
    singlet_phase = p.B < 4.0 * p.J

    def extra(kts: np.ndarray, log_ps: np.ndarray, t_trans: float | None):
        columns = {}
        out = [("phase", "singlet-ground" if singlet_phase else "product-ground")]
        out += _crossing_lines(t_trans)
        if cfg.oracles:
            rho = thermal_density_matrix(build_dimer_hamiltonian(p), kts)
            columns["concurrence"] = concurrence_two_qubit(rho)
            columns["min_pt_eig"] = ppt_min_eigenvalue(rho, (2, 2), (0,))
        if cfg.oracles and singlet_phase:
            t_conc = concurrence_vanishing_temperature(p, k_b=cfg.k_b)
            out.append(("t_concurrence_zero", _fmt(t_conc)))
            if t_trans is not None:
                out.append(("t_margin", _fmt(t_conc - t_trans)))
                if t_trans > t_conc * (1.0 + 1e-9):
                    raise MismatchError(
                        f"witness crossing {t_trans!r} above concurrence zero {t_conc!r}"
                    )
        return columns, out

    params = [("B", _fmt(p.B)), ("J", _fmt(p.J))]
    # the product ground state |00> of the field phase has R = 0
    bound = singlet_robustness() if singlet_phase else RobustnessBound(1.0, BoundKind.EXACT)
    return _sweep(cfg, Model(
        "dimer", params, bound, sp.ground_energy,
        lambda kts: log_population(sp, kts, 0), (sp.gap, sp.spread, sp.dimension), extra,
    ))


# --- power-law ladder ---------------------------------------------------------


def _ladder_resum(excited: np.ndarray, kts: list[float]) -> list[float]:
    """log p0 = -log1p(sum_m e^{-x_m/kT}) apart from the thermal kernel: every
    term with x_m < 746 kT goes through exp, subnormals too, unshifted."""
    return [
        -math.log1p(float(np.sum(np.exp(-excited[:excited.searchsorted(746.0 * kt)] / kt))))
        for kt in kts
    ]


def cmd_toy(cfg: RunConfig) -> int:
    p = ToySpectrumParams(
        e0=cfg.toy_e0, delta=cfg.toy_delta, alpha=cfg.toy_alpha, n_levels=cfg.toy_d
    )
    if cfg.toy_n is not None:
        if cfg.toy_n < 2 or cfg.toy_n % 2:
            raise ThermwitError(f"--n must be even and >= 2, got {cfg.toy_n}")
        bound = dicke_robustness(cfg.toy_n, cfg.toy_n // 2)
        e_r = bound.relative_entropy_bits
    elif cfg.toy_e_r is not None:
        e_r = cfg.toy_e_r
        if not e_r > 0.0:
            raise ThermwitError(f"entanglement input must be positive, got {e_r}")
        bound = bound_from_relative_entropy(e_r)
    else:
        raise ThermwitError("toy needs --eR or --n")
    if cfg.oracles:
        if p.n_levels > ORACLE_LEVEL_CAP:
            raise ThermwitError(
                f"--oracles re-sums the spectrum and needs D <= {ORACLE_LEVEL_CAP}"
            )
        # log p0 carries no E0: the re-sum takes the levels above the ground
        # one as m**alpha delta, which e0 + m**alpha delta rounds at large |E0|
        excited = np.arange(1, p.n_levels, dtype=float) ** p.alpha * p.delta

    def extra(kts: np.ndarray, log_ps: np.ndarray, t_trans: float | None):
        if cfg.oracles:
            log_p0_sp = _ladder_resum(excited, kts.tolist())
        # per point in Python floats, which overflow to inf without a warning
        kts, log_ps = kts.tolist(), log_ps.tolist()
        columns = {}
        out = _crossing_lines(t_trans)
        if p.alpha > 0.0:
            log_zg = [log_partition_function_alpha_gamma(p, kt) for kt in kts]
            columns["z_gamma"] = [exp_or_inf(x) for x in log_zg]
            columns["gamma_rel_err"] = [
                _rel_err(x, -p.e0 / kt - y) for x, kt, y in zip(log_zg, kts, log_ps)
            ]
            if cfg.toy_n is not None:
                t_alpha = toy_t_alpha(p.alpha, bound.one_plus_r - 1.0, p.delta)
                out.append(("t_alpha_formula", _fmt(t_alpha / cfg.k_b)))
        else:
            # none at 1 + R = 1, a threshold no population exceeds
            t0 = toy_t0(p.n_levels, bound, p.delta) / cfg.k_b if bound.one_plus_r > 1.0 else None
            out.append(("t0_closed_form", _fmt(t0)))
        if cfg.oracles:
            columns["z_spectrum"] = [exp_or_inf(-p.e0 / kt - x) for x, kt in zip(log_p0_sp, kts)]
            # Z_sp / Z = p0 / p0_sp: compared without the -E0/kT both carry.
            # np.max keeps a NaN, which then fails the gate below.
            worst = float(np.max([_rel_err(y, x) for x, y in zip(log_p0_sp, log_ps)]))
            out.append(("z_spectrum_max_rel_err", _fmt(worst)))
            if not worst <= 1e-9:
                raise MismatchError(f"spectrum re-sum disagrees with closed form by {worst:.3e}")
        return columns, out

    params = [
        ("E0", _fmt(p.e0)),
        ("delta", _fmt(p.delta)),
        ("alpha", _fmt(p.alpha)),
        ("D", str(p.n_levels)),
        ("eR", _fmt(e_r)),
    ]
    if cfg.toy_n is not None:
        params.append(("n", str(cfg.toy_n)))
    return _sweep(cfg, Model(
        "toy", params, bound, p.e0,
        lambda kts: log_ground_population_alpha_closed(p, kts),
        (p.delta, p.spread, p.n_levels), extra,
    ))


# --- symmetric (Dicke) bound report -------------------------------------------


def cmd_dicke(cfg: RunConfig) -> int:
    n = cfg.dicke_n
    k = cfg.dicke_k if cfg.dicke_k is not None else n // 2
    bound = dicke_robustness(n, k)
    overlap = dicke_overlap_closed(n, k)

    summaries = [
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
        if n > MATRIX_SITE_CAP:
            raise ThermwitError(f"--oracles runs a dense search and needs n <= {MATRIX_SITE_CAP}")
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
            half = bipartite_pure_robustness(dicke_state(n, k), range(n // 2))
            summaries.append(("half_cut_one_plus_r", _fmt(half.one_plus_r)))
            if abs(half.one_plus_r - bound.one_plus_r) > 1e-8 * bound.one_plus_r:
                raise MismatchError(
                    f"half-cut bound {half.one_plus_r!r} vs closed {bound.one_plus_r!r}"
                )

    return _write(cfg, Model("dicke", [("n", str(n)), ("k", str(k))], bound), [], summaries)


# --- stabilizer graph ----------------------------------------------------------


def _matrix_check(
    g: Graph, b: float, kts: np.ndarray, log_ps: np.ndarray
) -> list[tuple[str, str]]:
    """Dense eigenvalues of the stabilizer Hamiltonian vs the closed forms,
    and the dense log Z vs the Z column's own, n B/kT - log p0, on every row.
    Both log Z follow the Z column's rule, -E0/kT - log p0."""
    if g.n > MATRIX_SITE_CAP:
        raise ThermwitError(f"--matrix-check builds 2^n matrices and needs n <= {MATRIX_SITE_CAP}")
    dense, levels_ok, residual = dense_stabilizer_oracle(g, b)
    # at a subnormal kT, E0/kT overflows to +-inf, as log Z does
    with np.errstate(over="ignore"):
        log_zs = (-dense.ground_energy / kts - log_population(dense, kts)).tolist()
    # in Python floats, as the Z column; np.max keeps a NaN, which then fails the gate
    z_err = float(np.max([
        _rel_err(z, g.n * b / kt - p) for z, kt, p in zip(log_zs, kts.tolist(), log_ps.tolist())
    ]))
    if not levels_ok or residual > 1e-9 or not z_err <= 1e-9:
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

    def extra(kts: np.ndarray, log_ps: np.ndarray, t_trans: float | None):
        columns = {}
        out = [
            *_crossing_lines(t_trans),
            ("p_flip_threshold", _fmt(noise_threshold(e_r, g.n))),
            ("p_flip_at_t_trans", _fmt(None if t_trans is None else (
                flip_probability_from_temperature(b, t_trans * cfg.k_b)
            ))),
        ]
        if cfg.oracles:
            p_flip = flip_probability_from_temperature(b, kts)
            p_from_flip = [(1.0 - x) ** g.n for x in p_flip.tolist()]
            columns = {"p_flip": p_flip, "p_from_flip": p_from_flip}
            # np.max keeps a NaN, which then fails the gate below
            worst = float(np.max(np.abs(
                np.subtract(p_from_flip, list(map(math.exp, log_ps.tolist())))
            )))
            out.append(("flip_identity_max_err", _fmt(worst)))
            if not worst <= 1e-12:
                raise MismatchError(
                    f"(1 - p_flip)^n disagrees with ground population by {worst:.3e}"
                )
            # the closed form on the bound the search used; at 1 + R = 1 both are none
            bits = bound.relative_entropy_bits
            t_closed = stabilizer_t_trans(g.n, b, bits) / cfg.k_b if bits > 0.0 else None
            tr = transition_temperature(stabilizer_spectrum(g.n, b), bound, cfg.k_b)
            out.append(("t_trans_bisect", _fmt(tr.t_trans)))
            if tr.detected != (t_closed is not None) or (
                tr.detected and abs(tr.t_trans - t_closed) > 1e-8 * t_closed
            ):
                raise MismatchError(
                    f"generic-solver crossing {tr.t_trans!r} vs closed form {t_closed!r}"
                )
        if cfg.matrix_check:
            out += _matrix_check(g, b, kts, log_ps)
        return columns, out

    def log_p0_closed(kts: np.ndarray) -> np.ndarray:
        # at a subnormal kT, 2B/kT overflows to inf and p0 is 1, as intended
        with np.errstate(over="ignore"):
            return -g.n * np.logaddexp(0.0, -2.0 * b / kts)

    params = [
        ("edges", str(cfg.graph_edges)),
        ("n", str(g.n)),
        ("n_edges", str(len(g.edges))),
        ("B", _fmt(b)),
        ("eR_per_site", _fmt(ratio)),
    ]
    return _sweep(cfg, Model(
        "graph", params, bound, -g.n * b,
        log_p0_closed, (2.0 * b, 2.0 * g.n * b, 2**g.n),
        extra, [("matrix_check", _fb(cfg.matrix_check))],
    ))


# --- verification --------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    results = [(name, *fn(cfg.seed)) for name, fn in ALL_CHECKS]
    width = max(len(name) for name, _, _ in results)
    lines = [
        f"[{'PASS' if ok else 'FAIL'}] {name:<{width}}  {detail}" for name, ok, detail in results
    ]
    passed = sum(bool(ok) for _, ok, _ in results)
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


def _grid_flag(text: str) -> GridSpec:
    """GridSpec.parse for argparse, which prints an ArgumentTypeError's own message."""
    try:
        return GridSpec.parse(text)
    except ThermwitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@functools.cache  # parse_args leaves the parser as it found it
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
            sub.add_argument("--grid", type=_grid_flag, default=None,
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
                             help=f"diagonalize the dense Hamiltonian (n <= {MATRIX_SITE_CAP})")

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
    del values["command"]
    path = values.pop("config", None)
    base = load_config(path) if path is not None else RunConfig()
    overrides = {key: value for key, value in values.items() if value is not None}
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
