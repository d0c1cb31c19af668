"""Run configuration: one declaration per setting, as a RunConfig field.

Config files are flat ``key = value`` pairs under one section per subsystem
(INI syntax); the model subcommands take one ``--key`` flag per setting of
their section. Command-line flags override file values, which override defaults.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .errors import ThermwitError


@dataclass(frozen=True)
class GridSpec:
    """Temperature grid: lo:hi:count:spacing with lin or log spacing."""

    lo: float
    hi: float
    count: int
    spacing: str = "lin"

    def __post_init__(self) -> None:
        if not self.lo > 0:
            raise ThermwitError(f"grid lo must be positive, got {self.lo}")
        if not self.lo < self.hi:
            raise ThermwitError(f"grid needs lo < hi, got {self.lo}:{self.hi}")
        if not math.isfinite(self.hi):
            raise ThermwitError(f"grid hi must be finite, got {self.hi}")
        if self.count < 2:
            raise ThermwitError(f"grid needs at least 2 points, got {self.count}")
        if self.spacing not in ("lin", "log"):
            raise ThermwitError(f"grid spacing must be lin or log, got {self.spacing!r}")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 4:
            raise ThermwitError(f"grid spec must be lo:hi:count:spacing, got {text!r}")
        try:
            return cls(
                lo=float(parts[0]),
                hi=float(parts[1]),
                count=int(parts[2]),
                spacing=parts[3],
            )
        except ValueError as exc:
            raise ThermwitError(f"bad grid spec {text!r}: {exc}") from exc

    def spec_string(self) -> str:
        return f"{self.lo!r}:{self.hi!r}:{self.count}:{self.spacing}"

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


DEFAULT_GRID = GridSpec(lo=0.1, hi=10.0, count=181, spacing="lin")


def _setting(
    default, section: str, key: str, help: str | None = None, metavar: str | None = None
):
    """A field stored as ``[section] key``; in a model's section, also its ``--key`` flag."""
    meta = dict(section=section, key=key, help=help, metavar=metavar)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """Full parameter set for one CLI invocation, declared in config-file order.

    A field's annotation is its value type; ``T | None`` marks one that may
    be unset, written as an empty value where the default is set.
    """

    seed: int = _setting(0, "run", "seed")
    k_b: float = _setting(1.0, "run", "kB")
    grid: GridSpec = _setting(DEFAULT_GRID, "grid", "")
    dimer_b: float = _setting(0.0, "dimer", "B", "field strength")
    dimer_j: float = _setting(1.0, "dimer", "J", "exchange coupling")
    toy_e0: float = _setting(0.0, "toy", "E0", "ground energy")
    toy_delta: float = _setting(1.0, "toy", "delta", "gap scale")
    toy_alpha: float = _setting(0.0, "toy", "alpha", "spacing exponent in [0, 1]")
    toy_d: int = _setting(4, "toy", "D", "number of levels")
    toy_e_r: float | None = _setting(
        1.0, "toy", "eR", "relative entropy of entanglement of the ground state (bits)"
    )
    toy_n: int | None = _setting(
        None, "toy", "n", "derive eR from the half-filled symmetric state on n sites"
    )
    dicke_n: int = _setting(4, "dicke", "n", "number of sites")
    dicke_k: int | None = _setting(None, "dicke", "k", "excitation number (default n // 2)")
    graph_b: float = _setting(1.0, "graph", "B", "stabilizer coupling")
    graph_e_r_per_site: float = _setting(
        0.5, "graph", "eR", "per-site entanglement input, in (0, 1) bits"
    )
    graph_edges: str | None = _setting(
        None, "graph", "edges", "edge list: first line n, then one 'u v' pair per line", "FILE"
    )
    oracles: bool = _setting(False, "output", "oracles")
    matrix_check: bool = _setting(False, "output", "matrix_check")
    out: str | None = _setting(None, "output", "path")

    def __post_init__(self) -> None:
        if not 0.0 < self.k_b < math.inf:
            raise ThermwitError(f"kB must be positive and finite, got {self.k_b}")


class Setting(NamedTuple):
    """One RunConfig field as declared: ``kind`` is float, int, str, bool or GridSpec."""

    name: str
    kind: type
    optional: bool
    default: object
    section: str
    key: str
    help: str | None
    metavar: str | None


def _declared():
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        kinds = get_args(hints[f.name]) or (hints[f.name],)
        yield Setting(f.name, kinds[0], type(None) in kinds, f.default, **f.metadata)


SETTINGS = tuple(_declared())


def serialize_config(cfg: RunConfig) -> str:
    """Render a config as sectioned key = value text. Inverse of parse_config_text."""
    parser = configparser.ConfigParser(interpolation=None)
    for s in SETTINGS:
        value = getattr(cfg, s.name)
        if not parser.has_section(s.section):
            parser.add_section(s.section)
        if s.kind is GridSpec:
            parser[s.section].update({key: str(v) for key, v in asdict(value).items()})
        elif value is not None or s.default is not None:
            text = "" if value is None else str(value)
            parser[s.section][s.key] = text.lower() if s.kind is bool else text
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _reject_unknown(parser: configparser.ConfigParser) -> None:
    """A section or key no setting declares is a bad config (a misspelling, say)."""
    known: dict[str, set[str]] = {}
    for s in SETTINGS:
        keys = asdict(s.default) if s.kind is GridSpec else (s.key,)
        known.setdefault(s.section, set()).update(parser.optionxform(k) for k in keys)
    if parser.defaults():
        raise ThermwitError(f"bad config: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in known:
            raise ThermwitError(f"bad config: unknown section [{section}]")
        for key in parser.options(section):
            if key not in known[section]:
                raise ThermwitError(f"bad config: unknown key [{section}] {key}")


def parse_config_text(text: str) -> RunConfig:
    """Read config text: a missing key keeps its default, an empty optional one is None.

    An unknown section or key raises, so a misspelled setting cannot fall
    back to its default unnoticed.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ThermwitError(f"bad config: {exc}") from exc
    _reject_unknown(parser)

    def get(section: str, key: str, kind: type, default, optional: bool = False):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        if optional and raw == "":
            return None
        try:
            return parser.BOOLEAN_STATES[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError) as exc:
            raise ThermwitError(f"bad value for [{section}] {key}: {raw!r}") from exc

    values = {}
    for s in SETTINGS:
        if s.kind is GridSpec:  # the one composite value: each key parses like its default
            grid = asdict(s.default).items()
            values[s.name] = GridSpec(**{k: get(s.section, k, type(v), v) for k, v in grid})
        else:
            values[s.name] = get(s.section, s.key, s.kind, s.default, s.optional)
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ThermwitError(f"config file not found: {p}")
    return parse_config_text(p.read_text())
