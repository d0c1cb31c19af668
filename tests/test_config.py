"""Config files, serialize_config and the subcommand flags, all driven by the
one declaration of settings in thermwit.config."""
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from thermwit.cli import _build_parser, _config_from_args, main
from thermwit.config import (
    SETTINGS,
    GridSpec,
    RunConfig,
    parse_config_text,
    serialize_config,
)

MODELS = ("dimer", "toy", "dicke", "graph")

_text = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1
).filter(lambda s: s == s.strip())
_positive = st.floats(min_value=1e-300, max_value=1e300)
_grids = st.builds(
    lambda ends, count, spacing: GridSpec(min(ends), max(ends), count, spacing),
    st.tuples(_positive, _positive).filter(lambda ends: ends[0] != ends[1]),
    st.integers(2, 10**6),
    st.sampled_from(["lin", "log"]),
)
_KINDS = {
    float: st.floats(allow_nan=False),
    int: st.integers(),
    bool: st.booleans(),
    str: _text,
    GridSpec: _grids,
}


def _values(s):
    if s.name == "k_b":  # kB must be positive and finite
        values = _positive
    else:
        values = _KINDS[s.kind]
    return st.none() | values if s.optional else values


CONFIGS = st.fixed_dictionaries({s.name: _values(s) for s in SETTINGS}).map(
    lambda values: RunConfig(**values)
)
OPTIONAL = [s.name for s in SETTINGS if s.optional]


class TestRoundTrip:
    @given(CONFIGS)
    @example(RunConfig(toy_e_r=None))
    def test_parse_inverts_serialize(self, cfg):
        assert parse_config_text(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("name", OPTIONAL)
    def test_unset_optional_setting(self, name):
        cfg = RunConfig(**{name: None})
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_default_text(self):
        assert serialize_config(RunConfig()) == (
            "[run]\nseed = 0\nkb = 1.0\n\n"
            "[grid]\nlo = 0.1\nhi = 10.0\ncount = 181\nspacing = lin\n\n"
            "[dimer]\nb = 0.0\nj = 1.0\n\n"
            "[toy]\ne0 = 0.0\ndelta = 1.0\nalpha = 0.0\nd = 4\ner = 1.0\n\n"
            "[dicke]\nn = 4\n\n"
            "[graph]\nb = 1.0\ner = 0.5\n\n"
            "[output]\noracles = false\nmatrix_check = false\n\n"
        )

    def test_unset_toy_entanglement_is_an_empty_value(self):
        text = serialize_config(RunConfig(toy_e_r=None))
        assert "\ner = \n\n[dicke]" in text

    def test_missing_keys_keep_defaults(self):
        assert parse_config_text("[toy]\nD = 64\n") == RunConfig(toy_d=64)


class TestPercentInValues:
    def test_serialize_round_trip(self):
        cfg = RunConfig(graph_edges="runs/50%/g.edges")
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_output_path_from_config(self, capsys, tmp_path):
        target = tmp_path / "out_50%.csv"
        path = tmp_path / "f.cfg"
        path.write_text(f"[output]\npath = {target}\n")
        assert main(["dimer", "--config", str(path)]) == 0
        assert target.read_text().startswith("# thermwit-csv v1\n")
        assert "t_trans" in capsys.readouterr().out


_SAMPLE = {float: "0.375", int: "6", str: "g.edges"}

# Hand-written flags of a model subcommand and the config text they stand for.
_COMMON = [
    ("dimer", ["--kB", "0.5"], "[run]\nkB = 0.5\n"),
    ("toy", ["--seed", "7"], "[run]\nseed = 7\n"),
    ("graph", ["--grid", "0.5:2.0:5:log"],
     "[grid]\nlo = 0.5\nhi = 2.0\ncount = 5\nspacing = log\n"),
    ("dicke", ["--out", "r.csv"], "[output]\npath = r.csv\n"),
    ("dimer", ["--oracles"], "[output]\noracles = true\n"),
    ("graph", ["--matrix-check"], "[output]\nmatrix_check = true\n"),
]


def _from_argv(argv):
    return _config_from_args(_build_parser().parse_args(argv))


class TestFlagsMatchConfig:
    @pytest.mark.parametrize(
        "s", [s for s in SETTINGS if s.section in MODELS], ids=lambda s: f"{s.section}-{s.key}"
    )
    def test_model_setting(self, tmp_path, s):
        text = _SAMPLE[s.kind]
        path = tmp_path / "run.cfg"
        path.write_text(f"[{s.section}]\n{s.key} = {text}\n")
        by_flag = _from_argv([s.section, f"--{s.key}", text])
        assert getattr(by_flag, s.name) != s.default
        assert by_flag == _from_argv([s.section, "--config", str(path)])

    @pytest.mark.parametrize("command, flags, text", _COMMON)
    def test_common_flag(self, tmp_path, command, flags, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        by_flag = _from_argv([command, *flags])
        assert by_flag != RunConfig()
        assert by_flag == _from_argv([command, "--config", str(path)])


_BAD = {float: "banana", int: "1.5", bool: "maybe"}
_BAD_KEYS = [(s.section, s.key, _BAD[s.kind]) for s in SETTINGS if s.kind in _BAD] + [
    ("grid", "lo", "x"),
    ("grid", "hi", "1e"),
    ("grid", "count", "5.0"),
]


class TestBadValues:
    @pytest.mark.parametrize("section, key, raw", _BAD_KEYS)
    def test_exit_2_names_the_key(self, capsys, tmp_path, section, key, raw):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        assert main(["dimer", "--config", str(path)]) == 2
        assert f"bad value for [{section}] {key}: {raw!r}" in capsys.readouterr().err

    def test_empty_required_value_is_bad(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[dimer]\nB =\n")
        assert main(["dimer", "--config", str(path)]) == 2
        assert "[dimer] B" in capsys.readouterr().err


def _exit_2_from_flag_and_file(capsys, flags, path, message):
    for argv in (["dimer", *flags], ["dimer", "--config", str(path)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert message in captured.err, argv
        assert "Warning" not in captured.err and "Traceback" not in captured.err, argv


class TestOutOfRangeValues:
    """Values that parse but that no run can use, from a flag or a file alike."""

    @pytest.mark.parametrize("raw", ["0", "-1", "nan", "inf"])
    def test_kb_must_be_positive_and_finite(self, capsys, tmp_path, raw):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[run]\nkB = {raw}\n")
        message = f"kB must be positive and finite, got {float(raw)}"
        _exit_2_from_flag_and_file(capsys, [f"--kB={raw}"], path, message)

    @pytest.mark.parametrize("spacing", ["lin", "log"])
    def test_grid_hi_must_be_finite(self, capsys, tmp_path, spacing):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[grid]\nlo = 1.0\nhi = inf\ncount = 3\nspacing = {spacing}\n")
        message = "grid hi must be finite, got inf"
        _exit_2_from_flag_and_file(capsys, ["--grid", f"1:inf:3:{spacing}"], path, message)


# One misspelled key per section, and sections no setting declares.
_UNKNOWN_KEYS = [
    ("run", "sed"),
    ("grid", "points"),
    ("dimer", "JJ"),
    ("toy", "alpah"),
    ("dicke", "kk"),
    ("graph", "edge"),
    ("output", "oracle"),
]


class TestUnknownSettings:
    def test_every_section_is_covered(self):
        assert {section for section, _ in _UNKNOWN_KEYS} == {s.section for s in SETTINGS}

    @pytest.mark.parametrize("section, key", _UNKNOWN_KEYS)
    def test_unknown_key_exits_2_and_names_it(self, capsys, tmp_path, section, key):
        path = tmp_path / "typo.cfg"
        path.write_text(f"[{section}]\n{key} = 0.5\n")
        assert main(["toy", "--config", str(path)]) == 2
        assert f"unknown key [{section}] {key.lower()}" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["tyo", "Toy", "DEFAULT"])
    def test_unknown_section_exits_2_and_names_it(self, capsys, tmp_path, section):
        path = tmp_path / "typo.cfg"
        path.write_text(f"[{section}]\nalpha = 0.5\n")
        assert main(["toy", "--config", str(path)]) == 2
        assert f"unknown section [{section}]" in capsys.readouterr().err

    def test_system_is_not_a_setting(self, capsys, tmp_path):
        # the subcommand names the model; a file cannot
        path = tmp_path / "old.cfg"
        path.write_text("[run]\nsystem = toy\n")
        assert main(["dimer", "--config", str(path)]) == 2
        assert "unknown key [run] system" in capsys.readouterr().err

    def test_key_case_is_still_ignored(self):
        assert parse_config_text("[toy]\nALPHA = 0.5\n").toy_alpha == 0.5
