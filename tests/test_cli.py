"""End-to-end tests of the command-line interface.

Everything runs in-process through cli.main(argv) so exit codes and stdout
can be asserted directly; one test goes through the installed entry point.
"""
import io
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermwit.cli
import thermwit.entanglement
from thermwit.cli import _graph_log_p0, main
from thermwit.config import RunConfig, serialize_config
from thermwit.errors import NoSignChange
from thermwit.systems import Graph, ToySpectrumParams, write_edge_list
from thermwit.thermal import ThermalPoint, log_partition_function_alpha_closed
from thermwit.witness import toy_t0

T_ZERO_FIELD = 4.0 / math.log(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(*argv):
    """main(argv) with its output captured, for tests that cannot take capsys."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def csv_column(out, name):
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    j = lines[0].split(",").index(name)
    return [l.split(",")[j] for l in lines[1:]]


def summary_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"## {key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


class TestDimerCommand:
    def test_basic_run(self, capsys):
        code, out, err = run(capsys, "dimer", "--B", "0", "--J", "1")
        assert code == 0 and err == ""
        assert out.startswith("# thermwit-csv v1\n")
        assert "T,Z,p,threshold,satisfied,bound_kind" in out
        assert float(summary_value(out, "t_trans")) == pytest.approx(
            T_ZERO_FIELD, rel=1e-9
        )
        assert summary_value(out, "phase") == "singlet-ground"

    def test_oracle_columns(self, capsys):
        code, out, _ = run(
            capsys, "dimer", "--B", "1", "--J", "1", "--grid", "0.5:5:10:lin", "--oracles"
        )
        assert code == 0
        header = [l for l in out.splitlines() if l.startswith("T,")][0]
        assert header.endswith("concurrence,min_pt_eig")
        t_w = float(summary_value(out, "t_trans"))
        t_c = float(summary_value(out, "t_concurrence_zero"))
        assert t_w == pytest.approx(3.556193150034734, rel=1e-9)
        assert t_c > t_w

    def test_product_phase_reports_no_transition(self, capsys):
        code, out, _ = run(capsys, "dimer", "--B", "5", "--J", "1")
        assert code == 0
        assert summary_value(out, "t_trans") == "none"
        assert summary_value(out, "phase") == "product-ground"
        assert summary_value(out, "singlet_level_intervals") == "[]"

    def test_level_crossing_field_reports_no_transition(self, capsys):
        # at B = 4J the singlet and |00> share the ground level; the trivial
        # product-phase bound is never exceeded, whatever the degeneracy
        code, out, err = run(capsys, "dimer", "--B", "4", "--J", "1")
        assert code == 0 and err == ""
        assert summary_value(out, "phase") == "product-ground"
        assert summary_value(out, "t_trans") == "none"
        assert summary_value(out, "singlet_level_intervals") == "[]"

    def test_zero_field_concurrence_zero_not_below_crossing(self, capsys):
        # both crossings sit at 4J/ln 3; the oracle's may not land below the witness's
        code, out, _ = run(capsys, "dimer", "--B", "0", "--oracles")
        assert code == 0
        assert float(summary_value(out, "t_margin")) >= 0.0

    @pytest.mark.parametrize("b", [0.0, 1.3, 3.0])
    def test_concurrence_column_matches_x_state_form(self, capsys, b):
        # The Gibbs state is an X state: C = |p_s - p_t0| - 2 sqrt(p_00 p_11),
        # positive part. At kT far below the gap the three small mu_i of the
        # spin-flip spectrum are square roots of eigenvalues near 0 that carry
        # ~eps of absolute error, so the column is good to ~sqrt(eps) ~ 1.5e-8
        # (worst seen on these grids: 9.1e-9 at B = 1.3, T = 0.13), not to eps.
        code, out, _ = run(
            capsys, "dimer", "--B", repr(b), "--grid", "0.05:10:400:lin", "--oracles"
        )
        assert code == 0
        levels = {"00": 1.0 - b, "s": -3.0, "t0": 1.0, "11": 1.0 + b}
        worst = 0.0
        with mpmath.workdps(40):
            for temp, c in zip(csv_column(out, "T"), csv_column(out, "concurrence")):
                w = {k: mpmath.exp(-mpmath.mpf(e) / mpmath.mpf(temp)) for k, e in levels.items()}
                z = sum(w.values())
                exact = abs(w["s"] - w["t0"]) / z - 2 * mpmath.sqrt(w["00"] * w["11"]) / z
                worst = max(worst, abs(float(c) - float(max(exact, 0))))
        assert worst <= math.sqrt(sys.float_info.epsilon)

    def test_oracle_columns_are_one_stacked_pass(self, capsys, monkeypatch):
        calls = []
        build = thermwit.cli.thermal_density_matrix

        def counted(h, t):
            calls.append(t)
            return build(h, t)

        monkeypatch.setattr(thermwit.cli, "thermal_density_matrix", counted)
        code, _, _ = run(capsys, "dimer", "--B", "1.3", "--grid", "0.05:10:2000:lin", "--oracles")
        assert code == 0
        assert len(calls) == 1 and calls[0].shape == (2000,)

    def test_byte_determinism(self, capsys):
        args = ("dimer", "--B", "0.7", "--J", "1.1", "--oracles")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dimer.csv"
        code, out, _ = run(capsys, "dimer", "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("# thermwit-csv v1\n")
        # stdout carries only the summary lines when writing to a file
        assert "t_trans" in out and "# thermwit-csv" not in out


class TestToyCommand:
    def test_alpha_zero_summaries(self, capsys):
        code, out, _ = run(capsys, "toy", "--alpha", "0", "--D", "4", "--eR", "1")
        assert code == 0
        assert float(summary_value(out, "t_trans")) == pytest.approx(
            1.0 / math.log(3.0), rel=1e-9
        )
        assert float(summary_value(out, "t0_closed_form")) == pytest.approx(
            1.0 / math.log(3.0), rel=1e-12
        )
        assert float(summary_value(out, "t1_exact")) == pytest.approx(
            1.0 / math.log(2.0), rel=1e-12
        )

    def test_gamma_columns_present_only_for_positive_alpha(self, capsys):
        _, out0, _ = run(capsys, "toy", "--alpha", "0", "--D", "8", "--eR", "1")
        _, out1, _ = run(capsys, "toy", "--alpha", "0.5", "--D", "8", "--eR", "1")
        assert "z_gamma" not in out0
        header = [l for l in out1.splitlines() if l.startswith("T,")][0]
        assert "z_gamma" in header and "gamma_rel_err" in header

    def test_site_count_derives_entanglement(self, capsys):
        code, out, _ = run(capsys, "toy", "--alpha", "1", "--D", "64", "--n", "4")
        assert code == 0
        e_r = float(summary_value(out, "one_plus_r"))
        assert e_r == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert float(summary_value(out, "t_alpha_formula")) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_odd_site_count_rejected(self, capsys):
        code, _, err = run(capsys, "toy", "--n", "5")
        assert code == 2
        assert "even" in err

    def test_unreachable_threshold_reports_inf(self, capsys):
        code, out, _ = run(capsys, "toy", "--alpha", "0", "--D", "4", "--eR", "2.5")
        assert code == 0
        assert summary_value(out, "t_trans") == "inf"
        assert summary_value(out, "t0_closed_form") == "unreachable"

    def test_million_level_crossing_on_the_safe_side(self, capsys):
        code, out, _ = run(
            capsys, "toy", "--alpha", "0", "--D", "1000000", "--eR", "4",
            "--grid", "0.1:10:50:log",
        )
        assert code == 0
        t_trans = float(summary_value(out, "t_trans"))
        t0 = toy_t0(10**6, 4.0)
        assert t_trans <= t0
        assert t0 - t_trans <= 4 * math.ulp(t0)

    def test_crossing_beyond_the_initial_bracket(self, capsys):
        # 1/(1+R) sits just above 1/D = 1/4, so the crossing (~1.08e5) lies
        # far above the initial end 1e4 * spread of the search
        code, out, _ = run(capsys, "toy", "--eR", "1.99999")
        assert code == 0
        t_trans = float(summary_value(out, "t_trans"))
        t0 = float(summary_value(out, "t0_closed_form"))
        assert t_trans == pytest.approx(t0, rel=1e-9)
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=0.0, n_levels=4)
        # the rows' condition: log p0 above the log threshold rounded up
        log_threshold = math.nextafter(
            math.log(float(summary_value(out, "threshold"))), math.inf
        )

        def holds(temp):
            return -log_partition_function_alpha_closed(p, ThermalPoint(temp)) > log_threshold

        assert holds(t_trans)
        assert not holds(math.nextafter(t_trans, math.inf))

    def test_oracle_resum_agrees(self, capsys):
        code, out, _ = run(
            capsys, "toy", "--alpha", "0.5", "--D", "2000", "--eR", "1.5", "--oracles"
        )
        assert code == 0
        assert float(summary_value(out, "z_spectrum_max_rel_err")) < 1e-9

    @pytest.mark.parametrize("e0", ["3e8", "1e9", "-1e9"])
    def test_oracle_resum_with_large_ground_energy(self, capsys, e0):
        # log p0 carries no E0, so the re-sum runs on the ladder at E0 = 0;
        # a spectrum stored at E0 + m**alpha would round and merge its levels
        argv = ["toy", "--alpha", "0.5", "--D", "10", "--eR", "1", "--oracles"]
        code, out, err = run(capsys, *argv, f"--E0={e0}")
        assert code == 0 and err == ""
        assert float(summary_value(out, "z_spectrum_max_rel_err")) < 1e-9
        _, out0, _ = run(capsys, *argv)
        assert csv_column(out, "p") == csv_column(out0, "p")

    def test_underflowing_z_keeps_the_error_column(self, capsys):
        # Z = e^{-E0/kT} p0^{-1} underflows to 0.0 at the low end of the grid;
        # the Gamma-form error is taken in the log domain and stays near E0 = 0's
        argv = ["toy", "--alpha", "0.5", "--D", "10", "--eR", "1"]
        code, out, err = run(capsys, *argv, "--E0", "1000")
        assert code == 0 and err == ""
        assert csv_column(out, "Z")[0] == "0.0"
        _, out0, _ = run(capsys, *argv)
        for got, ref in zip(csv_column(out, "gamma_rel_err"), csv_column(out0, "gamma_rel_err")):
            assert float(got) == pytest.approx(float(ref), rel=1e-9)

    def test_oracle_gate_live_where_z_overflows(self, capsys, monkeypatch):
        # Z reads inf on every row; the re-sum is still compared, in the log domain
        argv = ["toy", "--E0", "-1000", "--alpha", "0.5", "--D", "10", "--eR", "1",
                "--grid", "0.1:1:5:lin", "--oracles"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert set(csv_column(out, "Z")) == {"inf"}
        assert float(summary_value(out, "z_spectrum_max_rel_err")) <= 1e-9
        exact = thermwit.cli.log_population
        for shift in (1e-6, math.nan):
            monkeypatch.setattr(
                thermwit.cli, "log_population", lambda s, t, j, d=shift: exact(s, t, j) + d
            )
            code, _, err = run(capsys, *argv)
            assert code == 4 and "re-sum disagrees" in err

    @given(
        alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        n_levels=st.integers(min_value=2, max_value=2000),
        e_r=st.floats(min_value=0.05, max_value=12.0),
        t_lo=st.floats(min_value=0.01, max_value=5.0),
        span=st.floats(min_value=1.5, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_ground_energy_drops_out_of_p_verdict_and_crossing(
        self, alpha, n_levels, e_r, t_lo, span
    ):
        # p0 = e^{-E0/kT}/Z carries no E0: rows' p and verdict and t_trans
        # are the same bits for every E0
        argv = ["toy", "--alpha", repr(alpha), "--D", str(n_levels), "--eR", repr(e_r),
                "--grid", f"{t_lo!r}:{t_lo * span!r}:6:log"]

        def decision(e0):
            code, out, err = run_quiet(*argv, f"--E0={e0!r}")
            assert code == 0, err
            cols = [csv_column(out, c) for c in ("T", "p", "satisfied")]
            return list(zip(*cols)), summary_value(out, "t_trans")

        reference = decision(0.0)
        for e0 in (1e6, -1e6, 1e15, -1e15, 1e308, -1e308):
            assert decision(e0) == reference, e0

    def test_oracle_depth_cap(self, capsys):
        code, _, err = run(
            capsys, "toy", "--alpha", "0.5", "--D", "1000000", "--eR", "1", "--oracles"
        )
        assert code == 2
        assert "D <=" in err

    def test_exact_million_level_value(self, capsys):
        _, out, _ = run(
            capsys,
            "toy", "--alpha", "0.5", "--D", "1000000", "--eR", "1",
            "--grid", "0.5:1:2:lin",
        )
        last_row = [l for l in out.splitlines() if l[0].isdigit()][-1]
        z = float(last_row.split(",")[1])
        assert z == pytest.approx(2.67040681796634, rel=1e-12)


class TestDickeCommand:
    def test_summary_values(self, capsys):
        code, out, _ = run(capsys, "dicke", "--n", "100", "--k", "50")
        assert code == 0
        assert float(summary_value(out, "one_plus_r")) == pytest.approx(
            12.5645129018549, rel=1e-12
        )
        assert float(summary_value(out, "sqrt_n")) == 10.0

    def test_default_half_filling(self, capsys):
        _, out, _ = run(capsys, "dicke", "--n", "6")
        assert float(summary_value(out, "one_plus_r")) == pytest.approx(3.2, rel=1e-12)

    def test_oracle_search_matches(self, capsys):
        code, out, _ = run(capsys, "dicke", "--n", "6", "--oracles")
        assert code == 0
        assert float(summary_value(out, "als_vs_closed")) < 1e-9
        assert float(summary_value(out, "half_cut_one_plus_r")) == pytest.approx(
            3.2, rel=1e-9
        )

    def test_oracle_cap(self, capsys):
        code, _, err = run(capsys, "dicke", "--n", "14", "--oracles")
        assert code == 2
        assert "n <= 12" in err

    def test_overlap_beyond_float_binomials(self, capsys):
        # C(3000, 1500) is far above float range; the overlap goes through logs
        code, out, _ = run(capsys, "dicke", "--n", "3000")
        assert code == 0
        overlap_sq = float(summary_value(out, "max_product_overlap_sq"))
        assert overlap_sq == pytest.approx(float(summary_value(out, "threshold")), rel=1e-12)

    def test_separable_extremes_rejected(self, capsys):
        code, _, err = run(capsys, "dicke", "--n", "4", "--k", "0")
        assert code == 2


class TestGraphCommand:
    @pytest.fixture()
    def edges_file(self, tmp_path):
        path = tmp_path / "ring6.edges"
        write_edge_list(Graph.ring(6), path)
        return str(path)

    def test_basic_run(self, capsys, edges_file):
        code, out, _ = run(capsys, "graph", "--edges", edges_file)
        assert code == 0
        assert float(summary_value(out, "t_trans")) == pytest.approx(
            2.2691853142130225, rel=1e-12
        )
        assert float(summary_value(out, "p_flip_threshold")) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0), rel=1e-12
        )

    def test_oracles_and_matrix_check(self, capsys, edges_file):
        code, out, _ = run(
            capsys, "graph", "--edges", edges_file, "--oracles", "--matrix-check"
        )
        assert code == 0
        assert summary_value(out, "matrix_levels_match") == "true"
        assert float(summary_value(out, "ground_state_residual")) < 1e-9
        assert float(summary_value(out, "flip_identity_max_err")) < 1e-12
        t_trans = float(summary_value(out, "t_trans"))
        t_bisect = float(summary_value(out, "t_trans_bisect"))
        assert t_bisect == pytest.approx(t_trans, rel=1e-8)

    def test_oracles_crossing_beyond_the_initial_bracket(self, capsys, edges_file):
        # the generic solver's crossing ~1.44e5 lies above its initial end 1e4 * spread
        code, out, _ = run(capsys, "graph", "--edges", edges_file, "--eR", "0.99999", "--oracles")
        assert code == 0
        t_trans = float(summary_value(out, "t_trans"))
        assert float(summary_value(out, "t_trans_bisect")) == pytest.approx(t_trans, rel=1e-8)

    @pytest.mark.parametrize("k_b", [1.0, 3.0])
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 0.8, 0.99999])
    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("n", [6, 10, 12, 50, 400])
    def test_crossing_on_the_certified_side(self, capsys, tmp_path, n, b, ratio, k_b):
        path = tmp_path / "ring.edges"
        write_edge_list(Graph.ring(n), path)
        code, out, _ = run(
            capsys, "graph", "--edges", str(path), "--B", repr(b), "--eR", repr(ratio),
            "--kB", repr(k_b), "--grid", "1:2:2:lin",
        )
        assert code == 0
        t_trans = float(summary_value(out, "t_trans"))
        # the rows' condition: log p0 above the log threshold rounded up
        log_threshold = math.nextafter(
            math.log(float(summary_value(out, "threshold"))), math.inf
        )

        def holds(temp):
            return _graph_log_p0(n, b, ThermalPoint(temp, k_b).kt) > log_threshold

        assert holds(t_trans)
        assert not holds(math.nextafter(t_trans, math.inf))

    def test_missing_edges_flag(self, capsys):
        code, _, err = run(capsys, "graph")
        assert code == 2
        assert "--edges" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "graph", "--edges", "/nonexistent/g.edges")
        assert code == 2

    def test_ratio_out_of_range(self, capsys, edges_file):
        code, _, err = run(capsys, "graph", "--edges", edges_file, "--eR", "1.5")
        assert code == 2
        assert "(0, 1)" in err

    def test_matrix_check_cap(self, capsys, tmp_path):
        path = tmp_path / "big.edges"
        write_edge_list(Graph.path(13), path)
        code, _, err = run(capsys, "graph", "--edges", str(path), "--matrix-check")
        assert code == 2

    def test_large_ring_overflowing_z_reads_inf(self, capsys, tmp_path):
        path = tmp_path / "ring400.edges"
        write_edge_list(Graph.ring(400), path)
        code, out, err = run(capsys, "graph", "--edges", str(path))
        assert code == 0 and err == ""
        rows = [l.split(",") for l in out.splitlines() if l[0].isdigit()]
        assert len(rows) == 181
        assert rows[0][1] == "inf"
        t_exact = -2.0 / math.log(math.sqrt(2.0) - 1.0)
        assert abs(float(summary_value(out, "t_trans")) - t_exact) <= 1e-12

    def test_matrix_check_at_low_temperature(self, capsys, tmp_path):
        # log Z reaches ~2000 at kT = 0.005; the trace check must not overflow
        path = tmp_path / "star10.edges"
        write_edge_list(Graph.star(10), path)
        code, out, err = run(
            capsys, "graph", "--edges", str(path), "--matrix-check",
            "--grid", "0.005:1:10:lin",
        )
        assert code == 0 and err == ""
        assert float(summary_value(out, "z_trace_max_rel_err")) <= 1e-9

    def test_mismatch_exit_code(self, capsys, edges_file, monkeypatch):
        # corrupt the flip-probability map; the identity column must catch it
        monkeypatch.setattr(
            "thermwit.cli.flip_probability_from_temperature",
            lambda b, t: 0.123,
        )
        code, _, err = run(capsys, "graph", "--edges", edges_file, "--oracles")
        assert code == 4
        assert "mismatch" in err


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "passed 10/10" in out
        assert out.count("[PASS]") == 10

    def test_mutation_is_detected(self, capsys, monkeypatch):
        # a wrong robustness formula must fail at least one check
        real = thermwit.entanglement.dicke_robustness

        def corrupted(n, k):
            bound = real(n, k)
            object.__setattr__(bound, "one_plus_r", bound.one_plus_r * 1.01)
            return bound

        monkeypatch.setattr(thermwit.entanglement, "dicke_robustness", corrupted)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "[FAIL]" in out

    def test_report_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, "verify", "--out", str(target))
        assert code == 0
        assert target.read_text() == out


class TestConfigPlumbing:
    def test_config_file_round_trip(self, capsys, tmp_path):
        cfg = RunConfig(system="toy", toy_alpha=0.5, toy_d=64, toy_e_r=2.0, seed=9)
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        code, out, _ = run(capsys, "toy", "--config", str(path))
        assert code == 0
        assert "# alpha = 0.5" in out
        assert "# D = 64" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = RunConfig(system="toy", toy_alpha=0.5, toy_d=64, toy_e_r=2.0)
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        code, out, _ = run(capsys, "toy", "--config", str(path), "--D", "128")
        assert code == 0
        assert "# D = 128" in out
        assert "# alpha = 0.5" in out

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "toy", "--config", "/nope.cfg")
        assert code == 2

    def test_bad_grid_spec(self, capsys):
        code, _, _ = run(capsys, "dimer", "--grid", "1:2:banana:lin")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, params, tail",
        [
            (["dimer"], ["B", "J"], []),
            (["toy"], ["E0", "delta", "alpha", "D", "eR"], []),
            (
                ["graph", "--edges", "ring6.edges"],
                ["edges", "n", "n_edges", "B", "eR_per_site"],
                ["matrix_check"],
            ),
        ],
        ids=["dimer", "toy", "graph"],
    )
    def test_shared_sweep_format(self, capsys, tmp_path, monkeypatch, argv, params, tail):
        monkeypatch.chdir(tmp_path)
        write_edge_list(Graph.ring(6), tmp_path / "ring6.edges")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# thermwit-csv v1"
        echo = [l[2:].split(" = ", 1)[0] for l in lines[1:] if l.startswith("# ")]
        assert echo == ["system", *params, "kB", "grid", "seed", "oracles", *tail]
        header = lines[len(echo) + 1].split(",")
        assert header[:6] == ["T", "Z", "p", "threshold", "satisfied", "bound_kind"]
        results = [l[3:].split(" = ", 1)[0] for l in lines if l.startswith("## ")]
        assert results[:3] == ["one_plus_r", "threshold", "bound_kind"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["dimer", "--grid", "3.5:3.8:31:lin"],
            ["dimer", "--B", "1.3", "--J", "0.8", "--kB", "2.5", "--grid", "0.9:1.3:41:lin"],
            ["toy", "--grid", "0.85:0.95:41:lin"],
            ["graph", "--edges", "ring6.edges", "--grid", "2.2:2.35:31:lin"],
            ["graph", "--edges", "ring6.edges", "--eR", "0.99999", "--grid", "1.4e5:1.5e5:21:lin"],
        ],
        ids=["dimer", "dimer-kB", "toy", "graph", "graph-near-limit"],
    )
    def test_satisfied_flag_flips_at_transition(self, capsys, tmp_path, monkeypatch, argv):
        # every model's rows and its crossing make one decision: satisfied
        # exactly on the rows with T <= t_trans, down to t_trans's own float
        monkeypatch.chdir(tmp_path)
        write_edge_list(Graph.ring(6), tmp_path / "ring6.edges")

        def flags(*grid):
            code, out, _ = run(capsys, *argv, *grid)
            assert code == 0
            rows = [l.split(",") for l in out.splitlines() if l[0].isdigit()]
            return out, [(float(r[0]), r[4]) for r in rows]

        out, rows = flags()
        t_trans = float(summary_value(out, "t_trans"))
        assert [flag == "true" for _, flag in rows] == [temp <= t_trans for temp, _ in rows]
        assert rows[0][1] == "true" and rows[-1][1] == "false"
        above = math.nextafter(t_trans, math.inf)
        _, edge = flags("--grid", f"{t_trans!r}:{above!r}:2:lin")
        assert edge == [(t_trans, "true"), (above, "false")]


class TestNumericExitCode:
    def test_no_sign_change_maps_to_three(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NoSignChange("planted failure")

        monkeypatch.setattr("thermwit.cli.ground_crossing", boom)
        code, _, err = run(capsys, "dimer")
        assert code == 3
        assert "numerical failure" in err


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thermwit.cli", "dicke", "--n", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "# thermwit-csv v1" in proc.stdout
