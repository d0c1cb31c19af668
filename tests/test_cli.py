"""End-to-end tests of the command-line interface.

Everything runs in-process through cli.main(argv) so exit codes and stdout
can be asserted directly; one test goes through the installed entry point.
"""
import io
import json
import math
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import thermwit.cli
import thermwit.entanglement
from thermwit.checks import dense_stabilizer_oracle
from thermwit.cli import main
from thermwit.entanglement import (
    BoundKind,
    RobustnessBound,
    bound_from_relative_entropy,
    concurrence_two_qubit,
    dicke_robustness,
    ppt_min_eigenvalue,
    singlet_robustness,
)
from thermwit.errors import NoSignChange
from thermwit.systems import (
    DimerParams,
    Graph,
    ToySpectrumParams,
    build_dimer_hamiltonian,
    build_stabilizer_hamiltonian,
    dimer_spectrum,
    graph_state,
    stabilizer_spectrum,
    write_edge_list,
)
from thermwit.thermal import (
    exp_or_inf,
    log_ground_population_alpha_closed,
    log_population,
    thermal_density_matrix,
)
from thermwit.witness import (
    flip_probability_from_temperature,
    ground_crossing,
    toy_t0,
    toy_t0_rel_tol,
)

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


def _graph_log_p0(n, b, kt):
    """log p0 of the stabilizer ground state at one kT, as graph rows were once computed."""
    return -n * float(np.logaddexp(0.0, -2.0 * b / kt))


@pytest.fixture
def log_p0_calls(monkeypatch):
    """Record each model's log_p0 and the kT arrays _sweep calls it with.

    Yields ``(models, calls)``: the log_p0 of each model _sweep received,
    and every kT array handed to it, in call order.
    """
    models, calls = [], []
    real = thermwit.cli._sweep

    def sweep(cfg, model):
        def counted(kts):
            calls.append(np.array(kts))
            return model.log_p0(kts)

        models.append(model.log_p0)
        return real(cfg, replace(model, log_p0=counted))

    monkeypatch.setattr(thermwit.cli, "_sweep", sweep)
    return models, calls


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
        assert "singlet_level_intervals" not in out

    def test_level_crossing_field_reports_no_transition(self, capsys):
        # at B = 4J the singlet and |00> share the ground level; the trivial
        # product-phase bound is never exceeded, whatever the degeneracy
        code, out, err = run(capsys, "dimer", "--B", "4", "--J", "1")
        assert code == 0 and err == ""
        assert summary_value(out, "phase") == "product-ground"
        assert summary_value(out, "t_trans") == "none"
        assert "singlet_level_intervals" not in out

    def test_nano_dimer_crossing_on_the_certified_side(self, capsys):
        # the field splits the triplet by 5e-10, half of J: the levels must
        # stay apart, and the crossing must sit where the exact singlet
        # population still exceeds 1/2
        code, out, err = run(
            capsys, "dimer", "--J", "1e-9", "--B", "5e-10", "--grid", "1e-10:1e-8:3:log"
        )
        assert code == 0 and err == ""
        t_trans = float(summary_value(out, "t_trans"))
        with mpmath.workdps(50):
            j = mpmath.mpf(1e-9)

            def margin(u):
                # singlet population minus 1/2 at T = u J, the other levels
                # 4J - B, 4J and 4J + B above the singlet's -3J, B = J / 2
                z = 1 + sum(mpmath.exp(-(4 + d) / u) for d in (-0.5, 0, 0.5))
                return 1 / z - mpmath.mpf(1) / 2

            exact = mpmath.findroot(margin, 3.62) * j
            assert margin(t_trans / j) > 0
            assert exact * (1 - mpmath.mpf(1e-12)) < t_trans <= exact

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

    @pytest.mark.parametrize("argv, keys", [
        (("--alpha", "0", "--eR", "1"), ["t_trans", "t0_closed_form"]),
        (("--alpha", "0", "--n", "8"), ["t_trans", "t0_closed_form"]),
        (("--alpha", "0.5", "--eR", "1"), ["t_trans"]),
        (("--alpha", "0.5", "--n", "8"), ["t_trans", "t_alpha_formula"]),
    ])
    def test_summary_keys(self, capsys, argv, keys):
        code, out, _ = run(capsys, "toy", "--D", "64", *argv)
        assert code == 0
        got = [l[3:].split(" = ")[0] for l in out.splitlines() if l.startswith("## ")]
        assert got == ["one_plus_r", "threshold", "bound_kind", *keys]

    def test_site_count_carries_dicke_bound(self, capsys):
        # the exact Dicke 1 + R, not a lower bound rebuilt from its log2
        _, toy, _ = run(capsys, "toy", "--n", "8")
        _, dicke, _ = run(capsys, "dicke", "--n", "8")
        for key, value in [
            ("one_plus_r", "3.657142857142857"),
            ("threshold", "0.2734375"),
            ("bound_kind", "exact"),
        ]:
            assert summary_value(toy, key) == summary_value(dicke, key) == value

    def test_gamma_columns_present_only_for_positive_alpha(self, capsys):
        _, out0, _ = run(capsys, "toy", "--alpha", "0", "--D", "8", "--eR", "1")
        _, out1, _ = run(capsys, "toy", "--alpha", "0.5", "--D", "8", "--eR", "1")
        assert "z_gamma" not in out0
        header = [l for l in out1.splitlines() if l.startswith("T,")][0]
        assert "z_gamma" in header and "gamma_rel_err" in header

    def test_site_count_derives_entanglement(self, capsys):
        code, out, _ = run(capsys, "toy", "--alpha", "1", "--D", "64", "--n", "4")
        assert code == 0
        one_plus_r = float(summary_value(out, "one_plus_r"))
        assert one_plus_r == pytest.approx(8.0 / 3.0, rel=1e-12)
        # at alpha = 1 the continuum crossing is kT = delta * R, R = 5/3
        assert float(summary_value(out, "t_alpha_formula")) == pytest.approx(
            5.0 / 3.0, rel=1e-12
        )

    def test_odd_site_count_rejected(self, capsys):
        code, _, err = run(capsys, "toy", "--n", "5")
        assert code == 2
        assert "even" in err

    @pytest.mark.parametrize("e_r, t_trans", [("2", "1801439850948198.5"), ("2.5", "inf")])
    def test_closed_form_inf_once_one_plus_r_reaches_d(self, capsys, e_r, t_trans):
        # at 1 + R = D = 4 the formula has no crossing, while the rows' threshold,
        # rounded up, still gives the search one far out
        code, out, _ = run(capsys, "toy", "--alpha", "0", "--D", "4", "--eR", e_r)
        assert code == 0
        assert summary_value(out, "t_trans") == t_trans
        assert summary_value(out, "t0_closed_form") == "inf"

    def test_million_level_crossing_on_the_safe_side(self, capsys):
        code, out, _ = run(
            capsys, "toy", "--alpha", "0", "--D", "1000000", "--eR", "4",
            "--grid", "0.1:10:50:log",
        )
        assert code == 0
        t_trans = float(summary_value(out, "t_trans"))
        t0 = toy_t0(10**6, bound_from_relative_entropy(4.0))
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
            return log_ground_population_alpha_closed(p, temp) > log_threshold

        assert holds(t_trans)
        assert not holds(math.nextafter(t_trans, math.inf))

    @pytest.mark.parametrize("n, d", [(4, 4), (4, 100), (8, 1000), (16, 10**6), (64, 10**4)])
    def test_t0_closed_form_near_t_trans_under_n(self, capsys, n, d):
        code, out, _ = run(capsys, "toy", "--alpha", "0", "--D", str(d), "--n", str(n))
        assert code == 0
        t_trans = float(summary_value(out, "t_trans"))
        t0 = float(summary_value(out, "t0_closed_form"))
        assert abs(t0 - t_trans) <= toy_t0_rel_tol(d, dicke_robustness(n, n // 2)) * t_trans

    @given(
        st.sampled_from([2, 3, 4, 10, 1000, 10**6]) | st.integers(2, 10**6),
        st.floats(0.01, 20.0),
        st.floats(1e-3, 1e3),
        st.floats(1e-5, 1e5),
    )
    @example(4, 1.99999, 1.0, 1.0)  # 6.0e-11 apart
    @example(10, 0.4387785509725452, 0.28141327879927447, 10.157593107086836)
    @settings(max_examples=200, deadline=None)
    def test_t0_closed_form_near_t_trans(self, d, e_r, delta, k_b):
        # the formula is no certificate; it meets the rows' crossing within
        # its own rounding, in any temperature unit
        code, out, _ = run_quiet(
            "toy", "--alpha", "0", f"--D={d}", f"--eR={e_r!r}", f"--delta={delta!r}",
            f"--kB={k_b!r}", "--grid", "1:2:2:lin",
        )
        assert code == 0
        bound = bound_from_relative_entropy(e_r)
        t0 = float(summary_value(out, "t0_closed_form"))
        if bound.one_plus_r >= d:
            assert t0 == math.inf
            return
        # 1 + R within a float or two of D: the log ratio rounds to 0
        assume(math.isfinite(t0))
        t_trans = float(summary_value(out, "t_trans"))
        assert abs(t0 - t_trans) <= toy_t0_rel_tol(d, bound) * t_trans

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
        exact = thermwit.cli._ladder_resum
        for shift in (1e-6, math.nan):
            monkeypatch.setattr(
                thermwit.cli, "_ladder_resum",
                lambda x, kts, d=shift: [v + d for v in exact(x, kts)],
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
    # the Gamma column at 1/alpha = 4.5e307, where math.lgamma overflows
    @example(alpha=2.2250738585072014e-308, n_levels=2, e_r=1.0, t_lo=1.0, span=2.0)
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

    @pytest.mark.parametrize("alpha", ["0", "0.5"])
    def test_overflowing_delta_over_kt_row(self, capsys, alpha):
        # delta/kT overflows at T = 1e-10: the row has p0 = 1, not NaN
        code, out, err = run(
            capsys, "toy", "--alpha", alpha, "--D", "100", "--delta", "1e300", "--eR", "1",
            "--grid", "1e-10:1:3:log",
        )
        assert code == 0 and err == ""
        assert csv_column(out, "Z") == ["1.0"] * 3
        assert csv_column(out, "p") == ["1.0"] * 3
        assert csv_column(out, "satisfied") == ["true"] * 3

    def test_overflowing_top_level_rejected(self):
        # delta * (D-1)^alpha = 9.9e308 overflows: the ladder would sum -inf
        # levels as exact zeros and the crossing search would meet NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_quiet(
                "toy", "--alpha", "1", "--D", "100", "--delta", "1e307", "--eR", "1",
                "--grid", "1e306:1e307:3:log",
            )
        assert code == 2 and out == ""
        assert err == (
            "thermwit: configuration error: top level delta * (D-1)^alpha = "
            "1e+307 * 99^1.0 overflows a float; lower delta\n"
        )

    def test_finite_top_level_with_overflowing_bracket(self):
        # 9.9e306 is finite though the search's 1e4 * spread upper end is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_quiet(
                "toy", "--alpha", "1", "--D", "100", "--delta", "1e305", "--eR", "1",
                "--grid", "1e304:1e305:3:log",
            )
        assert code == 0 and err == ""
        assert "nan" not in out

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

    def test_billion_sites(self, capsys):
        code, out, err = run(capsys, "dicke", "--n", "1000000000")
        assert code == 0 and err == ""
        overlap_sq = float(summary_value(out, "max_product_overlap_sq"))
        assert overlap_sq == pytest.approx(float(summary_value(out, "threshold")), rel=1e-12)


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
            return _graph_log_p0(n, b, temp * k_b) > log_threshold

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

    @pytest.mark.xfail(
        strict=True,
        reason="the default eR of 1/2 bit per site ignores the graph: star10 is GHZ "
        "up to local unitaries (1 + R = 2) yet gets 1 + R = 32, and the product "
        "state of one vertex gets a crossing",
    )
    @pytest.mark.parametrize("g, holds", [
        (Graph.star(10), lambda out: float(summary_value(out, "one_plus_r")) <= 2.0),
        (Graph.from_edges(1, []), lambda out: summary_value(out, "t_trans") == "none"),
    ], ids=["star10", "one-vertex"])
    def test_default_bound_fits_the_graph(self, capsys, tmp_path, g, holds):
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        code, out, _ = run(capsys, "graph", "--edges", str(path))
        assert code == 0
        assert holds(out)

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

    def test_matrix_check_at_large_field(self, capsys, tmp_path):
        # the dense values of ring(8)'s 70-fold zero level spread ~3e-9 at
        # B = 1e6: one tolerance on the spectrum's scale keeps them one level
        path = tmp_path / "ring8.edges"
        write_edge_list(Graph.ring(8), path)
        code, out, err = run(
            capsys, "graph", "--edges", str(path), "--B", "1e6", "--matrix-check",
            "--grid", "1e5:1e7:20:log",
        )
        assert code == 0 and err == ""
        assert summary_value(out, "matrix_levels_match") == "true"

    @pytest.mark.parametrize("b", [1e-320, 1e-12, 1e-3, 1.0, 2.5, 1e5])
    @pytest.mark.parametrize(
        "g", [Graph.path(5), Graph.ring(6), Graph.star(7), Graph.complete(4)],
        ids=["path5", "ring6", "star7", "complete4"],
    )
    def test_dense_oracle_matches_closed_forms(self, g, b):
        # --matrix-check and verify's stabilizer check share this oracle; its
        # residual, on the real amplitudes, matches the complex matvec's
        dense, levels_ok, residual = dense_stabilizer_oracle(g, b)
        assert levels_ok and dense.dimension == 2**g.n
        psi = graph_state(g).amplitudes
        h = build_stabilizer_hamiltonian(g, b)
        assert residual <= 1e-9
        assert residual == pytest.approx(
            np.linalg.norm(h @ psi + g.n * b * psi), abs=1e-15 * max(1.0, b)
        )

    @pytest.mark.parametrize(
        "field, shift, ok", [(1.0, 1e-11, True), (1.0, 1e-9, False), (1e-12, 0.5, False)]
    )
    def test_dense_oracle_level_tolerance(self, monkeypatch, field, shift, ok):
        # the levels agree within 1e-9 * |B|: at B = 1 a 6-site top level
        # moved by 6e-11 passes, one moved by 6e-9 fails; at B = 1e-12 levels
        # 50% off fail too
        monkeypatch.setattr(
            "thermwit.checks.stabilizer_spectrum",
            lambda n, b: stabilizer_spectrum(n, b * (1.0 + shift)),
        )
        assert dense_stabilizer_oracle(Graph.ring(6), field)[1] is ok

    @pytest.mark.parametrize(
        "n, grid, z_err",
        [
            # the closed-form log Z is inf - inf = NaN at kT = 1e-320 and 1e-310:
            # a NaN error fails the gate instead of vanishing in a running max
            (6, "1e-320:1:3:log", "nan"),
            # a finite error gates as before
            (6, "1e-7:1e-6:3:log", "1.490e-08"),
        ],
        ids=["nan", "finite"],
    )
    def test_trace_error_fails_the_check(self, tmp_path, n, grid, z_err):
        path = tmp_path / "ring.edges"
        write_edge_list(Graph.ring(n), path)
        code, out, err = run_quiet(
            "graph", "--edges", str(path), "--matrix-check", "--grid", grid
        )
        assert code == 4 and out == ""
        assert err.endswith(f"z_err={z_err}\n")

    def test_mismatch_exit_code(self, capsys, edges_file, monkeypatch):
        # corrupt the flip-probability map; the identity column must catch it
        monkeypatch.setattr(
            "thermwit.cli.flip_probability_from_temperature",
            lambda b, t: np.full(np.shape(t), 0.123),
        )
        code, _, err = run(capsys, "graph", "--edges", edges_file, "--oracles")
        assert code == 4
        assert "mismatch" in err


def _ladder_crossing(p, e_r, k_b):
    """toy's t_trans: its one ground_crossing over the ladder kernel."""
    return ground_crossing(
        lambda kt: log_ground_population_alpha_closed(p, kt),
        bound_from_relative_entropy(e_r), p.delta, p.spread, p.n_levels, k_b,
    ).t_trans


def _graph_crossing(n, b, e_r, k_b):
    """graph's t_trans for n sites: its one ground_crossing over the stabilizer p0."""
    return ground_crossing(
        lambda kt: _graph_log_p0(n, b, kt),
        bound_from_relative_entropy(e_r), 2.0 * b, 2.0 * n * b, 2**n, k_b,
    ).t_trans


def _crossing_order(t_trans):
    """None (never holds) < any finite crossing < inf (holds at every T)."""
    return -math.inf if t_trans is None else t_trans


LADDERS = st.builds(
    lambda alpha, d, delta: ToySpectrumParams(e0=0.0, delta=delta, alpha=alpha, n_levels=d),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(2, 3000),
    st.floats(1e-2, 1e2),
)
BOLTZMANN = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)


class TestCrossingProperties:
    """The safe side and the monotone response of t_trans, on random models."""

    @given(LADDERS, st.floats(0.05, 12.0), BOLTZMANN)
    @settings(max_examples=150, deadline=None)
    def test_ladder_crossing_on_the_certified_side(self, p, e_r, k_b):
        t_trans = _ladder_crossing(p, e_r, k_b)
        if t_trans is None or t_trans == math.inf:
            return
        log_threshold = bound_from_relative_entropy(e_r).log_threshold

        def holds(temp):
            return log_ground_population_alpha_closed(p, temp * k_b) > log_threshold

        assert holds(t_trans)
        assert not holds(math.nextafter(t_trans, math.inf))

    @given(LADDERS, st.floats(0.05, 12.0), st.floats(0.05, 12.0), BOLTZMANN)
    @settings(max_examples=150, deadline=None)
    def test_ladder_crossing_does_not_rise_for_a_smaller_bound(self, p, e_a, e_b, k_b):
        small, large = sorted((e_a, e_b))
        assert _crossing_order(_ladder_crossing(p, small, k_b)) <= _crossing_order(
            _ladder_crossing(p, large, k_b)
        )

    @given(
        st.integers(1, 400),
        st.floats(1e-2, 1e2),
        st.floats(1e-3, 0.999),
        st.floats(1e-3, 0.999),
        BOLTZMANN,
    )
    @settings(max_examples=150, deadline=None)
    def test_graph_crossing_does_not_rise_for_a_smaller_bound(self, n, b, r_a, r_b, k_b):
        small, large = sorted((r_a, r_b))
        assert _crossing_order(_graph_crossing(n, b, small * n, k_b)) <= _crossing_order(
            _graph_crossing(n, b, large * n, k_b)
        )


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
    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nseed = 9\n\n[toy]\nalpha = 0.5\nD = 64\neR = 2.0\n")
        code, out, _ = run(capsys, "toy", "--config", str(path))
        assert code == 0
        assert "# alpha = 0.5" in out
        assert "# D = 64" in out

    def test_flags_override_config(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[toy]\nalpha = 0.5\nD = 64\neR = 2.0\n")
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
        "argv, params, tail, columns",
        [
            (["dimer"], ["B", "J"], [], []),
            (["dimer", "--oracles"], ["B", "J"], [], ["concurrence", "min_pt_eig"]),
            (["toy"], ["E0", "delta", "alpha", "D", "eR"], [], []),
            (["toy", "--oracles"], ["E0", "delta", "alpha", "D", "eR"], [], ["z_spectrum"]),
            (
                ["toy", "--alpha", "0.5"],
                ["E0", "delta", "alpha", "D", "eR"],
                [],
                ["z_gamma", "gamma_rel_err"],
            ),
            (
                ["toy", "--alpha", "0.5", "--oracles"],
                ["E0", "delta", "alpha", "D", "eR"],
                [],
                ["z_gamma", "gamma_rel_err", "z_spectrum"],
            ),
            (
                ["graph", "--edges", "ring6.edges"],
                ["edges", "n", "n_edges", "B", "eR_per_site"],
                ["matrix_check"],
                [],
            ),
            (
                ["graph", "--edges", "ring6.edges", "--oracles"],
                ["edges", "n", "n_edges", "B", "eR_per_site"],
                ["matrix_check"],
                ["p_flip", "p_from_flip"],
            ),
            # no temperature axis: no kB or grid in the echo, and no table
            (["dicke", "--n", "6"], ["n", "k"], [], None),
            (["dicke", "--n", "8", "--k", "3", "--oracles"], ["n", "k"], [], None),
        ],
        ids=[
            "dimer", "dimer-oracles", "toy", "toy-oracles", "toy-alpha", "toy-alpha-oracles",
            "graph", "graph-oracles", "dicke", "dicke-oracles",
        ],
    )
    def test_shared_sweep_format(
        self, capsys, tmp_path, monkeypatch, argv, params, tail, columns
    ):
        monkeypatch.chdir(tmp_path)
        write_edge_list(Graph.ring(6), tmp_path / "ring6.edges")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# thermwit-csv v1"
        echo = [l[2:].split(" = ", 1)[0] for l in lines[1:] if l.startswith("# ")]
        table = [l.split(",") for l in lines if not l.startswith("#")]
        if columns is None:
            assert echo == ["system", *params, "seed", "oracles", *tail]
            assert table == []
        else:
            assert echo == ["system", *params, "kB", "grid", "seed", "oracles", *tail]
            header = lines[len(echo) + 1].split(",")
            assert header == ["T", "Z", "p", "threshold", "satisfied", "bound_kind", *columns]
            assert table[0] == header and len(table) == 182
            assert all(len(row) == len(header) for row in table)
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


class TestGridNativeSweep:
    """_sweep evaluates log p0 over the whole grid in one call."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("dimer", "--B", "1.3"),
            ("dimer", "--B", "5", "--kB", "2.5", "--oracles"),
            ("toy", "--alpha", "0.5", "--D", "1000", "--oracles"),
            ("graph", "--B", "0.7", "--kB", "0.3", "--oracles"),
        ],
    )
    def test_one_call_for_the_rows(self, log_p0_calls, tmp_path, argv):
        models, calls = log_p0_calls
        if argv[0] == "graph":
            write_edge_list(Graph.ring(6), tmp_path / "ring6.edges")
            argv += ("--edges", str(tmp_path / "ring6.edges"))
        code, out, err = run_quiet(*argv, "--grid", "0.05:10:300:lin")
        assert code == 0, err
        assert len(models) == 1
        k_b = float(next(l for l in out.splitlines() if l.startswith("# kB = "))[7:])
        temps = np.array([float(t) for t in csv_column(out, "T")])
        assert temps.size == 300
        np.testing.assert_array_equal(calls[0], temps * k_b)
        # the rest are the crossing search's one-point calls
        assert len(calls) > 1 and all(c.shape == (1,) for c in calls[1:])

    @pytest.mark.parametrize("n, b", [(3, 0.5), (6, 1.0), (13, 2.5), (400, 1.0), (10**4, 3.0)])
    def test_graph_log_p0_matches_per_row_expression(self, log_p0_calls, tmp_path, n, b):
        models, _ = log_p0_calls
        path = tmp_path / "ring.edges"
        write_edge_list(Graph.ring(n), path)
        code, _, err = run_quiet(
            "graph", "--edges", str(path), "--B", repr(b), "--eR", "0.001", "--grid", "1:2:2:lin"
        )
        assert code == 0, err
        kts = np.concatenate([np.geomspace(1e-6, 1e6, 4001), [1e-300, 1e300, math.inf]])
        grid = models[0](kts)
        assert [x.hex() for x in grid.tolist()] == [
            _graph_log_p0(n, b, kt).hex() for kt in kts.tolist()
        ]

    @pytest.mark.parametrize("b", [0.0, 1.3, 5.1])
    def test_dimer_cells_are_one_point_values(self, b):
        # the table is built a column at a time; each cell must still be the
        # repr of what the library gives at that row's kT alone
        code, out, err = run_quiet(
            "dimer", "--J", "1", "--B", repr(b), "--grid", "0.05:10:2000:lin", "--oracles"
        )
        assert code == 0, err
        p = DimerParams(b, 1.0)
        sp, h = dimer_spectrum(p), build_dimer_hamiltonian(p)
        bound = singlet_robustness() if b < 4.0 else RobustnessBound(1.0, BoundKind.EXACT)
        kts = [float(t) for t in csv_column(out, "T")]
        assert len(kts) == 2000
        log_ps = [log_population(sp, kt, 0) for kt in kts]
        rhos = [thermal_density_matrix(h, kt) for kt in kts]
        expected = {
            "Z": [exp_or_inf(-sp.ground_energy / kt - x) for kt, x in zip(kts, log_ps)],
            "p": [math.exp(x) for x in log_ps],
            "threshold": [bound.threshold] * len(kts),
            "concurrence": [concurrence_two_qubit(rho) for rho in rhos],
            "min_pt_eig": [ppt_min_eigenvalue(rho, (2, 2), (0,)) for rho in rhos],
        }
        for name, values in expected.items():
            assert csv_column(out, name) == [repr(float(x)) for x in values], name
        assert csv_column(out, "satisfied") == [
            "true" if x > bound.log_threshold else "false" for x in log_ps
        ]
        assert set(csv_column(out, "bound_kind")) == {bound.kind.value}

    def test_graph_cells_are_one_point_values(self, tmp_path):
        n, b = 400, 1.0
        path = tmp_path / "ring400.edges"
        write_edge_list(Graph.ring(n), path)
        code, out, err = run_quiet(
            "graph", "--edges", str(path), "--grid", "1:10:2000:lin", "--oracles"
        )
        assert code == 0, err
        bound = bound_from_relative_entropy(0.5 * n)
        kts = [float(t) for t in csv_column(out, "T")]
        assert len(kts) == 2000
        log_ps = [_graph_log_p0(n, b, kt) for kt in kts]
        p_flip = [flip_probability_from_temperature(b, kt) for kt in kts]
        expected = {
            "Z": [exp_or_inf(n * b / kt - x) for kt, x in zip(kts, log_ps)],
            "p": [math.exp(x) for x in log_ps],
            "threshold": [bound.threshold] * len(kts),
            "p_flip": p_flip,
            "p_from_flip": [(1.0 - x) ** n for x in p_flip],
        }
        for name, values in expected.items():
            assert csv_column(out, name) == [repr(float(x)) for x in values], name
        assert csv_column(out, "satisfied") == [
            "true" if x > bound.log_threshold else "false" for x in log_ps
        ]
        assert set(csv_column(out, "bound_kind")) == {bound.kind.value}

    def test_underflowing_kt_rejected(self, capsys):
        # T = 1e-300 at kB = 1e-300 gives kT = 0, which no kernel can divide by
        code, out, err = run(capsys, "dimer", "--kB", "1e-300", "--grid", "1e-300:1e-299:3:lin")
        assert code == 2 and out == ""
        assert "kT = T * kB must be positive" in err


class TestCrossingIgnoresTheGrid:
    """t_trans comes from the default bracket, whatever grid the rows use.

    The float margin need not fall monotonically at the crossing: on this
    4-level ladder the condition reads true, false, true, false on four
    consecutive floats of T, so a search started from the two grid rows
    around the flip (0.0246875 and 2.46875 on the first grid) ends one float
    above the one started from the default bracket.
    """

    ARGV = (
        "toy", "--alpha", "1", "--D", "4", "--delta", "2.46875",
        "--eR", "1.7800076667024711", "--kB", "10",
    )

    @pytest.mark.parametrize("grid", ["0.0246875:2.46875:2:lin", "0.1:10:181:lin", "2.3:2.4:9:lin"])
    def test_same_t_trans_on_any_grid(self, grid):
        code, out, err = run_quiet(*self.ARGV, "--grid", grid)
        assert code == 0, err
        assert summary_value(out, "t_trans") == "2.321029842931104"

    def test_condition_flips_twice_at_the_crossing(self):
        p = ToySpectrumParams(e0=0.0, delta=2.46875, alpha=1.0, n_levels=4)
        log_threshold = bound_from_relative_entropy(1.7800076667024711).log_threshold
        temps = [2.321029842931104]
        for _ in range(3):
            temps.append(math.nextafter(temps[-1], math.inf))
        holds = [log_ground_population_alpha_closed(p, t * 10.0) > log_threshold for t in temps]
        assert holds == [True, False, True, False]


class TestNonFiniteInputs:
    """Energies and kT that are not finite floats are bad configurations."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["graph", "--edges", "ring6.edges", "--B", "1e308"], "E0 = -inf"),
            (["graph", "--edges", "ring6.edges", "--B", "inf"], "E0 = -inf"),
            (["dimer", "--J", "5e307", "--B", "0", "--grid", "1:2:2:lin"], "J = 5e+307"),
            (["dimer", "--B", "inf"], "B = inf"),
            (["dimer", "--B", "1e308", "--J", "1e308"], "B = 1e+308"),
            (["dimer", "--J", "inf"], "J = inf"),
            (["toy", "--E0", "nan"], "E0 = nan"),
            (["toy", "--E0=-inf"], "E0 = -inf"),
            (["dimer", "--kB", "1e300", "--grid", "1e10:1e20:3:log"], "kB = 1e+300"),
            (["toy", "--kB", "1e300", "--grid", "1e10:1e20:3:log"], "kB = 1e+300"),
        ],
        ids=[
            "graph-B-1e308", "graph-B-inf", "dimer-J-5e307", "dimer-B-inf", "dimer-B-J-1e308",
            "dimer-J-inf", "toy-E0-nan", "toy-E0-minus-inf", "dimer-kT-inf", "toy-kT-inf",
        ],
    )
    def test_exit_two_without_warning(self, tmp_path, monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)
        write_edge_list(Graph.ring(6), tmp_path / "ring6.edges")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_quiet(*argv)
        assert code == 2 and out == ""
        assert err.startswith("thermwit: configuration error: ") and named in err
        assert "Warning" not in err and "Traceback" not in err
        assert [str(w.message) for w in caught] == []

    def test_largest_finite_graph_energies_still_run(self, capsys, tmp_path, monkeypatch):
        # E0 = -6e307, gap 2e307 and spread 1.2e308 are all finite floats
        monkeypatch.chdir(tmp_path)
        write_edge_list(Graph.ring(6), tmp_path / "ring6.edges")
        code, out, err = run(
            capsys, "graph", "--edges", "ring6.edges", "--B", "1e307", "--grid", "1:2:2:lin"
        )
        assert code == 0 and err == ""
        assert summary_value(out, "t_trans") == "2.2691853142130206e+307"


@pytest.mark.parametrize(
    "argv",
    [
        ["dimer", "--oracles"],
        ["graph", "--edges", "ring6.edges", "--oracles"],
        ["toy", "--alpha", "0.5", "--D", "100", "--n", "4", "--oracles"],
        ["toy", "--alpha", "0.5", "--D", "100", "--eR", "1", "--delta", "1e10"],
    ],
    ids=["dimer", "graph", "toy", "toy-gamma-kt-over-delta-underflows"],
)
def test_subnormal_kt_rows_without_warning(tmp_path, monkeypatch, argv):
    # at kT = 1e-320 every gap over kT overflows to inf, the intended value:
    # the rows read p = 1 and nothing is printed on stderr. With delta = 1e10
    # the Gamma form's kT/delta underflows to 0, whose log it must not take.
    monkeypatch.chdir(tmp_path)
    write_edge_list(Graph.ring(6), tmp_path / "ring6.edges")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_quiet(*argv, "--grid", "1e-320:1:3:log")
    assert code == 0 and err == ""
    assert [str(w.message) for w in caught] == []
    assert csv_column(out, "p")[:2] == ["1.0", "1.0"]
    assert "nan" not in csv_column(out, "p")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["graph", "--edges", "ring6.edges", "--eR", "1e-17"], "p_flip_at_t_trans = none"),
        (["graph", "--edges", "ring6.edges", "--eR", "1e-17", "--oracles"],
         "t_trans_bisect = none"),
        (["toy", "--alpha", "0", "--D", "10", "--eR", "1e-17"], "t0_closed_form = none"),
    ],
    ids=["graph", "graph-oracles", "toy-alpha-0"],
)
def test_bound_rounding_to_one_is_a_silent_witness(tmp_path, monkeypatch, argv, line):
    # 2^(eR) rounds to 1 + R = 1 at eR ~ 1e-16 bits: the threshold is 1,
    # which no population exceeds, so every crossing and closed form is none
    monkeypatch.chdir(tmp_path)
    write_edge_list(Graph.ring(6), tmp_path / "ring6.edges")
    code, out, err = run_quiet(*argv, "--grid", "1:2:2:lin")
    assert code == 0 and err == ""
    assert summary_value(out, "one_plus_r") == "1.0"
    assert summary_value(out, "t_trans") == "none"
    assert f"## {line}\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["toy", "--alpha", "0.5", "--D", "10", "--delta", "1e-320"],
        ["graph", "--edges", "ring6.edges", "--B", "1e-320"],
        ["dimer", "--J", "1e-320"],
        ["dimer", "--J", "1e-10"],
    ],
    ids=["toy-delta-1e-320", "graph-B-1e-320", "dimer-J-1e-320", "dimer-J-1e-10"],
)
def test_tiny_energy_scales_run_without_warning(tmp_path, monkeypatch, argv):
    # 1e-6 * gap underflows to 0 below a gap of ~5e-318: the crossing search
    # still never evaluates at kT = 0, and a dimer at J = 1e-10 keeps its two
    # levels
    monkeypatch.chdir(tmp_path)
    write_edge_list(Graph.ring(6), tmp_path / "ring6.edges")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_quiet(*argv, "--grid", "1:2:2:lin")
    assert code == 0 and err == ""
    assert [str(w.message) for w in caught] == []
    assert 0.0 < float(summary_value(out, "t_trans")) < math.inf


class TestUnitFree:
    """Scaling every energy and temperature by 2^k is exact in floats, and
    so is each run: the same p bits and 2^k times the crossing."""

    @given(
        model=st.sampled_from(["toy-0", "toy-0.5", "toy-1", "graph"]),
        k=st.integers(min_value=-60, max_value=60),
    )
    @example(model="graph", k=-60)
    @example(model="toy-0.5", k=60)
    @settings(max_examples=40, deadline=None)
    def test_scaled_run_scales_the_crossing(self, tmp_path_factory, model, k):
        path = tmp_path_factory.mktemp("unit") / "ring6.edges"
        write_edge_list(Graph.ring(6), path)

        def run_at(scale):
            grid = f"{0.05 * scale!r}:{10.0 * scale!r}:9:lin"
            if model == "graph":
                argv = ["graph", "--edges", str(path), "--B", repr(scale)]
            else:
                argv = ["toy", "--alpha", model[4:], "--D", "50", "--eR", "1.5",
                        "--delta", repr(scale)]
            code, out, err = run_quiet(*argv, "--grid", grid)
            assert code == 0 and err == ""
            return csv_column(out, "p"), float(summary_value(out, "t_trans"))

        p_one, t_one = run_at(1.0)
        p_k, t_k = run_at(math.ldexp(1.0, k))
        assert p_k == p_one
        assert t_k == math.ldexp(t_one, k)


class TestNumericExitCode:
    def test_no_sign_change_maps_to_three(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NoSignChange("planted failure")

        monkeypatch.setattr("thermwit.cli.ground_crossing", boom)
        code, _, err = run(capsys, "dimer")
        assert code == 3
        assert "numerical failure" in err



class TestConfigurationExits:
    """Each rejected input exits 2 with its own message."""

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0:1:3:lin", "grid lo must be positive, got 0.0"),
            ("2:1:3:lin", "grid needs lo < hi, got 2.0:1.0"),
            ("1:2:1:lin", "grid needs at least 2 points, got 1"),
            ("1:2:3:cubic", "grid spacing must be lin or log, got 'cubic'"),
            ("1:2:3", "grid spec must be lo:hi:count:spacing, got '1:2:3'"),
        ],
    )
    def test_bad_grid(self, capsys, grid, message):
        code, out, err = run(capsys, "dimer", "--grid", grid)
        assert code == 2 and out == ""
        assert "error: argument --grid: " in err and err.endswith(f"{message}\n")

    def test_malformed_section_header(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[toy\nalpha = 0.5\n")
        code, out, err = run(capsys, "toy", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith(
            "thermwit: configuration error: bad config: File contains no section headers."
        )

    def test_toy_zero_entanglement(self, capsys):
        code, out, err = run(capsys, "toy", "--eR", "0")
        assert code == 2 and out == ""
        assert err == "thermwit: configuration error: entanglement input must be positive, got 0.0\n"

    def test_toy_without_entanglement_input(self, capsys, tmp_path):
        # an empty eR unsets the default, and no --n stands in for it
        path = tmp_path / "toy.cfg"
        path.write_text("[toy]\neR =\n")
        code, out, err = run(capsys, "toy", "--config", str(path))
        assert code == 2 and out == ""
        assert err == "thermwit: configuration error: toy needs --eR or --n\n"

    def test_graph_zero_coupling(self, capsys, tmp_path):
        path = tmp_path / "ring6.edges"
        write_edge_list(Graph.ring(6), path)
        code, out, err = run(capsys, "graph", "--edges", str(path), "--B", "0")
        assert code == 2 and out == ""
        assert err == "thermwit: configuration error: coupling B must be positive, got 0.0\n"

    def test_graph_total_entanglement_beyond_float_range(self, capsys, tmp_path):
        # 2001 sites at the default 1/2 bit each: 1000.5 bits
        path = tmp_path / "path2001.edges"
        write_edge_list(Graph.path(2001), path)
        code, out, err = run(capsys, "graph", "--edges", str(path))
        assert code == 2 and out == ""
        assert err.startswith(
            "thermwit: configuration error: total eR = 1000.5 bits makes the population "
            "threshold underflow"
        )


class TestMismatchExits:
    """Each oracle gate exits 4 when its oracle is stubbed to disagree."""

    def test_dimer_crossing_above_concurrence_zero(self, capsys, monkeypatch):
        # the zero-field crossing is 4/ln 3 ~ 3.64; a concurrence zero at 1
        monkeypatch.setattr(
            "thermwit.cli.concurrence_vanishing_temperature", lambda p, k_b: 1.0
        )
        code, out, err = run(capsys, "dimer", "--oracles")
        assert code == 4 and out == ""
        assert err.startswith("thermwit: cross-check mismatch: witness crossing ")
        assert err.endswith(" above concurrence zero 1.0\n")

    def test_dicke_search_overlap(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "thermwit.cli.geometric_measure_als", lambda psi, seed: (0.5, 1.0)
        )
        code, out, err = run(capsys, "dicke", "--n", "6", "--oracles")
        assert code == 4 and out == ""
        assert err.startswith("thermwit: cross-check mismatch: search overlap 0.5 vs closed form ")

    def test_dicke_half_cut_bound(self, capsys, monkeypatch):
        # D(6, 3) has 1 + R = 16/5, rounded down
        monkeypatch.setattr(
            "thermwit.cli.bipartite_pure_robustness",
            lambda psi, block: RobustnessBound(3.0, BoundKind.LOWER_BOUND),
        )
        code, out, err = run(capsys, "dicke", "--n", "6", "--oracles")
        assert code == 4 and out == ""
        assert err == (
            "thermwit: cross-check mismatch: half-cut bound 3.0 vs closed 3.1999999999999997\n"
        )

    def test_graph_generic_solver_vs_closed_form(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "ring6.edges"
        write_edge_list(Graph.ring(6), path)
        monkeypatch.setattr("thermwit.cli.stabilizer_t_trans", lambda n, b, bits: 1.0)
        code, out, err = run(capsys, "graph", "--edges", str(path), "--oracles")
        assert code == 4 and out == ""
        assert err.startswith("thermwit: cross-check mismatch: generic-solver crossing ")
        assert err.endswith(" vs closed form 1.0\n")


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thermwit.cli", "dicke", "--n", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "# thermwit-csv v1" in proc.stdout

    def test_repeated_main_calls_match_fresh_processes(self, tmp_path):
        # main() builds its parser once per process; later calls must not see
        # anything an earlier call (a good run, a bad flag) left behind
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[toy]\nalpha = 0.5\nD = 64\neR = 2.0\n")
        runs = [
            ["toy"],
            ["dimer", "--oracles"],
            ["dimer", "--no-such-flag"],
            ["toy", "--config", str(cfg)],
            ["verify"],
        ]
        script = (
            "import io, json, sys\n"
            "from contextlib import redirect_stderr, redirect_stdout\n"
            "from thermwit.cli import main\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with redirect_stdout(out), redirect_stderr(err):\n"
            "        code = main(argv)\n"
            "    results.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(results))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        in_one_process = json.loads(proc.stdout)
        for argv, (code, out, err) in zip(runs, in_one_process):
            alone = subprocess.run(
                [sys.executable, "-m", "thermwit.cli", *argv], capture_output=True, text=True
            )
            assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
        assert [code for code, _, _ in in_one_process] == [0, 0, 2, 0, 0]
