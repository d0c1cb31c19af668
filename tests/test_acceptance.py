"""End-to-end verification of the package's headline claims.

Each test runs one entry of the cross-check registry (the same code behind
`thermwit verify`) and fails if the two independent routes it compares ever
disagree. A terminal-summary hook prints one pass/fail line per claim.
The second half pins the key closed-form numbers directly, so a bug in the
registry itself cannot silently weaken the suite.
"""
import math
import re

import numpy as np
import pytest

from thermwit.checks import ALL_CHECKS, check_relative_entropy_identity
from thermwit.entanglement import (
    bound_from_relative_entropy,
    concurrence_two_qubit,
    dicke_robustness,
    ppt_min_eigenvalue,
    singlet_robustness,
)
from thermwit.numerics import hermitian_eigendecompose
from thermwit.systems import DimerParams, Spectrum, build_dimer_hamiltonian, dimer_spectrum
from thermwit.thermal import LN2, log_population, thermal_density_matrix
from thermwit.witness import (
    concurrence_vanishing_temperature,
    stabilizer_t_trans,
    noise_threshold,
    toy_t0,
    transition_temperature,
)

CHECKS = dict(ALL_CHECKS)


@pytest.mark.parametrize("name", list(CHECKS), ids=list(CHECKS))
def test_cross_check(name, acceptance_recorder):
    passed, detail = CHECKS[name](0)
    acceptance_recorder(name, passed, detail)
    assert passed, f"{name}: {detail}"


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_soundness_sample_matches_per_draw_loop(seed):
    # the check decides 12 temperatures per field in one kernel call; one
    # call per draw must accept the same points, and so must the dimer's own
    # inequality 4J/kT > log(e^{B/kT} + e^{-B/kT} + 1), decided in closed form
    rng = np.random.default_rng(seed)
    log_threshold = singlet_robustness().log_threshold
    accepted = []
    for _ in range(400):
        b = float(rng.uniform(0.0, 3.99))
        s = dimer_spectrum(DimerParams(b, 1.0))
        for kt in rng.uniform(0.05, 1.2 * 4.0 / math.log(3.0), size=12).tolist():
            held = log_population(s, kt, 0) > log_threshold
            x = b / kt
            assert held == (4.0 / kt > float(np.logaddexp(np.logaddexp(x, -x), 0.0))), (b, kt)
            if held:
                accepted.append((b, kt))
        if len(accepted) >= 200:
            break
    b, kt = np.array(accepted[:200]).T
    rho = thermal_density_matrix(
        np.array([build_dimer_hamiltonian(DimerParams(x, 1.0)) for x in b.tolist()]), kt
    )
    c = concurrence_two_qubit(rho)
    pt = ppt_min_eigenvalue(rho, (2, 2), (0,))
    violations = int(np.count_nonzero(~((c > 0.0) & (pt < 0.0))))
    _, detail = CHECKS["witness-soundness-sample"](seed)
    assert detail == (
        f"satisfied_samples=200 violations={violations} "
        f"min_concurrence={np.min(c):.3e} max_pt_eig={np.max(pt):.3e}"
    )


def test_soundness_sample_fails_when_every_draw_is_accepted(monkeypatch):
    # a rule that accepts every draw lets in points above the concurrence
    # zero, and the oracles must flag them
    monkeypatch.setattr("thermwit.checks.log_population", lambda s, kts, j: np.zeros_like(kts))
    passed, detail = CHECKS["witness-soundness-sample"](0)
    assert not passed
    assert detail.startswith("satisfied_samples=200 violations=")
    assert int(re.search(r"violations=(\d+)", detail).group(1)) > 0


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_relative_entropy_identity_matches_per_draw_loop(seed):
    # the check stacks its draws by dimension; one draw at a time, as it
    # once ran, must report the same worst deviation
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
        temps = rng.uniform(0.8, 6.0, size=20)
        stat = -log_population(sp, temps, 0) / LN2
        w, v = hermitian_eigendecompose(thermal_density_matrix(h, temps))
        weights = np.abs(np.swapaxes(v.conj(), -1, -2) @ basis[:, 0]) ** 2
        mat = -np.sum(weights * np.log2(np.maximum(w, 1e-300)), axis=-1)
        worst = max(worst, float(np.max(np.abs(mat - stat))))
    _, detail = check_relative_entropy_identity(seed)
    assert detail == f"max |D_matrix - (-log2 p0)| = {worst:.3e}"


class TestFrozenNumbers:
    """Direct assertions on the closed-form values the claims rest on."""

    def test_dimer_zero_field_transition(self):
        tr = transition_temperature(
            dimer_spectrum(DimerParams(0.0, 1.0)), singlet_robustness()
        )
        assert tr.t_trans == pytest.approx(3.6409569065073493, rel=1e-6)
        assert tr.t_trans == pytest.approx(4.0 / math.log(3.0), rel=1e-9)

    def test_dimer_field_transition_and_margin(self):
        tr = transition_temperature(
            dimer_spectrum(DimerParams(1.0, 1.0)), singlet_robustness()
        )
        t_conc = concurrence_vanishing_temperature(DimerParams(1.0, 1.0))
        assert tr.t_trans == pytest.approx(3.556193150034734, rel=1e-6)
        assert t_conc - tr.t_trans > 1e-3

    def test_dicke_closed_values(self):
        assert dicke_robustness(2, 1).one_plus_r == 2.0
        assert dicke_robustness(4, 2).one_plus_r == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert dicke_robustness(6, 3).one_plus_r == pytest.approx(3.2, rel=1e-14)
        assert dicke_robustness(8, 4).one_plus_r == pytest.approx(
            256.0 / 70.0, rel=1e-14
        )
        assert dicke_robustness(100, 50).one_plus_r == pytest.approx(
            12.5645129018549, rel=1e-12
        )

    def test_dicke_log_ratio_sequence(self):
        expected = [1.41503750, 1.17413778, 1.11046112, 1.08178924, 1.06522006]
        got = [
            math.log2(dicke_robustness(n, n // 2).one_plus_r)
            / math.log2(math.sqrt(n))
            for n in (4, 16, 64, 256, 1024)
        ]
        assert got == pytest.approx(expected, abs=1e-6)

    def test_ladder_crossings(self):
        t0 = toy_t0(4, bound_from_relative_entropy(1.0), 1.0)
        assert t0 == pytest.approx(1.0 / math.log(3.0), rel=1e-12)

    def test_stabilizer_constants(self):
        assert stabilizer_t_trans(6, 1.0, 3.0) == pytest.approx(
            2.2691853142130225, rel=1e-6
        )
        assert stabilizer_t_trans(6, 1.0, 3.0) == pytest.approx(
            -2.0 / math.log(math.sqrt(2.0) - 1.0), rel=1e-12
        )
        assert noise_threshold(3.0, 6) == pytest.approx(
            0.29289321881345254, abs=1e-12
        )

    def test_entropy_bound_substitution(self):
        # feeding E_R bits through the generic bound reproduces 1 + R = 2^{E_R}
        assert bound_from_relative_entropy(1.0).one_plus_r == 2.0
        assert bound_from_relative_entropy(3.0).threshold == 0.125
