"""Smoke test: every script under scripts/ runs to completion on small inputs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
SMALL_ARGS = {
    "dicke_scaling.py": ["--n", "4", "16", "3000", "--als-max", "4"],
    "dimer_transitions.py": ["--steps", "4"],
    "ladder_gamma_error.py": ["--levels", "1000", "--points", "3"],
}


def test_every_script_has_small_arguments():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_script_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *SMALL_ARGS[name]],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
