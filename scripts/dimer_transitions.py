#!/usr/bin/env python3
"""Sweep the dimer field and compare the witness crossing with the exact one.

Prints a table of B, T_witness, T_concurrence and their gap. At B = 0 the
two coincide; for 0 < B < 4J the witness is strictly conservative; at
B >= 4J the ground state is a product state and the witness goes silent
even though the concurrence oracle still finds entangled temperatures.
"""
import argparse
import math

import numpy as np

from thermwit import (
    DimerParams,
    build_dimer_hamiltonian,
    concurrence_two_qubit,
    concurrence_vanishing_temperature,
    dimer_spectrum,
    singlet_robustness,
    thermal_density_matrix,
    transition_temperature,
)


def max_concurrence_on_grid(p: DimerParams, temps) -> float:
    """Largest concurrence of the Gibbs states at temps (kB = 1), as one stack."""
    h = build_dimer_hamiltonian(p)
    return float(np.max(concurrence_two_qubit(thermal_density_matrix(h, temps))))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--J", type=float, default=1.0, help="exchange coupling")
    ap.add_argument("--b-max", type=float, default=6.0, help="largest field to scan")
    ap.add_argument("--steps", type=int, default=13, help="number of field values")
    args = ap.parse_args()

    j = args.J
    temps = np.linspace(0.05, 3.0 * j * 4.0 / math.log(3.0), 200)
    print(f"J = {j}, zero-field crossing 4J/ln3 = {4.0 * j / math.log(3.0):.6f}")
    print(f"{'B':>8} {'T_witness':>12} {'T_concurrence':>14} {'gap':>10}  note")
    for b in np.linspace(0.0, args.b_max, args.steps):
        p = DimerParams(float(b), j)
        sp = dimer_spectrum(p)
        if b >= 4.0 * j:
            c_max = max_concurrence_on_grid(p, temps)
            print(
                f"{b:8.3f} {'(silent)':>12} {'-':>14} {'-':>10}  "
                f"product ground state, max concurrence on grid {c_max:.4f}"
            )
            continue
        tr = transition_temperature(sp, singlet_robustness())
        t_conc = concurrence_vanishing_temperature(p)
        gap = t_conc - tr.t_trans
        note = "coincides" if gap < 1e-9 else "conservative"
        print(f"{b:8.3f} {tr.t_trans:12.6f} {t_conc:14.6f} {gap:10.6f}  {note}")


if __name__ == "__main__":
    main()
