#!/usr/bin/env python3
"""Accuracy of the Gamma-integral partition form on deep power-law ladders.

For each temperature the exact discrete sum over D levels is compared with
the continuum Gamma-function expression, both linearly (on Z) and in the
log domain (on log Z, i.e. free energy). The log-domain error drops below
6% already at kT = 5*delta for alpha = 1 and keeps shrinking.
"""
import argparse

import numpy as np

from thermwit import (
    ToySpectrumParams,
    exp_or_inf,
    log_ground_population_alpha_closed,
    log_partition_function_alpha_gamma,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, nargs="*", default=[0.5, 1.0])
    ap.add_argument("--levels", type=int, default=10**6, help="ladder depth D")
    ap.add_argument("--kt-min", type=float, default=1.0)
    ap.add_argument("--kt-max", type=float, default=100.0)
    ap.add_argument("--points", type=int, default=9)
    args = ap.parse_args()

    kts = np.geomspace(args.kt_min, args.kt_max, args.points)
    for alpha in args.alpha:
        p = ToySpectrumParams(e0=0.0, delta=1.0, alpha=alpha, n_levels=args.levels)
        print(f"alpha = {alpha}, D = {args.levels}")
        print(f"{'kT/delta':>10} {'Z exact':>16} {'Z gamma':>16} "
              f"{'lin err':>10} {'log err':>10}")
        for kt in kts.tolist():
            # at e0 = 0, log Z = -log p0
            z = exp_or_inf(-log_ground_population_alpha_closed(p, kt))
            zg = exp_or_inf(log_partition_function_alpha_gamma(p, kt))
            lin = abs(zg - z) / z
            log_err = abs(np.log(zg) - np.log(z)) / abs(np.log(z))
            print(f"{kt:10.3f} {z:16.6f} {zg:16.6f} {lin:10.4%} {log_err:10.4%}")
        print()


if __name__ == "__main__":
    main()
