#!/usr/bin/env python3
"""Scaling of the half-filled symmetric-state robustness bound with n.

Tabulates 1 + R, its bits E_R = log2(1+R), the sqrt(n) reference, the raw
ratio (1+R)/sqrt(n) (which tends to sqrt(pi/2), not 1), and the log-domain
ratio E_R / log2(sqrt(n)) (which does fall toward 1). Optionally spot-checks
small n against the alternating product-state search.
"""
import argparse
import math

from thermwit import dicke_overlap_closed, dicke_robustness, dicke_state, geometric_measure_als


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--n",
        type=int,
        nargs="*",
        default=[4, 16, 64, 256, 1024],
        help="even site counts to tabulate",
    )
    ap.add_argument(
        "--als-max", type=int, default=8,
        help="run the numerical search for even n up to this size (0 to skip)",
    )
    args = ap.parse_args()

    print(f"{'n':>6} {'1+R':>14} {'E_R (bits)':>12} {'sqrt(n)':>10} "
          f"{'ratio':>10} {'log ratio':>10}")
    for n in args.n:
        if n % 2:
            print(f"{n:>6}  (skipped: odd)")
            continue
        one_plus_r = dicke_robustness(n, n // 2).one_plus_r
        bits = math.log2(one_plus_r)
        root = math.sqrt(n)
        print(
            f"{n:6d} {one_plus_r:14.8f} {bits:12.8f} {root:10.4f} "
            f"{one_plus_r / root:10.6f} {bits / math.log2(root):10.6f}"
        )

    if args.als_max >= 2:
        print("\nsearch cross-check (32 restarts each):")
        for n in range(2, args.als_max + 1, 2):
            closed = dicke_overlap_closed(n, n // 2)
            found, _ = geometric_measure_als(dicke_state(n, n // 2), seed=0)
            print(
                f"  n={n}: closed overlap {closed:.12f}, "
                f"search {found:.12f}, diff {abs(found - closed):.2e}"
            )


if __name__ == "__main__":
    main()
