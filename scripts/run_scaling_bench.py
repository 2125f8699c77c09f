#!/usr/bin/env python3
"""Kernel-size scaling experiment: prints the bench CSV plus ratio summary.

The interesting numbers are within-method ratios across k: the box layer's
forward and backward should be flat while dense convolution grows roughly
with k^2.
"""

import argparse

from satconv.bench import run_bench, to_csv, wall_ratio


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", default="7,13,21")
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--channels", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    ks = [int(v) for v in args.k.split(",")]
    results = run_bench(ks, args.size, args.size, channels=args.channels,
                        repeats=args.repeats)
    print(to_csv(results), end="")
    k_lo, k_hi = min(ks), max(ks)
    print(f"# box_sat      t({k_hi})/t({k_lo}) = "
          f"{wall_ratio(results, 'box_sat', k_hi, k_lo):.3f}")
    print(f"# box_bwd      t({k_hi})/t({k_lo}) = "
          f"{wall_ratio(results, 'box_bwd', k_hi, k_lo):.3f}")
    print(f"# naive_dense  t({k_hi})/t({k_lo}) = "
          f"{wall_ratio(results, 'naive_dense', k_hi, k_lo):.3f}")


if __name__ == "__main__":
    main()
