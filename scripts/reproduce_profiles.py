#!/usr/bin/env python3
"""Emit the standard set of solution profiles as CSV files.

Runs nine `twowave` commands in process, each with --n and --out <outdir>/<name>:
  exact_c2_{0,+2,-2}.csv   shifted closed-form humps at alpha = 1
  bright_order{0,1}.csv    large-alpha bright expansion (alpha = 4)
  dark_order{0,1}.csv      dark/kink expansion (alpha = 1)
  picard_order3.csv        matched order-3 Picard profile on [0, 1]
  green_fixed_point.csv    kernel iteration limit from a random start
The two solves also write their <name>.meta.json sidecars.

Usage: python scripts/reproduce_profiles.py [--outdir profiles] [--n 2001]
"""

import argparse
import pathlib
import sys

from twowave.cli import main as twowave

PROFILES = {
    "exact_c2_0.csv": ["exact", "--c2=0"],
    "exact_c2_+2.csv": ["exact", "--c2=2"],
    "exact_c2_-2.csv": ["exact", "--c2=-2"],
    **{f"{kind}_order{order}.csv": ["series", kind, "--alpha", alpha, "--order", str(order)]
       for order in (0, 1) for kind, alpha in (("bright", "4"), ("dark", "1"))},
    "picard_order3.csv": ["solve", "--l1", "0", "--l2", "1", "--picard-order", "3"],
    "green_fixed_point.csv": ["solve", "--method", "green", "--l1", "0", "--l2", "1",
                              "--seed", "0", "--max-iter", "60", "--tol", "1e-13"],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="profiles")
    ap.add_argument("--n", type=int, default=2001)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, command in PROFILES.items():
        argv = [*command, "--n", str(args.n), "--out", str(outdir / name)]
        if (code := twowave(argv)) != 0:
            print("failed: twowave " + " ".join(argv), file=sys.stderr)
            return code
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
