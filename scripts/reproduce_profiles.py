#!/usr/bin/env python3
"""Emit the standard set of solution profiles as CSV files.

Writes, into an output directory:
  exact_c2_{0,+2,-2}.csv   shifted closed-form humps at alpha = 1
  bright_order{0,1}.csv    large-alpha bright expansion (alpha = 4)
  dark_order{0,1}.csv      dark/kink expansion (alpha = 1)
  picard_order3.csv        successively approximated profile on [0, 1]
  green_fixed_point.csv    kernel iteration limit from a random start

Usage: python scripts/reproduce_profiles.py [--outdir profiles]
"""

import argparse
import pathlib

import numpy as np

from twowave import (
    Domain,
    ExactSolutionParams,
    FieldPair,
    Grid,
    IterConfig,
    SeriesParams,
    SystemParams,
    green_kernel_iterate,
    sample_closed_form,
    solve_picard,
)
from twowave.cli import write_profile


def save(path: pathlib.Path, x, phi, psi) -> None:
    write_profile(path, x, phi, psi)
    print(f"wrote {path} ({len(x)} rows)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="profiles")
    ap.add_argument("--n", type=int, default=2001)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    p1 = SystemParams(1.0, 1.0, 1.0)
    wide = Grid.uniform(Domain(-10.0, 10.0), args.n)
    x_wide = wide.nodes  # a grid computes its nodes on every read

    for c2, tag in ((0.0, "0"), (2.0, "+2"), (-2.0, "-2")):
        f = sample_closed_form("exact", wide, ExactSolutionParams(c2))
        save(outdir / f"exact_c2_{tag}.csv", x_wide, f.phi, f.psi)

    for order in (0, 1):
        f = sample_closed_form("bright", wide, SeriesParams(alpha=4.0, s=1.0, order=order))
        save(outdir / f"bright_order{order}.csv", x_wide, f.phi, f.psi)
        f = sample_closed_form("dark", wide, SeriesParams(alpha=1.0, s=1.0, order=order))
        save(outdir / f"dark_order{order}.csv", x_wide, f.phi, f.psi)

    unit = Grid.uniform(Domain(0.0, 1.0), args.n)
    x_unit = unit.nodes
    state = solve_picard(p1, unit, IterConfig(), 3)
    save(outdir / "picard_order3.csv", x_unit, state.fields.phi, state.fields.psi)
    print(f"  matched constants: beta={state.constants.beta:.12g}, "
          f"gamma={state.constants.gamma:.12g}")

    rng = np.random.default_rng(0)
    start = FieldPair(rng.uniform(-1, 1, unit.n), rng.uniform(-1, 1, unit.n))
    final, trace = green_kernel_iterate(p1, unit, start, IterConfig(60, 1e-13))
    save(outdir / "green_fixed_point.csv", x_unit, final.phi, final.psi)
    print(f"  kernel iteration: {len(trace)} sweeps, final update {trace[-1]:.3e}")


if __name__ == "__main__":
    main()
