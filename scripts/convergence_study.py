#!/usr/bin/env python3
"""Print two convergence tables.

Table 1: finite-difference residual of the closed-form solution under grid
refinement, showing the expected second-order decay (the h^2/12 truncation
constant is why a fixed coarse grid cannot certify the profile much below
2e-5).

Table 2: sup-norm distance between successive approximation iterates on
[0, 1] with fixed start slopes, the larger of the two fields' updates,
against the larger factorial envelope max(K1, K2)^(n+1) L^(n+2) / (n+2)!.
Uses an extended-precision grid so the tail of the table is not drowned by
float64 roundoff.
"""

import numpy as np

from twowave import (
    ConvergenceBound,
    Domain,
    ExactSolutionParams,
    Grid,
    MatchingConstants,
    SystemParams,
    convergence_bound,
    initial_state,
    picard_step,
    residual,
    sample_closed_form,
    sup_norms,
)

P1 = SystemParams(1.0, 1.0, 1.0)


def fd_refinement_table() -> None:
    print("finite-difference residual of the exact profile on [-10, 10]")
    print(f"{'n':>6} {'h':>10} {'max residual':>14} {'ratio':>7}")
    prev = None
    for n in (251, 501, 1001, 2001, 4001, 8001):
        g = Grid.uniform(Domain(-10.0, 10.0), n)
        f = sample_closed_form("exact", g, ExactSolutionParams(0.0))
        r1, r2 = residual(P1, g, f)
        worst = max(np.abs(r1).max(), np.abs(r2).max())
        ratio = f"{prev / worst:7.3f}" if prev else "      -"
        print(f"{n:>6} {g.h:>10.5f} {worst:>14.5e} {ratio}")
        prev = worst
    print()


def envelope_rows(params: SystemParams = P1):
    """(n, measured, bound) for steps 0-10 of the walk from slopes 0.1 on [0, 1].

    measured is the larger of the step's updates ||dphi|| and ||dpsi||, and
    bound the larger of the two factorial envelopes, in the box of the sup
    norms the iterates have reached so far.
    """
    grid = Grid.uniform(Domain(0.0, 1.0), 2001, dtype=np.longdouble)
    state = initial_state(grid, MatchingConstants(0.1, 0.1))
    Mmax = Msmax = 0.1
    for n in range(11):
        state = picard_step(params, grid, state)
        b = sup_norms(state.fields)
        Mmax, Msmax = max(Mmax, b.M), max(Msmax, b.Mstar)
        cb = ConvergenceBound.from_bounds(params, Mmax, Msmax)
        yield n, float(state.diff_norms[-1]), max(convergence_bound(cb, 1.0, n))


def factorial_bound_table() -> None:
    print("successive-approximation differences vs factorial envelope, [0, 1]")
    print(f"{'n':>3} {'measured':>12} {'bound':>12} {'ok':>4}")
    for n, measured, bound in envelope_rows():
        print(f"{n:>3} {measured:>12.4e} {bound:>12.4e} {str(measured <= bound):>4}")
    print()


if __name__ == "__main__":
    fd_refinement_table()
    factorial_bound_table()
