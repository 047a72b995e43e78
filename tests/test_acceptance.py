"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 1b bounds the exact profile's finite-difference residual
in the fourth-order compact (Numerov) form and pins the default
second-order residual to its analytic truncation term; criterion 1c checks
the O(h^2) decay of that default second-order residual.
"""

import json
import math
import time

import numpy as np
import pytest

from twowave import (
    Bounds,
    ConvergenceBound,
    Domain,
    ExactSolutionParams,
    FieldPair,
    Grid,
    IterConfig,
    MatchingConstants,
    SystemParams,
    certify,
    energy_identity_residual,
    eval_f1,
    eval_f2,
    exact_alpha1,
    exact_alpha1_derivatives,
    first_iterate,
    green_function,
    green_kernel_iterate,
    initial_state,
    match_constants_order1,
    norm_ordering,
    picard_step,
    residual,
    sample_closed_form,
    solve_picard,
    sup_norms,
)
from twowave.analysis import DirichletWarning
from twowave.cli import main as cli_main, read_profile

P1 = SystemParams(1.0, 1.0, 1.0)
CFG = IterConfig(max_iter=100, tol=1e-300)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestCriterion1ExactResidual:
    def test_analytic_residual(self):
        t0 = time.perf_counter()
        x = np.random.default_rng(0).uniform(-30.0, 30.0, 10_000)
        phi, _, d2phi, psi, _, d2psi = exact_alpha1_derivatives(
            x, ExactSolutionParams(0.0)
        )
        worst = max(
            np.max(np.abs(d2phi - eval_f1(P1, phi, psi))),
            np.max(np.abs(d2psi - eval_f2(P1, phi, psi))),
        )
        elapsed = time.perf_counter() - t0
        report(
            "1a (analytic residual)",
            worst <= 1e-12 and elapsed < 1.0,
            f"max residual {worst:.2e} (<= 1e-12), {elapsed:.3f}s",
        )

    def test_fd_residual_threshold(self):
        # Tolerance 1e-5 at n=2001 on [-10, 10], measured with the
        # fourth-order compact (Numerov) form of the discrete system,
        #   R_k = D2 u_k - (f_{k-1} + 10 f_k + f_{k+1}) / 12
        #       = r_k - (f_{k-1} - 2 f_k + f_{k+1}) / 12,
        # built from the program's own second-order residual
        # r_k = D2 u_k - f_k. Its truncation error is -(h^4/240) u^(6).
        #
        # r itself is truncation error (h^2/12) u'''' + O(h^4). Its maximum
        # sits at x = 0, where psi'' = psi - psi^2 and psi' = 0 give
        # psi''''(0) = psi(0), so phi''''(0) = phi(0) = 3/sqrt(2) and
        # max|r| = (h^2/12) * 3/sqrt(2) = 1.77e-5 at h = 0.01.
        g = Grid.uniform(Domain(-10.0, 10.0), 2001)
        f = sample_closed_form("exact", g, ExactSolutionParams(0.0))
        r1, r2 = residual(P1, g, f)
        second = max(np.abs(r1).max(), np.abs(r2).max())
        rhs = (eval_f1(P1, f.phi, f.psi), eval_f2(P1, f.phi, f.psi))
        compact = max(
            np.abs(r[1:-1] - (q[:-2] - 2.0 * q[1:-1] + q[2:]) / 12.0).max()
            for r, q in zip((r1, r2), rhs)
        )
        leading = g.h**2 / 12 * 3 / math.sqrt(2)
        rel = abs(second - leading) / leading
        report(
            "1b (FD residual <= 1e-5)",
            compact <= 1e-5 and rel <= 1e-3,
            f"max compact FD residual {compact:.3e} at n=2001; second-order "
            f"residual {second:.5e} vs (h^2/12)*3/sqrt(2) = {leading:.5e} "
            f"(rel {rel:.1e} <= 1e-3)",
        )

    def test_fd_residual_second_order_decay(self):
        maxima = []
        for n in (251, 501, 1001, 2001):
            g = Grid.uniform(Domain(-10.0, 10.0), n)
            f = sample_closed_form("exact", g, ExactSolutionParams(0.0))
            r1, r2 = residual(P1, g, f)
            maxima.append(max(np.abs(r1).max(), np.abs(r2).max()))
        ratios = [a / b for a, b in zip(maxima, maxima[1:])]
        ok = all(abs(r - 4.0) < 0.6 for r in ratios)
        report(
            "1c (FD residual O(h^2) decay)",
            ok,
            f"refinement ratios {[f'{r:.2f}' for r in ratios]} (~4 expected)",
        )


class TestCriterion2Decoupling:
    def test_phi_is_sqrt2_psi(self):
        x = np.linspace(-30.0, 30.0, 10_001)
        phi, psi = exact_alpha1(x, ExactSolutionParams(0.0))
        rel = np.max(np.abs(phi - math.sqrt(2.0) * psi)) / np.max(np.abs(phi))
        report("2 (decoupling relation)", rel <= 1e-15, f"relative defect {rel:.2e}")


class TestCriterion3FirstIntegral:
    def test_first_integral_vanishes(self):
        x = np.random.default_rng(1).uniform(-30.0, 30.0, 10_000)
        _, _, _, psi, dpsi, _ = exact_alpha1_derivatives(x, ExactSolutionParams(0.0))
        worst = np.max(np.abs(dpsi**2 - psi**2 + (2.0 / 3.0) * psi**3))
        report("3 (first integral)", worst <= 1e-12, f"max defect {worst:.2e}")


class TestCriterion4EnergyIdentity:
    def test_energy_identity_and_ordering(self):
        g = Grid.uniform(Domain(-20.0, 20.0), 4001)
        f = sample_closed_form("exact", g, ExactSolutionParams(0.0))
        res = energy_identity_residual(P1, g, f)
        with pytest.warns(DirichletWarning):  # the pair is 1.2e-8 and 1.7e-8 at the ends
            verdict = norm_ordering(P1, g, f)
        report(
            "4 (energy identity + trichotomy)",
            res <= 1e-6 and verdict == "equal",
            f"relative residual {res:.2e}, ordering {verdict!r}",
        )


class TestCriterion5MatchingConstants:
    def test_closed_form_vs_independent_root_find(self):
        from scipy.optimize import root

        t0 = time.perf_counter()
        dom = Domain(0.0, 1.0)
        mc = match_constants_order1(P1, dom)

        def matching_equations(v):
            return list(first_iterate(P1, dom, MatchingConstants(v[0], v[1]), dom.l2))

        sol = root(matching_equations, [40.0, 30.0], tol=1e-12)
        phi_end, psi_end = first_iterate(P1, dom, mc, dom.l2)
        rel_beta = abs(mc.beta - sol.x[0]) / abs(sol.x[0])
        rel_gamma = abs(mc.gamma - sol.x[1]) / abs(sol.x[1])
        elapsed = time.perf_counter() - t0
        ok = (
            sol.success
            and rel_beta <= 1e-10
            and rel_gamma <= 1e-10
            and abs(phi_end) <= 1e-12
            and abs(psi_end) <= 1e-12
            and mc.gamma == pytest.approx(28.0, abs=1e-10)
            and mc.beta == pytest.approx(math.sqrt(1568.0), abs=1e-9)
            and elapsed < 1.0
        )
        report(
            "5 (order-1 matching constants)",
            ok,
            f"beta={mc.beta:.6f} (ref sqrt(1568)), gamma={mc.gamma:.1f}, "
            f"root-find rel err ({rel_beta:.1e}, {rel_gamma:.1e}), "
            f"endpoint ({phi_end:.1e}, {psi_end:.1e}), {elapsed:.3f}s",
        )


class TestCriterion6FactorialBound:
    def test_successive_differences_dominated(self):
        # fixed slopes (0.1, 0.1); the bound at n=10 (3.8e-19) sits below the
        # float64 roundoff floor, so the run uses an extended-precision grid
        t0 = time.perf_counter()
        grid = Grid.uniform(Domain(0.0, 1.0), 2001, dtype=np.longdouble)
        state = initial_state(grid, MatchingConstants(0.1, 0.1))
        checks = []
        running = sup_norms(state.fields)
        Mmax, Msmax = running.M, running.Mstar
        # one walk of 11 steps visits iterates 1..11; step n+1 records ||u_{n+1} - u_n||
        for n in range(11):
            state = picard_step(P1, grid, state)
            b = sup_norms(state.fields)
            Mmax, Msmax = max(Mmax, b.M), max(Msmax, b.Mstar)
            cb = ConvergenceBound.from_bounds(P1, Mmax, Msmax)
            bound = cb.K1 ** (n + 1) * 1.0 ** (n + 2) / math.factorial(n + 2)
            measured = state.diff_norms[-1]
            checks.append((n, float(measured), bound, measured <= bound))
        elapsed = time.perf_counter() - t0
        ok = all(c[3] for c in checks) and elapsed < 5.0
        detail = "; ".join(f"n={n}: {m:.1e}<={b:.1e}" for n, m, b, _ in checks[-3:])
        report(
            "6 (factorial convergence bound)",
            ok,
            f"all n=0..10 dominated, tail: {detail}, {elapsed:.2f}s",
        )


class TestCriterion7ContractionUniqueness:
    def test_random_starts_contract_to_zero(self):
        cert = certify(P1, Domain(0.0, 1.0), Bounds(1.0, 1.0))
        assert cert.A == pytest.approx(0.25)
        g = Grid.uniform(Domain(0.0, 1.0), 2001)
        rng = np.random.default_rng(42)
        ok = True
        details = []
        for trial in range(5):
            start = FieldPair(
                rng.uniform(-1.0, 1.0, g.n), rng.uniform(-1.0, 1.0, g.n)
            )
            final, trace = green_kernel_iterate(
                P1, g, start, IterConfig(60, 1e-13)
            )
            sup = max(np.abs(final.phi).max(), np.abs(final.psi).max())
            contracts = all(
                b <= cert.A * a + 1e-8 for a, b in zip(trace, trace[1:])
            )
            ok = ok and sup < 1e-10 and len(trace) <= 60 and contracts
            details.append(f"trial {trial}: sup {sup:.1e} in {len(trace)} iters")
        report("7 (contraction uniqueness)", ok, "; ".join(details))


class TestCriterion8GreenBound:
    def test_row_integral_maximum(self):
        n = 2001
        x = np.linspace(0.0, 1.0, n)
        rows = green_function(0.0, 1.0, x[:, None], x[None, :])
        # kernel rows are piecewise linear with the kink on a node, so the
        # trapezoid row integrals are exact
        got = np.trapezoid(np.abs(rows), dx=x[1] - x[0], axis=1).max()
        report(
            "8 (Green kernel row-integral bound)",
            abs(got - 0.125) <= 1e-8,
            f"max_x int |G| dy = {got:.12f} (target 0.125)",
        )


class TestCriterion9FigureReproduction:
    def test_shifted_exact_profiles(self, tmp_path):
        profiles = {}
        for c2 in (0.0, 2.0, -2.0):
            out = tmp_path / f"exact_{c2}.csv"
            assert cli_main([
                "exact", "--c2", str(c2), "--l1", "-10", "--l2", "10",
                "--n", "2001", "--out", str(out),
            ]) == 0
            profiles[c2] = read_profile(str(out))
        maxes = {c2: float(p[1].max()) for c2, p in profiles.items()}
        same_max = max(maxes.values()) - min(maxes.values()) <= 1e-12
        peaks_ok = True
        shape_ok = True
        ratio_ok = True
        for c2, (x, phi, psi) in profiles.items():
            k = int(np.argmax(phi))
            peaks_ok &= abs(x[k] - (-c2)) < 1e-9
            shape_ok &= bool(
                np.all(phi > 0)
                and np.all(psi > 0)
                and np.all(np.diff(phi[: k + 1]) > 0)
                and np.all(np.diff(phi[k:]) < 0)
            )
            ratio_ok &= bool(np.max(np.abs(phi / psi - math.sqrt(2.0))) < 1e-12)
        report(
            "9a (shifted exact profiles)",
            same_max and peaks_ok and shape_ok and ratio_ok,
            f"max values {sorted(maxes.values())}, peaks at -c2: {peaks_ok}, "
            f"bell-shaped: {shape_ok}, phi/psi=sqrt(2): {ratio_ok}",
        )

    def test_picard_orders_converge(self):
        g = Grid.uniform(Domain(0.0, 1.0), 1001)
        details = []
        ok = True
        for alpha in (1.0, 0.1):
            p = SystemParams(1.0, 1.0, alpha)
            sols = [solve_picard(p, g, CFG, order) for order in (1, 2, 3)]
            gap12 = float(np.max(np.abs(sols[1].fields.phi - sols[0].fields.phi)))
            gap23 = float(np.max(np.abs(sols[2].fields.phi - sols[1].fields.phi)))
            ok = ok and gap23 < gap12
            details.append(f"alpha={alpha}: gaps {gap12:.3f} -> {gap23:.3f}")
        report("9b (Picard order-to-order gaps shrink)", ok, "; ".join(details))


class TestCriterion10Certificates:
    def test_certificate_examples(self):
        c1 = certify(P1, Domain(0.0, 1.0), Bounds(1.0, 1.0))
        c3 = certify(P1, Domain(0.0, 3.0), Bounds(1.0, 1.0))
        ok = (
            c1.exists_ok
            and c1.unique_ok
            and c1.A == pytest.approx(0.25, abs=1e-15)
            and not c3.exists_ok
            and not c3.unique_ok
            and c3.A == pytest.approx(2.25, abs=1e-14)
        )
        report(
            "10 (certificate examples)",
            ok,
            f"[0,1]: ({c1.exists_ok}, {c1.unique_ok}, {c1.A}); "
            f"[0,3]: ({c3.exists_ok}, {c3.unique_ok}, {c3.A})",
        )
