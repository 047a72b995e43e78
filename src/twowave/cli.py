"""Command-line front end.

Commands: exact, series, solve, certify, verify. Configuration can come
from a JSON document (--config); every flag overrides the matching
config field. Profiles are written as `x,phi,psi` CSV (17 significant
digits, lossless for doubles) or as a JSON column document.

Exit codes: 0 success, 2 configuration error, 3 solver divergence,
matching failure or non-convergence, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, closed_form, fixedpoint, model
from .errors import (
    ConfigurationError,
    DivergenceError,
    MatchingFailureError,
    NotConvergedError,
    ProfileParseError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    """One run's worth of settings; mirrors the CLI flags."""

    r: float = 1.0
    s: float = 1.0
    alpha: float = 1.0
    l1: float = -10.0
    l2: float = 10.0
    n: int = 2001
    c2: float = 0.0
    series_order: int = 0
    picard_order: int = 1
    max_iter: int = 50
    tol: float = 1e-12
    quadrature: str = "simpson"
    method: str = "picard"
    beta_sign: str = "+"
    start: str = "random"
    seed: int = 0
    format: str = "csv"
    out: str = "-"

    def params(self) -> model.SystemParams:
        return model.SystemParams(self.r, self.s, self.alpha)

    def domain(self) -> model.Domain:
        return model.Domain(self.l1, self.l2)

    def grid(self) -> model.Grid:
        if self.quadrature == "simpson" and self.n % 2 == 0:
            raise ConfigurationError("simpson quadrature needs an odd node count")
        return model.Grid.uniform(self.domain(), self.n)

    def iter_config(self) -> fixedpoint.IterConfig:
        return fixedpoint.IterConfig(self.max_iter, self.tol, self.quadrature)


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return doc


def build_config(args: argparse.Namespace) -> RunConfig:
    values = _load_config(args.config) if getattr(args, "config", None) else {}
    for f in dataclasses.fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc
    if cfg.format not in ("csv", "json"):
        raise ConfigurationError(f"unknown format {cfg.format!r}")
    if cfg.method not in ("picard", "green"):
        raise ConfigurationError(f"unknown method {cfg.method!r}")
    if cfg.beta_sign not in ("+", "-"):
        raise ConfigurationError("beta-sign must be '+' or '-'")
    if cfg.start not in ("zero", "random"):
        raise ConfigurationError("start must be 'zero' or 'random'")
    if cfg.series_order not in (0, 1):
        raise ConfigurationError("series order must be 0 or 1")
    return cfg


def _render_profile(x, phi, psi, fmt: str) -> str:
    if fmt == "csv":
        lines = ["x,phi,psi"]
        lines.extend(
            f"{xi:.17g},{pi:.17g},{qi:.17g}" for xi, pi, qi in zip(x, phi, psi)
        )
        return "\n".join(lines) + "\n"
    doc = {"x": list(map(float, x)), "phi": list(map(float, phi)),
           "psi": list(map(float, psi))}
    return json.dumps(doc, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, default=_jsonable) + "\n")


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def cmd_exact(cfg: RunConfig) -> int:
    grid = cfg.grid()
    fields = closed_form.sample_closed_form(
        "exact", grid, closed_form.ExactSolutionParams(cfg.c2)
    )
    print(
        "note: exact pair uses the ordering phi = sqrt(2)*psi "
        "(phi amplitude 3/sqrt(2), psi amplitude 3/2); the swapped "
        "ordering does not satisfy the coupled system.",
        file=sys.stderr,
    )
    _write_text(cfg.out, _render_profile(grid.nodes, fields.phi, fields.psi, cfg.format))
    return EXIT_OK


def cmd_series(cfg: RunConfig, kind: str) -> int:
    grid = cfg.grid()
    fields = closed_form.sample_closed_form(
        kind, grid, closed_form.SeriesParams(cfg.alpha, cfg.s, cfg.series_order)
    )
    _write_text(cfg.out, _render_profile(grid.nodes, fields.phi, fields.psi, cfg.format))
    return EXIT_OK


def _sidecar_path(out: str) -> str | None:
    return None if out == "-" else out + ".meta.json"


def cmd_solve(cfg: RunConfig) -> int:
    params = cfg.params()
    grid = cfg.grid()
    icfg = cfg.iter_config()
    if cfg.method == "green":
        rng = np.random.default_rng(cfg.seed)
        if cfg.start == "random":
            start = model.FieldPair(
                rng.uniform(-1.0, 1.0, grid.n), rng.uniform(-1.0, 1.0, grid.n)
            )
        else:
            start = model.FieldPair.zeros(grid.n)
        fields, trace = fixedpoint.green_kernel_iterate(params, grid, start, icfg)
        meta = {
            "method": "green",
            "iterations": len(trace),
            "diff_norms": trace,
            "final_diff": trace[-1],
        }
    else:
        sign = 1.0 if cfg.beta_sign == "+" else -1.0
        state = fixedpoint.solve_picard(
            params, grid, icfg, cfg.picard_order, beta_sign=sign
        )
        fields = state.fields
        meta = {
            "method": "picard",
            "order": state.n,
            "beta": state.constants.beta,
            "gamma": state.constants.gamma,
            "diff_norms": list(state.diff_norms),
            "endpoint_residual": fixedpoint.endpoint_residual(state),
        }
    _write_text(cfg.out, _render_profile(grid.nodes, fields.phi, fields.psi, cfg.format))
    sidecar = _sidecar_path(cfg.out)
    if sidecar is None:
        print(json.dumps(meta), file=sys.stderr)
    else:
        _write_json(sidecar, meta)
    return EXIT_OK


def cmd_certify(cfg: RunConfig, M: float, Mstar: float) -> int:
    cert = analysis.certify(cfg.params(), cfg.domain(), model.Bounds(M, Mstar))
    _write_json(cfg.out, cert.to_dict())
    return EXIT_OK


def read_profile(path: str):
    """Parse an (x, phi, psi) profile file; returns three float arrays."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
            x = np.asarray(doc["x"], dtype=float)
            phi = np.asarray(doc["phi"], dtype=float)
            psi = np.asarray(doc["psi"], dtype=float)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ProfileParseError(f"bad JSON profile: {exc}") from exc
        if not (x.ndim == 1 and x.shape == phi.shape == psi.shape):
            raise ProfileParseError("x, phi, psi columns must have equal length")
        return x, phi, psi
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().replace(" ", "") == "x,phi,psi":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ProfileParseError(f"expected 3 comma-separated values, got {len(parts)}",
                                    line=lineno)
        try:
            rows.append(tuple(float(v) for v in parts))
        except ValueError as exc:
            raise ProfileParseError(f"bad number: {exc}", line=lineno)
    if len(rows) < 3:
        raise ProfileParseError("profile needs at least 3 rows")
    arr = np.asarray(rows, dtype=float)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def cmd_verify(cfg: RunConfig, input_profile: str) -> int:
    x, phi, psi = read_profile(input_profile)
    n = x.size
    h = (x[-1] - x[0]) / (n - 1)
    expected = x[0] + h * np.arange(n)
    if x[-1] <= x[0] or np.max(np.abs(x - expected)) > 1e-9 * max(abs(h), 1.0):
        raise ProfileParseError("x column is not a uniform ascending grid")
    grid = model.Grid.uniform(model.Domain(float(x[0]), float(x[-1])), n)
    fields = model.FieldPair(phi, psi)
    params = cfg.params()
    rule = cfg.quadrature
    if rule == "simpson" and n % 2 == 0:
        rule = "trapezoid"
    r1, r2 = model.residual(params, grid, fields)
    report = {
        "file": input_profile,
        "n": int(n),
        "domain": [float(x[0]), float(x[-1])],
        "quadrature": rule,
        "max_residual_phi": float(np.max(np.abs(r1))),
        "max_residual_psi": float(np.max(np.abs(r2))),
        "boundary_values": [float(phi[0]), float(phi[-1]), float(psi[0]), float(psi[-1])],
        "energy_identity_residual": analysis.energy_identity_residual(
            params, grid, fields, rule
        ),
        "norm_ordering": analysis.norm_ordering(params, grid, fields, rule),
    }
    _write_json(cfg.out, report)
    return EXIT_OK


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config document; flags override its fields")
    p.add_argument("--r", type=float, dest="r")
    p.add_argument("--s", type=float, dest="s")
    p.add_argument("--alpha", type=float)
    p.add_argument("--l1", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--c2", type=float)
    p.add_argument("--order", type=int, dest="series_order",
                   help="series truncation order (0 or 1)")
    p.add_argument("--picard-order", type=int, dest="picard_order")
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--tol", type=float)
    p.add_argument("--quadrature", choices=["trapezoid", "simpson"])
    p.add_argument("--method", choices=["picard", "green"])
    p.add_argument("--beta-sign", choices=["+", "-"], dest="beta_sign")
    p.add_argument("--start", choices=["zero", "random"])
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--out", help="output path ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twowave",
        description="Two-wave soliton boundary-value problem toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="sample the exact alpha=1 solution")
    _add_common_flags(p)

    p = sub.add_parser("series", help="sample a bright/dark asymptotic series")
    p.add_argument("kind", choices=["bright", "dark"])
    _add_common_flags(p)

    p = sub.add_parser("solve", help="solve the BVP by Picard or Green iteration")
    _add_common_flags(p)

    p = sub.add_parser("certify", help="emit an existence/uniqueness certificate")
    p.add_argument("--M", type=float, required=True, help="sup bound for |phi|")
    p.add_argument("--Mstar", type=float, required=True, help="sup bound for |psi|")
    _add_common_flags(p)

    p = sub.add_parser("verify", help="cross-check a profile file")
    p.add_argument("input_profile")
    _add_common_flags(p)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = build_config(args)
    if args.command == "exact":
        return cmd_exact(cfg)
    if args.command == "series":
        return cmd_series(cfg, args.kind)
    if args.command == "solve":
        return cmd_solve(cfg)
    if args.command == "certify":
        return cmd_certify(cfg, args.M, args.Mstar)
    if args.command == "verify":
        return cmd_verify(cfg, args.input_profile)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    try:
        return run(argv)
    except ProfileParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, MatchingFailureError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
