"""Command-line front end.

Commands: exact, series, solve, certify, verify. `RunConfig`'s fields are
the only schema: each is one flag and one key of the `--config` JSON
document (flags win), and its type and choices are checked once, in
`RunConfig`. Profiles are `x,phi,psi` CSV (17 significant digits,
lossless for doubles) or a JSON column document.

Exit codes: 0 success, 2 configuration error, 3 solver divergence,
matching failure or non-convergence, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, field

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


def _setting(default, help: str, *, choices: tuple = (), flag: str | None = None):
    """A RunConfig field; its flag's type is type(default)."""
    return field(default=default, metadata={"help": help, "choices": choices, "flag": flag})


@dataclass
class RunConfig:
    """One run's worth of settings: the CLI flags and the config keys."""

    r: float = _setting(1.0, "coefficient of phi''")
    s: float = _setting(1.0, "coefficient of psi''")
    alpha: float = _setting(1.0, "coefficient of psi in the second equation")
    l1: float = _setting(-10.0, "left end of the interval")
    l2: float = _setting(10.0, "right end of the interval")
    n: int = _setting(2001, "number of grid nodes")
    c2: float = _setting(0.0, "translation of the exact pair")
    series_order: int = _setting(0, "series truncation order (0 or 1)", flag="--order")
    picard_order: int = _setting(1, "number of Picard iterates")
    max_iter: int = _setting(50, "sweep limit of the Green iteration (Picard runs exactly "
                             "--picard-order iterates)")
    tol: float = _setting(1e-12, "update norm that ends the Green iteration")
    method: str = _setting("picard", "solver", choices=("picard", "green"))
    beta_sign: str = _setting("+", "sign of the matched slope beta", choices=("+", "-"))
    seed: int = _setting(0, "seed of the Green iteration's start, which is always random: "
                         "phi and psi uniform on [-1, 1]")
    format: str = _setting("csv", "profile format", choices=("csv", "json"))
    out: str = _setting("-", "output path ('-' for stdout)")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, kind, choices = getattr(self, f.name), type(f.default), f.metadata["choices"]
            if kind is float and type(value) is int:
                try:
                    value = float(value)
                except OverflowError:
                    raise ConfigurationError(f"{f.name} is too large for a float") from None
                setattr(self, f.name, value)
            if type(value) is not kind or (choices and value not in choices):
                expected = f"one of {choices}" if choices else kind.__name__
                raise ConfigurationError(f"{f.name} must be {expected}, got {value!r}")

    def params(self) -> model.SystemParams:
        return model.SystemParams(self.r, self.s, self.alpha)

    def domain(self) -> model.Domain:
        return model.Domain(self.l1, self.l2)

    def grid(self) -> model.Grid:
        return model.Grid.uniform(self.domain(), self.n)

    def iter_config(self) -> fixedpoint.IterConfig:
        return fixedpoint.IterConfig(self.max_iter, self.tol)


_SETTINGS = dataclasses.fields(RunConfig)


def build_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ConfigurationError("config document must be a JSON object")
        unknown = values.keys() - {f.name for f in _SETTINGS}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    values.update((f.name, getattr(args, f.name)) for f in _SETTINGS if hasattr(args, f.name))
    return RunConfig(**values)


_CSV_HEADER = "x,phi,psi"
_CSV_ROW = "{:.17g},{:.17g},{:.17g}\n"


def write_profile(path, x, phi, psi, fmt: str = "csv") -> None:
    """Write x, phi, psi arrays as `x,phi,psi` CSV or as a JSON column document."""
    cols = (x.tolist(), phi.tolist(), psi.tolist())
    if fmt == "csv":
        text = _CSV_HEADER + "\n" + "".join(map(_CSV_ROW.format, *cols))
    else:
        text = json.dumps(dict(zip(("x", "phi", "psi"), cols)), indent=2) + "\n"
    _write_text(path, text)


def _write_text(path, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def cmd_sample(cfg: RunConfig, args: argparse.Namespace) -> int:
    grid = cfg.grid()
    if args.kind == "exact":
        params = closed_form.ExactSolutionParams(cfg.c2)
        print(
            "note: exact pair uses the ordering phi = sqrt(2)*psi "
            "(phi amplitude 3/sqrt(2), psi amplitude 3/2); the swapped "
            "ordering does not satisfy the coupled system.",
            file=sys.stderr,
        )
    else:
        params = closed_form.SeriesParams(cfg.alpha, cfg.s, cfg.series_order)
    fields = closed_form.sample_closed_form(args.kind, grid, params)
    write_profile(cfg.out, grid.nodes, fields.phi, fields.psi, cfg.format)
    return EXIT_OK


def cmd_solve(cfg: RunConfig, args: argparse.Namespace) -> int:
    params = cfg.params()
    grid = cfg.grid()
    icfg = cfg.iter_config()
    if cfg.method == "green":
        rng = np.random.default_rng(cfg.seed)
        start = model.FieldPair(rng.uniform(-1.0, 1.0, grid.n), rng.uniform(-1.0, 1.0, grid.n))
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
    write_profile(cfg.out, grid.nodes, fields.phi, fields.psi, cfg.format)
    if cfg.out == "-":
        print(json.dumps(meta), file=sys.stderr)
    else:
        _write_json(cfg.out + ".meta.json", meta)
    return EXIT_OK


def cmd_certify(cfg: RunConfig, args: argparse.Namespace) -> int:
    cert = analysis.certify(cfg.params(), cfg.domain(), model.Bounds(args.M, args.Mstar))
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
    else:
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if lineno == 1 and line.lower().replace(" ", "") == _CSV_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ProfileParseError(f"expected 3 comma-separated values, got {len(parts)}",
                                        line=lineno)
            try:
                rows.append(tuple(float(v) for v in parts))
            except ValueError as exc:
                raise ProfileParseError(f"bad number: {exc}", line=lineno)
        x, phi, psi = np.asarray(rows, dtype=float).reshape(-1, 3).T
    if len(x) < 3:
        raise ProfileParseError("profile needs at least 3 rows")
    if not all(np.isfinite(col).all() for col in (x, phi, psi)):
        raise ProfileParseError("profile values must be finite")
    return x, phi, psi


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    x, phi, psi = read_profile(args.input_profile)
    n = x.size
    h = (x[-1] - x[0]) / (n - 1)
    expected = x[0] + h * np.arange(n)
    if x[-1] <= x[0] or np.max(np.abs(x - expected)) > 1e-9 * max(abs(h), 1.0):
        raise ProfileParseError("x column is not a uniform ascending grid")
    grid = model.Grid.uniform(model.Domain(float(x[0]), float(x[-1])), n)
    fields = model.FieldPair(phi, psi)
    params = cfg.params()
    r1, r2 = model.residual(params, grid, fields)
    report = {
        "file": args.input_profile,
        "n": int(n),
        "domain": [float(x[0]), float(x[-1])],
        "max_residual_phi": float(np.max(np.abs(r1))),
        "max_residual_psi": float(np.max(np.abs(r2))),
        "boundary_values": [float(phi[0]), float(phi[-1]), float(psi[0]), float(psi[-1])],
        "energy_identity_residual": analysis.energy_identity_residual(params, grid, fields),
        "norm_ordering": analysis.norm_ordering(params, grid, fields),
    }
    _write_json(cfg.out, report)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process.

    Parsing leaves it unchanged and every setting defaults to SUPPRESS, so
    no value carries over from one `main` call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="twowave",
        description="Two-wave soliton boundary-value problem toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="sample the exact alpha=1 solution")
    p.set_defaults(func=cmd_sample, kind="exact")

    p = sub.add_parser("series", help="sample a bright/dark asymptotic series")
    p.add_argument("kind", choices=["bright", "dark"])
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("solve", help="solve the BVP by Picard or Green iteration")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="emit an existence/uniqueness certificate")
    p.add_argument("--M", type=float, required=True, help="sup bound for |phi|")
    p.add_argument("--Mstar", type=float, required=True, help="sup bound for |psi|")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="cross-check a profile file")
    p.add_argument("input_profile")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config document; flags override its fields")
        for f in _SETTINGS:
            choices = f.metadata["choices"]
            p.add_argument(f.metadata["flag"] or "--" + f.name.replace("_", "-"),
                           dest=f.name, type=type(f.default), default=argparse.SUPPRESS,
                           metavar="{" + ",".join(choices) + "}" if choices else None,
                           help=f"{f.metadata['help']} (default: {f.default})")
    return parser


# Exception -> exit code; json.JSONDecodeError is a malformed --config document.
_EXIT_CODES = {
    ConfigurationError: EXIT_CONFIG,
    json.JSONDecodeError: EXIT_CONFIG,
    DivergenceError: EXIT_SOLVER,
    MatchingFailureError: EXIT_SOLVER,
    NotConvergedError: EXIT_SOLVER,
    ProfileParseError: EXIT_IO,
    OSError: EXIT_IO,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(build_config(args), args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
