"""Command-line front end.

Commands: exact, series, solve, certify, verify. `RunConfig`'s fields are
the only schema: each is one flag and one key of the `--config` JSON
document (flags win) on the commands that read it, and nowhere else. Its
type and choices are checked once, in `RunConfig`. Profiles are `x,phi,psi`
CSV (17 significant digits, lossless for doubles) or a one-line JSON column
document.

Exit codes: 0 success, 2 configuration error, 3 solver divergence,
matching failure or non-convergence, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import stat
import sys
import warnings
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


def _setting(default, help: str, commands: str, *, choices: tuple = (), flag: str | None = None):
    """A RunConfig field that `commands` read; its flag's type is type(default)."""
    return field(default=default, metadata={"help": help, "commands": commands.split(),
                                            "choices": choices, "flag": flag})


@dataclass
class RunConfig:
    """One run's settings; each field names the commands that take its flag and key."""

    r: float = _setting(1.0, "coefficient of phi''", "solve certify verify")
    s: float = _setting(1.0, "coefficient of psi''", "series solve certify verify")
    alpha: float = _setting(1.0, "coefficient of psi in the second equation",
                            "series solve certify verify")
    l1: float = _setting(-10.0, "left end of the interval", "exact series solve certify")
    l2: float = _setting(10.0, "right end of the interval", "exact series solve certify")
    n: int = _setting(2001, "number of grid nodes", "exact series solve")
    c2: float = _setting(0.0, "translation of the exact pair", "exact")
    series_order: int = _setting(0, "series truncation order (0 or 1)", "series", flag="--order")
    picard_order: int = _setting(1, "number of Picard iterates (Picard only)", "solve")
    max_iter: int = _setting(fixedpoint.IterConfig.max_iter, "sweep limit of the Green iteration "
                             "(Picard runs exactly --picard-order iterates)", "solve")
    tol: float = _setting(fixedpoint.IterConfig.tol, "update norm that ends the Green iteration",
                          "solve")
    method: str = _setting("picard", "solver", "solve", choices=("picard", "green"))
    beta_sign: str = _setting("+", "sign of the matched slope beta (Picard only)", "solve",
                              choices=("+", "-"))
    seed: int = _setting(0, "seed of the Green iteration's start, which is always random: "
                         "phi and psi uniform on [-1, 1]", "solve")
    format: str = _setting("csv", "profile format", "exact series solve", choices=("csv", "json"))
    out: str = _setting("-", "output path ('-' for stdout)", "exact series solve certify verify")

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


_SETTINGS = dataclasses.fields(RunConfig)


def build_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        values = json.loads(_read_text(args.config, "config document", ConfigurationError))
        if not isinstance(values, dict):
            raise ConfigurationError("config document must be a JSON object")
        unknown = values.keys() - {f.name for f in _SETTINGS
                                   if args.command in f.metadata["commands"]}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    values.update((f.name, getattr(args, f.name)) for f in _SETTINGS if hasattr(args, f.name))
    return RunConfig(**values)


_CSV_HEADER = "x,phi,psi"
_CSV_ROW = "%.17g,%.17g,%.17g\n"


def write_profile(path, x, phi, psi, fmt: str = "csv") -> None:
    """Write x, phi, psi arrays as `x,phi,psi` CSV or as a one-line JSON column document.

    Both render in C: all CSV rows in one `%` call, and the JSON through the
    C encoder, which `json.dumps` uses only without `indent`.
    """
    if fmt == "csv":
        values = np.column_stack((x, phi, psi)).ravel().tolist()
        text = _CSV_HEADER + "\n" + (_CSV_ROW * len(x)) % tuple(values)
    else:
        text = json.dumps({"x": x.tolist(), "phi": phi.tolist(), "psi": psi.tolist()}) + "\n"
    _write_text(path, text)


def _read_text(path, what: str, error: type) -> str:
    """The UTF-8 text of a file; other bytes raise ``error`` naming it as ``what``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{what} is not UTF-8 text: {exc}") from None


def _open_untruncated(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, or to standard output for '-'.

    An existing file is written over and then cut to the new length, not
    truncated on open: truncating first is several times slower where the
    file system discards freed blocks at once (ext4 mounted with discard).
    Only regular files are cut; /dev/stdout, pipes and devices are not.
    """
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n", opener=_open_untruncated) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _write_json(path: str, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def cmd_sample(cfg: RunConfig, args: argparse.Namespace) -> int:
    grid = cfg.grid()
    if args.kind == "exact":
        params = closed_form.ExactSolutionParams(cfg.c2)
    else:
        params = closed_form.SeriesParams(cfg.alpha, cfg.s, cfg.series_order)
    fields = closed_form.sample_closed_form(args.kind, grid, params)
    write_profile(cfg.out, grid.nodes, fields.phi, fields.psi, cfg.format)
    return EXIT_OK


def cmd_solve(cfg: RunConfig, args: argparse.Namespace) -> int:
    params = cfg.params()
    grid = cfg.grid()
    if cfg.method == "green":
        icfg = fixedpoint.IterConfig(cfg.max_iter, cfg.tol)
        if cfg.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {cfg.seed}")
        start = model.FieldPair(*np.random.default_rng(cfg.seed).uniform(-1.0, 1.0, (2, grid.n)))
        fields, trace = fixedpoint.green_kernel_iterate(params, grid, start, icfg)
        meta = {
            "method": "green",
            "iterations": len(trace),
            "diff_norms": trace,
            "final_diff": trace[-1],
        }
    else:
        state = fixedpoint.solve_picard(params, grid, fixedpoint.IterConfig(), cfg.picard_order,
                                        beta_sign=1.0 if cfg.beta_sign == "+" else -1.0)
        fields = state.fields
        try:  # one Green sweep from the iterate: its defect ||u - T(u)||, null on overflow
            green_defect = fixedpoint.green_kernel_iterate(
                params, grid, fields, fixedpoint.IterConfig(1, math.inf))[1][0]
        except DivergenceError:
            green_defect = None
        meta = {
            "method": "picard",
            "order": state.n,
            "beta": state.constants.beta,
            "gamma": state.constants.gamma,
            "diff_norms": list(state.diff_norms),
            "endpoint_residual": fixedpoint.endpoint_residual(state),
            "matching_tolerance": fixedpoint._tolerance(grid, (state.constants.beta,
                                                               state.constants.gamma)),
            "green_defect": green_defect,
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
    """Parse an (x, phi, psi) profile file into three float arrays; `cmd_verify` checks them."""
    text = _read_text(path, "profile", ProfileParseError)
    if not text.lstrip().startswith("{"):
        return _parse_csv(text)
    try:
        doc = json.loads(text)
        return tuple(np.asarray(doc[key], dtype=float) for key in ("x", "phi", "psi"))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ProfileParseError(f"bad JSON profile: {exc}") from exc


def _parse_csv(text: str) -> np.ndarray:
    """The x, phi, psi columns of CSV text: blank lines skipped, a header only on line 1.

    Every row is converted by one `float` map over the whole file. Only if a
    row does not hold 3 fields or a field is not a number are the lines
    walked, to name the first bad one.
    """
    lines = list(map(str.strip, text.splitlines()))
    first = 1 if lines and lines[0].lower().replace(" ", "") == _CSV_HEADER else 0
    rows = list(filter(None, lines[first:]))
    if set(map(str.count, rows, itertools.repeat(","))) <= {2}:
        try:
            values = list(map(float, ",".join(rows).split(","))) if rows else []
        except ValueError:
            pass
        else:
            return np.array(values, dtype=float).reshape(-1, 3).T
    for lineno, line in enumerate(lines[first:], start=first + 1):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ProfileParseError(f"expected 3 comma-separated values, got {len(parts)}",
                                    line=lineno)
        try:
            list(map(float, parts))
        except ValueError as exc:
            raise ProfileParseError(f"bad number: {exc}", line=lineno) from None
    raise AssertionError("the CSV rows failed to convert, but no line is bad")


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    x, phi, psi = read_profile(args.input_profile)
    try:
        # x.flat reads the ends of an x of any shape; an empty x has none and
        # gets a placeholder domain, so that Grid rejects its node count.
        ends = x.flat[[0, -1]] if x.size else (0.0, 1.0)
        grid = model.Grid.uniform(model.Domain(*map(float, ends)), x.size)
        fields = model.FieldPair(phi, psi)
        for u in (x, fields.phi):
            grid.check_samples(u)
    except ConfigurationError as exc:
        raise ProfileParseError(f"profile: {exc}") from None
    if not np.max(np.abs(x - grid.nodes)) <= 1e-9 * max(abs(grid.h), 1.0):
        raise ProfileParseError("x column is not a uniform ascending grid")
    params = cfg.params()
    with warnings.catch_warnings(), np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # The last two keys report what the diagnostics would warn about on
        # stderr; a value that left the double range is refused below.
        warnings.simplefilter("ignore", analysis.DirichletWarning)
        warnings.simplefilter("ignore", analysis.CoefficientWarning)
        r1, r2 = model.residual(params, grid, fields)
        report = {
            "file": args.input_profile,
            "n": grid.n,
            "domain": [grid.domain.l1, grid.domain.l2],
            "max_residual_phi": model._sup_norm(r1),
            "max_residual_psi": model._sup_norm(r2),
            "boundary_values": [float(phi[0]), float(phi[-1]), float(psi[0]), float(psi[-1])],
            "energy_identity_residual": analysis.energy_identity_residual(params, grid, fields),
            "norm_ordering": analysis.norm_ordering(params, grid, fields),
            "dirichlet_endpoints": all(map(analysis.dirichlet_endpoints, (phi, psi))),
            "unit_coefficients": params.r == params.s == 1.0,
        }
    for key in ("max_residual_phi", "max_residual_psi", "energy_identity_residual"):
        if not np.isfinite(report[key]):
            raise ProfileParseError(f"profile {key} is not finite")
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

    p = sub.add_parser("exact", help="sample the exact alpha=1 solution",
                       description="Sample the exact alpha=1 pair. It uses the ordering "
                       "phi = sqrt(2)*psi (phi amplitude 3/sqrt(2), psi amplitude 3/2); "
                       "the swapped ordering does not satisfy the coupled system.")
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

    for command, p in sub.choices.items():
        p.add_argument("--config", help="JSON config document; flags override its fields")
        for f in (f for f in _SETTINGS if command in f.metadata["commands"]):
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
    except SystemExit as exc:  # argparse has printed its usage error (2) or --help (0)
        return exc.code
    try:
        return args.func(build_config(args), args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
