#!/usr/bin/env python3
"""Benchmark of the twowave library and CLI, driven from outside through its
public functions.

    python3 perfbench/run.py --workload picard-match --seed 1 --seconds 33 --trace 0

Run from the repository root; the program is imported from ``src/``. The
workload's cycle of cases is drawn from ``--seed`` and run in whole cycles
until the operations have taken ``--seconds`` in total. Every operation's
output is checked outside the timed region. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. Outputs, cli-session files and span dumps go to
``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable


def _exec_repeatable() -> None:
    """Re-execute this script with address-space layout randomization off and
    a fixed str hash seed, for this process and its children. Heap layout
    then repeats from run to run, and so do the page-fault counts that depend
    on it. Where the personality call is refused, randomization stays on."""
    import ctypes

    no_randomize = 0x0040000
    aslr_off = False
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
        personality.argtypes, personality.restype = [ctypes.c_ulong], ctypes.c_int
        current = personality(0xFFFFFFFF)
        if current != -1 and not current & no_randomize:
            aslr_off = personality(current | no_randomize) != -1
    except (OSError, AttributeError):
        pass
    if aslr_off or os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED="0"))


if __name__ == "__main__":
    _exec_repeatable()

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 7  # set-ups per untraced run, this process's and 6 fresh ones; setup_s is their median
LAYERS = ("quadrature", "model", "closed_form", "fixedpoint", "analysis", "cli")
# Metric names and units come from BENCHMARK.json, the one list of them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

@dataclass(frozen=True)
class Workload:
    entry: str          # module whose import is part of set-up
    cycle: Callable     # (tw, rng) -> list of cases
    warmup: Callable    # (tw, rng) -> case
    run: Callable       # (tw, case) -> result; the timed operation
    checks: Callable    # tw -> callable(case, result) -> counters


def _workloads(outdir: Path) -> dict[str, Workload]:
    cli_dir = str(outdir / "cli-session")
    return {
        "picard-match": Workload("twowave", W.picard_cycle, W.picard_warmup,
                                 W.picard_run, W.PicardChecks),
        "green-sweep": Workload("twowave", W.green_cycle, W.green_warmup,
                                W.green_run, W.GreenChecks),
        "cli-session": Workload("twowave.cli", partial(W.cli_cycle, outdir=cli_dir),
                                partial(W.cli_warmup, outdir=cli_dir),
                                W.cli_run, W.CliChecks),
    }


def import_program(entry: str) -> dict:
    """Import twowave from src/ and return its layer modules."""
    sys.path.insert(0, str(SRC))
    importlib.import_module(entry)
    origin = Path(sys.modules["twowave"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"twowave imported from {origin}, not from {SRC}")
    return {n: sys.modules[f"twowave.{n}"] for n in LAYERS if f"twowave.{n}" in sys.modules}


class Runner:
    """Runs operations and keeps the tallies of one measured phase."""

    def __init__(self, wl: Workload, tw: dict, check):
        self.wl, self.tw, self.check = wl, tw, check
        self.busy = 0.0
        self.attempted = 0
        self.failures: Counter = Counter()
        self.bad: list[str] = []
        self.counters: Counter = Counter()

    def attempt(self, case, tracer=None):
        """One operation; returns its wall time if it succeeded, else None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.run(self.tw, case)
                dt = time.perf_counter() - t0
            else:
                with tracer.op(case.label) as span:
                    result = self.wl.run(self.tw, case)
                dt = span.end - span.start
        except Exception as exc:  # a failed operation: counted, named, not timed as a success
            self.busy += time.perf_counter() - t0
            self.failures[type(exc).__name__] += 1
            return None
        self.busy += dt
        self.verify(case, result, keep_counters=tracer is not None)
        return dt

    def verify(self, case, result, keep_counters=False) -> None:
        try:
            counters = self.check(case, result)
        except W.CheckFailed as exc:
            self.bad.append(f"{case.label}: {exc}")
        else:
            if keep_counters:
                self.counters.update(counters)


def run_plain(runner: Runner, cycle, seconds: float, fresh_setup) -> tuple[dict, int]:
    """End-to-end figures. Between cycles, at evenly spaced points of the
    timed phase, a fresh process repeats the set-up (``fresh_setup``), so
    the set-up samples span the same stretch of time as the operations."""
    times, setups = [], []
    while runner.busy < seconds:
        for case in cycle:
            dt = runner.attempt(case)
            if dt is not None:
                times.append(dt)
        while len(setups) < SETUPS - 1 and runner.busy >= seconds * (len(setups) + 1) / SETUPS:
            setups.append(fresh_setup())
    setups += [fresh_setup() for _ in range(SETUPS - 1 - len(setups))]
    if not times:
        raise SystemExit("error: no operation succeeded")
    return {
        "op_s.p50": statistics.median(times),
        "ops_per_s": len(times) / runner.busy,
        "fresh_setups": setups,
    }, len(times)


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_traced(runner: Runner, tracer, cycle, seconds: float) -> tuple[dict, int]:
    """Per-layer figures. The first cycle runs untraced and counts page
    faults, with the heap in the same state as in an untraced run. Then each
    case runs once untraced and once traced, alternating which goes first,
    so both halves see the same machine conditions."""
    f0 = minflt()
    for case in cycle:
        runner.attempt(case)
    faults = minflt() - f0
    first = runner.attempted
    plain, traced = [], []
    k = 0
    while True:
        for case in cycle:
            k += 1
            for use_tracer in ((False, True) if k % 2 else (True, False)):
                dt = runner.attempt(case, tracer if use_tracer else None)
                if dt is not None:
                    (traced if use_tracer else plain).append(dt)
        if runner.busy >= seconds:
            break
    if not traced:
        raise SystemExit("error: no operation succeeded")
    n_traced = (runner.attempted - first) // 2
    totals, errors = tracing.layer_totals(tracer)
    runner.bad.extend(errors)
    per_op = {m["name"]: totals.get(m["name"], 0.0) / n_traced for m in SPEC["per_layer"]}
    per_op["fixedpoint.forward_solves"] = totals["fixedpoint.forward_solves"]
    per_op["cli.bytes_read"] = totals.get("cli.read_profile.bytes", 0) / n_traced
    per_op["cli.bytes_written"] = runner.counters["cli.bytes_written"] / n_traced
    per_op["mem.minflt"] = faults / len(cycle)
    per_op["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return per_op, len(plain) + len(traced)


def setup_only(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(_workloads(OUT)))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    args = ap.parse_args(argv)

    if not (SRC / "twowave" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'twowave'}", file=sys.stderr)
        return 2
    (OUT / "cli-session").mkdir(parents=True, exist_ok=True)
    wl = _workloads(OUT)[args.workload]

    # Set-up: import the program, build the seeded inputs, one warm-up operation.
    tw = import_program(wl.entry)
    rng = np.random.default_rng(args.seed)
    cycle = wl.cycle(tw, rng)
    warm = wl.warmup(tw, rng)
    warm_result = wl.run(tw, warm)
    setup = time.perf_counter() - _T0
    if args.setup_only:
        print(setup)
        return 0
    runner = Runner(wl, tw, wl.checks(tw))
    runner.verify(warm, warm_result)
    gc.collect()
    if args.trace:
        tracer = tracing.Tracer(tw)
        metrics, samples = run_traced(runner, tracer, cycle, args.seconds)
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        kind = "per_layer"
    else:
        metrics, samples = run_plain(runner, cycle, args.seconds, partial(setup_only, args))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = statistics.median([setup] + metrics["fresh_setups"])
        kind = "end_to_end"
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}

    failed = sum(runner.failures.values())
    for msg in runner.bad:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycle={len(cycle)} attempted={runner.attempted} failed={failed} "
          f"samples={samples} failures={dict(runner.failures)} checks_failed={len(runner.bad)}")
    print(json.dumps({"correct": not runner.bad, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
