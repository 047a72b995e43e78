#!/usr/bin/env python3
"""Steadiness check: run one workload several times and compare sets of runs.

    python3 perfbench/steady.py --workload green-sweep --runs 10 --save a.json
    python3 perfbench/steady.py --workload green-sweep --runs 10 --against a.json

Each run is ``perfbench/run.py`` with ``--trace 0`` and its own seed (first
seed, first seed + 1, ...), one after another. For every end-to-end metric in
BENCHMARK.json it prints the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, next to the metric's
bound. Every spread but set-up time's should stay within its bound, and
below a third of it to leave room. With ``--against`` it also checks that
no median is worse than the saved set's by more than the bound, and that
the share of failed operations is exactly the same.
Exit status 1 means a spread or a comparison is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(workload: str, runs: int, first_seed: int, seconds: int) -> list[dict]:
    results = []
    for seed in range(first_seed, first_seed + runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=180, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        res["wall_s"] = time.perf_counter() - t0
        results.append(res)
        print(f"  seed {seed} ({res['wall_s']:.1f} s wall): " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    return results


def summarize(results: list[dict], spec: dict) -> tuple[dict, bool]:
    ok = True
    summary = {}
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        gated = m["name"] != "setup_s"
        flag = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "OUT")
        if gated and spread > m["bound"]:
            ok = False
        summary[m["name"]] = med
        print(f"  {m['name']:<12} median {med:.6g} {m['unit']}  quartiles {q1:.6g} .. {q3:.6g}  "
              f"spread {spread:.3f} (bound {m['bound']}{'' if gated else ', not gated'}) {flag}")
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share per run: {sorted(failed)}")
    if len(failed) != 1:
        ok = False
    summary["failed_share"] = failed.pop() if len(failed) == 1 else None
    return summary, ok


def compare(now: dict, before: dict, spec: dict) -> bool:
    ok = now["failed_share"] == before["failed_share"]
    print(f"  failed share {before['failed_share']} -> {now['failed_share']}: {'ok' if ok else 'DIFFERS'}")
    for m in spec["end_to_end"]:
        a, b = before[m["name"]], now[m["name"]]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        good = worse <= m["bound"]
        ok &= good
        print(f"  {m['name']:<12} {a:.6g} -> {b:.6g}  worse by {worse:+.3f} (bound {m['bound']}) "
              f"{'ok' if good else 'OUT'}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save", help="write this set's runs and medians to a JSON file")
    ap.add_argument("--against", help="JSON file saved by an earlier --save")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    print(f"{args.workload}: {args.runs} runs of {args.seconds} s")
    results = run_set(args.workload, args.runs, args.first_seed, args.seconds)
    summary, ok = summarize(results, spec)
    if args.against:
        before = json.loads(Path(args.against).read_text())["summary"]
        ok &= compare(summary, before, spec)
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "summary": summary,
                                               "runs": results}, indent=1))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
