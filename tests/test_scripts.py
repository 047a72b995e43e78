"""The scripts under scripts/ run as their own processes and print what they promise."""

import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from twowave import SystemParams

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    path = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_reproduce_profiles_writes_the_profile_set(tmp_path):
    done = run_script("reproduce_profiles.py", "--outdir", tmp_path)
    assert done.returncode == 0, done.stderr
    names = {"exact_c2_0.csv", "exact_c2_+2.csv", "exact_c2_-2.csv", "bright_order0.csv",
             "bright_order1.csv", "dark_order0.csv", "dark_order1.csv", "picard_order3.csv",
             "green_fixed_point.csv", "picard_order3.csv.meta.json",
             "green_fixed_point.csv.meta.json"}
    assert {p.name for p in tmp_path.iterdir()} == names
    picard = json.loads((tmp_path / "picard_order3.csv.meta.json").read_text())
    assert picard["order"] == 3
    assert picard["endpoint_residual"] <= picard["matching_tolerance"]
    green = json.loads((tmp_path / "green_fixed_point.csv.meta.json").read_text())
    assert green["final_diff"] < 1e-13


def test_reproduce_profiles_keeps_the_node_count(tmp_path):
    done = run_script("reproduce_profiles.py", "--outdir", tmp_path, "--n", 200)
    assert done.returncode == 0, done.stderr
    rows = {p.name: len(p.read_text().splitlines()) - 1 for p in tmp_path.glob("*.csv")}
    assert len(rows) == 9 and set(rows.values()) == {200}, rows


def test_reproduce_profiles_names_the_failing_command(tmp_path):
    done = run_script("reproduce_profiles.py", "--outdir", tmp_path, "--n", 2)
    assert done.returncode == 2
    assert "failed: twowave exact --c2=0 --n 2 --out" in done.stderr
    assert not list(tmp_path.iterdir())


def test_convergence_study_envelope_holds():
    done = run_script("convergence_study.py")
    assert done.returncode == 0, done.stderr
    table = done.stdout.split("successive-approximation differences")[1].splitlines()[1:]
    assert table[0].split() == ["n", "measured", "bound", "ok"]
    rows = [line.split() for line in table[1:] if line.strip()]
    assert len(rows) == 11 and all(row[3] == "True" for row in rows)


@pytest.mark.parametrize("rsa", [(1.0, 1.0, 4.0), (2.0, 0.5, 0.5)])
def test_convergence_study_envelope_holds_where_k2_is_larger(rsa):
    # on these sets K2 > K1 in some rows, so phi's envelope alone is exceeded
    study = runpy.run_path(str(ROOT / "scripts" / "convergence_study.py"))
    rows = list(study["envelope_rows"](SystemParams(*rsa)))
    assert len(rows) == 11 and all(measured <= bound for _, measured, bound in rows), rows
