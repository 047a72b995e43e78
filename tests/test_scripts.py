"""The scripts under scripts/ run as their own processes and print what they promise."""

import os
import pathlib
import subprocess
import sys

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
             "green_fixed_point.csv"}
    assert {p.name for p in tmp_path.iterdir()} == names


def test_reproduce_profiles_keeps_the_node_count(tmp_path):
    done = run_script("reproduce_profiles.py", "--outdir", tmp_path, "--n", 200)
    assert done.returncode == 0, done.stderr
    rows = {p.name: len(p.read_text().splitlines()) - 1 for p in tmp_path.iterdir()}
    assert len(rows) == 9 and set(rows.values()) == {200}, rows


def test_convergence_study_envelope_holds():
    done = run_script("convergence_study.py")
    assert done.returncode == 0, done.stderr
    table = done.stdout.split("successive-approximation differences")[1].splitlines()[1:]
    assert table[0].split() == ["n", "measured", "bound", "ok"]
    rows = [line.split() for line in table[1:] if line.strip()]
    assert len(rows) == 11 and all(row[3] == "True" for row in rows)
