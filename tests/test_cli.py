import argparse
import ast
import dataclasses
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from twowave import cli, fixedpoint
from twowave.cli import main, read_profile, write_profile
from twowave.errors import ProfileParseError

# No CLI path may leak a warning: diagnostics are reported, failures exit nonzero.
pytestmark = pytest.mark.filterwarnings("error")


def run_cli(*args):
    return main([str(a) for a in args])


class TestExactCommand:
    def test_row_count_and_header(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run_cli("exact", "--l1", -1, "--l2", 1, "--n", 3, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,phi,psi"
        assert len(lines) == 4
        assert "ordering" in capsys.readouterr().err

    def test_peak_row(self, tmp_path):
        out = tmp_path / "p.csv"
        run_cli("exact", "--l1", -10, "--l2", 10, "--n", 2001, "--out", out)
        x, phi, psi = read_profile(str(out))
        k = np.argmax(phi)
        assert abs(x[k]) < 1e-12
        assert phi[k] == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-12)
        assert psi[k] == pytest.approx(1.5, abs=1e-12)

    def test_shift_moves_but_preserves_values(self, tmp_path):
        cols = {}
        for c2 in (2.0, -2.0):
            out = tmp_path / f"c{c2}.csv"
            run_cli("exact", "--c2", c2, "--l1", -10, "--l2", 10, "--n", 1001,
                    "--out", out)
            cols[c2] = read_profile(str(out))
        # shifting x by 4 maps the c2=2 profile onto the c2=-2 one
        x2, phi2, _ = cols[2.0]
        xm2, phim2, _ = cols[-2.0]
        # x-grids are identical; values at x and x+4 must agree
        shift = 200  # 4 / 0.02
        assert np.allclose(phim2[shift:], phi2[:-shift], atol=1e-12)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli("exact", "--n", 101, "--out", out)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tmp_path):
        assert run_cli("exact", "--n", 11, "--out", tmp_path / "no" / "dir.csv") == 4

    def test_new_file_gets_the_default_mode(self, tmp_path):
        # created as open(path, "w") creates files: 0o666 less the umask
        ref, out = tmp_path / "ref", tmp_path / "p.csv"
        ref.open("w").close()
        assert run_cli("exact", "--n", 11, "--out", out) == 0
        assert out.stat().st_mode == ref.stat().st_mode

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        # files are written over and cut to length, not truncated on open
        out, ref = tmp_path / "p.csv", tmp_path / "ref.csv"
        assert run_cli("exact", "--n", 2001, "--out", out) == 0
        assert run_cli("exact", "--n", 11, "--out", out) == 0
        assert run_cli("exact", "--n", 11, "--out", ref) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_dev_stdout(self, tmp_path, capfd):
        ref = tmp_path / "ref.csv"
        assert run_cli("exact", "--n", 11, "--out", ref) == 0
        capfd.readouterr()
        assert run_cli("exact", "--n", 11, "--out", "/dev/stdout") == 0
        assert capfd.readouterr().out == ref.read_text()


class TestSeriesCommand:
    def test_bright_leading_order(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run_cli("series", "bright", "--alpha", 4, "--order", 0,
                       "--l1", -2, "--l2", 2, "--n", 5, "--out", out) == 0
        x, phi, psi = read_profile(str(out))
        assert phi[2] == pytest.approx(4.0) and psi[2] == pytest.approx(2.0)

    def test_dark_center(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("series", "dark", "--order", 0, "--l1", -2, "--l2", 2, "--n", 5,
                "--out", out)
        _, phi, psi = read_profile(str(out))
        assert phi[2] == 0.0 and psi[2] == 0.0

    def test_bad_order_rejected(self):
        assert run_cli("series", "bright", "--order", 3, "--n", 5) == 2


class TestSolveCommand:
    def test_picard_order1_sidecar(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("solve", "--l1", 0, "--l2", 1, "--n", 801,
                       "--picard-order", 1, "--out", out) == 0
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["gamma"] == pytest.approx(14.0, rel=1e-8)
        assert meta["beta"] == pytest.approx(math.sqrt(392.0), rel=1e-8)
        assert meta["endpoint_residual"] < 1e-10

    def test_negative_beta_branch(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli("solve", "--l1", 0, "--l2", 1, "--n", 801, "--beta-sign", "-",
                "--out", out)
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["beta"] == pytest.approx(-math.sqrt(392.0), rel=1e-8)

    def test_order9_on_length_3_matches(self, tmp_path):
        # a case whose Newton matching used to diverge and exit 3
        out = tmp_path / "s.csv"
        assert run_cli("solve", "--l1", 0.3, "--l2", 3.3, "--alpha", 4, "--picard-order", 9,
                       "--out", out) == 0
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["order"] == 9 and meta["endpoint_residual"] <= 1e-11

    def test_green_contracts_to_zero(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli("solve", "--method", "green", "--l1", 0, "--l2", 1,
                       "--n", 1001, "--max-iter", 60, "--tol", "1e-13",
                       "--out", out) == 0
        _, phi, psi = read_profile(str(out))
        assert max(np.abs(phi).max(), np.abs(psi).max()) < 1e-10

    def test_green_unconverged_exits_3(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run_cli("solve", "--method", "green", "--l1", 0, "--l2", 3,
                       "--out", out) == 3
        assert "after 50 sweeps" in capsys.readouterr().err
        assert not out.exists()

    def test_green_converges_with_more_sweeps(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli("solve", "--method", "green", "--l1", 0, "--l2", 3,
                       "--max-iter", 2000, "--out", out) == 0
        meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
        assert 50 < meta["iterations"] < 2000 and meta["final_diff"] < 1e-12

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, how):
        cfgfile, out = tmp_path / "cfg.json", tmp_path / "g.csv"
        cfgfile.write_text('{"seed": -1}')
        seed = ["--seed", -1] if how == "flag" else ["--config", cfgfile]
        assert run_cli("solve", "--method", "green", *seed, "--n", 11, "--out", out) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_matching_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fixedpoint, "NEWTON_TOL", 0.0)
        monkeypatch.setattr(fixedpoint, "NEWTON_ROUNDOFF", 0)
        out = tmp_path / "s.csv"
        assert run_cli("solve", "--l1", 0, "--l2", 1, "--n", 201, "--out", out) == 3
        assert capsys.readouterr().err.startswith("error: boundary matching failed")
        assert not out.exists()

    def test_diverging_coarse_phase_exits_3(self, tmp_path, capsys):
        # more than 4001 nodes: the match starts on the coarse grid, which
        # keeps no iterate and reports the divergence at the order
        out = tmp_path / "s.csv"
        assert run_cli("solve", "--l1", 0, "--l2", 10, "--n", 4003, "--picard-order", 16,
                       "--out", out) == 3
        assert "non-finite values at step 16" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_gets_profile_and_stderr_gets_meta(self, capsys):
        assert run_cli("solve", "--l1", 0, "--l2", 1, "--n", 5, "--out", "-") == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "x,phi,psi" and len(lines) == 6
        meta = json.loads(captured.err)
        assert meta["method"] == "picard" and meta["order"] == 1

    def test_json_format(self, tmp_path):
        out = tmp_path / "g.json"
        run_cli("solve", "--method", "green", "--l1", 0, "--l2", 1, "--n", 101,
                "--format", "json", "--out", out)
        doc = json.loads(out.read_text())
        assert set(doc) == {"x", "phi", "psi"} and len(doc["x"]) == 101


class TestCertifyCommand:
    def test_unit_interval(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("certify", "--M", 1, "--Mstar", 1, "--l1", 0, "--l2", 1,
                       "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["exists_ok"] and doc["unique_ok"]
        assert doc["A"] == pytest.approx(0.25)

    def test_long_interval(self, tmp_path):
        out = tmp_path / "c.json"
        run_cli("certify", "--M", 1, "--Mstar", 1, "--l1", 0, "--l2", 3, "--out", out)
        doc = json.loads(out.read_text())
        assert not doc["exists_ok"] and not doc["unique_ok"]
        assert doc["A"] == pytest.approx(2.25)

    def test_degenerate_bounds(self):
        assert run_cli("certify", "--M", 0, "--Mstar", 0, "--l1", 0, "--l2", 1) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--M", "nan", "--Mstar", 1], "error: M must be finite, got nan"),
        (["--M", 1, "--Mstar", "inf"], "error: Mstar must be finite, got inf"),
        # finite bounds whose K1, K2 overflow; JSON has no Infinity or NaN to write
        (["--M", 1e308, "--Mstar", 1e308], "error: L_max must be finite, got nan"),
        (["--M", 1e200, "--Mstar", 1e200], "error: equicontinuity must be finite, got inf"),
    ], ids=["M-nan", "Mstar-inf", "overflow-1e308", "overflow-1e200"])
    def test_non_finite_bounds_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "c.json"
        assert run_cli("certify", *flags, "--l1", 0, "--l2", 1, "--out", out) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


class TestVerifyCommand:
    def test_round_trip_exact(self, tmp_path):
        prof = tmp_path / "p.csv"
        rep = tmp_path / "r.json"
        run_cli("exact", "--l1", -20, "--l2", 20, "--n", 4001, "--out", prof)
        assert run_cli("verify", prof, "--out", rep) == 0
        doc = json.loads(rep.read_text())
        assert doc["energy_identity_residual"] < 1e-6
        assert doc["norm_ordering"] == "equal"
        # leading FD error (h^2/12) max|phi''''| = 1.77e-5 at h = 0.01
        assert doc["max_residual_phi"] < 2e-5

    def test_zero_profile(self, tmp_path):
        prof = tmp_path / "z.csv"
        prof.write_text(
            "x,phi,psi\n" + "".join(f"{0.1 * k},0,0\n" for k in range(11))
        )
        rep = tmp_path / "r.json"
        assert run_cli("verify", prof, "--out", rep) == 0
        doc = json.loads(rep.read_text())
        assert doc["max_residual_phi"] == 0.0
        assert doc["norm_ordering"] == "equal"

    def test_non_uniform_grid_rejected(self, tmp_path):
        prof = tmp_path / "bad.csv"
        prof.write_text("x,phi,psi\n0,0,0\n0.1,0,0\n0.35,0,0\n1,0,0\n")
        assert run_cli("verify", prof) == 4

    def test_malformed_row_rejected(self, tmp_path):
        prof = tmp_path / "bad.csv"
        prof.write_text("x,phi,psi\n0,0,0\n0.1,oops,0\n0.2,0,0\n")
        assert run_cli("verify", prof) == 4

    def test_parse_error_carries_line_number(self, tmp_path):
        prof = tmp_path / "bad.csv"
        prof.write_text("x,phi,psi\n0,0,0\n0.1,1\n")
        with pytest.raises(ProfileParseError, match="line 3"):
            read_profile(str(prof))

    @pytest.mark.parametrize("doc", [
        {"x": [], "phi": [], "psi": []},
        {"x": [0.0, 1.0], "phi": [0.0, 0.0], "psi": [0.0, 0.0]},
    ])
    def test_short_json_profile_rejected(self, tmp_path, doc):
        prof = tmp_path / "short.json"
        prof.write_text(json.dumps(doc))
        assert run_cli("verify", prof) == 4

    def test_missing_file(self):
        assert run_cli("verify", "/does/not/exist.csv") == 4

    def test_non_utf8_profile_exits_4(self, tmp_path, capsys):
        prof = tmp_path / "bin.csv"
        prof.write_bytes(b"\xff0,0,0\n0.5,0,0\n1,0,0\n")
        assert run_cli("verify", prof, "--out", tmp_path / "r.json") == 4
        assert capsys.readouterr().err.startswith("error: profile is not UTF-8 text: ")

    @pytest.mark.parametrize("text, message", [
        ('{"x": [0, 0.5, 1], "phi": [0, 0, 0]', "error: bad JSON profile"),
        ('{"x": [0, 0.5, 1], "phi": [0, 0, 0], "psi": [0, 0]}',
         "error: x, phi, psi columns must have equal length"),
    ], ids=["malformed", "unequal-columns"])
    def test_bad_json_profile_exits_4(self, tmp_path, capsys, text, message):
        prof = tmp_path / "p.json"
        prof.write_text(text)
        assert run_cli("verify", prof, "--out", tmp_path / "r.json") == 4
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("flags, unit", [([], True), (["--r", 2], False), (["--s", 2], False)],
                             ids=["default", "r-2", "s-2"])
    def test_non_unit_coefficients_reported_not_warned(self, tmp_path, capsys, flags, unit):
        prof, rep = tmp_path / "p.csv", tmp_path / "r.json"
        assert run_cli("exact", "--n", 101, "--out", prof) == 0
        capsys.readouterr()
        assert run_cli("verify", prof, *flags, "--out", rep) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(rep.read_text())["unit_coefficients"] is unit

    @pytest.mark.parametrize("name, text", [
        ("p.csv", "x,phi,psi\n0,0,0\n0.5,nan,0\n1,0,0\n"),
        ("p.json", '{"x": [0, 0.5, 1], "phi": [0, 0, 0], "psi": [0, Infinity, 0]}'),
    ], ids=["csv-nan", "json-infinity"])
    def test_non_finite_profile_exits_4(self, tmp_path, capsys, name, text):
        prof = tmp_path / name
        prof.write_text(text)
        assert run_cli("verify", prof, "--out", tmp_path / "r.json") == 4
        assert capsys.readouterr().err.startswith("error: profile values must be finite")

    @pytest.mark.filterwarnings("error")
    def test_default_exact_profile_verifies_silently(self, tmp_path, capsys):
        # the exact pair is 5e-4 at the ends of [-10, 10]; the report says the
        # H1 norms' Dirichlet assumption fails instead of warning on stderr
        prof, rep = tmp_path / "p.csv", tmp_path / "r.json"
        assert run_cli("exact", "--out", prof) == 0
        capsys.readouterr()
        assert run_cli("verify", prof, "--out", rep) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads(rep.read_text())
        assert doc["dirichlet_endpoints"] is False
        assert doc["norm_ordering"] == "equal"

    def test_even_n_picard_profile_verified_with_simpson(self, tmp_path):
        prof, rep = tmp_path / "p.csv", tmp_path / "r.json"
        assert run_cli("solve", "--l1", 0, "--l2", 1, "--n", 2000, "--picard-order", 3,
                       "--out", prof) == 0
        assert run_cli("verify", prof, "--out", rep) == 0
        doc = json.loads(rep.read_text())
        assert doc["n"] == 2000


class TestConfigDocument:
    def test_config_and_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"l1": -1.0, "l2": 1.0, "n": 5, "c2": 0.0}))
        out = tmp_path / "p.csv"
        assert run_cli("exact", "--config", cfgfile, "--n", 7, "--out", out) == 0
        x, _, _ = read_profile(str(out))
        assert len(x) == 7 and x[0] == -1.0

    @pytest.mark.parametrize("doc", [{"bogus": 1}, {"quadrature": "simpson"}, {"start": "zero"}],
                             ids=["bogus", "quadrature", "start"])
    def test_unknown_key_rejected(self, tmp_path, capsys, doc):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        assert run_cli("exact", "--config", cfgfile) == 2
        assert capsys.readouterr().err.startswith("error: unknown config keys")

    def test_non_utf8_document_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_bytes(b'\xff{"n": 5}')
        assert run_cli("exact", "--config", cfgfile, "--out", tmp_path / "p.csv") == 2
        assert capsys.readouterr().err.startswith("error: config document is not UTF-8 text: ")

    def test_non_object_document_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("[1, 2]")
        assert run_cli("exact", "--config", cfgfile) == 2
        assert capsys.readouterr().err.startswith("error: config document must be a JSON object")

    def test_integer_accepted_for_float_key(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"l1": 0, "l2": 3, "n": 4}')
        out = tmp_path / "p.csv"
        assert run_cli("exact", "--config", cfgfile, "--out", out) == 0
        assert read_profile(str(out))[0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_even_n_accepted(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("exact", "--n", 10, "--out", out) == 0
        assert len(read_profile(str(out))[0]) == 10

    @pytest.mark.parametrize("command, flags, message", [
        ("exact", ["--l1", 0, "--l2", "inf"], "error: l2 must be finite, got inf"),
        ("exact", ["--l1=-inf", "--l2", 0], "error: l1 must be finite, got -inf"),
        ("solve", ["--r", "nan"], "error: r must be finite, got nan"),
        ("solve", ["--s", "inf"], "error: s must be finite, got inf"),
        ("solve", ["--alpha", "nan"], "error: alpha must be finite, got nan"),
        ("series", ["bright", "--s", "nan"], "error: s must be finite, got nan"),
        ("series", ["bright", "--alpha", "inf"], "error: alpha must be finite, got inf"),
    ], ids=["l2-inf", "l1-minus-inf", "r-nan", "s-inf", "alpha-nan", "series-s-nan",
            "series-alpha-inf"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, command, flags, message):
        assert run_cli(command, *flags, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--l1", 0, "--l2", 1e-110], "error: beta must be finite, got nan"),
        (["solve", "--l1", 0, "--l2", 1e-100], "error: beta must be finite, got inf"),
        (["solve", "--l1", 0, "--l2", 1e110], "error: beta must be finite, got nan"),
        (["solve", "--l1", 0, "--l2", 1e110, "--picard-order", 3],
         "error: beta must be finite, got nan"),
        (["certify", "--M", 1, "--Mstar", 1, "--l1", 0, "--l2", 1e200],
         "error: A must be finite, got inf"),
    ], ids=["solve-L3-underflows", "solve-slopes-overflow", "solve-L3-overflows",
            "solve-order3-L3-overflows", "certify-L2-overflows"])
    def test_extreme_interval_length_exits_2(self, tmp_path, capsys, argv, message):
        # L^3 (the order-1 slopes) or L^2 (the certificate) leaves the double
        # range: one error line from the finite checks, no traceback
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["exact"], ["series", "bright"], ["solve"], ["solve", "--method", "green"],
        ["certify", "--M", 1, "--Mstar", 1],
    ], ids=["exact", "series-bright", "solve", "solve-green", "certify"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_interval_length_exits_2(self, tmp_path, capsys, argv):
        # finite endpoints whose length l2 - l1 overflows: the one error line
        # names the length, before any grid is built
        out = tmp_path / "out"
        assert run_cli(*argv, "--l1=-1e308", "--l2", 1e308, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == ["error: length must be finite, got inf"]
        assert not out.exists()

    # Only sizes numpy refuses before it allocates anything: 2**59 float64
    # nodes are 4 EiB, which malloc refuses without touching a page.
    @pytest.mark.parametrize("argv, message", [
        (["exact", "--n", -5], "error: grid needs at least 3 nodes"),
        (["exact", "--n", 2**62 + 1], "error: too many grid nodes"),
        (["exact", "--n", 2**59], "error: too many grid nodes"),
        (["solve", "--n", 2**59], "error: too many grid nodes"),
        (["solve", "--method", "green", "--n", 2**59], "error: too many grid nodes"),
    ], ids=["negative-n", "n-over-numpy-max-size", "exact-n-unallocatable",
            "solve-n-unallocatable", "solve-green-n-unallocatable"])
    def test_bad_node_count_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, message", [
        ("exact", '{"n": 5.5}', "error: n must be int, got 5.5"),
        ("exact", '{"n": "5"}', "error: n must be int, got '5'"),
        ("exact", '{"l1": "a"}', "error: l1 must be float, got 'a'"),
        ("exact", '{"n": true}', "error: n must be int, got True"),
        ("solve", '{"method": "newton"}', "error: method must be one of"),
        ("exact", '{"n": 5,', "error: "),
        pytest.param("exact", '{"l1": 1' + "0" * 400 + "}", "error: l1 is too large for a float",
                     id="exact-huge-int-for-float"),
        pytest.param("exact", '{"n": 1' + "0" * 399 + "1}", "error: too many grid nodes",
                     id="exact-401-digit-n"),
    ])
    def test_bad_document_exits_2(self, tmp_path, capsys, command, doc, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(doc)
        args = [command, "--config", cfgfile, "--out", tmp_path / "out"]
        if command == "verify":
            prof = tmp_path / "p.csv"
            prof.write_text("x,phi,psi\n0,0,0\n0.5,0,0\n1,0,0\n")
            args.insert(1, prof)
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.startswith(message)


class TestProfileFormat:
    def test_csv_matches_reference_format(self, tmp_path):
        vals = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1])
        x, phi, psi = vals, vals[::-1].copy(), np.roll(vals, 2)
        out = tmp_path / "p.csv"
        write_profile(str(out), x, phi, psi)
        ref = "x,phi,psi\n" + "".join(
            f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in zip(x, phi, psi)
        )
        assert out.read_bytes() == ref.encode()
        for got, want in zip(read_profile(str(out)), (x, phi, psi)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("text", [
        "0,1,2\n0.5,3,4\n1,5,6\n",
        "x,phi,psi\n\n0,1,2\n   \n0.5,3,4\n\n1,5,6\n\n",
    ])
    def test_headerless_and_blank_lines(self, tmp_path, text):
        prof = tmp_path / "p.csv"
        prof.write_text(text)
        x, phi, psi = read_profile(str(prof))
        assert x.tolist() == [0.0, 0.5, 1.0]
        assert phi.tolist() == [1.0, 3.0, 5.0] and psi.tolist() == [2.0, 4.0, 6.0]

    @pytest.mark.parametrize("bad, message", [
        ("0.1,oops,0", "line 5: bad number: could not convert string to float: 'oops'"),
        ("0.1,1", "line 5: expected 3 comma-separated values, got 2"),
    ])
    def test_bad_row_after_blank_lines(self, tmp_path, bad, message):
        prof = tmp_path / "p.csv"
        prof.write_text(f"x,phi,psi\n0,0,0\n\n  \n{bad}\n0.2,0,0\n")
        with pytest.raises(ProfileParseError) as info:
            read_profile(str(prof))
        assert str(info.value).startswith(message)

    # The first bad line in file order is reported, whatever is wrong with it.
    @pytest.mark.parametrize("line3, line5, message", [
        ("0.1,oops,0", "0.2,1", "line 3: bad number: could not convert string to float: 'oops'"),
        ("0.2,1", "0.1,oops,0", "line 3: expected 3 comma-separated values, got 2"),
        ("0.1,0,0,0", "0.2,1", "line 3: expected 3 comma-separated values, got 4"),
    ], ids=["bad-number-first", "short-row-first", "field-total-still-3-per-row"])
    def test_first_bad_line_reported(self, tmp_path, line3, line5, message):
        prof = tmp_path / "p.csv"
        prof.write_text(f"x,phi,psi\n0,0,0\n{line3}\n0.15,0,0\n{line5}\n0.3,0,0\n")
        with pytest.raises(ProfileParseError) as info:
            read_profile(str(prof))
        assert str(info.value) == message

    _EXTREMES = [(-0.0, 5e-324, 1.7976931348623157e308),
                 (5e-324, -1.7976931348623157e308, -0.0),
                 (1.7976931348623157e308, -0.0, -5e-324)]

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                         min_size=3, max_size=60),
           fmt=st.sampled_from(["csv", "json"]))
    @example(rows=_EXTREMES, fmt="csv")
    @example(rows=_EXTREMES, fmt="json")
    def test_round_trip_property(self, tmp_path, rows, fmt):
        cols = [np.array(col, dtype=float) for col in zip(*rows)]
        out = tmp_path / f"p.{fmt}"
        write_profile(str(out), *cols, fmt)
        for got, want in zip(read_profile(str(out)), cols):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        if fmt == "csv":
            ref = "x,phi,psi\n" + "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in rows)
            assert out.read_bytes() == ref.encode()
        else:
            text = out.read_text()
            assert text.count("\n") == 1 and text.endswith("}\n")
            assert json.loads(text) == dict(zip(("x", "phi", "psi"), map(list, zip(*rows))))


class TestParserReuse:
    def test_back_to_back_commands_match_a_fresh_parser(self, tmp_path, monkeypatch):
        # later commands leave out flags that earlier ones set, so a value
        # kept by the cached parser would change their files
        argvs = [
            ["exact", "--n", "101", "--c2", "1.5", "--format", "json", "--out", "exact.json"],
            ["exact", "--n", "51", "--out", "exact.csv"],
            ["solve", "--l1", "0", "--l2", "1", "--n", "201", "--picard-order", "2",
             "--beta-sign", "-", "--out", "picard2.csv"],
            ["solve", "--l1", "0", "--l2", "1", "--n", "201", "--out", "picard1.csv"],
            ["solve", "--method", "green", "--l1", "0", "--l2", "1", "--n", "201",
             "--seed", "3", "--out", "green.csv"],
            ["verify", "exact.json", "--alpha", "2", "--out", "exact.report.json"],
            ["verify", "picard2.csv", "--out", "picard2.report.json"],
        ]

        def run_all(where):
            where.mkdir()
            monkeypatch.chdir(where)
            assert [main(argv) for argv in argvs] == [0] * len(argvs)
            return {p.name: p.read_bytes() for p in where.iterdir()}

        assert cli.build_parser() is cli.build_parser()
        cached = run_all(tmp_path / "cached")
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = run_all(tmp_path / "fresh")
        assert len(fresh) == 10 and cached == fresh


class _TakeBranch(ast.NodeTransformer):
    """Keep only the branch of an `if args.kind == ...` test that `kind` takes."""

    def __init__(self, kind):
        self.kind = kind

    def visit_If(self, node):
        self.generic_visit(node)
        if not ast.unparse(node.test).startswith("args.kind == "):
            return node
        return node.body if ast.literal_eval(node.test.comparators[0]) == self.kind else node.orelse


def _settings_read(func, kind=None) -> set:
    """Settings `func` reads as cfg.<name> or self.<name>, RunConfig's helpers expanded."""
    tree = _TakeBranch(kind).visit(ast.parse(textwrap.dedent(inspect.getsource(func))))
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("cfg", "self")):
            helper = getattr(cli.RunConfig, node.attr)
            names |= _settings_read(helper) if callable(helper) else {node.attr}
    return names


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


SETTINGS = {f.name for f in dataclasses.fields(cli.RunConfig)}
COMMAND_KINDS = [("exact", "exact"), ("series", "bright"), ("solve", None), ("certify", None),
                 ("verify", None)]
# Arguments a command needs besides the settings under test.
REQUIRED = {"series": ["bright"], "certify": ["--M", "1", "--Mstar", "1"], "verify": ["p.csv"]}


class TestSettingsPerCommand:
    @pytest.mark.parametrize("command, kind", COMMAND_KINDS)
    def test_registered_flags_are_the_settings_the_handler_reads(self, command, kind):
        p = _subparsers()[command]
        registered = {a.dest for a in p._actions if a.dest in SETTINGS}
        assert registered == _settings_read(p.get_default("func"), kind)

    def test_flag_slots(self):
        assert sum(len(f.metadata["commands"]) for f in dataclasses.fields(cli.RunConfig)) == 38

    @pytest.mark.parametrize("argv", [
        ["exact", "--alpha", 4],
        ["verify", "p.csv", "--format", "csv"],
        ["certify", "--M", 1, "--Mstar", 1, "--n", 5],
        ["series", "bright", "--r", 2],
    ], ids=["exact-alpha", "verify-format", "certify-n", "series-r"])
    def test_unread_flag_exits_2(self, capsys, argv):
        assert run_cli(*argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["certify", "--Mstar", 1], 2, "err", "the following arguments are required: --M"),
        (["series", "grey"], 2, "err", "invalid choice: 'grey'"),
        (["--help"], 0, "out", "usage:"),
        (["solve", "--help"], 0, "out", "usage:"),
    ], ids=["certify-no-M", "series-kind", "help", "solve-help"])
    def test_argparse_exit_is_returned(self, capsys, argv, code, stream, text):
        assert run_cli(*argv) == code
        assert text in getattr(capsys.readouterr(), stream)

    @pytest.mark.parametrize("command, kind", COMMAND_KINDS)
    def test_config_takes_exactly_the_settings_read(self, tmp_path, capsys, command, kind):
        reads = _settings_read(_subparsers()[command].get_default("func"), kind)
        cfgfile = tmp_path / "cfg.json"
        argv = [command, *REQUIRED.get(command, []), "--config", str(cfgfile)]
        defaults = cli.RunConfig()
        cfgfile.write_text(json.dumps({name: getattr(defaults, name) for name in reads}))
        assert cli.build_config(cli.build_parser().parse_args(argv)) == defaults
        for name in sorted(SETTINGS - reads):
            cfgfile.write_text(json.dumps({name: getattr(defaults, name)}))
            assert run_cli(*argv) == 2
            assert capsys.readouterr().err == f"error: unknown config keys: ['{name}']\n"


@pytest.mark.parametrize("argv, code, stream, text", [
    (["--help"], 0, "stdout", "usage: twowave"),
    (["solve", "--method", "green", "--seed", "-1"], 2, "stderr", "error: seed must be >= 0"),
], ids=["help", "negative-seed"])
def test_python_dash_m_runs_the_cli(argv, code, stream, text):
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "twowave", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert getattr(done, stream).startswith(text)


# The five solver commands, on profiles under the directory given first.
NO_SCIPY_SCRIPT = textwrap.dedent("""
    import os, sys
    sys.modules["scipy"] = None  # every import of scipy now raises ImportError
    from twowave.cli import main
    tmp = sys.argv[1]
    for argv in (["exact", "--out", os.path.join(tmp, "exact.csv")],
                 ["verify", os.path.join(tmp, "exact.csv"), "--out", os.path.join(tmp, "v.json")],
                 ["solve", "--l1", "0", "--l2", "1", "--picard-order", "3",
                  "--out", os.path.join(tmp, "picard.csv")],
                 ["solve", "--method", "green", "--l1", "0", "--l2", "1",
                  "--out", os.path.join(tmp, "green.csv")],
                 ["certify", "--M", "1", "--Mstar", "1", "--l1", "0", "--l2", "1",
                  "--out", os.path.join(tmp, "cert.json")]):
        print(argv[0], main(argv))
""")


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: scipy is only a test extra
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["exact 0", "verify 0", "solve 0", "solve 0",
                                        "certify 0"], done.stderr
