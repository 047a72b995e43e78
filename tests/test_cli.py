import json
import math

import numpy as np
import pytest

from twowave.cli import main, read_profile
from twowave.errors import ProfileParseError


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

    def test_missing_file(self):
        assert run_cli("verify", "/does/not/exist.csv") == 4


class TestConfigDocument:
    def test_config_and_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"l1": -1.0, "l2": 1.0, "n": 5, "c2": 0.0}))
        out = tmp_path / "p.csv"
        assert run_cli("exact", "--config", cfgfile, "--n", 7, "--out", out) == 0
        x, _, _ = read_profile(str(out))
        assert len(x) == 7 and x[0] == -1.0

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"bogus": 1}))
        assert run_cli("exact", "--config", cfgfile) == 2

    def test_even_n_with_simpson_rejected(self):
        assert run_cli("exact", "--n", 10) == 2
