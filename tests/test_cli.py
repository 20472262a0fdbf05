import json
import math
import re

import numpy as np
import pytest

from wvgg import cli
from wvgg.bessel import kappa_bessel
from wvgg.cli import main
from wvgg.engine import ClassificationReport


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


ATOM_FIXTURE = {
    "d": [0, 0], "mu": [0.0, 0.0],
    "sigma": [[1.0, 0.0], [0.0, 1.0]],
    "U": {"n": 2, "components": [{"kind": "atom", "mass": 1.0, "point": [1.0, 1.0]}]},
}

WVAG_FIXTURE = {
    "d": [0, 0], "mu": [0.0, 0.0],
    "sigma": [[1.0, 0.5], [0.5, 1.0]],
    "U": {"n": 2, "components": [
        {"kind": "atom", "mass": 0.5, "point": [0.5, 0.5]},
        {"kind": "atom", "mass": 0.5, "point": [1.0, 0.0]},
        {"kind": "atom", "mass": 0.5, "point": [0.0, 1.0]},
    ]},
}


class TestClassifyCommand:
    def test_driftless_alpha_gamma_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"command": "classify", "params": WVAG_FIXTURE, "seed": 7})
        rc = main(["--config", cfg, "--out", str(tmp_path / "run_")])
        assert rc == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["verdict"] == "SD"
        assert report["rule"] == "Thm3.1(iii)"
        assert report["seed"] == 7

    @pytest.mark.parametrize("grids,r_points", [({}, 120), ({"r_count": 200}, 200),
                                                ({"r_count": 30}, 30)])
    def test_r_count_reaches_budget(self, tmp_path, monkeypatch, grids, r_points):
        seen = []

        def fake_classify(params, budget):
            seen.append(budget)
            return ClassificationReport("INCONCLUSIVE", "no-rule")

        monkeypatch.setattr(cli, "classify", fake_classify)
        cfg = write_config(tmp_path, "c.json", {"command": "classify",
                                                "params": WVAG_FIXTURE, "grids": grids})
        assert main(["--config", cfg, "--out", str(tmp_path / "run_")]) == 0
        assert [b.r_points for b in seen] == [r_points]

    def test_command_line_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"command": "classify", "params": WVAG_FIXTURE})
        rc = main(["usp", "--config", cfg, "--out", str(tmp_path / "o_")])
        assert rc == 0
        assert (tmp_path / "o_usp.json").exists()


class TestDensityCommand:
    def test_first_row_matches_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "command": "density", "params": ATOM_FIXTURE,
            "grids": {"r_min": 1e-4, "r_max": 50.0, "r_count": 40,
                      "s_list": [[1.0, 0.0]]},
        })
        rc = main(["--config", cfg, "--out", str(tmp_path / "d_")])
        assert rc == 0
        lines = (tmp_path / "d_density_00.csv").read_text().splitlines()
        assert lines[0] == "s_1,s_2,r,h,dh,err"
        first = [float(v) for v in lines[1].split(",")]
        r_min = first[2]
        assert r_min == pytest.approx(1e-4)
        assert first[3] == pytest.approx(kappa_bessel(1.0, 2.0 * r_min) / math.pi,
                                         rel=1e-9)

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "command": "density", "params": ATOM_FIXTURE,
            "grids": {"r_count": 20, "s_count": 3}, "seed": 11,
        })
        assert main(["--config", cfg, "--out", str(tmp_path / "a_")]) == 0
        assert main(["--config", cfg, "--out", str(tmp_path / "b_")]) == 0
        for k in range(3):
            a = (tmp_path / f"a_density_{k:02d}.csv").read_bytes()
            b = (tmp_path / f"b_density_{k:02d}.csv").read_bytes()
            assert a == b

    def test_round_trip_17_digits(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "command": "density", "params": ATOM_FIXTURE,
            "grids": {"r_count": 10, "s_list": [[0.6, 0.8]]},
        })
        assert main(["--config", cfg, "--out", str(tmp_path / "r_")]) == 0
        from wvgg.density import (default_r_grid, density_curve,
                                  read_density_csv)
        from wvgg.measures import params_from_json
        params = params_from_json(ATOM_FIXTURE)
        expected = density_curve(params, np.array([0.6, 0.8]),
                                 default_r_grid(count=10))
        back = read_density_csv(str(tmp_path / "r_density_00.csv"))
        assert np.array_equal(back.values, expected.values)


class TestVerifyLemmasCommand:
    def test_table_and_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {"command": "verify-lemmas"})
        rc = main(["--config", cfg, "--out", str(tmp_path / "v_")])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"xi_extrema n=3: inf=5 sup=16\s+PASS", out)
        assert "FAIL" not in out
        assert (tmp_path / "v_lemmas.txt").exists()


class TestCounterexampleCommand:
    def test_worked_construction(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "x.json", {
            "command": "counterexample",
            "counterexample": {"n": 2, "c": 0.5, "alpha": [1.0, 1.0],
                               "mu": [1.0, 0.0],
                               "sigma": [[1.0, 0.0], [0.0, 1.0]]},
            "grids": {"r_count": 40, "s_count": 4},
        })
        rc = main(["--config", cfg, "--out", str(tmp_path / "x_")])
        assert rc == 0
        blob = json.loads((tmp_path / "x_counterexample.json").read_text())
        assert blob["a"] == pytest.approx(2.0)
        assert blob["b"] == pytest.approx(1.0)
        assert blob["g"] == pytest.approx(1.0)
        assert blob["verified_nonincreasing"] is True

    def test_explicit_s_count_is_kept(self, tmp_path):
        cfg = write_config(tmp_path, "x.json", {
            "command": "counterexample",
            "counterexample": {"n": 2, "c": 0.5, "alpha": [1.0, 1.0],
                               "mu": [1.0, 0.0],
                               "sigma": [[1.0, 0.0], [0.0, 1.0]]},
            "grids": {"r_count": 10, "s_count": 8},
        })
        assert main(["--config", cfg, "--out", str(tmp_path / "x_")]) == 0
        blob = json.loads((tmp_path / "x_counterexample.json").read_text())
        assert blob["directions_scanned"] == 8

    def test_numeric_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "x.json", {
            "command": "counterexample",
            "counterexample": {"n": 2, "c": 0.5, "alpha": [1.0, 1.0],
                               "mu": [1.0, 0.0],
                               "sigma": [[1.0, 0.0], [0.0, 1.0]]},
            "grids": {"r_count": 20, "s_count": 2},
            "tolerances": {"margin": -0.5},
        })
        rc = main(["--config", cfg, "--out", str(tmp_path / "x_")])
        assert rc == 2


class TestCharExponentCommand:
    def test_tabulates_grid(self, tmp_path):
        fixture = dict(ATOM_FIXTURE)
        fixture["U"] = {"n": 2, "components": [
            {"kind": "atom", "mass": 1.0, "point": [0.5, 0.5]}]}
        cfg = write_config(tmp_path, "t.json",
                           {"command": "char-exponent", "params": fixture})
        rc = main(["--config", cfg, "--out", str(tmp_path / "t_")])
        assert rc == 0
        lines = (tmp_path / "t_char_exponent.csv").read_text().splitlines()
        assert lines[0] == "theta_1,theta_2,re_psi,im_psi"
        assert len(lines) == 10
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        if float(row["theta_1"]) == 1.0 and float(row["theta_2"]) == 0.0:
            assert float(row["re_psi"]) == pytest.approx(-math.log(1.5))


class TestErrors:
    def test_missing_config(self, capsys):
        assert main(["classify", "--config", "/nonexistent.json"]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", "--config", str(path)]) == 1

    def test_unknown_command_in_config(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"command": "frobnicate"})
        assert main(["--config", cfg]) == 1

    def test_missing_params_block(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"command": "classify"})
        assert main(["--config", cfg]) == 1

    def test_bad_grid_counts(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "command": "density", "params": ATOM_FIXTURE,
            "grids": {"r_count": 1}})
        assert main(["--config", cfg]) == 1
