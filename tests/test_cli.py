import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from wvgg import cli
from wvgg.bessel import kappa_bessel
from wvgg.cli import main
from wvgg.density import default_r_grid
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

COUNTEREXAMPLE = {"n": 2, "alpha": [1.0, 1.0], "mu": [1.0, 0.0],
                  "sigma": [[1.0, 0.0], [0.0, 1.0]]}

README_PARAMS = {
    "d": [0, 0], "mu": [1.0, 0.0],
    "sigma": [[1.0, 0.5], [0.5, 1.0]],
    "U": {"n": 2, "components": [
        {"kind": "atom", "mass": 0.5, "point": [0.5, 0.5]},
        {"kind": "ray", "direction": [1.0, 1.0],
         "density": {"name": "beta2", "a": 1.0, "b": 2.0}},
        {"kind": "curve", "curve": "circle_theta2", "interval": [0, 1]},
    ]},
}


class TestClassifyCommand:
    def test_readme_report_is_strict_json(self, tmp_path):
        # the README example, with 8 cone samples instead of 64 to keep it
        # quick; its first evidence, the divergent strong moment, has an
        # infinite value and an infinite tolerance
        cfg = write_config(tmp_path, "c.json", {
            "command": "classify", "params": README_PARAMS, "seed": 7,
            "grids": {"r_min": 1e-4, "r_max": 50.0, "r_count": 200, "s_count": 8},
            "tolerances": {"s_samples": 8}})
        assert main(["--config", cfg, "--out", str(tmp_path / "run_")]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((tmp_path / "run_report.json").read_text(),
                            parse_constant=reject)
        assert report["evidence"][0] == {"name": "moment_strong",
                                         "value": "Divergent", "tol": "Divergent"}

    def test_driftless_alpha_gamma_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"command": "classify", "params": WVAG_FIXTURE, "seed": 7})
        rc = main(["--config", cfg, "--out", str(tmp_path / "run_")])
        assert rc == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["verdict"] == "SD"
        assert report["rule"] == "Thm3.1(iii)"
        assert report["seed"] == 7

    @pytest.mark.parametrize("grids,r_count", [({}, 120), ({"r_count": 200}, 200),
                                               ({"r_count": 30}, 30),
                                               ({"r_min": 1.0, "r_max": 2.0, "r_count": 30}, 30)])
    def test_r_count_reaches_budget(self, tmp_path, monkeypatch, grids, r_count):
        # the whole radius grid, r_min and r_max included, reaches the scan
        seen = []

        def fake_classify(params, budget):
            seen.append(budget)
            return ClassificationReport("INCONCLUSIVE", "no-rule")

        monkeypatch.setattr(cli, "classify", fake_classify)
        cfg = write_config(tmp_path, "c.json", {"command": "classify",
                                                "params": WVAG_FIXTURE, "grids": grids})
        assert main(["--config", cfg, "--out", str(tmp_path / "run_")]) == 0
        r_grid = default_r_grid(grids.get("r_min", 1e-4), grids.get("r_max", 50.0), r_count)
        assert len(seen) == 1 and np.array_equal(seen[0].r_grid, r_grid)

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

    def test_divergent_direction_exits_2(self, tmp_path, capsys):
        # circle_theta2 meets the face u_2 = 0 at theta = 0, where s_2 = 0 and
        # the density diverges like the integral of 1/theta
        params = dict(README_PARAMS, U={"n": 2, "components": [
            {"kind": "curve", "curve": "circle_theta2", "interval": [0, 1]}]})
        cfg = write_config(tmp_path, "d.json", {
            "command": "density", "params": params,
            "grids": {"r_count": 5, "s_list": [[1.0, 0.0]]}})
        assert main(["--config", cfg, "--out", str(tmp_path / "d_")]) == 2
        assert capsys.readouterr().err.startswith("numeric failure: ")

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
        from wvgg.density import density_curve, read_density_csv
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


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


class TestReadmeGoldenOutputs:
    """The README example's classify report, one density direction and two
    characteristic-exponent thetas, against outputs captured before the rays'
    A/D and E/D moved to direction-free moments.  Values on fixed node rules
    must agree to 1e-12 relative, values that rest on the divergence detector
    to 1e-9."""
    DETECTOR_EVIDENCE = {"moment_strong", "min_mean_positivity"}

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("readme")
        cfg = os.path.join(FIXTURES, "readme_config.json")
        for command in ("classify", "density", "char-exponent"):
            assert main([command, "--config", cfg, "--out", str(out / "run_")]) == 0
        return out

    @staticmethod
    def table(path):
        with open(path) as fh:
            header = fh.readline()
            return header, np.loadtxt(fh, delimiter=",", ndmin=2)

    def test_classify_report(self, outputs):
        new = json.loads((outputs / "run_report.json").read_text())
        with open(os.path.join(FIXTURES, "readme_report.json")) as fh:
            ref = json.load(fh)
        assert {k: v for k, v in new.items() if k != "evidence"} == {
            k: v for k, v in ref.items() if k != "evidence"}
        assert [(e["name"], e.get("note")) for e in new["evidence"]] == [
            (e["name"], e.get("note")) for e in ref["evidence"]]
        for e, r in zip(new["evidence"], ref["evidence"]):
            rel = 1e-9 if e["name"] in self.DETECTOR_EVIDENCE else 1e-12
            for key in ("value", "tol"):
                assert e[key] == (r[key] if isinstance(r[key], str)
                                  else pytest.approx(r[key], rel=rel, abs=0))

    def test_density_direction(self, outputs):
        header, new = self.table(outputs / "run_density_00.csv")
        ref_header, ref = self.table(os.path.join(FIXTURES, "readme_density_00.csv"))
        assert header == ref_header and new.shape == ref.shape
        np.testing.assert_array_equal(new[:, :3], ref[:, :3])
        np.testing.assert_allclose(new[:, 3], ref[:, 3], rtol=1e-12, atol=0)
        # dh changes sign once, so its check also allows 1e-15 of its largest value
        np.testing.assert_allclose(new[:, 4], ref[:, 4], rtol=1e-12,
                                   atol=1e-15 * np.abs(ref[:, 4]).max())

    def test_char_exponent(self, outputs):
        header, new = self.table(outputs / "run_char_exponent.csv")
        ref_header, ref = self.table(os.path.join(FIXTURES, "readme_char_exponent.csv"))
        assert header == ref_header and new.shape == ref.shape
        np.testing.assert_array_equal(new[:, :2], ref[:, :2])
        np.testing.assert_allclose(new[:, 2:], ref[:, 2:], rtol=1e-9, atol=0)


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

    @pytest.mark.parametrize("command,grids,x", [
        ("density", {"r_count": 1}, None),
        ("density", {"r_min": 0}, None),
        ("density", {"r_min": -1}, None),
        ("density", {"r_min": 10, "r_max": 1}, None),
        ("density", {"s_list": [[0, 0]]}, None),
        ("density", {"s_list": [[1, 0, 1]]}, None),
        ("char-exponent", {"theta_grid": [[0.5, 0.5, 0.5]]}, None),
        ("usp", {}, [1.0, 0.5, 0.2]),
        ("density", {"r_count": 10.9}, None),
        ("density", {"s_count": "3"}, None),
        ("density", {"r_cout": 7}, None),
        ("density", {"r_max": "50"}, None),
        ("density", {"r_max": float("inf")}, None),
        ("density", {"s_list": "0.6,0.8"}, None),
        ("char-exponent", {"theta_grid": 1.0}, None),
        ("density", [1, 2], None),
    ], ids=["r_count=1", "r_min=0", "r_min=-1", "r_min>r_max", "zero_direction",
            "3-vector_s_list", "3-vector_theta", "3-vector_x", "fractional_r_count",
            "string_s_count", "typo_key", "string_r_max", "infinite_r_max",
            "string_s_list", "scalar_theta_grid", "not_an_object"])
    def test_malformed_grid_or_vector(self, tmp_path, capsys, command, grids, x):
        raw = {"command": command, "params": WVAG_FIXTURE, "grids": grids,
               "output": str(tmp_path / "run_")}
        if x is not None:
            raw["x"] = x
        assert main(["--config", write_config(tmp_path, "c.json", raw)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command,tolerances", [
        ("classify", {"s_samples": "many"}),
        ("classify", {"s_sample": 4}),
        ("classify", {"s_samples": 0}),
        ("classify", {"s_samples": 2.5}),
        ("classify", {"time_limit_s": -1.0}),
        ("counterexample", {"margin": float("nan")}),
        ("usp", {"usp_grid_points": 17}),
        ("usp", [1, 2]),
    ], ids=["non-numeric", "typo_key", "s_samples=0", "fractional_s_samples",
            "negative_time_limit", "nan_margin", "usp_grid_points", "not_an_object"])
    def test_malformed_tolerances(self, tmp_path, capsys, command, tolerances):
        raw = {"command": command, "params": WVAG_FIXTURE, "tolerances": tolerances,
               "counterexample": {"n": 2, "alpha": [1.0, 1.0], "mu": [1.0, 0.0],
                                  "sigma": [[1.0, 0.0], [0.0, 1.0]]},
               "grids": {"r_count": 10, "s_count": 2}, "output": str(tmp_path / "run_")}
        assert main(["--config", write_config(tmp_path, "c.json", raw)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command,block,argv", [
        ("density", {"seed": 2.9}, []),
        ("density", {"seed": "7"}, []),
        ("density", {"seed": -1}, []),
        ("density", {}, ["--seed", "-1"]),
        ("counterexample", {"counterexample": {k: v for k, v in COUNTEREXAMPLE.items()
                                               if k != "alpha"}}, []),
        ("counterexample", {"counterexample": dict(COUNTEREXAMPLE, c=2)}, []),
        ("counterexample", {"counterexample": {"n": 1, "alpha": [1.0], "mu": [1.0],
                                               "sigma": [[1.0]]}}, []),
        ("counterexample", {"counterexample": dict(COUNTEREXAMPLE, drift=[0.0, 0.0])}, []),
        ("counterexample", {"counterexample": [2, 0.5]}, []),
        ("counterexample", {"counterexample": dict(COUNTEREXAMPLE, alpha=[1.0, "a"])}, []),
        ("counterexample", {"counterexample": dict(COUNTEREXAMPLE, sigma=[1.0, 1.0])}, []),
        ("counterexample", {"counterexample": dict(COUNTEREXAMPLE, n=3, alpha=[1.0] * 3,
                                                   mu=[1.0, 0.0, 0.0])}, []),
        ("counterexample", {"counterexample": dict(COUNTEREXAMPLE, mu=[1.0, 0.0, 0.0])}, []),
        ("counterexample", {"counterexample": dict(COUNTEREXAMPLE, d=[0.0])}, []),
        ("counterexample", {"counterexample": dict(COUNTEREXAMPLE,
                                                   sigma=[[1.0, 0.0], [0.0]])}, []),
    ], ids=["fractional_seed", "string_seed", "negative_seed", "negative_command_line_seed",
            "missing_alpha", "c=2", "n=1", "typo_key", "not_an_object", "string_in_alpha",
            "flat_sigma", "n=3_with_2x2_sigma", "3-vector_mu", "1-vector_d", "ragged_sigma"])
    def test_malformed_seed_or_counterexample(self, tmp_path, capsys, command, block, argv):
        raw = {"command": command, "params": WVAG_FIXTURE, "grids": {"r_count": 10},
               "output": str(tmp_path / "run_"), **block}
        assert main(["--config", write_config(tmp_path, "c.json", raw), *argv]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command,code", [
        ("density", 1), ("usp", 1), ("classify", 0), ("char-exponent", 0)])
    def test_singular_sigma(self, tmp_path, capsys, command, code):
        # density and usp need Sigma^-1; the ladder decides a singular Sigma
        # (rule 3) and psi integrates it
        raw = {"command": command, "output": str(tmp_path / "run_"),
               "params": dict(WVAG_FIXTURE, mu=[1.0, 0.0], sigma=[[1.0, 1.0], [1.0, 1.0]]),
               "grids": {"r_count": 10, "theta_grid": [[0.5, 0.0]]}}
        assert main(["--config", write_config(tmp_path, "c.json", raw)]) == code
        if code:
            assert capsys.readouterr().err.startswith("error: ")

    def test_valid_blocks_accepted(self, tmp_path):
        raw = {"command": "counterexample", "seed": 3,
               "grids": {"r_min": 1, "r_max": 20, "r_count": 5, "s_count": 2,
                         "s_list": [], "theta_grid": []},
               "counterexample": dict(COUNTEREXAMPLE, c=1, d=[0.0, 0.0])}
        cfg = cli.load_config(write_config(tmp_path, "c.json", raw), None, None, None)
        assert (cfg.seed, cfg.r_count, cfg.s_count, cfg.counterexample["c"]) == (3, 5, 2, 1)

    def test_valid_tolerances_accepted(self, tmp_path):
        raw = {"command": "classify", "params": WVAG_FIXTURE,
               "tolerances": {"s_samples": 1, "time_limit_s": None, "margin": -0.5},
               "output": str(tmp_path / "run_")}
        assert main(["--config", write_config(tmp_path, "c.json", raw)]) == 0

    def test_lebesgue_density_is_not_registered(self, tmp_path, capsys):
        # the flat test density lives in the tests, not in the registry
        params = dict(WVAG_FIXTURE, U={"n": 2, "components": [
            {"kind": "ray", "direction": [1.0, 1.0], "density": {"name": "lebesgue"}}]})
        raw = {"command": "classify", "params": params, "output": str(tmp_path / "run_")}
        assert main(["--config", write_config(tmp_path, "c.json", raw)]) == 1
        assert "unknown ray density" in capsys.readouterr().err

    def test_usp_beyond_six_dimensions(self, tmp_path, capsys):
        # the permutation scan stops at n = 6; n = 7 is a configuration error
        n = 7
        params = {"d": [0] * n, "mu": [1.0] * n, "sigma": np.eye(n).tolist(),
                  "U": {"n": n, "components": [
                      {"kind": "atom", "mass": 1.0, "point": [1.0] * n}]}}
        raw = {"command": "usp", "params": params, "output": str(tmp_path / "run_")}
        assert main(["--config", write_config(tmp_path, "c.json", raw)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestImports:
    def test_cli_path_loads_no_scipy(self, tmp_path):
        # a fresh interpreter in which any scipy import fails runs all six
        # commands through main on the README parameters (small grids, one
        # density direction, one theta); numpy is the only runtime dependency.
        # numpy.ma (pulled in by the first np.unique call) costs about 1 MB
        cfg = write_config(tmp_path, "c.json", {
            "params": README_PARAMS, "seed": 7,
            "grids": {"r_count": 20, "s_count": 2, "s_list": [[0.6, 0.8]],
                      "theta_grid": [[1.2, -0.7]]},
            "tolerances": {"s_samples": 2}, "counterexample": COUNTEREXAMPLE})
        code = f"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("scipy was not blocked")
from wvgg import cli
for command in cli.COMMANDS:
    rc = cli.main([command, "--config", {cfg!r}, "--out", {str(tmp_path / "o_")!r}])
    assert rc == 0, (command, rc)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m.split(".")[:2] == ["numpy", "ma"]))
"""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=300)
        assert out.stdout.strip().splitlines()[-1] == "[]"
