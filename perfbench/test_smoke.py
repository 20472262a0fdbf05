"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Run from the root of a checkout; about a minute on 2 cores.  ``--seconds 1``
is the smoke mode: a single invocation per mode (one untraced, plus one
traced under ``--trace 1``) on the regular inputs.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing    # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(workload: str, trace: int) -> dict:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stderr
    assert res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    res = result_of(workload, 0)
    assert units(res) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    res = result_of(workload, 1)
    assert units(res) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    m = {name: v["value"] for name, v in res["metrics"].items()}
    # a correct run has passed tracing.check_spans on every traced invocation
    assert m["trace.wall_s"] > 0 and m["trace.spans"] >= 2
    assert m["cli.load_config.s"] > 0 and m["measures.validate.calls"] >= 1
    assert m["cli.write.bytes"] > 0 and m["src.lines"] > 0
    # each workload loads the layers it was chosen for
    if workload == "density":
        assert m["bessel.kappa_log_grid.calls"] > 0
        assert m["density.density_curve.calls"] == workloads.DENSITY_DIRECTIONS
    else:
        assert m["bessel.kappa_log_grid.calls"] == 0
        assert m["quadrature.improper_integral.rounds"] > 0
    if workload == "classify":
        assert m["geometry.v_plus_member.calls"] == workloads.CLASSIFY_S_SAMPLES
        assert 0 < m["engine.classify.self_s"] < m["engine.classify.s"]
    if workload == "char-exponent":
        assert m["density.char_exponent.calls"] == workloads.CHAR_THETAS
        assert m["linalg.diamond_mat_raw.calls"] > 100_000


def spans_of(*spans) -> tracing.Tracer:
    tracer = tracing.Tracer("test")
    tracer.spans = [list(s) for s in spans]
    return tracer


def test_span_checks_catch_broken_trees():
    ms = 1_000_000
    load = ("cli.load_config", -1, 0, 10 * ms)
    cmd = ("cli.cmd_density", -1, 20 * ms, 1020 * ms)
    a = ("density.density_curve", 1, 30 * ms, 500 * ms)
    b = ("bessel.kappa_log_grid", 2, 40 * ms, 400 * ms)
    c = ("density.density_curve", 1, 510 * ms, 1000 * ms)
    assert tracing.check_spans(spans_of(load, cmd, a, b, c), 1.0) == []
    broken = {
        "overlapping children": (load, cmd, a, b, c[:2] + (450 * ms, 1000 * ms)),
        "child outside its parent": (load, cmd, a, b[:3] + (600 * ms,), c),
        "unclosed span": (load, cmd, a, b[:3] + (0,), c),
        "command not covered": (load, cmd[:3] + (900 * ms,), a, b, c[:3] + (880 * ms,)),
    }
    for what, spans in broken.items():
        assert tracing.check_spans(spans_of(*spans), 1.0), what
    assert tracing.check_spans(spans_of(load, cmd, a, b, c), 1.01)
    left_open = spans_of(load, cmd, a, b, c)
    left_open._stack = [1]
    assert tracing.check_spans(left_open, 1.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("density", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_picks_inputs_deterministically():
    ref = workloads.load_reference()
    for w in workloads.WORKLOADS:
        assert workloads.pick(w, 11, ref) == workloads.pick(w, 11, ref)
    picks = {json.dumps(workloads.pick("density", s, ref)) for s in range(5)}
    assert len(picks) > 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_reference_and_reject_wrong_answers(workload):
    ref = workloads.load_reference()
    entry = ref[workload]["pool"][0]
    if workload == "classify":
        good = copy.deepcopy(entry["report"])
        bad = copy.deepcopy(good)
        bad["rule"] = "Thm3.2(iii)-numeric"
        nudged = copy.deepcopy(good)
        for e in nudged["evidence"]:
            if e["name"] == "min_mean_positivity":
                e["value"] *= 1 + 1e-8
    elif workload == "density":
        good = {"header": workloads.DENSITY_HEADER, "s": entry["s"], "r": entry["r"],
                "h": entry["h"], "dh": entry["dh"]}
        bad = dict(good, h=[v * (1 + 1e-3) for v in good["h"]])
        nudged = dict(good, h=[v * (1 + 1e-7) for v in good["h"]],
                      dh=[v * (1 + 1e-7) for v in good["dh"]])
        # a wrong dh only at the smallest radius
        bad_dh = dict(good, dh=[good["dh"][0] * (1 + 1e-3)] + good["dh"][1:])
        assert workloads.check(workload, [bad_dh], [entry]) != [[]]
    else:
        good = {"header": workloads.CHAR_HEADER, "theta": entry["theta"], "psi": entry["psi"]}
        bad = dict(good, psi=[-v for v in good["psi"]])
        nudged = dict(good, psi=[v * (1 + 1e-8) for v in good["psi"]])
    assert workloads.check(workload, [good], [entry]) == [[]]
    assert workloads.check(workload, [nudged], [entry]) == [[]]
    assert workloads.check(workload, [bad], [entry]) != [[]]
