"""wvgg benchmark: time the CLI commands on the README example parameters.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The seed picks the command's inputs
from the pool in ``perfbench/reference.json``.  For ``--seconds`` seconds the
benchmark then starts one fresh worker process after another (never two at
once), each a complete CLI invocation on the same generated config, and
reports the median over them.  With ``--trace 1`` every second invocation is
traced and the per-layer metrics come from those; the others give the
untraced time that the tracing overhead is measured against.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.  A
result file with the per-invocation values and the environment is written
under ``.perfbench_runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing     # noqa: E402
import workloads   # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = dict(tracing.LAYER_UNITS, **{"trace.overhead_frac": "ratio",
                                         "src.lines": "count"})
# Single-threaded numerics: the machine this was tuned on has 2 cores and the
# benchmark runs one worker at a time.
THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
RUN_LIMIT_S = 170.0     # a run must exit within 180 s
# The tuning machine is shared, and its speed drifted by up to 2.3x over tens
# of seconds, which moved 30 s medians of raw time by 30% between runs.  So
# worker.gauge() is read in a fresh process before each invocation imports
# wvgg, and once more after the last one, and each invocation's times are
# scaled by GAUGE_REF_S / (mean of the readings just before and just after
# it): seconds on a quiet core of that machine (Intel Xeon, 2 vCPUs, Python
# 3.11, numpy 2.4), where gauge() takes GAUGE_REF_S.  No reading is taken in
# a process that has run wvgg, so the program cannot sway its own scale.  Raw
# times and readings stay in the result file.
GAUGE_REF_S = 0.15


def source_lines(src: str) -> dict:
    pkg = os.path.join(src, "wvgg")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                out[name[:-3]] = fh.read().count(b"\n")
    return out


def environment(root: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "wvgg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def run_worker(root: str, args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else {
            "error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def attach_scales(invocations: list[dict], last_gauge_s: float | None) -> None:
    """Give each invocation (in the order they ran) its GAUGE_REF_S scale."""
    readings = [r.get("gauge_s") for r in invocations] + [last_gauge_s]
    for k, r in enumerate(invocations):
        around = [g for g in readings[k:k + 2] if g]
        r["scale"] = GAUGE_REF_S / statistics.mean(around) if around else 1.0


def scaled(value: float, unit: str, scale: float) -> float:
    """A per-layer value in quiet-core units (see GAUGE_REF_S)."""
    return value * scale if unit == "s" else value / scale if unit == "1/s" else value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wvgg", "cli.py")):
        print("error: run from the root of a wvgg checkout (src/wvgg/cli.py not found)",
              file=sys.stderr)
        return 2
    start = time.monotonic()

    entries = workloads.pick(args.workload, args.seed, workloads.load_reference())
    run_dir = os.path.join(root, ".perfbench_runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    config_path = os.path.join(run_dir, "config.json")
    spec_path = os.path.join(run_dir, "spec.json")
    with open(config_path, "w") as fh:
        json.dump(workloads.make_config(args.workload, entries), fh, indent=1)
    with open(spec_path, "w") as fh:
        json.dump({"workload": args.workload, "config": config_path,
                   "entries": entries}, fh)

    # Untraced and traced invocations alternate under --trace 1.
    modes = [False, True] if args.trace else [False]
    reps: dict[bool, list[dict]] = {False: [], True: []}
    durations: dict[bool, list[float]] = {False: [], True: []}
    ran: list[dict] = []
    deadline = start + args.seconds
    i = 0
    while True:
        traced = modes[i % len(modes)]
        now = time.monotonic()
        if all(reps[m] for m in modes) and (
                now + median(durations[traced]) > min(deadline, start + RUN_LIMIT_S)):
            break
        prefix = os.path.join(run_dir, f"{'traced' if traced else 'plain'}_")
        trace_args = ["--trace", f"{args.workload}-{args.seed}-{i}"] if traced else []
        out = run_worker(root, [spec_path, prefix] + trace_args,
                         timeout=max(5.0, RUN_LIMIT_S - (now - start)))
        durations[traced].append(time.monotonic() - now)
        reps[traced].append(out)
        ran.append(out)
        i += 1
    last_gauge_s = run_worker(root, ["--gauge"], timeout=8.0).get("gauge_s")
    attach_scales(ran, last_gauge_s)

    attempted = failed = 0
    problems = []
    for rep in reps[False] + reps[True]:
        attempted += len(entries)
        errors = rep.get("errors") or [[rep.get("error", "no result")]] * len(entries)
        failed += sum(1 for e in errors if e)
        problems += [e for e in errors if e]
    plain = [r for r in reps[False] if "error" not in r]
    if args.trace:
        traced_ok = [r for r in reps[True] if "layers" in r]
        layers = {k: median([scaled(r["layers"][k], u, r["scale"]) for r in traced_ok])
                  for k, u in tracing.LAYER_UNITS.items()}
        layers["trace.overhead_frac"] = (
            median([r["wall_s"] * r["scale"] for r in traced_ok])
            / median([r["wall_s"] * r["scale"] for r in plain]) - 1.0
            if plain and traced_ok else 0.0)
        layers["src.lines"] = sum(source_lines(os.path.join(root, "src")).values())
        problems += [[f"trace: {e}"] for r in traced_ok for e in r["trace_errors"]]
        if len(traced_ok) < len(reps[True]):
            problems.append(["a traced invocation returned no layer metrics"])
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": median([r["setup_s"] * r["scale"] for r in plain]),
                  "wall_s": median([r["wall_s"] * r["scale"] for r in plain]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
                  "ok_frac": (attempted - failed) / attempted}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "entries": entries, "result": result,
                   "gauge_ref_s": GAUGE_REF_S, "last_gauge_s": last_gauge_s,
                   "machine_slowdown": median([1.0 / r["scale"] for r in ran
                                               if "gauge_s" in r]),
                   "invocations": {"plain": reps[False], "traced": reps[True]},
                   "problems": problems[:50],
                   "src_lines": source_lines(os.path.join(root, "src")),
                   "environment": environment(root)}, fh, indent=1)
    for p in problems[:5]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
