"""Record the input pools and the accepted outputs in perfbench/reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the root of a checkout, on the commit whose outputs are to be the
reference (a few minutes on one core).  Each pool entry is produced by the
real CLI path (``wvgg.cli.main``) on the config the benchmark would generate
for it, so the benchmark compares like with like.

* classify: budget seeds 0, 1, ... whose verdict accepted exactly
  ``CLASSIFY_ACCEPTED`` of the ``CLASSIFY_S_SAMPLES`` sampled cone
  directions.  Each accepted direction costs one pair of A/D and E/D
  integrals, so fixing the count gives every workload seed the same amount of
  ladder work; otherwise the seed alone would move the time by about 2x.
* density: random unit directions, one CSV curve each.
* char-exponent: random theta, angle uniform and norm log-uniform on [0.5, 2].
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from run import environment  # noqa: E402

CLASSIFY_ACCEPTED = 5
POOL_SIZES = {"classify": 12, "density": 16, "char-exponent": 16}


def run_cli(workload: str, entries: list[dict], out_dir: str) -> list:
    from wvgg.cli import main
    config = os.path.join(out_dir, f"{workload}.json")
    with open(config, "w") as fh:
        json.dump(workloads.make_config(workload, entries), fh)
    prefix = os.path.join(out_dir, f"{workload}_")
    rc = main(["--config", config, "--out", prefix])
    if rc != 0:
        raise SystemExit(f"{workload}: wvgg exited {rc}")
    return workloads.read_outputs(workload, prefix, len(entries))


def accepted(report: dict) -> int:
    ev = {e["name"]: e["value"] for e in report["evidence"]}
    return int(ev["cone_samples_accepted"])


def main() -> int:
    root = os.getcwd()
    out_dir = os.path.join(root, ".perfbench_runs", "reference")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random("wvgg-reference-pool")

    outputs = {}
    classify = []
    budget_seed = 0
    while len(classify) < POOL_SIZES["classify"]:
        (report,) = run_cli("classify", [{"budget_seed": budget_seed}], out_dir)
        if accepted(report) == CLASSIFY_ACCEPTED:
            classify.append({"budget_seed": budget_seed, "report": report})
        budget_seed += 1
    outputs["classify"] = [e["report"] for e in classify]

    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(POOL_SIZES["density"])]
    density = [{"s": [math.cos(a), math.sin(a)]} for a in angles]
    outputs["density"] = run_cli("density", density, out_dir)
    for entry, curve in zip(density, outputs["density"]):
        entry.update(r=curve["r"], h=curve["h"], dh=curve["dh"])

    thetas = []
    for _ in range(POOL_SIZES["char-exponent"]):
        a = rng.uniform(0.0, 2.0 * math.pi)
        norm = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        thetas.append({"theta": [norm * math.cos(a), norm * math.sin(a)]})
    outputs["char-exponent"] = run_cli("char-exponent", thetas, out_dir)
    for entry, row in zip(thetas, outputs["char-exponent"]):
        entry["psi"] = row["psi"]

    reference = {
        "recorded_with": environment(root),
        "classify": {"s_samples": workloads.CLASSIFY_S_SAMPLES,
                     "accepted_directions": CLASSIFY_ACCEPTED, "pool": classify},
        "density": {"grid": workloads.DENSITY_R_GRID, "pool": density},
        "char-exponent": {"pool": thetas},
    }
    for workload in workloads.WORKLOADS:
        errors = workloads.check(workload, outputs[workload], reference[workload]["pool"])
        if any(errors):
            raise SystemExit(f"{workload}: recorded outputs fail their own checks: {errors}")
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
