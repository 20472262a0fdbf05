"""Workload inputs and output checks for the wvgg benchmark.

Every workload runs one ``wvgg`` CLI command on the README example
parameters.  A workload seed picks entries from a pool recorded in
``reference.json``; each pool entry carries the outputs this benchmark
accepts for it.  The program under test only ever sees the generated config.

This module is imported by the worker after its timed region, and by
``record_reference.py``; it uses the standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The README example: atom + beta2 ray + circle_theta2 curve, n = 2.
README_PARAMS = {
    "d": [0, 0],
    "mu": [1.0, 0.0],
    "sigma": [[1.0, 0.5], [0.5, 1.0]],
    "U": {"n": 2, "components": [
        {"kind": "atom", "mass": 0.5, "point": [0.5, 0.5]},
        {"kind": "ray", "direction": [1.0, 1.0],
         "density": {"name": "beta2", "a": 1.0, "b": 2.0}},
        {"kind": "curve", "curve": "circle_theta2", "interval": [0, 1]},
    ]},
}

# Per-invocation sizes.  One invocation takes a few seconds on a 2-core
# Xeon, so a run fits several of them and reports their median.
CLASSIFY_S_SAMPLES = 8          # cone directions sampled per verdict
# The README radius grid (also the CLI default), so the per-direction radius
# batch is the size users run; one direction per invocation keeps it short.
DENSITY_R_GRID = {"r_min": 1e-4, "r_max": 50.0, "r_count": 200}
DENSITY_DIRECTIONS = 1          # directions per invocation
CHAR_THETAS = 1                 # theta points per invocation

EXPECTED_VERDICT = ("NOT_SD", "Thm3.2(iv)-numeric")
DENSITY_HEADER = "s_1,s_2,r,h,dh,err"
CHAR_HEADER = "theta_1,theta_2,re_psi,im_psi"

# Relative tolerances against the recorded outputs.  The Bessel kernel error
# on this config reaches 7.5e-8 relative, so a more accurate kernel moves h by
# about that much; 1e-5 leaves two orders of margin and still rejects any
# wrong term.  Integrals converge to a 1e-10 growth test, hence 1e-6 there.
DENSITY_RTOL = 1e-5
CHAR_RTOL = 1e-6
EVIDENCE_RTOL = 1e-6

WORKLOADS = ("classify", "density", "char-exponent")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def pick(workload: str, seed: int, reference: dict) -> list[dict]:
    """Pool entries for one workload seed: the same seed gives the same picks."""
    pool = reference[workload]["pool"]
    count = {"classify": 1, "density": DENSITY_DIRECTIONS,
             "char-exponent": CHAR_THETAS}[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), count))]


def make_config(workload: str, entries: list[dict]) -> dict:
    """CLI config for the given pool entries."""
    if workload == "classify":
        (entry,) = entries
        return {"command": "classify", "params": README_PARAMS,
                "seed": entry["budget_seed"],
                "tolerances": {"s_samples": CLASSIFY_S_SAMPLES}}
    if workload == "density":
        return {"command": "density", "params": README_PARAMS,
                "grids": dict(DENSITY_R_GRID, s_list=[e["s"] for e in entries])}
    if workload == "char-exponent":
        return {"command": "char-exponent", "params": README_PARAMS,
                "grids": {"theta_grid": [e["theta"] for e in entries]}}
    raise ValueError(f"unknown workload {workload!r}")


# -- reading outputs ----------------------------------------------------------

def output_files(workload: str, prefix: str, count: int) -> list[str]:
    if workload == "classify":
        return [f"{prefix}report.json"]
    if workload == "density":
        return [f"{prefix}density_{i:02d}.csv" for i in range(count)]
    return [f"{prefix}char_exponent.csv"]


def _read_csv(path: str) -> tuple[str, list[list[float]]]:
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    return header, rows


def read_outputs(workload: str, prefix: str, count: int) -> list:
    """Parsed outputs, one item per operation (raises if a file is missing)."""
    if workload == "classify":
        with open(output_files(workload, prefix, count)[0]) as fh:
            return [json.load(fh)]
    if workload == "density":
        out = []
        for path in output_files(workload, prefix, count):
            header, rows = _read_csv(path)
            out.append({"header": header,
                        "s": rows[0][:2] if rows else [],
                        "r": [row[2] for row in rows],
                        "h": [row[3] for row in rows],
                        "dh": [row[4] for row in rows]})
        return out
    header, rows = _read_csv(output_files(workload, prefix, count)[0])
    return [{"header": header, "theta": row[:2], "psi": row[2:4]} for row in rows]


# -- checks -------------------------------------------------------------------

def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _check_report(got: dict, ref: dict) -> list[str]:
    errs = []
    if (got.get("verdict"), got.get("rule")) != EXPECTED_VERDICT:
        errs.append(f"verdict {got.get('verdict')}/{got.get('rule')}")
    if got.get("numeric_only") is not True:
        errs.append("numeric_only is not true")
    got_ev = [(e["name"], e["value"]) for e in got.get("evidence", [])]
    ref_ev = [(e["name"], e["value"]) for e in ref["evidence"]]
    if [n for n, _ in got_ev] != [n for n, _ in ref_ev]:
        errs.append("evidence names differ from the reference")
        return errs
    for (name, a), (_, b) in zip(got_ev, ref_ev):
        if isinstance(a, str) or isinstance(b, str):
            ok = a == b
        else:
            ok = _close(float(a), float(b), EVIDENCE_RTOL)
        if not ok:
            errs.append(f"evidence {name}: {a!r} vs reference {b!r}")
    return errs


def _check_curve(got: dict, ref: dict) -> list[str]:
    errs = []
    if got["header"] != DENSITY_HEADER:
        errs.append(f"header {got['header']!r}")
    if len(got["h"]) != len(ref["h"]):
        return errs + [f"{len(got['h'])} rows, reference has {len(ref['h'])}"]
    norm = math.hypot(*ref["s"])
    if not all(_close(a, b / norm, 1e-12, 1e-15) for a, b in zip(got["s"], ref["s"])):
        errs.append("direction differs from the requested one")
    if not all(_close(a, b, 1e-12) for a, b in zip(got["r"], ref["r"])):
        errs.append("radius grid differs from the reference")
    # dh crosses zero, so each point is also allowed a share of the scale of
    # its terms: h / r, capped by the curve's largest |dh| (h / r blows up
    # at small r, where it would let a wrong dh through)
    dh_max = max(abs(v) for v in ref["dh"])
    for i, (h, dh, r) in enumerate(zip(got["h"], got["dh"], got["r"])):
        if not (math.isfinite(h) and math.isfinite(dh) and h >= 0.0):
            errs.append(f"row {i}: h={h!r} dh={dh!r}")
            continue
        h_ref, dh_ref = ref["h"][i], ref["dh"][i]
        if not _close(h, h_ref, DENSITY_RTOL, 1e-300):
            errs.append(f"row {i}: h={h!r} vs reference {h_ref!r}")
        if abs(dh - dh_ref) > DENSITY_RTOL * (abs(dh_ref) + min(h_ref / r, dh_max)):
            errs.append(f"row {i}: dh={dh!r} vs reference {dh_ref!r}")
    return errs


def _check_psi(got: dict, ref: dict) -> list[str]:
    errs = []
    if got["header"] != CHAR_HEADER:
        errs.append(f"header {got['header']!r}")
    if not all(_close(a, b, 1e-15) for a, b in zip(got["theta"], ref["theta"])):
        errs.append("theta differs from the requested one")
    re_psi, im_psi = got["psi"]
    if not (math.isfinite(re_psi) and math.isfinite(im_psi) and re_psi <= 0.0):
        errs.append(f"psi = {re_psi!r} + {im_psi!r}i")
    dist = math.hypot(re_psi - ref["psi"][0], im_psi - ref["psi"][1])
    if not dist <= CHAR_RTOL * math.hypot(*ref["psi"]):
        errs.append(f"psi = {re_psi!r} + {im_psi!r}i vs reference {ref['psi']!r}")
    return errs


def check(workload: str, got: list, entries: list[dict]) -> list[list[str]]:
    """Errors per operation; an empty list means the operation is correct."""
    if len(got) != len(entries):
        return [[f"{len(got)} outputs for {len(entries)} operations"]] * len(entries)
    checker = {"classify": lambda g, e: _check_report(g, e["report"]),
               "density": _check_curve,
               "char-exponent": _check_psi}[workload]
    return [checker(g, e) for g, e in zip(got, entries)]
