"""Outside-in tracing of the wvgg layers for the benchmark's traced run.

``from .x import y`` binds ``y`` in every consuming module, so a wrapper has
to replace each binding that the CLI path calls through, not just the
definition.  :class:`Tracer` swaps those bindings for timing or counting
wrappers and puts the originals back on :meth:`Tracer.restore`.  Nothing
under ``src/`` changes.

A span is recorded around each traced call: name, parent, start and end in
nanoseconds, all sharing the tracer's run id.  Spans stay in memory until
:meth:`Tracer.dump`.  Hot leaf calls (``gauss_panels``, ``diamond_mat_raw``)
are counted, not spanned.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _kappa_args(counts, out):
    counts["bessel.kappa_log_grid.args"] += out.size


def _integral_rounds(counts, out):
    counts["quadrature.improper_integral.rounds"] += out.rounds
    counts["quadrature.improper_integral.divergent"] += bool(out.divergent)


def _member_accepted(counts, out):
    counts["geometry.v_plus_member.accepted"] += out.member is True


def _usp_samples(counts, out):
    counts["geometry.usp_infimum.samples"] += out.samples


def _panel_evals(counts, args, kwargs):
    # gauss_panels(f, edges, order=24) runs the full and the half-order rule
    edges = args[1] if len(args) > 1 else kwargs["edges"]
    order = args[2] if len(args) > 2 else kwargs.get("order", 24)
    counts["quadrature.gauss_panels.evals"] += (len(edges) - 1) * (order + max(order // 2, 2))


# (metric prefix, modules that bind the callable, hook).  The first module is
# the one that defines it.  A span hook sees the call's result, a count hook
# its arguments.
SPANNED = [
    ("bessel.kappa_log_grid", ["bessel", "density"], _kappa_args),
    ("quadrature.improper_integral", ["quadrature", "density", "engine", "measures"],
     _integral_rounds),
    ("geometry.v_plus_member", ["geometry", "engine"], _member_accepted),
    ("geometry.usp_infimum", ["geometry", "cli"], _usp_samples),
    ("measures.validate", ["measures"], None),
    ("measures.moment_strong", ["measures", "engine"], None),
    ("measures.ray_half_moment", ["measures", "engine"], None),
    ("density.density_curve", ["density", "cli"], None),
    ("density.a_over_d_integral", ["density", "engine"], None),
    ("density.e_over_d_integral", ["density", "engine"], None),
    ("density.char_exponent", ["density", "cli"], None),
    ("density.h_derivative_at_zero", ["density", "engine"], None),
    ("density.monotonicity_scan", ["density", "engine"], None),
    ("engine.classify", ["engine", "cli"], None),
]
COUNTED = [
    ("quadrature.gauss_panels", ["quadrature", "bessel"], _panel_evals),
    ("linalg.diamond_mat_raw", ["linalg", "density", "engine", "geometry"], None),
]
# cli writes its outputs through these two helpers (char-exponent writes its
# CSV inline, so its cli.write span is empty; its bytes are still counted).
WRITERS = [("cli", "_dump_json"), ("cli", "write_density_csv")]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []        # [name, parent index, start ns, end ns]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def spanned(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self.counts, out)
            return out
        return wrapper

    def counted(self, name: str, fn, on_call=None):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if on_call is not None:
                on_call(counts, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    # -- bindings ---------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Replace every traced binding in the wvgg modules."""
        import importlib
        mods = {m: importlib.import_module(f"wvgg.{m}")
                for m in ("bessel", "cli", "density", "engine", "geometry",
                          "linalg", "measures", "quadrature")}
        for name, where, hook in SPANNED:
            attr = name.split(".")[1]
            wrapper = self.spanned(name, getattr(mods[where[0]], attr), hook)
            for m in where:
                self._patch(mods[m], attr, wrapper)
        for name, where, hook in COUNTED:
            attr = name.split(".")[1]
            wrapper = self.counted(name, getattr(mods[where[0]], attr), hook)
            for m in where:
                self._patch(mods[m], attr, wrapper)
        for m, attr in WRITERS:
            self._patch(mods[m], attr, self.spanned("cli.write", getattr(mods[m], attr)))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def dump(self, path: str) -> None:
        spans = [{"id": i, "name": n, "parent": p, "start_ns": a, "end_ns": b}
                 for i, (n, p, a, b) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": spans,
                       "counts": dict(self.counts)}, fh)

    def summary(self, roots: list[int]) -> dict:
        """Per-name calls, inclusive and self seconds over the trees under
        ``roots``."""
        children = self.children()
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        todo = [(root, frozenset()) for root in roots]
        while todo:
            i, outer = todo.pop()
            name, _, start, end = self.spans[i]
            calls[name] += 1
            self_ns[name] += self.self_ns(i, children)
            if name not in outer:      # nested spans of one name count once
                incl[name] += end - start
            todo.extend((c, outer | {name}) for c in children[i])
        return {"calls": dict(calls),
                "s": {k: v / 1e9 for k, v in incl.items()},
                "self_s": {k: v / 1e9 for k, v in self_ns.items()}}

    def children(self) -> dict[int, list[int]]:
        """Child span indices per parent index (-1 for the top level)."""
        out: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            out[span[1]].append(i)
        return out

    def self_ns(self, i: int, children: dict[int, list[int]]) -> int:
        _, _, start, end = self.spans[i]
        return (end - start) - sum(self.spans[c][3] - self.spans[c][2]
                                   for c in children[i])


# Per-layer metrics and their units, in the order they are reported.
LAYER_UNITS = {
    "bessel.kappa_log_grid.calls": "count",
    "bessel.kappa_log_grid.args": "count",
    "bessel.kappa_log_grid.args_per_call": "count",
    "bessel.kappa_log_grid.s": "s",
    "bessel.kappa_log_grid.args_per_s": "1/s",
    "quadrature.improper_integral.calls": "count",
    "quadrature.improper_integral.rounds": "count",
    "quadrature.improper_integral.divergent": "count",
    "quadrature.improper_integral.s": "s",
    "quadrature.gauss_panels.calls": "count",
    "quadrature.gauss_panels.evals": "count",
    "linalg.diamond_mat_raw.calls": "count",
    "geometry.v_plus_member.calls": "count",
    "geometry.v_plus_member.s": "s",
    "geometry.v_plus_member.accept_ratio": "ratio",
    "geometry.usp_infimum.samples": "count",
    "measures.validate.calls": "count",
    "measures.validate.s": "s",
    "measures.moment_strong.s": "s",
    "measures.ray_half_moment.s": "s",
    "density.density_curve.calls": "count",
    "density.density_curve.s": "s",
    "density.a_over_d_integral.s": "s",
    "density.e_over_d_integral.s": "s",
    "density.char_exponent.calls": "count",
    "density.char_exponent.s": "s",
    "density.h_derivative_at_zero.s": "s",
    "density.monotonicity_scan.s": "s",
    "engine.classify.s": "s",
    "engine.classify.self_s": "s",
    "cli.load_config.s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_spans(tracer: Tracer, wall_s: float) -> list[str]:
    """What is wrong with the span tree of one traced invocation.

    Every span must be closed, and the children of a span must lie inside it
    without overlapping, so that no self time is negative.  The self times of
    the command's tree must add up to ``wall_s``, the command's time as the
    worker measured it outside the tracer, to within 0.1% + 0.1 ms (the cost
    of entering the top-level span).  The top-level spans are
    ``cli.load_config`` and then the command handler.
    """
    spans = tracer.spans
    errs = [f"{len(tracer._stack)} spans left open"] if tracer._stack else []
    errs += [f"span {i} ({name}) ends at {end} before it starts at {start}"
             for i, (name, _, start, end) in enumerate(spans) if end < start]
    children = tracer.children()
    for parent, kids in children.items():
        kids = sorted(kids, key=lambda c: spans[c][2])
        for a, b in zip(kids, kids[1:]):
            if spans[b][2] < spans[a][3]:
                errs.append(f"spans {a} ({spans[a][0]}) and {b} ({spans[b][0]}) overlap")
        if parent >= 0 and kids and not (spans[parent][2] <= spans[kids[0]][2]
                                         and spans[kids[-1]][3] <= spans[parent][3]):
            errs.append(f"span {parent} ({spans[parent][0]}) does not contain its children")
    negative = [i for i in range(len(spans)) if tracer.self_ns(i, children) < 0]
    errs += [f"span {i} ({spans[i][0]}) has negative self time" for i in negative]
    roots = children[-1]
    if not roots:
        return errs + ["no top-level span"]
    self_sum, todo = 0, [roots[-1]]
    while todo:
        i = todo.pop()
        self_sum += tracer.self_ns(i, children)
        todo.extend(children[i])
    if abs(self_sum / 1e9 - wall_s) > 1e-3 * wall_s + 1e-4:
        errs.append(f"self times sum to {self_sum / 1e9:.6f} s, "
                    f"the command took {wall_s:.6f} s")
    return errs


def layer_metrics(tracer: Tracer, written_bytes: int, wall_s: float) -> dict:
    """The LAYER_UNITS metrics of one traced invocation; ``wall_s`` is the
    command's time measured outside the tracer."""
    roots = [i for i, span in enumerate(tracer.spans) if span[1] == -1]
    every = tracer.summary(roots)
    calls, secs, self_s = every["calls"], every["s"], every["self_s"]
    counts = tracer.counts
    out = {}
    for name in LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(layer, 0) or counts.get(name, 0)
        elif field == "s":
            out[name] = secs.get(layer, 0.0)
        elif field == "self_s":
            out[name] = self_s.get(layer, 0.0)
        else:   # counts; the rates and ratios are filled in below
            out[name] = counts.get(name, 0)
    kappa = "bessel.kappa_log_grid"
    out[f"{kappa}.args_per_call"] = _ratio(out[f"{kappa}.args"], out[f"{kappa}.calls"])
    out[f"{kappa}.args_per_s"] = _ratio(out[f"{kappa}.args"], out[f"{kappa}.s"])
    member = "geometry.v_plus_member"
    out[f"{member}.accept_ratio"] = _ratio(counts.get(f"{member}.accepted", 0),
                                           out[f"{member}.calls"])
    out["cli.write.bytes"] = written_bytes
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = len(tracer.spans)
    return out
