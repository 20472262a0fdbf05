"""One wvgg CLI invocation in a fresh process, timed from outside.

    python3 perfbench/worker.py SPEC OUT_PREFIX [--trace RUN_ID]
    python3 perfbench/worker.py --gauge

SPEC is a JSON file ``{"workload", "config", "entries"}`` written by
``run.py``.  The worker reads :func:`gauge` once before it imports ``wvgg``,
then calls ``wvgg.cli.load_config`` and the ``cmd_*`` handler for the
workload, exactly as the ``wvgg`` command does, and checks the files the
handler wrote.  Its last stdout line is a JSON object with the timings, the
gauge reading, the peak resident memory, the per-operation errors and, with
``--trace``, the per-layer metrics and any faults in the span tree.  With
``--gauge`` it only prints a gauge reading.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def gauge(np) -> float:
    """Seconds for a fixed mix of interpreter and numpy array work, the two
    kinds the workloads do: a reading of how fast this core runs right now."""
    grid = np.linspace(-4.0, 4.0, 256)
    t = time.perf_counter()
    x = 0.0
    for i in range(1_000_000):
        x += (i % 7) * 0.5
    for k in range(40):
        g = 0.5 * grid[None, :] - np.exp(grid)[None, :] - np.arange(1.0, 1025.0)[:, None] * k
        np.exp(g - g.max(axis=1)[:, None]).sum(axis=1)
    return time.perf_counter() - t


HANDLERS = {"classify": "cmd_classify", "density": "cmd_density",
            "char-exponent": "cmd_char_exponent"}


def main(argv: list[str]) -> int:
    if argv == ["--gauge"]:
        import numpy as np
        print(json.dumps({"gauge_s": gauge(np)}))
        return 0
    spec_path, prefix = argv[0], argv[1]
    run_id = argv[3] if argv[2:3] == ["--trace"] else None
    with open(spec_path) as fh:
        spec = json.load(fh)
    workload, entries = spec["workload"], spec["entries"]
    failure = None
    tracer = None

    t0 = time.perf_counter()
    import numpy as np
    t_np = time.perf_counter()
    gauge_s = gauge(np)        # before wvgg is loaded, so it cannot sway it
    t_wvgg = time.perf_counter()
    import wvgg.cli as cli
    if run_id is not None:
        import tracing
        tracer = tracing.Tracer(run_id)
        tracer.install()
    traced = tracer.call if tracer else (lambda _name, fn, *a: fn(*a))
    handler = getattr(cli, HANDLERS[workload])
    try:
        cfg = traced("cli.load_config", cli.load_config,
                     spec["config"], None, None, prefix)
    except Exception as exc:   # a config the CLI rejects fails every operation
        failure = f"load_config raised {exc!r}"
    t1 = time.perf_counter()
    if failure is None:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            try:
                rc = traced(f"cli.{handler.__name__}", handler, cfg)
                if rc != 0:
                    failure = f"{handler.__name__} returned {rc}"
            except Exception as exc:
                failure = f"{handler.__name__} raised {exc!r}"
    t2 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.restore()

    import workloads
    if failure is None:
        try:
            got = workloads.read_outputs(workload, prefix, len(entries))
            errors = workloads.check(workload, got, entries)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [[f"unreadable output: {exc!r}"]] * len(entries)
    else:
        errors = [[failure]] * len(entries)

    out = {"setup_s": (t_np - t0) + (t1 - t_wvgg), "wall_s": t2 - t1,
           "peak_rss_mb": peak_rss_mb, "gauge_s": gauge_s, "errors": errors}
    if tracer and failure is None:
        written = sum(os.path.getsize(p) for p in
                      workloads.output_files(workload, prefix, len(entries))
                      if os.path.exists(p))
        out["layers"] = tracing.layer_metrics(tracer, written, t2 - t1)
        out["trace_errors"] = tracing.check_spans(tracer, t2 - t1)[:20]
        tracer.dump(f"{prefix}spans.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
