"""Runs one workload in a fresh process and prints its raw record as JSON.

Started by run.py with ``src`` on PYTHONPATH and the thread caps set; see
run.py for the options. The loop is closed with one client: op k+1 starts
only after op k and its check are done.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import sparseq

from probes import floor_pass
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, CheckFailed


def closed_loop(wl, seconds: float, first: int, tracer: Tracer | None) -> dict:
    """Run ops k = first, first+1, ... until the next one would end past
    `seconds`; at least one op runs. Only the op itself is timed."""
    times, walls, failed = [], [], {}
    start = time.perf_counter()
    k = first
    while True:
        w0 = time.perf_counter()
        inputs = wl.prepare(k)
        if tracer:
            tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            output = wl.op(inputs)
        except Exception:  # an op that raises counts as failed; keep measuring
            output = None
            failed[k] = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op()
        times.append(t1 - t0)
        if k not in failed:
            try:
                wl.check(k, inputs, output)
            except CheckFailed as exc:
                failed[k] = str(exc)
        k += 1
        walls.append(time.perf_counter() - w0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return {"ops": list(range(first, k)), "times": times, "failed": failed}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args()

    src = (Path(__file__).resolve().parent.parent / "src").resolve()
    if not Path(sparseq.__file__).resolve().is_relative_to(src):
        sys.exit(f"sparseq imported from {sparseq.__file__}, not from {src}")

    args.work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.work_dir) as tmp:
        wl = WORKLOADS[args.workload](args.seed, args.n, Path(tmp))
        wl.warm_up()
        # With tracing, half the time runs untraced and half traced, so the
        # record carries both medians and the tracing overhead.
        share = args.seconds / 2 if args.trace else args.seconds
        phases = {"untraced": closed_loop(wl, share, 0, None)}
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record = {}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                phases["traced"] = closed_loop(wl, share, len(phases["untraced"]["ops"]), tracer)
            finally:
                tracer.uninstall()
            ops = len(phases["traced"]["ops"])
            floor = floor_pass(wl.n)
            record["per_layer"], record["layer_self_s"] = layer_metrics(
                tracer.spans, ops, wl.n, floor["floor_s"])
            record["engine_floor"] = floor
            record["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write(args.spans)
        done = [k for phase in phases.values() for k in phase["ops"]]
        failed = {k: v for phase in phases.values() for k, v in phase["failed"].items()}
        for k, reason in wl.finish([k for k in done if k not in failed]).items():
            failed.setdefault(k, reason)

    record.update({
        "workload": wl.name,
        "n": wl.n,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "phases": {name: {"times": ph["times"]} for name, ph in phases.items()},
        "attempted": len(done),
        "failed": {str(k): v for k, v in sorted(failed.items())},
        "peak_rss_mb": peak_rss_kib * 1024 / 1e6,
        "max_abs_dev": wl.max_dev,
        "outputs_sha256": wl.outputs,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
