#!/usr/bin/env python3
"""sparseq benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload run_hea_n20 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Per workload it measures set-up (``import sparseq`` in fresh processes), the
machine's memory-bandwidth floor in a process of its own, then runs the
closed loop in a fresh worker process. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. The full record, with the machine, goes to
``perfbench/out/``. See perfbench/README.md for every metric.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("run_hea_n20", "kernels_mixed_n22", "sweep_hea_n10", "hamiltonian_hea_n6")

#: Fresh-process imports per run; set-up time is their median.
IMPORT_REPEATS = 9

#: Register of the machine floor: 2^25 amplitudes are 512 MiB, over four
#: times the last-level cache of the machines this was written for.
MACHINE_FLOOR_N = 25

#: Every workload's run must end within this many seconds.
DEADLINE_S = 170


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Import sparseq from this checkout's sources, and cap every thread
    pool, BLAS included, at the number of usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cap = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a Python child to completion (killed at the deadline) and return
    its stdout; a non-zero exit ends the benchmark."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"{argv[0]} {' '.join(argv[1:3])} exited with {proc.returncode}")
    return proc.stdout


def machine_record(deadline: float) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    llc = 0
    try:
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in caches.glob("index*"):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                llc = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    floor = json.loads(run_child([str(HERE / "probes.py"), "floor", str(MACHINE_FLOOR_N)], deadline))
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "blas_thread_cap": nproc(),
        "floor_bytes": floor["bytes"],
        "floor_to_llc": floor["bytes"] / llc if llc else None,
        "floor_gbps": floor["gbps"],
    }


def setup_seconds(deadline: float) -> list[float]:
    probe = [str(HERE / "probes.py"), "import"]
    run_child(probe, deadline)  # page cache and bytecode, not counted
    times = []
    for _ in range(IMPORT_REPEATS):
        rec = json.loads(run_child(probe, deadline))
        times.append(rec["import_s"])
    return times


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest of p90, p99, p99.9, ... (nearest rank) with at least ten
    samples beyond it, its percentile and how many are beyond. Below 100
    samples the rank with exactly ten beyond stands in, and below 11 the
    maximum."""
    xs = sorted(times)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    pct = 100.0 * rank / len(xs)
    for p in (90.0, 99.0, 99.9, 99.99):
        r = math.ceil(p * len(xs) / 100 - 1e-9)
        if len(xs) - r < 10:
            break
        pct, rank = p, r
    return xs[rank - 1], pct, len(xs) - rank


def run_workload(name: str, args, deadline: float) -> dict:
    setup = setup_seconds(deadline)
    machine = machine_record(deadline)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}_seed{args.seed}_trace{args.trace}"
    argv = [str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(OUT / "work")]
    if args.n:
        argv += ["--n", str(args.n)]
    if args.trace:
        argv += ["--spans", str(OUT / f"spans_{stem}.jsonl")]
    rec = json.loads(run_child(argv, deadline).strip().splitlines()[-1])

    untraced = rec["phases"]["untraced"]["times"]
    p50 = statistics.median(untraced)
    tail_s, tail_pct, beyond = tail(untraced)
    failed = len(rec["failed"])
    state_bytes = 16 << rec["n"]
    machine.update({"numpy": rec["numpy"], "state_bytes": state_bytes,
                    "state_to_llc": state_bytes / machine["llc_bytes"] if machine["llc_bytes"] else None})
    end_to_end = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_s_p50": {"value": p50, "unit": "s"},
        "op_s_tail": {"value": tail_s, "unit": "s"},
        "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
    }
    result = {
        "workload": name, "n": rec["n"], "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setup_s_samples": setup,
        "ops": len(untraced), "op_s_tail_percentile": tail_pct, "op_s_tail_beyond": beyond,
        "fail_share": failed / rec["attempted"], "attempted": rec["attempted"],
        "failed": rec["failed"], "outputs_sha256": rec["outputs_sha256"],
        "end_to_end": end_to_end, "op_s_samples": untraced,
    }
    if args.trace:
        traced_p50 = statistics.median(rec["phases"]["traced"]["times"])
        per_layer = dict(rec["per_layer"])
        per_layer["trace.overhead_s"] = traced_p50 - p50
        per_layer["verify.max_abs_dev"] = rec["max_abs_dev"]
        per_layer["engine.floor_s"] = rec["engine_floor"]["floor_s"]
        per_layer["engine.floor_gbps"] = rec["engine_floor"]["gbps"]
        per_layer["machine.floor_gbps"] = machine["floor_gbps"]
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        result["per_layer"] = {k: {"value": per_layer[k], "unit": units[k]} for k in units}
        result["layer_self_s_per_op"] = rec["layer_self_s"]
        result["traced_op_s_p50"] = traced_p50
        result["spans"] = rec["spans"]
    (OUT / f"result_{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def print_summary(r: dict):
    m = r["machine"]
    print(f"== {r['workload']}  n={r['n']}  seed={r['seed']}  trace={r['trace']}  ops={r['ops']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} llc_bytes={m['llc_bytes']} "
          f"python={m['python']} numpy={m['numpy']} blas_thread_cap={m['blas_thread_cap']} "
          f"state_bytes={m['state_bytes']} state_to_llc={m['state_to_llc']} "
          f"floor_gbps={m['floor_gbps']:.3f} (floor array {m['floor_bytes']} B)")
    for key, metric in r["end_to_end"].items():
        print(f"  {key:<14} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'op_s_tail is':<14} p{r['op_s_tail_percentile']:.4g} of {r['ops']} ops "
          f"({r['op_s_tail_beyond']} beyond)")
    print(f"  {'fail_share':<14} {r['fail_share']:.6g} ({len(r['failed'])}/{r['attempted']})")
    for fname, digest in r["outputs_sha256"].items():
        print(f"  sha256 {fname} {digest}")
    for k, reason in list(r["failed"].items())[:3]:
        print(f"  failed op {k}: {reason.strip().splitlines()[-1]}")
    for key, metric in r.get("per_layer", {}).items():
        print(f"  {key:<38} {metric['value']:.6g} {metric['unit']}")


def main() -> int:
    p = argparse.ArgumentParser(description="sparseq benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, default=None,
                   help="register size instead of each workload's own (smoke tests)")
    args = p.parse_args()
    if not (SRC / "sparseq" / "__init__.py").is_file():
        print(f"no sparseq sources under {SRC}", file=sys.stderr)
        return 2
    # Build: compile the sources once so no timed import pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args, time.monotonic() + DEADLINE_S) for name in names]
    for r in results:
        print_summary(r)
    section = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][section]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r[section].items()}
    failed = sum(len(r["failed"]) for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
