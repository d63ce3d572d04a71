"""Record one checkout's benchmark run as BENCH_<tag>.json.

    python tools/bench_record.py --tag <tag> --seed 17 --seconds 50 [--tree DIR]

For each workload that the checkout's BENCHMARK.json declares, this runs the
checkout's own perfbench/run.py, unchanged, as a subprocess: first with
--trace 0, then with --trace 1. From the untraced run it keeps the final JSON
line, and the machine record and op_s_samples from the result file that the
run writes under perfbench/out/. From the traced run it keeps the per-layer
metrics and traced_op_s_p50 (the median op with every span installed).
The record also names the checkout: its git commit, whether its working tree
differs from that commit, and a sha256 of its src/ files, which tells two
uncommitted trees apart. It is written to BENCH_<tag>.json at the root of the
repository that holds this script.

--tree defaults to that repository. To record a parent commit, point --tree
at a separate checkout of it, so that both records come from the same script.
Run the two records one after the other, not at once, on an otherwise idle
machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def src_sha256(tree: Path) -> str:
    """sha256 over the path and bytes of every file under src/ that git
    tracks or would track, in path order."""
    h = hashlib.sha256()
    names = git(tree, "ls-files", "--cached", "--others", "--exclude-standard", "src").splitlines()
    for name in sorted(names):
        path = tree / name
        if path.is_file():
            h.update(name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


def run_once(tree: Path, name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The final JSON line and the result file of one perfbench/run.py run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=tree, check=True, stdout=subprocess.PIPE, text=True).stdout
    final = json.loads(out.strip().splitlines()[-1])
    result_path = tree / "perfbench" / "out" / f"result_{name}_seed{seed}_trace{trace}.json"
    return final, json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(tree: Path, name: str, seed: int, seconds: float) -> dict:
    final, result = run_once(tree, name, seed, seconds, 0)
    traced_final, traced = run_once(tree, name, seed, seconds, 1)
    return {
        "final": final, "machine": result["machine"], "op_s_samples": result["op_s_samples"],
        "traced": {
            "correct": traced_final["correct"], "attempted": traced_final["attempted"],
            "failed": traced_final["failed"], "machine": traced["machine"],
            "per_layer": traced["per_layer"], "traced_op_s_p50": traced["traced_op_s_p50"],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--tree", default=str(ROOT), help="checkout to benchmark")
    args = parser.parse_args(argv)
    tree = Path(args.tree).resolve()
    declared = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "tag": args.tag,
        "seed": args.seed,
        "seconds": args.seconds,
        "traces": [0, 1],
        "git_sha": git(tree, "rev-parse", "HEAD"),
        "git_dirty": bool(git(tree, "status", "--porcelain", "--untracked-files=no")),
        "src_sha256": src_sha256(tree),
        "workloads": {},
    }
    for workload in declared["workloads"]:
        name = workload["name"]
        print(f"bench_record: {name} in {tree}", file=sys.stderr, flush=True)
        record["workloads"][name] = run_workload(tree, name, args.seed, args.seconds)
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
