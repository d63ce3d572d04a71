"""Run a fixed corpus of sparseq CLI invocations and print one JSON line per
invocation: argv, exit code, and the sha256 of stdout, stderr and the output
file (null when none was written). A `verify` run writes its CSVs into the
output directory instead, which is hashed as its file names and contents in
name order. An exception that escapes sparseq.cli.main is recorded as the
exit, so that a tree which lets one through still gives a full corpus.

Two source trees give the same lines exactly when their CLI outputs are
byte-identical, so a change can be checked against its parent with

    python tools/output_hashes.py --src src > new.jsonl
    python tools/output_hashes.py --src ../parent/src > old.jsonl
    diff old.jsonl new.jsonl

Inputs are built by this script, not by sparseq, so both trees read the
same files. They are written to a temporary directory that becomes the
working directory, and argv holds paths relative to it, so lines do not
depend on where the corpus ran. Every invocation runs in this process, through
sparseq.cli.main of the tree given by --src.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

#: Single-qubit gate specs of the corpus: every fixed gate, and rotations
#: with signed-zero, exact-zero and near-degenerate eigenvectors.
GATE_SPECS = ("x", "y", "z", "h", "i", "s", "t", "rx:0.7", "ry:-2.1", "rz:2.5", "rx:1e-9")

MIXED = """qubits 5
u q1 h
rx q2 $a
ry q3 -0.4
rz q4 $b
u q5 t
cx q1 q2
cy q3 q1
cz q2 q5
ch q5 q4
crx q4 q3 $a
cry q1 q5 0.25
crz q5 q2 $b
u q3 0.6,0.0 0.0,0.8 0.0,0.8 0.6,0.0
cu q2 q4 0.0,1.0 0.0,0.0 0.0,0.0 -1.0,0.0
"""

#: 12 qubits, so that targets q10..q12 give pair views with an inner axis of
#: length 4, 2 and 1: general, diagonal and fixed gates there, and controls
#: below their targets (i > j), after a spread over every qubit.
WIDE = "qubits 12\n" + "".join(f"ry q{q} {0.1 * q + 0.3}\n" for q in range(1, 13)) + """\
rx q10 0.7
ry q11 -2.1
u q12 h
u q12 0.6,0.0 0.0,0.8 0.0,0.8 0.6,0.0
rz q10 2.5
u q11 s
u q12 t
u q10 z
u q11 x
u q12 y
cx q12 q10
crx q11 q10 0.3
cry q12 q1 0.25
ch q11 q2
cz q12 q3
crz q10 q4 -0.9
cu q12 q11 0.0,1.0 0.0,0.0 0.0,0.0 -1.0,0.0
cy q1 q12
cx q10 q11
"""


def hea_source(n: int, layers: int) -> str:
    lines = [f"qubits {n}"]
    for layer in range(layers):
        for q in range(1, n + 1):
            lines += [f"rx q{q} $x{layer}_{q}", f"ry q{q} $y{layer}_{q}", f"rz q{q} $z{layer}_{q}"]
        lines += [f"crx q{q} q{q + 1} $c{layer}_{q}" for q in range(1, n)]
    return "\n".join(lines) + "\n"


def hea_params(n: int, layers: int) -> dict[str, float]:
    names = [f"{a}{layer}_{q}" for layer in range(layers) for a in "xyz" for q in range(1, n + 1)]
    names += [f"c{layer}_{q}" for layer in range(layers) for q in range(1, n)]
    return {name: math.sin(1.7 * k + 0.3) * math.pi for k, name in enumerate(names)}


def write_inputs(work: Path):
    (work / "bell.sq").write_text("qubits 2\nu q1 h\ncx q1 q2\n", encoding="utf-8")
    (work / "mixed.sq").write_text(MIXED, encoding="utf-8")
    (work / "mixed.json").write_text(json.dumps({"a": 0.9, "b": -1.3}), encoding="utf-8")
    (work / "wide.sq").write_text(WIDE, encoding="utf-8")
    (work / "wide13.sq").write_text("qubits 13\nu q1 h\ncx q1 q13\nry q7 0.3\n", encoding="utf-8")
    for n, layers in ((3, 2), (6, 1), (9, 1), (10, 1)):
        (work / f"hea{n}.sq").write_text(hea_source(n, layers), encoding="utf-8")
        (work / f"hea{n}.json").write_text(json.dumps(hea_params(n, layers)), encoding="utf-8")
    amps = [[math.cos(k + 0.5) / 2.0, math.sin(k + 0.5) / 2.0] for k in range(4)]
    (work / "state.json").write_text(json.dumps(amps), encoding="utf-8")


def corpus():
    """argv lists; "out" is the output file of an invocation."""
    for name, params in (("bell", None), ("mixed", "mixed.json"), ("hea6", "hea6.json"),
                         ("hea10", "hea10.json")):
        base = ["run", f"{name}.sq"] + (["--params", params] if params else [])
        yield base + ["-o", "out"]
        yield base + ["--amplitudes", "-o", "out"]
        yield base + ["--oracle", "-o", "out"]
    yield ["run", "wide.sq", "-o", "out"]
    yield ["run", "wide.sq", "--amplitudes", "-o", "out"]
    yield ["run", "bell.sq", "--input", "state.json", "--amplitudes"]
    yield ["run", "bell.sq"]
    for spec in GATE_SPECS:
        for n in range(1, 5):
            for j in range(1, n + 1):
                for i in [None, *range(1, n + 1)]:
                    if i == j:
                        continue
                    argv = ["hamiltonian", "-n", str(n), "-j", str(j), "--gate", spec]
                    argv += [] if i is None else ["-i", str(i)]
                    yield argv + ["-o", "out"]
                    yield argv + ["--check", "-o", "out"]
    yield ["hamiltonian", "-n", "3", "-i", "1", "-j", "3", "--gate", "rx:0.7"]
    yield ["hamiltonian", "-n", "8", "-i", "8", "-j", "2", "--gate", "h", "--check", "-o", "out"]
    for name in ("bell", "mixed", "hea3", "hea6"):
        params = {"bell": [], "mixed": ["--params", "mixed.json"]}.get(
            name, ["--params", f"{name}.json"])
        argv = ["hamiltonian", "--circuit", f"{name}.sq", *params]
        yield argv + ["-o", "out"]
        yield argv + ["--check", "-o", "out"]
    for spec in ("x", "h", "rx:0.7", "rz:2.5"):
        for n, i, j in ((1, None, 1), (3, None, 2), (3, 1, 3), (4, 4, 2)):
            argv = ["build-gate", "-n", str(n), "-j", str(j), "--gate", spec]
            argv += [] if i is None else ["-i", str(i)]
            yield argv + ["-o", "out"]
            yield argv + ["--dense", "-o", "out"]
    yield ["build-gate", "-n", "2", "-i", "1", "-j", "2", "--gate", "x", "--dense"]
    yield ["build-gate", "-n", "18", "-i", "1", "-j", "2", "--gate", "x", "-o", "out"]
    yield ["build-gate", "-n", "12", "-j", "5", "--gate", "ry:-2.1", "-o", "out"]
    # Usage and validation errors.
    yield ["hamiltonian", "--check"]
    yield ["build-gate", "-n", "3", "-i", "2", "-j", "2", "--gate", "x"]
    yield ["build-gate", "-n", "3", "-j", "1", "--gate", "frob"]
    yield ["build-gate", "-n", "2", "-j", "1", "--gate", "x", "--tol", "1e-9"]
    for placement in (["-i", "2", "-j", "2"], ["-i", "4", "-j", "1"], ["-i", "1", "-j", "4"],
                      ["-j", "4"]):
        yield ["hamiltonian", "-n", "3", *placement, "--gate", "x"]
    yield ["run", "missing.sq"]
    # Hamiltonian text on stdout, and Hamiltonians that span several pieces.
    yield ["hamiltonian", "--circuit", "hea6.sq", "--params", "hea6.json"]
    yield ["hamiltonian", "--circuit", "hea6.sq", "--params", "hea6.json", "--check"]
    yield ["hamiltonian", "--circuit", "hea9.sq", "--params", "hea9.json", "--check", "-o", "out"]
    # Tolerances that are not a finite number >= 0.
    yield ["run", "bell.sq", "--oracle", "--tol", "nan", "-o", "out"]
    yield ["run", "bell.sq", "--oracle", "--tol", "-1", "-o", "out"]
    # Verify suites at small n, then inputs each suite refuses. An oracle
    # above the dense cap is refused before the CSV is written.
    yield ["verify", "--suite", "crx", "-n", "3", "--out-dir", "out"]
    yield ["verify", "--suite", "strings", "-n", "3", "--out-dir", "out"]
    yield ["verify", "--suite", "engine", "-n", "6", "--circuits", "20", "--out-dir", "out"]
    yield ["verify", "--suite", "strings", "-n", "0", "--out-dir", "out"]
    yield ["verify", "--suite", "crx", "-n", "1", "--out-dir", "out"]
    yield ["verify", "--suite", "engine", "-n", "1", "--out-dir", "out"]
    yield ["verify", "--suite", "engine", "--circuits", "0", "--out-dir", "out"]
    yield ["verify", "--suite", "engine", "-n", "13", "--circuits", "5", "--out-dir", "out"]
    yield ["run", "wide13.sq", "--oracle", "-o", "out"]
    # Placements out of range, register sizes below 1 included.
    for n, j in (("3", "4"), ("3", "0"), ("0", "1"), ("-3", "1")):
        yield ["build-gate", "-n", n, "-j", j, "--gate", "x"]
    yield ["hamiltonian", "-n", "-3", "-j", "1", "--gate", "x"]
    # A generic gate with its control below the target, and a diagonal gate.
    placement = ["-n", "5", "-i", "5", "-j", "1", "--gate", "ry:-2.1"]
    yield ["build-gate", *placement, "--dense", "-o", "out"]
    yield ["hamiltonian", *placement, "--check", "-o", "out"]
    yield ["hamiltonian", "-n", "6", "-i", "2", "-j", "5", "--gate", "s", "--check", "-o", "out"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_hash(out: Path) -> str | None:
    if out.is_dir():
        return sha256(b"".join(
            f.name.encode() + b"\n" + f.read_bytes() for f in sorted(out.iterdir())))
    return sha256(out.read_bytes()) if out.exists() else None


def run_one(main, argv: list[str]) -> dict:
    out = Path("out")
    if out.is_dir():
        shutil.rmtree(out)
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except Exception as exc:  # recorded as the exit, not raised
            code = f"uncaught {type(exc).__name__}"
    return {
        "argv": argv,
        "exit": code,
        "stdout": sha256(stdout.getvalue().encode()),
        "stderr": sha256(stderr.getvalue().encode()),
        "output": output_hash(out),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source directory holding the sparseq package to run")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from sparseq import cli

    if src not in Path(cli.__file__).resolve().parents:
        parser.error(f"sparseq was imported from {cli.__file__}, not from {src}")

    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output_hashes_") as work:
        os.chdir(work)
        try:
            write_inputs(Path(work))
            for cmd in corpus():
                print(json.dumps(run_one(cli.main, cmd)), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
