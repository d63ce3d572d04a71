"""Command-line interface: argv parsing, preflight, routing and the exit-code
map. The library judges each input and writes each output format, and verify
computes each printed check (reconstruction_error=, oracle_deviation=).

Exit codes: 0 success, 1 verification exceedance (a run whose final state
is off unit norm by more than engine.NORM_TOL included: one stderr line, no
output), 2 usage or parse error, 3 validation error, a register too large
for memory or a tolerance that is not a finite number >= 0 included. The
QSIM_TOL environment variable overrides the default of 1e-12; --tol beats both.

Dense checks and `build-gate --dense` that gate_matrix.check_dense_cap
refuses (above 12 qubits) and verify sizes out of range exit 3 before any
output. Before a command allocates its state, parses an input file,
streams its text or builds dense check matrices, it estimates their peak
bytes and refuses (exit 3) when the estimate exceeds MemAvailable in
/proc/meminfo. Estimates up to BUDGET_FREE_BYTES skip that read. Then
`hamiltonian` refuses (exit 3) schema-1 text above
hamiltonian.JSON_MAX_BYTES.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from .circuit_ir import (
    CircuitBindError,
    CircuitParseError,
    GATES,
    bind,
    circuit_hamiltonians,
    parse_circuit,
)
from .core import OneQubitGate, rotation_gate
from .engine import Circuit, GateOp, NormDriftError, StateVector, run_circuit
from .engine import amplitudes_csv, probabilities_csv
from .gate_matrix import DENSE_MAX_QUBITS, SparseUnitary, check_dense_cap
from .hamiltonian import check_json_size, circuit_json_chunks
from .verify import (
    deviations_csv,
    engine_equivalence_deviations,
    gate_hamiltonian_sweep,
    oracle_deviation,
    reconstruction_error,
    string_hamiltonian_sweep,
)

DEFAULT_TOL = 1e-12

#: Allocation estimates up to this many bytes run without reading MemAvailable.
BUDGET_FREE_BYTES = 256 << 20

# Peak memory per unit of work, measured with child ru_maxrss (CPython 3.11,
# numpy 2.4) and rounded up. `run` holds about 200 bytes per amplitude: the
# state and the Python text of its output line. The streamed text writers,
# `build-gate` (with or without --dense) and `hamiltonian`, hold a few pieces
# of text and index arrays: 24-69 bytes per amplitude above n = 4 at
# n = 14 and 16, whatever the gate count. They price memory only: the schema-1
# text is bounded by hamiltonian.check_json_size (`hamiltonian -n 20 -j 1
# --gate x` prices 80 MiB of memory and about 6.6 TB of text), and --dense
# text by check_dense_cap. Every dense check, `hamiltonian --check`,
# `run --oracle` and the verify suites alike, is priced at 4 complex
# 2^n x 2^n matrices alive at once; each peaks at 3.1-3.9 beyond the
# interpreter at n = 10..12 (reconstruction_error: the oracle's matrix and
# the identity the exponentials are applied to in place, then 1.5 matrices
# in the error's temporaries; oracle_deviation: a controlled gate's two
# Kronecker terms and their sum).
RUN_BYTES_PER_AMP = 208
TEXT_BYTES_PER_AMP = 80
CHECK_MATRICES = 4

# Parsing an input file peaks beyond the interpreter (child ru_maxrss, files
# of 2-51 MB) at up to 64 bytes per byte of JSON (`--input`, `--params`;
# lists nested 40-60 deep), and of a circuit at up to 91 under `run` and 174
# under `hamiltonian --circuit`, which keeps a Hamiltonian per gate (`rx q1 1`
# lines). Each file's size is priced before it is read.
JSON_BYTES_PER_BYTE = 72
CIRCUIT_BYTES_PER_BYTE = 192


def _tolerance(args) -> float:
    """--tol, else QSIM_TOL, else DEFAULT_TOL. A value that is not a finite
    number >= 0 would decide the verdict by itself, so it is refused."""
    tol = args.tol if args.tol is not None else float(os.environ.get("QSIM_TOL", DEFAULT_TOL))
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return tol


def _mem_available(path: str = "/proc/meminfo") -> int | None:
    """MemAvailable from a meminfo file in bytes, None where it cannot be read."""
    try:
        with open(path, encoding="ascii") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    return None


def _require_memory(what: str, n: int, per_amp: int, matrices: int = 0):
    """Refuse with MemoryError (exit 3), before allocating, when per_amp
    bytes per amplitude plus `matrices` dense complex matrices on n qubits
    exceed MemAvailable. Dense matrices above the cap are refused first,
    with check_dense_cap's ValueError. n is clamped to 0..64 so that a
    hostile register size stays a small integer: 2^64 of anything exceeds
    every memory."""
    if matrices:
        check_dense_cap(n)
    dim = 1 << min(max(n, 0), 64)
    _require_bytes(what, dim * per_amp + matrices * 16 * dim * dim)


def _require_bytes(what: str, nbytes: int):
    """Refuse with MemoryError (exit 3) when nbytes exceed MemAvailable;
    up to BUDGET_FREE_BYTES, MemAvailable is not read."""
    if nbytes <= BUDGET_FREE_BYTES:
        return
    available = _mem_available()
    if available is not None and nbytes > available:
        raise MemoryError(
            f"{what} needs about {nbytes >> 20} MiB, {available >> 20} MiB available"
        )


def parse_gate_spec(spec: str) -> OneQubitGate:
    """Gate specs: a single-qubit fixed gate of GATES (x, y, z, h, i, s, t)
    or a rotation rx:0.5 / ry:… / rz:…"""
    name, colon, angle = spec.partition(":")
    kind = GATES.get(name)
    if kind is not None and kind.named and not colon:
        return kind.fixed
    if kind is not None and kind.axis is not None and not kind.controlled and colon:
        try:
            theta = float(angle)
        except ValueError:
            raise ValueError(f"bad rotation angle in gate spec {spec!r}") from None
        return rotation_gate(kind.axis, theta)
    raise ValueError(f"unknown gate spec {spec!r}")


def _write(chunks, path: str | None):
    """Write text pieces to path, or to stdout when path is None."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(chunks)


def _ended(chunks):
    """The text pieces, then a closing newline."""
    yield from chunks
    yield "\n"


def cmd_build_gate(args) -> int:
    if args.dense:
        check_dense_cap(args.n)
    _require_memory("build-gate", args.n, TEXT_BYTES_PER_AMP)
    sparse = SparseUnitary(args.n, args.j, parse_gate_spec(args.gate), args.i)
    _write(_ended(sparse.json_chunks(dense=args.dense)), args.output)
    return 0


def cmd_hamiltonian(args) -> int:
    tol = _tolerance(args)
    single = args.circuit is None
    if single and None in (args.gate, args.n, args.j):
        usage = "need --gate with -n/-j, or --circuit"
    elif single and args.params is not None:
        usage = "--params needs --circuit"
    elif not single and (args.n, args.i, args.j, args.gate) != (None,) * 4:
        usage = "--circuit takes no -n/-i/-j/--gate"
    else:
        usage = None
    if usage:
        print(f"hamiltonian: {usage}", file=sys.stderr)
        return 2
    if single:
        n, what = args.n, "hamiltonian"
    else:
        circuit = bind(parse_circuit(_read_priced_text(args.circuit, CIRCUIT_BYTES_PER_BYTE)),
                       _load_params(args.params))
        n, what = circuit.n, "hamiltonian --circuit"
    _require_memory(what, n, TEXT_BYTES_PER_AMP, CHECK_MATRICES if args.check else 0)
    if single:
        circuit = Circuit(n, (GateOp(args.j, parse_gate_spec(args.gate), args.i),))
    groups = circuit_hamiltonians(circuit)
    check_json_size(h for g in groups for h in g.hamiltonians)
    chunks = groups[0].hamiltonians[0].json_chunks() if single else circuit_json_chunks(n, groups)
    _write(_ended(chunks), args.output)
    if args.check:
        error = reconstruction_error(circuit, groups)
        print(f"reconstruction_error={error!r}")
        # Products accumulate; a circuit scales the per-factor tolerance by 10*K.
        return 0 if error <= (tol if single else 10 * max(1, len(circuit.ops)) * tol) else 1
    return 0


def _read_priced_text(path: str, bytes_per_byte: int) -> str:
    """The text of an input file, read only after its parse is priced at
    bytes_per_byte per byte of file."""
    file = Path(path)
    _require_bytes(f"parsing {path}", file.stat().st_size * bytes_per_byte)
    return file.read_text(encoding="utf-8")


def _load_params(path: str | None) -> dict:
    """The JSON object in the file at path; bind judges its values."""
    if path is None:
        return {}
    data = json.loads(_read_priced_text(path, JSON_BYTES_PER_BYTE))
    if not isinstance(data, dict):
        raise ValueError("params file must hold a JSON object of name -> value")
    return data


def cmd_run(args) -> int:
    tol = _tolerance(args)
    circuit = bind(parse_circuit(_read_priced_text(args.circuit, CIRCUIT_BYTES_PER_BYTE)),
                   _load_params(args.params))
    _require_memory("run", circuit.n, RUN_BYTES_PER_AMP, CHECK_MATRICES if args.oracle else 0)
    if args.input is not None:
        state = StateVector.from_json(_read_priced_text(args.input, JSON_BYTES_PER_BYTE))
    else:
        state = StateVector.zero(circuit.n)
    initial = state.copy() if args.oracle else None
    result = run_circuit(circuit, state)
    _write([amplitudes_csv(result) if args.amplitudes else probabilities_csv(result)], args.output)
    if args.oracle:
        deviation = oracle_deviation(circuit, initial, result)
        print(f"oracle_deviation={deviation!r}")
        return 0 if deviation <= tol else 1
    return 0


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    low = 1 if args.suite == "strings" else 2
    if not low <= args.n <= DENSE_MAX_QUBITS:
        raise ValueError(f"--suite {args.suite} needs -n in {low}..{DENSE_MAX_QUBITS}, got {args.n}")
    if args.circuits < 1:
        raise ValueError(f"--circuits must be at least 1, got {args.circuits}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    _require_memory("verify", args.n, 0, CHECK_MATRICES)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []

    def record(label: str, csv_text: str, worst: float, threshold: float):
        (out_dir / f"{label}.csv").write_text(csv_text, encoding="utf-8")
        status = "PASS" if worst <= threshold else "FAIL"
        print(f"{status} {label} max_error={worst!r}")
        if worst > threshold:
            failures.append(label)

    if args.suite == "crx":
        for i in range(1, args.n + 1):
            for j in range(1, args.n + 1):
                if i == j:
                    continue
                sweep = gate_hamiltonian_sweep(args.n, i, j)
                record(sweep.label, sweep.to_csv(), sweep.max_error, tol)
    elif args.suite == "strings":
        for axis in ("X", "Y", "Z"):
            sweep = string_hamiltonian_sweep(args.n, axis)
            record(sweep.label, sweep.to_csv(), sweep.max_error, tol)
    else:  # engine
        deviations = engine_equivalence_deviations(
            args.circuits, max_qubits=args.n, seed=args.seed
        )
        # Chains of up to verify.MAX_GATES gates accumulate; allow 10x the per-gate tol.
        record(f"engine_n{args.n}", deviations_csv(deviations), max(deviations), 10 * tol)
    if failures:
        print("exceeded tolerance: " + ", ".join(failures))
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. Parsing never
    mutates it: each call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sparseq",
        description="2-sparse gate builder, Hamiltonian extractor and state-vector simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-gate", help="write the 2-sparse gate matrix as JSON")
    build.add_argument("-n", type=int, required=True, help="register size")
    build.add_argument("-i", type=int, default=None, help="control qubit (omit for single-qubit)")
    build.add_argument("-j", type=int, required=True, help="target qubit")
    build.add_argument("--gate", required=True, help="gate spec, e.g. x or rx:0.5")
    build.add_argument("--dense", action="store_true", help="also embed the dense matrix")
    build.add_argument("-o", "--output", default=None)

    ham = sub.add_parser("hamiltonian", help="extract the local Hamiltonian as JSON")
    ham.add_argument("-n", type=int, default=None)
    ham.add_argument("-i", type=int, default=None)
    ham.add_argument("-j", type=int, default=None)
    ham.add_argument("--gate", default=None)
    ham.add_argument("--circuit", default=None, help="circuit file instead of a single gate")
    ham.add_argument("--params", default=None, help="JSON file of parameter values")
    ham.add_argument("--check", action="store_true", help="print the reconstruction error")
    ham.add_argument("-o", "--output", default=None)
    ham.add_argument("--tol", type=float, default=None)

    run = sub.add_parser("run", help="simulate a circuit file")
    run.add_argument("circuit")
    run.add_argument("--params", default=None)
    run.add_argument("--input", default=None, help="JSON state file (default |0...0>)")
    run.add_argument("--amplitudes", action="store_true", help="print amplitudes, not probabilities")
    run.add_argument("--oracle", action="store_true", help="cross-check against the dense chain")
    run.add_argument("-o", "--output", default=None)
    run.add_argument("--tol", type=float, default=None)

    ver = sub.add_parser("verify", help="run an error-sweep suite, write CSVs")
    ver.add_argument("--suite", choices=("crx", "strings", "engine"), required=True)
    ver.add_argument("-n", type=int, default=4)
    ver.add_argument("--circuits", type=int, default=50)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--out-dir", default=".")
    ver.add_argument("--tol", type=float, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Looked up at call time, so that a replaced cmd_* takes effect.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (CircuitParseError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (CircuitBindError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"validation error: register too large for memory: {exc}", file=sys.stderr)
        return 3
    except NormDriftError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
