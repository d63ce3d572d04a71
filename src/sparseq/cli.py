"""Command-line interface: gate builders, Hamiltonian extraction, circuit
execution, and verification sweeps with stable file outputs.

Exit codes: 0 success, 1 verification exceedance, 2 usage or parse error,
3 validation error, a register too large for memory or a tolerance that is
not a finite number >= 0 included. The QSIM_TOL environment variable
overrides the default tolerance of 1e-12; an explicit --tol beats both.

Dense checks above DENSE_MAX_QUBITS and verify sizes out of range exit 3
before any output. Before a command allocates its state, packed Hamiltonians
or dense check matrices, it estimates their peak bytes and refuses (exit 3)
when the estimate exceeds MemAvailable in /proc/meminfo. Estimates up to
BUDGET_FREE_BYTES skip that read.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .circuit_ir import (
    CircuitBindError,
    CircuitParseError,
    GATES,
    bind,
    circuit_hamiltonians,
    groups_unitary,
    parse_circuit,
)
from .core import OneQubitGate, rotation_gate
from .engine import StateVector, probabilities_csv, run_circuit
from .gate_matrix import (
    DENSE_MAX_QUBITS,
    ControlledGateSpec,
    check_dense_cap,
    controlled_sparse,
    embedded_sparse,
)
from .hamiltonian import controlled_gate_hamiltonian, embedded_gate_hamiltonian, exp_minus_ih
from .verify import (
    dense_chain,
    dense_circuit_unitary,
    engine_equivalence_deviations,
    frobenius_error,
    gate_hamiltonian_sweep,
    string_hamiltonian_sweep,
)

DEFAULT_TOL = 1e-12

#: Allocation estimates up to this many bytes run without reading MemAvailable.
BUDGET_FREE_BYTES = 256 << 20

# Peak memory per unit of work, measured with child ru_maxrss (CPython 3.11,
# numpy 2.4) and rounded up. `run` holds about 200 bytes per amplitude: the
# state and the Python text of its output line. TERM_BYTES and
# TERM_BUILD_BYTES price a Hamiltonian as packed terms. That over-counts its
# O(1) stored form, but they stay as the only guard that refuses terabytes of
# schema-1 text. Counted in complex 2^n x 2^n matrices alive at once: 6 for a
# gate's --check, the run oracle or a crx or engine sweep, 12 for a circuit's
# --check or a strings sweep, 2 for --dense: it streams its rows, but a
# caller that captures stdout holds all of its text.
RUN_BYTES_PER_AMP = 208
SPARSE_BYTES_PER_ROW = 80
TERM_BYTES = 56
TERM_BUILD_BYTES = 112
CHECK_MATRICES = 6
CIRCUIT_CHECK_MATRICES = 12
DENSE_JSON_MATRICES = 2


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
    exceed MemAvailable. n is clamped to 0..64 so that a hostile register
    size stays a small integer: 2^64 of anything exceeds every memory."""
    dim = 1 << min(max(n, 0), 64)
    nbytes = dim * per_amp + matrices * 16 * dim * dim
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


def _with_dense(sparse):
    """The gate's text with "dense": to_dense() as rows of [re, im] pairs, as
    json.dumps writes them. Each row is zeros around the row's stored slots,
    so no dense matrix is built."""
    *head, tail = sparse.json_chunks()
    yield from head
    yield tail[:-1] + ', "dense": ['
    zero = "[0.0, 0.0]"
    for k, (cols, vals) in enumerate(zip(sparse.cols.tolist(), sparse.vals.tolist())):
        row = [zero] * sparse.dim
        for c, v in zip(cols, vals):
            if c >= 0:
                row[c] = json.dumps([v.real, v.imag])
        yield ("[" if k == 0 else ", [") + ", ".join(row) + "]"
    yield "]}"


def _circuit_json(n: int, groups):
    """Schema-1 text of a circuit's Hamiltonian groups, in pieces:
    {"schema": 1, "n": n, "groups": [{"kind": k, "hamiltonians": [...]}, ...]}."""
    yield f'{{"schema": 1, "n": {n}, "groups": ['
    for k, g in enumerate(groups):
        yield f'{", " if k else ""}{{"kind": "{g.kind}", "hamiltonians": ['
        for m, h in enumerate(g.hamiltonians):
            if m:
                yield ", "
            yield from h.json_chunks()
        yield "]}"
    yield "]}"


def _build_sparse(args):
    u = parse_gate_spec(args.gate)
    if args.i is None:
        return embedded_sparse(args.n, args.j, u)
    return controlled_sparse(ControlledGateSpec(args.n, args.i, args.j, u))


def cmd_build_gate(args) -> int:
    _require_memory(
        "build-gate", args.n, SPARSE_BYTES_PER_ROW, DENSE_JSON_MATRICES if args.dense else 0
    )
    sparse = _build_sparse(args)
    _write(_ended(_with_dense(sparse) if args.dense else sparse.json_chunks()), args.output)
    return 0


def cmd_hamiltonian(args) -> int:
    tol = _tolerance(args)
    if args.circuit is None:
        if args.gate is None or args.n is None or args.j is None:
            print("hamiltonian: need --gate with -n/-j, or --circuit", file=sys.stderr)
            return 2
        _require_memory(
            "hamiltonian", args.n, TERM_BYTES + TERM_BUILD_BYTES, CHECK_MATRICES if args.check else 0
        )
        u = parse_gate_spec(args.gate)
        if args.i is None:
            h = embedded_gate_hamiltonian(args.n, args.j, u)
        else:
            h = controlled_gate_hamiltonian(args.n, args.i, args.j, u)
        _write(_ended(h.json_chunks()), args.output)
        if args.check:
            error = frobenius_error(_build_sparse(args).to_dense(), exp_minus_ih(h))
            print(f"reconstruction_error={error!r}")
            return 0 if error <= tol else 1
        return 0
    template = parse_circuit(Path(args.circuit).read_text(encoding="utf-8"))
    params = _load_params(args.params)
    circuit = bind(template, params)
    if args.check:
        check_dense_cap(circuit.n)
    _require_memory(
        "hamiltonian --circuit", circuit.n, TERM_BYTES * len(circuit.ops) + TERM_BUILD_BYTES,
        CIRCUIT_CHECK_MATRICES if args.check else 0,
    )
    groups = circuit_hamiltonians(circuit)
    _write(_ended(_circuit_json(circuit.n, groups)), args.output)
    if args.check:
        error = frobenius_error(
            dense_circuit_unitary(circuit), groups_unitary(groups, 1 << circuit.n)
        )
        print(f"reconstruction_error={error!r}")
        # Products accumulate; scale the per-factor tolerance by 10*K.
        return 0 if error <= 10 * max(1, len(circuit.ops)) * tol else 1
    return 0


def _load_params(path: str | None) -> dict[str, float]:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("params file must hold a JSON object of name -> value")
    params = {}
    for k, v in data.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"parameter {k!r} must be a number, got {v!r}")
        try:
            params[str(k)] = float(v)
        except OverflowError:
            raise ValueError(f"parameter {k!r} is out of float range") from None
    return params


def cmd_run(args) -> int:
    tol = _tolerance(args)
    template = parse_circuit(Path(args.circuit).read_text(encoding="utf-8"))
    circuit = bind(template, _load_params(args.params))
    if args.oracle:
        check_dense_cap(circuit.n)
    _require_memory("run", circuit.n, RUN_BYTES_PER_AMP, CHECK_MATRICES if args.oracle else 0)
    if args.input is not None:
        state = StateVector.from_json(Path(args.input).read_text(encoding="utf-8"))
        if state.n != circuit.n:
            raise ValueError(
                f"input state has {state.n} qubits, circuit {circuit.n}"
            )
    else:
        state = StateVector.zero(circuit.n)
    initial = state.copy() if args.oracle else None
    result = run_circuit(circuit, state)
    if args.amplitudes:
        lines = ["index,re,im"]
        lines += [
            f"{k},{float(a.real) + 0.0!r},{float(a.imag) + 0.0!r}"
            for k, a in enumerate(result.amps)
        ]
        _write(["\n".join(lines) + "\n"], args.output)
    else:
        _write([probabilities_csv(result)], args.output)
    if args.oracle:
        reference = dense_chain(circuit, initial)
        deviation = float(np.max(np.abs(result.amps - reference.amps)))
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
    _require_memory(
        "verify", args.n, 0, CIRCUIT_CHECK_MATRICES if args.suite == "strings" else CHECK_MATRICES
    )
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
                sweep = gate_hamiltonian_sweep(args.n, i, j, "X")
                record(sweep.label, sweep.to_csv(), sweep.max_error, tol)
    elif args.suite == "strings":
        for axis in ("X", "Y", "Z"):
            sweep = string_hamiltonian_sweep(args.n, axis)
            record(sweep.label, sweep.to_csv(), sweep.max_error, tol)
    else:  # engine
        deviations = engine_equivalence_deviations(
            args.circuits, max_qubits=args.n, seed=args.seed
        )
        lines = ["circuit,deviation"]
        lines += [f"{k},{d!r}" for k, d in enumerate(deviations)]
        # Chains of up to 20 gates accumulate; allow 10x the per-gate tol.
        record(f"engine_n{args.n}", "\n".join(lines) + "\n", max(deviations), 10 * tol)
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


if __name__ == "__main__":
    sys.exit(main())
