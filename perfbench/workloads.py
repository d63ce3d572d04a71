"""The benchmark's workloads: seeded inputs, the timed operation and its checks.

Every input is generated here from the seed, so the program under test only
ever receives circuit files, parameter files and bound circuits. Each op is
called through the module attribute (``cli.main``, ``circuit_ir.bind``,
``engine.run_circuit``) so that the traced run sees the wrapped functions.

Checks follow an independent route: the sparse matrix of a sampled gate
(``SparseUnitary.matvec``) against the engine kernel at full size, the dense
Kronecker chain (``verify.dense_circuit_unitary``) against the engine for the
same generator at n <= 6, and the final norm. Checks that need memory of the
order of the state run after the timed loop (``finish``), so they do not
raise the workload's peak RSS.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
from sparseq import circuit_ir, cli, engine
from sparseq.engine import StateVector
from sparseq.gate_matrix import ControlledGateSpec, controlled_sparse, embedded_sparse
from sparseq.verify import dense_circuit_unitary

#: Max amplitude deviation and norm error accepted by every check.
TOL = 1e-10

#: Register size of the dense generator checks (dense oracles are O(4^n)).
SMALL_N = 6

#: The sweep's ops take milliseconds, so its dense generator check runs on
#: every GENERATOR_CHECK_EVERY-th op only; the other workloads check every op.
GENERATOR_CHECK_EVERY = 10

#: Seed key of warm-up inputs, far from the op indices 0, 1, 2, ...
WARM_KEY = 1 << 30

#: Untimed full-size ops before the timed loop, where an op takes well
#: under a second.
WARM_OPS = 3


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def hea_source(n: int, layers: int) -> str:
    """Hardware-efficient ansatz: per layer three rx columns, then a crx chain."""
    lines = [f"qubits {n}"]
    for layer in range(1, layers + 1):
        for col in range(1, 4):
            lines += [f"rx q{q} $t{q}_{col}_{layer}" for q in range(1, n + 1)]
        lines += [f"crx q{q} q{q + 1} $e{q}_{layer}" for q in range(1, n)]
    return "\n".join(lines) + "\n"


def hea_params(n: int, layers: int, rng: np.random.Generator) -> dict[str, float]:
    names = [f"t{q}_{col}_{layer}" for layer in range(1, layers + 1)
             for col in range(1, 4) for q in range(1, n + 1)]
    names += [f"e{q}_{layer}" for layer in range(1, layers + 1) for q in range(1, n)]
    return {name: float(rng.uniform(-math.pi, math.pi)) for name in names}


def _entries_text(m: np.ndarray) -> str:
    return " ".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in m.reshape(-1))


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    a, b, c, d = rng.uniform(-math.pi, math.pi, size=4)
    rz = lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])  # noqa: E731
    ry = np.array([[math.cos(b / 2), -math.sin(b / 2)], [math.sin(b / 2), math.cos(b / 2)]])
    return np.exp(1j * d) * (rz(a) @ ry @ rz(c))


#: Gate kinds of the mixed circuits, in the order the tracer names them.
MIXED_KINDS = ("single", "single_diag", "ctrl_above", "ctrl_below", "ctrl_diag")

#: Seed key of the target walks of the mixed circuits.
WALK_KEY = 1 << 29


def _walk(seed: int, k: int, kind: int, lo: int, hi: int) -> int:
    """Target of op k for one kind: ops walk a seeded permutation of lo..hi,
    a fresh one every hi - lo + 1 ops, so every run of a few dozen ops and
    more carries close to the same mix of target positions."""
    m = hi - lo + 1
    return lo + int(rng_for(seed, WALK_KEY, k // m, kind).permutation(m)[k % m])


def mixed_source(n: int, seed: int, k: int) -> str:
    """Random bound circuit of op k: one gate of each kind in MIXED_KINDS.

    Targets come from _walk; gate names, angles, controls and the order of
    the five gates are seeded per op.
    """
    rng = rng_for(seed, k)
    angle = lambda: repr(float(rng.uniform(-math.pi, math.pi)))  # noqa: E731
    stmts = []
    j = _walk(seed, k, 0, 1, n)
    name = ("rx", "ry", "h", "u")[rng.integers(4)]
    if name == "h":
        stmts.append(f"u q{j} h")
    elif name == "u":
        stmts.append(f"u q{j} " + _entries_text(_random_unitary(rng)))
    else:
        stmts.append(f"{name} q{j} {angle()}")
    j = _walk(seed, k, 1, 1, n)
    name = ("rz", "s", "t", "z")[rng.integers(4)]
    stmts.append(f"rz q{j} {angle()}" if name == "rz" else f"u q{j} {name}")
    for above in (True, False):
        j = _walk(seed, k, 2, 2, n) if above else _walk(seed, k, 3, 1, n - 1)
        i = int(rng.integers(1, j)) if above else int(rng.integers(j + 1, n + 1))
        name = ("crx", "cry", "cx", "ch", "cu")[rng.integers(5)]
        if name in ("crx", "cry"):
            stmts.append(f"{name} q{i} q{j} {angle()}")
        elif name == "cu":
            stmts.append(f"cu q{i} q{j} " + _entries_text(_random_unitary(rng)))
        else:
            stmts.append(f"{name} q{i} q{j}")
    j = _walk(seed, k, 4, 1, n)
    i = int(rng.choice([q for q in range(1, n + 1) if q != j]))
    stmts.append(f"crz q{i} q{j} {angle()}" if rng.integers(2) else f"cz q{i} q{j}")
    rng.shuffle(stmts)
    return "\n".join([f"qubits {n}"] + stmts) + "\n"


def _dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def sparse_gate_dev(state: StateVector, op: engine.GateOp) -> float:
    """Engine kernel against SparseUnitary.matvec for one gate on state."""
    if op.i is None:
        sparse = embedded_sparse(state.n, op.j, op.u)
    else:
        sparse = controlled_sparse(ControlledGateSpec(state.n, op.i, op.j, op.u))
    expected = sparse.matvec(state.amps)
    got = engine.apply_op(state.copy(), op).amps
    dev = _dev(got, expected)
    _require(dev <= TOL, f"gate {op.name} q{op.i}->q{op.j}: kernel deviates by {dev!r}")
    return dev


def dense_circuit_dev(circuit: engine.Circuit) -> float:
    """Engine run from |0...0> against the dense Kronecker chain."""
    got = engine.run_circuit(circuit).amps
    expected = dense_circuit_unitary(circuit)[:, 0]
    dev = _dev(got, expected)
    _require(dev <= TOL, f"n={circuit.n} circuit deviates from the dense oracle by {dev!r}")
    return dev


def norm_dev(amps: np.ndarray) -> float:
    dev = abs(math.sqrt(np.vdot(amps, amps).real) - 1.0)
    _require(dev <= TOL, f"final norm is off by {dev!r}")
    return dev


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def bound(source: str, params: dict[str, float] | None = None) -> engine.Circuit:
    return circuit_ir.bind(circuit_ir.parse_circuit(source), params)


class Workload:
    """One closed-loop workload; subclasses fill in the hooks below."""

    name = ""
    default_n = 0

    def __init__(self, seed: int, n: int | None, work_dir: Path):
        self.seed = seed
        self.n = n or self.default_n
        self.work_dir = work_dir
        self.max_dev = 0.0
        self.outputs: dict[str, str] = {}

    def warm_up(self):
        """Untimed run through the op's code path, at a small size."""

    def prepare(self, k: int):
        """Inputs of op k, made outside the timed region."""

    def op(self, inputs):
        raise NotImplementedError

    def check(self, k: int, inputs, output):
        """Untimed cheap check of op k; raises CheckFailed."""

    def finish(self, done: list[int]) -> dict[int, str]:
        """Checks deferred past the timed loop; returns failed op -> reason."""
        return {}

    def _track(self, dev: float) -> float:
        self.max_dev = max(self.max_dev, dev)
        return dev


class _CliWorkload(Workload):
    """Ops that call ``sparseq.cli.main`` on fixed files and write one output
    file. Every op gets the same inputs, so every op must write the same
    bytes; the content is then checked once after the loop."""

    output_name = ""

    def __init__(self, seed, n, work_dir):
        super().__init__(seed, n, work_dir)
        self.output = work_dir / self.output_name
        self.digest: str | None = None

    def _write_inputs(self, tag: str, n: int, layers: int) -> list[str]:
        circuit = self.work_dir / f"{tag}.sq"
        params = self.work_dir / f"{tag}.json"
        circuit.write_text(hea_source(n, layers), encoding="utf-8")
        params.write_text(json.dumps(hea_params(n, layers, rng_for(self.seed))), encoding="utf-8")
        return [str(circuit), str(params)]

    def op(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def prepare(self, k):
        return self.argv

    def finish(self, done):
        try:
            self._check_content()
            small = min(self.n, SMALL_N)
            self._track(dense_circuit_dev(
                bound(hea_source(small, self.layers), hea_params(small, self.layers, rng_for(self.seed)))
            ))
        except CheckFailed as exc:
            return {k: str(exc) for k in done}
        return {}

    def _check_content(self):
        """Checks the output file the identical ops all wrote."""

    def check(self, k, argv, output):
        code, stdout = output
        _require(code == 0, f"exit code {code}")
        digest = file_sha256(self.output)
        if self.digest is None:
            self.digest = digest
            self.outputs[self.output_name] = digest
        _require(digest == self.digest, "output differs from the first op's output")
        return stdout


class RunHea(_CliWorkload):
    name = "run_hea_n20"
    default_n = 20
    layers = 2
    output_name = "out.csv"
    sampled_gates = 3

    def __init__(self, seed, n, work_dir):
        super().__init__(seed, n, work_dir)
        circuit, params = self._write_inputs("hea", self.n, self.layers)
        self.argv = ["run", circuit, "--params", params, "-o", str(self.output)]

    def warm_up(self):
        circuit, params = self._write_inputs("warm", 4, 1)
        self.op(["run", circuit, "--params", params, "-o", str(self.work_dir / "warm.csv")])

    def _check_content(self):
        header, _, body = self.output.read_text(encoding="utf-8").partition("\n")
        _require(header == "index,probability", f"bad CSV header {header!r}")
        rows = np.fromstring(body.replace("\n", ","), sep=",").reshape(-1, 2)
        _require(rows.shape[0] == 1 << self.n, f"CSV has {rows.shape[0]} rows")
        _require(bool(np.all(rows[:, 0] == np.arange(1 << self.n))), "CSV index column")
        amps = np.sqrt(rows[:, 1])
        self._track(norm_dev(amps))
        # A real state with these probabilities carries the sampled-gate checks.
        state = StateVector(self.n, amps)
        circuit = bound(hea_source(self.n, self.layers), hea_params(self.n, self.layers, rng_for(self.seed)))
        picks = rng_for(self.seed, 1).choice(len(circuit.ops), self.sampled_gates, replace=False)
        for g in picks:
            self._track(sparse_gate_dev(state, circuit.ops[int(g)]))


class HamiltonianHea(_CliWorkload):
    name = "hamiltonian_hea_n6"
    default_n = 6
    layers = 1
    output_name = "h.json"

    def __init__(self, seed, n, work_dir):
        super().__init__(seed, n, work_dir)
        circuit, params = self._write_inputs("hea", self.n, self.layers)
        self.argv = ["hamiltonian", "--circuit", circuit, "--params", params,
                     "--check", "-o", str(self.output)]
        # The CLI's own bound for its --check: 10 * gates * 1e-12.
        self.tol = 10 * (4 * self.n - 1) * self.layers * 1e-12

    def warm_up(self):
        for _ in range(WARM_OPS):
            self.op(self.argv)

    def check(self, k, argv, output):
        stdout = super().check(k, argv, output)
        m = re.search(r"^reconstruction_error=(\S+)$", stdout, re.M)
        _require(m is not None, "no reconstruction_error= line")
        error = self._track(float(m.group(1)))
        _require(error <= self.tol, f"reconstruction error {error!r} above {self.tol!r}")

    def _check_content(self):
        with open(self.output, "rb") as f:
            head = f.read(64)
        prefix = f'{{"schema": 1, "n": {self.n}, "groups": [{{"kind": '.encode()
        _require(head.startswith(prefix), f"unexpected JSON start {head[:40]!r}")


class KernelsMixed(Workload):
    name = "kernels_mixed_n22"
    default_n = 22
    sampled_ops = 2

    def __init__(self, seed, n, work_dir):
        super().__init__(seed, n, work_dir)
        self.state = StateVector.zero(self.n)
        self.circuits: dict[int, engine.Circuit] = {}

    def warm_up(self):
        # Full-size ops, so no timed op pays for first page faults.
        for k in range(WARM_OPS):
            self.op(self.prepare(WARM_KEY + k))

    def prepare(self, k):
        circuit = bound(mixed_source(self.n, self.seed, k))
        self.circuits[k] = circuit
        # Reset and touch the whole state outside the timed region.
        self.state.amps.fill(0)
        self.state.amps[0] = 1.0
        return circuit

    def op(self, circuit):
        return engine.run_circuit(circuit, self.state)

    def check(self, k, circuit, state):
        self._track(norm_dev(state.amps))
        self._track(dense_circuit_dev(bound(mixed_source(min(self.n, SMALL_N), self.seed, k))))

    def finish(self, done):
        # A full-size SparseUnitary costs several times the state's memory and
        # about a second, so a seeded sample of ops gets one gate each, applied
        # to the last op's final state.
        failed = {}
        picks = rng_for(self.seed, 1).choice(done, min(self.sampled_ops, len(done)), replace=False)
        for k in sorted(int(k) for k in picks):
            ops = self.circuits[k].ops
            op = ops[int(rng_for(self.seed, k, 1).integers(len(ops)))]
            try:
                self._track(sparse_gate_dev(self.state, op))
            except CheckFailed as exc:
                failed[k] = str(exc)
        return failed


class SweepHea(Workload):
    name = "sweep_hea_n10"
    default_n = 10
    layers = 2

    def __init__(self, seed, n, work_dir):
        super().__init__(seed, n, work_dir)
        self.template = circuit_ir.parse_circuit(hea_source(self.n, self.layers))
        self.small = circuit_ir.parse_circuit(hea_source(min(self.n, SMALL_N), self.layers))

    def warm_up(self):
        for k in range(20):
            self.op(self.prepare(WARM_KEY + k))

    def prepare(self, k):
        return hea_params(self.n, self.layers, rng_for(self.seed, k))

    def op(self, params):
        circuit = circuit_ir.bind(self.template, params)
        state = engine.run_circuit(circuit)
        return circuit, state, state.probabilities()

    def check(self, k, params, output):
        circuit, state, probs = output
        self._track(norm_dev(np.sqrt(probs)))
        op = circuit.ops[int(rng_for(self.seed, k, 1).integers(len(circuit.ops)))]
        self._track(sparse_gate_dev(state, op))
        if k % GENERATOR_CHECK_EVERY == 0:
            self._track(dense_circuit_dev(circuit_ir.bind(self.small, params)))


WORKLOADS = {w.name: w for w in (RunHea, KernelsMixed, SweepHea, HamiltonianHea)}
