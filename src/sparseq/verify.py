"""Dense oracles and error-sweep harness.

Everything here recomputes results along an independent route: Kronecker
products instead of sparse assembly and instead of the rank-1 exponential,
dense matrix-vector chains instead of the pair-update kernels. The circuit
unitary applies each gate's Kronecker factors to the axes of one identity
matrix by reshapes, O(4^n) per gate, without forming a gate matrix or
taking an index from qindex. reconstruction_error and oracle_deviation
compute the two checks the CLI prints; the crx and engine sweeps record
them over a theta grid and over random circuits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit_ir import circuit_hamiltonians, groups_unitary
from .core import OneQubitGate, rotation_gate
from .engine import Circuit, GateOp, StateVector, run_circuit
from .gate_matrix import check_dense_cap, dense_gate, kron_chain

#: Number of theta samples per sweep.
GRID_POINTS = 100

#: Share of controlled gates in a random circuit.
CONTROLLED_FRACTION = 0.5

#: Most gates in a random circuit of the engine sweep.
MAX_GATES = 20


def frobenius_error(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(sum |a - b|^2) over all entries."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)))


def theta_grid() -> np.ndarray:
    return np.linspace(-math.pi, math.pi, GRID_POINTS)


@dataclass(frozen=True)
class ErrorSweep:
    """Frobenius errors of one gate family over a theta grid."""

    label: str
    thetas: tuple[float, ...]
    errors: tuple[float, ...]

    def __post_init__(self):
        if len(self.thetas) != len(self.errors):
            raise ValueError("theta and error lists differ in length")
        if any(e < 0 for e in self.errors):
            raise ValueError("errors must be nonnegative")

    @property
    def max_error(self) -> float:
        return max(self.errors)

    def to_csv(self) -> str:
        lines = ["theta,error"]
        lines += [f"{t!r},{e!r}" for t, e in zip(self.thetas, self.errors)]
        return "\n".join(lines) + "\n"


def gate_hamiltonian_sweep(n: int, i: int, j: int) -> ErrorSweep:
    """Per theta of the grid, the check of `hamiltonian --check` on R_X(theta)
    with control i and target j as a one-gate circuit: its Kronecker oracle C
    against e^{-iH} from circuit_hamiltonians, recording ||C - e^{-iH}||_F."""
    thetas = theta_grid()
    errors = [
        reconstruction_error(Circuit(n, (GateOp(j, rotation_gate("X", float(theta)), i),)))
        for theta in thetas
    ]
    return ErrorSweep(f"crx_n{n}_i{i}_j{j}", tuple(float(t) for t in thetas), tuple(errors))


def string_hamiltonian_sweep(n: int, axis: str = "X") -> ErrorSweep:
    """Per theta of the grid: the n-fold tensor power of R_axis(theta) against
    groups_unitary of the string circuit R_axis(theta) on qubits 1..n, whose
    per-qubit Hamiltonian exponentials are applied to one identity matrix,
    O(n 4^n)."""
    check_dense_cap(n)
    thetas = theta_grid()
    errors = []
    for theta in thetas:
        u = rotation_gate(axis, float(theta))
        target = kron_chain([np.asarray(u.matrix)] * n)
        circuit = Circuit(n, tuple(GateOp(j, u) for j in range(1, n + 1)))
        errors.append(frobenius_error(target, groups_unitary(circuit_hamiltonians(circuit), n)))
    return ErrorSweep(
        f"strings_{axis.lower()}_n{n}", tuple(float(t) for t in thetas), tuple(errors)
    )


def _apply_kron_factors(out: np.ndarray, n: int, op: GateOp) -> None:
    """Left-multiply out in place by op's Kronecker oracle, factor by factor.
    out's rows are viewed as n axes of size 2, qubit 1 first. A controlled
    gate is P0 ⊗ I + P1 ⊗ u: the P0 branch leaves its rows as they are, so
    only the rows with control bit 1 see u, along the target axis."""
    t = out.reshape((2,) * n + (-1,))
    axis = op.j - 1
    if op.i is not None:
        t = t[(slice(None),) * (op.i - 1) + (1,)]
        if op.j > op.i:
            axis -= 1
    moved = np.moveaxis(t, axis, -2)
    moved[...] = op.u.matrix @ moved


def dense_circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit: every gate's Kronecker factors applied to
    the rows of one identity matrix in circuit order, O(K 4^n) for K gates.
    No gate matrix is formed."""
    check_dense_cap(circuit.n)
    out = np.eye(1 << circuit.n, dtype=complex)
    for op in circuit.ops:
        _apply_kron_factors(out, circuit.n, op)
    return out


def dense_chain(circuit: Circuit, state: StateVector) -> StateVector:
    """The circuit applied to state as a dense matrix-vector chain of
    per-gate Kronecker oracles, O(K 4^n). The input state is never modified."""
    for op in circuit.ops:
        state = StateVector(circuit.n, dense_gate(circuit.n, op.j, op.u, op.i) @ state.amps)
    return state


def reconstruction_error(circuit: Circuit, groups=None) -> float:
    """The check of `hamiltonian --check`: ||C - prod e^{-iH}||_F between the
    circuit's Kronecker oracle C and its Hamiltonian groups' exponentials
    applied to the identity. groups defaults to circuit_hamiltonians(circuit)."""
    if groups is None:
        groups = circuit_hamiltonians(circuit)
    return frobenius_error(dense_circuit_unitary(circuit), groups_unitary(groups, circuit.n))


def oracle_deviation(circuit: Circuit, initial: StateVector, result: StateVector) -> float:
    """The check of `run --oracle`: max |result - dense_chain(circuit, initial)|
    over the amplitudes."""
    return float(np.max(np.abs(result.amps - dense_chain(circuit, initial).amps)))


def random_gate(rng: np.random.Generator) -> OneQubitGate:
    """Z-Y-Z Euler product with uniform angles and a uniform global phase."""
    a, b, c, d = rng.uniform(-math.pi, math.pi, size=4)
    m = (
        rotation_gate("Z", a).matrix
        @ rotation_gate("Y", b).matrix
        @ rotation_gate("Z", c).matrix
    )
    return OneQubitGate(np.exp(1j * d) * m)


def random_circuit(rng: np.random.Generator, n: int, gates: int) -> Circuit:
    """Random mix of single-qubit and controlled gates on random positions."""
    ops = []
    for _ in range(gates):
        u = random_gate(rng)
        if n >= 2 and rng.random() < CONTROLLED_FRACTION:
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            ops.append(GateOp(int(j), u, i=int(i)))
        else:
            ops.append(GateOp(int(rng.integers(1, n + 1)), u))
    return Circuit(n, tuple(ops))


def engine_equivalence_deviations(
    circuits: int, max_qubits: int = 8, seed: int = 42
) -> list[float]:
    """Max amplitude deviation between the pair-update engine and the dense
    matrix-vector chain, per random circuit of 1..MAX_GATES gates."""
    rng = np.random.default_rng(seed)
    deviations = []
    for _ in range(circuits):
        n = int(rng.integers(2, max_qubits + 1))
        k = int(rng.integers(1, MAX_GATES + 1))
        circuit = random_circuit(rng, n, k)
        state = StateVector.zero(n)
        deviations.append(oracle_deviation(circuit, state, run_circuit(circuit, state.copy())))
    return deviations


def deviations_csv(deviations: list[float]) -> str:
    """The engine sweep's table: one circuit,deviation row per circuit."""
    lines = ["circuit,deviation"]
    lines += [f"{k},{d!r}" for k, d in enumerate(deviations)]
    return "\n".join(lines) + "\n"
