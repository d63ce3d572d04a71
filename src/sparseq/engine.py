"""O(2^n)-per-gate state-vector kernels and circuit execution.

Gates update amplitude pairs (k, k + 2^(n-j)) in place, through the strided
views that qindex.pair_views gives of the state: both new values of a pair
depend only on the pair's old values, so reading both views before writing
them back is safe and avoids a second buffer. Controlled gates touch only
the half of the register whose control bit is 1. A diagonal gate (rz, s,
t, z, cz, crz, or any u whose off-diagonal entries are exactly 0) is one
in-place multiply per half, and a half whose entry is exactly 1 is not
touched at all. The sign of an exact zero amplitude is therefore not
meaningful, and the text writers print every exact zero as 0.0.
"""
from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import OneQubitGate
from .qindex import check_placement, pair_views

#: Norm tolerance at construction and after a whole circuit.
NORM_TOL = 1e-10

#: Max elements mixed per scratch buffer. Keeps the working set inside the
#: cache and avoids re-faulting large fresh temporaries on every gate.
_CHUNK = 1 << 14

_tls = threading.local()


def _scratch() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    bufs = getattr(_tls, "bufs", None)
    if bufs is None:
        bufs = tuple(np.empty(_CHUNK, dtype=complex) for _ in range(3))
        _tls.bufs = bufs
    return bufs


def _mix_pairs(a0: np.ndarray, a1: np.ndarray, u: OneQubitGate):
    """(a0, a1) <- (u11 a0 + u12 a1, u21 a0 + u22 a1), elementwise in place.

    A diagonal u scales each half in place by its own entry and skips a half
    whose entry is exactly 1, so s/t/z/cz touch only the half or quarter of
    the register that changes. The scalar stays the first operand, as in
    _mix_full, so both routes round identically. numpy rounds an in-place
    multiply of a single element without FMA, so a one-element view (n <= 2)
    takes the full mix.
    """
    if u.u12 == 0 and u.u21 == 0 and a0.size > 1:
        if u.u11 != 1:
            np.multiply(u.u11, a0, out=a0)
        if u.u22 != 1:
            np.multiply(u.u22, a1, out=a1)
    else:
        _mix_full(a0, a1, u)


def _mix_full(a0: np.ndarray, a1: np.ndarray, u: OneQubitGate):
    """The general 2x2 mix of _mix_pairs, for any u.

    Both new values depend only on the old pair, so each chunk is computed
    into bounded scratch before writing back. Oversized views are split
    along their outermost axis longer than 1, so a chunk is made of whole
    contiguous rows.
    """
    size = a0.size
    if size > _CHUNK:
        ax = next(d for d, k in enumerate(a0.shape) if k > 1)
        mid = a0.shape[ax] // 2
        lo = (slice(None),) * ax + (slice(0, mid),)
        hi = (slice(None),) * ax + (slice(mid, None),)
        _mix_full(a0[lo], a1[lo], u)
        _mix_full(a0[hi], a1[hi], u)
        return
    s0, s1, s2 = _scratch()
    n0 = s0[:size].reshape(a0.shape)
    n1 = s1[:size].reshape(a0.shape)
    t = s2[:size].reshape(a0.shape)
    np.multiply(u.u11, a0, out=n0)
    np.multiply(u.u12, a1, out=t)
    np.add(n0, t, out=n0)
    np.multiply(u.u21, a0, out=n1)
    np.multiply(u.u22, a1, out=t)
    np.add(n1, t, out=n1)
    a0[...] = n0
    a1[...] = n1


def _norm(a: np.ndarray) -> float:
    """sqrt(<a|a>) in one pass over a, unlike np.linalg.norm."""
    return math.sqrt(np.vdot(a, a).real)


class StateVector:
    """2^n complex amplitudes, unit norm; qubit 1 is the most significant bit."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray | None = None):
        if n < 1:
            raise ValueError("need at least one qubit")
        dim = 1 << n
        if amps is None:
            amps = np.zeros(dim, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.array(amps, dtype=complex).reshape(-1)
            if amps.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, got {amps.shape[0]}")
            # Written so that NaN or inf amplitudes fail the check too.
            if not abs(_norm(amps) - 1.0) <= NORM_TOL:
                raise ValueError("amplitudes are not normalized")
        self.n = n
        self.amps = amps

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        return cls(n)

    @classmethod
    def basis(cls, n: int, k: int) -> "StateVector":
        if not 0 <= k < (1 << n):
            raise ValueError(f"basis index {k} out of range for {n} qubits")
        amps = np.zeros(1 << n, dtype=complex)
        amps[k] = 1.0
        return cls(n, amps)

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out.n = self.n
        out.amps = self.amps.copy()
        return out

    def norm(self) -> float:
        return _norm(self.amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def to_json(self) -> str:
        # + 0.0 prints an exact zero as 0.0, whichever sign the kernels left it
        return json.dumps([[float(a.real) + 0.0, float(a.imag) + 0.0] for a in self.amps])

    @classmethod
    def from_json(cls, text: str) -> "StateVector":
        pairs = np.array(json.loads(text))  # ragged nesting raises ValueError here
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iuf":
            raise ValueError("state must be a JSON array of [re, im] number pairs")
        n = (len(pairs) - 1).bit_length()
        if len(pairs) != 1 << n:
            raise ValueError(f"amplitude count {len(pairs)} is not a power of 2")
        amps = np.empty(len(pairs), dtype=complex)
        amps.real, amps.imag = pairs[:, 0], pairs[:, 1]
        return cls(n, amps)


@dataclass(frozen=True)
class GateOp:
    """One gate: single-qubit when i is None, controlled otherwise.

    name records the statement the matrix came from; it never affects how
    the gate is applied.
    """

    j: int
    u: OneQubitGate
    i: int | None = None
    name: str = "u"

    @property
    def is_controlled(self) -> bool:
        return self.i is not None


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over an n-qubit register, fully bound."""

    n: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            check_placement(self.n, op.j, op.i)


def apply_op(state: StateVector, op: GateOp) -> StateVector:
    """Apply op in place: one pass of paired multiply-adds over the pair
    views of its placement; a controlled op leaves control-0 amplitudes as
    they are."""
    _mix_pairs(*pair_views(state.amps, state.n, op.j, op.i), op.u)
    return state


def run_circuit(circuit: Circuit, state: StateVector | None = None) -> StateVector:
    """Apply all ops left to right, in place; fresh |0...0> when no input.

    The norm is checked once, after the last gate: a per-gate check would
    cost a full state pass per gate.
    """
    if state is None:
        state = StateVector.zero(circuit.n)
    if state.n != circuit.n:
        raise ValueError(f"state has {state.n} qubits, circuit {circuit.n}")
    for op in circuit.ops:
        apply_op(state, op)
    drift = abs(state.norm() - 1.0)
    if not drift <= NORM_TOL:
        raise RuntimeError(f"circuit broke normalization: |norm - 1| = {drift:.3e}")
    return state


def probabilities_csv(state: StateVector) -> str:
    lines = ["index,probability"]
    lines += [f"{k},{float(p)!r}" for k, p in enumerate(state.probabilities())]
    return "\n".join(lines) + "\n"
