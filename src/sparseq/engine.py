"""O(2^n)-per-gate state-vector kernels and circuit execution.

mix_pairs, the one pair-mixing kernel (apply_op and the Hamiltonian's
e^{-iH} both run it), mixes in place the index pairs (p, p + 2^(n-j)) of
qindex.pair_views in a state or in the rows of a 2^n x m matrix; a
controlled gate's views hold the control-1 half. It works on aligned chunks
of 2^13 amplitudes that stay in cache (Haener and Steiger, arXiv:1704.01127),
mixing a piece of one row in place and a piece of several strided rows in
scratch. On states of more than two chunks, views whose contiguous run is
2..8 take c0 x + c1 partner(x) per chunk x: c0 and c1 hold k11/k22 and
k12/k21 on the pairs, and 1 and 0 where the control is 0; the partner is a
gather of x, or the partner chunk when the target lies above x. A diagonal
k (k12 = k21 = 0) scales only the halves whose entry is not exactly 1, or a
whole chunk by c0 on those runs. Nonzero amplitudes come out the same on
every route; the text writers print an exact zero of either sign as 0.0.
"""
from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import OneQubitGate
from .qindex import check_placement, pair_indices, pair_views

#: Norm tolerance at construction and after a whole circuit.
NORM_TOL = 1e-10

#: A chunk is 2^13 aligned amplitudes (128 KiB): a chunk pair, its two
#: coefficient vectors and the gather buffer fit in the L2 cache together.
_CHUNK_QUBITS = 13

#: Pair views with a contiguous run of 2.._SHORT_RUN amplitudes take the
#: coefficient vectors, on states of more than two chunks.
_SHORT_RUN = 8

#: Rows per formatted piece of the state CSVs.
_CSV_CHUNK_ROWS = 1 << 14

_tls = threading.local()


class NormDriftError(RuntimeError):
    """The state after a whole circuit is off unit norm by more than NORM_TOL."""


def _scratch() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three thread-local buffers of one chunk pair each."""
    if not hasattr(_tls, "bufs"):
        _tls.bufs = tuple(np.empty(2 << _CHUNK_QUBITS, dtype=complex) for _ in range(3))
    return _tls.bufs


def _pieces(v0: np.ndarray, v1: np.ndarray, size: int):
    """Matching pieces of two same-shape views, whole rows or row segments."""
    if v0.size <= size:
        yield v0, v1
        return
    ax = next(d for d, k in enumerate(v0.shape) if k > 1)
    step = max(v0.shape[ax] * size // v0.size, 1)
    for s in range(0, v0.shape[ax], step):
        cut = (slice(None),) * ax + (slice(s, s + step),)
        yield from _pieces(v0[cut], v1[cut], size)


def _mix(x0, x1, k11, k12, k21, k22, s0, s1):
    """(x0, x1) <- (k11 x0 + k12 x1, k21 x0 + k22 x1) in place, with scratch
    from the buffers s0, s1. Each k is a scalar or a vector, and stays the
    first operand: numpy's complex multiply rounds a*b and b*a apart."""
    t0 = s0[: x0.size].reshape(x0.shape)
    t1 = s1[: x0.size].reshape(x0.shape)
    np.multiply(k12, x1, out=t0)
    np.multiply(k21, x0, out=t1)
    np.multiply(k11, x0, out=x0)
    np.add(x0, t0, out=x0)
    np.multiply(k22, x1, out=x1)
    np.add(x1, t1, out=x1)


def _mix_views(a0: np.ndarray, a1: np.ndarray, k):
    """The general mix of pair views, a chunk-sized piece at a time: in place
    for a piece of one row, else in contiguous scratch, as numpy would push
    several short strided rows through its 8192-element buffer on every op."""
    s0, s1, _ = _scratch()
    size = 1 << _CHUNK_QUBITS
    for x0, x1 in _pieces(a0, a1, size):
        if sum(d > 1 for d in x0.shape) <= 1:
            _mix(x0, x1, *k, s1, s1[size:])
            continue
        y0, y1 = (s0[m : m + x0.size].reshape(x0.shape) for m in (0, size))
        y0[...], y1[...] = x0, x1
        _mix(y0, y1, *k, s1, s1[size:])
        x0[...], x1[...] = y0, y1


def _mix_chunks(amps: np.ndarray, n: int, j: int, i: int | None, k, diag: bool):
    """Apply k at (n, j, i) as c0 x + c1 partner(x) on each chunk x. A control
    above the chunk selects whole chunks; a target above it pairs each chunk
    with its partner chunk, and c0, c1 span the pair."""
    c = min(n, _CHUNK_QUBITS)
    h, size = n - c, 1 << c
    outer = i if i is not None and i <= h else None
    e = int(j <= h)  # 1 when the chunks pair up, and c0, c1 span c + 1 qubits
    lj, li = (1 if e else j - h), (None if i is None or outer else i - h + e)
    region = amps if outer is None else pair_views(amps, n, outer)[1]
    units = _pieces(*pair_views(amps, n, j, outer), size) if e else _pieces(region, region, size)
    k11, k12, k21, k22 = k
    c0, c1, t = (buf[: size << e] for buf in _scratch())
    for coef, low, high, rest in ((c0, k11, k22, 1), (c1, k12, k21, 0)):
        coef.fill(rest)
        v0, v1 = pair_views(coef, c + e, lj, li)
        v0[...], v1[...] = low, high
    if e:
        for x0, x1 in units:
            if not diag:
                _mix(x0, x1, c0[:size], c1[:size], c1[size:], c0[size:], t, t[size:])
                continue
            if k11 != 1:
                np.multiply(c0[:size], x0, out=x0)
            if k22 != 1:
                np.multiply(c0[size:], x1, out=x1)
        return
    perm = np.arange(size)
    low, high = pair_indices(c, lj, li)
    perm[low], perm[high] = high, low
    for x, _ in units:
        if diag:
            np.multiply(c0, x, out=x)
            continue
        np.take(x, perm, out=t, mode="clip")
        np.multiply(c1, t, out=t)
        np.multiply(c0, x, out=x)
        np.add(x, t, out=x)


def _norm(a: np.ndarray) -> float:
    """sqrt(<a|a>) in one pass over a, unlike np.linalg.norm."""
    return math.sqrt(np.vdot(a, a).real)


class StateVector:
    """2^n complex amplitudes, unit norm; qubit 1 is the most significant bit."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray | None = None):
        check_placement(n, 1)
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
        """[[re, im], ...], every exact zero unsigned: x + 0.0 is x for every
        other x, and 0.0 for both signs of zero."""
        amps = self.amps + 0.0
        return json.dumps(np.stack((amps.real, amps.imag), axis=1).tolist())

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
        state = cls(n, amps)
        # numpy read any JSON true/false beside numbers as 1/0; text that
        # parses as number pairs holds no strings, so these are the literals.
        if "true" in text or "false" in text:
            raise ValueError("state must be a JSON array of [re, im] number pairs")
        return state


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


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over an n-qubit register, fully bound."""

    n: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            check_placement(self.n, op.j, op.i)


def mix_pairs(a: np.ndarray, n: int, j: int, i: int | None, k) -> None:
    """(x0, x1) <- (k11 x0 + k12 x1, k21 x0 + k22 x1) in place on the pairs
    (n, j, i) of a, a contiguous state or flattened 2^n x m matrix."""
    a0, a1 = pair_views(a, n, j, i)
    k11, k12, k21, k22 = k
    diag = k12 == 0 and k21 == 0
    # On one or two chunks the vectors cost more to set up than short runs
    # do; but numpy rounds an in-place multiply of one element without FMA,
    # so one-element views (n <= 2) take the vectors.
    short = a0.size == 1 or (1 < a0.shape[-1] <= _SHORT_RUN and n > _CHUNK_QUBITS + 1)
    if short and a.size == 1 << n:
        _mix_chunks(a, n, j, i, k, diag)
    elif diag:
        if k11 != 1:
            np.multiply(k11, a0, out=a0)
        if k22 != 1:
            np.multiply(k22, a1, out=a1)
    else:
        _mix_views(a0, a1, k)


def apply_op(state: StateVector, op: GateOp) -> StateVector:
    """Apply op in place: one mix_pairs pass over its placement's pairs."""
    mix_pairs(state.amps, state.n, op.j, op.i, op.u.matrix.ravel().tolist())
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
        raise NormDriftError(f"circuit broke normalization: |norm - 1| = {drift:.3e}")
    return state


def _csv(header: str, columns: tuple[np.ndarray, ...]) -> str:
    """header, then the row "k,v,..." of each index k, its values those of
    the columns at k as repr writes them, every exact zero unsigned. Rows
    are formatted _CSV_CHUNK_ROWS at a time, so only one chunk's Python
    floats and row strings are alive beside the text."""
    row = ",".join(["%d"] + ["%r"] * len(columns))
    pieces = [header]
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        values = [(c[start:stop] + 0.0).tolist() for c in columns]
        pieces.append("\n".join(map(row.__mod__, zip(range(start, stop), *values))))
    pieces.append("")
    return "\n".join(pieces)


def probabilities_csv(state: StateVector) -> str:
    return _csv("index,probability", (state.probabilities(),))


def amplitudes_csv(state: StateVector) -> str:
    """index,re,im rows, with exact zeros written as to_json writes them."""
    return _csv("index,re,im", (state.amps.real, state.amps.imag))
