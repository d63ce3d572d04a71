"""Explicit 2-sparse unitaries of order 2^n for controlled and embedded
single-qubit gates, plus dense Kronecker-product reference builders.

A controlled gate on control i / target j acts as the identity on every basis
state whose qubit i is 0 and couples each remaining index k only with its
target partner k +- 2^(n-j), so every row and column carries at most two
nonzeros. The sparse builders write that rule down directly; the dense
builders assemble the same operators from Kronecker products and exist to
cross-check the sparse path.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import OneQubitGate
from .qindex import check_placement, pair_lows

#: Dense constructions are O(4^n); refuse beyond this register size.
DENSE_MAX_QUBITS = 12

#: Rows per text piece of SparseUnitary.json_chunks.
JSON_CHUNK_ROWS = 4096

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


@dataclass(frozen=True)
class ControlledGateSpec:
    """Controlled one-qubit gate: control qubit i, target qubit j, 1-based."""

    n: int
    i: int
    j: int
    u: OneQubitGate

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("controlled gates need at least 2 qubits")
        if not (1 <= self.i <= self.n and 1 <= self.j <= self.n):
            raise ValueError(f"positions ({self.i}, {self.j}) out of range 1..{self.n}")
        if self.i == self.j:
            raise ValueError("control equals target")


class SparseUnitary:
    """The 2-sparse matrix of a one-qubit gate u at target j of an n-qubit
    register (controlled by qubit i unless i is None), stored as just that.

    Its row-major arrays are derived on each access: cols[k] holds the
    (strictly increasing) column indices of row k, -1 marking an absent
    slot; vals[k] the matching entries. Each target pair (k, k + 2^(n-j)) of
    pair_lows carries row 0 of u in its low row and row 1 in its high row;
    every other row is an identity row. Structural zeros stay stored, so the
    pattern depends only on the placement, never on the particular unitary.
    """

    __slots__ = ("n", "j", "u", "i")

    def __init__(self, n: int, j: int, u: OneQubitGate, i: int | None = None):
        check_placement(n, j, i)
        self.n, self.j, self.u, self.i = n, j, u, i

    @property
    def dim(self) -> int:
        return 1 << self.n

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        low = pair_lows(self.n, self.j, self.i)
        return low, low + (1 << (self.n - self.j))

    @property
    def cols(self) -> np.ndarray:
        low, high = self._pairs()
        cols = np.full((self.dim, 2), -1, dtype=np.int64)
        cols[:, 0] = np.arange(self.dim)
        cols[low] = cols[high] = np.stack([low, high], axis=1)
        return cols

    @property
    def vals(self) -> np.ndarray:
        low, high = self._pairs()
        vals = np.zeros((self.dim, 2), dtype=complex)
        vals[:, 0] = 1.0
        vals[low] = self.u.matrix[0]
        vals[high] = self.u.matrix[1]
        return vals

    def row(self, k: int) -> list[tuple[int, complex]]:
        """Stored (column, value) pairs of row k, structural zeros included.
        It derives both arrays, so each call costs O(dim)."""
        return [(c, v) for c, v in zip(self.cols[k].tolist(), self.vals[k].tolist()) if c >= 0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product, O(dim)."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim,):
            raise ValueError(f"vector length {x.shape} does not match dim {self.dim}")
        cols, vals = self.cols, self.vals
        # Absent slots hold col -1 / value 0, so the wrapped index is harmless.
        return vals[:, 0] * x[cols[:, 0]] + vals[:, 1] * x[cols[:, 1]]

    def to_dense(self) -> np.ndarray:
        """The identity, with u on the rows and columns of each target pair."""
        pairs = np.stack(self._pairs(), axis=1)[:, :, None]
        m = np.eye(self.dim, dtype=complex)
        m[pairs, pairs.transpose(0, 2, 1)] = self.u.matrix
        return m

    def unitarity_defect(self) -> float:
        """max |U†U - I| entry, computed densely (small dims only)."""
        if self.dim > (1 << DENSE_MAX_QUBITS):
            raise ValueError("unitarity check is dense-only; dimension too large")
        m = self.to_dense()
        return float(np.max(np.abs(m.conj().T @ m - np.eye(self.dim))))

    def nonzeros_per_row(self) -> np.ndarray:
        return np.sum(self.cols >= 0, axis=1)

    def nonzeros_per_column(self) -> np.ndarray:
        cols = self.cols
        return np.bincount(cols[cols >= 0], minlength=self.dim)

    def json_chunks(self):
        """Schema-1 JSON text in pieces of up to JSON_CHUNK_ROWS rows. Joined,
        they equal json.dumps of {"schema": 1, "dim": D, "rows": [[[c, re,
        im], ...], ...]} with the stored slots of every row.

        Every row is written from one of three texts, each formatted once:
        the identity entry, u's row 0 and u's row 1.
        """
        yield f'{{"schema": 1, "dim": {self.dim}, "rows": ['
        # json.dumps writes each float as the dict dump would.
        texts = [[json.dumps([v.real, v.imag])[1:-1] for v in r] for r in self.u.matrix.tolist()]
        cols = self.cols
        for start in range(0, self.dim, JSON_CHUNK_ROWS):
            parts = []
            for k, (low, high) in enumerate(cols[start : start + JSON_CHUNK_ROWS].tolist(), start):
                if high < 0:
                    parts.append(f"[[{k}, 1.0, 0.0]]")
                else:
                    a, b = texts[0 if k == low else 1]
                    parts.append(f"[[{low}, {a}], [{high}, {b}]]")
            yield (", " if start else "") + ", ".join(parts)
        yield "]}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())


def target_pair_block(n: int, i: int, j: int, u: OneQubitGate) -> np.ndarray:
    """Dense repeating block of order 2^(n-j+1) for control before target.

    u11/u22 sit on the first/second half-diagonal, u12/u21 on the +-2^(n-j)
    off-diagonals; the controlled gate restricted to one target pair span.
    """
    if not i < j:
        raise ValueError(f"requires control before target, got i={i}, j={j}")
    if not (1 <= i and j <= n):
        raise ValueError(f"positions ({i}, {j}) out of range 1..{n}")
    half = 1 << (n - j)
    block = np.zeros((2 * half, 2 * half), dtype=complex)
    r = np.arange(half)
    block[r, r] = u.u11
    block[r, r + half] = u.u12
    block[r + half, r] = u.u21
    block[r + half, r + half] = u.u22
    return block


def straddled_pair_block(n: int, i: int, j: int, u: OneQubitGate) -> np.ndarray:
    """Dense nontrivial block of order 2^(n-j+1) - 2^(n-i) for control after
    target.

    With the control below the target the partner offset 2^(n-j) exceeds the
    control-block length 2^(n-i), so paired entries straddle interleaved
    control blocks on which the gate acts as the identity. Row-blocks of
    height 2^(n-i) alternate: odd blocks carry (u11, u12) rows (and their
    (u21, u22) mirrors 2^(n-j) rows further down), even blocks are identity.
    """
    if not i > j:
        raise ValueError(f"requires control after target, got i={i}, j={j}")
    if not (1 <= j and i <= n):
        raise ValueError(f"positions ({i}, {j}) out of range 1..{n}")
    blk = 1 << (n - i)
    stride = 1 << (n - j)
    dim = 2 * stride - blk
    m = np.zeros((dim, dim), dtype=complex)
    cross = 1 << (i - j)
    for l in range(1, cross + 1):  # upper row group
        rows = np.arange(blk) + (l - 1) * blk
        if l % 2 == 1:
            m[rows, rows] = u.u11
            m[rows, rows + stride] = u.u12
        else:
            m[rows, rows] = 1.0
    for l in range(1, cross):  # lower row group
        rows = np.arange(blk) + (l - 1) * blk + stride
        if l % 2 == 1:
            m[rows, rows - stride] = u.u21
            m[rows, rows] = u.u22
        else:
            m[rows, rows] = 1.0
    return m


def controlled_sparse(spec: ControlledGateSpec) -> SparseUnitary:
    """2-sparse matrix of the controlled gate, either qubit ordering.

    Rows with control bit 0 are identity rows. A row with control bit 1 and
    target bit b couples index k with its partner k -+ 2^(n-j) through row b
    of u; both slots are stored even when an entry of u is zero.
    """
    return SparseUnitary(spec.n, spec.j, spec.u, spec.i)


def embedded_sparse(n: int, j: int, u: OneQubitGate) -> SparseUnitary:
    """2-sparse matrix of a single-qubit gate at position j of an n-qubit
    register; equals the Kronecker product I ⊗ u ⊗ I."""
    return SparseUnitary(n, j, u)


def check_dense_cap(n: int):
    """Refuse (ValueError) a dense construction on more than DENSE_MAX_QUBITS."""
    if n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense construction capped at {DENSE_MAX_QUBITS} qubits, got n={n}")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices as one broadcast outer product: the
    same entrywise products as np.kron, without its per-call overhead."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def kron_chain(factors: list[np.ndarray]) -> np.ndarray:
    return reduce(_kron, factors)


def _kron_placed(n: int, placed: dict[int, np.ndarray]) -> np.ndarray:
    """I ⊗ f ⊗ I ⊗ g ⊗ I for 2x2 factors at 1-based positions of an n-qubit
    register, each run of identity factors merged into one identity block."""
    factors, q = [], 1
    for pos in sorted(placed):
        factors += [np.eye(1 << (pos - q)), placed[pos]]
        q = pos + 1
    factors.append(np.eye(1 << (n - q + 1)))
    return kron_chain(factors)


def kron_embedded_dense(n: int, j: int, u: OneQubitGate) -> np.ndarray:
    """Reference dense matrix I_{2^(j-1)} ⊗ u ⊗ I_{2^(n-j)}."""
    check_placement(n, j)
    check_dense_cap(n)
    return _kron_placed(n, {j: np.asarray(u.matrix)})


def kron_controlled_dense(n: int, i: int, j: int, u: OneQubitGate) -> np.ndarray:
    """Reference dense controlled gate as a projector sum: |0><0| branch at
    the control carries the identity, the |1><1| branch carries u at the
    target."""
    ControlledGateSpec(n, i, j, u)  # reuse validation
    check_dense_cap(n)
    return _kron_placed(n, {i: _P0}) + _kron_placed(n, {i: _P1, j: np.asarray(u.matrix)})


def dense_gate(n: int, j: int, u: OneQubitGate, i: int | None = None) -> np.ndarray:
    """Dense Kronecker oracle for one gate description (i=None: single-qubit)."""
    if i is None:
        return kron_embedded_dense(n, j, u)
    return kron_controlled_dense(n, i, j, u)
