"""Explicit 2-sparse unitaries of order 2^n for controlled and embedded
single-qubit gates, plus the dense Kronecker-product reference builder.

A controlled gate on control i / target j acts as the identity on every basis
state whose qubit i is 0 and couples each remaining index k only with its
target partner k +- 2^(n-j), so every row and column carries at most two
nonzeros. The sparse builders write that rule down directly; dense_gate
assembles the same operators from Kronecker products and exists to
cross-check the sparse path. The paper's dense pair blocks are windows of
dense_gate on the n-j+1 qubits of one target pair span.

check_dense_cap is the one judge of the dense register size: every function
in the package that sizes a 2^n-order matrix from n calls it before
allocating.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import islice

import numpy as np

from .core import OneQubitGate
from .qindex import check_placement, pair_indices

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
        check_placement(self.n, self.j, self.i)


class SparseUnitary:
    """The 2-sparse matrix of a one-qubit gate u at target j of an n-qubit
    register (controlled by qubit i unless i is None), stored as just that.

    Each target pair (low, high) of qindex.pair_indices carries row 0 of u in
    its low row and row 1 in its high row, at the columns low and high;
    every other row is an identity row. Structural zeros stay stored, so the
    pattern depends only on the placement, never on the particular unitary.
    Nothing per row is kept: the rows are walked from the pair indices.
    Attributes are read-only, so check_placement's verdict stays true.
    """

    __slots__ = ("n", "j", "u", "i")

    def __init__(self, n: int, j: int, u: OneQubitGate, i: int | None = None):
        check_placement(n, j, i)
        for name, value in zip(self.__slots__, (n, j, u, i)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SparseUnitary is immutable")

    @property
    def dim(self) -> int:
        return 1 << self.n

    def _walk_rows(self):
        """(texts, rows): the entry texts and a walk over the stored slots.

        texts holds three tuples of entry texts, "re, im" as json.dumps writes
        [re, im], each formatted once: the identity entry, u's row 0 and u's
        row 1. rows gives (kind, columns) for each row in order: the row
        stores texts[kind][s] at column columns[s].
        """
        texts = (("1.0, 0.0",), *(
            tuple(json.dumps([v.real, v.imag])[1:-1] for v in r) for r in self.u.matrix.tolist()
        ))
        low, high = pair_indices(self.n, self.j, self.i)
        partner = np.full(self.dim, -1)
        partner[low], partner[high] = high, low

        def rows():
            for start in range(0, self.dim, JSON_CHUNK_ROWS):
                for k, p in enumerate(partner[start : start + JSON_CHUNK_ROWS].tolist(), start):
                    if p < 0:
                        yield 0, (k,)
                    elif k < p:
                        yield 1, (k, p)
                    else:
                        yield 2, (p, k)

        return texts, rows()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product, O(dim): x, with u mixed into the
        entries of each target pair."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim,):
            raise ValueError(f"vector length {x.shape} does not match dim {self.dim}")
        (u11, u12), (u21, u22) = self.u.matrix.tolist()
        low, high = pair_indices(self.n, self.j, self.i)
        out = x.copy()
        out[low] = u11 * x[low] + u12 * x[high]
        out[high] = u21 * x[low] + u22 * x[high]
        return out

    def json_chunks(self, dense: bool = False):
        """Schema-1 JSON text in pieces of up to JSON_CHUNK_ROWS rows. Joined,
        they equal json.dumps of {"schema": 1, "dim": D, "rows": [[[c, re,
        im], ...], ...]} with the stored slots of every row.

        dense=True adds "dense": the whole matrix as rows of [re, im] pairs,
        one piece per row. Each row is zeros around its stored slots, so no
        dense matrix is built.
        """
        yield f'{{"schema": 1, "dim": {self.dim}, "rows": ['
        texts, rows = self._walk_rows()
        row_text = ["[" + ", ".join(f"[%d, {t}]" for t in ts) + "]" for ts in texts]
        for start in range(0, self.dim, JSON_CHUNK_ROWS):
            parts = [row_text[kind] % columns for kind, columns in islice(rows, JSON_CHUNK_ROWS)]
            yield (", " if start else "") + ", ".join(parts)
        if dense:
            yield '], "dense": ['
            rows = self._walk_rows()[1]
            for k, (kind, columns) in enumerate(rows):
                row = ["[0.0, 0.0]"] * self.dim
                for c, text in zip(columns, texts[kind]):
                    row[c] = f"[{text}]"
                yield (", [" if k else "[") + ", ".join(row) + "]"
        yield "]}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())


def target_pair_block(n: int, i: int, j: int, u: OneQubitGate) -> np.ndarray:
    """Dense repeating block of order 2^(n-j+1) for control before target:
    the controlled gate on one target pair span, u ⊗ I_{2^(n-j)}."""
    if not i < j:
        raise ValueError(f"requires control before target, got i={i}, j={j}")
    check_placement(n, j, i)
    return dense_gate(n - j + 1, 1, u)


def straddled_pair_block(n: int, i: int, j: int, u: OneQubitGate) -> np.ndarray:
    """Dense nontrivial block of order 2^(n-j+1) - 2^(n-i) for control after
    target: the controlled gate on one target pair span less its leading
    identity block of 2^(n-i) rows.

    With the control below the target the partner offset 2^(n-j) exceeds the
    control-block length 2^(n-i), so paired entries straddle interleaved
    control blocks on which the gate acts as the identity.
    """
    if not i > j:
        raise ValueError(f"requires control after target, got i={i}, j={j}")
    check_placement(n, j, i)
    blk = 1 << (n - i)
    return dense_gate(n - j + 1, 1, u, i - j + 1)[blk:, blk:].copy()


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
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


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


def dense_gate(n: int, j: int, u: OneQubitGate, i: int | None = None) -> np.ndarray:
    """Dense Kronecker oracle of one gate. Single-qubit (i=None): I_{2^(j-1)}
    ⊗ u ⊗ I_{2^(n-j)}. Controlled: a projector sum, the |0><0| branch at the
    control carrying the identity and the |1><1| branch u at the target."""
    check_placement(n, j, i)
    check_dense_cap(n)
    m = np.asarray(u.matrix)
    if i is None:
        return _kron_placed(n, {j: m})
    return _kron_placed(n, {i: _P0}) + _kron_placed(n, {i: _P1, j: m})
