"""Local Hamiltonians H with U = e^{-iH} for controlled and embedded gates.

Eigenpairs of the structured 2^n unitaries are lifted from the eigenpairs of
the underlying 2x2 gate by sparse placement: each lifted eigenvector carries
the two gate-eigenvector components at a basis slot and its target partner.
H is then the weighted sum of rank-1 projectors over the non-unit
eigendirections, with weights z = phase of the eigenvalue; unit eigenvalues
contribute nothing and are dropped.

Every term vector therefore has at most two nonzero entries, and the whole
operator is fixed by the gate placement (n, j, i) and at most two (z, v)
rows, one per non-unit gate eigenpair. A LocalHamiltonian stores just that;
its terms are laid on the target pairs of qindex.pair_indices when they are
read. Dense vectors exist in two places: the `terms` view, kept for the
benchmark's traced run, which counts the terms and their bytes, and the
paper's block eigenpairs (target_pair_eigenpairs, straddled_pair_eigenpairs),
laid on one target pair span. gate_matrix.check_dense_cap refuses each above
12 qubits, of the register or of the span, before it allocates.

apply_exp_minus_ih is the one route to e^{-iH}, itself 2-sparse: one 2x2
matrix, built from the rows, mixes the target pairs of a state or of a
matrix's columns in the gate kernel engine.mix_pairs, O(2^n) per column.
exp_minus_ih applies it to the identity. Lifted vectors on different pairs
have disjoint support, so orthonormality is checked on the rows alone.

All schema-1 text is written here (json_chunks, circuit_json_chunks). It
streams a bounded batch of terms at a time, each term one slice of a window
of zero padding around its row's text, formatted once. check_json_size
bounds its 4^n entries per gate.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .core import EigenPair2, OneQubitGate, eigenpairs_2x2, orthonormal_rows, phase_of
from .gate_matrix import check_dense_cap
from .engine import mix_pairs
from .qindex import check_placement, pair_indices

#: Pairwise-orthogonality tolerance for projector term vectors.
ORTHO_TOL = 1e-10

#: Allowed |norm - 1| of a projector term vector.
UNIT_TOL = 1e-12

#: Vector entries per text piece of LocalHamiltonian.json_chunks, about 48 KB
#: of text: few enough writes per Hamiltonian, and a piece small enough to
#: stay in cache while it is joined, encoded and written (at 64 Ki entries
#: `hamiltonian -n 12 -j 2 --gate x` ran 2.8x slower).
_JSON_PIECE_ENTRIES = 1 << 12

#: Largest schema-1 text that check_json_size lets through, at 12 bytes
#: ("[0.0, 0.0], ") per term-vector entry: above the 1.92 GB of a one-layer
#: hardware-efficient ansatz at n=11, far below the 6.6 TB of x at n=20.
JSON_MAX_BYTES = 4 << 30


def _check_rows(z: list[float], vectors: list[list[complex]]):
    """Reject weights outside (-pi, pi] or zero, and term vectors (the rows
    of vectors, of any length) that are not finite unit vectors, on Python
    scalars: numpy's per-call cost would dominate the at most two 2-entry
    rows a LocalHamiltonian stores. Written so that NaN fails every
    comparison; non-finite rows are refused before any norm is taken."""
    for w in z:
        if not (w > -math.pi and w <= math.pi and w != 0.0):
            raise ValueError(f"term weight {w} outside (-pi, pi] or zero")
    if not all(cmath.isfinite(x) for row in vectors for x in row):
        raise ValueError("term vector is not a finite unit vector")
    for row in vectors:
        square = 0.0  # a plain loop: from Python 3.12 on, sum() compensates rounding
        for x in row:
            square += (x.conjugate() * x).real
        if not abs(math.sqrt(square) - 1.0) <= UNIT_TOL:
            raise ValueError("term vector is not a finite unit vector")


@dataclass(frozen=True)
class ProjectorTerm:
    """One summand z * |w><w| with real weight z in (-pi, pi], z != 0."""

    z: float
    w: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.array(self.w, dtype=complex)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        _check_rows([float(self.z)], [w[w != 0].tolist()])  # zeros add nothing to the norm


class LocalHamiltonian:
    """Sum of real-weighted rank-1 projectors onto orthonormal vectors, in
    the lifted form of a gate placed at target j (and control i, or None) of
    an n-qubit register.

    It stores at most two rows s, each a weight weights[s] and a 2-vector
    vectors[s]. For each row in order, and each target pair (low, high) of
    pair_indices(n, j, i) in ascending order of low, there is one term
    weights[s] * |w><w|, where w holds vectors[s] at the slots (low, high)
    and zeros elsewhere.
    """

    __slots__ = ("n", "j", "i", "weights", "vectors")

    def __init__(self, n: int, j: int, i: int | None, z, vectors):
        check_placement(n, j, i)
        z = np.array(z, dtype=float).reshape(-1)
        vectors = np.array(vectors, dtype=complex)
        if len(z) > 2 or vectors.size != 2 * len(z):
            raise ValueError("need at most two rows, each a weight and a 2-vector")
        vectors = vectors.reshape(-1, 2)
        _check_rows(z.tolist(), vectors.tolist())
        for a in (z, vectors):
            a.setflags(write=False)
        for name, value in zip(self.__slots__, (n, j, i, z, vectors)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("LocalHamiltonian is immutable")

    def __repr__(self) -> str:
        return f"LocalHamiltonian(dim={self.dim}, terms={len(self.weights) * self._per_row})"

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def _per_row(self) -> int:
        """Terms per row: the target pairs, 2^(n-1), or 2^(n-2) with a control."""
        return 1 << (self.n - (1 if self.i is None else 2))

    @property
    def terms(self) -> tuple[ProjectorTerm, ...]:
        """The terms as dense ProjectorTerms, in storage order."""
        check_dense_cap(self.n)
        low, high = pair_indices(self.n, self.j, self.i)
        pairs = np.arange(len(low))
        w = np.zeros((len(self.weights), len(low), self.dim), dtype=complex)
        w[:, pairs, low] = self.vectors[:, :1]
        w[:, pairs, high] = self.vectors[:, 1:]
        weights = self.weights.repeat(len(low)).tolist()
        return tuple(ProjectorTerm(z, v) for z, v in zip(weights, w.reshape(-1, self.dim)))

    def _term_texts(self):
        """The text of every term, in storage order. Each row's text is
        formatted once, between runs of zero padding as long as any term
        needs; a term is the slice of that window that puts the row's first
        entry at its pair's low index."""
        low, high = pair_indices(self.n, self.j, self.i)
        stride = int(high[0] - low[0])
        low = low.tolist()
        span = self.dim - 1 - stride  # zero entries around the row's two in every term
        zero, tail = "[0.0, 0.0], ", ", [0.0, 0.0]"
        for z, (va, vb) in zip(self.weights.tolist(), self.vectors.tolist()):
            head = f'{{"z": {z!r}, "w": ['
            core = f"[{va.real!r}, {va.imag!r}], {zero * (stride - 1)}[{vb.real!r}, {vb.imag!r}]"
            window = f"{zero * span}{core}{tail * span}"
            width = len(core) + len(zero) * span
            for lo in low:
                start = len(zero) * (span - lo)
                yield f"{head}{window[start:start + width]}]}}"

    def json_chunks(self):
        """Schema-1 JSON text in pieces: the opening, runs of up to max(1,
        _JSON_PIECE_ENTRIES // dim) terms with a ", " piece between runs, and
        the closing. Joined, they equal json.dumps of {"schema": 1, "dim": D,
        "terms": [{"z": z, "w": [[re, im], ...]}, ...]} with every entry of
        every term vector written out.
        """
        yield f'{{"schema": 1, "dim": {self.dim}, "terms": ['
        texts = self._term_texts()
        per_piece = max(1, _JSON_PIECE_ENTRIES // self.dim)
        for start in range(0, len(self.weights) * self._per_row, per_piece):
            if start:
                yield ", "
            yield ", ".join(islice(texts, per_piece))
        yield "]}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())


def circuit_json_chunks(n: int, groups):
    """Schema-1 text of a circuit's HamiltonianGroups, in pieces: {"schema":
    1, "n": n, "groups": [{"kind": k, "hamiltonians": [...]}, ...]}."""
    yield f'{{"schema": 1, "n": {n}, "groups": ['
    for k, g in enumerate(groups):
        yield f'{", " if k else ""}{{"kind": "{g.kind}", "hamiltonians": ['
        for m, h in enumerate(g.hamiltonians):
            if m:
                yield ", "
            yield from h.json_chunks()
        yield "]}"
    yield "]}"


def check_json_size(hamiltonians):
    """Refuse (ValueError) schema-1 text of these Hamiltonians above
    JSON_MAX_BYTES, priced from their term counts and n alone."""
    nbytes = 12 * sum(len(h.weights) * h._per_row * h.dim for h in hamiltonians)
    if nbytes > JSON_MAX_BYTES:
        raise ValueError(
            f"schema-1 text of about {nbytes >> 20} MiB exceeds the {JSON_MAX_BYTES >> 20} MiB bound"
        )


def _block_eigenpairs(
    dim: int, low: np.ndarray, high: np.ndarray, pairs: tuple[EigenPair2, EigenPair2]
) -> list[tuple[complex, np.ndarray]]:
    """Per gate eigenpair, one length-dim vector per index pair (a, b) of low
    and high, carrying the two eigenvector components at a and at b."""
    out = []
    for p in pairs:
        for a, b in zip(low.tolist(), high.tolist()):
            v = np.zeros(dim, dtype=complex)
            v[a], v[b] = p.vector
            out.append((p.value, v))
    return out


def target_pair_eigenpairs(
    n: int, i: int, j: int, pairs: tuple[EigenPair2, EigenPair2]
) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of the dense target-pair block (control before target).

    For each gate eigenpair (lambda_s, u_s) and each slot r < 2^(n-j), the
    vector with u_s[0] at r and u_s[1] at r + 2^(n-j) is an eigenvector for
    lambda_s; together they exhaust the block's spectrum.
    """
    if not i < j:
        raise ValueError(f"requires control before target, got i={i}, j={j}")
    check_placement(n, j, i)
    check_dense_cap(n - j + 1)
    return _block_eigenpairs(2 << (n - j), *pair_indices(n - j + 1, 1), pairs)


def straddled_pair_eigenpairs(
    n: int, i: int, j: int, pairs: tuple[EigenPair2, EigenPair2]
) -> list[tuple[complex, np.ndarray]]:
    """Non-unit eigenpairs of the straddled block (control after target).

    Odd row-blocks l carry the gate action, so for each odd l and each slot p
    inside a control block the vector with components at p + (l-1)*2^(n-i)
    and that index + 2^(n-j) is an eigenvector; there are 2^(n-j-1) per gate
    eigenvalue. Unit-eigenvalue directions of the identity rows are omitted.
    The block is one target-pair span less its leading identity block, so the
    slots are that span's pair indices shifted down by 2^(n-i).
    """
    if not i > j:
        raise ValueError(f"requires control after target, got i={i}, j={j}")
    check_placement(n, j, i)
    check_dense_cap(n - j + 1)
    blk = 1 << (n - i)
    low, high = pair_indices(n - j + 1, 1, i - j + 1)
    return _block_eigenpairs((2 << (n - j)) - blk, low - blk, high - blk, pairs)


def _lift(n: int, j: int, i: int | None, u: OneQubitGate) -> LocalHamiltonian:
    """The Hamiltonian of u placed at (n, j, i): one row per non-unit
    eigenvalue of u, its phase z and its eigenvector."""
    kept = [(z, p.vector) for p in eigenpairs_2x2(u) if (z := phase_of(p.value)) != 0.0]
    return LocalHamiltonian(n, j, i, [z for z, _ in kept], [v for _, v in kept])


def embedded_gate_hamiltonian(n: int, j: int, u: OneQubitGate) -> LocalHamiltonian:
    """H with I ⊗ u ⊗ I = e^{-iH} for a single-qubit gate at position j."""
    return _lift(n, j, None, u)


def controlled_gate_hamiltonian(n: int, i: int, j: int, u: OneQubitGate) -> LocalHamiltonian:
    """H with C = e^{-iH} for a controlled gate, control i and target j in
    either order. Term vectors sit on the target pairs whose control bit is
    1: the control-selected blocks when the control comes first, the
    straddled blocks repeated across the pair spans when it comes second.
    """
    return _lift(n, j, i, u)


def apply_exp_minus_ih(h: LocalHamiltonian, a: np.ndarray) -> np.ndarray:
    """Apply e^{-iH} in place to a, a C-contiguous complex array whose first
    axis has h.dim rows: a state, or a matrix whose columns are transformed.
    Returns a.

    e^{-iH} is 2-sparse like H: on every target pair of rows it is the one
    2x2 matrix M = I + sum_s (e^{-iz_s} - 1) v_s v_s†, exact because every
    direction outside the terms carries eigenvalue 1, built once on Python
    scalars and applied by engine.mix_pairs, the kernel of every gate.
    Rejects, before a is touched, Hamiltonians whose rows are not
    orthonormal within ORTHO_TOL; rows on different pairs have disjoint
    support, so that is the whole check. gate_matrix.dense_gate pins the
    index rule independently up to 12 qubits.
    """
    v = h.vectors.tolist()
    if not orthonormal_rows(v, ORTHO_TOL):
        raise ValueError("term vectors are not orthonormal; rank-1 exponential invalid")
    if a.dtype != complex or not a.flags.c_contiguous or a.shape[:1] != (h.dim,):
        raise ValueError(
            f"need a C-contiguous complex array of {h.dim} rows, got {a.dtype} {a.shape}"
        )
    if not v:
        return a
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for c, (v0, v1) in zip((np.exp(-1j * h.weights) - 1.0).tolist(), v):
        w0, w1 = c * v0, c * v1
        m00, m01 = m00 + w0 * v0.conjugate(), m01 + w0 * v1.conjugate()
        m10, m11 = m10 + w1 * v0.conjugate(), m11 + w1 * v1.conjugate()
    mix_pairs(a.reshape(-1), h.n, h.j, h.i, (m00, m01, m10, m11))
    return a


def exp_minus_ih(h: LocalHamiltonian) -> np.ndarray:
    """e^{-iH} for a projector-sum H with orthonormal term vectors, as a
    dense matrix: apply_exp_minus_ih on the identity."""
    check_dense_cap(h.n)
    return apply_exp_minus_ih(h, np.eye(h.dim, dtype=complex))
