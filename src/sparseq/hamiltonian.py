"""Local Hamiltonians H with U = e^{-iH} for controlled and embedded gates.

Eigenpairs of the structured 2^n unitaries are lifted from the eigenpairs of
the underlying 2x2 gate by sparse placement: each lifted eigenvector carries
the two gate-eigenvector components at a basis slot and its target partner.
H is then the weighted sum of rank-1 projectors over the non-unit
eigendirections, with weights z = phase of the eigenvalue; unit eigenvalues
contribute nothing and are dropped.

Every term vector therefore has at most two nonzero entries, and the whole
operator is fixed by the gate placement (n, j, i) and at most two (z, v)
rows, one per non-unit gate eigenpair. A LocalHamiltonian stores just that
and derives its packed per-term arrays from qindex.pair_lows on demand.
Dense vectors exist only in the capped oracle path (to_dense, gram_defect,
exp_minus_ih) and in the `terms` view.

The schema-1 JSON writer (json_chunks) streams a bounded batch of terms at a
time, each term zero padding around its row's text, formatted once.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .core import EigenPair2, OneQubitGate, PAULI, eigenpairs_2x2, phase_of
from .gate_matrix import kron_embedded_dense
from .qindex import check_placement, pair_lows

#: Pairwise-orthogonality tolerance for projector term vectors.
ORTHO_TOL = 1e-10

#: Allowed |norm - 1| of a projector term vector.
UNIT_TOL = 1e-12

#: Vector entries per text piece of LocalHamiltonian.json_chunks, about 48 KB
#: of text: few enough writes per Hamiltonian, and a piece small enough to
#: stay in cache while it is joined, encoded and written (at 64 Ki entries
#: `hamiltonian -n 12 -j 2 --gate x` ran 2.8x slower).
_JSON_PIECE_ENTRIES = 1 << 12


def _check_terms(z: np.ndarray, vectors: np.ndarray):
    """Reject weights outside (-pi, pi] or zero, and term vectors (the rows of
    vectors) that are not finite unit vectors. Written so that NaN fails
    every comparison; non-finite rows are refused before any norm is taken."""
    good = (z > -math.pi) & (z <= math.pi) & (z != 0.0)
    if not good.all():
        raise ValueError(f"term weight {z[~good][0]} outside (-pi, pi] or zero")
    finite = np.isfinite(vectors).all()
    norms = np.sqrt((vectors.conj() * vectors).real.sum(axis=1)) if finite else math.nan
    if not (np.abs(norms - 1.0) <= UNIT_TOL).all():
        raise ValueError("term vector is not a finite unit vector")


def _gram_defect(w: np.ndarray, wh: np.ndarray) -> float:
    """max |W†W - I| for W and its conjugate transpose W†."""
    gram = wh @ w
    gram.reshape(-1)[:: w.shape[1] + 1] -= 1.0
    return float(np.max(np.abs(gram)))


@dataclass(frozen=True)
class ProjectorTerm:
    """One summand z * |w><w| with real weight z in (-pi, pi], z != 0."""

    z: float
    w: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.array(self.w, dtype=complex)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        _check_terms(np.array([self.z], dtype=float), w[None])


class LocalHamiltonian:
    """Sum of real-weighted rank-1 projectors onto orthonormal vectors, in
    the lifted form of a gate placed at target j (and control i, or None) of
    an n-qubit register.

    It stores at most two rows s, each a weight weights[s] and a 2-vector
    vectors[s]. For each row in order, and each low index a of pair_lows(n,
    j, i) in ascending order, there is one term weights[s] * |w><w|, where w
    holds vectors[s] at the slots (a, a + 2^(n-j)) and zeros elsewhere. The
    packed arrays of the T terms (z, slots and values) are derived on each
    access.
    """

    __slots__ = ("n", "j", "i", "weights", "vectors")

    def __init__(self, n: int, j: int, i: int | None, z, vectors):
        check_placement(n, j, i)
        z = np.array(z, dtype=float).reshape(-1)
        vectors = np.array(vectors, dtype=complex)
        if len(z) > 2 or vectors.size != 2 * len(z):
            raise ValueError("need at most two rows, each a weight and a 2-vector")
        vectors = vectors.reshape(-1, 2)
        _check_terms(z, vectors)
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
    def z(self) -> np.ndarray:
        """Weight of each term (T,)."""
        return self.weights.repeat(self._per_row)

    @property
    def slots(self) -> np.ndarray:
        """Ascending slot indices of each term (T, 2)."""
        lows = pair_lows(self.n, self.j, self.i)
        spans = lows[:, None] + np.array([0, 1 << (self.n - self.j)])
        return np.tile(spans, (len(self.weights), 1))

    @property
    def values(self) -> np.ndarray:
        """Slot values of each term (T, 2)."""
        return self.vectors.repeat(self._per_row, axis=0)

    @property
    def terms(self) -> tuple[ProjectorTerm, ...]:
        """The terms as dense ProjectorTerms, in storage order."""
        return tuple(ProjectorTerm(z, w) for z, w in zip(self.z.tolist(), self._columns().T))

    def _columns(self) -> np.ndarray:
        """The (dim x T) matrix W whose column k is term vector k."""
        lows = pair_lows(self.n, self.j, self.i)
        terms = np.arange(len(lows))
        w = np.zeros((self.dim, len(self.weights), len(lows)), dtype=complex)
        # Advanced indices around a slice: w[lows, :, terms] is (lows, rows).
        w[lows, :, terms] = self.vectors[:, 0]
        w[lows + (1 << (self.n - self.j)), :, terms] = self.vectors[:, 1]
        return w.reshape(self.dim, -1)

    def to_dense(self) -> np.ndarray:
        """Realize sum z * w w† as a dense Hermitian matrix."""
        w = self._columns()
        return (w * self.z) @ w.conj().T

    def gram_defect(self) -> float:
        """max |W†W - I| over the term-vector Gram matrix (0 if no terms)."""
        if not len(self.weights):
            return 0.0
        w = self._columns()
        return _gram_defect(w, w.conj().T)

    def _term_texts(self):
        """The text of every term, in storage order. Each row's text is
        formatted once; a term is zero padding around it."""
        lows = pair_lows(self.n, self.j, self.i).tolist()
        stride = 1 << (self.n - self.j)
        zero, tail = "[0.0, 0.0], ", ", [0.0, 0.0]"
        for z, (va, vb) in zip(self.weights.tolist(), self.vectors.tolist()):
            head = f'{{"z": {z!r}, "w": ['
            pair = f"[{va.real!r}, {va.imag!r}], {zero * (stride - 1)}[{vb.real!r}, {vb.imag!r}]"
            for a in lows:
                yield f"{head}{zero * a}{pair}{tail * (self.dim - a - stride - 1)}]}}"

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


@dataclass(frozen=True)
class PauliStringTerm:
    """Summand (theta/2) * I ⊗ sigma_axis ⊗ I of a rotation-string generator."""

    coefficient: float
    axis: str
    position: int
    n: int

    def __post_init__(self):
        if self.axis not in PAULI:
            raise ValueError(f"unknown axis {self.axis!r}")
        if not 1 <= self.position <= self.n:
            raise ValueError(f"position {self.position} out of range 1..{self.n}")
        if not math.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")

    def _pauli(self) -> np.ndarray:
        """I ⊗ sigma_axis ⊗ I as a dense matrix."""
        return kron_embedded_dense(self.n, self.position, OneQubitGate(PAULI[self.axis]))

    def to_dense(self) -> np.ndarray:
        return self.coefficient * self._pauli()

    def exp_minus_i(self) -> np.ndarray:
        """e^{-i c P} = cos(c) I - i sin(c) P, since P is an involution."""
        c = self.coefficient
        return math.cos(c) * np.eye(1 << self.n) - 1j * math.sin(c) * self._pauli()


def _lifted_vectors(dim: int, lows: np.ndarray, stride: int, vector: np.ndarray):
    """One length-dim vector per low index a, carrying the two gate-eigenvector
    components at a and at its partner a + stride."""
    for a in lows.tolist():
        v = np.zeros(dim, dtype=complex)
        v[a] = vector[0]
        v[a + stride] = vector[1]
        yield v


def _block_eigenpairs(
    dim: int, lows: np.ndarray, stride: int, pairs: tuple[EigenPair2, EigenPair2]
) -> list[tuple[complex, np.ndarray]]:
    return [
        (p.value, v) for p in pairs for v in _lifted_vectors(dim, lows, stride, p.vector)
    ]


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
    half = 1 << (n - j)
    return _block_eigenpairs(2 * half, pair_lows(n - j + 1, 1), half, pairs)


def straddled_pair_eigenpairs(
    n: int, i: int, j: int, pairs: tuple[EigenPair2, EigenPair2]
) -> list[tuple[complex, np.ndarray]]:
    """Non-unit eigenpairs of the straddled block (control after target).

    Odd row-blocks l carry the gate action, so for each odd l and each slot p
    inside a control block the vector with components at p + (l-1)*2^(n-i)
    and that index + 2^(n-j) is an eigenvector; there are 2^(n-j-1) per gate
    eigenvalue. Unit-eigenvalue directions of the identity rows are omitted.
    The block is one target-pair span less its leading identity block, so the
    slots are that span's pair lows shifted down by 2^(n-i).
    """
    if not i > j:
        raise ValueError(f"requires control after target, got i={i}, j={j}")
    blk = 1 << (n - i)
    stride = 1 << (n - j)
    lows = pair_lows(n - j + 1, 1, i - j + 1) - blk
    return _block_eigenpairs(2 * stride - blk, lows, stride, pairs)


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
    if not (1 <= i < j <= n or 1 <= j < i <= n):
        order = "i < j" if i < j else "j < i"
        raise ValueError(f"requires 1 <= {order} <= n, got n={n}, i={i}, j={j}")
    return _lift(n, j, i, u)


def rotation_string_hamiltonians(
    axes: list[str], thetas: list[float]
) -> list[PauliStringTerm]:
    """Generators of a string of per-qubit rotations: term j is
    (theta_j/2) * I ⊗ sigma_{axis_j} ⊗ I, and the string unitary is the
    product of e^{-i term}. When the axes all agree the terms commute and the
    product collapses to a single exponential of the sum."""
    if len(axes) != len(thetas):
        raise ValueError(f"got {len(axes)} axes but {len(thetas)} angles")
    n = len(axes)
    return [
        PauliStringTerm(thetas[j] / 2.0, axes[j], j + 1, n) for j in range(n)
    ]


def exp_minus_ih(h: LocalHamiltonian) -> np.ndarray:
    """e^{-iH} for a projector-sum H with orthonormal term vectors.

    Exact rank-1 update: I + sum (e^{-iz} - 1) w w†, valid because every
    direction outside the terms carries eigenvalue 1. Rejects Hamiltonians
    whose term vectors are not orthonormal within ORTHO_TOL. W is built once
    and serves both the check and the update, and the identity is added on
    the diagonal of the update, never built.
    """
    if not len(h.weights):
        return np.eye(h.dim, dtype=complex)
    w = h._columns()
    wh = w.conj().T
    if _gram_defect(w, wh) > ORTHO_TOL:
        raise ValueError("term vectors are not orthonormal; rank-1 exponential invalid")
    out = (w * (np.exp(-1j * h.z) - 1.0)) @ wh
    out.reshape(-1)[:: h.dim + 1] += 1.0
    return out
