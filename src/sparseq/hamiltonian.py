"""Local Hamiltonians H with U = e^{-iH} for controlled and embedded gates.

Eigenpairs of the structured 2^n unitaries are lifted from the eigenpairs of
the underlying 2x2 gate by sparse placement: each lifted eigenvector carries
the two gate-eigenvector components at a basis slot and its target partner.
H is then the weighted sum of rank-1 projectors over the non-unit
eigendirections, with weights z = phase of the eigenvalue; unit eigenvalues
contribute nothing and are dropped.

Every term vector therefore has at most two nonzero entries, and a
LocalHamiltonian stores its T terms packed: weights z (T,), two slot indices
per term (T, 2) and the two slot values (T, 2). Dense vectors exist only in
the capped oracle path (to_dense, gram_defect, exp_minus_ih) and in the
`terms` view.

The schema-1 JSON writer (json_chunks) streams a bounded batch of terms at a
time. A lifted Hamiltonian repeats at most two (z, slot values) rows over
all its slot pairs, so the text of each distinct row is formatted once,
memoized on the row's bit pattern, and each term is zero padding around
cached strings.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import EigenPair2, OneQubitGate, PAULI, eigenpairs_2x2, phase_of
from .gate_matrix import kron_embedded_dense
from .qindex import pair_lows

#: Pairwise-orthogonality tolerance for projector term vectors.
ORTHO_TOL = 1e-10

#: Allowed |norm - 1| of a projector term vector.
UNIT_TOL = 1e-12

#: Vector entries per text piece of LocalHamiltonian.json_chunks, about 48 KB
#: of text: few enough writes per Hamiltonian, and a piece small enough to
#: stay in cache while it is joined, encoded and written (at 64 Ki entries
#: `hamiltonian -n 12 -j 2 --gate x` ran 2.8x slower).
_JSON_PIECE_ENTRIES = 1 << 12


def _check_terms(z: np.ndarray, norms: np.ndarray):
    """Reject weights outside (-pi, pi] or zero, and term vectors that are not
    unit vectors. Written so that NaN fails every comparison."""
    good = (z > -math.pi) & (z <= math.pi) & (z != 0.0)
    if not good.all():
        raise ValueError(f"term weight {z[~good][0]} outside (-pi, pi] or zero")
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
        _check_terms(np.array([self.z], dtype=float), np.array([np.linalg.norm(w)]))


def _pack(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot indices (ascending) and slot values of the 2-sparse rows of w.

    A row's slots are its nonzero entries, then its signed zeros (so that a
    -0.0 survives a round trip through JSON), then its first plain zeros.
    """
    if w.shape[0] and w.shape[1] < 2:
        raise ValueError("term vectors need at least two entries")
    nonzero = w != 0
    if np.any(np.count_nonzero(nonzero, axis=1) > 2):
        raise ValueError("term vector has more than two nonzero entries")
    signed = np.signbit(w.real) | np.signbit(w.imag)
    rank = np.where(nonzero, 0, np.where(signed, 1, 2))
    slots = np.sort(np.argsort(rank, axis=1, kind="stable")[:, :2], axis=1)
    return slots, np.take_along_axis(w, slots, axis=1)


class LocalHamiltonian:
    """Sum of real-weighted rank-1 projectors onto orthonormal vectors.

    Built from packed arrays: term k is z[k] * |w_k><w_k| where w_k holds
    values[k] (T, 2) at the indices slots[k] (T, 2, ascending) and zeros
    elsewhere.
    """

    __slots__ = ("dim", "z", "slots", "values")

    def __init__(self, dim: int, z, slots, values):
        z = np.array(z, dtype=float).reshape(-1)
        slots = np.array(slots, dtype=np.int64).reshape(-1, 2)
        values = np.array(values, dtype=complex).reshape(-1, 2)
        if not len(z) == len(slots) == len(values):
            raise ValueError("weights, slots and values differ in term count")
        low, high = slots.T
        if not ((0 <= low) & (low < high) & (high < dim)).all():
            raise ValueError(f"term slots must be ascending indices in 0..{dim - 1}")
        # The row norms as np.linalg.norm(values, axis=1) sums them.
        _check_terms(z, np.sqrt((values.conj() * values).real.sum(axis=1)))
        for a in (z, slots, values):
            a.setflags(write=False)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("LocalHamiltonian is immutable")

    def __repr__(self) -> str:
        return f"LocalHamiltonian(dim={self.dim}, terms={len(self.z)})"

    @property
    def terms(self) -> tuple[ProjectorTerm, ...]:
        """The terms as dense ProjectorTerms, in storage order."""
        return tuple(ProjectorTerm(z, w) for z, w in zip(self.z.tolist(), self._columns().T))

    def _columns(self) -> np.ndarray:
        """The (dim x T) matrix W whose column k is term vector k."""
        count = len(self.z)
        w = np.zeros((self.dim, count), dtype=complex)
        # Entry (row r, column k) sits at r * count + k of the flat buffer.
        w.reshape(-1)[self.slots * count + np.arange(count)[:, None]] = self.values
        return w

    def to_dense(self) -> np.ndarray:
        """Realize sum z * w w† as a dense Hermitian matrix."""
        w = self._columns()
        return (w * self.z) @ w.conj().T

    def gram_defect(self) -> float:
        """max |W†W - I| over the term-vector Gram matrix (0 if no terms)."""
        if not len(self.z):
            return 0.0
        w = self._columns()
        return _gram_defect(w, w.conj().T)

    def json_chunks(self):
        """Schema-1 JSON text in pieces: the opening, runs of up to max(1,
        _JSON_PIECE_ENTRIES // dim) terms with a ", " piece between runs, and
        the closing. Joined, they equal json.dumps of {"schema": 1, "dim": D,
        "terms": [{"z": z, "w": [[re, im], ...]}, ...]} with every entry of
        every term vector written out.

        Each distinct (z, slot values) row is formatted once, keyed on its
        bit pattern rather than float equality, so -0.0 and 0.0 keep their
        own text.
        """
        yield f'{{"schema": 1, "dim": {self.dim}, "terms": ['
        bits = np.column_stack((self.z.view(np.uint64), self.values.view(np.uint64)))
        keys = bits.view(np.dtype((np.void, bits.itemsize * 5))).ravel().tolist()
        slots = self.slots.tolist()
        texts: dict[bytes, tuple[str, str, str]] = {}
        zero, tail = "[0.0, 0.0], ", ", [0.0, 0.0]"
        per_piece = max(1, _JSON_PIECE_ENTRIES // self.dim)
        for start in range(0, len(keys), per_piece):
            parts = []
            for k in range(start, min(start + per_piece, len(keys))):
                text = texts.get(keys[k])
                if text is None:
                    (va, vb), z = self.values[k].tolist(), float(self.z[k])
                    text = texts[keys[k]] = (
                        f'{{"z": {z!r}, "w": [',
                        f"[{va.real!r}, {va.imag!r}], ",
                        f"[{vb.real!r}, {vb.imag!r}]",
                    )
                head, low, high = text
                a, b = slots[k]
                parts.append(
                    f"{head}{zero * a}{low}{zero * (b - a - 1)}{high}{tail * (self.dim - b - 1)}]}}"
                )
            if start:
                yield ", "
            yield ", ".join(parts)
        yield "]}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "LocalHamiltonian":
        data = json.loads(text)
        dim, terms = data["dim"], data["terms"]
        pairs = np.array([t["w"] for t in terms], dtype=float).reshape(len(terms), dim, 2)
        # Viewing the [re, im] pairs as complex keeps every signed zero.
        w = pairs.view(complex)[..., 0]
        return cls(dim, [t["z"] for t in terms], *_pack(w))


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


def _lift(
    n: int, j: int, i: int | None, pairs: tuple[EigenPair2, EigenPair2]
) -> LocalHamiltonian:
    """Projector terms for every non-unit gate eigenvalue, one per target pair
    of pair_lows(n, j, i), in ascending order of the pair's low index."""
    lows = pair_lows(n, j, i)
    kept = [(z, p.vector) for p in pairs if (z := phase_of(p.value)) != 0.0]
    spans = (lows[:, None] + np.array([0, 1 << (n - j)]))[None]
    return LocalHamiltonian(
        1 << n,
        np.array([z for z, _ in kept], dtype=float).repeat(len(lows)),
        spans.repeat(len(kept), axis=0).reshape(-1, 2),
        np.array([v for _, v in kept], dtype=complex).reshape(-1, 2).repeat(len(lows), axis=0),
    )


def embedded_gate_hamiltonian(n: int, j: int, u: OneQubitGate) -> LocalHamiltonian:
    """H with I ⊗ u ⊗ I = e^{-iH} for a single-qubit gate at position j."""
    return _lift(n, j, None, eigenpairs_2x2(u))


def controlled_gate_hamiltonian(n: int, i: int, j: int, u: OneQubitGate) -> LocalHamiltonian:
    """H with C = e^{-iH} for a controlled gate, control i and target j in
    either order. Term vectors sit on the target pairs whose control bit is
    1: the control-selected blocks when the control comes first, the
    straddled blocks repeated across the pair spans when it comes second.
    """
    if not (1 <= i < j <= n or 1 <= j < i <= n):
        order = "i < j" if i < j else "j < i"
        raise ValueError(f"requires 1 <= {order} <= n, got n={n}, i={i}, j={j}")
    return _lift(n, j, i, eigenpairs_2x2(u))


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
    if not len(h.z):
        return np.eye(h.dim, dtype=complex)
    w = h._columns()
    wh = w.conj().T
    if _gram_defect(w, wh) > ORTHO_TOL:
        raise ValueError("term vectors are not orthonormal; rank-1 exponential invalid")
    out = (w * (np.exp(-1j * h.z) - 1.0)) @ wh
    out.reshape(-1)[:: h.dim + 1] += 1.0
    return out
