"""Local Hamiltonians H with U = e^{-iH} for controlled and embedded gates.

Eigenpairs of the structured 2^n unitaries are lifted from the eigenpairs of
the underlying 2x2 gate by sparse placement: each lifted eigenvector carries
the two gate-eigenvector components at a basis slot and its target partner.
H is then the weighted sum of rank-1 projectors over the non-unit
eigendirections, with weights z = phase of the eigenvalue; unit eigenvalues
contribute nothing and are dropped.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import EigenPair2, OneQubitGate, PAULI, eigenpairs_2x2, phase_of
from .qindex import pair_lows

#: Pairwise-orthogonality tolerance for projector term vectors.
ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class ProjectorTerm:
    """One summand z * |w><w| with real weight z in (-pi, pi], z != 0."""

    z: float
    w: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.array(self.w, dtype=complex)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        if not (-math.pi < self.z <= math.pi) or self.z == 0.0:
            raise ValueError(f"term weight {self.z} outside (-pi, pi] or zero")
        if abs(np.linalg.norm(w) - 1.0) > 1e-12:
            raise ValueError("term vector is not unit norm")


@dataclass(frozen=True)
class LocalHamiltonian:
    """Sum of real-weighted rank-1 projectors onto orthonormal vectors."""

    dim: int
    terms: tuple[ProjectorTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.w.shape != (self.dim,):
                raise ValueError("term vector length does not match dim")

    def to_dense(self) -> np.ndarray:
        """Realize sum z * w w† as a dense Hermitian matrix."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for t in self.terms:
            m += t.z * np.outer(t.w, t.w.conj())
        return m

    def gram_defect(self) -> float:
        """max |W†W - I| over the term-vector Gram matrix (0 if no terms)."""
        if not self.terms:
            return 0.0
        w = np.column_stack([t.w for t in self.terms])
        g = w.conj().T @ w
        return float(np.max(np.abs(g - np.eye(len(self.terms)))))

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "dim": self.dim,
            "terms": [
                {"z": t.z, "w": [[float(c.real), float(c.imag)] for c in t.w]}
                for t in self.terms
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "LocalHamiltonian":
        terms = tuple(
            ProjectorTerm(t["z"], np.array([complex(re, im) for re, im in t["w"]]))
            for t in data["terms"]
        )
        return cls(data["dim"], terms)

    @classmethod
    def from_json(cls, text: str) -> "LocalHamiltonian":
        return cls.from_json_dict(json.loads(text))


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

    def to_dense(self) -> np.ndarray:
        left = np.eye(1 << (self.position - 1))
        right = np.eye(1 << (self.n - self.position))
        return self.coefficient * np.kron(np.kron(left, PAULI[self.axis]), right)

    def exp_minus_i(self) -> np.ndarray:
        """e^{-i c P} = cos(c) I - i sin(c) P, since P is an involution."""
        p = np.kron(
            np.kron(np.eye(1 << (self.position - 1)), PAULI[self.axis]),
            np.eye(1 << (self.n - self.position)),
        )
        dim = 1 << self.n
        c = self.coefficient
        return math.cos(c) * np.eye(dim) - 1j * math.sin(c) * p


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
    dim = 1 << n
    lows = pair_lows(n, j, i)
    stride = 1 << (n - j)
    terms = []
    for p in pairs:
        z = phase_of(p.value)
        if z != 0.0:
            terms += [ProjectorTerm(z, w) for w in _lifted_vectors(dim, lows, stride, p.vector)]
    return LocalHamiltonian(dim, tuple(terms))


def hamiltonian_control_above(
    n: int, i: int, j: int, pairs: tuple[EigenPair2, EigenPair2]
) -> LocalHamiltonian:
    """H with C = e^{-iH} for a controlled gate with control before target.

    Term vectors live on the control-selected blocks: block offset from an
    odd control branch, sub-block offset l, then the target-pair placement
    (r, r + 2^(n-j)).
    """
    if not (1 <= i < j <= n):
        raise ValueError(f"requires 1 <= i < j <= n, got n={n}, i={i}, j={j}")
    return _lift(n, j, i, pairs)


def hamiltonian_control_below(
    n: int, i: int, j: int, pairs: tuple[EigenPair2, EigenPair2]
) -> LocalHamiltonian:
    """H with C = e^{-iH} for a controlled gate with control after target.

    Straddled-block eigenvectors are prefixed by the untouched identity block
    of length 2^(n-i) and repeated across the 2^(j-1) pair spans.
    """
    if not (1 <= j < i <= n):
        raise ValueError(f"requires 1 <= j < i <= n, got n={n}, i={i}, j={j}")
    return _lift(n, j, i, pairs)


def embedded_gate_hamiltonian(
    n: int, j: int, pairs: tuple[EigenPair2, EigenPair2]
) -> LocalHamiltonian:
    """H with I ⊗ u ⊗ I = e^{-iH} for a single-qubit gate at position j."""
    if not 1 <= j <= n:
        raise ValueError(f"target position {j} out of range 1..{n}")
    return _lift(n, j, None, pairs)


def controlled_gate_hamiltonian(n: int, i: int, j: int, u: OneQubitGate) -> LocalHamiltonian:
    """Dispatch on qubit ordering, computing the gate eigenpairs internally."""
    pairs = eigenpairs_2x2(u)
    if i < j:
        return hamiltonian_control_above(n, i, j, pairs)
    return hamiltonian_control_below(n, i, j, pairs)


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


def exp_minus_ih(h: LocalHamiltonian, ortho_tol: float = ORTHO_TOL) -> np.ndarray:
    """e^{-iH} for a projector-sum H with orthonormal term vectors.

    Exact rank-1 update: I + sum (e^{-iz} - 1) w w†, valid because every
    direction outside the terms carries eigenvalue 1. Rejects Hamiltonians
    whose term vectors are not orthonormal within ortho_tol.
    """
    out = np.eye(h.dim, dtype=complex)
    if not h.terms:
        return out
    if h.gram_defect() > ortho_tol:
        raise ValueError("term vectors are not orthonormal; rank-1 exponential invalid")
    w = np.column_stack([t.w for t in h.terms])
    coef = np.array([np.exp(-1j * t.z) - 1.0 for t in h.terms])
    out += (w * coef) @ w.conj().T
    return out
