"""Single-qubit gate primitives: rotation gates, closed-form 2x2 eigenpairs,
and eigenvalue phases on the principal branch."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Entrywise tolerance for unitarity validation and phase extraction.
DEFAULT_TOL = 1e-12

#: Below this eigenvalue gap a 2x2 unitary is treated as a scalar multiple of
#: the identity and the canonical basis is returned.
DEGENERACY_GAP = 1e-10

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def validate_unitary(m: np.ndarray) -> bool:
    """True iff max entry of |M†M - I| <= DEFAULT_TOL. M must be square."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(defect))) <= DEFAULT_TOL


@dataclass(frozen=True)
class OneQubitGate:
    """A validated 2x2 unitary. The entries u11..u22 are row-major. Gates
    compare and hash by matrix value."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.shape != (2, 2):
            raise ValueError(f"one-qubit gate must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("one-qubit gate has non-finite entries")
        if not validate_unitary(m):
            raise ValueError("matrix is not unitary within 1e-12")

    @property
    def u11(self) -> complex:
        return self.matrix[0, 0]

    @property
    def u12(self) -> complex:
        return self.matrix[0, 1]

    @property
    def u21(self) -> complex:
        return self.matrix[1, 0]

    @property
    def u22(self) -> complex:
        return self.matrix[1, 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, OneQubitGate):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash(tuple(self.matrix.ravel().tolist()))

    def __matmul__(self, other: "OneQubitGate") -> "OneQubitGate":
        return OneQubitGate(self.matrix @ other.matrix)

    def eigenpairs(self) -> tuple["EigenPair2", "EigenPair2"]:
        return eigenpairs_2x2(self)


@dataclass(frozen=True)
class EigenPair2:
    """Eigenvalue (unit modulus) and unit eigenvector of a one-qubit gate.
    Eigenpairs compare and hash by value."""

    value: complex
    vector: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.vector, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EigenPair2):
            return NotImplemented
        return self.value == other.value and np.array_equal(self.vector, other.vector)

    def __hash__(self) -> int:
        return hash((complex(self.value), tuple(self.vector.tolist())))


def rotation_gate(axis: str, theta: float) -> OneQubitGate:
    """Bloch-sphere rotation R_axis(theta), half-angle convention."""
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if axis == "X":
        m = [[c, -1j * s], [-1j * s, c]]
    elif axis == "Y":
        m = [[c, -s], [s, c]]
    elif axis == "Z":
        m = [[c - 1j * s, 0], [0, c + 1j * s]]
    else:
        raise ValueError(f"unknown rotation axis {axis!r}, expected X, Y or Z")
    return OneQubitGate(np.array(m, dtype=complex))


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rescale a unit vector so its largest-magnitude entry is real positive."""
    k = int(np.argmax(np.abs(v)))
    p = v[k] / abs(v[k])
    return v * p.conjugate()


def eigenpairs_2x2(u: OneQubitGate) -> tuple[EigenPair2, EigenPair2]:
    """Closed-form orthonormal eigenpairs of a 2x2 unitary.

    A unitary is normal, so eigenvectors of distinct eigenvalues are
    orthogonal; the second vector is taken as the orthogonal complement of
    the first. Diagonal input keeps the canonical basis, and a degenerate
    spectrum (gap < 1e-10) also falls back to it, since then U = lambda*I.
    """
    m = u.matrix
    e1 = np.array([1, 0], dtype=complex)
    e2 = np.array([0, 1], dtype=complex)
    if abs(m[0, 1]) == 0.0 and abs(m[1, 0]) == 0.0:
        return EigenPair2(m[0, 0], e1), EigenPair2(m[1, 1], e2)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(complex(tr * tr - 4 * det))
    lam1 = (tr + disc) / 2
    lam2 = (tr - disc) / 2
    if abs(lam1 - lam2) < DEGENERACY_GAP:
        return EigenPair2(lam1, e1), EigenPair2(lam2, e2)
    # Columns of (U - lam2*I) span the lam1 eigenspace; take the larger one.
    c1 = np.array([m[0, 0] - lam2, m[1, 0]])
    c2 = np.array([m[0, 1], m[1, 1] - lam2])
    v1 = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    v1 = _phase_normalize(v1 / np.linalg.norm(v1))
    v2 = _phase_normalize(np.array([-v1[1].conjugate(), v1[0].conjugate()]))
    return EigenPair2(lam1, v1), EigenPair2(lam2, v2)


def phase_of(lam: complex) -> float:
    """The z in (-pi, pi] with lam = e^{-iz}, for unit-modulus lam."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > DEFAULT_TOL:
        raise ValueError(f"eigenvalue modulus {abs(lam)} is not 1 within 1e-12")
    z = -math.atan2(lam.imag, lam.real)
    if z <= -math.pi:
        z = math.pi
    return z + 0.0  # fold -0.0 into 0.0
