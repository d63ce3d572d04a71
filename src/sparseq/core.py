"""Single-qubit gate primitives: rotation gates, exact closed-form 2x2
eigenpairs on Python scalars, and eigenvalue phases on the principal branch."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

#: Entrywise tolerance for unitarity validation and phase extraction.
DEFAULT_TOL = 1e-12

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def orthonormal_rows(v, tol: float) -> bool:
    """True iff max |V* V^T - I| <= tol for the at most two 2-entry rows v,
    in closed form on Python scalars.

    The entries of V* V^T - I are each row's squared norm less 1 and the
    overlap of two rows (the other off-diagonal entry is its conjugate), each
    summed in the order of the matrix product. A gate's columns are its rows
    here: M†M - I for M = [[a, b], [c, d]] is this test of ((a, c), (b, d)).
    """
    if len(v) == 2:
        (a, b), (c, d) = v
        return (
            abs(a.conjugate() * a + b.conjugate() * b - 1.0) <= tol
            and abs(c.conjugate() * c + d.conjugate() * d - 1.0) <= tol
            and abs(a.conjugate() * c + b.conjugate() * d) <= tol
        )
    return all(abs(a.conjugate() * a + b.conjugate() * b - 1.0) <= tol for a, b in v)


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
        (a, b), (c, d) = m.tolist()
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ValueError("one-qubit gate has non-finite entries")
        if not orthonormal_rows(((a, c), (b, d)), DEFAULT_TOL):
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
    return OneQubitGate(m)


def _phase_normalize(a: complex, b: complex) -> tuple[complex, complex]:
    """Rescale a unit vector so its larger-magnitude entry (a on a tie) is
    real positive."""
    x = a if abs(a) >= abs(b) else b
    p = (x / abs(x)).conjugate()
    return a * p, b * p


def eigenpairs_2x2(u: OneQubitGate) -> tuple[EigenPair2, EigenPair2]:
    """Closed-form orthonormal eigenpairs of a 2x2 unitary, on Python scalars.

    The gap lam1 - lam2 = sqrt((u11 - u22)^2 + 4 u12 u21) holds no trace and
    no determinant, so it does not cancel near a multiple of the identity.
    Diagonal input keeps the canonical basis; a unitary with equal
    eigenvalues is lam*I, which is diagonal. A unitary is normal, so the
    second vector is the orthogonal complement of the first.
    """
    (u11, u12), (u21, u22) = u.matrix.tolist()
    if u12 == 0 and u21 == 0:
        return EigenPair2(u11, (1, 0)), EigenPair2(u22, (0, 1))
    d = u11 - u22
    gap = cmath.sqrt(d * d + 4 * u12 * u21)
    lam1 = (u11 + u22 + gap) / 2
    lam2 = (u11 + u22 - gap) / 2
    # Columns of 2(U - lam2*I) span the lam1 eigenspace; take the larger one.
    c1, c2 = (d + gap, 2 * u21), (2 * u12, gap - d)
    n1, n2 = (math.hypot(abs(x), abs(y)) for x, y in (c1, c2))
    (x, y), norm = (c1, n1) if n1 >= n2 else (c2, n2)
    v1 = _phase_normalize(x / norm, y / norm)
    v2 = _phase_normalize(-v1[1].conjugate(), v1[0].conjugate())
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
