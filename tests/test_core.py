import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseq import (
    OneQubitGate,
    bind,
    eigenpairs_2x2,
    parse_circuit,
    phase_of,
    rotation_gate,
)
from sparseq.circuit_ir import GATES, GateKind
from sparseq.verify import random_gate


def validate_unitary(m: np.ndarray) -> bool:
    """Reference check by matrix product: True iff max entry of |M†M - I| <=
    1e-12. OneQubitGate must accept exactly the 2x2 matrices that pass."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(defect))) <= 1e-12


class TestRotationGate:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(rotation_gate("X", 0.0).matrix, np.eye(2))

    def test_z_rotation_is_diagonal_phase(self):
        theta = 1.234
        got = rotation_gate("Z", theta).matrix
        want = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_x_rotation_at_pi(self):
        got = rotation_gate("X", math.pi).matrix
        want = np.array([[0, -1j], [-1j, 0]])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_gate("Q", 0.1)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            rotation_gate("X", math.nan)

    def test_random_rotations_are_unitary(self, rng):
        for theta in rng.uniform(-math.pi, math.pi, size=1000):
            for axis in "XYZ":
                assert validate_unitary(rotation_gate(axis, theta).matrix)


class TestValidateUnitary:
    def test_identity(self):
        assert validate_unitary(np.eye(2))

    def test_scaled_column_fails(self):
        assert not validate_unitary(np.array([[1, 0], [0, 2]]))

    def test_rotation_passes(self):
        assert validate_unitary(rotation_gate("Y", 0.7).matrix)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate_unitary(np.ones((2, 3)))


PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)

#: Signed zeros, subnormal, tiny and huge angles, and ±π.
EDGE_ANGLES = (0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, math.pi, -math.pi, 1e16)


def perturbations():
    """Fixed unitaries with one entry moved by 1e-13 .. 1e-11, in a fixed
    direction, on either side of the 1e-12 bound."""
    rng = np.random.default_rng(11)
    cases = []
    for size in np.geomspace(1e-13, 1e-11, 41):
        u = random_gate(rng).matrix
        for entry in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for direction in (1.0, -1.0, 1j, -1j, np.exp(0.7j)):
                m = u.copy()
                m[entry] += size * direction
                cases.append(m)
    return cases


class TestOneQubitGate:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            OneQubitGate(np.array([[1, 0], [0, 2]]))

    @PROPERTY
    @given(
        st.sampled_from("XYZ"),
        st.one_of(st.sampled_from(EDGE_ANGLES), st.floats(allow_nan=False, allow_infinity=False)),
    )
    def test_every_rotation_is_accepted(self, axis, theta):
        u = rotation_gate(axis, theta)
        assert validate_unitary(u.matrix)

    def test_perturbed_entries_rejected_with_the_same_text(self):
        u = rotation_gate("Y", 0.9).matrix
        for entry in ((0, 0), (0, 1), (1, 0), (1, 1)):
            m = u.copy()
            m[entry] += 1e-11
            with pytest.raises(ValueError, match=r"^matrix is not unitary within 1e-12$"):
                OneQubitGate(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                     complex(math.inf, 0)])
    def test_non_finite_entries_rejected_with_the_same_text(self, bad):
        for entry in ((0, 0), (0, 1), (1, 0), (1, 1)):
            m = np.eye(2, dtype=complex)
            m[entry] = bad
            with pytest.raises(ValueError, match=r"^one-qubit gate has non-finite entries$"):
                OneQubitGate(m)

    def test_accepts_exactly_what_validate_unitary_accepts(self):
        cases = perturbations()
        verdicts = []
        for m in cases:
            try:
                OneQubitGate(m)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == validate_unitary(m)
            verdicts.append(accepted)
        # The corpus straddles the bound: both verdicts occur.
        assert any(verdicts) and not all(verdicts)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            OneQubitGate(np.eye(3))

    def test_matrix_is_immutable(self):
        g = rotation_gate("X", 0.3)
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 0.0


class TestGateEquality:
    """Gates compare by matrix value, so the frozen dataclasses holding one
    (GateOp, Circuit, GateKind) compare and hash too."""

    def test_equal_matrices_compare_and_hash_equal(self):
        a, b = rotation_gate("X", 0.1), rotation_gate("X", 0.1)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != rotation_gate("X", 0.2)
        assert a != "rx"
        assert len({a, b, rotation_gate("Y", 0.1)}) == 2

    def test_eigenpairs_compare_and_hash_by_value(self):
        a, b = eigenpairs_2x2(rotation_gate("X", 0.1)), eigenpairs_2x2(rotation_gate("X", 0.1))
        assert a[0] is not b[0]
        assert a[0] == b[0] and hash(a[0]) == hash(b[0])
        assert a == b and hash(a) == hash(b)
        assert a[0] != a[1]
        assert a[0] != eigenpairs_2x2(rotation_gate("X", 0.2))[0]
        assert a[0] != "pair"
        assert len({*a, *b}) == 2

    def test_holders_of_gates_compare_and_hash(self):
        template = parse_circuit("qubits 2\nrx q1 $a\ncu q1 q2 0 1 1 0\n")
        one, two = bind(template, {"a": 0.3}), bind(template, {"a": 0.3})
        assert one == two and hash(one) == hash(two)
        assert one.ops[1] == two.ops[1] and hash(one.ops[1]) == hash(two.ops[1])
        assert one != bind(template, {"a": 0.4})
        assert GATES["cx"] == GateKind(True, fixed=OneQubitGate(GATES["x"].fixed.matrix))
        assert hash(GATES["cz"]) == hash(GateKind(True, fixed=GATES["z"].fixed))
        assert GATES["cx"] != GATES["x"]


class TestEigenpairs2x2:
    def test_pauli_x_spectrum(self):
        p1, p2 = eigenpairs_2x2(OneQubitGate(np.array([[0, 1], [1, 0]])))
        assert p1.value == 1.0
        assert p2.value == -1.0
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(p1.vector, [s, s], atol=1e-15)
        np.testing.assert_allclose(p2.vector, [s, -s], atol=1e-15)

    def test_identity_takes_the_diagonal_branch(self):
        p1, p2 = eigenpairs_2x2(OneQubitGate(np.eye(2)))
        assert p1.value == 1.0 and p2.value == 1.0
        assert np.array_equal(p1.vector, [1, 0])
        assert np.array_equal(p2.vector, [0, 1])

    #: Eigenpairs pinned bit for bit, signed zeros included: per gate, each
    #: pair's value and vector entries as (re, im). "cu" is the explicit gate
    #: [[0.6, 0.8i], [0.8i, 0.6]] of a cu statement.
    PINNED = {
        "h": [((0.9999999999999999, 0.0), [(0.9238795325112867, 0.0), (0.3826834323650897, 0.0)]),
              ((-0.9999999999999999, 0.0), [(-0.3826834323650897, 0.0), (0.9238795325112867, 0.0)])],
        "rx:0.7": [((0.9393727128473789, 0.34289780745545134),
                    [(0.7071067811865475, 0.0), (-0.7071067811865475, -0.0)]),
                   ((0.9393727128473789, -0.34289780745545134),
                    [(0.7071067811865475, 0.0), (0.7071067811865475, 0.0)])],
        "ry:-2.1": [((0.49757104789172696, 0.867423225594017),
                     [(0.7071067811865476, 0.0), (0.0, 0.7071067811865476)]),
                    ((0.49757104789172696, -0.867423225594017),
                     [(0.7071067811865476, 0.0), (0.0, -0.7071067811865476)])],
        "cu": [
            ((0.6, 0.8), [(0.7071067811865476, 0.0), (0.7071067811865476, 0.0)]),
            ((0.6, -0.8), [(0.7071067811865476, 0.0), (-0.7071067811865476, 0.0)])],
    }

    def test_pinned_bits(self):
        cu = bind(parse_circuit("qubits 2\ncu q1 q2 0.6,0.0 0.0,0.8 0.0,0.8 0.6,0.0\n")).ops[0].u
        gates = {
            "h": GATES["h"].fixed,
            "rx:0.7": rotation_gate("X", 0.7),
            "ry:-2.1": rotation_gate("Y", -2.1),
            "cu": cu,
        }

        def bits(*entries):
            return np.array([complex(re, im) for re, im in entries]).tobytes()

        for spec, u in gates.items():
            for pair, (value, vector) in zip(eigenpairs_2x2(u), self.PINNED[spec], strict=True):
                assert type(pair.value) is complex, spec
                assert bits((pair.value.real, pair.value.imag)) == bits(value), spec
                assert pair.vector.tobytes() == bits(*vector), spec
                assert not pair.vector.flags.writeable

    def test_diagonal_keeps_canonical_basis(self):
        theta = 0.9
        p1, p2 = eigenpairs_2x2(rotation_gate("Z", theta))
        np.testing.assert_allclose(p1.value, np.exp(-1j * theta / 2), atol=1e-15)
        np.testing.assert_allclose(p2.value, np.exp(1j * theta / 2), atol=1e-15)
        assert np.array_equal(p1.vector, [1, 0])
        assert np.array_equal(p2.vector, [0, 1])

    def test_random_unitary_residuals(self, rng):
        for _ in range(1000):
            u = random_gate(rng)
            for pair in eigenpairs_2x2(u):
                residual = u.matrix @ pair.vector - pair.value * pair.vector
                assert np.linalg.norm(residual) <= 1e-12
                assert abs(abs(pair.value) - 1) <= 1e-12
                assert abs(np.linalg.norm(pair.vector) - 1) <= 1e-12

    def test_eigenvectors_are_orthonormal(self, rng):
        for _ in range(200):
            p1, p2 = eigenpairs_2x2(random_gate(rng))
            assert abs(np.vdot(p1.vector, p2.vector)) <= 1e-12


class TestPhaseOf:
    def test_one_maps_to_zero_exactly(self):
        z = phase_of(1.0)
        assert z == 0.0 and math.copysign(1.0, z) == 1.0

    def test_minus_i(self):
        assert phase_of(-1j) == math.pi / 2

    def test_minus_one_takes_positive_branch(self):
        assert phase_of(-1.0) == math.pi

    def test_branch_interval(self, rng):
        for theta in rng.uniform(-math.pi, math.pi, size=1000):
            z = phase_of(np.exp(-1j * theta))
            assert -math.pi < z <= math.pi

    def test_round_trip(self, rng):
        for theta in rng.uniform(-math.pi, math.pi, size=1000):
            lam = np.exp(1j * theta)
            assert abs(np.exp(-1j * phase_of(lam)) - lam) <= 1e-12

    def test_non_unit_modulus_rejected(self):
        with pytest.raises(ValueError):
            phase_of(0.5)
