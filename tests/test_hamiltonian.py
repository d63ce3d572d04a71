import json
import math
from functools import reduce

import numpy as np
import pytest

from sparseq import (
    ControlledGateSpec,
    LocalHamiltonian,
    OneQubitGate,
    PauliStringTerm,
    ProjectorTerm,
    controlled_gate_hamiltonian,
    controlled_sparse,
    eigenpairs_2x2,
    embedded_gate_hamiltonian,
    embedded_sparse,
    exp_minus_ih,
    exp_oracle,
    frobenius_error,
    rotation_gate,
    rotation_string_hamiltonians,
    straddled_pair_block,
    straddled_pair_eigenpairs,
    target_pair_block,
    target_pair_eigenpairs,
)
from sparseq.core import PAULI
from sparseq.verify import random_gate

X = OneQubitGate(np.array([[0, 1], [1, 0]]))
EYE = OneQubitGate(np.eye(2))


def all_ordered_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


class TestTargetPairEigenpairs:
    def test_two_qubit_case_reduces_to_gate_eigenvectors(self, generic_gate):
        pairs = eigenpairs_2x2(generic_gate)
        lifted = target_pair_eigenpairs(2, 1, 2, pairs)
        assert len(lifted) == 2
        for (lam, vec), src in zip(lifted, pairs):
            assert lam == src.value
            assert np.array_equal(vec, src.vector)

    def test_sparse_placement(self, generic_gate):
        pairs = eigenpairs_2x2(generic_gate)
        lifted = target_pair_eigenpairs(5, 2, 4, pairs)
        assert len(lifted) == 4
        lam, vec = lifted[0]
        u1 = pairs[0].vector
        assert np.array_equal(vec, [u1[0], 0, u1[1], 0])

    def test_residuals_against_block(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            j = int(rng.integers(2, n + 1))
            i = int(rng.integers(1, j))
            u = random_gate(rng)
            block = target_pair_block(n, i, j, u)
            lifted = target_pair_eigenpairs(n, i, j, eigenpairs_2x2(u))
            assert len(lifted) == 1 << (n - j + 1)
            vecs = np.column_stack([v for _, v in lifted])
            gram = vecs.conj().T @ vecs
            assert np.max(np.abs(gram - np.eye(len(lifted)))) <= 1e-12
            for lam, vec in lifted:
                assert np.linalg.norm(block @ vec - lam * vec) <= 1e-12

    def test_wrong_ordering_rejected(self, generic_gate):
        with pytest.raises(ValueError):
            target_pair_eigenpairs(3, 2, 1, eigenpairs_2x2(generic_gate))


class TestStraddledPairEigenpairs:
    def test_smallest_case_placement(self, generic_gate):
        pairs = eigenpairs_2x2(generic_gate)
        lifted = straddled_pair_eigenpairs(2, 2, 1, pairs)
        assert len(lifted) == 2
        for (lam, vec), src in zip(lifted, pairs):
            assert lam == src.value
            assert np.array_equal(vec, [src.vector[0], 0, src.vector[1]])

    def test_count_per_eigenvalue(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            i = int(rng.integers(2, n + 1))
            j = int(rng.integers(1, i))
            lifted = straddled_pair_eigenpairs(n, i, j, eigenpairs_2x2(random_gate(rng)))
            assert len(lifted) == 1 << (n - j)  # 2^(n-j-1) per eigenvalue

    def test_residuals_against_block(self, rng):
        cases = [(3, 3, 1, OneQubitGate(np.diag([1, -1])))]
        for _ in range(30):
            n = int(rng.integers(2, 7))
            i = int(rng.integers(2, n + 1))
            j = int(rng.integers(1, i))
            cases.append((n, i, j, random_gate(rng)))
        for n, i, j, u in cases:
            block = straddled_pair_block(n, i, j, u)
            lifted = straddled_pair_eigenpairs(n, i, j, eigenpairs_2x2(u))
            vecs = np.column_stack([v for _, v in lifted])
            gram = vecs.conj().T @ vecs
            assert np.max(np.abs(gram - np.eye(len(lifted)))) <= 1e-12
            for lam, vec in lifted:
                assert np.linalg.norm(block @ vec - lam * vec) <= 1e-12

    def test_wrong_ordering_rejected(self, generic_gate):
        with pytest.raises(ValueError):
            straddled_pair_eigenpairs(3, 1, 2, eigenpairs_2x2(generic_gate))


class TestControlledHamiltonians:
    def test_two_qubit_control_first_structure(self, generic_gate):
        pairs = eigenpairs_2x2(generic_gate)
        h = controlled_gate_hamiltonian(2, 1, 2, generic_gate)
        assert h.dim == 4
        assert len(h.terms) == 2
        for term, src in zip(h.terms, pairs):
            assert np.array_equal(term.w, [0, 0, src.vector[0], src.vector[1]])
            assert abs(np.exp(-1j * term.z) - src.value) <= 1e-12

    def test_two_qubit_target_first_structure(self, generic_gate):
        pairs = eigenpairs_2x2(generic_gate)
        h = controlled_gate_hamiltonian(2, 2, 1, generic_gate)
        assert len(h.terms) == 2
        for term, src in zip(h.terms, pairs):
            assert np.array_equal(term.w, [0, src.vector[0], 0, src.vector[1]])

    def test_cnot_single_term(self):
        h = controlled_gate_hamiltonian(2, 1, 2, X)
        assert len(h.terms) == 1
        term = h.terms[0]
        assert term.z == math.pi
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(term.w, [0, 0, s, -s], atol=1e-15)

    def test_identity_gate_gives_empty_hamiltonian(self):
        for i, j in [(1, 2), (2, 1), (1, 3), (3, 1)]:
            h = controlled_gate_hamiltonian(3, i, j, EYE)
            assert h.terms == ()
            assert np.array_equal(exp_minus_ih(h), np.eye(8))

    def test_reconstruction_sweep(self, rng):
        for n in range(2, 7):
            for i, j in all_ordered_pairs(n):
                for _ in range(25):
                    u = random_gate(rng)
                    h = controlled_gate_hamiltonian(n, i, j, u)
                    dense = controlled_sparse(ControlledGateSpec(n, i, j, u)).to_dense()
                    assert frobenius_error(dense, exp_minus_ih(h)) <= 1e-12

    def test_terms_are_gate_eigenvectors(self, rng):
        # each term vector is an eigenvector of the full sparse gate
        for _ in range(40):
            n = int(rng.integers(2, 7))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            u = random_gate(rng)
            sparse = controlled_sparse(ControlledGateSpec(n, int(i), int(j), u))
            h = controlled_gate_hamiltonian(n, int(i), int(j), u)
            for term in h.terms:
                lam = np.exp(-1j * term.z)
                assert np.linalg.norm(sparse.matvec(term.w) - lam * term.w) <= 1e-12

    def test_term_count_per_eigenvalue(self, generic_gate, rng):
        # a gate with no unit eigenvalue contributes 2^(n-2) terms each
        for n in range(2, 7):
            for i, j in all_ordered_pairs(n):
                h = controlled_gate_hamiltonian(n, i, j, generic_gate)
                assert len(h.terms) == 2 * (1 << (n - 2))

    def test_orthonormality(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            h = controlled_gate_hamiltonian(n, int(i), int(j), random_gate(rng))
            assert h.gram_defect() <= 1e-10

    def test_crx_sweep_small(self):
        for theta in np.linspace(-math.pi, math.pi, 25):
            u = rotation_gate("X", theta)
            h = controlled_gate_hamiltonian(4, 1, 2, u)
            dense = controlled_sparse(ControlledGateSpec(4, 1, 2, u)).to_dense()
            assert frobenius_error(dense, exp_minus_ih(h)) <= 1e-12

    def test_ordering_preconditions(self, generic_gate):
        # `sparseq hamiltonian -i/-j` prints these texts on stderr.
        cases = {
            (2, 2): "requires 1 <= j < i <= n, got n=3, i=2, j=2",
            (4, 1): "requires 1 <= j < i <= n, got n=3, i=4, j=1",
            (5, 4): "requires 1 <= j < i <= n, got n=3, i=5, j=4",
            (2, 0): "requires 1 <= j < i <= n, got n=3, i=2, j=0",
            (1, 4): "requires 1 <= i < j <= n, got n=3, i=1, j=4",
            (4, 5): "requires 1 <= i < j <= n, got n=3, i=4, j=5",
            (0, 2): "requires 1 <= i < j <= n, got n=3, i=0, j=2",
        }
        for (i, j), message in cases.items():
            with pytest.raises(ValueError) as info:
                controlled_gate_hamiltonian(3, i, j, generic_gate)
            assert str(info.value) == message


class TestEmbeddedGateHamiltonian:
    def test_single_qubit_is_matrix_log(self, generic_gate):
        h = embedded_gate_hamiltonian(1, 1, generic_gate)
        np.testing.assert_allclose(
            exp_minus_ih(h), np.asarray(generic_gate.matrix), atol=1e-13
        )

    def test_identity_is_empty(self):
        assert embedded_gate_hamiltonian(3, 2, EYE).terms == ()

    def test_reconstruction(self, rng):
        cases = [(3, 2, rotation_gate("X", 0.4))]
        for _ in range(30):
            n = int(rng.integers(1, 7))
            j = int(rng.integers(1, n + 1))
            cases.append((n, j, random_gate(rng)))
        for n, j, u in cases:
            h = embedded_gate_hamiltonian(n, j, u)
            dense = embedded_sparse(n, j, u).to_dense()
            assert frobenius_error(dense, exp_minus_ih(h)) <= 1e-12

    def test_position_out_of_range(self, generic_gate):
        with pytest.raises(ValueError):
            embedded_gate_hamiltonian(2, 3, generic_gate)

    def test_position_out_of_range_names_the_target(self, generic_gate):
        with pytest.raises(ValueError, match=r"^target position 4 out of range 1\.\.3$"):
            embedded_gate_hamiltonian(3, 4, generic_gate)


class TestRotationStrings:
    def test_dense_terms_match_np_kron_bit_for_bit(self):
        for n in range(1, 5):
            for position in range(1, n + 1):
                for axis in PAULI:
                    t = PauliStringTerm(-1.2, axis, position, n)
                    p = np.kron(np.kron(np.eye(1 << (position - 1)), PAULI[axis]),
                                np.eye(1 << (n - position)))
                    want_exp = math.cos(-1.2) * np.eye(1 << n) - 1j * math.sin(-1.2) * p
                    assert t.to_dense().tobytes() == (-1.2 * p).tobytes()
                    assert t.exp_minus_i().tobytes() == want_exp.tobytes()

    def test_zero_angles_exponentiate_to_identity(self):
        for term in rotation_string_hamiltonians(["Z"] * 3, [0.0] * 3):
            assert np.array_equal(term.exp_minus_i(), np.eye(8))

    def test_two_qubit_sum_matches_kronecker_product(self):
        a, b = 0.9, -1.3
        terms = rotation_string_hamiltonians(["X", "X"], [a, b])
        summed = sum(t.to_dense() for t in terms)
        want = np.kron(rotation_gate("X", a).matrix, rotation_gate("X", b).matrix)
        assert frobenius_error(exp_oracle(summed), want) <= 1e-12

    def test_uniform_axis_product_collapses_to_one_exponential(self):
        # all axes equal: the commuting product equals exp of the summed terms
        terms = rotation_string_hamiltonians(["X"] * 4, [0.7] * 4)
        product = reduce(np.matmul, [t.exp_minus_i() for t in terms])
        summed = sum(t.to_dense() for t in terms)
        assert frobenius_error(product, exp_oracle(summed)) <= 1e-12

    def test_mixed_axes_product_matches_tensor_product(self):
        axes = ["X", "Y", "Z"]
        thetas = [0.3, -0.8, 2.1]
        terms = rotation_string_hamiltonians(axes, thetas)
        product = reduce(np.matmul, [t.exp_minus_i() for t in terms])
        want = reduce(
            np.kron, [rotation_gate(a, t).matrix for a, t in zip(axes, thetas)]
        )
        assert frobenius_error(product, want) <= 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rotation_string_hamiltonians(["X", "Y"], [0.1])

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_string_hamiltonians(["Q"], [0.1])


class TestExponentialAndDense:
    def test_empty_hamiltonian_is_identity(self):
        assert np.array_equal(exp_minus_ih(LocalHamiltonian(2, 1, None, [], [])), np.eye(4))

    def test_single_projector_flips_sign(self):
        h = LocalHamiltonian(1, 1, None, [math.pi], [[1.0, 0.0]])
        np.testing.assert_allclose(exp_minus_ih(h), np.diag([-1, 1]), atol=1e-15)

    def test_non_orthonormal_terms_rejected(self):
        s = 1 / math.sqrt(2)
        h = LocalHamiltonian(1, 1, None, [1.0, 1.0], [[1.0, 0.0], [s, s]])
        with pytest.raises(ValueError):
            exp_minus_ih(h)

    def test_dense_realization_is_hermitian(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            theta = float(rng.uniform(-math.pi, math.pi))
            h = controlled_gate_hamiltonian(n, int(i), int(j), rotation_gate("Z", theta))
            m = h.to_dense()
            assert np.max(np.abs(m - m.conj().T)) <= 1e-15

    def test_empty_dense_is_zero(self):
        assert np.array_equal(LocalHamiltonian(2, 2, 1, [], []).to_dense(), np.zeros((4, 4)))

    def test_cnot_dense_realization(self):
        h = controlled_gate_hamiltonian(2, 1, 2, X)
        w = np.array([0, 0, 1, -1]) / math.sqrt(2)
        np.testing.assert_allclose(
            h.to_dense(), math.pi * np.outer(w, w), atol=1e-14
        )

    def test_projector_term_validation(self):
        with pytest.raises(ValueError):
            ProjectorTerm(0.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ProjectorTerm(4.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ProjectorTerm(1.0, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("z, w", [
        (math.nan, [1.0, 0.0]), (math.inf, [1.0, 0.0]),
        (1.0, [math.nan, 0.0]), (1.0, [1.0, math.nan]), (1.0, [math.inf, 0.0]),
        (1.0, [complex(1.0, math.nan), 0.0]),
    ])
    def test_non_finite_terms_rejected(self, z, w):
        with pytest.raises(ValueError):
            ProjectorTerm(z, np.array(w))
        with pytest.raises(ValueError):
            LocalHamiltonian(1, 1, None, [z], [w])

    def test_more_than_two_nonzero_entries_rejected(self):
        c = 1 / math.sqrt(3)
        with pytest.raises(ValueError, match="at most two"):
            LocalHamiltonian(2, 1, None, [1.0], [[c, c, c]])
        with pytest.raises(ValueError, match="at most two"):
            LocalHamiltonian(2, 1, None, [1.0, 1.0, 1.0], [[1.0, 0.0]] * 3)

    def test_bad_packed_slots_rejected(self):
        """The slots derive from the placement, so a bad placement is refused
        before any slot exists."""
        bad = [(2, 1, 1), (2, 3, None), (2, 0, None), (2, 1, 3), (0, 1, None), (-3, 1, None)]
        for n, j, i in bad:
            with pytest.raises(ValueError):
                LocalHamiltonian(n, j, i, [1.0], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="^register size -3 must be at least 1 qubit$"):
            LocalHamiltonian(-3, 1, None, [1.0], [[1.0, 0.0]])

    def test_explicit_terms_are_packed_in_order(self):
        """Row by row, each over the pair lows in ascending order; a signed
        zero in a row is written as -0.0 in every term of that row."""
        h = LocalHamiltonian(2, 2, None, [0.5, -1.0], [[0.6, 0.8j], [complex(-0.0, 0.0), 1.0]])
        assert h.slots.tolist() == [[0, 1], [2, 3], [0, 1], [2, 3]]
        assert [t.z for t in h.terms] == [0.5, 0.5, -1.0, -1.0]
        want = [[0.6, 0.8j, 0, 0], [0, 0, 0.6, 0.8j], [-0.0, 1.0, 0, 0], [0, 0, -0.0, 1.0]]
        for t, w in zip(h.terms, want):
            assert np.array_equal(t.w, w)
        assert h.to_json().count("-0.0") == 2

    def test_json_round_trip(self, generic_gate):
        h = controlled_gate_hamiltonian(3, 3, 1, generic_gate)
        parsed = json.loads(h.to_json())
        assert parsed["dim"] == h.dim
        assert len(parsed["terms"]) == len(h.terms)
        w = np.array([[complex(re, im) for re, im in t["w"]] for t in parsed["terms"]]).T
        z = np.array([t["z"] for t in parsed["terms"]])
        np.testing.assert_allclose((w * z) @ w.conj().T, h.to_dense(), atol=0)

    def test_pauli_term_validation(self):
        with pytest.raises(ValueError):
            PauliStringTerm(0.1, "Q", 1, 2)
        with pytest.raises(ValueError):
            PauliStringTerm(0.1, "X", 3, 2)
