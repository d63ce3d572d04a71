import cmath
import json
import math

import numpy as np
import pytest

from sparseq import (
    ControlledGateSpec,
    LocalHamiltonian,
    OneQubitGate,
    ProjectorTerm,
    controlled_gate_hamiltonian,
    controlled_sparse,
    dense_gate,
    eigenpairs_2x2,
    embedded_gate_hamiltonian,
    exp_minus_ih,
    frobenius_error,
    rotation_gate,
    straddled_pair_block,
    straddled_pair_eigenpairs,
    target_pair_block,
    target_pair_eigenpairs,
)
from sparseq.engine import Circuit, GateOp
from sparseq.verify import random_gate, reconstruction_error

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
                    dense = dense_gate(n, j, u, i)
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

    def test_orthonormality(self, rng, term_columns):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            h = controlled_gate_hamiltonian(n, int(i), int(j), random_gate(rng))
            _, w = term_columns(h)
            assert np.max(np.abs(w.conj().T @ w - np.eye(w.shape[1]))) <= 1e-10

    def test_crx_sweep_small(self):
        for theta in np.linspace(-math.pi, math.pi, 25):
            u = rotation_gate("X", theta)
            h = controlled_gate_hamiltonian(4, 1, 2, u)
            dense = dense_gate(4, 2, u, 1)
            assert frobenius_error(dense, exp_minus_ih(h)) <= 1e-12

    def test_ordering_preconditions(self, generic_gate):
        # `sparseq hamiltonian -i/-j` prints these texts on stderr.
        cases = {
            (2, 2): "control position 2 invalid for target 2 of 1..3",
            (4, 1): "control position 4 invalid for target 1 of 1..3",
            (5, 4): "target position 4 out of range 1..3",
            (2, 0): "target position 0 out of range 1..3",
            (1, 4): "target position 4 out of range 1..3",
            (4, 5): "target position 5 out of range 1..3",
            (0, 2): "control position 0 invalid for target 2 of 1..3",
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
            dense = dense_gate(n, j, u)
            assert frobenius_error(dense, exp_minus_ih(h)) <= 1e-12

    def test_position_out_of_range(self, generic_gate):
        with pytest.raises(ValueError):
            embedded_gate_hamiltonian(2, 3, generic_gate)

    def test_position_out_of_range_names_the_target(self, generic_gate):
        with pytest.raises(ValueError, match=r"^target position 4 out of range 1\.\.3$"):
            embedded_gate_hamiltonian(3, 4, generic_gate)


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

    def test_dense_realization_is_hermitian(self, rng, term_columns):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            theta = float(rng.uniform(-math.pi, math.pi))
            h = controlled_gate_hamiltonian(n, int(i), int(j), rotation_gate("Z", theta))
            z, w = term_columns(h)
            m = (w * z) @ w.conj().T
            assert np.max(np.abs(m - m.conj().T)) <= 1e-15

    def test_cnot_dense_realization(self, term_columns):
        h = controlled_gate_hamiltonian(2, 1, 2, X)
        w = np.array([0, 0, 1, -1]) / math.sqrt(2)
        z, terms = term_columns(h)
        np.testing.assert_allclose(
            (terms * z) @ terms.conj().T, math.pi * np.outer(w, w), atol=1e-14
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

    WEIGHT = "^term weight {} outside \\(-pi, pi\\] or zero$"
    VECTOR = "^term vector is not a finite unit vector$"

    @pytest.mark.parametrize("z, w, message", [
        (math.nan, [1.0, 0.0], WEIGHT.format("nan")),
        (math.inf, [1.0, 0.0], WEIGHT.format("inf")),
        (-math.inf, [1.0, 0.0], WEIGHT.format("-inf")),
        (0.0, [1.0, 0.0], WEIGHT.format("0.0")),
        (-0.0, [1.0, 0.0], WEIGHT.format("-0.0")),
        (-math.pi, [1.0, 0.0], WEIGHT.format("-3.141592653589793")),
        (math.nextafter(math.pi, 4.0), [1.0, 0.0], WEIGHT.format("3.1415926535897936")),
        (4.0, [1.0, 0.0], WEIGHT.format("4.0")),
        (0.0, [math.nan, 0.0], WEIGHT.format("0.0")),
        (1.0, [math.nan, 0.0], VECTOR),
        (1.0, [0.0, complex(0.0, math.nan)], VECTOR),
        (1.0, [-math.inf, 0.0], VECTOR),
        (1.0, [1.0, 1.0], VECTOR),
        (1.0, [0.0, 0.0], VECTOR),
        (1.0, [0.6, 0.8 + 1e-11], VECTOR),
    ])
    def test_refusals_name_the_first_bad_value(self, z, w, message):
        """The scalar check of the stored rows and the array check of dense
        terms refuse the same input with the same message, weights first."""
        with pytest.raises(ValueError, match=message):
            LocalHamiltonian(1, 1, None, [z], [w])
        with pytest.raises(ValueError, match=message):
            LocalHamiltonian(1, 1, None, [math.pi, z], [[0.0, 1.0], w])
        with pytest.raises(ValueError, match=message):
            ProjectorTerm(z, np.array(w))

    def test_weights_are_judged_before_vectors_across_rows(self):
        with pytest.raises(ValueError, match=self.WEIGHT.format("4.0")):
            LocalHamiltonian(1, 1, None, [1.0, 4.0], [[math.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=self.WEIGHT.format("nan")):
            LocalHamiltonian(1, 1, None, [math.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]])

    def test_unit_rows_within_the_tolerance_pass(self):
        h = LocalHamiltonian(1, 1, None, [math.pi, -1.0], [[0.6, 0.8 + 1e-13], [1j, 0.0]])
        assert h.weights.tolist() == [math.pi, -1.0]

    @pytest.mark.parametrize("overlap", [math.sqrt(0.5), 1e-9, -2e-10j])
    def test_non_orthonormal_rows_refused_on_use(self, overlap):
        """Unit rows pass UNIT_TOL, which is tighter than ORTHO_TOL, so only
        an overlap above ORTHO_TOL is left for exp_minus_ih to refuse."""
        second = [overlap, math.sqrt(1.0 - abs(overlap) ** 2)]
        h = LocalHamiltonian(1, 1, None, [1.0, 1.0], [[1.0, 0.0], second])
        with pytest.raises(ValueError, match="^term vectors are not orthonormal; rank-1 "
                                             "exponential invalid$"):
            exp_minus_ih(h)
        near = LocalHamiltonian(1, 1, None, [1.0, 1.0], [[1.0, 0.0], [1e-11, 1.0]])
        assert exp_minus_ih(near).shape == (2, 2)

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
        assert [t.z for t in h.terms] == [0.5, 0.5, -1.0, -1.0]
        want = [[0.6, 0.8j, 0, 0], [0, 0, 0.6, 0.8j], [-0.0, 1.0, 0, 0], [0, 0, -0.0, 1.0]]
        for t, w in zip(h.terms, want):
            assert np.array_equal(t.w, w)
        assert h.to_json().count("-0.0") == 2

    def test_json_round_trip(self, generic_gate, term_columns):
        h = controlled_gate_hamiltonian(3, 3, 1, generic_gate)
        parsed = json.loads(h.to_json())
        assert parsed["dim"] == h.dim
        assert len(parsed["terms"]) == len(h.terms)
        w = np.array([[complex(re, im) for re, im in t["w"]] for t in parsed["terms"]]).T
        z = np.array([t["z"] for t in parsed["terms"]])
        z_terms, w_terms = term_columns(h)
        np.testing.assert_allclose((w * z) @ w.conj().T, (w_terms * z_terms) @ w_terms.conj().T,
                                   atol=0)


class TestTinyOffDiagonals:
    """Off-diagonal entries whose products underflow to zero. The column
    norms are hypots of moduli, which do not underflow, so the rows stay
    finite unit vectors and the gate is rebuilt exactly."""

    @pytest.mark.parametrize("off", [(1e-200j, 1e-200j), (-1e-200j, -1e-200j), (1e-200j, -1e-200j),
                                     (5e-324, -5e-324), (5e-324, 5e-324)])
    @pytest.mark.parametrize("phases", [(0.3, 0.3), (0.3, -0.3)])
    def test_finite_unit_rows_and_exact_reconstruction(self, off, phases):
        u = OneQubitGate([[cmath.exp(1j * phases[0]), off[0]], [off[1], cmath.exp(1j * phases[1])]])
        for n in range(1, 4):
            for j in range(1, n + 1):
                for i in [None, *(q for q in range(1, n + 1) if q != j)]:
                    if i is None:
                        h = embedded_gate_hamiltonian(n, j, u)
                    else:
                        h = controlled_gate_hamiltonian(n, i, j, u)
                    assert len(h.weights) == 2
                    assert np.all(np.isfinite(h.vectors)) and np.all(np.isfinite(h.weights))
                    assert np.max(np.abs(np.linalg.norm(h.vectors, axis=1) - 1)) <= 1e-15
                    error = reconstruction_error(Circuit(n, (GateOp(j, u, i=i),)))
                    assert error <= 1e-12, (n, j, i, error)
