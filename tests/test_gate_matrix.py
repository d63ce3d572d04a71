import json
from functools import reduce

import numpy as np
import pytest

from sparseq import (
    ControlledGateSpec,
    OneQubitGate,
    SparseUnitary,
    controlled_sparse,
    embedded_sparse,
    kron_controlled_dense,
    kron_embedded_dense,
    rotation_gate,
    straddled_pair_block,
    target_pair_block,
)
from sparseq.gate_matrix import _P0, _P1, JSON_CHUNK_ROWS, dense_gate
from sparseq.verify import random_gate

X = OneQubitGate(np.array([[0, 1], [1, 0]]))


def block_diag(*blocks):
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        out[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    return out


class TestTargetPairBlock:
    def test_adjacent_target_pattern(self, generic_gate):
        # n=5, control 2, target 3: one 8x8 block, partner offset 4
        u = generic_gate
        got = target_pair_block(5, 2, 3, u)
        want = np.zeros((8, 8), dtype=complex)
        r = np.arange(4)
        want[r, r] = u.u11
        want[r, r + 4] = u.u12
        want[r + 4, r] = u.u21
        want[r + 4, r + 4] = u.u22
        assert np.array_equal(got, want)

    def test_gap_target_pattern(self, generic_gate):
        # n=5, control 2, target 4: 4x4 block, partner offset 2
        u = generic_gate
        got = target_pair_block(5, 2, 4, u)
        want = np.array(
            [
                [u.u11, 0, u.u12, 0],
                [0, u.u11, 0, u.u12],
                [u.u21, 0, u.u22, 0],
                [0, u.u21, 0, u.u22],
            ]
        )
        assert np.array_equal(got, want)

    def test_identity_input(self):
        got = target_pair_block(6, 1, 3, OneQubitGate(np.eye(2)))
        assert np.array_equal(got, np.eye(16))

    def test_wrong_ordering_rejected(self, generic_gate):
        with pytest.raises(ValueError):
            target_pair_block(5, 3, 2, generic_gate)


class TestStraddledPairBlock:
    def test_one_gap_pattern(self, generic_gate):
        # n=5, control 3, target 2: 12x12, scalar blocks of u scaled I_4
        u = generic_gate
        eye, zero = np.eye(4), np.zeros((4, 4))
        want = np.block(
            [
                [u.u11 * eye, zero, u.u12 * eye],
                [zero, eye, zero],
                [u.u21 * eye, zero, u.u22 * eye],
            ]
        )
        assert np.array_equal(straddled_pair_block(5, 3, 2, u), want)

    def test_two_gap_pattern(self, generic_gate):
        # n=5, control 4, target 2: 14x14 with 2x2 sub-blocks
        u = generic_gate
        e, z = np.eye(2), np.zeros((2, 2))
        rows = [
            [u.u11 * e, z, z, z, u.u12 * e, z, z],
            [z, e, z, z, z, z, z],
            [z, z, u.u11 * e, z, z, z, u.u12 * e],
            [z, z, z, e, z, z, z],
            [u.u21 * e, z, z, z, u.u22 * e, z, z],
            [z, z, z, z, z, e, z],
            [z, z, u.u21 * e, z, z, z, u.u22 * e],
        ]
        assert np.array_equal(straddled_pair_block(5, 4, 2, u), np.block(rows))

    def test_smallest_case(self, generic_gate):
        u = generic_gate
        want = np.array([[u.u11, 0, u.u12], [0, 1, 0], [u.u21, 0, u.u22]])
        assert np.array_equal(straddled_pair_block(2, 2, 1, u), want)

    def test_wrong_ordering_rejected(self, generic_gate):
        with pytest.raises(ValueError):
            straddled_pair_block(5, 2, 4, generic_gate)


class TestControlledSparse:
    def test_control_first_two_qubits(self, generic_gate):
        u = generic_gate
        got = controlled_sparse(ControlledGateSpec(2, 1, 2, u)).to_dense()
        assert np.array_equal(got, block_diag(np.eye(2), np.asarray(u.matrix)))

    def test_target_first_two_qubits(self, generic_gate):
        u = generic_gate
        got = controlled_sparse(ControlledGateSpec(2, 2, 1, u)).to_dense()
        want = np.array(
            [
                [1, 0, 0, 0],
                [0, u.u11, 0, u.u12],
                [0, 0, 1, 0],
                [0, u.u21, 0, u.u22],
            ]
        )
        assert np.array_equal(got, want)

    def test_block_layout_control_before_target(self, generic_gate):
        # n=5, i=2, j=3: diag{I_8, B, I_8, B} with B the repeating pair block
        u = generic_gate
        got = controlled_sparse(ControlledGateSpec(5, 2, 3, u)).to_dense()
        b = target_pair_block(5, 2, 3, u)
        assert np.array_equal(got, block_diag(np.eye(8), b, np.eye(8), b))

    def test_block_layout_with_sub_blocks(self, generic_gate):
        # n=5, i=2, j=4: the pair block repeats twice inside each active block
        u = generic_gate
        got = controlled_sparse(ControlledGateSpec(5, 2, 4, u)).to_dense()
        b = target_pair_block(5, 2, 4, u)
        assert np.array_equal(
            got, block_diag(np.eye(8), b, b, np.eye(8), b, b)
        )

    def test_block_layout_control_after_target(self, generic_gate):
        u = generic_gate
        got = controlled_sparse(ControlledGateSpec(5, 3, 2, u)).to_dense()
        b = straddled_pair_block(5, 3, 2, u)
        assert np.array_equal(got, block_diag(np.eye(4), b, np.eye(4), b))

    def test_pair_block_count(self, rng):
        # control before target: 2^(i-1) repeated diagonal pair blocks;
        # control after target: 2^(j-1)
        for n in range(2, 7):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    dense = controlled_sparse(
                        ControlledGateSpec(n, i, j, random_gate(rng))
                    ).to_dense()
                    repeats = 1 << (min(i, j) - 1)
                    span = dense.shape[0] // repeats
                    pair = dense[:span, :span]
                    assert np.array_equal(dense, np.kron(np.eye(repeats), pair))

    def test_identity_specialization_is_exact(self):
        eye = OneQubitGate(np.eye(2))
        for n, i, j in [(2, 1, 2), (4, 2, 4), (4, 3, 1), (6, 5, 2)]:
            got = controlled_sparse(ControlledGateSpec(n, i, j, eye)).to_dense()
            assert np.array_equal(got, np.eye(1 << n))

    def test_equal_positions_rejected(self, generic_gate):
        with pytest.raises(ValueError):
            ControlledGateSpec(2, 2, 2, generic_gate)

    def test_single_qubit_register_rejected(self, generic_gate):
        with pytest.raises(ValueError):
            ControlledGateSpec(1, 1, 1, generic_gate)


class TestOracleEquivalence:
    def test_cnot_is_the_textbook_permutation(self):
        got = kron_controlled_dense(2, 1, 2, X)
        want = np.eye(4)[:, [0, 1, 3, 2]]
        assert np.array_equal(got, want)

    def test_reversed_cnot_permutation(self):
        got = kron_controlled_dense(2, 2, 1, X)
        want = np.eye(4)[:, [0, 3, 2, 1]]
        assert np.array_equal(got, want)

    def test_sparse_matches_kron_oracle_sweep(self, rng):
        for n in range(2, 8):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    for _ in range(20):
                        u = random_gate(rng)
                        sparse = controlled_sparse(ControlledGateSpec(n, i, j, u))
                        oracle = kron_controlled_dense(n, i, j, u)
                        assert np.max(np.abs(sparse.to_dense() - oracle)) <= 1e-13
                        assert sparse.unitarity_defect() <= 1e-12
                        assert np.all(sparse.nonzeros_per_row() <= 2)
                        assert np.all(sparse.nonzeros_per_column() <= 2)

    def test_matvec_matches_dense(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            sparse = controlled_sparse(
                ControlledGateSpec(n, int(i), int(j), random_gate(rng))
            )
            x = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            np.testing.assert_allclose(
                sparse.matvec(x), sparse.to_dense() @ x, atol=1e-13
            )

    def test_dense_cap_enforced(self, generic_gate):
        with pytest.raises(ValueError):
            kron_controlled_dense(13, 1, 2, generic_gate)
        with pytest.raises(ValueError):
            kron_embedded_dense(14, 1, generic_gate)


class TestEmbeddedSparse:
    def test_single_qubit_register(self, generic_gate):
        got = embedded_sparse(1, 1, generic_gate).to_dense()
        assert np.array_equal(got, np.asarray(generic_gate.matrix))

    def test_last_position_repeats_gate(self, generic_gate):
        got = embedded_sparse(2, 2, generic_gate).to_dense()
        m = np.asarray(generic_gate.matrix)
        assert np.array_equal(got, block_diag(m, m))

    def test_first_position_matches_kron_oracle(self, generic_gate):
        got = embedded_sparse(2, 1, generic_gate).to_dense()
        assert np.array_equal(got, kron_embedded_dense(2, 1, generic_gate))

    def test_oracle_sweep(self, rng):
        for n in range(1, 7):
            for j in range(1, n + 1):
                u = random_gate(rng)
                sparse = embedded_sparse(n, j, u)
                assert np.max(
                    np.abs(sparse.to_dense() - kron_embedded_dense(n, j, u))
                ) <= 1e-13
                assert np.all(sparse.nonzeros_per_row() <= 2)
                assert np.all(sparse.nonzeros_per_column() <= 2)
                assert sparse.unitarity_defect() <= 1e-12

    def test_position_out_of_range(self, generic_gate):
        with pytest.raises(ValueError):
            embedded_sparse(3, 4, generic_gate)


class TestSparseUnitaryFormat:
    def test_structural_zeros_are_stored(self):
        # rz has zero off-diagonal entries; the pattern must not depend on it
        sparse = controlled_sparse(ControlledGateSpec(2, 1, 2, rotation_gate("Z", 0.4)))
        row = sparse.row(2)
        assert [c for c, _ in row] == [2, 3]
        assert row[1][1] == 0j
        assert abs(row[0][1] - np.exp(-0.2j)) < 1e-15
        assert [c for c, _ in sparse.row(3)] == [2, 3]

    def test_json_round_trip(self, generic_gate):
        sparse = controlled_sparse(ControlledGateSpec(4, 3, 2, generic_gate))
        parsed = SparseUnitary.from_json(sparse.to_json())
        assert parsed.dim == sparse.dim
        assert np.array_equal(parsed.to_dense(), sparse.to_dense())
        assert np.array_equal(parsed.cols, sparse.cols)

    def test_json_schema_fields(self, generic_gate):
        data = json.loads(embedded_sparse(2, 1, generic_gate).to_json())
        assert data["schema"] == 1
        assert data["dim"] == 4
        assert len(data["rows"]) == 4

    def test_rejects_column_overflow(self):
        cols = np.array([[0, 1], [0, 1], [0, 1], [2, 3]])
        vals = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            SparseUnitary(4, cols, vals)

    def test_rejects_unsorted_columns(self):
        cols = np.array([[1, 0], [2, 3], [-1, -1], [-1, -1]])
        vals = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            SparseUnitary(4, cols, vals)


class TestDenseGateDispatch:
    def test_single_and_controlled_routes(self, generic_gate):
        np.testing.assert_array_equal(
            dense_gate(3, 2, generic_gate), kron_embedded_dense(3, 2, generic_gate)
        )
        np.testing.assert_array_equal(
            dense_gate(3, 2, generic_gate, i=1),
            kron_controlled_dense(3, 1, 2, generic_gate),
        )


def np_kron_dense(n, j, u, i=None):
    """dense_gate's factors, reduced with np.kron itself."""
    m = np.asarray(u.matrix)
    if i is None:
        return reduce(np.kron, [np.eye(1 << (j - 1)), m, np.eye(1 << (n - j))])
    eye2 = np.eye(2)
    idle = [_P0 if q == i else eye2 for q in range(1, n + 1)]
    active = [_P1 if q == i else (m if q == j else eye2) for q in range(1, n + 1)]
    return reduce(np.kron, idle) + reduce(np.kron, active)


class TestKronChainBits:
    """The broadcast Kronecker product forms the same entrywise products as
    np.kron, so the dense oracle keeps every bit, signed zeros included."""

    def test_dense_gate_matches_np_kron_bit_for_bit(self, rng):
        gates = [random_gate(rng) for _ in range(3)]
        # Negative real and imaginary entries make -0.0 products with the
        # zeros of the identity and projector factors.
        gates += [OneQubitGate(np.array([[0, -1j], [-1j, 0]])),
                  OneQubitGate(np.array([[-1, 0], [0, 1j]])),
                  rotation_gate("Y", -2.0)]
        signed = 0
        for n in range(1, 7):
            for j in range(1, n + 1):
                for i in [None, *(q for q in range(1, n + 1) if q != j)]:
                    for u in gates:
                        got, want = dense_gate(n, j, u, i), np_kron_dense(n, j, u, i)
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, j, i)
                        signed += int(np.count_nonzero(np.signbit(want.view(float)) & (want.view(float) == 0)))
        assert signed > 0


def reference_sparse_json(sparse):
    """The schema-1 gate dict dumped whole: one [column, re, im] per stored
    slot."""
    rows = [
        [[int(c), float(v.real), float(v.imag)] for c, v in sparse.row(k)]
        for k in range(sparse.dim)
    ]
    return json.dumps({"schema": 1, "dim": sparse.dim, "rows": rows})


class TestSparseUnitaryJson:
    def test_chunks_match_json_dumps_for_every_placement(self, generic_gate):
        gates = [generic_gate, X, rotation_gate("X", 0.7), rotation_gate("Z", -2.5)]
        for n in range(1, 6):
            for j in range(1, n + 1):
                for u in gates:
                    sparse = embedded_sparse(n, j, u)
                    assert sparse.to_json() == reference_sparse_json(sparse)
                    for i in range(1, n + 1):
                        if i != j:
                            sparse = controlled_sparse(ControlledGateSpec(n, i, j, u))
                            assert sparse.to_json() == reference_sparse_json(sparse)

    def test_chunks_past_one_piece(self):
        sparse = controlled_sparse(ControlledGateSpec(13, 13, 2, rotation_gate("X", 0.7)))
        pieces = list(sparse.json_chunks())
        assert len(pieces) == 2 + (1 << 13) // JSON_CHUNK_ROWS
        assert "".join(pieces) == reference_sparse_json(sparse)

    def test_signed_zeros_and_non_finite_values(self):
        cols = np.array([[0, 1], [0, 1], [2, -1], [3, -1]])
        vals = np.array([[0.0, 1.0], [-0.0, 1.0], [complex(1, -0.0), 0], [1.0, 0]])
        sparse = SparseUnitary(4, cols, vals)
        text = reference_sparse_json(sparse)
        assert "-0.0" in text
        assert sparse.to_json() == text
        assert json.loads(sparse.to_json()) == json.loads(text)
        # Non-finite values never reach the writer: construction rejects them.
        for bad in ([[np.nan, 0], [1.0, 0]], [[1.0, 0], [np.inf, 0]], [[complex(1, np.nan), 0], [1.0, 0]]):
            with pytest.raises(ValueError, match="finite"):
                SparseUnitary(2, np.array([[0, -1], [1, -1]]), np.array(bad))
        for text in (
            '{"schema": 1, "dim": 2, "rows": [[[0, NaN, 0.0]], [[1, 1.0, 0.0]]]}',
            '{"schema": 1, "dim": 2, "rows": [[[0, 1.0, 0.0]], [[1, 1.0, -Infinity]]]}',
        ):
            with pytest.raises(ValueError, match="finite"):
                SparseUnitary.from_json(text)
