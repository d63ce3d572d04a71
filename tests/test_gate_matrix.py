import json
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from sparseq import (
    Circuit,
    ControlledGateSpec,
    OneQubitGate,
    SparseUnitary,
    StateVector,
    bind,
    circuit_hamiltonians,
    controlled_sparse,
    dense_gate,
    eigenpairs_2x2,
    embedded_gate_hamiltonian,
    embedded_sparse,
    exp_minus_ih,
    parse_circuit,
    rotation_gate,
    straddled_pair_block,
    straddled_pair_eigenpairs,
    string_hamiltonian_sweep,
    target_pair_block,
    target_pair_eigenpairs,
)
from sparseq.circuit_ir import groups_unitary
from sparseq.gate_matrix import _P0, _P1, JSON_CHUNK_ROWS
from sparseq.qindex import pair_indices
from sparseq.verify import dense_chain, dense_circuit_unitary, gate_hamiltonian_sweep, random_gate

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
    def test_control_first_two_qubits(self, generic_gate, gate_dense):
        u = generic_gate
        got = gate_dense(controlled_sparse(ControlledGateSpec(2, 1, 2, u)))
        assert np.array_equal(got, block_diag(np.eye(2), np.asarray(u.matrix)))

    def test_target_first_two_qubits(self, generic_gate, gate_dense):
        u = generic_gate
        got = gate_dense(controlled_sparse(ControlledGateSpec(2, 2, 1, u)))
        want = np.array(
            [
                [1, 0, 0, 0],
                [0, u.u11, 0, u.u12],
                [0, 0, 1, 0],
                [0, u.u21, 0, u.u22],
            ]
        )
        assert np.array_equal(got, want)

    def test_block_layout_control_before_target(self, generic_gate, gate_dense):
        # n=5, i=2, j=3: diag{I_8, B, I_8, B} with B the repeating pair block
        u = generic_gate
        got = gate_dense(controlled_sparse(ControlledGateSpec(5, 2, 3, u)))
        b = target_pair_block(5, 2, 3, u)
        assert np.array_equal(got, block_diag(np.eye(8), b, np.eye(8), b))

    def test_block_layout_with_sub_blocks(self, generic_gate, gate_dense):
        # n=5, i=2, j=4: the pair block repeats twice inside each active block
        u = generic_gate
        got = gate_dense(controlled_sparse(ControlledGateSpec(5, 2, 4, u)))
        b = target_pair_block(5, 2, 4, u)
        assert np.array_equal(
            got, block_diag(np.eye(8), b, b, np.eye(8), b, b)
        )

    def test_block_layout_control_after_target(self, generic_gate, gate_dense):
        u = generic_gate
        got = gate_dense(controlled_sparse(ControlledGateSpec(5, 3, 2, u)))
        b = straddled_pair_block(5, 3, 2, u)
        assert np.array_equal(got, block_diag(np.eye(4), b, np.eye(4), b))

    def test_pair_block_count(self, rng, gate_dense):
        # control before target: 2^(i-1) repeated diagonal pair blocks;
        # control after target: 2^(j-1)
        for n in range(2, 7):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    dense = gate_dense(controlled_sparse(
                        ControlledGateSpec(n, i, j, random_gate(rng))
                    ))
                    repeats = 1 << (min(i, j) - 1)
                    span = dense.shape[0] // repeats
                    pair = dense[:span, :span]
                    assert np.array_equal(dense, np.kron(np.eye(repeats), pair))

    def test_identity_specialization_is_exact(self, gate_dense):
        eye = OneQubitGate(np.eye(2))
        for n, i, j in [(2, 1, 2), (4, 2, 4), (4, 3, 1), (6, 5, 2)]:
            got = gate_dense(controlled_sparse(ControlledGateSpec(n, i, j, eye)))
            assert np.array_equal(got, np.eye(1 << n))

    def test_equal_positions_rejected(self, generic_gate):
        with pytest.raises(ValueError):
            ControlledGateSpec(2, 2, 2, generic_gate)

    def test_single_qubit_register_rejected(self, generic_gate):
        with pytest.raises(ValueError):
            ControlledGateSpec(1, 1, 1, generic_gate)


class TestOracleEquivalence:
    def test_cnot_is_the_textbook_permutation(self):
        got = dense_gate(2, 2, X, i=1)
        want = np.eye(4)[:, [0, 1, 3, 2]]
        assert np.array_equal(got, want)

    def test_reversed_cnot_permutation(self):
        got = dense_gate(2, 1, X, i=2)
        want = np.eye(4)[:, [0, 3, 2, 1]]
        assert np.array_equal(got, want)

    def test_sparse_matches_kron_oracle_sweep(self, rng, slot_counts, gate_dense):
        for n in range(2, 8):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    for _ in range(20):
                        u = random_gate(rng)
                        sparse = controlled_sparse(ControlledGateSpec(n, i, j, u))
                        oracle = dense_gate(n, j, u, i=i)
                        dense = gate_dense(sparse)
                        assert np.max(np.abs(dense - oracle)) <= 1e-13
                        assert np.max(np.abs(dense.conj().T @ dense - np.eye(sparse.dim))) <= 1e-12
                        per_row, per_column = slot_counts(sparse)
                        assert np.all(per_row <= 2) and np.all(per_column <= 2)

    def test_matvec_matches_dense(self, rng, gate_dense):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            sparse = controlled_sparse(
                ControlledGateSpec(n, int(i), int(j), random_gate(rng))
            )
            x = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            np.testing.assert_allclose(
                sparse.matvec(x), gate_dense(sparse) @ x, atol=1e-13
            )

    def test_dense_cap_enforced(self, generic_gate):
        with pytest.raises(ValueError):
            dense_gate(13, 2, generic_gate, i=1)
        with pytest.raises(ValueError):
            dense_gate(14, 1, generic_gate)


class TestEmbeddedSparse:
    def test_single_qubit_register(self, generic_gate, gate_dense):
        got = gate_dense(embedded_sparse(1, 1, generic_gate))
        assert np.array_equal(got, np.asarray(generic_gate.matrix))

    def test_last_position_repeats_gate(self, generic_gate, gate_dense):
        got = gate_dense(embedded_sparse(2, 2, generic_gate))
        m = np.asarray(generic_gate.matrix)
        assert np.array_equal(got, block_diag(m, m))

    def test_first_position_matches_kron_oracle(self, generic_gate, gate_dense):
        got = gate_dense(embedded_sparse(2, 1, generic_gate))
        assert np.array_equal(got, dense_gate(2, 1, generic_gate))

    def test_oracle_sweep(self, rng, slot_counts, gate_dense):
        for n in range(1, 7):
            for j in range(1, n + 1):
                u = random_gate(rng)
                sparse = embedded_sparse(n, j, u)
                dense = gate_dense(sparse)
                assert np.max(np.abs(dense - dense_gate(n, j, u))) <= 1e-13
                per_row, per_column = slot_counts(sparse)
                assert np.all(per_row <= 2) and np.all(per_column <= 2)
                assert np.max(np.abs(dense.conj().T @ dense - np.eye(sparse.dim))) <= 1e-12

    def test_position_out_of_range(self, generic_gate):
        with pytest.raises(ValueError):
            embedded_sparse(3, 4, generic_gate)


class TestSparseUnitaryFormat:
    def test_structural_zeros_are_stored(self):
        # rz has zero off-diagonal entries; the pattern must not depend on it
        sparse = controlled_sparse(ControlledGateSpec(2, 1, 2, rotation_gate("Z", 0.4)))
        rows = json.loads(sparse.to_json())["rows"]
        assert [c for c, _, _ in rows[2]] == [2, 3]
        assert complex(*rows[2][1][1:]) == 0j
        assert abs(complex(*rows[2][0][1:]) - np.exp(-0.2j)) < 1e-15
        assert [c for c, _, _ in rows[3]] == [2, 3]

    def test_json_round_trip(self, generic_gate):
        sparse = controlled_sparse(ControlledGateSpec(4, 3, 2, generic_gate))
        parsed = json.loads(sparse.to_json())
        assert parsed["dim"] == sparse.dim
        dense = np.zeros((sparse.dim, sparse.dim), dtype=complex)
        cols = np.full((sparse.dim, 2), -1)
        for k, row in enumerate(parsed["rows"]):
            for slot, (c, re, im) in enumerate(row):
                dense[k, c] = complex(re, im)
                cols[k, slot] = c
        assert np.array_equal(dense, dense_gate(4, 2, generic_gate, 3))
        assert np.array_equal(cols, pair_sparse_arrays(4, 2, generic_gate, 3)[0])

    def test_json_schema_fields(self, generic_gate):
        data = json.loads(embedded_sparse(2, 1, generic_gate).to_json())
        assert data["schema"] == 1
        assert data["dim"] == 4
        assert len(data["rows"]) == 4

    # The columns derive from the placement, so only a bad placement could
    # give a column out of range or a row whose columns do not increase. It
    # is refused before any column exists, by qindex.check_placement.
    def test_rejects_column_overflow(self, generic_gate):
        for n, j in [(2, 3), (3, 4), (3, 0), (0, 1), (-3, 1)]:
            with pytest.raises(ValueError):
                SparseUnitary(n, j, generic_gate)
        with pytest.raises(ValueError, match=r"^target position 4 out of range 1\.\.3$"):
            SparseUnitary(3, 4, generic_gate)
        with pytest.raises(ValueError, match="^register size -3 must be at least 1 qubit$"):
            SparseUnitary(-3, 1, generic_gate)

    def test_rejects_unsorted_columns(self, generic_gate):
        for n, j, i in [(2, 2, 2), (3, 1, 0), (3, 1, 4)]:
            with pytest.raises(ValueError, match="^control position"):
                SparseUnitary(n, j, generic_gate, i)

    def test_placement_and_gate_cannot_be_reassigned(self, generic_gate):
        """check_placement judged (n, j, i) once, in the constructor, so a
        built gate keeps it: n = 30 would price a 2^30 walk, and a u that is
        not a OneQubitGate would reach the writers."""
        sparse = SparseUnitary(3, 2, generic_gate, 1)
        before = sparse.to_json()
        for name, value in (("n", 30), ("j", 9), ("i", 0), ("u", "x"), ("other", 1)):
            with pytest.raises(AttributeError, match="^SparseUnitary is immutable$"):
                setattr(sparse, name, value)
        assert (sparse.n, sparse.j, sparse.i, sparse.u) == (3, 2, 1, generic_gate)
        assert sparse.to_json() == before


def pair_sparse_arrays(n, j, u, i=None):
    """cols and vals of the 2-sparse matrix as the array-built constructor
    packed them: identity rows, except that each target pair (k, k + 2^(n-j))
    carries row 0 of u in its low row and row 1 in its high row. cols[k]
    holds the increasing columns of row k, -1 marking an absent slot."""
    dim = 1 << n
    low, high = pair_indices(n, j, i)
    assert np.array_equal(high, low + (1 << (n - j)))
    cols = np.full((dim, 2), -1, dtype=np.int64)
    cols[:, 0] = np.arange(dim)
    vals = np.zeros((dim, 2), dtype=complex)
    vals[:, 0] = 1.0
    cols[low] = cols[high] = np.stack([low, high], axis=1)
    vals[low] = u.matrix[0]
    vals[high] = u.matrix[1]
    return cols, vals


class TestDerivedArrays:
    def test_json_and_dense_match_the_array_packing_bit_for_bit(self, table_gates, gate_dense):
        """The JSON writes every float by repr, so equal text means equal
        bits, signed zeros included."""
        for u in table_gates:
            for n in range(1, 8):
                for j in range(1, n + 1):
                    for i in [None, *(q for q in range(1, n + 1) if q != j)]:
                        sparse = SparseUnitary(n, j, u, i)
                        cols, vals = pair_sparse_arrays(n, j, u, i)
                        assert sparse.to_json() == reference_sparse_json(sparse), (n, j, i)
                        dense = np.zeros((sparse.dim, sparse.dim), dtype=complex)
                        for k, (cs, vs) in enumerate(zip(cols.tolist(), vals.tolist())):
                            for c, v in zip(cs, vs):
                                if c >= 0:
                                    dense[k, c] = v
                        got = gate_dense(sparse)
                        assert np.array_equal(got.view(np.uint64), dense.view(np.uint64)), (n, j, i)

    def test_controlled_sparse_holds_no_per_row_arrays(self, generic_gate):
        spec = ControlledGateSpec(16, 3, 9, generic_gate)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sparse = controlled_sparse(spec)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert sparse.dim == 1 << 16
        assert held < 4 * 1024

    def test_matvec_peaks_within_four_states(self, generic_gate):
        """The product reads the pair indices, not per-row arrays: at n=20 it
        peaks at 2.5 states, where the packed arrays took 5."""
        n = 20
        x = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
        for j, i in [(1, None), (n, None), (2, 1), (1, n)]:
            sparse = SparseUnitary(n, j, generic_gate, i)
            tracemalloc.start()
            try:
                y = sparse.matvec(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * x.nbytes, (j, i, peak / x.nbytes)
            assert abs(np.vdot(y, y).real - 1.0) <= 1e-12


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
    slot of the array packing."""
    cols, vals = pair_sparse_arrays(sparse.n, sparse.j, sparse.u, sparse.i)
    rows = [
        [[c, v.real, v.imag] for c, v in zip(cs, vs) if c >= 0]
        for cs, vs in zip(cols.tolist(), vals.tolist())
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
        u = OneQubitGate(np.array([[complex(0.0, -0.0), -1.0], [complex(-1.0, -0.0), -0.0]]))
        for sparse in (embedded_sparse(2, 1, u), controlled_sparse(ControlledGateSpec(2, 2, 1, u))):
            text = reference_sparse_json(sparse)
            assert "-0.0" in text
            assert sparse.to_json() == text
            assert json.loads(sparse.to_json()) == json.loads(text)
        # Non-finite values never reach the writer: the gate refuses them.
        bads = ([[np.nan, 0], [0, 1.0]], [[1.0, 0], [0, np.inf]], [[complex(1, np.nan), 0], [0, 1.0]])
        for bad in bads:
            with pytest.raises(ValueError, match="finite"):
                embedded_sparse(1, 1, OneQubitGate(np.array(bad)))


def _capped_constructions():
    """Name -> call of every dense construction of the package at n=13, its
    inputs built up front: each sizes a 2^13-order matrix from n. The paper's
    pair references size theirs from the target pair span, n - j + 1 qubits
    of a 14-qubit register."""
    n = 13
    x_pairs = eigenpairs_2x2(X)
    h = embedded_gate_hamiltonian(n, 2, X)
    empty_h = embedded_gate_hamiltonian(n, 2, OneQubitGate(np.eye(2)))
    circuit = bind(parse_circuit(f"qubits {n}\nu q1 h\ncx q1 q{n}\n"))
    groups = circuit_hamiltonians(circuit)
    state = StateVector.zero(n)
    return {
        "dense_gate": lambda: dense_gate(n, 3, X),
        "dense_gate_controlled": lambda: dense_gate(n, 3, X, i=n),
        "LocalHamiltonian.terms": lambda: h.terms,
        "exp_minus_ih": lambda: exp_minus_ih(h),
        "exp_minus_ih_no_terms": lambda: exp_minus_ih(empty_h),
        "groups_unitary": lambda: groups_unitary(groups, n),
        "groups_unitary_no_groups": lambda: groups_unitary([], n),
        "dense_circuit_unitary": lambda: dense_circuit_unitary(circuit),
        "dense_circuit_unitary_no_ops": lambda: dense_circuit_unitary(Circuit(n, ())),
        "dense_chain": lambda: dense_chain(circuit, state),
        "gate_hamiltonian_sweep": lambda: gate_hamiltonian_sweep(n, 1, 2),
        "string_hamiltonian_sweep": lambda: string_hamiltonian_sweep(n),
        "target_pair_block": lambda: target_pair_block(n + 1, 1, 2, X),
        "straddled_pair_block": lambda: straddled_pair_block(n + 1, n + 1, 2, X),
        "target_pair_eigenpairs": lambda: target_pair_eigenpairs(n + 1, 1, 2, x_pairs),
        "straddled_pair_eigenpairs": lambda: straddled_pair_eigenpairs(n + 1, n + 1, 2, x_pairs),
    }


CAPPED = _capped_constructions()


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_dense_construction_refused_before_allocating(name):
    """A 2^13-order complex matrix is 1 GiB; each construction refuses n=13
    through check_dense_cap while its traced peak stays under 1 MiB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^dense construction capped at 12 qubits, got n=13$"):
            CAPPED[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, (name, peak)


@pytest.mark.parametrize("i, j, message", [
    (0, 2, "control position 0 invalid for target 2 of 1..3"),
    (1, 4, "target position 4 out of range 1..3"),
    (2, 1, "requires control before target, got i=2, j=1"),
])
@pytest.mark.parametrize("build", ["block", "eigenpairs"])
def test_target_pair_references_judge_the_placement(generic_gate, build, i, j, message):
    with pytest.raises(ValueError) as info:
        if build == "block":
            target_pair_block(3, i, j, generic_gate)
        else:
            target_pair_eigenpairs(3, i, j, eigenpairs_2x2(generic_gate))
    assert str(info.value) == message


@pytest.mark.parametrize("i, j, message", [
    (4, 1, "control position 4 invalid for target 1 of 1..3"),
    (5, 4, "target position 4 out of range 1..3"),
    (2, 0, "target position 0 out of range 1..3"),
    (1, 2, "requires control after target, got i=1, j=2"),
])
@pytest.mark.parametrize("build", ["block", "eigenpairs"])
def test_straddled_pair_references_judge_the_placement(generic_gate, build, i, j, message):
    with pytest.raises(ValueError) as info:
        if build == "block":
            straddled_pair_block(3, i, j, generic_gate)
        else:
            straddled_pair_eigenpairs(3, i, j, eigenpairs_2x2(generic_gate))
    assert str(info.value) == message
