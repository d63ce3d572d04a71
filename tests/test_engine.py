import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from sparseq import (
    Circuit,
    GateOp,
    OneQubitGate,
    StateVector,
    apply_exp_minus_ih,
    apply_op,
    controlled_gate_hamiltonian,
    embedded_gate_hamiltonian,
    rotation_gate,
    run_circuit,
)
from sparseq import engine
from sparseq.circuit_ir import GATES
from sparseq.engine import amplitudes_csv, probabilities_csv
from sparseq.gate_matrix import dense_gate
from sparseq.qindex import pair_views
from sparseq.verify import random_gate

X = OneQubitGate(np.array([[0, 1], [1, 0]]))
H = OneQubitGate(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
EYE = OneQubitGate(np.eye(2))


def random_state(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def state_with_signed_zeros(rng, n):
    """A random state with exact zeros of either sign at indices 1, 2 and 6
    and, for n = 15, on both sides of the state CSVs' first chunk boundary."""
    s = random_state(rng, n)
    s.amps[[1, 6]] = complex(-0.0, 0.0), complex(0.0, -0.0)
    s.amps[2] = complex(s.amps[2].real, -0.0)
    if n == 15:
        edge = engine._CSV_CHUNK_ROWS
        s.amps[[edge - 1, edge]] = complex(-0.0, -0.0), complex(-0.0, 0.0)
        s.amps[edge + 1] = complex(s.amps[edge + 1].real, -0.0)
    return s


def reference_full_mix(a0, a1, u):
    """The general 2x2 mix done directly on two pair views: both new halves
    computed out of place, scalar first, then written back."""
    n0 = u.u11 * a0 + u.u12 * a1
    n1 = u.u21 * a0 + u.u22 * a1
    a0[...], a1[...] = n0, n1


def reference_apply(state, op):
    """apply_op done directly on the pair views of the whole state, the
    reference for the chunk kernel: a diagonal u multiplies each half in place
    and skips a half whose entry is exactly 1; a one-element view takes the
    full mix."""
    a0, a1 = pair_views(state.amps, state.n, op.j, op.i)
    u = op.u
    if u.u12 == 0 and u.u21 == 0 and a0.size > 1:
        if u.u11 != 1:
            np.multiply(u.u11, a0, out=a0)
        if u.u22 != 1:
            np.multiply(u.u22, a1, out=a1)
    else:
        reference_full_mix(a0, a1, u)
    return state


class TestStateVector:
    def test_default_is_all_zero_basis_state(self):
        s = StateVector.zero(3)
        assert s.amps[0] == 1.0 and np.count_nonzero(s.amps) == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_non_finite_amplitudes(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                StateVector(1, np.array([bad, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_json_round_trip(self, rng):
        s = random_state(rng, 3)
        back = StateVector.from_json(s.to_json())
        assert back.n == 3
        np.testing.assert_allclose(back.amps, s.amps, atol=0)

    def test_from_json_rejects_bad_length(self):
        with pytest.raises(ValueError):
            StateVector.from_json("[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]")

    @pytest.mark.parametrize("text", [
        "5", "[1, 2]", '["ab", "cd"]', "[]", "[[1.0, 0.0], [0.0]]", '[[1.0, 0.0], [0.0, "0"]]',
    ])
    def test_from_json_rejects_non_pairs(self, text):
        with pytest.raises(ValueError):
            StateVector.from_json(text)

    def test_norm_matches_linalg_norm(self, rng):
        for n in (1, 5, 12):
            s = random_state(rng, n)
            s.amps *= rng.uniform(0.5, 2.0)
            assert abs(s.norm() - np.linalg.norm(s.amps)) <= 1e-14

    def test_to_json_prints_exact_zeros_unsigned(self):
        s = StateVector(2, np.array([-0.0 + 1j, complex(0.0, -0.0), 0.0, 0.0]))
        assert s.to_json() == "[[0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]"

    @pytest.mark.parametrize("n", [3, 15])
    def test_amplitudes_csv_writes_the_json_values(self, rng, n):
        s = state_with_signed_zeros(rng, n)
        text = amplitudes_csv(s)
        assert text.endswith("\n")
        header, *rows = text.splitlines()
        assert header == "index,re,im"
        pairs = json.loads(s.to_json())
        assert rows == [f"{k},{re!r},{im!r}" for k, (re, im) in enumerate(pairs)]
        assert rows[1] == "1,0.0,0.0" and rows[6] == "6,0.0,0.0" and rows[2].endswith(",0.0")
        if n == 15:
            edge = engine._CSV_CHUNK_ROWS
            assert rows[edge - 1] == f"{edge - 1},0.0,0.0" and rows[edge] == f"{edge},0.0,0.0"
            assert rows[edge + 1].endswith(",0.0")

    def test_from_json_keeps_signed_zeros(self):
        s = StateVector.from_json("[[-0.0, 1.0], [0.0, -0.0]]")
        assert np.signbit(s.amps.real).tolist() == [True, False]
        assert np.signbit(s.amps.imag).tolist() == [False, True]


class TestApplySingleQubit:
    def test_first_column_lands_on_zero_state(self, generic_gate):
        s = apply_op(StateVector.zero(1), GateOp(1, generic_gate))
        assert s.amps[0] == generic_gate.u11
        assert s.amps[1] == generic_gate.u21

    def test_identity_leaves_state_bitwise_unchanged(self, rng):
        s = random_state(rng, 4)
        before = s.amps.copy()
        apply_op(s, GateOp(2, EYE))
        assert np.array_equal(s.amps, before)

    def test_matches_dense_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 8))
            j = int(rng.integers(1, n + 1))
            u = random_gate(rng)
            s = random_state(rng, n)
            want = dense_gate(n, j, u) @ s.amps
            apply_op(s, GateOp(j, u))
            assert np.max(np.abs(s.amps - want)) <= 1e-13

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            apply_op(StateVector.zero(2), GateOp(3, X))


class TestApplyControlled:
    def test_cnot_flips_target_when_control_set(self):
        s = StateVector.basis(2, 2)  # |10>
        apply_op(s, GateOp(2, X, i=1))
        assert np.array_equal(s.amps, StateVector.basis(2, 3).amps)

    def test_adjacent_pair_coefficients_exact(self, rng, generic_gate):
        # control 2, target 3 of 5: index 8 mixes with 12 through rows of u
        u = generic_gate
        s = random_state(rng, 5)
        before = s.amps.copy()
        apply_op(s, GateOp(3, u, i=2))
        np.testing.assert_array_equal(
            s.amps[8:12], u.u11 * before[8:12] + u.u12 * before[12:16]
        )
        np.testing.assert_array_equal(
            s.amps[12:16], u.u21 * before[8:12] + u.u22 * before[12:16]
        )

    def test_gap_pair_coefficients_exact(self, rng, generic_gate):
        # control 2, target 4 of 5: index 10 pairs with 8 at offset 2
        u = generic_gate
        s = random_state(rng, 5)
        before = s.amps.copy()
        apply_op(s, GateOp(4, u, i=2))
        assert s.amps[10] == (u.u21 * before[[8]] + u.u22 * before[[10]])[0]
        assert s.amps[8] == (u.u11 * before[[8]] + u.u12 * before[[10]])[0]

    def test_control_zero_amplitudes_untouched_bitwise(self, rng):
        for i, j in [(2, 5), (5, 2), (1, 3), (4, 1)]:
            s = random_state(rng, 5)
            before = s.amps.copy()
            apply_op(s, GateOp(j, random_gate(rng), i=i))
            idle = [k for k in range(32) if not (k >> (5 - i)) & 1]
            assert np.array_equal(s.amps[idle], before[idle])

    def test_matches_dense_oracle_both_orderings(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            u = random_gate(rng)
            s = random_state(rng, n)
            want = dense_gate(n, int(j), u, int(i)) @ s.amps
            apply_op(s, GateOp(int(j), u, i=int(i)))
            assert np.max(np.abs(s.amps - want)) <= 1e-13

    def test_equal_positions_rejected(self):
        with pytest.raises(ValueError):
            apply_op(StateVector.zero(2), GateOp(1, X, i=1))

    def test_invalid_placement_names_the_position(self):
        s = StateVector.zero(3)
        with pytest.raises(ValueError, match=r"^control position 2 invalid for target 2 of 1\.\.3$"):
            apply_op(s, GateOp(2, X, i=2))
        with pytest.raises(ValueError, match=r"^control position 4 invalid for target 1 of 1\.\.3$"):
            apply_op(s, GateOp(1, X, i=4))
        with pytest.raises(ValueError, match=r"^target position 0 out of range 1\.\.3$"):
            apply_op(s, GateOp(0, X, i=1))
        assert np.array_equal(s.amps, StateVector.zero(3).amps)


def _diagonal_gates(rng):
    """Every exactly diagonal gate kind: fixed, rotation, explicit phases."""
    a, b = rng.uniform(-math.pi, math.pi, size=2)
    return [
        GATES[name].fixed for name in ("i", "z", "s", "t")
    ] + [
        rotation_gate("Z", 0.7),
        OneQubitGate(np.diag([np.exp(1j * a), np.exp(1j * b)])),
        OneQubitGate(np.diag([1, np.exp(1j * b)])),
        OneQubitGate(np.diag([np.exp(1j * a), 1])),
        OneQubitGate(np.diag([-1, 1j])),
    ]


class TestDiagonalKernel:
    """Diagonal gates take a one-multiply path; it must agree with the full
    2x2 mix value for value and leave the unchanged part bitwise intact."""

    def test_equals_full_mix_every_placement(self, rng):
        for n in range(1, 7):
            for j in range(1, n + 1):
                for i in [None, *(q for q in range(1, n + 1) if q != j)]:
                    for u in _diagonal_gates(rng):
                        s = random_state(rng, n)
                        ref = s.copy()
                        apply_op(s, GateOp(j, u, i=i))
                        reference_full_mix(*pair_views(ref.amps, n, j, i), u)
                        assert np.array_equal(s.amps, ref.amps), (n, i, j, u.matrix)

    @pytest.mark.parametrize("name", ["z", "s"])
    def test_single_leaves_bit_zero_half_bitwise(self, rng, name):
        n = 5
        for j in range(1, n + 1):
            s = random_state(rng, n)
            before = s.amps.copy()
            apply_op(s, GateOp(j, GATES[name].fixed))
            idle = [k for k in range(1 << n) if not (k >> (n - j)) & 1]
            assert s.amps[idle].tobytes() == before[idle].tobytes()
            assert not np.array_equal(s.amps, before)

    def test_cz_leaves_three_quarters_bitwise(self, rng):
        n = 5
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                s = random_state(rng, n)
                before = s.amps.copy()
                apply_op(s, GateOp(j, GATES["cz"].fixed, i=i))
                both = [k for k in range(1 << n) if (k >> (n - i)) & (k >> (n - j)) & 1]
                idle = sorted(set(range(1 << n)) - set(both))
                assert len(idle) == 3 << (n - 2)
                assert s.amps[idle].tobytes() == before[idle].tobytes()
                np.testing.assert_array_equal(s.amps[both], -before[both])


class TestChunkedMix:
    """Registers above the scratch size are mixed in row chunks; every
    chunk must see exactly the pair formula, bit for bit."""

    @pytest.mark.parametrize("j", [1, 2, 8, 15, 16])
    def test_single_qubit_rows_exact(self, rng, generic_gate, j):
        n, u = 16, generic_gate
        s = random_state(rng, n)
        t = s.amps.reshape(1 << (j - 1), 2, -1).copy()
        a0, a1 = t[:, 0, :], t[:, 1, :]
        want = np.stack([u.u11 * a0 + u.u12 * a1, u.u21 * a0 + u.u22 * a1], axis=1)
        apply_op(s, GateOp(j, u))
        assert np.array_equal(s.amps, want.reshape(-1))

    @pytest.mark.parametrize("i, j", [(1, 2), (5, 15), (15, 5), (16, 1), (8, 9)])
    def test_controlled_rows_exact(self, rng, generic_gate, i, j):
        n, u = 16, generic_gate
        s = random_state(rng, n)
        want = s.amps.copy()
        lows = np.array([k for k in range(1 << n)
                         if (k >> (n - i)) & 1 and not (k >> (n - j)) & 1])
        highs = lows + (1 << (n - j))
        a0, a1 = want[lows], want[highs]
        want[lows], want[highs] = u.u11 * a0 + u.u12 * a1, u.u21 * a0 + u.u22 * a1
        apply_op(s, GateOp(j, u, i=i))
        assert np.array_equal(s.amps, want)


def _kernel_gates(rng):
    """Every GATES entry (a rotation at one angle), a seeded generic u and a
    seeded diagonal u."""
    gates = [kind.fixed or rotation_gate(kind.axis, 0.7)
             for kind in GATES.values() if kind.fixed or kind.axis]
    a, b = rng.uniform(-math.pi, math.pi, size=2)
    return gates + [random_gate(rng), OneQubitGate(np.diag([np.exp(1j * a), np.exp(1j * b)]))]


def _state_with_zeros(rng, n):
    """A unit state in which about a fifth of the amplitudes are exactly 0,
    and more components are +0.0 or -0.0."""
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps[rng.random(1 << n) < 0.2] = 0
    amps.real[rng.random(1 << n) < 0.1] = 0.0
    amps.imag[rng.random(1 << n) < 0.1] = -0.0
    return StateVector(n, amps / np.linalg.norm(amps))


def _bits(amps):
    return (amps + 0.0).view(np.uint64)  # + 0.0 maps -0.0 to 0.0


def _assert_kernel_bits(rng, n, placements):
    gates = _kernel_gates(rng)
    for j, i in placements:
        x = _state_with_zeros(rng, n)
        for u in gates:
            got, want = apply_op(x.copy(), GateOp(j, u, i=i)), reference_apply(x.copy(), GateOp(j, u, i=i))
            assert np.array_equal(_bits(got.amps), _bits(want.amps)), (n, j, i, u.matrix)


def _placements(n):
    return [(j, i) for j in range(1, n + 1) for i in [None, *range(1, n + 1)] if i != j]


class TestChunkKernel:
    """The chunk kernel against reference_apply, bit for bit on every nonzero
    amplitude (exact zeros may change sign)."""

    @pytest.mark.parametrize("n", [*range(1, 10), 12, 13, 14])
    def test_every_placement(self, rng, n):
        _assert_kernel_bits(rng, n, _placements(n))

    def test_low_placements_at_16(self, rng):
        _assert_kernel_bits(rng, 16, [(j, i) for j, i in _placements(16) if max(j, i or 0) >= 11])

    @pytest.mark.parametrize("chunk_qubits, short_run", [(2, 8), (3, 1 << 30), (4, 1 << 30), (3, 0)])
    def test_every_placement_with_small_chunks(self, rng, monkeypatch, chunk_qubits, short_run):
        """Chunks of 4..16 amplitudes put chunk pairs, controls above the
        chunk and gathers into registers of up to 8 qubits; a huge short_run
        sends every placement through the coefficient vectors."""
        monkeypatch.setattr(engine, "_CHUNK_QUBITS", chunk_qubits)
        monkeypatch.setattr(engine, "_SHORT_RUN", short_run)
        monkeypatch.setattr(engine, "_tls", threading.local())
        for n in range(1, 9):
            _assert_kernel_bits(rng, n, _placements(n))


def _in_traced_thread(run):
    """Run run() in a fresh thread, so that its thread-local scratch is
    allocated there too, with tracemalloc on; fail if it does not end."""
    tracemalloc.start()
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=300)
    finally:
        tracemalloc.stop()
    assert not worker.is_alive()


class TestKernelMemory:
    def test_peak_stays_under_one_mib(self, rng):
        """apply_op at n=20 keeps no state-sized temporary and no cache per
        placement: in a fresh thread, so that its scratch counts too, one gate
        of each kind stays under 1 MiB of traced memory, and sweeping every
        placement twice leaves the peak where the first sweep left it."""
        n, u = 20, random_gate(rng)
        state = StateVector.zero(n)
        kinds = [(1, None), (18, None), (20, None), (2, 1), (18, 3), (20, 1), (1, 20), (5, 20), (20, 19)]
        peaks = []

        def run():
            for j, i in kinds:
                for gate in (u, OneQubitGate(np.diag([1j, -1]))):
                    apply_op(state, GateOp(j, gate, i=i))
            peaks.append(tracemalloc.get_traced_memory()[1])
            for _ in range(2):
                for j, i in _placements(n):
                    apply_op(state, GateOp(j, u, i=i))
                peaks.append(tracemalloc.get_traced_memory()[1])

        _in_traced_thread(run)
        assert len(peaks) == 3
        assert peaks[0] < 1 << 20
        # A few bytes of interpreter bookkeeping; one cached chunk vector or
        # permutation would be 64 KiB or more.
        assert peaks[2] - peaks[1] < 4096
        assert peaks[2] < 1 << 20

    def test_exponentials_stay_under_one_mib(self, rng):
        """apply_exp_minus_ih at n=20 runs the gate kernel and keeps no
        state-sized temporary: in a fresh thread, so that its scratch counts
        too, a single-qubit placement, a control above and below its target
        and a run of 4 amplitudes each leave the peak under 1 MiB."""
        n, u = 20, random_gate(rng)
        amps = StateVector.zero(n).amps
        hamiltonians = [
            embedded_gate_hamiltonian(n, 1, u),
            controlled_gate_hamiltonian(n, 3, 12, u),
            controlled_gate_hamiltonian(n, 12, 3, u),
            embedded_gate_hamiltonian(n, 18, u),
        ]
        peaks = []

        def run():
            for h in hamiltonians:
                apply_exp_minus_ih(h, amps)
                peaks.append(tracemalloc.get_traced_memory()[1])

        _in_traced_thread(run)
        assert len(peaks) == 4
        assert max(peaks) < 1 << 20, peaks


class TestRunCircuit:
    def test_empty_circuit_is_identity(self, rng):
        s = random_state(rng, 3)
        before = s.amps.copy()
        run_circuit(Circuit(3, ()), s)
        assert np.array_equal(s.amps, before)

    def test_cnot_entangles_superposition(self):
        s = StateVector(2, np.array([1, 0, 1, 0]) / math.sqrt(2))
        run_circuit(Circuit(2, (GateOp(2, X, i=1),)), s)
        want = np.array([1, 0, 0, 1]) / math.sqrt(2)
        np.testing.assert_allclose(s.amps, want, atol=1e-15)

    def test_bell_pair_from_scratch(self):
        out = run_circuit(Circuit(2, (GateOp(1, H), GateOp(2, X, i=1))))
        np.testing.assert_allclose(
            out.probabilities(), [0.5, 0, 0, 0.5], atol=1e-15
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_circuit(Circuit(2, ()), StateVector.zero(3))

    def test_broken_norm_raises_after_circuit(self):
        s = StateVector.zero(2)
        s.amps *= 2.0  # tampered after the construction-time check
        with pytest.raises(RuntimeError, match="normalization"):
            run_circuit(Circuit(2, (GateOp(1, H),)), s)

    def test_nan_state_raises_after_circuit(self):
        s = StateVector.zero(2)
        s.amps[3] = math.nan
        with pytest.raises(RuntimeError, match="normalization"):
            run_circuit(Circuit(2, (GateOp(1, H),)), s)

    def test_matches_dense_chain(self, rng):
        from sparseq.verify import engine_equivalence_deviations

        deviations = engine_equivalence_deviations(50, max_qubits=8, seed=7)
        assert max(deviations) <= 1e-11

    def test_norm_drift_over_long_circuit(self, rng):
        s = random_state(rng, 5)
        for _ in range(100):
            i, j = rng.choice(np.arange(1, 6), size=2, replace=False)
            apply_op(s, GateOp(int(j), random_gate(rng), i=int(i)))
            apply_op(s, GateOp(int(rng.integers(1, 6)), random_gate(rng)))
            assert abs(s.norm() - 1.0) <= 1e-12  # per-gate drift stays tiny
        assert abs(s.norm() - 1.0) <= 1e-10


class TestCircuitValidation:
    """Each op's placement is checked by qindex.check_placement."""

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match=r"^target position 3 out of range 1\.\.2$"):
            Circuit(2, (GateOp(3, X),))

    def test_control_out_of_range(self):
        with pytest.raises(ValueError, match=r"^control position 5 invalid for target 1 of 1\.\.2$"):
            Circuit(2, (GateOp(1, X, i=5),))

    def test_control_equals_target(self):
        with pytest.raises(ValueError, match=r"^control position 2 invalid for target 2 of 1\.\.2$"):
            Circuit(2, (GateOp(2, X, i=2),))


class TestProbabilities:
    def test_basis_state(self):
        p = StateVector.zero(3).probabilities()
        assert p[0] == 1.0 and p.sum() == 1.0

    def test_uniform_superposition(self):
        n = 3
        s = StateVector(n, np.full(1 << n, 1 / math.sqrt(1 << n), dtype=complex))
        np.testing.assert_allclose(s.probabilities(), np.full(1 << n, 1 / (1 << n)))

    def test_sums_to_one(self, rng):
        s = random_state(rng, 6)
        assert abs(s.probabilities().sum() - 1.0) <= 1e-10

    def test_csv_format(self, rng):
        text = probabilities_csv(StateVector.zero(1))
        assert text == "index,probability\n0,1.0\n1,0.0\n"
        s = state_with_signed_zeros(rng, 15)
        rows = [f"{k},{float(p)!r}" for k, p in enumerate(s.probabilities())]
        assert probabilities_csv(s) == "\n".join(["index,probability", *rows]) + "\n"
