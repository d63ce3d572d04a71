import math

import numpy as np
import pytest

from sparseq import (
    CircuitBindError,
    CircuitParseError,
    StateVector,
    bind,
    circuit_hamiltonians,
    controlled_gate_hamiltonian,
    exp_minus_ih,
    frobenius_error,
    hea_template,
    parse_circuit,
    rotation_gate,
    run_circuit,
    serialize,
)
from sparseq.circuit_ir import groups_unitary, hea_source
from sparseq.core import PAULI
from sparseq.verify import dense_circuit_unitary

CORPUS = [
    "qubits 2\ncx q1 q2\n",
    "qubits 4\nrx q1 $t1\nry q2 -0.5\nrz q4 $t2\n",
    "qubits 2\nu q1 h\nu q2 0.6,0.0 0.8,0.0 -0.8,0.0 0.6,0.0\n",
    "qubits 3\ncrx q1 q3 $a\ncry q3 q1 0.25\ncrz q2 q3 $b\n",
    "qubits 3\ncu q3 q1 1.0,0.0 0.0,0.0 0.0,0.0 0.0,1.0\nch q1 q2\n",
    "qubits 2\nu q1 s\nu q2 t\ncy q2 q1\ncz q1 q2\n",
]


class TestParse:
    def test_controlled_named_gate(self):
        circuit = bind(parse_circuit("qubits 2\ncx q1 q2"))
        assert circuit.n == 2
        (op,) = circuit.ops
        assert op.i == 1 and op.j == 2
        assert np.array_equal(op.u.matrix, PAULI["X"])

    def test_parametrized_rotation(self):
        template = parse_circuit("qubits 4\nrx q1 $t1")
        circuit = bind(template, {"t1": math.pi / 4})
        (op,) = circuit.ops
        assert op.j == 1 and op.u == rotation_gate("X", math.pi / 4) and op.name == "rx"

    def test_qubit_out_of_range_reports_line(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\nrx q3 0.1")
        assert err.value.line == 2
        assert "out of range" in str(err.value)

    def test_duplicate_header_rejected(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\nqubits 3\n")
        assert "duplicate" in str(err.value)

    def test_non_ascii_digit_count_is_a_parse_error(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("# header\nqubits ²\n")
        assert (err.value.line, err.value.column) == (2, 8)
        assert "positive count" in str(err.value)

    def test_missing_header_rejected(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("rx q1 0.3\n")
        with pytest.raises(CircuitParseError):
            parse_circuit("# only a comment\n")

    def test_unknown_statement_with_position(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\n  frobnicate q1\n")
        assert err.value.line == 2 and err.value.column == 3

    def test_bad_angle_token(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\nrx q1 banana\n")
        assert err.value.line == 2

    def test_control_equals_target_rejected(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\ncx q1 q1\n")

    def test_non_unitary_entries_rejected_with_line(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 1\nu q1 1.0 0.0 0.0 2.0\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("src, column", [
        ("qubits 2\nu q1 1.0 0.0 0.0 2.0\n", 6),
        ("qubits 2\ncu q1 q2 1 0 0 2\n", 10),
    ])
    def test_non_unitary_entries_reported_at_first_entry(self, src, column):
        with pytest.raises(CircuitParseError, match="not unitary") as err:
            parse_circuit(src)
        assert (err.value.line, err.value.column) == (2, column)

    def test_comments_and_blank_lines_ignored(self):
        src = "# header comment\n\nqubits 2\n\nrx q1 0.5  # trailing\n"
        assert len(parse_circuit(src).stmts) == 1

    def test_wrong_arity_reported(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\ncx q1\n")


class TestBind:
    def test_empty_params_for_literal_circuit(self):
        template = parse_circuit("qubits 2\nrx q1 0.5\n")
        assert bind(template, {}).ops[0].u == rotation_gate("X", 0.5)

    def test_missing_name_reported(self):
        template = parse_circuit("qubits 2\nrx q1 $t1\n")
        with pytest.raises(CircuitBindError) as err:
            bind(template)
        assert "$t1" in str(err.value)

    def test_all_missing_names_listed(self):
        template = parse_circuit("qubits 2\nrx q1 $a\nry q2 $b\n")
        with pytest.raises(CircuitBindError) as err:
            bind(template, {"a": 1.0})
        assert "$b" in str(err.value) and "$a" not in str(err.value)

    def test_extra_params_ignored(self):
        template = parse_circuit("qubits 2\nrx q1 $a\n")
        circuit = bind(template, {"a": 0.1, "unused": 9.0})
        assert circuit.ops[0].u == rotation_gate("X", 0.1)


class TestSerializeRoundTrip:
    @pytest.mark.parametrize("src", CORPUS)
    def test_corpus_round_trips(self, src):
        template = parse_circuit(src)
        assert parse_circuit(serialize(template)) == template

    def test_hea_round_trips(self):
        template = hea_template(4, 2)
        assert parse_circuit(serialize(template)) == template


class TestHeaTemplate:
    def test_layer_gate_count(self):
        for n, layers in [(2, 1), (4, 1), (3, 2), (5, 3)]:
            template = hea_template(n, layers)
            assert len(template.stmts) == layers * (3 * n + (n - 1))

    def test_four_qubits_single_layer(self):
        template = hea_template(4, 1)
        assert len(template.stmts) == 15
        assert len(template.param_names()) == 15

    def test_parameter_names_are_deterministic(self):
        names = hea_template(2, 1).param_names()
        assert names == [
            "q1_c1_l1", "q2_c1_l1",
            "q1_c2_l1", "q2_c2_l1",
            "q1_c3_l1", "q2_c3_l1",
            "ent1_l1",
        ]

    def test_too_few_qubits_rejected(self):
        with pytest.raises(ValueError):
            hea_source(1, 1)

    def test_bound_run_matches_dense_oracle(self):
        template = hea_template(4, 1)
        circuit = bind(template, {p: math.pi / 4 for p in template.param_names()})
        out = run_circuit(circuit)
        probs = out.probabilities()
        assert abs(probs.sum() - 1.0) <= 1e-12
        want = dense_circuit_unitary(circuit) @ StateVector.zero(4).amps
        assert np.max(np.abs(out.amps - want)) <= 1e-12


class TestCircuitHamiltonians:
    def test_single_controlled_gate_group(self, term_columns):
        circuit = bind(parse_circuit("qubits 2\ncx q1 q2\n"))
        groups = circuit_hamiltonians(circuit)
        assert [g.kind for g in groups] == ["controlled"]
        (h,) = groups[0].hamiltonians
        want = controlled_gate_hamiltonian(2, 1, 2, circuit.ops[0].u)
        dense = [(w * z) @ w.conj().T for z, w in map(term_columns, (h, want))]
        np.testing.assert_allclose(*dense, atol=0)

    def test_empty_circuit(self):
        circuit = bind(parse_circuit("qubits 2\n"))
        assert circuit_hamiltonians(circuit) == []

    def test_hea_layer_splits_into_six_factors(self):
        template = hea_template(4, 1)
        circuit = bind(template, {p: math.pi / 4 for p in template.param_names()})
        groups = circuit_hamiltonians(circuit)
        assert [g.kind for g in groups] == ["string"] * 3 + ["controlled"] * 3
        for g in groups[:3]:
            assert len(g.hamiltonians) == 4

    def test_repeated_target_splits_string(self):
        circuit = bind(parse_circuit("qubits 2\nrx q1 0.3\nrx q1 0.4\n"))
        groups = circuit_hamiltonians(circuit)
        assert [g.kind for g in groups] == ["string", "string"]

    def test_mixed_string_is_one_group(self):
        circuit = bind(parse_circuit("qubits 2\nu q1 h\nrx q2 0.1\n"))
        (group,) = circuit_hamiltonians(circuit)
        assert group.kind == "string"
        assert len(group.hamiltonians) == 2

    def test_reconstruction_over_corpus(self):
        sources = [
            "qubits 2\nu q1 h\ncx q1 q2\n",
            "qubits 3\nrx q1 0.4\nry q2 -0.9\nrz q3 2.2\ncrx q3 q1 0.7\n",
            "qubits 4\ncu q4 q2 0.6,0.0 0.8,0.0 -0.8,0.0 0.6,0.0\nrx q1 0.5\nrx q1 0.6\n",
        ]
        for src in sources:
            circuit = bind(parse_circuit(src), {})
            groups = circuit_hamiltonians(circuit)
            got = groups_unitary(groups, circuit.n)
            want = dense_circuit_unitary(circuit)
            assert frobenius_error(got, want) <= 1e-11 * max(1, len(circuit.ops))

    def test_empty_circuit_is_the_identity(self):
        circuit = bind(parse_circuit("qubits 3\n"), {})
        groups = circuit_hamiltonians(circuit)
        assert np.array_equal(groups_unitary(groups, 3), np.eye(8))
        assert np.array_equal(dense_circuit_unitary(circuit), np.eye(8))

    def test_hea_reconstruction(self):
        template = hea_template(4, 1)
        circuit = bind(template, {p: math.pi / 4 for p in template.param_names()})
        groups = circuit_hamiltonians(circuit)
        err = frobenius_error(
            groups_unitary(groups, circuit.n), dense_circuit_unitary(circuit)
        )
        assert err <= 1e-11 * len(circuit.ops)

    def test_string_factor_exponentials_commute(self):
        circuit = bind(parse_circuit("qubits 3\nrx q1 0.4\nry q2 1.1\nrz q3 -0.6\n"))
        (group,) = circuit_hamiltonians(circuit)
        mats = [exp_minus_ih(h) for h in group.hamiltonians]
        forward = mats[0] @ mats[1] @ mats[2]
        backward = mats[2] @ mats[1] @ mats[0]
        assert frobenius_error(forward, backward) <= 1e-13

