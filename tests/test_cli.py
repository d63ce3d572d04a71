import json
import math
import os
import stat

import numpy as np
import pytest

from sparseq import (
    ControlledGateSpec,
    ErrorSweep,
    LocalHamiltonian,
    SparseUnitary,
    cli,
    controlled_gate_hamiltonian,
    controlled_sparse,
    dense_gate,
    embedded_gate_hamiltonian,
    exp_minus_ih,
    frobenius_error,
    verify,
)
from sparseq.circuit_ir import (
    GATES,
    bind,
    circuit_hamiltonians,
    hea_template,
    parse_circuit,
    serialize,
)
from sparseq.cli import main, parse_gate_spec
from sparseq.engine import NORM_TOL, StateVector, run_circuit
from sparseq.hamiltonian import circuit_json_chunks
from sparseq.qindex import check_placement
from sparseq.verify import random_gate

BELL = "qubits 2\nu q1 h\ncx q1 q2\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestGateSpec:
    def test_named_and_rotation_specs(self):
        assert np.array_equal(parse_gate_spec("x").matrix, [[0, 1], [1, 0]])
        got = parse_gate_spec("rz:0.5")
        assert abs(got.u11 - np.exp(-0.25j)) <= 1e-15

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_gate_spec("frob")
        with pytest.raises(ValueError):
            parse_gate_spec("rx:one")


class TestBuildGate:
    def test_cnot_json(self, tmp_path, capsys):
        out = tmp_path / "cnot.json"
        code = main(["build-gate", "-n", "2", "-i", "1", "-j", "2",
                     "--gate", "x", "--dense", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        data = json.loads(text)
        assert data["schema"] == 1 and data["dim"] == 4
        sparse = controlled_sparse(ControlledGateSpec(2, 1, 2, parse_gate_spec("x")))
        assert text.startswith(sparse.to_json()[:-1] + ', "dense": [')
        assert data["rows"] == [
            [[0, 1.0, 0.0]], [[1, 1.0, 0.0]],
            [[2, 0.0, 0.0], [3, 1.0, 0.0]], [[2, 1.0, 0.0], [3, 0.0, 0.0]],
        ]
        dense = np.array([[re + 1j * im for re, im in row] for row in data["dense"]])
        want = np.eye(4)[:, [0, 1, 3, 2]]
        assert np.array_equal(sparse.to_dense(), want)
        assert np.array_equal(dense, want)

    @staticmethod
    def dict_route(argv):
        """The --dense text as a dict dumped whole: the gate's JSON as a dict
        plus the dense matrix as float lists, the route the streamed rows
        replaced."""
        args = cli.build_parser().parse_args(argv)
        sparse = SparseUnitary(args.n, args.j, parse_gate_spec(args.gate), args.i)
        payload = json.loads(sparse.to_json())
        payload["dense"] = [
            [[float(c.real), float(c.imag)] for c in row] for row in sparse.to_dense()
        ]
        return json.dumps(payload) + "\n"

    def test_dense_text_equals_the_dict_route(self, capsys):
        for n in range(1, 6):
            for j in range(1, n + 1):
                for i in [None, *range(1, n + 1)]:
                    if i == j:
                        continue
                    for spec in ("x", "y", "h", "s", "rx:0.7", "ry:-2.1", "rz:2.5"):
                        argv = ["build-gate", "-n", str(n), "-j", str(j), "--gate", spec]
                        argv += [] if i is None else ["-i", str(i)]
                        assert main(argv + ["--dense"]) == 0
                        assert capsys.readouterr().out == self.dict_route(argv), argv

    def test_dense_n10_streams_in_bounded_memory(self, tmp_path, cli_maxrss):
        """The dict route peaked at 209 MB here; the streamed rows hold no
        dense matrix."""
        out = tmp_path / "g.json"
        code, maxrss = cli_maxrss(
            ["build-gate", "-n", "10", "-i", "1", "-j", "2", "--gate", "x", "--dense", "-o", str(out)]
        )
        assert code == 0
        assert maxrss < 64 * 1024
        assert out.stat().st_size == 12613106

    def test_known_pair_pattern(self, capsys):
        code = main(["build-gate", "-n", "5", "-i", "2", "-j", "4", "--gate", "rx:0.5"])
        assert code == 0
        out = capsys.readouterr().out
        sparse = controlled_sparse(ControlledGateSpec(5, 2, 4, parse_gate_spec("rx:0.5")))
        assert out == sparse.to_json() + "\n"
        rows = json.loads(out)["rows"]
        # active rows pair at offset 2 within control-selected blocks
        assert [c for c, *_ in rows[8]] == [8, 10]
        assert [c for c, *_ in rows[10]] == [8, 10]
        assert [c for c, *_ in rows[0]] == [0]

    def test_single_qubit_embedding(self, capsys):
        code = main(["build-gate", "-n", "2", "-j", "2", "--gate", "h"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 4

    def test_control_equals_target_exits_3(self, capsys):
        code = main(["build-gate", "-n", "2", "-i", "2", "-j", "2", "--gate", "x"])
        assert code == 3
        assert "control position 2 invalid for target 2 of 1..2" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["build-gate", "--frobnicate"]) == 2

    def test_tol_is_not_an_option(self, capsys):
        # build-gate checks nothing, so it takes no tolerance.
        assert main(["build-gate", "-n", "2", "-j", "1", "--gate", "x", "--tol", "1e-9"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_bad_gate_spec_exits_3(self, capsys):
        assert main(["build-gate", "-n", "2", "-i", "1", "-j", "2", "--gate", "nope"]) == 3


@pytest.mark.parametrize("n, i, j", [(3, 2, 2), (3, 4, 1), (3, 1, 4), (1, 1, 1), (2, 0, 1), (3, None, 4)])
def test_bad_placement_gives_one_message_per_command(capsys, n, i, j):
    """build-gate, hamiltonian and hamiltonian --check refuse a placement
    with check_placement's message, and nothing else."""
    with pytest.raises(ValueError) as info:
        check_placement(n, j, i)
    placement = ["-n", str(n), "-j", str(j), "--gate", "x"] + ([] if i is None else ["-i", str(i)])
    for argv in (["build-gate"], ["hamiltonian"], ["hamiltonian", "--check"]):
        assert main(argv + placement) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: {info.value}\n", argv


class TestHamiltonianCommand:
    def test_cnot_terms(self, capsys):
        code = main(["hamiltonian", "-n", "2", "-i", "1", "-j", "2", "--gate", "x"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == controlled_gate_hamiltonian(2, 1, 2, parse_gate_spec("x")).to_json() + "\n"
        terms = json.loads(out)["terms"]
        assert len(terms) == 1
        assert terms[0]["z"] == math.pi
        s = 1 / math.sqrt(2)
        w = [complex(re, im) for re, im in terms[0]["w"]]
        np.testing.assert_allclose(w, [0, 0, s, -s], atol=1e-15)

    def test_identity_gate_empty_terms(self, capsys):
        code = main(["hamiltonian", "-n", "3", "-i", "2", "-j", "3", "--gate", "i"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["terms"] == []

    def test_check_prints_error_and_passes(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        code = main(["hamiltonian", "-n", "4", "-i", "2", "-j", "4",
                     "--gate", "rx:0.9", "--check", "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("reconstruction_error=")
        assert float(printed.split("=")[1]) <= 1e-12

    def test_circuit_input_with_check(self, tmp_path, capsys):
        circuit = write(tmp_path, "c.sq", "qubits 3\nrx q1 $a\ncx q1 q3\n")
        params = write(tmp_path, "p.json", json.dumps({"a": 0.7}))
        out = tmp_path / "h.json"
        code = main(["hamiltonian", "--circuit", circuit, "--params", params,
                     "--check", "-o", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert [g["kind"] for g in data["groups"]] == ["string", "controlled"]

    def test_missing_arguments_exit_2(self, capsys):
        assert main(["hamiltonian", "--check"]) == 2

    def test_no_dense_reference_without_check(self, capsys, monkeypatch):
        argv = ["hamiltonian", "-n", "3", "-j", "2", "--gate", "x"]
        assert main(argv) == 0
        want = capsys.readouterr().out

        def refuse(self):
            raise AssertionError("dense reference built without --check")

        monkeypatch.setattr(SparseUnitary, "to_dense", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("command", ["run", "hamiltonian"])
    @pytest.mark.parametrize("value", [
        None, [1], {"x": 1}, "0.5", True, pytest.param(10 ** 400, id="int_401_digits"),
    ])
    def test_non_numeric_parameter_exits_3(self, tmp_path, capsys, command, value):
        circuit = write(tmp_path, "c.sq", "qubits 2\nrx q1 $a\n")
        params = write(tmp_path, "p.json", json.dumps({"a": value}))
        argv = ["run", circuit] if command == "run" else ["hamiltonian", "--circuit", circuit]
        assert main(argv + ["--params", params]) == 3
        assert "parameter 'a'" in capsys.readouterr().err


#: Every single-qubit gate spec of GATES: the fixed gates, and each rotation
#: at a generic, a near-identity and a negative angle.
SINGLE_SPECS = [name for name, kind in GATES.items() if kind.named] + [
    f"{name}:{angle}" for name, kind in GATES.items() if kind.axis and not kind.controlled
    for angle in ("0.7", "1e-9", "-2.1")
]


def gate_check_reference(n, i, j, spec):
    """The reconstruction error that `hamiltonian --check` printed when a
    single gate had its own route: the np.kron oracle against exp_minus_ih."""
    u = parse_gate_spec(spec)
    h = embedded_gate_hamiltonian(n, j, u) if i is None else controlled_gate_hamiltonian(n, i, j, u)
    return frobenius_error(dense_gate(n, j, u, i), exp_minus_ih(h))


class TestGateCheckIsTheOneGateCircuit:
    """A single gate is checked as a one-gate circuit. Its printed error
    keeps every digit of the single-gate route it replaced."""

    @pytest.mark.parametrize("spec", SINGLE_SPECS)
    def test_printed_error_equals_the_kron_route(self, capsys, spec):
        for n in range(1, 5):
            for j in range(1, n + 1):
                for i in [None, *(q for q in range(1, n + 1) if q != j)]:
                    argv = ["hamiltonian", "-n", str(n), "-j", str(j), "--gate", spec, "--check"]
                    argv += [] if i is None else ["-i", str(i)]
                    assert main(argv + ["-o", os.devnull]) == 0, argv
                    want = gate_check_reference(n, i, j, spec)
                    assert capsys.readouterr().out == f"reconstruction_error={want!r}\n", argv

    def test_printed_error_at_the_cap(self, capsys):
        argv = ["hamiltonian", "-n", "12", "-i", "11", "-j", "3", "--gate", "ry:-2.1", "--check"]
        assert main(argv + ["-o", os.devnull]) == 0
        printed = capsys.readouterr().out
        assert printed == f"reconstruction_error={gate_check_reference(12, 11, 3, 'ry:-2.1')!r}\n"

    @pytest.mark.parametrize("argv, usage", [
        (["--circuit", "c.sq", "-n", "2"], "--circuit takes no -n/-i/-j/--gate"),
        (["--circuit", "c.sq", "-i", "1"], "--circuit takes no -n/-i/-j/--gate"),
        (["--circuit", "c.sq", "-j", "1"], "--circuit takes no -n/-i/-j/--gate"),
        (["--circuit", "c.sq", "--gate", "x", "--check"], "--circuit takes no -n/-i/-j/--gate"),
        (["-n", "2", "-j", "1", "--gate", "x", "--params", "p.json"], "--params needs --circuit"),
        (["-n", "2", "-j", "1", "--gate", "x", "--params", "p.json", "--check"],
         "--params needs --circuit"),
    ])
    def test_mixed_forms_are_usage_errors(self, tmp_path, capsys, monkeypatch, argv, usage):
        """Flags of the other form are refused, not dropped, before any
        input is read or any output written."""
        def refuse(*args, **kwargs):
            raise AssertionError("built a Hamiltonian for a usage error")

        monkeypatch.setattr(cli, "circuit_hamiltonians", refuse)
        out = tmp_path / "h.json"
        argv = [str(tmp_path / a) if a in ("c.sq", "p.json") else a for a in argv]
        assert main(["hamiltonian", *argv, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hamiltonian: {usage}\n"
        assert not out.exists()


class TestOutputFile:
    """-o truncates the file and writes the text; a failure leaves a prefix."""

    ARGV = ["hamiltonian", "-n", "2", "-i", "1", "-j", "2", "--gate", "x"]

    def want(self, capsys):
        assert main(self.ARGV) == 0
        return capsys.readouterr().out.encode()

    def test_shorter_text_over_a_longer_file(self, tmp_path, capsys):
        want = self.want(capsys)
        out = tmp_path / "h.json"
        out.write_bytes(b"#" * (3 * len(want) + 5))
        assert main([*self.ARGV, "-o", str(out)]) == 0
        assert out.read_bytes() == want

    def test_new_file_mode_follows_the_umask(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        mask = os.umask(0o027)
        try:
            assert main([*self.ARGV, "-o", str(out)]) == 0
        finally:
            os.umask(mask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027
        assert out.read_bytes() == self.want(capsys)

    def test_existing_file_keeps_its_mode_and_inode(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        out.write_bytes(b"old")
        out.chmod(0o600)
        before = out.stat()
        assert main([*self.ARGV, "-o", str(out)]) == 0
        after = out.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)
        assert out.read_bytes() == self.want(capsys)

    def test_dev_null(self, capsys):
        assert main([*self.ARGV, "-o", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    def test_a_failing_piece_leaves_the_written_prefix(self, tmp_path, capsys, monkeypatch):
        def failing(n, groups):
            yield '{"schema": 1'
            yield ', "n": 2'
            raise ValueError("piece failed")

        monkeypatch.setattr(cli, "circuit_json_chunks", failing)
        circuit = write(tmp_path, "c.sq", BELL)
        out = tmp_path / "h.json"
        out.write_bytes(b"#" * 4096)
        assert main(["hamiltonian", "--circuit", circuit, "-o", str(out)]) == 3
        assert capsys.readouterr().err == "validation error: piece failed\n"
        assert out.read_bytes() == b'{"schema": 1, "n": 2'


class TestRunCommand:
    def test_bell_probabilities(self, tmp_path, capsys):
        circuit = write(tmp_path, "bell.sq", BELL)
        assert main(["run", circuit]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,probability"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(values, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_amplitudes_output(self, tmp_path, capsys):
        circuit = write(tmp_path, "bell.sq", BELL)
        assert main(["run", circuit, "--amplitudes"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,re,im"
        assert len(lines) == 5

    def test_amplitudes_print_exact_zeros_unsigned(self, tmp_path, capsys):
        # z on q1 scales the q1 = 1 half by -1, leaving -0.0 at index 2
        circuit = write(tmp_path, "c.sq", "qubits 2\nu q1 x\nu q2 x\nu q1 z\ncz q1 q2\n")
        assert main(["run", circuit, "--amplitudes"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == ["0,0.0,0.0", "1,0.0,0.0", "2,0.0,0.0", "3,1.0,0.0"]

    def test_norm_drift_exits_1_without_output(self, tmp_path, capsys):
        """An input state accepted just inside NORM_TOL ends 300 random gates
        just outside it: exit 1 with one stderr line, no traceback, no CSV."""
        rng = np.random.default_rng(1)
        lines = ["qubits 6"]
        for _ in range(300):
            j = int(rng.integers(1, 7))
            entries = (f"{z.real!r},{z.imag!r}" for z in random_gate(rng).matrix.ravel().tolist())
            lines.append(f"u q{j} " + " ".join(entries))
        amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        amps /= math.sqrt(np.vdot(amps, amps).real)
        scale = 1.0 - NORM_TOL
        while True:
            try:
                StateVector(6, amps * scale)
                break
            except ValueError:
                scale = np.nextafter(scale, 1.0)
        pairs = [[z.real, z.imag] for z in (amps * scale).tolist()]
        circuit = write(tmp_path, "c.sq", "\n".join(lines) + "\n")
        state = write(tmp_path, "s.json", json.dumps(pairs))
        out = tmp_path / "out.csv"
        assert main(["run", circuit, "--input", state, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification error: circuit broke normalization: |norm - 1| = ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_oracle_cross_check(self, tmp_path, capsys):
        circuit = write(tmp_path, "c.sq", "qubits 3\nrx q2 $a\ncrz q3 q1 0.4\n")
        params = write(tmp_path, "p.json", json.dumps({"a": 1.1}))
        code = main(["run", circuit, "--params", params, "--oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle_deviation=" in out

    def test_oracle_is_a_chain_not_a_circuit_unitary(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run --oracle built the full circuit unitary")

        monkeypatch.setattr(verify, "dense_circuit_unitary", refuse)
        circuit = write(tmp_path, "c.sq", serialize(hea_template(4, 1)))
        params = write(tmp_path, "p.json", json.dumps(
            {name: 0.3 + 0.1 * k for k, name in enumerate(hea_template(4, 1).param_names())}))
        assert main(["run", circuit, "--params", params, "--oracle"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("oracle_deviation=")
        assert float(line.partition("=")[2]) <= 1e-12

    # Controls above and below their targets, from |0...0> and from an --input state.
    @pytest.mark.parametrize("seed", [None, 7])
    def test_oracle_line_is_verify_oracle_deviation(self, tmp_path, capsys, seed):
        text = "qubits 3\nu q2 h\ncrx q1 q3 $a\ncx q3 q1\ncry q2 q1 -0.8\nrz q3 0.4\n"
        params = {"a": 1.1}
        circuit = bind(parse_circuit(text), params)
        argv = ["run", write(tmp_path, "c.sq", text), "--params",
                write(tmp_path, "p.json", json.dumps(params)), "--oracle"]
        if seed is None:
            initial = StateVector.zero(3)
        else:
            amps = np.random.default_rng(seed).normal(size=(8, 2))
            state = json.dumps((amps / np.linalg.norm(amps)).tolist())
            argv += ["--input", write(tmp_path, "s.json", state)]
            initial = StateVector.from_json(state)
        assert main(argv) == 0
        want = verify.oracle_deviation(circuit, initial, run_circuit(circuit, initial.copy()))
        assert capsys.readouterr().out.splitlines()[-1] == f"oracle_deviation={want!r}"

    def test_custom_input_state(self, tmp_path, capsys):
        circuit = write(tmp_path, "c.sq", "qubits 1\nu q1 x\n")
        state = write(tmp_path, "s.json", json.dumps([[0.0, 0.0], [1.0, 0.0]]))
        assert main(["run", circuit, "--input", state]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "0,1.0"

    def test_malformed_circuit_exits_2_with_line(self, tmp_path, capsys):
        circuit = write(tmp_path, "bad.sq", "qubits 2\nrx q9 0.1\n")
        assert main(["run", circuit]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unbound_parameter_exits_3(self, tmp_path, capsys):
        circuit = write(tmp_path, "c.sq", "qubits 2\nrx q1 $missing\n")
        assert main(["run", circuit]) == 3
        assert "$missing" in capsys.readouterr().err

    def test_mismatched_input_state_exits_3(self, tmp_path, capsys):
        circuit = write(tmp_path, "c.sq", "qubits 2\nrx q1 0.1\n")
        state = write(tmp_path, "s.json", json.dumps([[1.0, 0.0], [0.0, 0.0]]))
        assert main(["run", circuit, "--input", state]) == 3

    @pytest.mark.parametrize("oracle", [False, True])
    def test_wrong_register_input_is_refused_by_run_circuit(self, tmp_path, capsys, oracle):
        circuit = write(tmp_path, "c.sq", "qubits 1\nu q1 x\n")
        state = write(tmp_path, "s.json", json.dumps([[0.5, 0.0]] * 4))
        out = tmp_path / "out.csv"
        argv = ["run", circuit, "--input", state, "-o", str(out)]
        assert main(argv + (["--oracle"] if oracle else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: state has 2 qubits, circuit 1\n"
        assert not out.exists()

    def test_one_amplitude_input_gets_the_register_message(self, tmp_path, capsys):
        circuit = write(tmp_path, "c.sq", "qubits 1\nu q1 x\n")
        state = write(tmp_path, "s.json", "[[1.0, 0.0]]")
        assert main(["run", circuit, "--input", state]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: register size 0 must be at least 1 qubit\n"

    @pytest.mark.parametrize("text", [
        "5", "[1, 2]", '["ab", "cd"]', "[[1.0, 0.0], [0.0]]", "[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]",
        '[[1.0, 0.0], [0.0, "0"]]', "[[1.0, 0.0], [0.0, null]]", "{}",
        # numpy reads JSON booleans beside numbers as 1 and 0.
        "[[true, false], [0, 0]]", "[[1.0, 0.0], [0.0, false]]", "[[true, false], [false, false]]",
    ])
    def test_malformed_input_state_exits_3(self, tmp_path, capsys, text):
        circuit = write(tmp_path, "c.sq", "qubits 1\nu q1 x\n")
        state = write(tmp_path, "s.json", text)
        assert main(["run", circuit, "--input", state]) == 3
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[[NaN, 0.0], [0.0, 0.0]]", "[[1.0, 0.0], [NaN, 0.0]]", "[[Infinity, 0.0], [0.0, 0.0]]",
    ])
    def test_non_finite_input_state_exits_3(self, tmp_path, capsys, text):
        circuit = write(tmp_path, "c.sq", "qubits 1\nu q1 x\n")
        state = write(tmp_path, "s.json", text)
        assert main(["run", circuit, "--input", state]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error" in captured.err


class TestImpossibleRegister:
    """2^44 amplitudes ask for 128-256 TiB, which numpy refuses before
    allocating anything; sizes that could really be allocated stay untested."""

    @pytest.mark.parametrize("command", ["run", "hamiltonian", "build-gate"])
    def test_n44_exits_3_with_one_line(self, tmp_path, capsys, command):
        circuit = write(tmp_path, "c.sq", "qubits 44\nrx q1 0.1\n")
        if command == "run":
            argv = ["run", circuit]
        else:
            argv = [command, "-n", "44", "-j", "1", "--gate", "x"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: register too large for memory")
        assert err.count("\n") == 1


class TestMemoryBudget:
    """The estimates are checked against a monkeypatched MemAvailable, and
    the builders are patched to fail, so nothing large is ever allocated."""

    REFUSED = {
        "run": ("qubits 21\nrx q1 0.1\n", ["run", "{c}"]),
        "run_oracle": ("qubits 11\nrx q1 0.1\n", ["run", "{c}", "--oracle"]),
        "hamiltonian": (None, ["hamiltonian", "-n", "22", "-j", "1", "--gate", "x"]),
        "hamiltonian_check": (None, ["hamiltonian", "-n", "11", "-i", "2", "-j", "1",
                                     "--gate", "x", "--check"]),
        "circuit_check": ("qubits 11\nrx q1 0.1\ncx q1 q2\n",
                          ["hamiltonian", "--circuit", "{c}", "--check"]),
        "verify": (None, ["verify", "--suite", "crx", "-n", "12"]),
    }

    @pytest.fixture
    def no_builders(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past a refused budget")

        for name in ("SparseUnitary", "circuit_hamiltonians", "run_circuit",
                     "gate_hamiltonian_sweep"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(cli.StateVector, "zero", refuse)

    @pytest.mark.parametrize("case", REFUSED)
    def test_estimate_above_available_exits_3(self, tmp_path, capsys, monkeypatch, no_builders, case):
        text, argv = self.REFUSED[case]
        if text is not None:
            argv = [a.format(c=write(tmp_path, "c.sq", text)) for a in argv]
        monkeypatch.setattr(cli, "_mem_available", lambda: 64 << 20)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: register too large for memory: ")
        assert captured.err.endswith(" 64 MiB available\n")
        assert captured.err.count("\n") == 1

    def test_small_runs_never_read_meminfo(self, tmp_path, capsys, monkeypatch):
        def unread():
            raise AssertionError("MemAvailable read for a small estimate")

        monkeypatch.setattr(cli, "_mem_available", unread)
        hea = write(tmp_path, "c.sq", serialize(hea_template(6, 1)))
        params = write(tmp_path, "p.json", json.dumps(
            {name: 0.3 for name in hea_template(6, 1).param_names()}))
        out = str(tmp_path / "out")
        for argv in (
            ["hamiltonian", "--circuit", hea, "--params", params, "--check", "-o", out],
            ["run", hea, "--params", params, "--oracle", "-o", out],
            ["hamiltonian", "-n", "10", "-j", "1", "--gate", "h", "--check", "-o", out],
            ["build-gate", "-n", "8", "-i", "1", "-j", "2", "--gate", "x", "--dense", "-o", out],
        ):
            assert main(argv) == 0, argv
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["run_oracle", "circuit_check"])
    def test_dense_checks_peak_within_check_matrices(self, tmp_path, cli_maxrss, command):
        """A 1-layer HEA at n = 10 peaks at most CHECK_MATRICES dense
        matrices above the same command at n = 4 (measured: 3.5)."""
        peaks = {}
        for n in (4, 10):
            template = hea_template(n, 1)
            c = write(tmp_path, f"c{n}.sq", serialize(template))
            p = write(tmp_path, f"p{n}.json", json.dumps(
                {name: 0.3 + 0.01 * k for k, name in enumerate(template.param_names())}))
            argv = (["run", c, "--oracle"] if command == "run_oracle"
                    else ["hamiltonian", "--circuit", c, "--check"])
            code, peaks[n] = cli_maxrss(argv + ["--params", p, "-o", os.devnull])
            assert code == 0
        assert (peaks[10] - peaks[4]) * 1024 <= cli.CHECK_MATRICES * 16 * 4 ** 10

    @pytest.mark.parametrize("argv, n", [
        (["hamiltonian", "-n", "{n}", "-j", "1", "--gate", "x"], 14),
        (["hamiltonian", "-n", "{n}", "-i", "{n}", "-j", "1", "--gate", "rx:0.7"], 14),
        (["build-gate", "-n", "{n}", "-j", "1", "--gate", "x"], 16),
    ])
    def test_text_writers_peak_within_text_bytes_per_amp(self, cli_maxrss, argv, n):
        """The streamed writers peak at most TEXT_BYTES_PER_AMP per amplitude,
        plus 1 MiB, above the same command at n = 4 (measured: 24-69)."""
        peaks = {}
        for size in (4, n):
            code, peaks[size] = cli_maxrss([a.format(n=size) for a in argv] + ["-o", os.devnull])
            assert code == 0
        assert (peaks[n] - peaks[4]) * 1024 <= cli.TEXT_BYTES_PER_AMP * 2 ** n + (1 << 20)

    def test_identity_circuit_on_22_qubits_runs_in_1_gib(self, tmp_path, capsys, monkeypatch):
        """A Hamiltonian stores O(1) whatever n and K are, so 40 gates on 22
        qubits are priced like one."""
        monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 30)
        text = "qubits 22\n" + "u q1 i\n" * 40
        out = tmp_path / "h.json"
        circuit_file = write(tmp_path, "c.sq", text)
        assert main(["hamiltonian", "--circuit", circuit_file, "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        circuit = bind(parse_circuit(text), {})
        expected = "".join(circuit_json_chunks(22, circuit_hamiltonians(circuit))) + "\n"
        assert out.read_text() == expected
        assert len(expected) == 3315

    def test_verify_n11_runs_in_300_mib(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_mem_available", lambda: 300 << 20)
        calls = []

        def sweep(n, i, j):
            calls.append((n, i, j))
            return ErrorSweep(f"crx_n{n}_i{i}_j{j}", (0.0,), (0.0,))

        monkeypatch.setattr(cli, "gate_hamiltonian_sweep", sweep)
        assert main(["verify", "--suite", "crx", "-n", "11", "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 11 * 10
        assert capsys.readouterr().err == ""

    def test_estimate_within_available_passes(self, monkeypatch):
        monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 40)
        cli._require_memory("test", 4, 1 << 30, 1 << 20)
        monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 20)
        cli._require_memory("test", 0, cli.BUDGET_FREE_BYTES)
        with pytest.raises(MemoryError):
            cli._require_memory("test", 0, cli.BUDGET_FREE_BYTES + 1)
        with pytest.raises(MemoryError):
            cli._require_memory("test", 10 ** 9, 1)

    def test_meminfo_parsing(self, tmp_path):
        info = write(tmp_path, "meminfo", "MemTotal:  8000 kB\nMemAvailable:   1234 kB\n")
        assert cli._mem_available(info) == 1234 * 1024
        assert cli._mem_available(write(tmp_path, "other", "MemTotal: 1 kB\n")) is None
        assert cli._mem_available(str(tmp_path / "missing")) is None


class TestJsonInputPricing:
    """`--input` and `--params` files are priced from their size, at
    JSON_BYTES_PER_BYTE per byte, before they are read or parsed."""

    @pytest.fixture
    def no_parse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parsed a file that should be refused")

        monkeypatch.setattr(json, "loads", refuse)

    @pytest.mark.parametrize("flag", ["--input", "--params"])
    def test_large_file_is_refused_before_parsing(self, tmp_path, capsys, monkeypatch, no_parse,
                                                  flag):
        """A 2^20-amplitude state, or an object of 2^20 params."""
        if flag == "--input":
            text = "[[1,0]" + ",[0,0]" * ((1 << 20) - 1) + "]"
        else:
            text = "{" + ",".join(f'"p{k}":0' for k in range(1 << 20)) + "}"
        path = write(tmp_path, "big.json", text)
        circuit = write(tmp_path, "c.sq", "qubits 1\nu q1 x\n")
        monkeypatch.setattr(cli, "_mem_available", lambda: 64 << 20)
        assert main(["run", circuit, flag, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        need = len(text) * cli.JSON_BYTES_PER_BYTE >> 20
        assert captured.err == (f"validation error: register too large for memory: parsing {path}"
                                f" needs about {need} MiB, 64 MiB available\n")

    def test_small_files_never_read_meminfo(self, tmp_path, capsys, monkeypatch):
        def unread():
            raise AssertionError("MemAvailable read for a small file")

        monkeypatch.setattr(cli, "_mem_available", unread)
        circuit = write(tmp_path, "c.sq", "qubits 1\nrx q1 $a\n")
        state = write(tmp_path, "s.json", json.dumps([[0.0, 0.0], [1.0, 0.0]]))
        params = write(tmp_path, "p.json", json.dumps({"a": 0.5}))
        assert main(["run", circuit, "--input", state, "--params", params]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag", ["--input", "--params"])
    def test_missing_file_keeps_its_io_error(self, tmp_path, capsys, flag):
        circuit = write(tmp_path, "c.sq", "qubits 1\nu q1 x\n")
        missing = str(tmp_path / "missing.json")
        assert main(["run", circuit, flag, missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"io error: [Errno 2] No such file or directory: {missing!r}\n"


class TestCircuitPricing:
    """The circuit file of `run` and `hamiltonian --circuit` is priced from
    its size, at CIRCUIT_BYTES_PER_BYTE per byte, before it is read or
    parsed."""

    COMMANDS = [["run"], ["hamiltonian", "--circuit"]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_large_file_is_refused_before_parsing(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("parsed a file that should be refused")

        size = cli.BUDGET_FREE_BYTES // cli.CIRCUIT_BYTES_PER_BYTE + 1
        path = write(tmp_path, "big.sq", "qubits 1\n" + "\n" * (size - 9))
        monkeypatch.setattr(cli, "parse_circuit", refuse)
        monkeypatch.setattr(cli, "_mem_available", lambda: 64 << 20)
        assert main([*command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        need = size * cli.CIRCUIT_BYTES_PER_BYTE >> 20
        assert captured.err == (f"validation error: register too large for memory: parsing {path}"
                                f" needs about {need} MiB, 64 MiB available\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_small_files_never_read_meminfo(self, tmp_path, capsys, monkeypatch, command):
        def unread():
            raise AssertionError("MemAvailable read for a small file")

        monkeypatch.setattr(cli, "_mem_available", unread)
        circuit = write(tmp_path, "c.sq", "qubits 2\n# a comment\nrx q1 $a\ncu q1 q2 0 1 1 0\n")
        params = write(tmp_path, "p.json", json.dumps({"a": 0.5}))
        assert main([*command, circuit, "--params", params, "-o", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_file_keeps_its_io_error(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.sq")
        assert main([*command, missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"io error: [Errno 2] No such file or directory: {missing!r}\n"


class TestVerifyCommand:
    def test_crx_suite_writes_all_pair_csvs(self, tmp_path, capsys):
        code = main(["verify", "--suite", "crx", "-n", "4",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert len(files) == 12
        text = (tmp_path / files[0]).read_text()
        assert text.startswith("theta,error\n")
        assert len(text.strip().splitlines()) == 101

    def test_strings_suite(self, tmp_path, capsys):
        code = main(["verify", "--suite", "strings", "-n", "4",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert len(list(tmp_path.glob("strings_*.csv"))) == 3

    def test_engine_suite(self, tmp_path, capsys):
        code = main(["verify", "--suite", "engine", "-n", "5", "--circuits", "10",
                     "--seed", "9", "--out-dir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "engine_n5.csv").read_text()
        assert text.startswith("circuit,deviation\n")
        assert len(text.strip().splitlines()) == 11

    def test_outputs_are_byte_identical_across_runs(self, tmp_path, capsys):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for d in (dir_a, dir_b):
            assert main(["verify", "--suite", "engine", "-n", "4", "--circuits", "8",
                         "--seed", "42", "--out-dir", str(d)]) == 0
        assert (dir_a / "engine_n4.csv").read_bytes() == (dir_b / "engine_n4.csv").read_bytes()

    def test_env_tolerance_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QSIM_TOL", "1e-30")
        code = main(["verify", "--suite", "strings", "-n", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "exceeded tolerance" in capsys.readouterr().out

    def test_explicit_tol_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QSIM_TOL", "1e-30")
        code = main(["verify", "--suite", "strings", "-n", "2", "--tol", "1e-12",
                     "--out-dir", str(tmp_path)])
        assert code == 0


class TestRefusedBeforeOutput:
    """Inputs outside a command's range end in exit 3 with one stderr line
    before any work: nothing on stdout, no -o file, no sweep directory. The
    sweeps are patched to fail, so a refusal that comes too late shows."""

    CAP = "validation error: dense construction capped at 12 qubits, got n=13\n"

    @pytest.fixture
    def no_sweeps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("swept an input that should be refused")

        for name in ("gate_hamiltonian_sweep", "string_hamiltonian_sweep",
                     "engine_equivalence_deviations"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("suite, flags, message", [
        ("strings", ["-n", "0"], "--suite strings needs -n in 1..12, got 0"),
        ("strings", ["-n", "13"], "--suite strings needs -n in 1..12, got 13"),
        ("crx", ["-n", "1"], "--suite crx needs -n in 2..12, got 1"),
        ("crx", ["-n", "13"], "--suite crx needs -n in 2..12, got 13"),
        ("engine", ["-n", "1"], "--suite engine needs -n in 2..12, got 1"),
        ("engine", ["-n", "13"], "--suite engine needs -n in 2..12, got 13"),
        ("engine", ["--circuits", "0"], "--circuits must be at least 1, got 0"),
        ("crx", ["--circuits", "-1"], "--circuits must be at least 1, got -1"),
    ])
    def test_verify_out_of_range_exits_3(self, tmp_path, capsys, no_sweeps, suite, flags, message):
        out_dir = tmp_path / "sweeps"
        assert main(["verify", "--suite", suite, *flags, "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("suite", ["crx", "strings", "engine"])
    def test_verify_negative_seed_exits_3(self, tmp_path, capsys, no_sweeps, suite):
        """--seed is judged with -n and --circuits for every suite, before
        --out-dir is created."""
        out_dir = tmp_path / "sweeps"
        assert main(["verify", "--suite", suite, "--seed", "-1", "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: --seed must be a non-negative integer, got -1\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("suite, n", [
        ("strings", 1), ("strings", 12), ("crx", 2), ("crx", 12), ("engine", 2), ("engine", 12),
    ])
    def test_verify_range_is_inclusive(self, tmp_path, capsys, monkeypatch, suite, n):
        monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 40)
        stub = ErrorSweep("stub", (0.0,), (0.0,))
        monkeypatch.setattr(cli, "gate_hamiltonian_sweep", lambda *args: stub)
        monkeypatch.setattr(cli, "string_hamiltonian_sweep", lambda *args: stub)
        monkeypatch.setattr(cli, "engine_equivalence_deviations", lambda *args, **kw: [0.0])
        assert main(["verify", "--suite", suite, "-n", str(n), "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("to_file", [True, False])
    def test_run_oracle_above_the_cap_writes_nothing(self, tmp_path, capsys, monkeypatch, to_file):
        monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 40)
        circuit = write(tmp_path, "c.sq", "qubits 13\nu q1 h\ncx q1 q13\nry q7 0.3\n")
        out = tmp_path / "out.csv"
        argv = ["run", circuit, "--oracle"] + (["-o", str(out)] if to_file else [])
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.CAP
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_circuit_check_above_the_cap_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                        to_file):
        monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 40)
        circuit = write(tmp_path, "c.sq", "qubits 13\nu q1 i\n")
        out = tmp_path / "h.json"
        argv = ["hamiltonian", "--circuit", circuit, "--check"]
        assert main(argv + (["-o", str(out)] if to_file else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.CAP
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_gate_check_above_the_cap_writes_nothing(self, tmp_path, capsys, monkeypatch, to_file):
        """The single-gate check compares against the dense Kronecker oracle,
        so it is refused like the circuit check, before the Hamiltonian."""
        monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 40)

        def refuse(*args, **kwargs):
            raise AssertionError("built a Hamiltonian whose check is refused")

        monkeypatch.setattr(cli, "circuit_hamiltonians", refuse)
        out = tmp_path / "h.json"
        argv = ["hamiltonian", "-n", "13", "-j", "1", "--gate", "x", "--check"]
        assert main(argv + (["-o", str(out)] if to_file else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.CAP
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_dense_build_gate_above_the_cap_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                           to_file):
        """--dense text grows as 4^n, so it obeys the dense cap, before the
        memory estimate reads MemAvailable."""
        reads = []

        def available():
            reads.append(1)
            return 64 << 30

        def refuse(*args, **kwargs):
            raise AssertionError("built a gate whose dense text is refused")

        monkeypatch.setattr(cli, "_mem_available", available)
        monkeypatch.setattr(cli, "SparseUnitary", refuse)
        out = tmp_path / "g.json"
        argv = ["build-gate", "-n", "13", "-j", "1", "--gate", "x", "--dense"]
        assert main(argv + (["-o", str(out)] if to_file else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.CAP
        assert not out.exists()
        assert reads == []

    TEXT = "validation error: schema-1 text of about 6291456 MiB exceeds the 4096 MiB bound\n"

    @pytest.mark.parametrize("to_file", [True, False])
    @pytest.mark.parametrize("route", ["gate", "circuit"])
    def test_schema1_text_above_the_bound_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                         route, to_file):
        """x at n=20 has 2^19 terms of 2^20 entries: about 6.6 TB of text,
        priced from the term count before any of it is formatted."""
        def refuse(*args, **kwargs):
            raise AssertionError("formatted text above the bound")

        monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 40)
        monkeypatch.setattr(LocalHamiltonian, "json_chunks", refuse)
        if route == "gate":
            argv = ["hamiltonian", "-n", "20", "-j", "1", "--gate", "x"]
        else:
            argv = ["hamiltonian", "--circuit", write(tmp_path, "c.sq", "qubits 20\nu q1 x\n")]
        out = tmp_path / "h.json"
        assert main(argv + (["-o", str(out)] if to_file else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.TEXT
        assert not out.exists()

    def test_schema1_text_bound_counts_every_hamiltonian(self, tmp_path, capsys, monkeypatch):
        """Each gate of a one-layer HEA at n=12 writes under 0.3 GiB, and all
        of them about 7.8 GiB: the circuit is refused as a whole."""
        monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 40)
        hea = write(tmp_path, "c.sq", serialize(hea_template(12, 1)))
        params = write(tmp_path, "p.json", json.dumps(
            {name: 0.3 for name in hea_template(12, 1).param_names()}))
        out = tmp_path / "h.json"
        assert main(["hamiltonian", "--circuit", hea, "--params", params, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "validation error: schema-1 text of about 7968 MiB exceeds the 4096 MiB bound\n"
        assert not out.exists()


class TestTolerance:
    """A tolerance that is NaN, infinite or negative would decide a check by
    itself, so every checking command refuses it with exit 3 before any
    output, whether it comes from --tol or from QSIM_TOL."""

    def argv(self, tmp_path, command):
        if command == "run":
            return ["run", write(tmp_path, "bell.sq", BELL), "--oracle",
                    "-o", str(tmp_path / "out")]
        if command == "hamiltonian":
            return ["hamiltonian", "-n", "2", "-i", "1", "-j", "2", "--gate", "x", "--check",
                    "-o", str(tmp_path / "out")]
        return ["verify", "--suite", "strings", "-n", "2", "--out-dir", str(tmp_path / "out")]

    @pytest.mark.parametrize("command", ["run", "hamiltonian", "verify"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_bad_tolerance_exits_3(self, tmp_path, capsys, monkeypatch, command, value, source):
        argv = self.argv(tmp_path, command)
        if source == "flag":
            argv += [f"--tol={value}"]
        else:
            monkeypatch.setenv("QSIM_TOL", value)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: tolerance must be a finite number >= 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "hamiltonian", "verify"])
    def test_non_numeric_env_tolerance_exits_3(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("QSIM_TOL", "abc")
        assert main(self.argv(tmp_path, command)) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("validation error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "hamiltonian", "verify"])
    def test_zero_tolerance_is_a_tolerance(self, tmp_path, capsys, command):
        # The Bell circuit's oracle deviation is exactly 0.0; the others exceed 0.
        want = 0 if command == "run" else 1
        assert main(self.argv(tmp_path, command) + ["--tol", "0"]) == want


class TestRepeatedCalls:
    """main builds its parser once per process; calls must not share options."""

    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        circuit = write(tmp_path, "bell.sq", BELL)
        assert main(["run", circuit, "--amplitudes"]) == 0
        assert capsys.readouterr().out.startswith("index,re,im\n")
        assert main(["run", circuit]) == 0
        assert capsys.readouterr().out.startswith("index,probability\n")
        gate = ["hamiltonian", "-n", "2", "-j", "1", "--gate", "h"]
        assert main([*gate, "--check", "-o", str(tmp_path / "h.json")]) == 0
        assert capsys.readouterr().out.startswith("reconstruction_error=")
        assert main([*gate, "-o", str(tmp_path / "h.json")]) == 0
        assert capsys.readouterr().out == ""

    def test_a_replaced_command_takes_effect(self, tmp_path, capsys, monkeypatch):
        circuit = write(tmp_path, "bell.sq", BELL)
        assert main(["run", circuit]) == 0
        monkeypatch.setattr(cli, "cmd_run", lambda args: 7)
        assert main(["run", circuit]) == 7
