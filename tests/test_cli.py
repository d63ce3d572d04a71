import json
import math

import numpy as np
import pytest

from sparseq import (
    ControlledGateSpec,
    ErrorSweep,
    SparseUnitary,
    cli,
    controlled_gate_hamiltonian,
    controlled_sparse,
)
from sparseq.circuit_ir import hea_template, serialize
from sparseq.cli import main, parse_gate_spec

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
        sparse = cli._build_sparse(cli.build_parser().parse_args(argv))
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
        assert "control equals target" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["build-gate", "--frobnicate"]) == 2

    def test_tol_is_not_an_option(self, capsys):
        # build-gate checks nothing, so it takes no tolerance.
        assert main(["build-gate", "-n", "2", "-j", "1", "--gate", "x", "--tol", "1e-9"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_bad_gate_spec_exits_3(self, capsys):
        assert main(["build-gate", "-n", "2", "-i", "1", "-j", "2", "--gate", "nope"]) == 3


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

        monkeypatch.setattr(cli, "dense_circuit_unitary", refuse)
        circuit = write(tmp_path, "c.sq", serialize(hea_template(4, 1)))
        params = write(tmp_path, "p.json", json.dumps(
            {name: 0.3 + 0.1 * k for k, name in enumerate(hea_template(4, 1).param_names())}))
        assert main(["run", circuit, "--params", params, "--oracle"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("oracle_deviation=")
        assert float(line.partition("=")[2]) <= 1e-12

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

    @pytest.mark.parametrize("text", [
        "5", "[1, 2]", '["ab", "cd"]', "[[1.0, 0.0], [0.0]]", "[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]",
        '[[1.0, 0.0], [0.0, "0"]]', "[[1.0, 0.0], [0.0, null]]", "{}",
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
        "hamiltonian": (None, ["hamiltonian", "-n", "21", "-j", "1", "--gate", "x"]),
        "hamiltonian_check": (None, ["hamiltonian", "-n", "11", "-i", "2", "-j", "1",
                                     "--gate", "x", "--check"]),
        "circuit_check": ("qubits 11\nrx q1 0.1\ncx q1 q2\n",
                          ["hamiltonian", "--circuit", "{c}", "--check"]),
        "build_gate_dense": (None, ["build-gate", "-n", "12", "-j", "1", "--gate", "x", "--dense"]),
        "verify": (None, ["verify", "--suite", "crx", "-n", "11"]),
    }

    @pytest.fixture
    def no_builders(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past a refused budget")

        for name in ("_build_sparse", "embedded_gate_hamiltonian", "controlled_gate_hamiltonian",
                     "circuit_hamiltonians", "run_circuit", "gate_hamiltonian_sweep"):
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
