"""One judge per input file: a state file is judged by StateVector.from_json
and a parameter file's values by circuit_ir.bind, for library callers and
for the CLI alike. Each hostile input below goes through the library entry
and through every command that reads it. The library raises the message
that the CLI prints after "validation error: ", and the CLI exits 3 with
that one stderr line and writes nothing."""
import json

import numpy as np
import pytest

from sparseq import StateVector, bind, parse_circuit
from sparseq.cli import main

NOT_PAIRS = "state must be a JSON array of [re, im] number pairs"

#: State file text -> the message both routes give.
STATES = {
    "[[true, 0.0], [0, 0]]": NOT_PAIRS,
    "[[1.0, 0.0], [0.0, false]]": NOT_PAIRS,
    "[[true, false], [false, false]]": NOT_PAIRS,
    "[[false, true], [0.6, 0.8]]": "amplitudes are not normalized",
    '[["1.0", 0.0], [0, 0]]': NOT_PAIRS,
    '[[1.0, 0.0], [0.0, "false"]]': NOT_PAIRS,
    "[[1.0, 0.0], [0.0, null]]": NOT_PAIRS,
    "[[null, 0.0], [true, 0.0]]": NOT_PAIRS,
}

#: Parameter file text -> the message both routes give. The circuit reads $a;
#: every value is judged, used or not, before a missing name is.
PARAMS = {
    '{"a": true}': "parameter 'a' must be a number, got True",
    '{"a": false}': "parameter 'a' must be a number, got False",
    '{"a": "0.5"}': "parameter 'a' must be a number, got '0.5'",
    '{"a": null}': "parameter 'a' must be a number, got None",
    '{"a": [1]}': "parameter 'a' must be a number, got [1]",
    '{"a": 0.5, "unused": {"x": 1}}': "parameter 'unused' must be a number, got {'x': 1}",
    '{"b": true}': "parameter 'b' must be a number, got True",
    '{"a": ' + "9" * 400 + "}": "parameter 'a' is out of float range",
    '{"a": 1e999}': "parameter 'a' must be finite",
    '{"a": NaN}': "parameter 'a' must be finite",
    '{"a": 0.5, "unused": -Infinity}': "parameter 'unused' must be finite",
}

#: A params file that is not a JSON object. bind takes a mapping, so this
#: is the one check the CLI makes on a params file itself.
NOT_OBJECTS = ("[1]", "0.5", '"a"', "null")

CIRCUIT = "qubits 2\nrx q1 $a\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def refused(capsys, argv, out) -> str:
    """Run argv, require exit 3 with one stderr line and no output, and
    return what follows "validation error: "."""
    assert main(argv + ["-o", str(out)]) == 3, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    assert captured.err.startswith("validation error: ") and captured.err.count("\n") == 1
    return captured.err[len("validation error: "):-1]


@pytest.mark.parametrize("text", STATES)
def test_state_file_judged_once(tmp_path, capsys, text):
    with pytest.raises(ValueError) as info:
        StateVector.from_json(text)
    assert str(info.value) == STATES[text]
    circuit = write(tmp_path, "c.sq", "qubits 1\nu q1 x\n")
    state = write(tmp_path, "s.json", text)
    assert refused(capsys, ["run", circuit, "--input", state], tmp_path / "out") == STATES[text]


@pytest.mark.parametrize("text", PARAMS)
def test_parameter_values_judged_once(tmp_path, capsys, text):
    with pytest.raises(Exception) as info:
        bind(parse_circuit(CIRCUIT), json.loads(text))
    assert str(info.value) == PARAMS[text]
    circuit = write(tmp_path, "c.sq", CIRCUIT)
    params = write(tmp_path, "p.json", text)
    for command in (["run", circuit], ["hamiltonian", "--circuit", circuit]):
        argv = command + ["--params", params]
        assert refused(capsys, argv, tmp_path / "out") == PARAMS[text], argv


@pytest.mark.parametrize("text", NOT_OBJECTS)
def test_params_file_must_be_an_object(tmp_path, capsys, text):
    circuit = write(tmp_path, "c.sq", CIRCUIT)
    params = write(tmp_path, "p.json", text)
    for command in (["run", circuit], ["hamiltonian", "--circuit", circuit]):
        argv = command + ["--params", params]
        message = refused(capsys, argv, tmp_path / "out")
        assert message == "params file must hold a JSON object of name -> value", argv


@pytest.mark.parametrize("value", [np.int64(1), np.float64(0.5), np.float32(0.25), 1, 0.5])
def test_real_numbers_bind_as_floats(value):
    circuit = bind(parse_circuit(CIRCUIT), {"a": value})
    assert circuit == bind(parse_circuit(CIRCUIT), {"a": float(value)})
