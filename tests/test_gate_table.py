"""Property tests over the gate table: every GATES entry parses, serializes,
binds and runs like the dense chain, and a new gate needs nothing beyond its
entry."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseq import OneQubitGate, StateVector, bind, parse_circuit, run_circuit, serialize
from sparseq.circuit_ir import GATES, CircuitTemplate, GateKind, GateStmt, ParamRef
from sparseq.cli import parse_gate_spec
from sparseq.core import rotation_gate
from sparseq.verify import dense_circuit_unitary

# Deterministic and small, so tier-1 runs the same examples every time.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text("abXY_09", min_size=1, max_size=4).map(lambda s: "p" + s)
angles = finite | names.map(ParamRef)
turns = st.floats(-math.pi, math.pi)


@st.composite
def unitary_entries(draw):
    """Row-major entries of e^{i phi} Rz(a) Ry(b) Rz(c)."""
    phi, a, b, c = (draw(turns) for _ in range(4))
    m = np.exp(1j * phi) * (
        rotation_gate("Z", a).matrix @ rotation_gate("Y", b).matrix @ rotation_gate("Z", c).matrix
    )
    return tuple(complex(x) for x in m.ravel())


@st.composite
def templates(draw):
    n = draw(st.integers(2, 5))
    stmts = []
    for name in draw(st.lists(st.sampled_from(sorted(GATES)), max_size=12)):
        kind = GATES[name]
        j = draw(st.integers(1, n))
        others = [q for q in range(1, n + 1) if q != j]
        i = draw(st.sampled_from(others)) if kind.controlled else None
        angle = draw(angles) if kind.axis is not None else None
        entries = draw(unitary_entries()) if kind.axis is None and kind.fixed is None else None
        stmts.append(GateStmt(0, name, j, i=i, angle=angle, entries=entries))
    return CircuitTemplate(n, tuple(stmts))


@PROPERTY
@given(templates())
def test_parse_inverts_serialize_and_every_entry_binds(template):
    assert parse_circuit(serialize(template)) == template
    circuit = bind(template, dict.fromkeys(template.param_names(), 0.5))
    assert [(op.name, op.i, op.j) for op in circuit.ops] == [
        (s.name, s.i, s.j) for s in template.stmts
    ]


phases = st.sampled_from([1, -1, 1j, -1j]) | turns.map(lambda a: complex(np.exp(1j * a)))


@st.composite
def diagonal_entries(draw):
    """Row-major entries of an exactly diagonal unitary, exact 1 and -1 included."""
    return (complex(draw(phases)), 0j, 0j, complex(draw(phases)))


@st.composite
def bound_circuits(draw):
    """A bound circuit over every GATES entry, explicit unitaries included
    both general and exactly diagonal, with a random input state."""
    n = draw(st.integers(1, 8))
    usable = sorted(name for name, kind in GATES.items() if n > 1 or not kind.controlled)
    stmts = []
    for name in draw(st.lists(st.sampled_from(usable), max_size=12)):
        kind = GATES[name]
        j = draw(st.integers(1, n))
        i = None
        if kind.controlled:
            i = draw(st.sampled_from([q for q in range(1, n + 1) if q != j]))
        angle = draw(turns) if kind.axis is not None else None
        entries = None
        if kind.axis is None and kind.fixed is None:
            entries = draw(unitary_entries() | diagonal_entries())
        stmts.append(GateStmt(0, name, j, i=i, angle=angle, entries=entries))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return bind(CircuitTemplate(n, tuple(stmts))), StateVector(n, amps / np.linalg.norm(amps))


@PROPERTY
@given(bound_circuits())
def test_engine_matches_dense_chain(case):
    circuit, state = case
    want = dense_circuit_unitary(circuit) @ state.amps
    out = run_circuit(circuit, state)
    assert np.max(np.abs(out.amps - want)) <= 1e-12


@PROPERTY
@given(st.sampled_from(sorted(GATES)), finite)
def test_gate_spec_accepts_exactly_fixed_and_rotation_entries(name, theta):
    kind = GATES[name]
    if kind.named:
        assert parse_gate_spec(name) is kind.fixed
    else:
        with pytest.raises(ValueError, match="unknown gate spec"):
            parse_gate_spec(name)
    spec = f"{name}:{theta!r}"
    if kind.axis is not None and not kind.controlled:
        want = rotation_gate(kind.axis, theta).matrix
        assert np.array_equal(parse_gate_spec(spec).matrix, want)
    else:
        with pytest.raises(ValueError, match="unknown gate spec"):
            parse_gate_spec(spec)


@PROPERTY
@given(st.text(max_size=8))
def test_gate_spec_rejects_names_outside_the_table(spec):
    if spec.partition(":")[0] not in GATES:
        with pytest.raises(ValueError, match="unknown gate spec"):
            parse_gate_spec(spec)


def test_one_entry_adds_a_gate(monkeypatch):
    sx = OneQubitGate(np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2)
    monkeypatch.setitem(GATES, "sx", GateKind(False, fixed=sx))
    monkeypatch.setitem(GATES, "csx", GateKind(True, fixed=sx))
    src = "qubits 2\nu q1 sx\ncsx q1 q2\n"
    template = parse_circuit(src)
    assert serialize(template) == src
    circuit = bind(template)
    assert [(op.name, op.i, op.j) for op in circuit.ops] == [("sx", None, 1), ("csx", 1, 2)]
    assert all(op.u is sx for op in circuit.ops)
    assert parse_gate_spec("sx") is sx
    out = run_circuit(circuit)
    want = dense_circuit_unitary(circuit) @ StateVector.zero(2).amps
    assert np.max(np.abs(out.amps - want)) <= 1e-12
