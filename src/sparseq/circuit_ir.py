"""Line-oriented circuit description format, parameter binding, templates.

Grammar (one statement per line, `#` starts a comment, blank lines ignored):

    qubits N                        header, required once before any gate
    rx|ry|rz q<j> <expr>            rotation on qubit j
    u q<j> <name>                   named gate: x y z h i s t
    u q<j> <c> <c> <c> <c>          explicit 2x2 unitary, entries row-major
    cx|cy|cz|ch q<i> q<j>           controlled named gate, control first
    crx|cry|crz q<i> q<j> <expr>    controlled rotation
    cu q<i> q<j> <c> <c> <c> <c>    controlled explicit unitary

<expr> is a float literal or `$name`; <c> is `re` or `re,im`. Qubit
positions are 1-based with qubit 1 the most significant bit.

The gate list lives in GATES; parse, serialize, bind, circuit_hamiltonians
and the CLI gate specs all read it, so a new gate is one entry there.
"""
from __future__ import annotations

import math
import numbers
import re as _re
from dataclasses import dataclass, field

import numpy as np

from .core import OneQubitGate, PAULI, rotation_gate
from .engine import Circuit, GateOp
from .gate_matrix import check_dense_cap
from .hamiltonian import (
    LocalHamiltonian,
    apply_exp_minus_ih,
    controlled_gate_hamiltonian,
    embedded_gate_hamiltonian,
)


@dataclass(frozen=True)
class GateKind:
    """How a statement name reads and binds. A rotation about `axis` takes
    one angle, a `fixed` gate takes no argument, and a gate with neither
    takes four complex entries; a controlled kind takes its control qubit
    before the target."""

    controlled: bool
    axis: str | None = None
    fixed: OneQubitGate | None = None

    @property
    def named(self) -> bool:
        """A single-qubit fixed gate, written `u q<j> <name>`."""
        return self.fixed is not None and not self.controlled


_X, _Y, _Z = (OneQubitGate(PAULI[axis]) for axis in "XYZ")
_H = OneQubitGate(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))

#: The gate vocabulary by statement name. Single-qubit fixed gates are
#: written `u q<j> <name>`; every other name heads its own statement.
GATES: dict[str, GateKind] = {
    "rx": GateKind(False, axis="X"),
    "ry": GateKind(False, axis="Y"),
    "rz": GateKind(False, axis="Z"),
    "x": GateKind(False, fixed=_X),
    "y": GateKind(False, fixed=_Y),
    "z": GateKind(False, fixed=_Z),
    "h": GateKind(False, fixed=_H),
    "i": GateKind(False, fixed=OneQubitGate(np.eye(2))),
    "s": GateKind(False, fixed=OneQubitGate(np.diag([1, 1j]))),
    "t": GateKind(False, fixed=OneQubitGate(np.diag([1, np.exp(1j * math.pi / 4)]))),
    "u": GateKind(False),
    "crx": GateKind(True, axis="X"),
    "cry": GateKind(True, axis="Y"),
    "crz": GateKind(True, axis="Z"),
    "cx": GateKind(True, fixed=_X),
    "cy": GateKind(True, fixed=_Y),
    "cz": GateKind(True, fixed=_Z),
    "ch": GateKind(True, fixed=_H),
    "cu": GateKind(True),
}
_NAME_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class CircuitParseError(Exception):
    """Syntax or placement error with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CircuitBindError(Exception):
    """Raised when binding leaves parameters unresolved or meets a bad value."""


@dataclass(frozen=True)
class ParamRef:
    name: str


@dataclass(frozen=True)
class GateStmt:
    """One parsed gate statement; `line` is ignored for equality."""

    line: int = field(compare=False)
    name: str = "u"
    j: int = 1
    i: int | None = None
    angle: float | ParamRef | None = None
    entries: tuple[complex, complex, complex, complex] | None = None


@dataclass(frozen=True)
class CircuitTemplate:
    """Parsed circuit with possibly unbound parameters."""

    n: int
    stmts: tuple[GateStmt, ...]

    def param_names(self) -> list[str]:
        """Referenced parameter names, in first-use order."""
        seen: dict[str, None] = {}
        for s in self.stmts:
            if isinstance(s.angle, ParamRef):
                seen.setdefault(s.angle.name)
        return list(seen)


class _Line:
    def __init__(self, number: int, text: str):
        self.number = number
        self.tokens = [(m.start() + 1, m.group()) for m in _re.finditer(r"\S+", text)]

    def words(self) -> list[str]:
        return [w for _, w in self.tokens]

    def col(self, idx: int) -> int:
        return self.tokens[idx][0] if idx < len(self.tokens) else (
            self.tokens[-1][0] + len(self.tokens[-1][1]) if self.tokens else 1
        )


def _parse_qubit(line: _Line, idx: int, n: int) -> int:
    word = line.words()[idx]
    m = _re.fullmatch(r"q(\d+)", word)
    if not m:
        raise CircuitParseError(
            f"expected a qubit like q1, got {word!r}", line.number, line.col(idx)
        )
    q = int(m.group(1))
    if not 1 <= q <= n:
        raise CircuitParseError(f"qubit out of range: q{q} of {n}", line.number, line.col(idx))
    return q


def _parse_expr(line: _Line, idx: int) -> float | ParamRef:
    word = line.words()[idx]
    if word.startswith("$"):
        if not _NAME_RE.match(word[1:]):
            raise CircuitParseError(
                f"bad parameter name {word!r}", line.number, line.col(idx)
            )
        return ParamRef(word[1:])
    try:
        value = float(word)
    except ValueError:
        raise CircuitParseError(
            f"expected an angle or $name, got {word!r}", line.number, line.col(idx)
        ) from None
    if not math.isfinite(value):
        raise CircuitParseError("angle must be finite", line.number, line.col(idx))
    return value


def _parse_complex(line: _Line, idx: int) -> complex:
    word = line.words()[idx]
    parts = word.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise CircuitParseError(
        f"expected a complex entry like 0.5 or 0.5,-0.5, got {word!r}",
        line.number,
        line.col(idx),
    )


def _expect_arity(line: _Line, count: int):
    words = line.words()
    if len(words) != count:
        raise CircuitParseError(
            f"{words[0]} takes {count - 1} argument(s), got {len(words) - 1}",
            line.number,
            line.col(min(len(words), count)),
        )


def parse_circuit(text: str) -> CircuitTemplate:
    """Parse source text into a template; raises CircuitParseError."""
    n: int | None = None
    stmts: list[GateStmt] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _Line(number, raw.split("#", 1)[0])
        words = line.words()
        if not words:
            continue
        head = words[0]
        if head == "qubits":
            if n is not None:
                raise CircuitParseError("duplicate qubits header", number, line.col(0))
            _expect_arity(line, 2)
            if not _re.fullmatch(r"\d+", words[1]) or int(words[1]) < 1:
                raise CircuitParseError(
                    f"qubits needs a positive count, got {words[1]!r}", number, line.col(1)
                )
            n = int(words[1])
            continue
        if n is None:
            raise CircuitParseError(
                "qubits header must come before gate statements", number, line.col(0)
            )
        if head == "u" and len(words) != 6:
            kind = GATES.get(words[2]) if len(words) == 3 else None
            if kind is None or not kind.named:
                raise CircuitParseError(
                    "u takes a named gate or 4 complex entries", number, line.col(2)
                )
            stmts.append(GateStmt(number, words[2], _parse_qubit(line, 1, n)))
            continue
        kind = GATES.get(head)
        if kind is None or kind.named:
            raise CircuitParseError(f"unknown statement {head!r}", number, line.col(0))
        t = 1 + kind.controlled  # index of the target qubit
        _expect_arity(line, t + 1 + (1 if kind.axis else 0 if kind.fixed else 4))
        i = _parse_qubit(line, 1, n) if kind.controlled else None
        j = _parse_qubit(line, t, n)
        angle = entries = None
        if kind.axis is not None:
            angle = _parse_expr(line, t + 1)
        elif kind.fixed is None:
            entries = tuple(_parse_complex(line, idx) for idx in range(t + 1, t + 5))
            try:
                OneQubitGate(np.array(entries, dtype=complex).reshape(2, 2))
            except ValueError as exc:
                raise CircuitParseError(str(exc), number, line.col(t + 1)) from None
        if i == j:
            raise CircuitParseError("control equals target", number, line.col(1))
        stmts.append(GateStmt(number, head, j, i=i, angle=angle, entries=entries))
    if n is None:
        raise CircuitParseError("missing qubits header", max(1, text.count("\n") + 1))
    return CircuitTemplate(n, tuple(stmts))


def _expr_text(expr: float | ParamRef) -> str:
    return f"${expr.name}" if isinstance(expr, ParamRef) else repr(expr)


def _complex_text(c: complex) -> str:
    return f"{c.real!r},{c.imag!r}"


def serialize(template: CircuitTemplate) -> str:
    """Canonical source text; reparsing yields an equal template."""
    lines = [f"qubits {template.n}"]
    for s in template.stmts:
        kind = GATES[s.name]
        qubits = [f"q{s.i}", f"q{s.j}"] if kind.controlled else [f"q{s.j}"]
        if kind.named:
            words = ["u", *qubits, s.name]
        elif kind.axis is not None:
            words = [s.name, *qubits, _expr_text(s.angle)]
        elif kind.fixed is not None:
            words = [s.name, *qubits]
        else:
            words = [s.name, *qubits, *map(_complex_text, s.entries)]
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def bind(template: CircuitTemplate, params: dict[str, float] | None = None) -> Circuit:
    """Resolve all parameters into an executable circuit. Every value, used
    or not, must be a finite real number in float range that is not a bool."""
    values = {}
    for k, v in (params or {}).items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise CircuitBindError(f"parameter {k!r} must be a number, got {v!r}")
        try:
            values[k] = float(v)
        except OverflowError:
            raise CircuitBindError(f"parameter {k!r} is out of float range") from None
        if not math.isfinite(values[k]):
            raise CircuitBindError(f"parameter {k!r} must be finite")
    missing = [name for name in template.param_names() if name not in values]
    if missing:
        raise CircuitBindError(
            "unbound parameter(s): " + ", ".join(f"${m}" for m in missing)
        )
    ops = []
    for s in template.stmts:
        kind = GATES[s.name]
        if kind.axis is not None:
            theta = values[s.angle.name] if isinstance(s.angle, ParamRef) else s.angle
            u = rotation_gate(kind.axis, theta)
        elif kind.fixed is not None:
            u = kind.fixed
        else:
            u = OneQubitGate(np.array(s.entries, dtype=complex).reshape(2, 2))
        ops.append(GateOp(s.j, u, i=s.i, name=s.name))
    return Circuit(template.n, tuple(ops))


def hea_source(n: int, layers: int) -> str:
    """Source text of the hardware-efficient ansatz.

    Per layer: three rotation columns of per-qubit rx gates followed by a
    nearest-neighbour entangling chain of parametrized controlled rotations.
    """
    if n < 2:
        raise ValueError("ansatz needs at least 2 qubits")
    if layers < 1:
        raise ValueError("need at least one layer")
    lines = [f"qubits {n}"]
    for layer in range(1, layers + 1):
        for col in range(1, 4):
            lines += [f"rx q{q} $q{q}_c{col}_l{layer}" for q in range(1, n + 1)]
        lines += [f"crx q{q} q{q + 1} $ent{q}_l{layer}" for q in range(1, n)]
    return "\n".join(lines) + "\n"


def hea_template(n: int, layers: int) -> CircuitTemplate:
    return parse_circuit(hea_source(n, layers))


@dataclass(frozen=True)
class HamiltonianGroup:
    """Generators of one circuit factor: a string of single-qubit gates
    (one Hamiltonian per gate, commuting) or a single controlled gate."""

    kind: str  # "string" | "controlled"
    hamiltonians: tuple[LocalHamiltonian, ...]


def circuit_hamiltonians(circuit: Circuit) -> list[HamiltonianGroup]:
    """Local Hamiltonian decomposition of a bound circuit.

    Consecutive single-qubit gates on distinct qubits merge into one string
    factor; every controlled gate is its own factor. Groups come back in
    circuit order, so the circuit unitary is the reversed product of the
    group unitaries.
    """
    groups: list[HamiltonianGroup] = []
    run: list[GateOp] = []

    def flush():
        if not run:
            return
        hams = tuple(embedded_gate_hamiltonian(circuit.n, op.j, op.u) for op in run)
        groups.append(HamiltonianGroup("string", hams))
        run.clear()

    for op in circuit.ops:
        if op.i is not None:
            flush()
            h = controlled_gate_hamiltonian(circuit.n, op.i, op.j, op.u)
            groups.append(HamiltonianGroup("controlled", (h,)))
        else:
            if any(prev.j == op.j for prev in run):
                flush()
            run.append(op)
    flush()
    return groups


def groups_unitary(groups: list[HamiltonianGroup], n: int) -> np.ndarray:
    """Dense unitary of an n-qubit circuit from its Hamiltonian groups, last
    group leftmost: every exponential applied in circuit order to one
    identity matrix, O(4^n) per Hamiltonian."""
    check_dense_cap(n)
    out = np.eye(1 << n, dtype=complex)
    for g in groups:
        for h in g.hamiltonians:
            apply_exp_minus_ih(h, out)
    return out

