import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparseq
from sparseq import OneQubitGate, rotation_gate
from sparseq.circuit_ir import GATES

#: Starts argv[1:] as a child, its stdout discarded, and prints its exit code
#: and ru_maxrss.
_PROBE = (
    "import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(p.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


@pytest.fixture
def generic_gate() -> OneQubitGate:
    """Fixed unitary whose four entries are pairwise distinct and nonzero,
    so entry-placement checks can use exact equality."""
    u = rotation_gate("Z", 0.5) @ rotation_gate("Y", 0.8) @ rotation_gate("Z", 0.3)
    entries = {u.u11, u.u12, u.u21, u.u22}
    assert len(entries) == 4 and all(abs(e) > 1e-3 for e in entries)
    return u


@pytest.fixture
def table_gates(generic_gate) -> list[OneQubitGate]:
    """Every fixed gate of GATES, each rotation axis at angles with signed and
    exact zeros, and the generic gate."""
    fixed = {id(k.fixed): k.fixed for k in GATES.values() if k.fixed is not None}
    rotations = [rotation_gate(k.axis, t) for k in GATES.values() if k.axis and not k.controlled
                 for t in (0.7, -2.1, 2.5)]
    return [*fixed.values(), *rotations, generic_gate]


@pytest.fixture
def slot_counts():
    """Counts the stored slots of a gate's JSON rows: (per row, per column)."""

    def count(sparse):
        rows = json.loads(sparse.to_json())["rows"]
        columns = [c for row in rows for c, _, _ in row]
        return np.array([len(row) for row in rows]), np.bincount(columns, minlength=len(rows))

    return count


@pytest.fixture
def gate_dense():
    """The dense matrix of a sparse gate, read from its schema-1 JSON rows:
    zeros around the stored slots."""

    def dense(sparse):
        rows = json.loads(sparse.to_json())["rows"]
        m = np.zeros((len(rows), len(rows)), dtype=complex)
        for k, row in enumerate(rows):
            for c, re, im in row:
                m[k, c] = complex(re, im)
        return m

    return dense


@pytest.fixture
def term_columns():
    """(z, W) of a Hamiltonian, read from its .terms: the term weights, and
    the matrix whose column k is term vector k. Its dense H is (W * z) @ W†
    and its Gram matrix W† W."""

    def columns(h):
        terms = h.terms
        w = np.zeros((h.dim, len(terms)), dtype=complex)
        for k, t in enumerate(terms):
            w[:, k] = t.w
        return np.array([t.z for t in terms], dtype=float), w

    return columns


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)


@pytest.fixture
def cli_maxrss():
    """Runs the sparseq CLI on argv in a grandchild and returns its exit code
    and peak RSS (ru_maxrss, kilobytes on Linux). A child started straight
    from the test process would report at least the test process's own peak,
    which exec carries over, so a small Python process starts it instead."""
    src = str(Path(sparseq.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cli = "import sys; from sparseq.cli import main; sys.exit(main(sys.argv[1:]))"

    def run(argv):
        probe = [sys.executable, "-c", _PROBE, sys.executable, "-c", cli, *argv]
        code, maxrss = subprocess.run(
            probe, env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        return int(code), int(maxrss)

    return run
