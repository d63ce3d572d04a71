"""Tracing for the benchmark's traced run: spans around sparseq's public
functions, installed from outside the package and removed afterwards.

A span is (id, name, start, end, parent id, op index, attributes). Spans are
kept in memory while the op runs and written out when the run ends. A name
is ``<layer>.<function>``; the layer is the sparseq module that defines the
function, or ``bench`` for the root span of each op.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from workloads import MIXED_KINDS

#: Module-level functions to wrap, by defining module. A function is
#: replaced in every sparseq module that binds it under the same name.
FUNCTIONS = {
    "cli": ("main",),
    "circuit_ir": ("parse_circuit", "bind", "circuit_hamiltonians", "groups_unitary"),
    "core": ("rotation_gate",),
    "engine": ("run_circuit", "apply_op", "probabilities_csv"),
    "gate_matrix": ("dense_gate",),
    "hamiltonian": ("controlled_gate_hamiltonian", "embedded_gate_hamiltonian", "exp_minus_ih"),
    "verify": ("dense_circuit_unitary", "frobenius_error"),
}

#: Methods to wrap: (module, class, method).
METHODS = (
    ("engine", "StateVector", "probabilities"),
    ("hamiltonian", "LocalHamiltonian", "to_json_dict"),
)


def _kernel_attrs(args, result) -> dict:
    state, op = args[0], args[1]
    u = op.u.matrix
    diag = u[0, 1] == 0 and u[1, 0] == 0
    if op.i is None:
        return {"kind": "single_diag" if diag else "single", "amps": 1 << state.n}
    kind = "ctrl_diag" if diag else ("ctrl_above" if op.i < op.j else "ctrl_below")
    return {"kind": kind, "amps": 1 << (state.n - 1)}


def _terms_attrs(args, result) -> dict:
    return {"terms": len(result.terms), "term_bytes": sum(t.w.nbytes for t in result.terms)}


ATTRS = {
    "circuit_ir.bind": lambda args, result: {"gates": len(result.ops)},
    "engine.apply_op": _kernel_attrs,
    "engine.probabilities_csv": lambda args, result: {"bytes": len(result)},
    "engine.probabilities": lambda args, result: {"bytes": result.nbytes},
    "hamiltonian.controlled_gate_hamiltonian": _terms_attrs,
    "hamiltonian.embedded_gate_hamiltonian": _terms_attrs,
    "cli.json_dumps": lambda args, result: {"bytes": len(result)},
}


class _JsonProxy:
    """Stands in for the ``json`` module inside sparseq.cli so that
    ``json.dumps`` gets a span; every other name passes through."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans only between ``begin_op`` and ``end_op``, so inputs
    and checks made around the op leave no spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._first = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            record = [len(self.spans), name, 0.0, 0.0, self._stack[-1], self._op, None]
            self.spans.append(record)
            self._stack.append(record[0])
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                # Resolved in end_op: after a large kernel even a few Python
                # reads miss the cache, and that time would land in the parent.
                record[6] = (attrs, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "sparseq" or key.startswith("sparseq.")]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"sparseq.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._patch(module, fname, traced)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"sparseq.{layer}"], cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{meth}", getattr(cls, meth)))
        cli = sys.modules["sparseq.cli"]
        self._patch(cli, "json", _JsonProxy(cli.json, self._wrap("cli.json_dumps", cli.json.dumps)))

    def uninstall(self):
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_op(self, k: int):
        self._op = k
        self._first = len(self.spans)
        self.spans.append([len(self.spans), "bench.op", time.perf_counter(), 0.0, None, k, None])
        self._stack.append(self.spans[-1][0])

    def end_op(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()
        self._op = None
        for record in self.spans[self._first:]:
            if record[6] is not None:
                attrs, args, result = record[6]
                record[6] = attrs(args, result)

    def write(self, path):
        keys = ("id", "name", "start", "end", "parent", "op", "attrs")
        with open(path, "w", encoding="utf-8") as f:
            for record in self.spans:
                f.write(json.dumps(dict(zip(keys, record))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its children cover. Calls are
    synchronous, so children never overlap and their durations add up."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(spans: list[list], ops: int, n: int, floor_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (per op, ratios unnormalized) and per-layer self time.

    floor_s is one in-place pass over 2^n amplitudes; a kernel's floor_ratio
    is its time per touched amplitude over the floor's.
    """
    own = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)
    output = {"engine.probabilities_csv", "engine.probabilities"}
    for s, self_s in zip(spans, own):
        name, duration, attrs = s[1], s[3] - s[2], s[6] or {}
        layer_self[name.split(".")[0]] += self_s
        if name == "engine.apply_op":
            name = f"engine.kernel.{attrs['kind']}"
            attr[name + ".amps"] += attrs["amps"]
        elif name in output:
            if s[4] is not None and spans[s[4]][1] in output:
                continue  # probabilities() inside probabilities_csv
            name = "engine.output"
        for key, value in attrs.items():
            if key != "kind" and key != "amps":
                attr[f"{name}.{key}"] += value
        total[name] += duration
        count[name] += 1
    for s, self_s in zip(spans, own):
        if s[1] == "engine.run_circuit":
            total["engine.run_self"] += self_s

    per_op = lambda v: v / ops  # noqa: E731
    floor_per_amp = floor_s / (1 << n)
    m = {}
    for kind in MIXED_KINDS:
        key = f"engine.kernel.{kind}"
        s, amps = total[key], attr[key + ".amps"]
        m[key + ".count"] = per_op(count[key])
        m[key + ".s"] = per_op(s)
        m[key + ".amps"] = per_op(amps)
        m[key + ".gbps"] = 32 * amps / s / 1e9 if s else 0.0
        m[key + ".floor_ratio"] = s / amps / floor_per_amp if amps else 0.0
    gates = sum(count[f"engine.kernel.{kind}"] for kind in MIXED_KINDS)
    m["engine.run_self_s"] = per_op(total["engine.run_self"])
    m["engine.per_gate_overhead_us"] = total["engine.run_self"] / gates * 1e6 if gates else 0.0
    m["engine.output_s"] = per_op(total["engine.output"])
    m["engine.output_bytes"] = per_op(attr["engine.output.bytes"])
    m["circuit_ir.parse_s"] = per_op(total["circuit_ir.parse_circuit"])
    m["circuit_ir.bind_s"] = per_op(total["circuit_ir.bind"])
    m["circuit_ir.gates_bound"] = per_op(attr["circuit_ir.bind.gates"])
    m["core.rotation_gate_calls"] = per_op(count["core.rotation_gate"])
    m["core.rotation_gate_s"] = per_op(total["core.rotation_gate"])
    m["cli.self_s"] = per_op(layer_self["cli"])
    build = ("hamiltonian.controlled_gate_hamiltonian", "hamiltonian.embedded_gate_hamiltonian")
    m["hamiltonian.build_s"] = per_op(sum(total[b] for b in build))
    m["hamiltonian.terms"] = per_op(sum(attr[b + ".terms"] for b in build))
    m["hamiltonian.term_bytes"] = per_op(sum(attr[b + ".term_bytes"] for b in build))
    m["hamiltonian.serialize_s"] = per_op(total["hamiltonian.to_json_dict"] + total["cli.json_dumps"])
    m["hamiltonian.json_bytes"] = per_op(attr["cli.json_dumps.bytes"])
    m["verify.oracle_s"] = per_op(total["verify.dense_circuit_unitary"] + total["verify.frobenius_error"])
    m["gate_matrix.dense_gate_calls"] = per_op(count["gate_matrix.dense_gate"])
    m["gate_matrix.dense_gate_s"] = per_op(total["gate_matrix.dense_gate"])
    return m, {layer: per_op(v) for layer, v in sorted(layer_self.items())}
