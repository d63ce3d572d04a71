"""Schema-1 Hamiltonian JSON against the reference serializer.

The reference builds every term as a dense length-2^n vector, one per pair
low, and writes the schema-1 dict with json.dumps. The writer must produce
the same bytes, the same term order and the same e^{-iH}, and the weights
and the term-vector matrix W derived from the stored placement and rows
must equal, bit for bit, those of the array-built lift packing.
"""
import hashlib
import json
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

import sparseq
from sparseq import (
    LocalHamiltonian,
    controlled_gate_hamiltonian,
    eigenpairs_2x2,
    embedded_gate_hamiltonian,
    exp_minus_ih,
    phase_of,
    rotation_gate,
)
from sparseq import hamiltonian
from sparseq.circuit_ir import GATES, bind, circuit_hamiltonians, hea_template
from sparseq.cli import main
from sparseq.hamiltonian import check_json_size
from sparseq.qindex import pair_indices
from sparseq.verify import dense_circuit_unitary, frobenius_error

# rx:0.7 has a -0.0 eigenvector component; z, s and rz have exact zeros.
GATE_SPECS = {
    "x": GATES["x"].fixed,
    "h": GATES["h"].fixed,
    "s": GATES["s"].fixed,
    "z": GATES["z"].fixed,
    "rx": rotation_gate("X", 0.7),
    "ry": rotation_gate("Y", -2.1),
    "rz": rotation_gate("Z", 2.5),
}


def reference_rows(n, j, i, rows):
    """(z, dense w) for every (z, v) row and every pair low a, with the
    components of v at a and a + 2^(n-j)."""
    stride = 1 << (n - j)
    terms = []
    for z, v in rows:
        for a in pair_indices(n, j, i)[0].tolist():
            w = np.zeros(1 << n, dtype=complex)
            w[a] = v[0]
            w[a + stride] = v[1]
            terms.append((z, w))
    return terms


def nonunit_rows(pairs):
    """(z, vector) of every non-unit eigenpair, z its eigenvalue's phase."""
    return [(z, p.vector) for p in pairs if (z := phase_of(p.value)) != 0.0]


def reference_terms(n, j, i, pairs):
    """reference_rows of every non-unit eigenpair."""
    return reference_rows(n, j, i, nonunit_rows(pairs))


def lift_arrays(n, j, i, rows):
    """z, slots and values as the array-built lift packed them: every
    (z, vector) row repeated over the pair lows of (n, j, i)."""
    lows = pair_indices(n, j, i)[0]
    spans = (lows[:, None] + np.array([0, 1 << (n - j)]))[None]
    return (
        np.array([z for z, _ in rows], dtype=float).repeat(len(lows)),
        spans.repeat(len(rows), axis=0).reshape(-1, 2),
        np.array([v for _, v in rows], dtype=complex).reshape(-1, 2).repeat(len(lows), axis=0),
    )


def lift_columns(n, j, i, rows):
    """z and W of the lift packing: column k of W holds values[k] at the
    slots slots[k], put there by put_along_axis."""
    z, slots, values = lift_arrays(n, j, i, rows)
    w = np.zeros((1 << n, len(z)), dtype=complex)
    np.put_along_axis(w, slots.T, values.T, axis=0)
    return z, w


def reference_dict(dim, terms):
    return {
        "schema": 1,
        "dim": dim,
        "terms": [
            {"z": z, "w": [[float(c.real), float(c.imag)] for c in w]} for z, w in terms
        ],
    }


def reference_exp(dim, terms):
    out = np.eye(dim, dtype=complex)
    if terms:
        w = np.column_stack([w for _, w in terms])
        coef = np.array([np.exp(-1j * z) - 1.0 for z, _ in terms])
        out += (w * coef) @ w.conj().T
    return out


def placements(max_n):
    for n in range(1, max_n + 1):
        for j in range(1, n + 1):
            yield n, j, None
            for i in range(1, n + 1):
                if i != j:
                    yield n, j, i


def build(n, j, i, u):
    if i is None:
        return embedded_gate_hamiltonian(n, j, u)
    return controlled_gate_hamiltonian(n, i, j, u)


def test_derived_arrays_match_the_lift_packing_bit_for_bit(table_gates):
    """z, W and the JSON text; the text writes every float by repr, so equal
    text means equal bits."""
    for u in table_gates:
        rows = nonunit_rows(eigenpairs_2x2(u))
        for n, j, i in placements(7):
            h = build(n, j, i, u)
            z, w = lift_columns(n, j, i, rows)
            for got, want in ((h.z, z), (h._columns(), w)):
                assert got.dtype == want.dtype and got.shape == want.shape, (n, j, i)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, j, i)
            if n <= 5:  # the text of every placement with n <= 7 is pinned below
                assert h.to_json() == json.dumps(reference_dict(1 << n, zip(z.tolist(), w.T)))


def test_circuit_hamiltonians_hold_no_per_amplitude_arrays():
    """The 16-qubit HEA has 63 gates, each with 2^15 or 2^14 terms per row;
    the packed arrays of all of them took 191 MiB."""
    template = hea_template(16, 1)
    circuit = bind(template, {p: 0.1 * k - 2.0 for k, p in enumerate(template.param_names())})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        groups = circuit_hamiltonians(circuit)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert sum(len(g.hamiltonians) for g in groups) == 63
    assert held < 64 * 1024


@pytest.mark.parametrize("name", [*GATE_SPECS, "generic"])
def test_bytes_order_and_exponential_match_reference(name, generic_gate):
    u = generic_gate if name == "generic" else GATE_SPECS[name]
    for n, j, i in placements(7):
        h = build(n, j, i, u)
        ref = reference_terms(n, j, i, eigenpairs_2x2(u))
        text = h.to_json()
        assert text == json.dumps(reference_dict(1 << n, ref)), (n, j, i)
        got = h.terms
        assert [t.z for t in got] == [z for z, _ in ref]
        assert all(np.array_equal(t.w, w) for t, (_, w) in zip(got, ref))
        assert np.max(np.abs(exp_minus_ih(h) - reference_exp(1 << n, ref)), initial=0) <= 1e-15


@pytest.mark.parametrize("entries", [1, 100, 1 << 9, None])
def test_pieces_are_bounded_and_join_to_the_reference(entries, generic_gate, monkeypatch):
    """Between the opening and the closing text, pieces of terms alternate
    with ", " separators, and each holds at most max(1, _JSON_PIECE_ENTRIES //
    dim) terms; small constants split every Hamiltonian with n <= 7 into
    many pieces."""
    if entries is not None:
        monkeypatch.setattr(sparseq.hamiltonian, "_JSON_PIECE_ENTRIES", entries)
    limit = sparseq.hamiltonian._JSON_PIECE_ENTRIES
    for n, j, i in placements(7):
        h = build(n, j, i, generic_gate)
        pieces = list(h.json_chunks())
        per_piece = max(1, limit // h.dim)
        body = pieces[1:-1]
        assert all(piece == ", " for piece in body[1::2]), (n, j, i)
        counts = [piece.count('{"z": ') for piece in body[::2]]
        assert all(0 < c <= per_piece for c in counts), (n, j, i)
        assert sum(counts) == len(h.z) and len(counts) == -(-len(h.z) // per_piece)
        ref = reference_terms(n, j, i, eigenpairs_2x2(generic_gate))
        assert "".join(pieces) == json.dumps(reference_dict(1 << n, ref)), (n, j, i)


def test_circuit_payload_matches_reference(tmp_path, rng):
    template = hea_template(6, 1)
    params = {name: float(rng.uniform(-math.pi, math.pi)) for name in template.param_names()}
    (tmp_path / "c.sq").write_text(sparseq.circuit_ir.serialize(template), encoding="utf-8")
    (tmp_path / "p.json").write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "h.json"
    argv = ["hamiltonian", "--circuit", str(tmp_path / "c.sq"), "--params", str(tmp_path / "p.json")]
    assert main([*argv, "-o", str(out)]) == 0
    groups = circuit_hamiltonians(bind(template, params))
    payload = {
        "schema": 1,
        "n": 6,
        "groups": [
            {
                "kind": g.kind,
                "hamiltonians": [
                    reference_dict(h.dim, [(t.z, t.w) for t in h.terms]) for h in g.hamiltonians
                ],
            }
            for g in groups
        ],
    }
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(payload) + "\n"
    for g, ref in zip(groups, json.loads(text)["groups"]):
        for h, entry in zip(g.hamiltonians, ref["hamiltonians"]):
            assert json.dumps(entry) == h.to_json()


def test_n11_output_is_unchanged_and_small(tmp_path, cli_maxrss):
    """The dense writer peaked at 420 MB here; the packed one needs a fraction."""
    out = tmp_path / "h.json"
    code, maxrss = cli_maxrss(["hamiltonian", "-n", "11", "-j", "2", "--gate", "x", "-o", str(out)])
    assert code == 0
    assert maxrss < 200 * 1024  # kilobytes on Linux
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "9594c4be6b4b9f76da141a461ee100561b2b2cd08916e672998d92b0371e0d5a"


def test_text_bound_prices_a_lower_bound_of_the_written_bytes(monkeypatch):
    """check_json_size prices 12 bytes per term-vector entry: never more than
    the text json_chunks writes, and within 3% of it from n=8 up. The bound
    itself is inclusive."""
    x, rx = GATES["x"].fixed, rotation_gate("X", 0.7)
    for h in (embedded_gate_hamiltonian(4, 1, rx), controlled_gate_hamiltonian(4, 3, 1, x),
              embedded_gate_hamiltonian(8, 3, rx), controlled_gate_hamiltonian(9, 1, 9, rx)):
        priced = 12 * len(h.weights) * h._per_row * h.dim
        written = len(h.to_json())
        assert priced <= written, (h.n, priced, written)
        assert h.n < 8 or written <= 1.03 * priced, (h.n, priced, written)
        monkeypatch.setattr(hamiltonian, "JSON_MAX_BYTES", priced)
        check_json_size([h])
        monkeypatch.setattr(hamiltonian, "JSON_MAX_BYTES", priced - 1)
        with pytest.raises(ValueError, match="^schema-1 text of about "):
            check_json_size([h])
        with pytest.raises(ValueError, match="^schema-1 text of about "):
            check_json_size(iter([embedded_gate_hamiltonian(2, 1, x), h]))
    check_json_size([embedded_gate_hamiltonian(20, 1, GATES["i"].fixed)])


SIGNED_ZERO_ROWS = [
    # (n, j, i, z, rows, signed zeros per term): rows that differ only in
    # the sign of a zero under equal weights, and signed zeros in every part
    # of a row.
    (3, 1, None, [0.5, 0.5], [[1.0, 0.0], [1.0, -0.0]], [0, 1]),
    (3, 2, 3, [0.5, -1.25],
     [[complex(0.0, -1.0), complex(-0.0, 0.0)], [1.0, complex(0.0, -0.0)]], [1, 1]),
    (3, 3, 1, [0.5], [[complex(-0.0, -0.0), 1.0]], [2]),
    (3, 2, None, [0.5], [[math.sqrt(0.5), -math.sqrt(0.5)]], [0]),
]


def test_memoized_writer_keeps_signed_zeros_from_arrays():
    for n, j, i, z, rows, signed in SIGNED_ZERO_ROWS:
        h = LocalHamiltonian(n, j, i, z, rows)
        text = h.to_json()
        assert text == json.dumps(reference_dict(1 << n, reference_rows(n, j, i, zip(z, rows))))
        assert text.count("-0.0") == sum(signed) * len(pair_indices(n, j, i)[0])


def test_exp_minus_ih_never_builds_w(monkeypatch):
    calls = []
    columns = LocalHamiltonian._columns

    def counted(self):
        calls.append(self)
        return columns(self)

    monkeypatch.setattr(LocalHamiltonian, "_columns", counted)
    h = controlled_gate_hamiltonian(4, 3, 1, rotation_gate("Y", 0.9))
    exp_minus_ih(h)
    s = math.sqrt(0.5)
    skewed = LocalHamiltonian(2, 1, None, [1.0, 1.0], [[1.0, 0.0], [s, s]])
    with pytest.raises(ValueError, match="not orthonormal"):
        exp_minus_ih(skewed)
    assert calls == []  # refused on its stored rows; neither builds W


def double_scatter_exp(h):
    """exp_minus_ih as first written: put_along_axis, and W scattered once
    for a dense orthonormality check and again for the update."""
    rows = list(zip(h.weights.tolist(), h.vectors))
    out = np.eye(h.dim, dtype=complex)
    if not rows:
        return out
    z, w = lift_columns(h.n, h.j, h.i, rows)
    assert np.max(np.abs(w.conj().T @ w - np.eye(len(z)))) <= 1e-10
    z, w = lift_columns(h.n, h.j, h.i, rows)
    out += (w * (np.exp(-1j * z) - 1.0)) @ w.conj().T
    return out


def indexed_mix_apply(h, a):
    """e^{-iH} applied to the rows of a through the index arrays of
    pair_indices: every pair's rows are gathered, mixed by the pair matrix M
    built as apply_exp_minus_ih builds it, and scattered back."""
    low, high = pair_indices(h.n, h.j, h.i)
    x, y = a[low], a[high]
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for c, (v0, v1) in zip((np.exp(-1j * h.weights) - 1.0).tolist(), h.vectors.tolist()):
        w0, w1 = c * v0, c * v1
        m00, m01 = m00 + w0 * v0.conjugate(), m01 + w0 * v1.conjugate()
        m10, m11 = m10 + w1 * v0.conjugate(), m11 + w1 * v1.conjugate()
    a[low], a[high] = m00 * x + m01 * y, m10 * x + m11 * y
    return a


def test_hea_check_line_matches_np_kron_route(tmp_path, rng, capsys, monkeypatch):
    """The printed error is that of the np.kron oracle against the indexed
    pair-mix route, bit for bit; that route is within 1e-14 of the dense
    double-scatter exponentials."""
    template = hea_template(6, 1)
    params = {name: float(rng.uniform(-math.pi, math.pi)) for name in template.param_names()}
    (tmp_path / "c.sq").write_text(sparseq.circuit_ir.serialize(template), encoding="utf-8")
    (tmp_path / "p.json").write_text(json.dumps(params), encoding="utf-8")
    argv = ["hamiltonian", "--circuit", str(tmp_path / "c.sq"), "--params",
            str(tmp_path / "p.json"), "--check", "-o", str(tmp_path / "h.json")]
    assert main(argv) == 0
    printed = capsys.readouterr().out

    circuit = bind(template, params)
    groups = circuit_hamiltonians(circuit)
    reconstructed = np.eye(64, dtype=complex)
    for h in (h for g in groups for h in g.hamiltonians):
        indexed_mix_apply(h, reconstructed)
    dense = np.eye(64, dtype=complex)
    for g in reversed(groups):
        dense = dense @ reduce(np.matmul, [double_scatter_exp(h) for h in reversed(g.hamiltonians)])
    assert np.max(np.abs(reconstructed - dense)) <= 1e-14
    monkeypatch.setattr(sparseq.gate_matrix, "kron_chain", lambda factors: reduce(np.kron, factors))
    error = frobenius_error(dense_circuit_unitary(circuit), reconstructed)
    assert printed == f"reconstruction_error={error!r}\n"
