"""apply_exp_minus_ih, the one route to e^{-iH}, which mixes the target
pairs in the gate kernel engine.mix_pairs, against independent routes: the
Kronecker oracle dense_gate of the gate itself on random states and matrices
for every GATES entry and every placement with n <= 7, at angles near the
identity included, the paper's reference eigenpairs of the target-pair and
straddled blocks, the Kronecker oracle of whole parsed circuits, and, above
the dense cap, a plain numpy mix on fresh arrays, bit for bit, and the
engine's run of the circuit the exponentials come from. The engine shares
the kernel, so above the cap it checks the lift of gates to Hamiltonians and
the 2x2 matrix M, and the fresh arrays check the kernel."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseq import (
    LocalHamiltonian,
    OneQubitGate,
    StateVector,
    apply_exp_minus_ih,
    bind,
    circuit_hamiltonians,
    controlled_gate_hamiltonian,
    dense_gate,
    eigenpairs_2x2,
    embedded_gate_hamiltonian,
    parse_circuit,
    rotation_gate,
    run_circuit,
    straddled_pair_eigenpairs,
    target_pair_eigenpairs,
)
from sparseq.circuit_ir import GATES
from sparseq.gate_matrix import DENSE_MAX_QUBITS
from sparseq.qindex import pair_views
from sparseq.verify import random_circuit, random_gate, reconstruction_error

# Deterministic and small, so tier-1 runs the same examples every time.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=8, database=None)

TOL = 1e-13
MAX_N = 7

#: Any angle, or one near the identity or near -I: +-10^-k and 2pi - 10^-k.
turns = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([s * 10.0 ** -k for k in range(1, 17) for s in (1, -1)]
                    + [2 * math.pi - 10.0 ** -k for k in (6, 9, 12)]),
)


def placements(controlled):
    for n in range(1, MAX_N + 1):
        for j in range(1, n + 1):
            for i in range(1, n + 1) if controlled else [None]:
                if i != j:
                    yield n, j, i


def hamiltonian(n, j, i, u):
    if i is None:
        return embedded_gate_hamiltonian(n, j, u)
    return controlled_gate_hamiltonian(n, i, j, u)


@st.composite
def gates(draw, name):
    """The gate of GATES[name]: its fixed gate, its rotation at a drawn
    angle, or e^{i phi} Rz(a) Ry(b) Rz(c) for an explicit unitary."""
    kind = GATES[name]
    if kind.fixed is not None:
        return kind.fixed
    if kind.axis is not None:
        return rotation_gate(kind.axis, draw(turns))
    phi, a, b, c = (draw(turns) for _ in range(4))
    m = rotation_gate("Z", a).matrix @ rotation_gate("Y", b).matrix @ rotation_gate("Z", c).matrix
    return OneQubitGate(np.exp(1j * phi) * m)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def check_against(oracle_gate, h, rng, columns):
    n, j, i = h.n, h.j, h.i
    oracle = dense_gate(n, j, oracle_gate, i)
    for shape in ((1 << n,), (1 << n, columns)):
        a = complex_normal(rng, shape)
        want = oracle @ a
        got = apply_exp_minus_ih(h, a)
        assert got is a
        assert np.max(np.abs(got - want)) <= TOL, (n, j, i, shape)


@pytest.mark.parametrize("name", sorted(GATES))
@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), columns=st.integers(1, 5))
def test_every_gate_matches_the_kronecker_oracle_of_its_rows(name, data, seed, columns):
    """Against dense_gate of the gate itself, so that the eigenpairs the rows
    come from are judged too, near the identity included."""
    u = data.draw(gates(name))
    rng = np.random.default_rng(seed)
    for n, j, i in placements(GATES[name].controlled):
        check_against(u, hamiltonian(n, j, i, u), rng, columns)


def test_table_gates_match_their_kronecker_oracle(table_gates, rng):
    for u in table_gates:
        for n, j, i in (*placements(False), *placements(True)):
            check_against(u, hamiltonian(n, j, i, u), rng, 3)


def test_reference_eigenpairs_get_their_eigenvalues(generic_gate):
    """Every eigenvector of the paper's target-pair block (control first) or
    straddled block (control second), laid at the block's offset 2^(n-i),
    is scaled by its eigenvalue."""
    pairs = eigenpairs_2x2(generic_gate)
    for n, j, i in placements(controlled=True):
        reference = target_pair_eigenpairs if i < j else straddled_pair_eigenpairs
        h = controlled_gate_hamiltonian(n, i, j, generic_gate)
        offset = 1 << (n - i)
        for value, v in reference(n, i, j, pairs):
            x = np.zeros(1 << n, dtype=complex)
            x[offset:offset + len(v)] = v
            want = value * x
            assert np.max(np.abs(apply_exp_minus_ih(h, x) - want)) <= TOL, (n, j, i)


def test_refusals_leave_the_input_untouched(rng):
    s = math.sqrt(0.5)
    skewed = LocalHamiltonian(2, 1, None, [1.0, 1.0], [[1.0, 0.0], [s, s]])
    a = complex_normal(rng, (4, 3))
    before = a.copy()
    message = "^term vectors are not orthonormal; rank-1 exponential invalid$"
    with pytest.raises(ValueError, match=message):
        apply_exp_minus_ih(skewed, a)
    assert a.tobytes() == before.tobytes()
    h = embedded_gate_hamiltonian(2, 1, rotation_gate("X", 0.7))
    for bad in (a[:, ::2], a.real.copy(), a[:2], a.T.copy()):
        kept = bad.copy()
        with pytest.raises(ValueError, match="^need a C-contiguous complex array of 4 rows"):
            apply_exp_minus_ih(h, bad)
        assert bad.tobytes() == kept.tobytes()


def fresh_array_mix(h, a):
    """e^{-iH} in its plainest numpy form: the pair matrix M built from the
    rows, then a fresh half-size array for every product and sum, and the
    Gram check by matrix product. apply_exp_minus_ih must give the same
    bits."""
    v = h.vectors
    assert np.max(np.abs(v.conj() @ v.T - np.eye(len(v))), initial=0.0) <= 1e-10
    low, high = pair_views(a.reshape(-1), h.n, h.j, h.i)
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for c, (v0, v1) in zip((np.exp(-1j * h.weights) - 1.0).tolist(), v.tolist()):
        w0, w1 = c * v0, c * v1
        m00, m01 = m00 + w0 * v0.conjugate(), m01 + w0 * v1.conjugate()
        m10, m11 = m10 + w1 * v0.conjugate(), m11 + w1 * v1.conjugate()
    low[...], high[...] = m00 * low + m01 * high, m10 * low + m11 * high
    return a


def seeded_rows(rng, count):
    """count weights in (-pi, pi] and the first count columns of a random
    2x2 unitary as orthonormal rows."""
    z = rng.uniform(-math.pi, math.pi, size=count)
    return z, random_gate(rng).matrix.T[:count]


def same_bits(x, y):
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_in_place_mix_gives_the_bits_of_fresh_arrays(rng):
    """Every placement with n <= 7, 1 and 2 rows, on a state and on a
    matrix, plus full 2^n x 2^n matrices at n = 9, where numpy elides the
    temporary of a sum of two large arrays, and at n = 15 and 16 every
    placement whose lower qubit is n-3..n-1: a state takes those through the
    kernel's coefficient vectors, a matrix through its pair views."""
    cases = [(n, j, i, 3) for n, j, i in (*placements(False), *placements(True))]
    cases += [(9, 1, None, 512), (9, 5, 2, 512), (9, 4, 9, 512)]
    cases += [(n, j, i, 3) for n in (15, 16) for j in range(1, n + 1)
              for i in (None, *range(1, n + 1)) if i != j and n - 3 <= max(j, i or 0) < n]
    for n, j, i, columns in cases:
        for count in (1, 2):
            h = LocalHamiltonian(n, j, i, *seeded_rows(rng, count))
            for shape in ((1 << n,), (1 << n, columns)):
                a = complex_normal(rng, shape)
                want = fresh_array_mix(h, a.copy())
                assert same_bits(apply_exp_minus_ih(h, a), want), (n, j, i, count, shape)


@st.composite
def circuit_sources(draw):
    """Source text of up to 12 statements over every GATES kind on n <= 6
    qubits, with its params: rotation angles are `$t<k>` drawn from turns,
    explicit unitaries are written entry by entry as re,im."""
    n = draw(st.integers(1, 6))
    names = sorted(name for name, kind in GATES.items() if n >= 2 or not kind.controlled)
    lines, params = [f"qubits {n}"], {}
    for k in range(draw(st.integers(1, 12))):
        name = draw(st.sampled_from(names))
        kind = GATES[name]
        qubits = draw(st.permutations(range(1, n + 1)))[:1 + kind.controlled]
        head = "u" if kind.named else name
        words = [head, *(f"q{q}" for q in qubits)]
        if kind.named:
            words.append(name)
        elif kind.axis is not None:
            params[f"t{k}"] = draw(turns)
            words.append(f"$t{k}")
        elif kind.fixed is None:
            u = draw(gates(name)).matrix
            words += [f"{z.real!r},{z.imag!r}" for z in u.reshape(-1).tolist()]
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n", params


@PROPERTY
@given(source=circuit_sources())
def test_parsed_circuits_meet_the_check_bound(source):
    """The Hamiltonian route of a whole parsed and bound circuit is within
    the bound of `hamiltonian --circuit --check`, 10 max(1, K) 1e-12, of its
    Kronecker oracle."""
    text, params = source
    circuit = bind(parse_circuit(text), params)
    assert reconstruction_error(circuit) <= 10 * max(1, len(circuit.ops)) * 1e-12, text


def test_exponentials_match_the_engine_above_the_dense_cap():
    """On n = 13..16 qubits, where no dense oracle exists, every group's
    exponentials applied to a seeded state give the engine's state."""
    rng = np.random.default_rng(20261020)
    for n in range(DENSE_MAX_QUBITS + 1, DENSE_MAX_QUBITS + 5):
        for _ in range(3):
            circuit = random_circuit(rng, n, 20)
            amps = complex_normal(rng, 1 << n)
            amps /= np.linalg.norm(amps)
            want = run_circuit(circuit, StateVector(n, amps.copy())).amps
            for h in (h for g in circuit_hamiltonians(circuit) for h in g.hamiltonians):
                apply_exp_minus_ih(h, amps)
            assert np.max(np.abs(amps - want)) <= 1e-14, n
