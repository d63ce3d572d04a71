"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""
import math
import time

import numpy as np

from sparseq import (
    ControlledGateSpec,
    GateOp,
    StateVector,
    apply_op,
    bind,
    controlled_gate_hamiltonian,
    controlled_sparse,
    gate_hamiltonian_sweep,
    hea_template,
    rotation_gate,
    run_circuit,
    straddled_pair_block,
    string_hamiltonian_sweep,
    target_pair_block,
)
from sparseq.verify import (
    dense_circuit_unitary,
    engine_equivalence_deviations,
    random_gate,
)

GATE_TOL = 1e-12
ENGINE_TOL = 1e-11


def report(num: int, description: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {num}: {description} ({detail})")
    assert passed, f"criterion {num}: {description} ({detail})"


def ordered_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def test_criterion_1_controlled_gate_reconstruction():
    worst = 0.0
    for i, j in ordered_pairs(4):
        worst = max(worst, gate_hamiltonian_sweep(4, i, j).max_error)
    report(1, "controlled-gate Hamiltonian reconstruction, 12 pairs x 100 angles",
           worst <= GATE_TOL, f"max_error={worst:.3e} <= {GATE_TOL}")


def test_criterion_2_rotation_string_reconstruction():
    worst = 0.0
    for axis in ("X", "Y", "Z"):
        worst = max(worst, string_hamiltonian_sweep(4, axis).max_error)
    report(2, "rotation-string Hamiltonian reconstruction, 3 axes x 100 angles",
           worst <= GATE_TOL, f"max_error={worst:.3e} <= {GATE_TOL}")


def test_criterion_3_engine_matches_dense_chain():
    deviations = engine_equivalence_deviations(200, max_qubits=8, seed=42)
    worst = max(deviations)
    report(3, "engine vs dense mat-vec chain over 200 random circuits",
           worst <= ENGINE_TOL, f"max_deviation={worst:.3e} <= {ENGINE_TOL}")


def test_criterion_4_known_sparse_patterns_and_kernel_rows(gate_dense):
    u = rotation_gate("Z", 0.5) @ rotation_gate("Y", 0.8) @ rotation_gate("Z", 0.3)
    assert len({u.u11, u.u12, u.u21, u.u22}) == 4
    checks = []

    # n=5, control 2, target 3: one 8x8 pair block, offset 4
    b = target_pair_block(5, 2, 3, u)
    want = np.zeros((8, 8), dtype=complex)
    r = np.arange(4)
    want[r, r] = u.u11
    want[r, r + 4] = u.u12
    want[r + 4, r] = u.u21
    want[r + 4, r + 4] = u.u22
    checks.append(np.array_equal(b, want))
    dense = gate_dense(controlled_sparse(ControlledGateSpec(5, 2, 3, u)))
    layout = np.zeros((32, 32), dtype=complex)
    layout[0:8, 0:8] = np.eye(8)
    layout[8:16, 8:16] = b
    layout[16:24, 16:24] = np.eye(8)
    layout[24:32, 24:32] = b
    checks.append(np.array_equal(dense, layout))

    # n=5, control 2, target 4: 4x4 pair block repeated twice per active block
    b = target_pair_block(5, 2, 4, u)
    want = np.array(
        [[u.u11, 0, u.u12, 0],
         [0, u.u11, 0, u.u12],
         [u.u21, 0, u.u22, 0],
         [0, u.u21, 0, u.u22]]
    )
    checks.append(np.array_equal(b, want))
    dense = gate_dense(controlled_sparse(ControlledGateSpec(5, 2, 4, u)))
    layout = np.zeros((32, 32), dtype=complex)
    layout[0:8, 0:8] = np.eye(8)
    layout[16:24, 16:24] = np.eye(8)
    for base in (8, 12, 24, 28):
        layout[base : base + 4, base : base + 4] = b
    checks.append(np.array_equal(dense, layout))

    # n=5, control 3, target 2: straddled 12x12 block with scalar sub-blocks
    sb = straddled_pair_block(5, 3, 2, u)
    eye4, zero4 = np.eye(4), np.zeros((4, 4))
    want = np.block(
        [[u.u11 * eye4, zero4, u.u12 * eye4],
         [zero4, eye4, zero4],
         [u.u21 * eye4, zero4, u.u22 * eye4]]
    )
    checks.append(np.array_equal(sb, want))
    dense = gate_dense(controlled_sparse(ControlledGateSpec(5, 3, 2, u)))
    layout = np.zeros((32, 32), dtype=complex)
    layout[0:4, 0:4] = np.eye(4)
    layout[4:16, 4:16] = sb
    layout[16:20, 16:20] = np.eye(4)
    layout[20:32, 20:32] = sb
    checks.append(np.array_equal(dense, layout))

    # two-qubit register, both orderings
    dense = gate_dense(controlled_sparse(ControlledGateSpec(2, 1, 2, u)))
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = u.matrix
    checks.append(np.array_equal(dense, want))
    dense = gate_dense(controlled_sparse(ControlledGateSpec(2, 2, 1, u)))
    want = np.array(
        [[1, 0, 0, 0],
         [0, u.u11, 0, u.u12],
         [0, 0, 1, 0],
         [0, u.u21, 0, u.u22]]
    )
    checks.append(np.array_equal(dense, want))

    # kernel amplitude rows: control 2 target 3 pairs 8<->12 (offset 4),
    # control 2 target 4 pairs 8<->10 (offset 2); updates are exact
    rng = np.random.default_rng(1)
    amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    amps /= np.linalg.norm(amps)
    s = StateVector(5, amps.copy())
    apply_op(s, GateOp(3, u, i=2))
    checks.append(s.amps[8] == (u.u11 * amps[[8]] + u.u12 * amps[[12]])[0])
    checks.append(s.amps[12] == (u.u21 * amps[[8]] + u.u22 * amps[[12]])[0])
    s = StateVector(5, amps.copy())
    apply_op(s, GateOp(4, u, i=2))
    checks.append(s.amps[8] == (u.u11 * amps[[8]] + u.u12 * amps[[10]])[0])
    checks.append(s.amps[10] == (u.u21 * amps[[8]] + u.u22 * amps[[10]])[0])

    report(4, "reference sparse patterns and kernel row coefficients",
           all(checks), f"{sum(checks)}/{len(checks)} exact structural checks")


def test_criterion_5_wall_time_doubles_per_qubit():
    sizes = list(range(16, 23))
    op = GateOp(2, random_gate(np.random.default_rng(42)), i=1)
    states = {n: StateVector.zero(n) for n in sizes}
    for n in sizes:  # touch pages before timing
        apply_op(states[n], op)
        apply_op(states[n], op)
    times = {n: [] for n in sizes}
    for _ in range(20):  # round-robin spreads system jitter across sizes
        for n in sizes:
            t0 = time.perf_counter()
            apply_op(states[n], op)
            times[n].append(time.perf_counter() - t0)
    medians = {n: sorted(ts)[len(ts) // 2] for n, ts in times.items()}
    ratios = [medians[n + 1] / medians[n] for n in sizes[:-1]]
    ok = all(1.5 <= r <= 3.0 for r in ratios)
    report(5, "apply wall time grows ~2x per added qubit, n=16..22",
           ok, "ratios=" + " ".join(f"{r:.2f}" for r in ratios))


def test_criterion_6_structural_invariants_exhaustive(slot_counts, gate_dense, term_columns):
    u = random_gate(np.random.default_rng(6))
    worst_unitarity = 0.0
    worst_gram = 0.0
    counts_ok = True
    sparsity_ok = True
    for n in range(2, 7):
        for i, j in ordered_pairs(n):
            sparse = controlled_sparse(ControlledGateSpec(n, i, j, u))
            per_row, per_column = slot_counts(sparse)
            sparsity_ok &= bool(np.all(per_row <= 2) and np.all(per_column <= 2))
            dense = gate_dense(sparse)
            defect = np.max(np.abs(dense.conj().T @ dense - np.eye(sparse.dim)))
            worst_unitarity = max(worst_unitarity, float(defect))
            h = controlled_gate_hamiltonian(n, i, j, u)
            _, w = term_columns(h)
            gram = np.max(np.abs(w.conj().T @ w - np.eye(w.shape[1])))
            worst_gram = max(worst_gram, float(gram))
            counts_ok &= len(h.terms) == 2 * (1 << (n - 2))
    ok = (
        sparsity_ok
        and counts_ok
        and worst_unitarity <= 1e-12
        and worst_gram <= 1e-10
    )
    report(6, "sparsity, unitarity, orthonormality, term counts for n<=6",
           ok,
           f"unitarity={worst_unitarity:.3e} gram={worst_gram:.3e} "
           f"counts_ok={counts_ok} sparsity_ok={sparsity_ok}")


def test_criterion_7_hea_demo_matches_oracle():
    template = hea_template(4, 1)
    params = {name: math.pi / 4 for name in template.param_names()}
    circuit = bind(template, params)
    out = run_circuit(circuit)
    total = float(out.probabilities().sum())
    reference = dense_circuit_unitary(circuit) @ StateVector.zero(4).amps
    deviation = float(np.max(np.abs(out.amps - reference)))
    ok = abs(total - 1.0) <= GATE_TOL and deviation <= GATE_TOL
    report(7, "4-qubit ansatz demo: normalized distribution, oracle match",
           ok, f"|sum-1|={abs(total - 1.0):.3e} deviation={deviation:.3e}")
