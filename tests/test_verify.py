import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from sparseq import (
    ErrorSweep,
    exp_minus_ih,
    frobenius_error,
    gate_hamiltonian_sweep,
    string_hamiltonian_sweep,
    verify,
)
from sparseq.circuit_ir import GATES, bind, circuit_hamiltonians, groups_unitary, hea_template
from sparseq.core import DEFAULT_TOL, rotation_gate
from sparseq.engine import Circuit, GateOp
from sparseq.gate_matrix import dense_gate, kron_chain
from sparseq.hamiltonian import (
    apply_exp_minus_ih,
    controlled_gate_hamiltonian,
    embedded_gate_hamiltonian,
)
from sparseq.verify import (
    dense_circuit_unitary,
    engine_equivalence_deviations,
    random_circuit,
    random_gate,
    theta_grid,
)


class TestFrobeniusError:
    def test_identical_matrices(self):
        assert frobenius_error(np.eye(3), np.eye(3)) == 0.0

    def test_zero_versus_identity(self):
        assert frobenius_error(np.zeros((2, 2)), np.eye(2)) == math.sqrt(2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            frobenius_error(np.eye(2), np.eye(3))


def reconstruction_error(n, i, j, axis, theta):
    """||C - e^{-iH}||_F of R_axis(theta) with control i and target j: the
    step that gate_hamiltonian_sweep takes for R_X, on any axis."""
    u = rotation_gate(axis, theta)
    return frobenius_error(dense_gate(n, j, u, i), exp_minus_ih(controlled_gate_hamiltonian(n, i, j, u)))


class TestGateHamiltonianSweep:
    def test_control_before_target(self):
        sweep = gate_hamiltonian_sweep(4, 1, 2)
        assert len(sweep.errors) == 100
        assert sweep.max_error <= 1e-12

    def test_control_after_target(self):
        assert gate_hamiltonian_sweep(4, 3, 2).max_error <= 1e-12

    def test_sweeps_rx_over_the_grid(self):
        sweep = gate_hamiltonian_sweep(3, 3, 1)
        assert sweep.label == "crx_n3_i3_j1"
        assert sweep.thetas == tuple(theta_grid().tolist())
        assert sweep.errors[7] == reconstruction_error(3, 3, 1, "X", sweep.thetas[7])

    def test_zero_angle_grid_reconstructs_identity(self):
        assert max(reconstruction_error(4, 2, 3, "X", t) for t in (0.0, -0.0)) <= 1e-14

    def test_other_axes(self):
        for axis, i, j in (("Y", 1, 3), ("Z", 3, 1)):
            assert max(reconstruction_error(3, i, j, axis, t) for t in theta_grid()) <= 1e-12

    def test_all_axes_all_pairs_stay_below_ceiling(self):
        for axis in ("X", "Y", "Z"):
            for i in range(1, 5):
                for j in range(1, 5):
                    if i == j:
                        continue
                    worst = max(reconstruction_error(4, i, j, axis, t) for t in theta_grid())
                    assert worst <= 1e-12

    def test_invalid_positions_rejected(self):
        with pytest.raises(ValueError):
            gate_hamiltonian_sweep(3, 2, 2)


class TestStringHamiltonianSweep:
    def test_x_strings(self):
        sweep = string_hamiltonian_sweep(4, "X")
        assert len(sweep.errors) == 100
        assert sweep.max_error <= 1e-12

    def test_single_qubit_diagonal(self):
        assert string_hamiltonian_sweep(1, "Z").max_error <= 1e-14

    def test_y_strings(self):
        assert string_hamiltonian_sweep(4, "Y").max_error <= 1e-12


def string_product_error(n, axis, theta):
    """||R^{⊗n} - product||_F with the per-qubit exponentials applied by hand
    to one identity: the step string_hamiltonian_sweep took before it went
    through groups_unitary."""
    u = rotation_gate(axis, theta)
    product = np.eye(1 << n, dtype=complex)
    for j in range(1, n + 1):
        apply_exp_minus_ih(embedded_gate_hamiltonian(n, j, u), product)
    return frobenius_error(kron_chain([np.asarray(u.matrix)] * n), product)


class TestSweepsKeepTheirDigits:
    """Both sweeps build e^{-iH} through circuit_hamiltonians and
    groups_unitary, and every error equals the one of the route each had
    before."""

    def test_crx_sweep_equals_the_kron_route(self):
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    sweep = gate_hamiltonian_sweep(3, i, j)
                    want = tuple(reconstruction_error(3, i, j, "X", t) for t in sweep.thetas)
                    assert sweep.errors == want, (i, j)

    def test_strings_sweep_equals_the_hand_product(self):
        for axis in ("X", "Y", "Z"):
            sweep = string_hamiltonian_sweep(3, axis)
            assert sweep.errors == tuple(string_product_error(3, axis, t) for t in sweep.thetas)

    def test_one_gate_groups_unitary_is_exp_minus_ih(self, generic_gate):
        for kind in GATES.values():
            u = kind.fixed or (rotation_gate(kind.axis, -2.1) if kind.axis else generic_gate)
            for n in range(1, 5):
                for j in range(1, n + 1):
                    controls = [i for i in range(1, n + 1) if i != j] if kind.controlled else [None]
                    for i in controls:
                        groups = circuit_hamiltonians(Circuit(n, (GateOp(j, u, i),)))
                        (h,) = groups[0].hamiltonians
                        got = groups_unitary(groups, n).view(np.uint64)
                        assert np.array_equal(got, exp_minus_ih(h).view(np.uint64)), (n, j, i)


#: Allowed max |H - H†| entry of exp_oracle's input.
HERM_TOL = 1e-10


def exp_oracle(h_dense: np.ndarray) -> np.ndarray:
    """e^{-iH} through a full Hermitian eigendecomposition: the spectral
    route that exp_minus_ih's rank-1 updates are checked against."""
    h_dense = np.asarray(h_dense, dtype=complex)
    if float(np.max(np.abs(h_dense - h_dense.conj().T))) > HERM_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    eigvals, eigvecs = np.linalg.eigh(h_dense)
    return (eigvecs * np.exp(-1j * eigvals)) @ eigvecs.conj().T


class TestExpOracle:
    def test_zero_hamiltonian(self):
        assert np.array_equal(exp_oracle(np.zeros((4, 4))), np.eye(4))

    def test_projector_flips_sign(self):
        h = math.pi * np.diag([1.0, 0, 0, 0])
        np.testing.assert_allclose(exp_oracle(h), np.diag([-1, 1, 1, 1]), atol=1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            exp_oracle(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_output_is_unitary(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = a + a.conj().T
        u = exp_oracle(h)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-11

    def test_agrees_with_rank_one_exponential(self, rng, term_columns):
        # two independent exponentiation routes on 100 random gate Hamiltonians
        for _ in range(100):
            n = int(rng.integers(2, 7))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            h = controlled_gate_hamiltonian(n, int(i), int(j), random_gate(rng))
            direct = exp_minus_ih(h)
            z, w = term_columns(h)
            spectral = exp_oracle((w * z) @ w.conj().T)
            assert frobenius_error(direct, spectral) <= 1e-11


class TestErrorSweep:
    def test_csv_layout(self):
        sweep = ErrorSweep("demo", (0.0, 0.5), (1e-16, 2e-16))
        assert sweep.to_csv() == "theta,error\n0.0,1e-16\n0.5,2e-16\n"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ErrorSweep("demo", (0.0,), (1e-16, 2e-16))

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            ErrorSweep("demo", (0.0,), (-1.0,))

    def test_default_grid(self):
        grid = theta_grid()
        assert len(grid) == 100
        assert grid[0] == -math.pi and grid[-1] == math.pi


class TestEngineEquivalence:
    def test_deterministic_under_seed(self):
        a = engine_equivalence_deviations(10, max_qubits=5, seed=11)
        b = engine_equivalence_deviations(10, max_qubits=5, seed=11)
        assert a == b

    def test_deviations_are_tiny(self):
        assert max(engine_equivalence_deviations(25, max_qubits=6, seed=3)) <= 1e-11


def kron_product_chain(circuit):
    """The circuit's unitary as the product of explicit np.kron gate matrices,
    rightmost op first: the reference for the index rule of the factor route."""
    eye, p0, p1 = np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

    def placed(factors):
        return reduce(np.kron, [factors.get(q, eye) for q in range(1, circuit.n + 1)])

    out = np.eye(1 << circuit.n, dtype=complex)
    for op in circuit.ops:
        if op.i is None:
            gate = placed({op.j: op.u.matrix})
        else:
            gate = placed({op.i: p0}) + placed({op.i: p1, op.j: op.u.matrix})
        out = gate @ out
    return out


class TestDenseCircuitUnitary:
    def test_one_gate_equals_dense_gate_for_every_kind_and_placement(self, generic_gate):
        for name, kind in GATES.items():
            u = kind.fixed or (rotation_gate(kind.axis, 0.7) if kind.axis else generic_gate)
            for n in range(1, 6):
                for j in range(1, n + 1):
                    controls = [i for i in range(1, n + 1) if i != j] if kind.controlled else [None]
                    for i in controls:
                        got = dense_circuit_unitary(Circuit(n, (GateOp(j, u, i=i),)))
                        assert np.array_equal(got, dense_gate(n, j, u, i)), (name, n, j, i)

    def test_random_circuits_match_the_kron_product_chain(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            circuit = random_circuit(rng, n, int(rng.integers(1, 21)))
            deviation = np.max(np.abs(dense_circuit_unitary(circuit) - kron_product_chain(circuit)))
            assert deviation <= 1e-15, (n, len(circuit.ops))

    def test_hea_oracle_holds_few_matrices(self):
        n = 9
        template = hea_template(n, 1)
        circuit = bind(template, {p: 0.3 * k for k, p in enumerate(template.param_names())})
        tracemalloc.start()
        try:
            dense_circuit_unitary(circuit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * 4 ** n


#: Rotation angles near the identity and near -I, where a discriminant with
#: the trace and determinant in it cancels: +-10^-k for k = 1..16, +-pi, and
#: 2pi - 10^-k for k = 6, 9, 12.
NEAR_IDENTITY_ANGLES = [
    *(s * 10.0 ** -k for k in range(1, 17) for s in (1, -1)),
    math.pi, -math.pi,
    *(2 * math.pi - 10.0 ** -k for k in (6, 9, 12)),
]


class TestNearIdentityReconstruction:
    @pytest.mark.parametrize("name", ["rx", "ry", "rz", "crx", "cry", "crz"])
    def test_every_placement_reconstructs_within_the_default_tolerance(self, name):
        """The check of `hamiltonian --check` on one rotation at every angle
        of NEAR_IDENTITY_ANGLES and every placement with n <= 4."""
        kind = GATES[name]
        failures = []
        for theta in NEAR_IDENTITY_ANGLES:
            u = rotation_gate(kind.axis, theta)
            for n in range(1, 5):
                for j in range(1, n + 1):
                    controls = [i for i in range(1, n + 1) if i != j] if kind.controlled else [None]
                    for i in controls:
                        error = verify.reconstruction_error(Circuit(n, (GateOp(j, u, i=i),)))
                        if not error <= DEFAULT_TOL:
                            failures.append((theta, n, j, i, error))
        assert failures == []
