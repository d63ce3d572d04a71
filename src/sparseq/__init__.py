"""sparseq: state-vector simulation of parametrized quantum circuits through
explicit 2-sparse gate unitaries and their local Hamiltonians."""

from .core import (
    EigenPair2,
    OneQubitGate,
    eigenpairs_2x2,
    phase_of,
    rotation_gate,
)
from .gate_matrix import (
    ControlledGateSpec,
    SparseUnitary,
    controlled_sparse,
    dense_gate,
    embedded_sparse,
    straddled_pair_block,
    target_pair_block,
)
from .hamiltonian import (
    LocalHamiltonian,
    ProjectorTerm,
    apply_exp_minus_ih,
    controlled_gate_hamiltonian,
    embedded_gate_hamiltonian,
    exp_minus_ih,
    straddled_pair_eigenpairs,
    target_pair_eigenpairs,
)
from .engine import (
    Circuit,
    GateOp,
    StateVector,
    apply_op,
    run_circuit,
)
from .circuit_ir import (
    CircuitBindError,
    CircuitParseError,
    CircuitTemplate,
    HamiltonianGroup,
    bind,
    circuit_hamiltonians,
    hea_template,
    parse_circuit,
    serialize,
)
from .verify import (
    ErrorSweep,
    frobenius_error,
    gate_hamiltonian_sweep,
    string_hamiltonian_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitBindError",
    "CircuitParseError",
    "CircuitTemplate",
    "ControlledGateSpec",
    "EigenPair2",
    "ErrorSweep",
    "GateOp",
    "HamiltonianGroup",
    "LocalHamiltonian",
    "OneQubitGate",
    "ProjectorTerm",
    "SparseUnitary",
    "StateVector",
    "apply_exp_minus_ih",
    "apply_op",
    "bind",
    "circuit_hamiltonians",
    "controlled_gate_hamiltonian",
    "controlled_sparse",
    "dense_gate",
    "eigenpairs_2x2",
    "embedded_gate_hamiltonian",
    "embedded_sparse",
    "exp_minus_ih",
    "frobenius_error",
    "gate_hamiltonian_sweep",
    "hea_template",
    "parse_circuit",
    "phase_of",
    "rotation_gate",
    "run_circuit",
    "serialize",
    "straddled_pair_block",
    "straddled_pair_eigenpairs",
    "string_hamiltonian_sweep",
    "target_pair_block",
    "target_pair_eigenpairs",
]
