"""Quantum logic from the collective spin interaction of atoms in a
dispersive cavity: evolution, two-qubit local invariants, and explicit
CNOT/Toffoli sequences with numerical verification.
"""

from .errors import (
    CavityGatesError,
    DegenerateParams,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidAxis,
    InvalidBranch,
    InvalidForm,
    InvalidQuantumNumbers,
    InvalidQubits,
    NonFiniteValue,
    NotEquivalent,
    NotFactorable,
    NotHermitian,
    NotUnitary,
)
from .linalg import (
    DEFAULT_TOL,
    dagger,
    expm_hermitian,
    is_hermitian,
    is_unitary,
    kron,
    phase_distance,
)
from .gates import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    cnot_gate,
    controlled_not,
    named_gate,
    rotation,
    swap_gate,
    toffoli_gate,
    u23_gate,
    zyz_angles,
)
from .spin import (
    cg_coefficient,
    collective_op,
    coupled_basis_transform_3,
    dicke_projector_g,
    pauli,
    s_squared,
)
from .evolution import (
    CavityParams,
    HamiltonianForm,
    VALIDITY_WARN_THRESHOLD,
    build_hamiltonian,
    compensation_layer,
    compensation_rotation,
    coupling_eta,
    evolve,
    thermal_evolve,
    validity_ratio,
)
from .invariants import (
    LocalCorrectionPair,
    LocalInvariants,
    MAGIC_BASIS,
    are_equivalent,
    factor_local,
    is_local,
    local_invariants,
    solve_local_corrections,
)
from .sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    collective_time,
    compose,
    local_layer_unitary,
)
from .synthesis import (
    CNOT2_GLOBAL_PHASE,
    CNOT3_GLOBAL_PHASE,
    CNOT3_MIDDLE_ANGLE,
    cnot2_sequence,
    cnot3_sequence,
    extract_factor,
    spin_echo_u23,
    toffoli_sequence,
)
from .verify import ALL_CHECKS, Metric, Report, run_checks

__version__ = "0.1.0"
