"""Quantum logic from the collective spin interaction of atoms in a
dispersive cavity: evolution, two-qubit local invariants, and explicit
CNOT/Toffoli sequences with numerical verification.

`import cavitygates` loads the layers `compose` needs: `errors`, `linalg`,
`gates`, `spin`, `evolution` and `sequences`.  `invariants`, `synthesis`,
`serialize`, `verify` and `cli` load on first use of one of their names
below, or of the submodule itself (`cavitygates.verify`), through the
module `__getattr__` of PEP 562.  After its first use a name is a plain
module global.
"""

from importlib import import_module

from . import sequences  # and with it errors, linalg, gates, spin and evolution

#: Each public name, by the submodule that defines it.
_EXPORTS = {
    "errors": (
        "CavityGatesError", "DegenerateParams", "DimensionMismatch", "IndexOutOfRange",
        "InvalidAxis", "InvalidBranch", "InvalidForm", "InvalidQubits", "NonFiniteValue",
        "NotEquivalent", "NotFactorable", "NotHermitian", "NotUnitary",
    ),
    "linalg": ("DEFAULT_TOL", "dagger", "expm_hermitian", "is_unitary", "kron", "phase_distance"),
    "gates": (
        "SIGMA_MINUS", "SIGMA_PLUS", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "cnot_gate",
        "controlled_not", "named_gate", "rotation", "swap_gate", "toffoli_gate", "u23_gate",
        "zyz_angles",
    ),
    "spin": ("collective_op", "coupled_basis_transform_3", "dicke_projector_g", "pauli", "s_squared"),
    "evolution": (
        "CavityParams", "HamiltonianForm", "VALIDITY_WARN_THRESHOLD", "build_hamiltonian",
        "compensation_layer", "compensation_rotation", "coupling_eta", "evolve",
        "thermal_evolve", "validity_ratio",
    ),
    "invariants": (
        "LocalCorrectionPair", "LocalInvariants", "MAGIC_BASIS", "are_equivalent",
        "factor_local", "is_local", "local_invariants", "solve_local_corrections",
    ),
    "sequences": (
        "CollectiveEvolution", "GateSequence", "GlobalPhase", "LocalLayer", "collective_time",
        "compose", "local_layer_unitary",
    ),
    "synthesis": (
        "CNOT2_GLOBAL_PHASE", "CNOT3_GLOBAL_PHASE", "CNOT3_MIDDLE_ANGLE", "cnot2_sequence",
        "cnot3_sequence", "spin_echo_u23", "toffoli_sequence",
    ),
    "verify": ("ALL_CHECKS", "Metric", "Report", "run_checks"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "serialize", "cli"})

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
