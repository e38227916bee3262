"""Every library failure is a typed CavityGatesError, never a bare ValueError,
KeyError or TypeError."""

import numpy as np
import pytest

from cavitygates.errors import (
    CavityGatesError,
    DegenerateParams,
    IndexOutOfRange,
    InvalidAxis,
    InvalidBranch,
    InvalidForm,
    InvalidQubits,
    NonFiniteValue,
    NotUnitary,
)
from cavitygates.evolution import (
    CavityParams,
    HamiltonianForm,
    build_hamiltonian,
    compensation_layer,
    compensation_rotation,
    coupling_eta,
    thermal_evolve,
    validity_ratio,
)
from cavitygates.gates import controlled_not, named_gate, zyz_angles
from cavitygates.sequences import compose
from cavitygates.serialize import matrix_from_json, sequence_from_json
from cavitygates.spin import collective_op
from cavitygates.synthesis import cnot2_sequence, cnot3_sequence, spin_echo_u23
from cavitygates.verify import run_checks

ZERO_2 = [[0, 0], [0, 0]]
LADDER = HamiltonianForm.LADDER


def _steps(*steps):
    return {"n_atoms": 2, "steps": list(steps)}


CASES = {
    "negative g": (lambda: CavityParams(g=-1.0, delta=1.0, kappa=1.0), DegenerateParams),
    "negative kappa": (lambda: CavityParams(g=1.0, delta=1.0, kappa=-1.0), DegenerateParams),
    "negative nbar": (
        lambda: CavityParams(g=1.0, delta=1.0, kappa=1.0, nbar=-0.5),
        DegenerateParams,
    ),
    # eta = g^2 delta / (kappa^2 + delta^2) is undefined
    "kappa = delta = 0": (lambda: CavityParams(g=1, delta=0, kappa=0), DegenerateParams),
    # a rate whose square overflows a float
    "eta, delta^2 overflows": (
        lambda: coupling_eta(CavityParams(g=1, delta=1e200, kappa=0)),
        DegenerateParams,
    ),
    "eta, g^2 overflows": (
        lambda: coupling_eta(CavityParams(g=1e200, delta=1e200, kappa=0)),
        DegenerateParams,
    ),
    "validity ratio, delta^2 overflows": (
        lambda: validity_ratio(CavityParams(g=1, delta=1e200, kappa=0)),
        DegenerateParams,
    ),
    # a negative photon number, wherever nbar is taken
    "thermal_evolve nbar < 0": (lambda: thermal_evolve(2, 0.5, LADDER, -1.0), DegenerateParams),
    "compensation_layer nbar < 0": (
        lambda: compensation_layer(2, LADDER, -1.0, 0.5),
        DegenerateParams,
    ),
    "build_hamiltonian nbar < 0": (
        lambda: build_hamiltonian(2, LADDER, nbar=-1.0, include_linear=True),
        DegenerateParams,
    ),
    # nbar is checked even where the linear term it scales is dropped
    "build_hamiltonian H_0, nbar NaN": (
        lambda: build_hamiltonian(2, LADDER, nbar=float("nan")),
        NonFiniteValue,
    ),
    "build_hamiltonian H_0, nbar < 0": (
        lambda: build_hamiltonian(2, LADDER, nbar=-5),
        DegenerateParams,
    ),
    "compose nbar < 0": (lambda: compose(cnot2_sequence(), nbar=-1.0), DegenerateParams),
    # finite input whose thermal coefficient c = 2 nbar (+ 1), or c phi, overflows a float
    "compensation_rotation, c overflows": (
        lambda: compensation_rotation(LADDER, 1e308, 1.0),
        NonFiniteValue,
    ),
    "compensation_rotation, c phi overflows": (
        lambda: compensation_rotation(LADDER, 1e200, 1e200),
        NonFiniteValue,
    ),
    "build_hamiltonian, c overflows": (
        lambda: build_hamiltonian(2, LADDER, 1e308, include_linear=True),
        NonFiniteValue,
    ),
    # the same bad control/target pair raises the same type from both
    "controlled_not control = target": (lambda: controlled_not(3, 2, 2), InvalidQubits),
    "cnot3_sequence control = target": (lambda: cnot3_sequence(2, 2), InvalidQubits),
    # a bool is not an integer, wherever an atom count, qubit, control or target is taken
    "controlled_not control True": (lambda: controlled_not(2, True, 2), InvalidQubits),
    "controlled_not n 2.5": (lambda: controlled_not(2.5, 1, 2), InvalidQubits),
    "cnot3_sequence target True": (lambda: cnot3_sequence(2, True), InvalidQubits),
    "sequence n_atoms true": (
        lambda: sequence_from_json({"n_atoms": True, "steps": []}),
        IndexOutOfRange,
    ),
    "rotation qubit true": (
        lambda: sequence_from_json(_steps({"kind": "local", "rotations": [[True, "x", 0.5]]})),
        IndexOutOfRange,
    ),
    "collective_op atoms True": (lambda: collective_op("z", True), IndexOutOfRange),
    "spin axis": (lambda: collective_op("w", 2), InvalidAxis),
    "zyz det != 1": (lambda: zyz_angles(2 * np.eye(2)), NotUnitary),
    # det = 1 but not unitary: rejected up front, before any angle is taken
    "zyz det = 1, not unitary": (lambda: zyz_angles(np.diag([2.0, 0.5])), NotUnitary),
    "named gate": (lambda: named_gate("nosuchgate"), CavityGatesError),
    "named gate None": (lambda: named_gate(None), CavityGatesError),
    "named gate 5": (lambda: named_gate(5), CavityGatesError),
    # a float branch equal to +-1 is not an integer either
    "echo branch 1.0": (lambda: spin_echo_u23(1.0), InvalidBranch),
    "echo branch float64(-1)": (lambda: spin_echo_u23(np.float64(-1)), InvalidBranch),
    "echo branch True": (lambda: spin_echo_u23(True), InvalidBranch),
    "step kind": (lambda: sequence_from_json(_steps({"kind": "teleport"})), CavityGatesError),
    "form string": (
        lambda: sequence_from_json(_steps({"kind": "evolve", "phi": 0.25, "form": "bogus"})),
        InvalidForm,
    ),
    "verify target": (lambda: run_checks("nosuchtarget"), CavityGatesError),
    "verify target []": (lambda: run_checks([]), CavityGatesError),
    "matrix {}": (lambda: matrix_from_json({}), CavityGatesError),
    "matrix []": (lambda: matrix_from_json([]), CavityGatesError),
    "matrix without im": (lambda: matrix_from_json({"dim": 2, "re": ZERO_2}), CavityGatesError),
    "sequence []": (lambda: sequence_from_json([]), CavityGatesError),
    "sequence without steps": (lambda: sequence_from_json({"n_atoms": 2}), CavityGatesError),
    "step not an object": (lambda: sequence_from_json(_steps(["phase", 0.5])), CavityGatesError),
    "step without phi": (
        lambda: sequence_from_json(_steps({"kind": "evolve", "form": "ladder"})),
        CavityGatesError,
    ),
    # wrong value types inside a document
    "matrix dim null": (
        lambda: matrix_from_json({"dim": None, "re": [], "im": []}),
        CavityGatesError,
    ),
    "matrix dim not an integer": (
        lambda: matrix_from_json({"dim": 2.7, "re": ZERO_2, "im": ZERO_2}),
        CavityGatesError,
    ),
    "matrix dim a bool": (
        lambda: matrix_from_json({"dim": True, "re": [[0.0]], "im": [[0.0]]}),
        CavityGatesError,
    ),
    "steps not a list": (lambda: sequence_from_json({"n_atoms": 2, "steps": 5}), CavityGatesError),
    "rotations not a list": (
        lambda: sequence_from_json(_steps({"kind": "local", "rotations": 3})),
        CavityGatesError,
    ),
    "theta null": (
        lambda: sequence_from_json(_steps({"kind": "phase", "theta": None})),
        CavityGatesError,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises_a_typed_error(case):
    call, expected = CASES[case]
    assert issubclass(expected, CavityGatesError)
    with pytest.raises(expected):
        call()
