"""The package namespace: `import cavitygates` loads the layers `compose`
needs, and every other public name loads its submodule on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavitygates

#: Every name `import cavitygates` bound before its names were loaded on first use.
EXPORTED = {
    "errors": """CavityGatesError DegenerateParams DimensionMismatch IndexOutOfRange InvalidAxis
        InvalidBranch InvalidForm InvalidQubits NonFiniteValue NotEquivalent NotFactorable
        NotHermitian NotUnitary""",
    "linalg": "DEFAULT_TOL dagger expm_hermitian is_hermitian is_unitary kron phase_distance",
    "gates": """SIGMA_MINUS SIGMA_PLUS SIGMA_X SIGMA_Y SIGMA_Z cnot_gate controlled_not named_gate
        rotation swap_gate toffoli_gate u23_gate zyz_angles""",
    "spin": "collective_op coupled_basis_transform_3 dicke_projector_g pauli s_squared",
    "evolution": """CavityParams HamiltonianForm VALIDITY_WARN_THRESHOLD build_hamiltonian
        compensation_layer compensation_rotation coupling_eta evolve thermal_evolve validity_ratio""",
    "invariants": """LocalCorrectionPair LocalInvariants MAGIC_BASIS are_equivalent factor_local
        is_local local_invariants solve_local_corrections""",
    "sequences": """CollectiveEvolution GateSequence GlobalPhase LocalLayer collective_time compose
        local_layer_unitary""",
    "synthesis": """CNOT2_GLOBAL_PHASE CNOT3_GLOBAL_PHASE CNOT3_MIDDLE_ANGLE cnot2_sequence
        cnot3_sequence extract_factor spin_echo_u23 toffoli_sequence""",
    "verify": "ALL_CHECKS Metric Report run_checks",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]
LAZY = ("invariants", "synthesis", "serialize", "verify")


def _run(code):
    """Run code in a fresh interpreter that imports the cavitygates under test."""
    src = str(Path(cavitygates.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_importing_and_composing_load_none_of_the_later_layers():
    lazy = [f"cavitygates.{module}" for module in LAZY]
    _run(f"""
import sys
import cavitygates as cg
lazy = {lazy!r}
assert not [m for m in lazy if m in sys.modules], sys.modules.keys()
assert "cavitygates.sequences" in sys.modules  # compose's layers load with the package
seq = cg.GateSequence(3, (
    cg.LocalLayer(((1, "y", 0.3), (3, "x", -1.2))),
    cg.CollectiveEvolution(0.7, cg.HamiltonianForm.CASIMIR),
    cg.GlobalPhase(0.2),
))
assert cg.is_unitary(cg.compose(seq, nbar=1.5)) and cg.collective_time(seq) == 0.7
assert not [m for m in lazy if m in sys.modules], sys.modules.keys()
cg.run_checks
assert "cavitygates.verify" in sys.modules
""")


def test_building_and_composing_the_named_gates_never_loads_invariants():
    # the CNOT corrections are closed-form constants: no build reaches the solver
    _run("""
import sys
import numpy as np
import cavitygates as cg
gates = [(cg.cnot2_sequence(), cg.cnot_gate())]
gates += [(cg.cnot3_sequence(c, t), cg.controlled_not(3, c, t))
          for c in (1, 2, 3) for t in (1, 2, 3) if c != t]
gates += [(cg.toffoli_sequence(False), cg.toffoli_gate())]
for seq, target in gates:
    assert np.abs(cg.compose(seq) - target).max() < 1e-13, seq.label
assert cg.is_unitary(cg.compose(cg.toffoli_sequence(True)))
assert "cavitygates.synthesis" in sys.modules
assert "cavitygates.invariants" not in sys.modules, sorted(sys.modules)
""")


def test_every_exported_name_is_listed_and_is_its_submodules_object():
    listed, names = set(cavitygates.__all__), set(dir(cavitygates))
    for module, name in NAMES:
        assert name in listed and name in names, name
        assert getattr(cavitygates, name) is getattr(importlib.import_module(f"cavitygates.{module}"), name)


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from cavitygates import *", namespace)
    assert all(namespace[name] is getattr(cavitygates, name) for name in cavitygates.__all__)


def test_a_bare_submodule_name_resolves_after_a_bare_import():
    _run("import cavitygates; assert cavitygates.verify.run_checks is cavitygates.run_checks")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cavitygates.no_such_name
    assert not hasattr(cavitygates, "no_such_name")
