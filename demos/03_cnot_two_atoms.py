"""CNOT from two collective pulses on a two-atom register.

The fixed interaction alone never reaches the CNOT class, but two pi/4
pulses with a pi pulse on atom 1 in between do: the flip reverses atom
1's coupling so half the interaction rewinds, spin-echo style.  The
remaining one-qubit corrections are closed-form rotations by multiples
of pi/4, and the whole sequence composes to the canonical CNOT exactly.
"""

import numpy as np

from cavitygates import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    cnot2_sequence,
    cnot_gate,
    collective_time,
    compose,
    local_invariants,
    phase_distance,
)
from cavitygates.serialize import format_matrix


def describe(step):
    if isinstance(step, CollectiveEvolution):
        return f"collective pulse  phi = {step.phi / np.pi:+.6g} pi  ({step.form.value})"
    if isinstance(step, LocalLayer):
        rots = "  ".join(
            f"R{axis}({angle / np.pi:+.6g} pi)@{qubit}" for qubit, axis, angle in step.rotations
        )
        return f"local layer       {rots or '(identity)'}"
    if isinstance(step, GlobalPhase):
        return f"global phase      e^(i {step.theta / np.pi:+.6g} pi)"
    return str(step)


seq = cnot2_sequence()
print(f"sequence '{seq.label}' on {seq.n_atoms} atoms:")
for i, step in enumerate(seq.steps):
    print(f"  {i}: {describe(step)}")

print(f"\ncollective interaction time: {collective_time(seq) / np.pi} pi / eta")

core = compose(GateSequence(2, seq.steps[1:4]))
g1, g2 = local_invariants(core)
print(f"core (pulse, echo, pulse) invariants: ({g1.real:+.3f}, {g2.real:+.3f})"
      "  <- the CNOT class (0, 1)")

u = compose(seq)
print("\ncomposed matrix:")
print(format_matrix(u))
print("\nphase distance to canonical CNOT:", phase_distance(u, cnot_gate()))
print("entrywise error (global phase included):", np.abs(u - cnot_gate()).max())

# thermal robustness: same gate in a hot cavity
hot = compose(seq, nbar=3.7)
print("hot cavity (nbar = 3.7) deviation:", np.abs(hot - u).max())
