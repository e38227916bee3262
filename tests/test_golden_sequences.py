"""The named sequences against their recorded JSON.

tests/data/named_sequences.json holds `sequence_to_json` of the eleven
named sequences.  Refactors must keep them: the structure (kinds,
qubits, axes, forms, labels) exactly, and every angle, phi and theta
(stored in radians) to 1e-12.  A change that moves angles on purpose
regenerates the file and says so.
"""

import json
from pathlib import Path

import pytest

from cavitygates.serialize import sequence_to_json
from cavitygates.synthesis import (
    cnot2_sequence,
    cnot3_sequence,
    spin_echo_u23,
    toffoli_sequence,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "named_sequences.json").read_text())

NAMED = {
    "cnot2": cnot2_sequence,
    "echo+1": lambda: spin_echo_u23(+1),
    "echo-1": lambda: spin_echo_u23(-1),
    **{
        f"cnot3-{c}{t}": lambda c=c, t=t: cnot3_sequence(c, t)
        for c in (1, 2, 3)
        for t in (1, 2, 3)
        if c != t
    },
    "toffoli": lambda: toffoli_sequence(simplified=False),
    "toffoli-simplified": lambda: toffoli_sequence(simplified=True),
}

ANGLE_TOL = 1e-12


def test_golden_file_covers_the_named_sequences():
    assert sorted(GOLDEN) == sorted(NAMED)


def _split(doc):
    """(structure, angles) of a sequence document, in step order."""
    structure = [doc["label"], doc["n_atoms"]]
    angles = []
    for step in doc["steps"]:
        if step["kind"] == "evolve":
            structure.append(("evolve", step["form"]))
            angles.append(step["phi"])
        elif step["kind"] == "local":
            structure.append(("local", [(q, axis) for q, axis, _ in step["rotations"]]))
            angles += [angle for _, _, angle in step["rotations"]]
        else:
            structure.append((step["kind"],))
            angles.append(step["theta"])
    return structure, angles


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_sequence_matches_golden_json(name):
    want_structure, want_angles = _split(GOLDEN[name])
    got_structure, got_angles = _split(json.loads(json.dumps(sequence_to_json(NAMED[name]()))))
    assert got_structure == want_structure
    assert max(
        (abs(got - want) for got, want in zip(got_angles, want_angles)), default=0.0
    ) <= ANGLE_TOL
