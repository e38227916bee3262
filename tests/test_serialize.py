import json
from math import ulp

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from cavitygates.errors import DimensionMismatch, IndexOutOfRange, InvalidAxis
from cavitygates.evolution import CavityParams
from cavitygates.invariants import local_invariants
from cavitygates.gates import cnot_gate
from cavitygates.linalg import phase_distance
from cavitygates.sequences import CollectiveEvolution, LocalLayer, compose
from cavitygates.serialize import (
    cavity_params_to_json,
    format_matrix,
    invariants_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    sequence_from_json,
    sequence_to_json,
)
from cavitygates.synthesis import cnot2_sequence, cnot3_sequence
from cavitygates.verify import Metric, Report

from conftest import haar_unitary, sequences


def test_matrix_json_round_trip(rng):
    u = haar_unitary(4, rng)
    doc = json.loads(json.dumps(matrix_to_json(u)))
    assert doc["dim"] == 4
    assert_allclose(matrix_from_json(doc), u)  # float64 repr round-trips exactly


def test_matrix_json_validation():
    with pytest.raises(DimensionMismatch):
        matrix_to_json(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        matrix_from_json({"dim": 3, "re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]})


def test_format_matrix_six_significant_digits():
    text = format_matrix(np.array([[1 / 3 + 0j, 0], [1j, -1 - 1j]]))
    lines = text.splitlines()
    assert len(lines) == 2
    assert "0.333333+0i" in lines[0]
    assert "0+1i" in lines[1]
    assert "-1-1i" in lines[1]
    # columns are aligned
    assert len(set(len(line) for line in lines)) == 1


def test_invariants_json_shape():
    doc = invariants_to_json(local_invariants(cnot_gate()))
    assert set(doc) == {"g1", "g2"}
    assert doc["g1"]["re"] == pytest.approx(0.0, abs=1e-12)
    assert doc["g2"]["re"] == pytest.approx(1.0, abs=1e-12)


def test_sequence_json_round_trip():
    for seq in (cnot2_sequence(), cnot3_sequence(3, 1)):
        doc = json.loads(json.dumps(sequence_to_json(seq)))
        back = sequence_from_json(doc)
        assert back.label == seq.label
        assert back.n_atoms == seq.n_atoms
        assert len(back.steps) == len(seq.steps)
        assert [type(s) for s in back.steps] == [type(s) for s in seq.steps]
        # unit conversion costs at most an ulp per angle; the composed
        # gate is preserved far below every behavioral tolerance
        assert phase_distance(compose(back), compose(seq)) < 1e-12
        # further hops are bit-stable
        doc2 = sequence_to_json(back)
        assert sequence_to_json(sequence_from_json(doc2)) == doc2


def test_sequence_from_json_rejects_unknown_axis():
    doc = sequence_to_json(cnot2_sequence())
    doc["steps"][2]["rotations"][0][1] = "w"
    with pytest.raises(InvalidAxis):
        sequence_from_json(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(n_atoms=2.5),
        lambda doc: doc["steps"][2]["rotations"][0].__setitem__(0, 1.5),
    ],
)
def test_sequence_from_json_does_not_truncate_indices(edit):
    doc = sequence_to_json(cnot2_sequence())
    edit(doc)
    with pytest.raises(IndexOutOfRange):
        sequence_from_json(doc)


def _split_angles(seq):
    """(every field of seq but its angles, phases and phis; those values)."""
    fields, angles = [seq.n_atoms, seq.label], []
    for step in seq.steps:
        if isinstance(step, LocalLayer):
            fields.append(tuple((qubit, axis) for qubit, axis, _ in step.rotations))
            angles += [angle for _, _, angle in step.rotations]
        elif isinstance(step, CollectiveEvolution):
            fields.append(step.form)
            angles.append(step.phi)
        else:
            fields.append(type(step))
            angles.append(step.theta)
    return fields, angles


@settings(max_examples=300, deadline=None)
@given(sequences())
def test_sequence_json_round_trip_property(seq):
    doc = json.loads(json.dumps(sequence_to_json(seq)))
    back = sequence_from_json(doc)
    assert sequence_to_json(back) == doc
    # storing angles in units of pi costs at most one ulp per angle (a few
    # subnormal steps for angles below 1e-307)
    fields, angles = _split_angles(seq)
    back_fields, back_angles = _split_angles(back)
    assert back_fields == fields
    assert all(abs(b - a) <= max(ulp(a), 4 * ulp(0.0)) for a, b in zip(angles, back_angles))


def test_sequence_json_schema():
    doc = sequence_to_json(cnot2_sequence())
    kinds = [step["kind"] for step in doc["steps"]]
    assert kinds == ["local", "evolve", "local", "evolve", "local", "phase"]
    evolve_steps = [s for s in doc["steps"] if s["kind"] == "evolve"]
    # phi stored in units of pi
    assert all(s["phi"] == pytest.approx(0.25) for s in evolve_steps)
    assert all(s["form"] == "ladder" for s in evolve_steps)
    assert doc["steps"][-1]["theta"] == pytest.approx(0.25)


def test_cavity_params_json():
    params = CavityParams(g=1e5, delta=1e7, kappa=1e5, nbar=0.3, n_atoms=3)
    doc = json.loads(json.dumps(cavity_params_to_json(params)))
    assert doc == {"g": 1e5, "delta": 1e7, "kappa": 1e5, "nbar": 0.3, "n_atoms": 3}


def test_report_json_layout():
    report = Report("demo", (Metric("err", 2.5e-16, 1e-9), Metric("count", 3.0, 0.0)))
    assert json.dumps(report_to_json(report)) == (
        '{"name": "demo", "status": "fail", "metrics": ['
        '{"name": "err", "value": 2.5e-16, "tolerance": 1e-09, "passed": true}, '
        '{"name": "count", "value": 3.0, "tolerance": 0.0, "passed": false}]}'
    )
    with_artifacts = Report("demo", (Metric("err", 0.0, 1e-9),), {"composed": {"dim": 1}})
    assert report_to_json(with_artifacts)["artifacts"] == {"composed": {"dim": 1}}
    assert list(report_to_json(with_artifacts)) == ["name", "status", "metrics", "artifacts"]
