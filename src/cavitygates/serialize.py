"""JSON schemas and text formatting shared by the library and the CLI.

Matrix JSON:      {"dim": n, "re": [[...]], "im": [[...]]}, row-major.
Invariants JSON:  {"g1": {"re": .., "im": ..}, "g2": {"re": .., "im": ..}}.
Sequence JSON:    {"label": .., "n_atoms": .., "steps": [...]} where each
                  step is {"kind": "evolve", "phi": .., "form": ..},
                  {"kind": "local", "rotations": [[qubit, axis, angle]..]}
                  or {"kind": "phase", "theta": ..}.  All angles and
                  phases are stored in units of pi: the JSON round-trips
                  exactly, the conversion to radians to within one ulp.
Cavity JSON:      {"g": .., "delta": .., "kappa": .., "nbar": ..,
                  "n_atoms": ..} (rates in rad/s).
Report JSON:      {"name": .., "status": "pass" | "fail", "metrics":
                  [{"name": .., "value": .., "tolerance": .., "passed":
                  ..}], "artifacts": {..}}, artifacts only when present.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .evolution import CavityParams, HamiltonianForm
from .invariants import LocalInvariants
from .linalg import as_operator
from .sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    SequenceStep,
)

PI = float(np.pi)


# -- matrices -----------------------------------------------------------

def matrix_to_json(u) -> dict:
    m = as_operator(u)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(data: dict) -> np.ndarray:
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionMismatch(
            f"re/im must be {dim}x{dim} arrays, got {re.shape} and {im.shape}"
        )
    return re + 1j * im


def format_matrix(u) -> str:
    """Entries as 'a+bi' with 6 significant digits, columns aligned."""
    m = np.asarray(u, dtype=complex)
    cells = [
        [f"{x.real:.6g}{x.imag:+.6g}i" for x in row]
        for row in m
    ]
    widths = [max(len(row[j]) for row in cells) for j in range(m.shape[1])]
    return "\n".join(
        "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
        for row in cells
    )


# -- invariants ----------------------------------------------------------

def invariants_to_json(inv: LocalInvariants) -> dict:
    return {
        "g1": {"re": inv.g1.real, "im": inv.g1.imag},
        "g2": {"re": inv.g2.real, "im": inv.g2.imag},
    }


# -- sequences -----------------------------------------------------------

def _step_to_json(step: SequenceStep) -> dict:
    if isinstance(step, CollectiveEvolution):
        return {"kind": "evolve", "phi": step.phi / PI, "form": step.form.value}
    if isinstance(step, LocalLayer):
        return {
            "kind": "local",
            "rotations": [
                [qubit, axis, angle / PI] for qubit, axis, angle in step.rotations
            ],
        }
    return {"kind": "phase", "theta": step.theta / PI}  # GateSequence admits no other step


def _step_from_json(data: dict) -> SequenceStep:
    kind = data["kind"]
    if kind == "evolve":
        return CollectiveEvolution(float(data["phi"]) * PI, HamiltonianForm(data["form"]))
    if kind == "local":
        return LocalLayer(
            tuple((qubit, axis, float(angle) * PI) for qubit, axis, angle in data["rotations"])
        )
    if kind == "phase":
        return GlobalPhase(theta=float(data["theta"]) * PI)
    raise ValueError(f"unknown step kind {kind!r}")


def sequence_to_json(seq: GateSequence) -> dict:
    return {
        "label": seq.label,
        "n_atoms": seq.n_atoms,
        "steps": [_step_to_json(step) for step in seq.steps],
    }


def sequence_from_json(data: dict) -> GateSequence:
    return GateSequence(
        n_atoms=data["n_atoms"],
        steps=tuple(_step_from_json(s) for s in data["steps"]),
        label=str(data.get("label", "")),
    )


# -- cavity parameters ----------------------------------------------------

def cavity_params_to_json(params: CavityParams) -> dict:
    return {
        "g": params.g,
        "delta": params.delta,
        "kappa": params.kappa,
        "nbar": params.nbar,
        "n_atoms": params.n_atoms,
    }


# -- verification reports --------------------------------------------------

def report_to_json(report) -> dict:
    """A `verify.Report` as Report JSON."""
    entry = {
        "name": report.name,
        "status": report.status,
        "metrics": [
            {"name": m.name, "value": m.value, "tolerance": m.tolerance, "passed": m.passed}
            for m in report.metrics
        ],
    }
    if report.artifacts:
        entry["artifacts"] = report.artifacts
    return entry
