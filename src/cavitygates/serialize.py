"""JSON schemas and text formatting shared by the library and the CLI.

Matrix JSON:      {"dim": n, "re": [[...]], "im": [[...]]}, row-major.
Invariants JSON:  {"g1": {"re": .., "im": ..}, "g2": {"re": .., "im": ..}}.
Sequence JSON:    {"label": .., "n_atoms": .., "steps": [...]} where each
                  step is {"kind": "evolve", "phi": .., "form": ..},
                  {"kind": "local", "rotations": [[qubit, axis, angle]..]}
                  or {"kind": "phase", "theta": ..}.  Angles and phases
                  are in radians, qubits and n_atoms Python ints: a
                  sequence round-trips exactly.
Cavity JSON:      {"g": .., "delta": .., "kappa": .., "nbar": ..,
                  "n_atoms": ..} (rates in rad/s).
Report JSON:      {"name": .., "status": "pass" | "fail", "metrics":
                  [{"name": .., "value": .., "tolerance": .., "passed":
                  ..}], "artifacts": {..}}, artifacts only when present.
A non-finite metric value or gate time is written as null, and the CLI dumps
every --json output with allow_nan=False: what it prints is strict JSON.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import wraps

import numpy as np

from .errors import CavityGatesError, DimensionMismatch, _is_integer
from .evolution import CavityParams, HamiltonianForm
from .invariants import LocalInvariants
from .linalg import _as_stack
from .sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    SequenceStep,
)


def _field(data, key: str):
    """data[key]; CavityGatesError unless data is a JSON object holding key."""
    if not isinstance(data, dict) or key not in data:
        raise CavityGatesError(f"expected a JSON object with a {key!r} field")
    return data[key]


def _finite(x):
    return x if np.isfinite(x) else None


def _typed(parse):
    """parse, raising CavityGatesError for a wrong value type (a null dim, a number for a list)."""
    @wraps(parse)
    def wrapper(data):
        try:
            return parse(data)
        except CavityGatesError:
            raise
        except (TypeError, ValueError) as exc:
            raise CavityGatesError(f"malformed JSON document: {exc}") from exc
    return wrapper


# -- matrices -----------------------------------------------------------

def matrix_to_json(u) -> dict:
    m = _as_stack(u)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected one square matrix, got shape {m.shape}")
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


@_typed
def matrix_from_json(data: dict) -> np.ndarray:
    dim = _field(data, "dim")
    if not _is_integer(dim):
        raise CavityGatesError(f"dim must be an integer, got {dim!r}")
    re = np.asarray(_field(data, "re"), dtype=float)
    im = np.asarray(_field(data, "im"), dtype=float)
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
        return {"kind": "evolve", "phi": step.phi, "form": step.form.value}
    if isinstance(step, LocalLayer):
        return {
            "kind": "local",
            "rotations": [
                [int(qubit), axis, angle] for qubit, axis, angle in step.rotations
            ],
        }
    return {"kind": "phase", "theta": step.theta}  # GateSequence admits no other step


def _step_from_json(data: dict) -> SequenceStep:
    kind = _field(data, "kind")
    if kind == "evolve":
        phi, form = _field(data, "phi"), _field(data, "form")
        return CollectiveEvolution(float(phi), HamiltonianForm(form))
    if kind == "local":
        return LocalLayer(tuple(
            (qubit, axis, float(angle)) for qubit, axis, angle in _field(data, "rotations")
        ))
    if kind == "phase":
        return GlobalPhase(theta=float(_field(data, "theta")))
    raise CavityGatesError(f"unknown step kind {kind!r}")


def sequence_to_json(seq: GateSequence) -> dict:
    return {
        "label": seq.label,
        "n_atoms": int(seq.n_atoms),
        "steps": [_step_to_json(step) for step in seq.steps],
    }


@_typed
def sequence_from_json(data: dict) -> GateSequence:
    return GateSequence(
        n_atoms=_field(data, "n_atoms"),
        steps=tuple(_step_from_json(s) for s in _field(data, "steps")),
        label=str(data.get("label", "")),
    )


# -- cavity parameters ----------------------------------------------------

def cavity_params_to_json(params: CavityParams) -> dict:
    return asdict(params)


# -- verification reports --------------------------------------------------

def report_to_json(report) -> dict:
    """A `verify.Report` as Report JSON."""
    entry = {
        "name": report.name,
        "status": report.status,
        "metrics": [
            {"name": m.name, "value": _finite(m.value), "tolerance": m.tolerance, "passed": m.passed}
            for m in report.metrics
        ],
    }
    if report.artifacts:
        entry["artifacts"] = report.artifacts
    return entry
