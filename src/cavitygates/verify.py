"""Numerical verification reports for the synthesized gates.

Each check returns a Report of named error metrics against their
tolerances; a report fails iff any metric exceeds its tolerance.  The
test suite and the CLI `verify` verb both run these checks, so there is
a single source of truth for what "correct" means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi
from typing import Callable

import numpy as np

from . import gates, spin
from .serialize import matrix_to_json
from .evolution import HamiltonianForm, build_hamiltonian, compensation_layer, evolve, thermal_evolve
from .invariants import (
    are_equivalent,
    is_local,
    local_invariants,
    solve_local_corrections,
)
from .linalg import kron, phase_distance
from .sequences import GateSequence, collective_time, compose
from .synthesis import cnot2_sequence, cnot3_sequence, spin_echo_u23, extract_factor, toffoli_sequence


@dataclass(frozen=True)
class Metric:
    """One named error value checked against a tolerance."""

    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


@dataclass(frozen=True)
class Report:
    """Outcome of one verification check."""

    name: str
    metrics: tuple[Metric, ...]
    artifacts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(metric.passed for metric in self.metrics)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def _u2_printed(phi: float) -> np.ndarray:
    """Closed form of the two-atom collective evolution, phi = eta t."""
    c, s = np.cos(phi), np.sin(phi)
    return np.exp(-1j * phi) * np.array(
        [
            [np.exp(-1j * phi), 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, np.exp(1j * phi)],
        ],
        dtype=complex,
    )


def check_two_atom_evolution() -> Report:
    """Two-atom evolution matches its closed form entrywise."""
    worst = 0.0
    for phi in (0.0, pi / 8, pi / 4, 1.0):
        u = evolve(2, phi, HamiltonianForm.LADDER)
        worst = max(worst, float(np.abs(u - _u2_printed(phi)).max()))
    return Report(
        "two-atom evolution closed form",
        (Metric("max entrywise error", worst, 1e-12),),
    )


def check_invariant_curve() -> Report:
    """Invariants of the two-atom evolution follow (cos^4, 4cos^2 - 1)."""
    worst = 0.0
    for phi in np.linspace(0.0, pi, 50):
        g1, g2 = local_invariants(evolve(2, phi, HamiltonianForm.LADDER))
        worst = max(
            worst,
            abs(g1 - np.cos(phi) ** 4),
            abs(g2 - (4 * np.cos(phi) ** 2 - 1)),
        )
    return Report(
        "invariant curve of the collective evolution",
        (Metric("max invariant error over 50 phases", float(worst), 1e-9),),
    )


def check_cnot_invariants() -> Report:
    g1, g2 = local_invariants(gates.cnot_gate())
    return Report(
        "CNOT invariants (0, 1)",
        (
            Metric("|g1|", abs(g1), 1e-12),
            Metric("|g2 - 1|", abs(g2 - 1), 1e-12),
        ),
    )


def check_cnot2() -> Report:
    """Two-atom CNOT sequence: exact reconstruction and core class."""
    seq = cnot2_sequence()
    u = compose(seq)
    target = gates.cnot_gate()
    core = compose(GateSequence(2, seq.steps[1:4]))
    g1, g2 = local_invariants(core)
    return Report(
        "two-atom CNOT reconstruction",
        (
            Metric("phase distance to CNOT", phase_distance(u, target), 1e-9),
            Metric("entrywise error (incl. global phase)", float(np.abs(u - target).max()), 1e-9),
            Metric("core invariant error vs (0, 1)", float(max(abs(g1), abs(g2 - 1))), 1e-9),
        ),
        artifacts={"composed": matrix_to_json(u)},
    )


def check_spin_echo() -> Report:
    """Spin echo isolates atoms 2, 3 and leaves exp(-i pi/3 zz)."""
    u = compose(spin_echo_u23(+1, 0))
    u23 = gates.u23_gate()
    target = kron(np.eye(2), u23)
    off = max(float(np.linalg.norm(u[:4, 4:])), float(np.linalg.norm(u[4:, :4])))
    factor = extract_factor(u)
    g1, g2 = local_invariants(factor)
    adj = compose(spin_echo_u23(-1, 0))
    return Report(
        "spin-echo isolation of atoms 2 and 3",
        (
            Metric("off-diagonal block norm", off, 1e-9),
            Metric("phase distance to 1 x U23", phase_distance(u, target), 1e-9),
            Metric("extracted factor vs exp(-i pi/3 zz)", float(np.abs(factor - u23).max()), 1e-9),
            Metric(
                "factor invariant error vs (1/4, 3/2)",
                float(max(abs(g1 - 0.25), abs(g2 - 1.5))),
                1e-9,
            ),
            Metric(
                "branch -1 vs adjoint", phase_distance(adj, target.conj().T), 1e-9
            ),
        ),
        artifacts={"extracted_factor": matrix_to_json(factor)},
    )


def check_cnot3() -> Report:
    """Three-atom CNOT for every control/target labelling."""
    worst_main = phase_distance(
        compose(cnot3_sequence(2, 3)), kron(np.eye(2), gates.cnot_gate())
    )
    worst_all = 0.0
    for control in (1, 2, 3):
        for target in (1, 2, 3):
            if control == target:
                continue
            u = compose(cnot3_sequence(control, target))
            ref = gates.controlled_not(3, control, target)
            worst_all = max(worst_all, phase_distance(u, ref))
    return Report(
        "three-atom CNOT reconstruction",
        (
            Metric("phase distance, control 2 target 3", worst_main, 1e-8),
            Metric("worst phase distance over all 6 labellings", worst_all, 1e-8),
        ),
    )


def check_toffoli() -> Report:
    """Full and simplified Toffoli against the canonical permutation."""
    target = gates.toffoli_gate()
    full = compose(toffoli_sequence(simplified=False))
    simp = compose(toffoli_sequence(simplified=True))
    mag_err = float(np.abs(np.abs(simp) - np.abs(target)).max())
    # count entries where the two gates actually disagree
    diff_count = int(np.count_nonzero(np.abs(simp - target) > 1e-6))
    return Report(
        "Toffoli constructions",
        (
            Metric("full: phase distance to Toffoli", phase_distance(full, target), 1e-8),
            Metric("full: entrywise error", float(np.abs(full - target).max()), 1e-8),
            Metric("simplified: entrywise magnitude error", mag_err, 1e-9),
            Metric(
                "simplified: conditional phase differences (want exactly 1)",
                float(abs(diff_count - 1)),
                0.0,
            ),
        ),
    )


def check_gate_times() -> Report:
    """Collective interaction times in units of 1/eta, exact."""
    quarter = pi / 4
    third = 2 * pi / 3
    expectations = (
        (cnot2_sequence(), 2 * quarter, "cnot2 = pi/2"),
        (cnot3_sequence(2, 3), 4 * third, "cnot3 = 8 pi/3"),
        (toffoli_sequence(False), 24 * third, "toffoli = 16 pi"),
        (toffoli_sequence(True), 12 * third, "simplified toffoli = 8 pi"),
    )
    metrics = tuple(
        Metric(label, float(abs(collective_time(seq) - want)), 0.0)
        for seq, want, label in expectations
    )
    return Report("collective gate times", metrics)


def check_thermal_compensation() -> Report:
    """The compensation layer turns the thermal evolution into the ideal
    one wherever it is placed, and composed sequences are
    nbar-independent."""
    worst_evolve = 0.0
    worst_place = 0.0
    for n in (2, 3):
        for form in HamiltonianForm:
            base = evolve(n, 0.7, form)
            h = build_hamiltonian(n, form, nbar=1.3, include_linear=True)
            sz = spin.collective_op("z", n)
            worst_place = max(
                worst_place, float(np.abs(h @ sz - sz @ h).max())
            )
            for nbar in (0.5, 3.7):
                raw = thermal_evolve(n, 0.7, form, nbar)
                comp = compensation_layer(n, form, nbar, 0.7)
                worst_evolve = max(worst_evolve, phase_distance(comp @ raw, base))
                # compensation before, after, or split around the pulse
                half = compensation_layer(n, form, nbar, 0.35)
                for variant in (comp @ raw, raw @ comp, half @ raw @ half):
                    worst_place = max(worst_place, float(np.abs(variant - base).max()))
    worst_seq = 0.0
    for seq in (cnot2_sequence(), spin_echo_u23(+1), cnot3_sequence(2, 3)):
        ref = compose(seq, nbar=0.0)
        for nbar in (0.5, 3.7):
            worst_seq = max(worst_seq, phase_distance(compose(seq, nbar=nbar), ref))
    return Report(
        "thermal compensation",
        (
            Metric("compensated evolve nbar-dependence", worst_evolve, 1e-9),
            Metric("compensation placement dependence", worst_place, 1e-9),
            Metric("composed sequence nbar-dependence", worst_seq, 1e-9),
        ),
    )


def _haar_unitary(normals: np.ndarray) -> np.ndarray:
    """Haar-random d x d unitaries from standard normals of shape (..., 2, d, d),
    real parts before imaginary parts, stacked over the leading axes."""
    z = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _round_trip_draws(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per trial a Haar 4x4 core and four Haar 2x2 sides, drawn in the order
    16 real, 16 imaginary normals of the core, then 4 real, 4 imaginary of
    each side."""
    draws = np.random.default_rng(seed).normal(size=(trials, 64))
    cores = _haar_unitary(draws[:, :32].reshape(trials, 2, 4, 4))
    sides = _haar_unitary(draws[:, 32:].reshape(trials, 4, 2, 2, 2))
    return cores, sides


#: Random equivalent pairs drawn by `check_correction_round_trip`, and their seed.
ROUND_TRIPS = 100
ROUND_TRIP_SEED = 20050517


def check_correction_round_trip() -> Report:
    """Random equivalent pairs: corrections reconstruct the target."""
    worst_rec = 0.0
    worst_inv = 0.0
    locality_failures = 0
    for m, (a, b, c, d) in zip(*_round_trip_draws(ROUND_TRIPS, ROUND_TRIP_SEED)):
        l = kron(a, b) @ m @ kron(c, d)
        im = local_invariants(m)
        il = local_invariants(l)
        worst_inv = max(worst_inv, abs(im.g1 - il.g1), abs(im.g2 - il.g2))
        pair = solve_local_corrections(m, l)
        rebuilt = pair.phase * pair.o_prime @ m @ pair.o
        worst_rec = max(worst_rec, phase_distance(rebuilt, l))
        if not (is_local(pair.o) and is_local(pair.o_prime)):
            locality_failures += 1
    return Report(
        "one-qubit correction round trip",
        (
            Metric(f"worst reconstruction error over {ROUND_TRIPS} draws", float(worst_rec), 1e-8),
            Metric("worst invariant drift under local gates", float(worst_inv), 1e-9),
            Metric("non-factorable corrections", float(locality_failures), 0.0),
        ),
    )


def check_swap_not_cnot() -> Report:
    """SWAP is not locally equivalent to CNOT."""
    equivalent = are_equivalent(gates.cnot_gate(), gates.swap_gate())
    return Report(
        "SWAP/CNOT inequivalence",
        (Metric("equivalence verdict (want 0)", 1.0 if equivalent else 0.0, 0.0),),
    )


def check_operator_identity() -> Report:
    """S+ S- = S^2 - S_z^2 + S_z as matrices for 1, 2, 3 atoms."""
    worst = 0.0
    for n in (1, 2, 3):
        lhs = spin.collective_op("+", n) @ spin.collective_op("-", n)
        sz = spin.collective_op("z", n)
        rhs = spin.s_squared(n) - sz @ sz + sz
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return Report(
        "ladder/Casimir operator identity",
        (Metric("max entrywise error, 1-3 atoms", worst, 1e-12),),
    )


ALL_CHECKS: tuple[Callable[[], Report], ...] = (
    check_two_atom_evolution,
    check_invariant_curve,
    check_cnot_invariants,
    check_cnot2,
    check_spin_echo,
    check_cnot3,
    check_toffoli,
    check_gate_times,
    check_thermal_compensation,
    check_correction_round_trip,
    check_swap_not_cnot,
    check_operator_identity,
)

VERIFY_TARGETS: dict[str, tuple[Callable[[], Report], ...]] = {
    "cnot2": (
        check_two_atom_evolution,
        check_invariant_curve,
        check_cnot_invariants,
        check_cnot2,
    ),
    "cnot3": (check_spin_echo, check_cnot3),
    "toffoli": (check_toffoli, check_gate_times),
    "all": ALL_CHECKS,
}


def run_checks(target: str) -> list[Report]:
    """Run the verification checks registered for a target name."""
    try:
        checks = VERIFY_TARGETS[target]
    except KeyError:
        raise ValueError(
            f"unknown verify target {target!r}; known: {', '.join(sorted(VERIFY_TARGETS))}"
        ) from None
    return [check() for check in checks]
