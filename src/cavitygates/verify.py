"""Numerical verification reports for the synthesized gates.

Each check returns a Report of named error metrics against their
tolerances; a report fails iff any metric exceeds its tolerance.  The
test suite and the CLI `verify` verb both run these checks, so there is
a single source of truth for what "correct" means.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import inf, pi
from typing import Callable

import numpy as np

from . import evolution, gates, spin
from .errors import CavityGatesError
from .serialize import matrix_to_json
from .evolution import HamiltonianForm, build_hamiltonian
from .invariants import are_equivalent, is_local, local_invariants, solve_local_corrections
from .linalg import _modulus, is_unitary, kron, phase_distance, read_only
from .sequences import GateSequence, collective_time, compose
from .synthesis import cnot2_sequence, cnot3_sequence, spin_echo_u23, toffoli_sequence


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
    phis = (0.0, pi / 8, pi / 4, 1.0)
    us = evolution._pulses(2, [HamiltonianForm.LADDER] * len(phis), np.array(phis))
    worst = max(float(np.abs(u - _u2_printed(phi)).max()) for u, phi in zip(us, phis))
    return Report(
        "two-atom evolution closed form",
        (Metric("max entrywise error", worst, 1e-12),),
    )


def check_invariant_curve() -> Report:
    """Invariants of the two-atom evolution follow (cos^4, 4cos^2 - 1)."""
    phis = np.linspace(0.0, pi, 50)
    g1, g2 = local_invariants(evolution._pulses(2, [HamiltonianForm.LADDER] * len(phis), phis))
    # a scalar power per phase: numpy's vectorized x ** 4 rounds unlike it
    cos4 = np.array([np.cos(phi) ** 4 for phi in phis])
    worst = max(_modulus(g1 - cos4).max(), _modulus(g2 - (4 * np.cos(phis) ** 2 - 1)).max())
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
    u = compose(spin_echo_u23(+1))
    u23 = gates.u23_gate()
    target = kron(np.eye(2), u23)
    off = max(float(np.linalg.norm(u[:4, 4:])), float(np.linalg.norm(u[4:, :4])))
    factor = u[:4, :4]  # "phase distance to 1 x U23" covers the bottom block
    # a wrong echo leaves no unitary factor, hence no class: its metric fails
    g1, g2 = local_invariants(factor) if is_unitary(factor) else (inf, inf)
    adj = compose(spin_echo_u23(-1))
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
    pairs = [(c, t) for c in (1, 2, 3) for t in (1, 2, 3) if c != t]  # (control, target)
    composed = [compose(cnot3_sequence(*pair)) for pair in pairs]
    dist = phase_distance(composed, [gates.controlled_not(3, *p) for p in pairs])
    return Report(
        "three-atom CNOT reconstruction",
        (
            Metric("phase distance, control 2 target 3", float(dist[pairs.index((2, 3))]), 1e-8),
            Metric("worst phase distance over all 6 labellings", float(dist.max()), 1e-8),
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
    worst_evolve = worst_place = 0.0
    grid = [(form, nbar) for form in HamiltonianForm for nbar in (0.5, 3.7)]
    coeffs = np.array([evolution._linear_coefficient(form, nbar) for form, nbar in grid])
    for n in (2, 3):
        # stacked over the (form, nbar) grid: the pulses, the thermal ones (c m added to their
        # exponent rows), and the compensation as a kron of rotations, never from e^{+i phi c S_z}
        base, raw = (evolution._pulses(n, [f for f, _ in grid], 0.7, c) for c in (None, coeffs))
        comp, half = (kron(*[gates._rotations(2, -coeffs * phi)] * n) for phi in (0.7, 0.35))
        worst_evolve = max(worst_evolve, float(phase_distance(comp @ raw, base).max()))
        # compensation before, after, or split around the pulse
        variants = np.array([comp @ raw, raw @ comp, half @ raw @ half])
        sz = spin.collective_op("z", n)
        h = np.array([build_hamiltonian(n, f, 1.3, include_linear=True) for f in HamiltonianForm])
        worst_place = max(worst_place, float(np.abs(h @ sz - sz @ h).max()),
                          float(np.abs(variants - base).max()))
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


def _round_trip_normals(count: int, seed: int) -> np.ndarray:
    """`count` standard normals: stdlib random.Random(seed).randbytes read as little-endian
    uint64 >> 11, uniforms (bits + 1) / 2^53 in (0, 1], and Box-Muller
    sqrt(-2 ln u1) (cos 2 pi u2, sin 2 pi u2) on each consecutive pair (u1, u2)."""
    bits = np.frombuffer(random.Random(seed).randbytes(count * 8), dtype="<u8") >> 11
    u1, u2 = ((bits + 1) / 2.0**53).reshape(-1, 2).T
    radius, angle = np.sqrt(-2 * np.log(u1)), 2 * pi * u2
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], -1).ravel()


def _round_trip_draws(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per trial a Haar 4x4 core and four Haar 2x2 sides from the next 64 normals of
    `_round_trip_normals`: 16 real, 16 imaginary of the core, then 4 real, 4 imaginary
    of each side a, b, c, d."""
    draws = _round_trip_normals(trials * 64, seed).reshape(trials, 64)
    cores = _haar_unitary(draws[:, :32].reshape(trials, 2, 4, 4))
    sides = _haar_unitary(draws[:, 32:].reshape(trials, 4, 2, 2, 2))
    return cores, sides


#: Random equivalent pairs drawn by `check_correction_round_trip`, and their seed.
ROUND_TRIPS = 100
ROUND_TRIP_SEED = 20050517


@lru_cache(maxsize=None)
def _round_trip_pairs() -> tuple[np.ndarray, np.ndarray]:
    """The seeded cores and their dressed targets, read-only, drawn on first use."""
    cores, sides = _round_trip_draws(ROUND_TRIPS, ROUND_TRIP_SEED)
    targets = kron(sides[:, 0], sides[:, 1]) @ cores @ kron(sides[:, 2], sides[:, 3])
    return read_only(cores), read_only(targets)


def check_correction_round_trip() -> Report:
    """Random equivalent pairs: corrections reconstruct the target."""
    cores, targets = _round_trip_pairs()
    g = np.stack(local_invariants(np.stack([cores, targets])))  # (g1, g2) x (cores, targets)
    worst_inv = _modulus(g[:, 0] - g[:, 1]).max()
    pair = solve_local_corrections(cores, targets)
    rebuilt = pair.phase[:, None, None] * pair.o_prime @ cores @ pair.o
    worst_rec = phase_distance(rebuilt, targets).max()
    locality_failures = np.count_nonzero(~is_local(np.stack([pair.o, pair.o_prime])).any(axis=0))
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


VERIFY_TARGETS: dict[str, tuple[Callable[[], Report], ...]] = {
    "cnot2": (check_two_atom_evolution, check_invariant_curve, check_cnot_invariants, check_cnot2),
    "cnot3": (check_spin_echo, check_cnot3),
    "toffoli": (check_toffoli, check_gate_times),
}
#: The twelve checks: the gate targets' in order, then the four that belong to none.
ALL_CHECKS: tuple[Callable[[], Report], ...] = (
    *(check for checks in VERIFY_TARGETS.values() for check in checks),
    check_thermal_compensation,
    check_correction_round_trip,
    check_swap_not_cnot,
    check_operator_identity,
)
VERIFY_TARGETS["all"] = ALL_CHECKS


def run_checks(target: str) -> list[Report]:
    """Run the verification checks registered for a target name."""
    try:
        checks = VERIFY_TARGETS[target]
    except (KeyError, TypeError):  # TypeError: an unhashable target
        raise CavityGatesError(
            f"unknown verify target {target!r}; known: {', '.join(sorted(VERIFY_TARGETS))}"
        ) from None
    reports = []
    for check in checks:
        try:
            reports.append(check())
        except CavityGatesError as exc:  # a failing report; the other checks still run
            reports.append(Report(check.__name__, (Metric("raised", 1.0, 0.0),), {"error": str(exc)}))
    return reports
