import numpy as np
import pytest
from hypothesis import strategies as st

from cavitygates import synthesis
from cavitygates.errors import NotFactorable
from cavitygates.evolution import HamiltonianForm, evolve
from cavitygates.gates import _SMALL_HALF_ANGLE, cnot_gate, rotation, u23_gate, zyz_angles
from cavitygates.invariants import factor_local, solve_local_corrections
from cavitygates.linalg import DEFAULT_TOL, expm_hermitian, kron
from cavitygates.sequences import CollectiveEvolution, GateSequence, GlobalPhase, LocalLayer
from cavitygates.synthesis import CNOT3_MIDDLE_ANGLE

ANGLES = st.floats(min_value=-20.0, max_value=20.0)


def haar_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def cnot2_core(dphi=0.0):
    """U(pi/4) (R_y(pi) x 1) U(pi/4), the two-atom CNOT-class core, pulses off by dphi."""
    u = evolve(2, np.pi / 4 + dphi, HamiltonianForm.LADDER)
    return u @ kron(rotation("y", np.pi), np.eye(2)) @ u


def cnot3_core(dphi=0.0):
    """U23 (1 x R_y(phi_f)) U23, the three-atom CNOT-class core on atoms 2 and 3,
    middle pulse off by dphi."""
    return u23_gate() @ kron(np.eye(2), rotation("y", CNOT3_MIDDLE_ANGLE + dphi)) @ u23_gate()


def perturbed(u, rng, eps=None):
    """u e^{i eps H}: H a random real symmetric 4x4, eps log-uniform in [1e-16, 1e-11]
    unless given."""
    a = rng.normal(size=(4, 4))
    if eps is None:
        eps = 10.0 ** rng.uniform(-16.0, -11.0)
    return u @ expm_hermitian((a + a.T) / 2, -eps)


# -- the CNOT corrections derived by the solver: the independent reference for the
# closed-form layers of `synthesis`

def _euler_triples(qubit: int, u2: np.ndarray) -> tuple[tuple[int, str, float], ...]:
    """z-y-z rotation triples (application order) realizing u2 in SU(2), zero angles dropped."""
    alpha, beta, gamma = zyz_angles(u2)
    triples = []
    for axis, angle in (("z", gamma), ("y", beta), ("z", alpha)):
        if abs(angle) / 2 >= _SMALL_HALF_ANGLE:
            triples.append((qubit, axis, angle))
    return tuple(triples)


def _layer_from_local(u4) -> LocalLayer:
    """Rotation layer on qubits 1, 2 realizing u4 exactly: `factor_local` leaves a phase
    of 1 for every u4 in SU(2) x SU(2), -(a x b) too; any other phase is rejected."""
    phase, a, b = factor_local(u4)
    if abs(phase - 1.0) >= DEFAULT_TOL:
        raise NotFactorable(f"cannot absorb phase {phase} into rotation layers")
    return LocalLayer(_euler_triples(1, a) + _euler_triples(2, b))


def _correction_layers(core, phase_step: float):
    """Pre/post rotation layers and theta with e^{i theta} * post @ core @ pre = CNOT, exactly:
    theta is phase_step plus the solved pair's residual angle (the core's own global phase)."""
    pair = solve_local_corrections(core, np.exp(-1j * phase_step) * cnot_gate())
    pre, post = (_layer_from_local(o) for o in (pair.o, pair.o_prime))
    return pre, post, phase_step + float(np.angle(pair.phase))


@st.composite
def sequences(draw):
    """A valid GateSequence on 1-3 atoms with up to 8 steps of every kind."""
    n = draw(st.integers(min_value=1, max_value=3))
    rotation = st.tuples(st.integers(min_value=1, max_value=n), st.sampled_from("xyz"), ANGLES)
    step = st.one_of(
        st.builds(CollectiveEvolution, ANGLES, st.sampled_from(list(HamiltonianForm))),
        st.builds(LocalLayer, st.lists(rotation, max_size=4).map(tuple)),
        st.builds(GlobalPhase, ANGLES),
    )
    return GateSequence(n, tuple(draw(st.lists(step, max_size=8))), draw(st.text(max_size=8)))


@pytest.fixture
def rng():
    return np.random.default_rng(1729)


@pytest.fixture
def fresh_synthesis():
    """Clear every cached named sequence before and after the test, so a sequence
    built under a patched layer cannot leak into another test."""
    caches = (synthesis.cnot2_sequence, synthesis._cnot3_sequence, synthesis._toffoli_sequence)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
