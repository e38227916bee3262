import numpy as np
import pytest
from hypothesis import strategies as st

from cavitygates.evolution import HamiltonianForm
from cavitygates.sequences import CollectiveEvolution, GateSequence, GlobalPhase, LocalLayer

ANGLES = st.floats(min_value=-20.0, max_value=20.0)


def haar_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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
