import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from cavitygates.errors import DimensionMismatch, NotEquivalent, NotFactorable, NotUnitary
from cavitygates.evolution import HamiltonianForm, evolve
from cavitygates.gates import cnot_gate, rotation, swap_gate, u23_gate
from cavitygates import invariants
from cavitygates.invariants import (
    _MAGIC_DAGGER,
    _MATCH_TOL,
    MAGIC_BASIS,
    _diagonalize_symmetric_unitary,
    are_equivalent,
    factor_local,
    is_local,
    local_invariants,
    solve_local_corrections,
)
from cavitygates.linalg import (
    DEFAULT_TOL,
    _modulus,
    _sandwich,
    dagger,
    expm_hermitian,
    is_unitary,
    kron,
    phase_distance,
)

from conftest import cnot2_core, haar_unitary


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_tr_m_squared_by_sum_equals_tr_m_squared_by_product(seed):
    # m = M_B^T M_B is symmetric, so Tr m^2 = sum_ij m_ij m_ji = sum_ij m_ij^2
    rng = np.random.default_rng(seed)
    gates = np.array([haar_unitary(4, rng) for _ in range(8)])
    _, m = invariants._magic_symmetric(gates)
    by_sum = (m * m).sum((-2, -1))
    by_product = np.trace(m @ m, axis1=-2, axis2=-1)
    # |m_ij| <= 1: each is a sum of 16 products of size <= 1
    assert np.abs(by_sum - by_product).max() < 16 * np.finfo(float).eps


def test_magic_basis_is_unitary():
    q = MAGIC_BASIS
    assert_allclose(dagger(q) @ q, np.eye(4), atol=1e-15)
    assert abs(abs(np.linalg.det(q)) - 1) < 1e-12


def test_magic_basis_maps_locals_to_real_orthogonal(rng):
    q = MAGIC_BASIS
    for _ in range(30):
        a = haar_unitary(2, rng)
        b = haar_unitary(2, rng)
        a = a / np.sqrt(np.linalg.det(a))
        b = b / np.sqrt(np.linalg.det(b))
        w = dagger(q) @ kron(a, b) @ q
        assert np.abs(w.imag).max() < 1e-12
        assert np.abs(w @ w.T - np.eye(4)).max() < 1e-12


def test_magic_basis_is_read_only():
    assert not MAGIC_BASIS.flags.writeable  # checked first: a failed write would leak
    with pytest.raises(ValueError):
        MAGIC_BASIS[0, 0] = 99


def test_invariants_of_reference_gates():
    g1, g2 = local_invariants(cnot_gate())
    assert abs(g1) < 1e-12 and abs(g2 - 1) < 1e-12
    g1, g2 = local_invariants(np.eye(4))
    assert abs(g1 - 1) < 1e-12 and abs(g2 - 3) < 1e-12
    g1, g2 = local_invariants(u23_gate())
    assert abs(g1 - 0.25) < 1e-12 and abs(g2 - 1.5) < 1e-12
    g1, g2 = local_invariants(swap_gate())
    assert abs(g1 - (-1)) < 1e-12 and abs(g2 - (-3)) < 1e-12


def test_invariant_curve_of_collective_evolution():
    for phi in np.linspace(0, np.pi, 17):
        g1, g2 = local_invariants(evolve(2, phi, HamiltonianForm.LADDER))
        assert abs(g1 - np.cos(phi) ** 4) < 1e-9
        assert abs(g2 - (4 * np.cos(phi) ** 2 - 1)) < 1e-9


def test_invariants_reject_bad_input():
    with pytest.raises(DimensionMismatch):
        local_invariants(np.eye(2))
    with pytest.raises(NotUnitary):
        local_invariants(np.diag([1, 1, 1, 2.0]))


def test_invariants_insensitive_to_locals_and_phase(rng):
    for _ in range(100):
        m = haar_unitary(4, rng)
        base = local_invariants(m)
        dressed = local_invariants(
            kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ m
            @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        assert abs(base.g1 - dressed.g1) < 1e-9
        assert abs(base.g2 - dressed.g2) < 1e-9
        phased = local_invariants(np.exp(1j * rng.uniform(0, 2 * np.pi)) * m)
        assert abs(base.g1 - phased.g1) < 1e-9
        assert abs(base.g2 - phased.g2) < 1e-9


def test_g2_nearly_real_for_unitaries(rng):
    for _ in range(50):
        inv = local_invariants(haar_unitary(4, rng))
        assert abs(inv.g2.imag) < 1e-9


def test_are_equivalent_cases(rng):
    cnot = cnot_gate()
    dressed = (
        kron(haar_unitary(2, rng), haar_unitary(2, rng))
        @ cnot
        @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
    )
    assert are_equivalent(cnot, dressed)
    assert are_equivalent(cnot, np.exp(0.7j) * cnot)
    assert not are_equivalent(cnot, swap_gate())
    assert not are_equivalent(cnot, np.eye(4))


def test_is_local(rng):
    assert is_local(np.eye(4))
    assert is_local(kron(haar_unitary(2, rng), haar_unitary(2, rng)))
    assert not is_local(cnot_gate())
    assert not is_local(u23_gate())


def test_factor_local_roundtrip(rng):
    a = haar_unitary(2, rng)
    b = haar_unitary(2, rng)
    phase, fa, fb = factor_local(kron(a, b))
    assert_allclose(phase * kron(fa, fb), kron(a, b), atol=1e-12)
    assert abs(np.linalg.det(fa) - 1) < 1e-12
    assert abs(np.linalg.det(fb) - 1) < 1e-12
    with pytest.raises(NotFactorable):
        factor_local(cnot_gate())
    # blocks of full determinant, but their product is not the gate
    with pytest.raises(NotFactorable):
        factor_local(haar_unitary(4, rng))


def _zz_coupled(eps, rng):
    """(A x B) e^{i eps Z x Z}, Haar A and B: eps away from a tensor product."""
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    return kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ expm_hermitian(zz, -eps)


def test_is_local_resolves_a_zz_coupling_of_1e_6(rng):
    # the second singular value is about eps times the first: DEFAULT_TOL sits between
    assert not is_local(_zz_coupled(1e-6, rng))
    assert is_local(_zz_coupled(1e-12, rng))


def test_factor_local_rejects_a_zz_coupling_of_1e_6(rng):
    # is_local's rule decides: s1 / s0 is about eps, so rejected at 1e-6, factored at 1e-12
    with pytest.raises(NotFactorable, match="does not factor"):
        factor_local(_zz_coupled(1e-6, rng))
    gate = _zz_coupled(1e-12, rng)
    phase, a, b = factor_local(gate)
    assert np.abs(phase * kron(a, b) - gate).max() < 1e-11


#: ZZ + 0.3 XX, the entangling generator of the near-local gates below.
_ZZ_XX = np.diag([1.0, -1.0, -1.0, 1.0]) + 0.3 * np.fliplr(np.eye(4))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-10.0, np.log10(3e-9)))
def test_factor_local_splits_exactly_the_gates_is_local_accepts(seed, log_eps):
    # (A x B) e^{i eps (ZZ + 0.3 XX)} (C x D), Haar sides: over this eps range the
    # rearrangement's s1 / s0 straddles DEFAULT_TOL, so both verdicts occur
    rng = np.random.default_rng(seed)
    a, b, c, d = (haar_unitary(2, rng) for _ in range(4))
    gate = kron(a, b) @ expm_hermitian(_ZZ_XX, -(10.0**log_eps)) @ kron(c, d)
    try:
        phase, fa, fb = factor_local(gate)
    except NotFactorable:
        assert not is_local(gate)
        return
    assert is_local(gate)
    # the residual is the rearrangement's tail, s1 < DEFAULT_TOL s0 = 2 DEFAULT_TOL
    assert np.abs(phase * kron(fa, fb) - gate).max() < 2 * DEFAULT_TOL


@pytest.mark.parametrize("gate", [2 * np.eye(4), kron(np.diag([1.0, 0.5]), np.eye(2))])
def test_factor_local_rejects_a_non_unitary_gate(gate):
    # a tensor product, but not of unitaries: rejected as is_local rejects it
    with pytest.raises(NotUnitary):
        factor_local(gate)


@pytest.mark.parametrize("shape", [(2, 2), (1, 4, 4)])
def test_factor_local_rejects_anything_but_one_4x4_gate(shape):
    with pytest.raises(DimensionMismatch, match="expected a 4x4 gate"):
        factor_local(np.broadcast_to(np.eye(shape[-1]), shape))


@pytest.mark.parametrize("theta", np.linspace(np.pi, 2 * np.pi, 9)[1:-1])
def test_factor_local_sign_rule(theta, rng):
    # R_y(theta) has tr = 2 cos(theta / 2) < 0 here: the factor must come
    # back with the sign that makes Re tr a >= 0, and the phase with Re >= 0
    a, b = rotation("y", theta), haar_unitary(2, rng)
    phase, fa, fb = factor_local(kron(a, b))
    assert_allclose(phase * kron(fa, fb), kron(a, b), atol=1e-12)
    assert np.trace(fa).real >= 0 and phase.real >= 0


def test_solve_corrections_self_equivalence():
    cnot = cnot_gate()
    pair = solve_local_corrections(cnot, cnot)
    rebuilt = pair.phase * pair.o_prime @ cnot @ pair.o
    assert phase_distance(rebuilt, cnot) < 1e-9
    assert is_local(pair.o) and is_local(pair.o_prime)
    assert abs(abs(pair.phase) - 1) < 1e-12


def test_solve_corrections_random_round_trip(rng):
    for _ in range(40):
        m = haar_unitary(4, rng)
        locals_in = kron(haar_unitary(2, rng), haar_unitary(2, rng))
        locals_out = kron(haar_unitary(2, rng), haar_unitary(2, rng))
        l = locals_out @ m @ locals_in
        pair = solve_local_corrections(m, l)
        assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-8
        assert is_local(pair.o) and is_local(pair.o_prime)
        assert is_unitary(pair.o) and is_unitary(pair.o_prime)


def test_solve_corrections_with_random_global_phase(rng):
    # a global phase moves the unit-determinant normalization across
    # fourth-root branches, flipping the sign of the magic-basis m
    # matrix; both sign branches must reconstruct
    for _ in range(40):
        m = haar_unitary(4, rng)
        l = (
            np.exp(1j * rng.uniform(0, 2 * np.pi))
            * kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ m
            @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        pair = solve_local_corrections(m, l)
        assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-8
        assert is_local(pair.o) and is_local(pair.o_prime)


def test_solve_corrections_degenerate_spectrum(rng):
    # CNOT-class gates have a doubly degenerate magic-basis spectrum;
    # the solver must still produce factorable corrections
    cnot = cnot_gate()
    dressed = (
        kron(rotation("y", 0.3), rotation("x", -0.8))
        @ cnot
        @ kron(rotation("z", 1.2), rotation("y", 0.5))
    )
    pair = solve_local_corrections(cnot, dressed)
    assert phase_distance(pair.phase * pair.o_prime @ cnot @ pair.o, dressed) < 1e-9


@pytest.mark.parametrize("split", [3e-8, 1e-10, 1e-12])
def test_solve_corrections_nearly_degenerate_spectrum(split, rng):
    # two eigenvalues of m a hair apart: eigenvalues the solver treats as
    # one cluster must still reconstruct the gate within tolerance
    for _ in range(20):
        b, c = rng.uniform(0.1, 1.0, size=2)
        angles = np.array([c + split / 2, c - split / 2, b, -(2 * c + b)])
        o, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        m = MAGIC_BASIS @ (np.exp(0.5j * angles)[:, None] * o.T) @ dagger(MAGIC_BASIS)
        l = kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ m @ kron(
            haar_unitary(2, rng), haar_unitary(2, rng)
        )
        pair = solve_local_corrections(m, l)
        assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-9


def test_solve_corrections_collective_core_to_cnot():
    # the two-pulse core with a middle echo pulse is CNOT-equivalent and
    # the machinery recovers corrections realizing the CNOT exactly
    u = evolve(2, np.pi / 4, HamiltonianForm.LADDER)
    core = u @ kron(rotation("y", np.pi), np.eye(2)) @ u
    g1, g2 = local_invariants(core)
    assert abs(g1) < 1e-12 and abs(g2 - 1) < 1e-12
    pair = solve_local_corrections(core, cnot_gate())
    rebuilt = pair.phase * pair.o_prime @ core @ pair.o
    assert np.abs(rebuilt - cnot_gate()).max() < 1e-9


def test_solve_corrections_rejects_inequivalent():
    with pytest.raises(NotEquivalent):
        solve_local_corrections(cnot_gate(), swap_gate())


@pytest.mark.parametrize("base", ["swap", "identity"])
def test_solve_corrections_maximally_degenerate_classes(base, rng):
    # SWAP class has a triply degenerate magic-basis spectrum and the
    # identity class a fully degenerate one; any orthonormal eigenbasis
    # must still give factorable corrections
    m = swap_gate() if base == "swap" else np.eye(4, dtype=complex)
    for _ in range(25):
        l = (
            np.exp(1j * rng.uniform(0, 2 * np.pi))
            * kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ m
            @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        pair = solve_local_corrections(m, l)
        assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-9
        assert is_local(pair.o) and is_local(pair.o_prime)


def _two_branch_reference(m_gate, l_gate):
    """The solver as it was before it picked the sign from the traces: after an
    are_equivalent pre-check, every pair tries the principal fourth root of
    det L, then root * i, and keeps the first whose correction passes
    m O = O l.  Returns (o, o_prime, phase).  Its magic-basis changes use the
    solver's `_sandwich` kernel, so that its bits can match the solver's."""
    if not np.all(are_equivalent(m_gate, l_gate)):
        raise NotEquivalent("gates have different local invariants")
    m_in, l_in = both = np.stack([m_gate, l_gate]).astype(complex).reshape(2, -1, 4, 4)
    det_root_m, det_root_l = np.linalg.det(both) ** 0.25
    o, o_prime, phase = np.empty_like(m_in), np.empty_like(m_in), np.empty(len(m_in), complex)
    todo = np.arange(len(m_in))
    for branch in (1.0 + 0j, 1j):
        n = len(todo)
        roots = np.concatenate([det_root_m[todo], det_root_l[todo] * branch])
        unit_det = np.concatenate([m_in[todo], l_in[todo]]) / roots[:, None, None]
        gb = _sandwich(_MAGIC_DAGGER, unit_det, MAGIC_BASIS)
        sym = gb.swapaxes(-1, -2) @ gb
        e, p = _diagonalize_symmetric_unitary(sym)
        close = _modulus(e[:n, :, None] - e[n:, None, :]) <= DEFAULT_TOL
        u, _, vt = np.linalg.svd(close * (p[:n].swapaxes(-1, -2) @ p[n:]))
        det_p = np.linalg.det(p)
        u[..., -1] *= np.sign(det_p[:n] * det_p[n:] * np.linalg.det(u @ vt))[:, None]
        o_b = p[:n] @ u @ vt @ p[n:].swapaxes(-1, -2)
        o_prime_b = gb[n:] @ o_b.swapaxes(-1, -2) @ dagger(gb[:n])
        ok = np.abs(sym[:n] @ o_b - o_b @ sym[n:]).max(axis=(-2, -1)) <= _MATCH_TOL
        solved = todo[ok]
        o[solved] = _sandwich(MAGIC_BASIS, o_b[ok], _MAGIC_DAGGER)
        o_prime[solved] = _sandwich(MAGIC_BASIS, o_prime_b[ok].real, _MAGIC_DAGGER)
        phase[solved] = roots[n:][ok] / roots[:n][ok]
        todo = todo[~ok]
    if len(todo):
        raise NotEquivalent("spectra of m and l could not be matched")
    return o, o_prime, phase


def _dressed(g, rng):
    return kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ g @ kron(
        haar_unitary(2, rng), haar_unitary(2, rng)
    )


_CLASSES = {
    "haar": lambda rng: haar_unitary(4, rng),
    "cnot": lambda rng: cnot_gate(),
    "cnot2-core": lambda rng: cnot2_core(),
    "swap": lambda rng: swap_gate(),
    "identity": lambda rng: np.eye(4, dtype=complex),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(sorted(_CLASSES)), min_size=1, max_size=6))
def test_one_pass_takes_the_branch_of_the_two_branch_loop(seed, kinds):
    # both gates of a pair carry independent random global phases, which move
    # their fourth roots across branches; every output bit must stay
    rng = np.random.default_rng(seed)
    m = np.array([np.exp(1j * rng.uniform(0, 2 * np.pi)) * _CLASSES[k](rng) for k in kinds])
    l = np.array([np.exp(1j * rng.uniform(0, 2 * np.pi)) * _dressed(g, rng) for g in m])
    o, o_prime, phase = _two_branch_reference(m, l)
    pair = solve_local_corrections(m, l)
    assert np.array_equal(pair.o, o)
    assert np.array_equal(pair.o_prime, o_prime)
    assert np.array_equal(pair.phase, phase)
    single = solve_local_corrections(m[0], l[0])
    assert np.array_equal(single.o, o[0]) and single.phase == phase[0]


@settings(max_examples=90, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-10, 3e-10, 1e-9]))
def test_noisy_pairs_solve_where_the_two_branch_loop_did(seed, eps):
    # l carries a unitary error of size eps, so Tr l misses +-Tr m by about
    # eps: the sign must still go to the nearer of the two
    rng = np.random.default_rng(seed)
    m = np.exp(1j * rng.uniform(0, 2 * np.pi)) * haar_unitary(4, rng)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    noise = expm_hermitian(h + h.conj().T, -eps / np.linalg.norm(h + h.conj().T, 2))
    l = np.exp(1j * rng.uniform(0, 2 * np.pi)) * _dressed(m, rng) @ noise
    try:
        o, o_prime, phase = _two_branch_reference(m, l)
    except NotEquivalent:
        return
    pair = solve_local_corrections(m, l)
    assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-8
    assert np.array_equal(pair.o, o[0]) and pair.phase == phase[0]


def _split_symmetric_pair(seed, angle, log_split):
    """(m, l, |Tr m_b|): m with magic-basis spectrum {e^ia, e^-ia, -e^ia, -e^-ia},
    symmetric under negation so Tr m_b = Tr m_b^3 = 0, split by about
    10^log_split, and l an equivalent gate; both carry random global phases.
    a = pi/2 is the CNOT class, a = 0 another doubly degenerate class."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, np.pi - 0.1) if angle is None else angle
    split = rng.normal(size=4)
    angles = np.array([a, -a, np.pi + a, -np.pi - a]) + (split - split.mean()) * 10.0**log_split
    o, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    m = np.exp(1j * rng.uniform(0, 2 * np.pi)) * (
        MAGIC_BASIS @ (np.exp(0.5j * angles)[:, None] * o.T) @ _MAGIC_DAGGER
    )
    l = np.exp(1j * rng.uniform(0, 2 * np.pi)) * _dressed(m, rng)
    return m, l, [abs(np.exp(1j * k * angles).sum()) for k in (1, 3)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 0.0, np.pi / 2]),
    st.floats(min_value=-16.0, max_value=-11.0),
)
def test_nearly_symmetric_spectra_reconstruct_or_raise(seed, angle, log_split):
    m, l, traces = _split_symmetric_pair(seed, angle, log_split)
    assert max(traces) < 1e-9
    try:
        pair = solve_local_corrections(m, l)
    except NotEquivalent:
        return
    assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-8
    assert is_local(pair.o) and is_local(pair.o_prime)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 0.0, np.pi / 2]),
    st.floats(min_value=-7.0, max_value=-2.0),
)
def test_clearly_asymmetric_spectra_always_reconstruct(seed, angle, log_split):
    # Tr m_b at least 1e-8 from 0: the traces tell the signs apart, so an
    # equivalent pair never raises
    m, l, traces = _split_symmetric_pair(seed, angle, log_split)
    assume(traces[0] > 1e-8)
    pair = solve_local_corrections(m, l)
    assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-9
    assert is_local(pair.o) and is_local(pair.o_prime)


def test_solver_does_not_recompute_the_invariants(monkeypatch, rng):
    # one pass: the traces that pick the sign also test equivalence
    def forbidden(*args):
        raise AssertionError("solve_local_corrections called a second invariants pass")

    monkeypatch.setattr(invariants, "local_invariants", forbidden)
    monkeypatch.setattr(invariants, "are_equivalent", forbidden)
    m = haar_unitary(4, rng)
    pair = solve_local_corrections(m, _dressed(m, rng))
    assert is_local(pair.o)
    with pytest.raises(NotEquivalent):
        solve_local_corrections(cnot_gate(), swap_gate())


def test_a_near_miss_of_the_first_weight_is_retried(rng):
    # eigenvalues e^{i(phi + a)} and e^{i(phi - a + 1e-8)}, tan phi = w^2, nearly
    # collide in Re/w + w Im for the first weight w: its basis leaves off-diagonals of
    # about 1e-8, above the 1e-10 accepted and far below O(1), so the next weight must
    # take over
    w, off = invariants._DIAG_WEIGHTS[0], ~np.eye(4, dtype=bool)
    phi = np.arctan(w ** 2)
    ms = []
    for _ in range(8):
        a, b = rng.uniform(0.1, 1.0, size=2)
        o, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        ms.append((o * np.exp(1j * np.array([phi + a, phi - a + 1e-8, b, -b]))) @ o.T)
    ms = np.array(ms)
    first = np.linalg.eigh(ms.real / w + w * ms.imag)[1]
    missed = np.abs((first.swapaxes(-1, -2) @ ms @ first)[:, off]).max(axis=-1)
    assert ((missed > 1e-10) & (missed < 1e-6)).any()
    d, p = _diagonalize_symmetric_unitary(ms)
    assert np.abs((p.swapaxes(-1, -2) @ ms @ p)[:, off]).max() < 1e-10
    assert np.abs((p * d[:, None, :]) @ p.swapaxes(-1, -2) - ms).max() < 1e-12
