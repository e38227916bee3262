import copy
import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import cavitygates
from cavitygates import evolution
from cavitygates.errors import DegenerateParams, IndexOutOfRange, InvalidForm, NonFiniteValue
from cavitygates.evolution import (
    CavityParams,
    HamiltonianForm,
    _basis,
    _linear_coefficient,
    _pulses,
    build_hamiltonian,
    compensation_layer,
    compensation_rotation,
    coupling_eta,
    evolve,
    thermal_evolve,
    validity_ratio,
)
from cavitygates.linalg import expm_hermitian, phase_distance
from cavitygates.sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    compose,
    local_layer_unitary,
    step_unitary,
)
from cavitygates.spin import collective_op, dicke_projector_g, s_squared
from cavitygates.synthesis import cnot2_sequence

LADDER = HamiltonianForm.LADDER
CASIMIR = HamiltonianForm.CASIMIR


def test_coupling_eta_values():
    assert coupling_eta(CavityParams(g=1, delta=1, kappa=0)) == pytest.approx(1.0)
    assert coupling_eta(CavityParams(g=2, delta=3, kappa=4)) == pytest.approx(12 / 25)
    assert coupling_eta(CavityParams(g=1, delta=0, kappa=1)) == 0.0
    # negative detuning flips the sign
    assert coupling_eta(CavityParams(g=1, delta=-2, kappa=0)) < 0


def test_coupling_eta_degenerate():
    with pytest.raises(DegenerateParams):
        coupling_eta(CavityParams(g=1, delta=0, kappa=0))


def test_validity_ratio_values():
    assert validity_ratio(CavityParams(g=0, delta=1, kappa=0)) == 0.0
    assert validity_ratio(
        CavityParams(g=1, delta=0, kappa=2, n_atoms=2)
    ) == pytest.approx(np.sqrt(2) / 2)
    assert validity_ratio(
        CavityParams(g=0.01, delta=1, kappa=0, n_atoms=2)
    ) == pytest.approx(0.01 * np.sqrt(2))
    with pytest.raises(DegenerateParams):
        validity_ratio(CavityParams(g=1, delta=0, kappa=0))


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(g=-1, delta=1, kappa=0)
    with pytest.raises(ValueError):
        CavityParams(g=1, delta=1, kappa=0, nbar=-0.5)


@pytest.mark.parametrize("field", ["g", "delta", "kappa", "nbar"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cavity_params_reject_non_finite_values(field, value):
    values = {"g": 1e5, "delta": 1e7, "kappa": 1e5, "nbar": 0.0, field: value}
    with pytest.raises(NonFiniteValue):
        CavityParams(**values)


def test_ladder_hamiltonian_is_twice_projector():
    h = build_hamiltonian(2, LADDER)
    assert_allclose(h, 2 * dicke_projector_g(), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nbar", [0.0, 0.5, 2.0])
def test_forms_agree_with_linear_terms(n, nbar):
    hl = build_hamiltonian(n, LADDER, nbar=nbar, include_linear=True)
    hc = build_hamiltonian(n, CASIMIR, nbar=nbar, include_linear=True)
    assert np.abs(hl - hc).max() < 1e-12


def test_single_atom_ladder_form():
    assert_allclose(
        build_hamiltonian(1, LADDER, nbar=0.0, include_linear=True), np.diag([1, 0])
    )


def test_forms_without_linear_differ_by_sz():
    # dropping the "linear term" means different things per form
    hl = build_hamiltonian(2, LADDER)
    hc = build_hamiltonian(2, CASIMIR)
    assert_allclose(hl - hc, np.diag([1, 0, 0, -1]), atol=1e-12)


def test_evolve_at_zero_phase():
    assert_allclose(evolve(2, 0.0, LADDER), np.eye(4), atol=1e-15)


def test_evolve_matches_closed_form():
    for phi in (0.2, np.pi / 4, 1.0):
        c, s = np.cos(phi), np.sin(phi)
        printed = np.exp(-1j * phi) * np.array(
            [
                [np.exp(-1j * phi), 0, 0, 0],
                [0, c, -1j * s, 0],
                [0, -1j * s, c, 0],
                [0, 0, 0, np.exp(1j * phi)],
            ]
        )
        assert np.abs(evolve(2, phi, LADDER) - printed).max() < 1e-12


def test_evolve_operator_form():
    # U(phi) = 1 - e^{-i phi} 2i G sin(phi) for the two-atom ladder form
    g = dicke_projector_g()
    for phi in (0.3, 1.1):
        expected = np.eye(4) - np.exp(-1j * phi) * 2j * g * np.sin(phi)
        assert np.abs(evolve(2, phi, LADDER) - expected).max() < 1e-12


def test_evolve_additivity():
    for form in (LADDER, CASIMIR):
        u = evolve(3, 0.4, form) @ evolve(3, 0.9, form)
        assert_allclose(u, evolve(3, 1.3, form), atol=1e-12)


def test_evolution_api():
    assert list(inspect.signature(evolve).parameters) == ["n", "phi", "form"]
    assert list(inspect.signature(thermal_evolve).parameters) == ["n", "phi", "form", "nbar"]
    assert cavitygates.thermal_evolve is thermal_evolve


def test_compensation_rotation_angles():
    assert compensation_rotation(LADDER, 0.0, 1.0) == ("z", 0.0)
    axis, angle = compensation_rotation(CASIMIR, 0.0, np.pi)
    assert axis == "z" and angle == pytest.approx(-np.pi)
    axis, angle = compensation_rotation(LADDER, 1.0, np.pi / 4)
    assert angle == pytest.approx(-np.pi / 2)


def test_compensated_evolution_is_nbar_independent():
    base = evolve(2, 0.8, LADDER)
    for nbar in (0.0, 0.5, 2.5, 5.0):
        u = compensation_layer(2, LADDER, nbar, 0.8) @ thermal_evolve(2, 0.8, LADDER, nbar)
        assert phase_distance(u, base) < 1e-9
        assert np.abs(u - base).max() < 1e-9


def test_compensated_equals_dropped_linear():
    for form in (LADDER, CASIMIR):
        ideal = evolve(3, 0.6, form)
        thermal = compensation_layer(3, form, 1.7, 0.6) @ thermal_evolve(3, 0.6, form, 1.7)
        assert np.abs(ideal - thermal).max() < 1e-12


def test_compensation_placement_is_free():
    # S_z commutes with H, so the correction may come before, after, or split
    phi, nbar = 0.7, 1.3
    for form in (LADDER, CASIMIR):
        raw = thermal_evolve(2, phi, form, nbar)
        comp = compensation_layer(2, form, nbar, phi)
        half = compensation_layer(2, form, nbar, phi / 2)
        after = comp @ raw
        before = raw @ comp
        split = half @ raw @ half
        assert np.abs(after - before).max() < 1e-12
        assert np.abs(after - split).max() < 1e-12


@pytest.mark.parametrize(
    "phi,nbar",
    [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 1.0), (0.5, np.nan), (0.5, np.inf)],
)
def test_evolve_rejects_non_finite_input(phi, nbar):
    with pytest.raises(NonFiniteValue):
        thermal_evolve(2, phi, LADDER, nbar)
    with pytest.raises(NonFiniteValue):
        thermal_evolve(3, phi, CASIMIR, nbar)
    if not np.isfinite(phi):
        with pytest.raises(NonFiniteValue):
            evolve(3, phi, CASIMIR)


def test_the_spectrum_bound_is_the_largest_sector_value():
    h, m = evolution._SPECTRUM_BOUND
    spectra = [_basis(n) for n in (1, 2, 3)]
    assert max(abs(row).max() for _, _, h0, _ in spectra for row in h0) == h
    assert max(abs(ms).max() for _, ms, _, _ in spectra) == m


@pytest.mark.parametrize("phi, nbar", [(1e308, 0.0), (-1e308, 0.0), (1.0, 1e308), (0.0, 1e308),
                                       (1e200, 1e200)])
def test_a_pulse_whose_exponent_overflows_is_rejected(phi, nbar):
    for form in HamiltonianForm:
        for n in (1, 2, 3):
            with pytest.raises(NonFiniteValue, match="overflows"):
                thermal_evolve(n, phi, form, nbar)
            if nbar == 0.0:
                with pytest.raises(NonFiniteValue, match="overflows"):
                    evolve(n, phi, form)


@pytest.mark.parametrize("form", list(HamiltonianForm))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_largest_admitted_exponents_render_finite(n, form):
    phi_max = np.finfo(float).max / evolution._SPECTRUM_BOUND[0]
    for phi in (phi_max, -phi_max):
        assert np.isfinite(evolve(n, phi, form)).all()
        assert np.isfinite(compose(GateSequence(n, (CollectiveEvolution(phi, form),)))).all()
        with pytest.raises(NonFiniteValue, match="overflows"):
            evolve(n, np.nextafter(phi, 2 * phi), form)
    # c = max/2 or max/2 + 1: |phi| (4 + 3/2 c) is 3/4 of the largest float
    assert np.isfinite(thermal_evolve(n, -1.0, form, np.finfo(float).max / 4)).all()


def test_compose_rejects_non_finite_nbar():
    for nbar in (np.inf, np.nan):
        with pytest.raises(NonFiniteValue):
            compose(cnot2_sequence(), nbar=nbar)


def test_evolve_rejects_bad_form_and_atom_count():
    with pytest.raises(ValueError):
        evolve(2, 0.5, "ladder")
    with pytest.raises(IndexOutOfRange):
        evolve(2.0, 0.5, LADDER)
    with pytest.raises(ValueError):
        thermal_evolve(2, 0.5, "ladder", 1.0)
    with pytest.raises(IndexOutOfRange):
        thermal_evolve(4, 0.5, LADDER, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: evolve(2, 0.5, "ladder"),
        lambda: thermal_evolve(2, 0.5, "casimir", 1.0),
        lambda: build_hamiltonian(2, "ladder"),
        lambda: compensation_rotation("casimir", 1.0, 0.5),
        lambda: compensation_layer(2, None, 1.0, 0.5),
    ],
)
def test_unknown_form_raises_invalid_form(call):
    with pytest.raises(InvalidForm):
        call()


@pytest.mark.parametrize("nbar, phi", [(np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan), (1.0, -np.inf)])
@pytest.mark.parametrize("form", list(HamiltonianForm))
def test_compensation_rejects_non_finite_input(form, nbar, phi):
    with pytest.raises(NonFiniteValue):
        compensation_rotation(form, nbar, phi)
    with pytest.raises(NonFiniteValue):
        compensation_layer(2, form, nbar, phi)


@pytest.mark.parametrize("nbar", [np.nan, np.inf])
@pytest.mark.parametrize("form", list(HamiltonianForm))
def test_build_hamiltonian_rejects_non_finite_nbar(form, nbar):
    with pytest.raises(NonFiniteValue):
        build_hamiltonian(2, form, nbar=nbar, include_linear=True)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("form", list(HamiltonianForm))
def test_cached_spectrum_is_read_only(n, form):
    # the sector projectors, the S_z values, the form's row of values, and the map of rows
    projectors, m, h0, rows = _basis(n)
    for array in (projectors, m, h0[rows[form]]):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(TypeError):
        rows[form] = m


def test_a_form_found_by_value_unpickled_or_deep_copied_keys_its_row():
    # forms hash by identity, in C, so every way of getting a member must give the one singleton
    assert HamiltonianForm.__hash__ is object.__hash__
    _, _, h0, rows = _basis(2)
    by_form = {form: h0[rows[form]] for form in HamiltonianForm}
    for form in HamiltonianForm:
        for same in (HamiltonianForm(form.value), pickle.loads(pickle.dumps(form))):
            assert same is form and by_form[same] is by_form[form]
        assert np.array_equal(_pulses(2, [HamiltonianForm(form.value)], 0.7), [evolve(2, 0.7, form)])
    for table in (pickle.loads(pickle.dumps(by_form)), copy.deepcopy(by_form)):
        assert list(table) == list(HamiltonianForm)
        for form in HamiltonianForm:
            assert np.array_equal(table[form], by_form[form])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_diagonalizes_s_squared_and_sz(n):
    projectors, m, h0, rows = _basis(n)
    d = 2 ** n
    s2 = h0[rows[CASIMIR]] + m * m
    assert np.abs(np.tensordot(s2, projectors, 1).reshape(d, d) - s_squared(n)).max() < 1e-14
    # one sector per (j, m), n + 1 of the largest j, and the two j = 1/2 doublets of three
    # atoms share one per m; sorted by j(j+1) + m/2, the eigenvalue of S^2 + S_z / 2
    assert len(m) == {1: 2, 2: 4, 3: 6}[n]
    assert np.all(np.diff(s2 + m / 2) > 0)
    # the values are exact quarter-integers, and each form's row is exactly its k
    assert np.array_equal(4 * s2, np.round(4 * s2))
    assert np.array_equal(2 * m, np.round(2 * m))
    assert np.array_equal(h0[rows[LADDER]], s2 - m * m + m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sector_projectors_resolve_the_identity_and_both_hamiltonians(n):
    # independent of how the table is built: a complete set of orthogonal projectors on
    # which each form's H_0 and S_z take the cached values
    projectors, m, h0, rows = _basis(n)
    d = 2 ** n
    pis = projectors.reshape(-1, d, d)
    assert np.abs(pis.sum(0) - np.eye(d)).max() < 1e-15
    assert np.abs(pis @ pis - pis).max() < 1e-15
    assert np.abs(sum(m_s * p for m_s, p in zip(m, pis)) - collective_op("z", n)).max() < 1e-14
    for form in HamiltonianForm:
        h = sum(h_s * p for h_s, p in zip(h0[rows[form]], pis))
        assert np.abs(h - build_hamiltonian(n, form)).max() < 1e-14


def _pulse_pairs():
    """(evolve, thermal_evolve at nbar 1.5) for every atom count and form, phi = 0.7."""
    return [(evolve(n, 0.7, form), thermal_evolve(n, 0.7, form, 1.5))
            for n in (1, 2, 3) for form in HamiltonianForm]


def test_ideal_pulses_read_h0_from_build_hamiltonian_not_the_thermal_coefficient(monkeypatch):
    # H_0 has one definition: another thermal rule moves the thermal pulses only
    def other_rule(form, nbar):
        return -2.0 * (nbar + 1.0) if form is LADDER else -(2.0 * nbar + 1.0)

    before = _pulse_pairs()
    _basis.cache_clear()
    monkeypatch.setattr(evolution, "_linear_coefficient", other_rule)
    try:
        after = _pulse_pairs()
    finally:
        monkeypatch.undo()
        _basis.cache_clear()
    for (ideal, thermal), (ideal_now, thermal_now) in zip(before, after):
        assert np.array_equal(ideal_now, ideal)
        assert not np.allclose(thermal_now, thermal)


@st.composite
def _pulse_stacks(draw):
    """(forms, phis, nbars) of a stack of 1 to 12 pulses."""
    k = draw(st.integers(1, 12))
    forms = draw(st.lists(st.sampled_from(list(HamiltonianForm)), min_size=k, max_size=k))
    phis = draw(st.lists(st.floats(-20.0, 20.0), min_size=k, max_size=k))
    nbars = draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k))
    return forms, np.array(phis), nbars


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(stack=_pulse_stacks())
def test_mixed_pulse_stack_is_the_per_pulse_calls_bit_for_bit(n, stack):
    forms, phis, nbars = stack
    coeffs = np.array([_linear_coefficient(f, nbar) for f, nbar in zip(forms, nbars)])
    ideal = [evolve(n, phi, f) for f, phi in zip(forms, phis)]
    thermal = [thermal_evolve(n, phi, f, nbar) for f, phi, nbar in zip(forms, phis, nbars)]
    assert np.array_equal(_pulses(n, forms, phis), ideal)
    assert np.array_equal(_pulses(n, forms, phis, coeffs), thermal)


def test_mutating_a_result_does_not_leak_into_the_next_call():
    for call in (
        lambda: evolve(3, 0.7, CASIMIR),
        lambda: evolve(2, 0.0, LADDER),
        lambda: thermal_evolve(3, 0.7, LADDER, 1.5),
        lambda: thermal_evolve(1, 0.7, CASIMIR, 0.0),
        lambda: compose(cnot2_sequence(), nbar=0.5),
        # one-step renders are items of a fresh stack, never views of a cached one
        lambda: step_unitary(CollectiveEvolution(0.7, LADDER), 3),
        lambda: step_unitary(GlobalPhase(0.5), 2),
        lambda: local_layer_unitary(LocalLayer(((1, "x", 0.3), (1, "y", 0.2), (3, "z", -0.6))), 3),
    ):
        first = call()
        expected = first.copy()
        first[...] = 7.0
        assert np.array_equal(call(), expected)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    form=st.sampled_from(list(HamiltonianForm)),
    phi=st.floats(min_value=-20.0, max_value=20.0),
    nbar=st.floats(min_value=0.0, max_value=10.0),
)
def test_evolve_matches_direct_exponential(n, form, phi, nbar):
    # reference: diagonalize the full Hamiltonian on every call, and build
    # the compensation from Kronecker products of one-qubit rotations
    ideal = evolve(n, phi, form)
    thermal = thermal_evolve(n, phi, form, nbar)
    h = build_hamiltonian(n, form)
    assert np.abs(ideal - expm_hermitian(h, phi)).max() < 1e-10
    h = build_hamiltonian(n, form, nbar=nbar, include_linear=True)
    assert np.abs(thermal - expm_hermitian(h, phi)).max() < 1e-10
    compensated = compensation_layer(n, form, nbar, phi) @ thermal
    assert np.abs(compensated - ideal).max() < 1e-10
