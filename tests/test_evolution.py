import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import cavitygates
from cavitygates.errors import DegenerateParams, IndexOutOfRange, InvalidForm, NonFiniteValue
from cavitygates.evolution import (
    CavityParams,
    HamiltonianForm,
    _spectrum,
    build_hamiltonian,
    compensation_layer,
    compensation_rotation,
    coupling_eta,
    evolve,
    thermal_evolve,
    validity_ratio,
)
from cavitygates.linalg import expm_hermitian, phase_distance
from cavitygates.sequences import compose
from cavitygates.spin import dicke_projector_g
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
    for array in _spectrum(n, form):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_mutating_a_result_does_not_leak_into_the_next_call():
    for call in (
        lambda: evolve(3, 0.7, CASIMIR),
        lambda: evolve(2, 0.0, LADDER),
        lambda: thermal_evolve(3, 0.7, LADDER, 1.5),
        lambda: thermal_evolve(1, 0.7, CASIMIR, 0.0),
        lambda: compose(cnot2_sequence(), nbar=0.5),
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
