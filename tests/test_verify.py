import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavitygates import (
    cli,
    evolution,
    gates,
    invariants,
    linalg,
    sequences,
    serialize,
    spin,
    synthesis,
    verify,
)


def test_round_trip_draws_match_sequential_haar_draws():
    # the batched draws reproduce, bit for bit, one Haar draw per matrix from
    # consecutive slices of the normals (built once: np.log and np.cos may round a
    # stack unlike one value), in the order m, a, b, c, d of each trial
    ends = np.cumsum([32, 8, 8, 8, 8] * 7)[:-1]
    normals = iter(np.split(verify._round_trip_normals(7 * 64, 20050517), ends))
    cores, sides = verify._round_trip_draws(7, 20050517)
    assert cores.shape == (7, 4, 4) and sides.shape == (7, 4, 2, 2)
    for core, side in zip(cores, sides):
        assert np.array_equal(core, verify._haar_unitary(next(normals).reshape(2, 4, 4)))
        for factor in side:
            assert np.array_equal(factor, verify._haar_unitary(next(normals).reshape(2, 2, 2)))


def test_round_trip_normals_are_standard_and_the_draws_unitary():
    x = verify._round_trip_normals(verify.ROUND_TRIPS * 64, verify.ROUND_TRIP_SEED)
    assert x.size == 6400 and abs(x.mean()) < 0.05 and abs(x.var() - 1) < 0.05
    assert 0.04 <= np.mean(np.abs(x) > 1.96) <= 0.06
    cores, sides = verify._round_trip_draws(verify.ROUND_TRIPS, verify.ROUND_TRIP_SEED)
    assert linalg.is_unitary(cores).all() and linalg.is_unitary(sides).all()


def test_two_atom_evolution_metric_is_the_one_pulse_loop_bit_for_bit():
    # the four stacked pulses give the metric of four evolve calls, to the bit
    worst = 0.0
    for phi in (0.0, np.pi / 8, np.pi / 4, 1.0):
        u = evolution.evolve(2, phi, evolution.HamiltonianForm.LADDER)
        worst = max(worst, float(np.abs(u - verify._u2_printed(phi)).max()))
    metric = verify.check_two_atom_evolution().metrics[0].value
    assert metric.hex() == worst.hex()


def test_thermal_compensation_metrics_are_the_one_matrix_loop_bit_for_bit():
    # the stacked (form, nbar) grids give the first two metrics of one evolve,
    # thermal_evolve and compensation_layer call per point, to the bit
    worst_evolve = worst_place = 0.0
    for n in (2, 3):
        for form in evolution.HamiltonianForm:
            base = evolution.evolve(n, 0.7, form)
            h = evolution.build_hamiltonian(n, form, nbar=1.3, include_linear=True)
            sz = spin.collective_op("z", n)
            worst_place = max(worst_place, float(np.abs(h @ sz - sz @ h).max()))
            for nbar in (0.5, 3.7):
                raw = evolution.thermal_evolve(n, 0.7, form, nbar)
                comp = evolution.compensation_layer(n, form, nbar, 0.7)
                half = evolution.compensation_layer(n, form, nbar, 0.35)
                worst_evolve = max(worst_evolve, linalg.phase_distance(comp @ raw, base))
                for variant in (comp @ raw, raw @ comp, half @ raw @ half):
                    worst_place = max(worst_place, float(np.abs(variant - base).max()))
    metrics = verify.check_thermal_compensation().metrics
    assert metrics[0].value.hex() == worst_evolve.hex()
    assert metrics[1].value.hex() == worst_place.hex()


def test_round_trip_pairs_are_cached_read_only_draws():
    cores, targets = verify._round_trip_pairs()
    assert verify._round_trip_pairs()[1] is targets
    assert not cores.flags.writeable and not targets.flags.writeable
    drawn, sides = verify._round_trip_draws(verify.ROUND_TRIPS, verify.ROUND_TRIP_SEED)
    assert np.array_equal(cores, drawn)
    dressed = linalg.kron(sides[:, 0], sides[:, 1]) @ drawn @ linalg.kron(sides[:, 2], sides[:, 3])
    assert np.array_equal(targets, dressed)


def _src_env():
    """The environment with the imported cavitygates' directory first on PYTHONPATH."""
    src = str(Path(verify.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_round_trip_pairs_are_drawn_on_first_use_not_at_import():
    code = "import cavitygates.verify as v; assert v._round_trip_pairs.cache_info().currsize == 0"
    subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True)


def test_all_checks_load_no_numpy_random_that_the_import_did_not():
    # numpy 1.x loads numpy.random with numpy itself; the checks must not add it
    code = ("import sys, cavitygates; from cavitygates.verify import run_checks; "
            "loaded = 'numpy.random' in sys.modules; run_checks('all'); "
            "assert ('numpy.random' in sys.modules) == loaded")
    subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True)


def _entangling_echo(branch):
    """A wrong echo: one collective pulse, which leaves atom 1 entangled with atoms 2 and 3."""
    return sequences.GateSequence(3, (sequences.CollectiveEvolution(0.7 * branch),))


def test_a_wrong_spin_echo_is_reported_not_raised(monkeypatch, capsys):
    monkeypatch.setattr(verify, "spin_echo_u23", _entangling_echo)
    report = verify.check_spin_echo()
    assert not report.passed
    assert report.metrics[0].name == "off-diagonal block norm" and not report.metrics[0].passed
    assert cli.main(["verify", "cnot3"]) == 1
    assert "[FAIL] spin-echo isolation" in capsys.readouterr().out


def _swap_in_the_round_trip(monkeypatch):
    """SWAP as the first round-trip target: not locally equivalent to its Haar core."""
    cores, targets = verify._round_trip_pairs()
    targets = targets.copy()
    targets[0] = gates.swap_gate()
    monkeypatch.setattr(verify, "_round_trip_pairs", lambda: (cores, targets))


def test_a_check_that_raises_fails_its_report_and_the_others_still_run(monkeypatch, capsys):
    _swap_in_the_round_trip(monkeypatch)  # so the round trip's solver raises
    reports = verify.run_checks("all")
    assert len(reports) == 12
    failed = [report for report in reports if not report.passed]
    assert [report.name for report in failed] == ["check_correction_round_trip"]
    assert failed[0].artifacts == {"error": "gates have different local invariants"}
    assert cli.main(["verify", "all"]) == 1
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 11 and "[FAIL] check_correction_round_trip" in out
    # the reason follows the failing report's metric lines, and no other report has one
    reason = "    error: gates have different local invariants\n"
    assert "    FAIL raised: 1.000e+00 (tol 0.0e+00)\n" + reason in out
    assert out.count("\n    error: ") == 1


def _pulse_phases_off(monkeypatch):
    """Every pulse, ideal or thermal, rendered at phi + 1e-3, wherever `_pulses` is bound, once
    the named sequences are built: the checks compose right steps into wrong gates."""
    synthesis.cnot2_sequence(), synthesis.toffoli_sequence(False), synthesis.toffoli_sequence(True)
    pulses = evolution._pulses

    def off(n, forms, phis, c=None):
        return pulses(n, forms, np.add(phis, 1e-3), c)

    for module in (evolution, sequences):
        monkeypatch.setattr(module, "_pulses", off)


def _thermal_pulses_without_c_m(monkeypatch):
    """Thermal pulses rendered as the ideal ones: c m left out of their exponent rows."""
    pulses = evolution._pulses
    monkeypatch.setattr(evolution, "_pulses", lambda n, forms, phis, c=None: pulses(n, forms, phis))


def _cnot2_pulses_a_turn_longer(monkeypatch):
    """The cnot2 builder's pulses at pi/4 + 2 pi: the same gate, four times the time."""
    pulse = sequences.CollectiveEvolution(np.pi / 4 + 2 * np.pi, evolution.HamiltonianForm.LADDER)
    monkeypatch.setattr(synthesis, "_CNOT2_CORE", (pulse, synthesis._CNOT2_CORE[1], pulse))


def _wrong_lowering_operator(monkeypatch):
    """collective_op("-") returning S_+."""
    op = spin.collective_op
    monkeypatch.setattr(spin, "collective_op", lambda axis, n: op("+" if axis == "-" else axis, n))


#: One fault per check, put into the library code the check measures, never its expectation.
FAULTS = {
    "check_two_atom_evolution": _pulse_phases_off,
    "check_invariant_curve": _pulse_phases_off,
    "check_cnot_invariants": lambda mp: mp.setattr(gates, "cnot_gate", gates.swap_gate),
    "check_cnot2": _pulse_phases_off,
    "check_spin_echo": lambda mp: mp.setattr(verify, "spin_echo_u23", _entangling_echo),
    "check_cnot3": _pulse_phases_off,
    "check_toffoli": _pulse_phases_off,
    "check_gate_times": _cnot2_pulses_a_turn_longer,
    "check_thermal_compensation": _thermal_pulses_without_c_m,
    "check_correction_round_trip": _swap_in_the_round_trip,
    "check_swap_not_cnot": lambda mp: mp.setattr(verify, "are_equivalent", lambda a, b: True),
    "check_operator_identity": _wrong_lowering_operator,
}


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def test_every_check_has_a_fault():
    assert list(FAULTS) == [check.__name__ for check in verify.ALL_CHECKS]


@pytest.mark.parametrize("index, check", enumerate(FAULTS))
def test_each_check_fails_on_a_fault_in_the_code_it_measures(index, check, monkeypatch, capsys,
                                                             fresh_synthesis):
    FAULTS[check](monkeypatch)
    assert not verify.run_checks("all")[index].passed
    assert cli.main(["verify", "all"]) == 1
    capsys.readouterr()
    assert cli.main(["verify", "all", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["status"] == "fail" and doc["reports"][index]["status"] == "fail"


def test_check_cnot2_fails_on_ladder_pulses_rendered_with_the_casimir_h0(monkeypatch,
                                                                         fresh_synthesis):
    # the two forms differ by a collective S_z term, which is local: corrections solved
    # on the core as rendered would absorb it, but the closed-form layers do not
    pulses = evolution._pulses
    casimir = evolution.HamiltonianForm.CASIMIR

    def as_casimir(n, forms, phis, c=None):
        return pulses(n, [casimir for _ in forms], phis, c)

    for module in (evolution, sequences):
        monkeypatch.setattr(module, "_pulses", as_casimir)
    assert not verify.check_cnot2().passed


def test_the_spin_echo_factor_is_the_one_extract_factor_reads():
    factor = sequences.compose(synthesis.spin_echo_u23(+1))[:4, :4]
    artifact = verify.check_spin_echo().artifacts["extracted_factor"]
    assert artifact == serialize.matrix_to_json(factor)


def test_checks_and_public_functions_take_no_tolerance():
    # every check runs at fixed tolerances; none is a caller's setting
    for check in verify.ALL_CHECKS:
        assert not inspect.signature(check).parameters
    for module in (linalg, gates, spin, evolution, invariants, sequences, synthesis, serialize, verify):
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_"):
                assert "tol" not in inspect.signature(obj).parameters, f"{module.__name__}.{name}"
