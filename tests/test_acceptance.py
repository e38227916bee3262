"""Acceptance suite: every verification check at its stated tolerance.

Each test runs one check from `cavitygates.verify` (the same checks the
CLI `verify` verb exposes) and prints a pass/fail line with its worst
metric, so `pytest -s tests/test_acceptance.py` doubles as a readable
verification report.

tests/data/verify_floor.json records the value every metric of
`run_checks("all")` achieved when it was written.  Each metric must also
stay within max(100 x that value, 1e-13): a wrong rule or constant that
still passes its tolerance, where errors sit near 1e-14, fails here.  A
change that moves a metric on purpose rewrites the file and says so:

    PYTHONPATH=src python -c "import json; from cavitygates.verify import run_checks; \
print(json.dumps({r.name: {m.name: m.value for m in r.metrics} \
for r in run_checks('all')}, indent=2))" > tests/data/verify_floor.json
"""

import json
from pathlib import Path

import pytest

from cavitygates import verify


def _run(check):
    report = check()
    print(f"[{report.status.upper()}] {report.name}")
    for metric in report.metrics:
        flag = "ok  " if metric.passed else "FAIL"
        print(f"    {flag} {metric.name}: {metric.value:.3e} (tol {metric.tolerance:.1e})")
    failing = [m for m in report.metrics if not m.passed]
    assert not failing, f"{report.name}: {[m.name for m in failing]}"


def test_01_two_atom_evolution_closed_form():
    _run(verify.check_two_atom_evolution)


def test_02_invariant_curve():
    _run(verify.check_invariant_curve)


def test_03_cnot_invariants():
    _run(verify.check_cnot_invariants)


def test_04_two_atom_cnot_reconstruction():
    _run(verify.check_cnot2)


def test_05_spin_echo_factorization():
    _run(verify.check_spin_echo)


def test_06_three_atom_cnot():
    _run(verify.check_cnot3)


def test_07_toffoli_constructions():
    _run(verify.check_toffoli)


def test_08_gate_time_accounting():
    _run(verify.check_gate_times)


def test_09_thermal_compensation():
    _run(verify.check_thermal_compensation)


def test_10_correction_round_trip():
    _run(verify.check_correction_round_trip)


def test_11_swap_is_not_cnot():
    _run(verify.check_swap_not_cnot)


def test_12_operator_identity():
    _run(verify.check_operator_identity)


FLOOR = json.loads((Path(__file__).parent / "data" / "verify_floor.json").read_text())


def test_every_metric_stays_near_its_recorded_floor():
    got = {r.name: {m.name: m.value for m in r.metrics} for r in verify.run_checks("all")}
    assert {name: sorted(ms) for name, ms in got.items()} == {
        name: sorted(ms) for name, ms in FLOOR.items()
    }
    above = {
        (check, metric): (value, FLOOR[check][metric])
        for check, metrics in got.items()
        for metric, value in metrics.items()
        if value > max(100 * FLOOR[check][metric], 1e-13)
    }
    assert not above, f"metrics above 100 x their floor: {above}"


def test_all_checks_registry_is_complete():
    assert len(verify.ALL_CHECKS) == 12
    assert verify.VERIFY_TARGETS["all"] == verify.ALL_CHECKS


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
