import json
from math import inf, nan

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cavitygates import cli, verify
from cavitygates.cli import main
from cavitygates.gates import cnot_gate, u23_gate
from cavitygates.invariants import LocalInvariants
from cavitygates.linalg import phase_distance
from cavitygates.serialize import matrix_from_json, matrix_to_json, report_to_json
from cavitygates.verify import run_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_named_gate(capsys):
    code, out, _ = run(capsys, "invariants", "cnot", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["g1"]["re"] == pytest.approx(0.0, abs=1e-12)
    assert doc["g2"]["re"] == pytest.approx(1.0, abs=1e-12)


def test_invariants_text_output(capsys):
    code, out, _ = run(capsys, "invariants", "swap")
    assert code == 0
    assert "g1 = -1" in out
    assert "g2 = -3" in out


def test_invariants_from_file(tmp_path, capsys):
    path = tmp_path / "u23.json"
    path.write_text(json.dumps(matrix_to_json(u23_gate())))
    code, out, _ = run(capsys, "invariants", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["g1"]["re"] == pytest.approx(0.25, abs=1e-12)
    assert doc["g2"]["re"] == pytest.approx(1.5, abs=1e-12)


def test_invariants_unknown_gate_is_usage_error(capsys):
    code, _, err = run(capsys, "invariants", "nosuchgate")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"dim": 2, "re": [[1, 0], [0, 1]]},
        {"dim": 2.7, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    ],
    ids=["empty", "list", "no-im", "fractional-dim"],
)
def test_invariants_malformed_matrix_file_is_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_evolve_json_matches_library(capsys):
    code, out, _ = run(capsys, "evolve", "--atoms", "2", "--phi", "0.0", "--json")
    assert code == 0
    assert_allclose(matrix_from_json(json.loads(out)), np.eye(4), atol=1e-12)


def test_evolve_single_atom(capsys):
    # one atom: ladder form without thermal terms is the |0><0| projector,
    # so the evolution is a phase on |0> only
    code, out, _ = run(capsys, "evolve", "--atoms", "1", "--phi", "1.0", "--json")
    assert code == 0
    u = matrix_from_json(json.loads(out))
    assert_allclose(u, np.diag([np.exp(-1j), 1.0]), atol=1e-12)


def test_evolve_compensation_makes_nbar_irrelevant(capsys):
    _, out_cold, _ = run(
        capsys, "evolve", "--atoms", "2", "--phi", "0.7", "--json"
    )
    _, out_hot, _ = run(
        capsys, "evolve", "--atoms", "2", "--phi", "0.7", "--nbar", "2.5", "--json"
    )
    cold = matrix_from_json(json.loads(out_cold))
    hot = matrix_from_json(json.loads(out_hot))
    assert np.abs(cold - hot).max() < 1e-9


def test_evolve_no_compensate_exposes_thermal_rotation(capsys):
    _, out_raw, _ = run(
        capsys,
        "evolve", "--atoms", "2", "--phi", "0.7", "--nbar", "2.5", "--no-compensate",
        "--json",
    )
    _, out_cold, _ = run(capsys, "evolve", "--atoms", "2", "--phi", "0.7", "--json")
    raw = matrix_from_json(json.loads(out_raw))
    cold = matrix_from_json(json.loads(out_cold))
    assert np.abs(raw - cold).max() > 1e-3


@pytest.mark.parametrize(
    "extra", [("--phi", "nan"), ("--phi", "inf"), ("--phi", "0.5", "--nbar", "inf"),
              # finite, but phi (H_0 + c S_z) overflows
              ("--phi", "1e308"), ("--phi", "1", "--nbar", "1e308", "--no-compensate")]
)
def test_evolve_non_finite_input_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "evolve", "--atoms", "2", *extra)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("extra", [(), ("--no-compensate",)], ids=["compensated", "raw"])
def test_evolve_negative_nbar_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "evolve", "--atoms", "2", "--phi", "0.5", "--nbar", "-1", *extra)
    assert code == 2
    assert out == ""
    assert "nbar must be >= 0" in err


def test_synthesize_cnot2_json(capsys):
    code, out, _ = run(capsys, "synthesize", "cnot2", "--json")
    assert code == 0
    doc = json.loads(out)
    composed = matrix_from_json(doc["matrix"])
    assert phase_distance(composed, cnot_gate()) < 1e-9
    assert doc["collective_time"] == pytest.approx(np.pi / 2)
    assert doc["sequence"]["n_atoms"] == 2


def test_synthesize_toffoli_text(capsys):
    code, out, _ = run(capsys, "synthesize", "toffoli", "--simplified")
    assert code == 0
    assert "collective time" in out
    assert "8 pi" in out


def test_verify_cnot2_passes(capsys):
    code, out, _ = run(capsys, "verify", "cnot2")
    assert code == 0
    assert "[PASS]" in out
    assert "FAIL" not in out


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "all", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert len(doc["reports"]) == 12
    assert all(r["status"] == "pass" for r in doc["reports"])
    reports = [report_to_json(report) for report in run_checks("all")]
    assert out == json.dumps({"status": "pass", "reports": reports}) + "\n"


def test_params_reports_eta_and_times(capsys):
    code, out, _ = run(
        capsys, "params", "--g", "1e5", "--delta", "1e7", "--kappa", "1e5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    eta = 1e10 * 1e7 / (1e10 + 1e14)
    assert doc["eta"] == pytest.approx(eta)
    assert doc["gate_times_s"]["toffoli"] == pytest.approx(16 * np.pi / eta)
    assert doc["gate_times_s"]["cnot2"] == pytest.approx(np.pi / 2 / eta)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("rates", [("0", "1e7"), ("1e5", "0")], ids=["g=0", "delta=0"])
def test_params_json_is_strict_json_when_eta_is_zero(capsys, rates):
    g, delta = rates
    argv = ("params", "--g", g, "--delta", delta, "--kappa", "1e5")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["eta"] == 0.0
    assert set(doc["gate_times_s"].values()) == {None}
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "cnot2: phase 0.5 pi -> inf s" in out


def test_verify_json_writes_an_infinite_metric_as_null(monkeypatch, capsys):
    def unbounded():
        return verify.Report("unbounded", (verify.Metric("error", inf, 1e-9),))

    monkeypatch.setitem(verify.VERIFY_TARGETS, "cnot2", (unbounded,))
    code, out, _ = run(capsys, "verify", "cnot2", "--json")
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["status"] == "fail"
    assert doc["reports"][0]["metrics"][0] == {
        "name": "error", "value": None, "tolerance": 1e-9, "passed": False,
    }


def test_a_non_finite_number_in_json_output_is_an_error_not_nan(monkeypatch, capsys):
    # every --json verb dumps strict JSON: a NaN fails the command, it is never printed
    monkeypatch.setattr(cli, "local_invariants", lambda gate: LocalInvariants(nan, 1j))
    code, out, err = run(capsys, "invariants", "cnot", "--json")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_params_warns_when_dispersive_limit_strained(capsys):
    code, _, err = run(
        capsys, "params", "--g", "1e6", "--delta", "1e6", "--kappa", "0", "--json"
    )
    assert code == 0
    assert "warning" in err


@pytest.mark.parametrize("g, warns", [(1.4e6, True), (3.5e5, False)])
def test_params_warning_threshold(g, warns, capsys):
    # validity ratio g sqrt(2) / delta: about 0.2 warns, about 0.05 does not
    code, _, err = run(capsys, "params", "--g", str(g), "--delta", "1e7", "--kappa", "0", "--json")
    assert code == 0
    assert ("warning" in err) is warns


def test_params_warns_that_a_negative_eta_runs_the_inverse_pulse(capsys):
    # delta < 0 makes eta < 0: the times are |phi / eta| and the JSON is as for delta > 0
    rates = ("--g", "1e5", "--kappa", "1e5")
    code, out, err = run(capsys, "params", *rates, "--delta=-1e7", "--json")
    assert code == 0
    assert "eta < 0" in err and "U(-phi)" in err
    _, mirrored, err = run(capsys, "params", *rates, "--delta", "1e7", "--json")
    assert "eta < 0" not in err
    doc, mirrored = json.loads(out), json.loads(mirrored)
    assert doc["eta"] == -mirrored["eta"]
    assert doc["gate_times_s"] == mirrored["gate_times_s"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--bogus-flag"])
    assert exc.value.code == 2


def test_params_non_finite_rate_is_usage_error(capsys):
    code, out, err = run(capsys, "params", "--g", "nan", "--delta", "1e7", "--kappa", "1e5", "--json")
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("g", ["1", "1e200"])
def test_params_overflowing_rates_are_usage_errors(capsys, g):
    code, out, err = run(capsys, "params", "--g", g, "--delta", "1e200", "--kappa", "0", "--json")
    assert code == 2
    assert out == ""
    assert "overflows" in err


def test_degenerate_params_exit_code(capsys):
    code, _, err = run(capsys, "params", "--g", "1", "--delta", "0", "--kappa", "0")
    assert code == 2
    assert "error" in err
