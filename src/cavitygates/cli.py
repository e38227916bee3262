"""Command-line front end.

Verbs:
  invariants  print the local invariants of a named gate or matrix file
  evolve      print the collective evolution unitary for given atoms/phase
  synthesize  print a gate sequence, its composed matrix and timing
  verify      run the numerical verification checks (exit 1 on failure)
  params      report eta, the dispersive validity ratio and gate times

Data goes to stdout (text by default, --json for machine format),
diagnostics to stderr.  Exit codes: 0 pass, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import pi
from pathlib import Path

import numpy as np

from . import serialize, verify
from .errors import CavityGatesError, _check_finite
from .evolution import (
    CavityParams,
    HamiltonianForm,
    VALIDITY_WARN_THRESHOLD,
    coupling_eta,
    evolve,
    thermal_evolve,
    validity_ratio,
)
from .gates import NAMED_GATES, named_gate
from .invariants import local_invariants
from .sequences import collective_time, compose
from .synthesis import cnot2_sequence, cnot3_sequence, toffoli_sequence

#: angles are printed in units of pi with this many significant digits
ANGLE_DIGITS = 12


def _fmt_angle(radians: float) -> str:
    return f"{radians / pi:.{ANGLE_DIGITS}g} pi"


def _load_gate(name_or_path: str) -> np.ndarray:
    path = Path(name_or_path)
    if path.is_file():
        return serialize.matrix_from_json(json.loads(path.read_text()))
    return named_gate(name_or_path)


def _cmd_invariants(args) -> int:
    gate = _load_gate(args.gate)
    inv = local_invariants(gate)
    if args.json:
        print(json.dumps(serialize.invariants_to_json(inv)))
    else:
        # + 0.0 turns -0.0 into +0.0 for display
        print(f"g1 = {inv.g1.real + 0.0:+.12g}{inv.g1.imag + 0.0:+.12g}i")
        print(f"g2 = {inv.g2.real + 0.0:+.12g}{inv.g2.imag + 0.0:+.12g}i")
    return 0


def _cmd_evolve(args) -> int:
    form = HamiltonianForm(args.form)
    _check_finite("nbar", args.nbar)
    if args.no_compensate:
        u = thermal_evolve(args.atoms, args.phi, form, args.nbar)
    else:
        u = evolve(args.atoms, args.phi, form)
    if args.json:
        print(json.dumps(serialize.matrix_to_json(u)))
    else:
        print(
            f"# atoms={args.atoms} phi={_fmt_angle(args.phi)} form={form.value} "
            f"nbar={args.nbar} compensated={not args.no_compensate}"
        )
        print(serialize.format_matrix(u))
    return 0


def _build_sequence(args):
    if args.gate == "cnot2":
        return cnot2_sequence()
    if args.gate == "cnot3":
        return cnot3_sequence(args.control, args.target)
    return toffoli_sequence(simplified=args.simplified)


def _cmd_synthesize(args) -> int:
    seq = _build_sequence(args)
    u = compose(seq)
    time = collective_time(seq)
    if args.json:
        print(
            json.dumps(
                {
                    "sequence": serialize.sequence_to_json(seq),
                    "matrix": serialize.matrix_to_json(u),
                    "collective_time": time,
                }
            )
        )
        return 0
    print(f"# {seq.label}: {len(seq.steps)} steps on {seq.n_atoms} atoms")
    print(json.dumps(serialize.sequence_to_json(seq), indent=2))
    print(f"collective time = {_fmt_angle(time)} (units 1/eta)")
    print("composed matrix:")
    print(serialize.format_matrix(u))
    return 0


def _cmd_verify(args) -> int:
    reports = verify.run_checks(args.target)
    failed = not all(report.passed for report in reports)
    if args.json:
        payload = [serialize.report_to_json(report) for report in reports]
        print(json.dumps({"status": "fail" if failed else "pass", "reports": payload}))
    else:
        for report in reports:
            print(f"[{report.status.upper()}] {report.name}")
            for m in report.metrics:
                flag = "ok  " if m.passed else "FAIL"
                print(f"    {flag} {m.name}: {m.value:.3e} (tol {m.tolerance:.1e})")
    return 1 if failed else 0


def _cmd_params(args) -> int:
    params = CavityParams(
        g=args.g, delta=args.delta, kappa=args.kappa, nbar=args.nbar, n_atoms=args.n
    )
    eta = coupling_eta(params)
    ratio = validity_ratio(params)
    # collective phase of each named gate, units of 1/eta
    phases = {
        "cnot2": collective_time(cnot2_sequence()),
        "cnot3": collective_time(cnot3_sequence(2, 3)),
        "toffoli": collective_time(toffoli_sequence(simplified=False)),
        "toffoli-simplified": collective_time(toffoli_sequence(simplified=True)),
    }
    times = {
        name: (phase / abs(eta) if eta != 0 else float("inf"))
        for name, phase in phases.items()
    }
    if ratio >= VALIDITY_WARN_THRESHOLD:
        print(
            f"warning: validity ratio {ratio:.3g} >= {VALIDITY_WARN_THRESHOLD}; "
            "the dispersive approximation is questionable",
            file=sys.stderr,
        )
    if args.json:
        print(
            json.dumps(
                {
                    "params": serialize.cavity_params_to_json(params),
                    "eta": eta,
                    "validity_ratio": ratio,
                    "gate_times_s": times,
                }
            )
        )
        return 0
    print(f"eta = {eta:.6g} rad/s")
    print(f"validity ratio g sqrt(N) / |i delta + kappa| = {ratio:.6g}")
    for name, seconds in times.items():
        print(f"{name}: phase {_fmt_angle(phases[name])} -> {seconds:.6g} s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitygates",
        description="Synthesize and verify quantum logic gates driven by the "
        "collective atom-cavity interaction.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_inv = sub.add_parser("invariants", help="local invariants of a two-qubit gate")
    p_inv.add_argument(
        "gate",
        help=f"matrix JSON file or named gate ({', '.join(sorted(NAMED_GATES))})",
    )
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(func=_cmd_invariants)

    p_evo = sub.add_parser("evolve", help="collective evolution unitary")
    p_evo.add_argument("--atoms", type=int, required=True, choices=(1, 2, 3))
    p_evo.add_argument("--phi", type=float, required=True, help="phase eta*t in radians")
    p_evo.add_argument("--nbar", type=float, default=0.0)
    p_evo.add_argument("--form", choices=[f.value for f in HamiltonianForm], default="ladder")
    p_evo.add_argument("--no-compensate", action="store_true")
    p_evo.add_argument("--json", action="store_true")
    p_evo.set_defaults(func=_cmd_evolve)

    p_syn = sub.add_parser("synthesize", help="build a gate sequence")
    p_syn.add_argument("gate", choices=("cnot2", "cnot3", "toffoli"))
    p_syn.add_argument("--control", type=int, default=2)
    p_syn.add_argument("--target", type=int, default=3)
    p_syn.add_argument("--simplified", action="store_true")
    p_syn.add_argument("--json", action="store_true")
    p_syn.set_defaults(func=_cmd_synthesize)

    p_ver = sub.add_parser("verify", help="run numerical verification checks")
    p_ver.add_argument("target", choices=sorted(verify.VERIFY_TARGETS))
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    p_par = sub.add_parser("params", help="coupling factor and gate times")
    p_par.add_argument("--g", type=float, required=True, help="dipole coupling, rad/s")
    p_par.add_argument("--delta", type=float, required=True, help="detuning, rad/s")
    p_par.add_argument("--kappa", type=float, required=True, help="cavity loss, rad/s")
    p_par.add_argument("--nbar", type=float, default=0.0)
    p_par.add_argument("--n", type=int, default=2, choices=(1, 2, 3))
    p_par.add_argument("--json", action="store_true")
    p_par.set_defaults(func=_cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CavityGatesError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
