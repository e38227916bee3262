"""Spans recorded around library calls, from outside the package.

Modules of the package import each other's functions by name
(`from .linalg import kron`), so a function is wrapped in every module
namespace of the package that binds it.  The verify checks are also
reached through the tuples in `verify.VERIFY_TARGETS`, which are
replaced by tuples of wrapped checks for as long as the tracer is
installed.

A span is (span id, parent span id, operation id, name, start ns,
end ns, raised).  Spans are kept in memory; `write` saves them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "cavitygates"

#: Public functions traced, by module.
TRACED = {
    "linalg": ("kron", "expm_hermitian", "phase_distance"),
    "gates": ("rotation", "zyz_angles"),
    "spin": ("pauli", "collective_op", "s_squared"),
    "evolution": ("evolve", "build_hamiltonian", "compensation_layer"),
    "invariants": ("local_invariants", "solve_local_corrections", "factor_local", "is_local"),
    "sequences": ("compose", "step_unitary", "local_layer_unitary"),
    "synthesis": ("cnot2_sequence", "cnot3_sequence", "toffoli_sequence", "spin_echo_u23"),
    "serialize": ("matrix_to_json",),
}

#: The twelve verification checks, in `verify.ALL_CHECKS` order.
CHECKS = (
    "check_two_atom_evolution",
    "check_invariant_curve",
    "check_cnot_invariants",
    "check_cnot2",
    "check_spin_echo",
    "check_cnot3",
    "check_toffoli",
    "check_gate_times",
    "check_thermal_compensation",
    "check_correction_round_trip",
    "check_swap_not_cnot",
    "check_operator_identity",
)

#: The nine library modules whose self time and escaping exceptions are reported.
MODULES = (*TRACED, "verify")

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for fn in FUNCTIONS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms")]
    for mod in MODULES:
        names += [(f"{mod}.self_ms", "ms"), (f"{mod}.raised", "count")]
    names += [(f"verify.{check}.ms", "ms") for check in CHECKS]
    names += [("cli.overhead_ms", "ms"), ("trace.overhead_frac", "frac")]
    return names


class Tracer:
    """Wraps the traced functions and records a span per call while on."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self.recording = False
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.op_id, name, start, end, raised))

        return wrapper

    def _set(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        verify = sys.modules[f"{PACKAGE}.verify"]
        targets = [(mod, fn) for mod, fns in TRACED.items() for fn in fns]
        targets += [("verify", check) for check in CHECKS] + [("verify", "run_checks")]
        wrapped = {}
        for mod, fn in targets:
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            wrapped[original] = self._wrap(f"{mod}.{fn}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    self._set(module, attr, wrapped[value])
        self._set(verify, "VERIFY_TARGETS", {
            target: tuple(wrapped.get(check, check) for check in checks)
            for target, checks in verify.VERIFY_TARGETS.items()
        })

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def begin(self) -> None:
        """Start recording the next operation; operations are numbered from 0."""
        self.op_id += 1
        self.recording = True

    def end(self) -> None:
        self.recording = False

    def write(self, path) -> None:
        fields = ["id", "parent", "op", "name", "start_ns", "end_ns", "raised"]
        with open(path, "w") as out:
            out.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans, count_ops: set[int], n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics from recorded spans.

    Call counts come from the operations in `count_ops`, a fixed,
    seed-determined set, so they repeat exactly between runs.  Times are
    averaged over all `n_ops` traced operations.  Self time is a span's
    duration minus the durations of its child spans (one thread, so
    children never overlap).
    """
    names = {span[0]: span[3] for span in spans}
    child_ns = Counter()
    for _, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = Counter()
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    raised = Counter()
    for span_id, parent, op, name, start, end, escaped in spans:
        module = name.split(".", 1)[0]
        own = end - start - child_ns[span_id]
        self_ns[name] += own
        self_ns[module] += own
        total_ns[name] += end - start
        if op in count_ops:
            calls[name] += 1
            if escaped and (parent < 0 or names[parent].split(".", 1)[0] != module):
                raised[module] += 1
    k = len(count_ops)
    metrics = {}
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls"] = calls[fn] / k
        metrics[f"{fn}.self_ms"] = self_ns[fn] / n_ops / 1e6
    for mod in MODULES:
        metrics[f"{mod}.self_ms"] = self_ns[mod] / n_ops / 1e6
        metrics[f"{mod}.raised"] = raised[mod] / k
    for check in CHECKS:
        metrics[f"verify.{check}.ms"] = total_ns[f"verify.{check}"] / n_ops / 1e6
    return metrics
