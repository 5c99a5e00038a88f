"""Traced runs: wrap qmlkit's layer functions in spans and reduce spans to per-layer metrics.

The wrapping lives here, in the benchmark, not in the library. Modules bind
each other's names at import (``from .simulator import run_ops``), so every
public function is replaced in each ``qmlkit`` module namespace that holds
it, and the hot class methods are replaced on their classes. Spans stay in
memory until the job ends.

A span is ``(parent, layer, name, start, end, attrs)``; ``parent`` is the
index of the enclosing span or -1. A span's self time is its duration minus
the durations of its direct children (children of one span never overlap,
since the job is single-threaded).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "circuits", "simulator", "fidelity", "kernels",
    "gradients", "networks", "optimizers", "models", "bayesian",
)
METHODS = {
    "circuits": {"Circuit": ("append", "extend", "bind", "bind_partial", "inverse", "compose")},
    "networks": {"EstimatorQnn": ("forward", "backward"), "SamplerQnn": ("forward", "backward")},
}
MEASURE = frozenset({"expectation", "expectation_sampled", "sample_state"})
FITS = frozenset({"vqc_fit", "vqr_fit", "qsvc_fit", "pegasos_fit"})
PREDICTS = frozenset({"vqc_predict", "vqr_predict", "svm_predict"})

# Per-layer metrics as reported by a traced run, with their units. A layer
# that a workload bypasses reads 0 there.
UNITS = {
    "cli.calls": "count", "cli.self_s": "s",
    "circuits.calls": "count", "circuits.self_s": "s",
    "simulator.runs": "count", "simulator.gates": "count", "simulator.amps": "count",
    "simulator.run_s": "s", "simulator.us_per_gate": "us", "simulator.ns_per_amp": "ns",
    "simulator.measure_s": "s", "simulator.shots": "count",
    "fidelity.calls": "count", "fidelity.self_s": "s",
    "kernels.entries": "count", "kernels.matrix_s": "s", "kernels.entries_per_s": "1/s",
    "gradients.jacobians": "count", "gradients.jacobian_s": "s", "gradients.runs_per_param": "ratio",
    "networks.forwards": "count", "networks.backwards": "count",
    "networks.forward_s": "s", "networks.backward_s": "s",
    "optimizers.iterations": "count", "optimizers.evaluations": "count",
    "optimizers.objective_ms.p50": "ms", "optimizers.objective_ms.p90": "ms",
    "optimizers.gradient_ms.p50": "ms", "optimizers.gradient_ms.p90": "ms",
    "models.fit_s": "s", "models.predict_s": "s", "models.solver_s": "s",
    "models.support_vectors": "count",
    "bayesian.compile_s": "s", "bayesian.exact_s": "s", "bayesian.rejection_s": "s",
    "bayesian.acceptance": "ratio",
    "trace.spans": "count", "trace.overhead_s": "s",
}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _run_ops_attrs(args, kwargs, result):
    return {"gates": len(_arg(args, kwargs, 1, "gates")), "qubits": _arg(args, kwargs, 0, "num_qubits")}


def _sampled_attrs(args, kwargs, result):
    terms = _arg(args, kwargs, 1, "observable").terms
    measured = sum(1 for _, string in terms if set(string) != {"I"})
    return {"shots": _arg(args, kwargs, 2, "shots") * measured}


def _kernel_entries(args, kwargs, result):
    """Entries ``kernel_matrix`` evaluates: a symmetric matrix evaluates its upper
    triangle, without the diagonal in exact mode (it is pinned to 1)."""
    rows, cols = result.entries.shape
    if _arg(args, kwargs, 2, "Y") is not None:
        return {"entries": rows * cols}
    diagonal = rows if _arg(args, kwargs, 3, "shots") is not None else 0
    return {"entries": rows * (rows - 1) // 2 + diagonal}


# Counters read from arguments or results at the layer boundary.
PROBES = {
    "run_ops": _run_ops_attrs,
    "sample_state": lambda a, k, r: {"shots": _arg(a, k, 1, "shots")},
    "expectation_sampled": _sampled_attrs,
    "kernel_matrix": _kernel_entries,
    "shift_rule_jacobian": lambda a, k, r: {"params": int(r.shape[0])},
    "minimize": lambda a, k, r: {"iterations": len(r.history) - 1, "evaluations": r.evaluations},
    "qsvc_fit": lambda a, k, r: {"support_vectors": len(r.support_values)},
    "rejection_inference": lambda a, k, r: {"shots": _arg(a, k, 2, "shots"), "accepted": r.accepted},
}


class Recorder:
    """Holds the spans of one job in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (parent, layer, name, start, end, None)
            if probe is not None:
                spans[index] = (parent, layer, name, start, end, probe(args, kwargs, result))
            return result

        return traced

    def wrap_minimize(self, fn):
        """Span ``minimize`` and the objective and gradient callables it receives."""
        traced_minimize = self.wrap("optimizers", "minimize", fn)

        def minimize(objective, gradient, initial, config):
            objective = self.wrap("models", "objective", objective)
            if gradient is not None:
                gradient = self.wrap("models", "gradient", gradient)
            return traced_minimize(objective, gradient, initial, config)

        return functools.wraps(fn)(minimize)


def install(recorder: Recorder) -> None:
    """Replace each layer's public functions and hot methods with span-recording wrappers."""
    modules = {name: mod for name, mod in sys.modules.items() if name == "qmlkit" or name.startswith("qmlkit.")}
    replacements = {}
    for layer in LAYERS:
        module = modules[f"qmlkit.{layer}"]
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            if name == "minimize":
                replacements[id(fn)] = recorder.wrap_minimize(fn)
            else:
                replacements[id(fn)] = recorder.wrap(layer, name, fn)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                setattr(cls, method, recorder.wrap(layer, method, cls.__dict__[method]))
    for module in modules.values():
        for name, value in list(vars(module).items()):
            if callable(value) and id(value) in replacements:
                setattr(module, name, replacements[id(value)])


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, _, _, start, end, _ in spans]
    for parent, _, _, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile_summary(samples, levels=(99.9, 99.0, 90.0)) -> dict:
    """Median, plus the highest of ``levels`` with at least ten samples beyond it, and the count.

    Percentiles use the nearest rank: the p-th percentile is the
    ceil(p*n/100)-th smallest sample, so n - ceil(p*n/100) samples lie beyond it.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return {"n": 0}
    middle = n // 2
    median = values[middle] if n % 2 else (values[middle - 1] + values[middle]) / 2.0
    summary = {"p50": median, "n": n}
    for q in sorted(levels, reverse=True):
        rank = math.ceil(q * n / 100.0 - 1e-9)
        if n - rank >= 10:
            summary[f"p{q:g}"] = values[rank - 1]
            break
    return summary


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(spans) -> tuple[dict, dict]:
    """Reduce one job's spans to (per-layer metrics keyed as in UNITS, detail for the report)."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)  # summed inclusive duration per function name
    own_total = defaultdict(float)  # summed self time per function name
    count = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(float))
    samples = defaultdict(list)
    in_jacobian = [False] * len(spans)
    jacobian_runs = 0
    for i, (parent, layer, name, start, end, extra) in enumerate(spans):
        self_s[layer] += own[i]
        calls[layer] += 1
        total[name] += end - start
        own_total[name] += own[i]
        count[name] += 1
        if name in ("objective", "gradient"):
            samples[name].append(1000.0 * (end - start))
        if extra:
            for key, value in extra.items():
                attrs[name][key] += value
            if name == "run_ops":
                attrs[name]["amps"] += extra["gates"] * 2 ** extra["qubits"]
        # Parents precede children in the list, so the flag is already set on the parent.
        in_jacobian[i] = name == "shift_rule_jacobian" or (parent >= 0 and in_jacobian[parent])
        if name == "run_ops" and in_jacobian[i]:
            jacobian_runs += 1
    run_s = total["run_ops"]
    gates = attrs["run_ops"]["gates"]
    amps = attrs["run_ops"]["amps"]
    latency = {name: percentile_summary(samples[name], levels=(90.0,)) for name in ("objective", "gradient")}
    metrics = {
        "cli.calls": calls["cli"], "cli.self_s": self_s["cli"],
        "circuits.calls": calls["circuits"], "circuits.self_s": self_s["circuits"],
        "simulator.runs": count["run_ops"], "simulator.gates": int(gates), "simulator.amps": int(amps),
        "simulator.run_s": run_s,
        "simulator.us_per_gate": 1e6 * _ratio(run_s, gates),
        "simulator.ns_per_amp": 1e9 * _ratio(run_s, amps),
        "simulator.measure_s": sum(total[name] for name in MEASURE),
        "simulator.shots": int(attrs["sample_state"]["shots"] + attrs["expectation_sampled"]["shots"]),
        "fidelity.calls": calls["fidelity"], "fidelity.self_s": self_s["fidelity"],
        "kernels.entries": int(attrs["kernel_matrix"]["entries"]),
        "kernels.matrix_s": total["kernel_matrix"],
        "kernels.entries_per_s": _ratio(attrs["kernel_matrix"]["entries"], total["kernel_matrix"]),
        "gradients.jacobians": count["shift_rule_jacobian"],
        "gradients.jacobian_s": total["shift_rule_jacobian"],
        "gradients.runs_per_param": _ratio(jacobian_runs, attrs["shift_rule_jacobian"]["params"]),
        "networks.forwards": count["forward"], "networks.backwards": count["backward"],
        "networks.forward_s": total["forward"], "networks.backward_s": total["backward"],
        "optimizers.iterations": int(attrs["minimize"]["iterations"]),
        "optimizers.evaluations": int(attrs["minimize"]["evaluations"]),
        "models.fit_s": sum(total[name] for name in FITS),
        "models.predict_s": sum(total[name] for name in PREDICTS),
        "models.solver_s": own_total["qsvc_fit"],
        "models.support_vectors": int(attrs["qsvc_fit"]["support_vectors"]),
        "bayesian.compile_s": total["compile_network"],
        "bayesian.exact_s": total["exact_inference"],
        "bayesian.rejection_s": own_total["rejection_inference"],
        "bayesian.acceptance": _ratio(attrs["rejection_inference"]["accepted"], attrs["rejection_inference"]["shots"]),
        "trace.spans": len(spans),
    }
    # Too few calls for a p90 (fewer than ten beyond it) reads 0; the report gives the count.
    for name, summary in latency.items():
        metrics[f"optimizers.{name}_ms.p50"] = summary.get("p50", 0.0)
        metrics[f"optimizers.{name}_ms.p90"] = summary.get("p90", 0.0)
    detail = {
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        "optimizers.objective_ms": percentile_summary(samples["objective"]),
        "optimizers.gradient_ms": percentile_summary(samples["gradient"]),
    }
    return metrics, detail
