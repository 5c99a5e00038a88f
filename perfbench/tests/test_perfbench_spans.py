"""Span arithmetic, the percentile rule and the wrapping of qmlkit's namespaces."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import spans
from conftest import PERFBENCH

ROOT = PERFBENCH.parent


def _span(parent, layer, name, start, end, attrs=None):
    return (parent, layer, name, start, end, attrs)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span(-1, "cli", "main", 0.0, 10.0),
        _span(0, "models", "qsvc_fit", 1.0, 4.0),
        _span(1, "kernels", "kernel_matrix", 2.0, 3.0),
        _span(0, "simulator", "run_ops", 5.0, 9.0),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_self_times_sum_to_the_root_duration():
    recorded = [
        _span(-1, "models", "vqc_fit", 0.0, 8.0),
        _span(0, "optimizers", "minimize", 0.5, 7.5),
        _span(1, "models", "gradient", 1.0, 6.0),
        _span(2, "gradients", "shift_rule_jacobian", 1.5, 5.5, {"params": 2}),
        _span(3, "simulator", "run_ops", 2.0, 3.0, {"gates": 10, "qubits": 2}),
        _span(3, "simulator", "run_ops", 3.0, 4.0, {"gates": 10, "qubits": 2}),
        _span(3, "simulator", "run_ops", 4.0, 4.5, {"gates": 10, "qubits": 2}),
        _span(3, "simulator", "run_ops", 4.5, 5.0, {"gates": 10, "qubits": 2}),
        _span(0, "simulator", "run_ops", 7.5, 8.0, {"gates": 10, "qubits": 2}),
    ]
    metrics, detail = spans.layer_metrics(recorded)
    assert sum(detail[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(8.0)
    assert detail["gradients.self_s"] == pytest.approx(1.0)
    assert detail["models.self_s"] == pytest.approx(0.5 + 1.0)
    assert metrics["simulator.runs"] == 5
    assert metrics["simulator.gates"] == 50
    assert metrics["simulator.amps"] == 200
    assert metrics["simulator.run_s"] == pytest.approx(3.5)
    assert metrics["simulator.us_per_gate"] == pytest.approx(3.5e6 / 50)
    # Four runs inside the Jacobian for two parameters; the fifth run is outside it.
    assert metrics["gradients.runs_per_param"] == pytest.approx(2.0)
    assert metrics["gradients.jacobian_s"] == pytest.approx(4.0)
    assert detail["optimizers.self_s"] == pytest.approx(2.0)
    assert metrics["models.fit_s"] == pytest.approx(8.0)
    # One gradient call: too few samples for a p90.
    assert metrics["optimizers.gradient_ms.p50"] == pytest.approx(5000.0)
    assert metrics["optimizers.gradient_ms.p90"] == 0.0
    assert set(metrics) | {"trace.overhead_s"} == set(spans.UNITS)


@pytest.mark.parametrize(
    "args, kwargs, expected",
    [
        ((None, "X"), {}, 40 * 39 // 2),  # symmetric exact: upper triangle, diagonal pinned
        ((None, "X"), {"shots": 1024}, 40 * 41 // 2),  # symmetric shot mode samples the diagonal
        ((None, "X", "Y"), {"shots": 1024}, 40 * 40),  # cross Gram: every entry
        ((None, "X", None, None), {}, 40 * 39 // 2),
    ],
)
def test_kernel_entries_count_what_kernel_matrix_evaluates(args, kwargs, expected):
    result = SimpleNamespace(entries=np.zeros((40, 40)))
    assert spans.PROBES["kernel_matrix"](args, kwargs, result) == {"entries": expected}


def test_recorder_links_nested_calls_to_their_parents():
    recorder = spans.Recorder()

    def inner(x):
        return x + 1

    traced_inner = recorder.wrap("simulator", "inner", inner)
    traced_outer = recorder.wrap("models", "outer", lambda x: traced_inner(x) * 2)
    assert traced_outer(1) == 4
    assert traced_inner(0) == 1
    parents = [span[0] for span in recorder.spans]
    names = [span[2] for span in recorder.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, -1]


def test_recorder_keeps_the_span_of_a_raising_call():
    recorder = spans.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("cli", "boom", boom)()
    assert recorder.spans[0][2] == "boom" and recorder.spans[0][4] >= recorder.spans[0][3]


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, {"n": 0}),
        (1, {"p50": 7.0, "n": 1}),
        (9, {"p50": 5.0, "n": 9}),
        (99, {"p50": 50.0, "n": 99}),
        (100, {"p50": 50.5, "n": 100, "p90": 90.0}),
        (1000, {"p50": 500.5, "n": 1000, "p99": 990.0}),
        (10000, {"p50": 5000.5, "n": 10000, "p99.9": 9990.0}),
    ],
)
def test_percentile_rule_needs_ten_samples_beyond(n, expected):
    samples = [7.0] if n == 1 else [float(v) for v in range(n, 0, -1)]
    assert spans.percentile_summary(samples) == expected


def test_install_patches_every_namespace_binding():
    script = (
        "import qmlkit, qmlkit.cli, spans\n"
        "original = qmlkit.simulator.run_ops\n"
        "spans.install(spans.Recorder())\n"
        "import qmlkit.gradients as g, qmlkit.networks as n, qmlkit.fidelity as f, qmlkit.models as m\n"
        "assert qmlkit.simulator.run_ops is not original\n"
        "assert g.run_ops is n.run_ops is qmlkit.simulator.run_ops\n"
        "assert f.run is qmlkit.simulator.run and f.run.__wrapped__ is not None\n"
        "assert m.kernel_matrix is qmlkit.kernels.kernel_matrix is qmlkit.kernel_matrix\n"
        "assert qmlkit.Circuit.bind.__wrapped__ is not None\n"
        "assert qmlkit.SamplerQnn.backward.__wrapped__ is not None\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_benchmark_file_names_the_metrics_the_runs_print():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
