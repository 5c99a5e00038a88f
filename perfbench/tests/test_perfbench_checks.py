"""Each output check passes on correct outputs and fails on a corrupted one.

Correct outputs are built here from the checks' own numpy oracles, so these
tests need neither qmlkit nor a full benchmark run.
"""

import csv
import json
import shutil

import numpy as np
import pytest

import checks
import inputs
import run


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _states(features, reps=2):
    return np.array([checks.dense_state(len(x), checks.zz_gates(x, reps)) for x in features])


def _cli(payload, rc=0):
    return {"rc": rc, "stdout": json.dumps(payload) + "\n", "stderr": ""}


def _kernel_outputs(workdir):
    inputs.write("kernel_svm", 0, workdir)
    x_train, y_train = checks._dataset(workdir / "train.csv")
    x_test, y_test = checks._dataset(workdir / "test.csv")
    train, test = _states(x_train), _states(x_test)
    gram = np.triu(np.abs(train.conj() @ train.T) ** 2, 1)
    gram = gram + gram.T + np.eye(len(gram))
    _write_csv(workdir / "gram.csv", [str(j) for j in range(len(gram))], [[repr(float(v)) for v in row] for row in gram])
    alphas = np.full(len(y_train), inputs.SVM_C)
    bias = 0.1
    model = {"alphas": alphas.tolist(), "support_labels": y_train.tolist(),
             "support_data": x_train.tolist(), "bias": bias}
    (workdir / "model.json").write_text(json.dumps(model), encoding="utf-8")
    weights = alphas * y_train
    decisions = weights @ (np.abs(train.conj() @ test.T) ** 2) + bias
    labels = np.where(decisions > 0, 1.0, -1.0)
    for name in ("predict.csv", "predict_shots.csv"):
        _write_csv(workdir / name, ["prediction", "decision"], [[int(l), repr(float(d))] for l, d in zip(labels, decisions)])
    train_decisions = weights @ (np.abs(train.conj() @ train.T) ** 2) + bias
    train_accuracy = float(np.mean(np.where(train_decisions > 0, 1.0, -1.0) == y_train))
    return {
        "kernel": _cli({"shape": list(gram.shape)}),
        "train": _cli({"train_accuracy": train_accuracy, "iterations": 0}),
        "predict": _cli({"accuracy": float(np.mean(labels == y_test)), "rows": len(labels)}),
        "predict_shots": _cli({"accuracy": float(np.mean(labels == y_test)), "rows": len(labels)}),
    }


def _edit_csv(path, row, column, change):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows[row + 1][column] = repr(float(change(float(rows[row + 1][column]))))
    _write_csv(path, rows[0], rows[1:])


def _failed_stages(workload, workdir, stages):
    return {stage for stage, _ in checks.CHECKS[workload](workdir, stages)}


def test_kernel_checks_pass_on_correct_outputs(tmp_path):
    stages = _kernel_outputs(tmp_path)
    assert checks.kernel_svm(tmp_path, stages) == []


@pytest.mark.parametrize(
    "corrupt, stage",
    [
        (lambda d: (_edit_csv(d / "gram.csv", 0, 1, lambda v: v + 1e-6),
                    _edit_csv(d / "gram.csv", 1, 0, lambda v: v + 1e-6)), "kernel"),
        (lambda d: _edit_csv(d / "gram.csv", 2, 5, lambda v: v + 1e-12), "kernel"),
        (lambda d: _edit_csv(d / "gram.csv", 3, 3, lambda v: v - 1e-9), "kernel"),
        (lambda d: _edit_csv(d / "predict.csv", 4, 1, lambda v: v + 1e-6), "predict"),
        (lambda d: _edit_csv(d / "predict_shots.csv", 4, 1, lambda v: v + 0.5), "predict_shots"),
        (lambda d: (d / "model.json").write_text(
            json.dumps({**json.loads((d / "model.json").read_text()), "bias": 0.3})), "predict"),
    ],
)
def test_kernel_checks_fail_on_corrupted_outputs(tmp_path, corrupt, stage):
    stages = _kernel_outputs(tmp_path)
    corrupt(tmp_path)
    assert stage in _failed_stages("kernel_svm", tmp_path, stages)


def test_kernel_check_fails_on_a_wrong_reported_accuracy(tmp_path):
    stages = _kernel_outputs(tmp_path)
    stages["predict"] = _cli({"accuracy": 0.5})
    assert _failed_stages("kernel_svm", tmp_path, stages) == {"predict"}


def _vqc_outputs(workdir):
    inputs.write("vqc_train", 0, workdir)
    weights = np.random.default_rng(0).uniform(-np.pi, np.pi, 6)
    (workdir / "model.json").write_text(json.dumps({"weights": weights.tolist()}), encoding="utf-8")
    odd = np.array([1, 2])

    def p_odd(features):
        return np.array([
            np.sum(np.abs(checks.dense_state(2, checks.zz_gates(x, 2) + checks.ansatz_gates(2, 2, weights))[odd]) ** 2)
            for x in features
        ])

    x_train, y_train = checks._dataset(workdir / "train.csv")
    x_test, _ = checks._dataset(workdir / "test.csv")
    probs = p_odd(x_test)
    for name in ("predict.csv", "predict_shots.csv"):
        _write_csv(workdir / name, ["prediction", "probability"],
                   [[1 if p > 0.5 else -1, repr(float(p))] for p in probs])
    accuracy = float(np.mean(np.where(p_odd(x_train) > 0.5, 1.0, -1.0) == y_train))
    return {
        "train": _cli({"train_accuracy": accuracy, "iterations": 100}),
        "predict": _cli({"rows": len(probs)}),
        "predict_shots": _cli({"rows": len(probs)}),
    }


def test_vqc_checks_pass_on_correct_outputs(tmp_path):
    assert checks.vqc_train(tmp_path, _vqc_outputs(tmp_path)) == []


@pytest.mark.parametrize(
    "corrupt, stage",
    [
        (lambda d, s: _edit_csv(d / "predict.csv", 7, 1, lambda v: v + 1e-6), "predict"),
        (lambda d, s: _edit_csv(d / "predict_shots.csv", 7, 1, lambda v: 1.0 - v if abs(v - 0.5) > 0.2 else v + 0.3),
         "predict_shots"),
        (lambda d, s: s.update(train=_cli({"train_accuracy": 0.0, "iterations": 100})), "train"),
        (lambda d, s: s.update(train=_cli({"train_accuracy": 1.0, "iterations": 37})), "train"),
    ],
)
def test_vqc_checks_fail_on_corrupted_outputs(tmp_path, corrupt, stage):
    stages = _vqc_outputs(tmp_path)
    corrupt(tmp_path, stages)
    assert stage in _failed_stages("vqc_train", tmp_path, stages)


@pytest.fixture
def small_wide(monkeypatch):
    """wide_state shrunk to 6 + 4 qubits and 6 nodes so the oracles run in milliseconds."""
    monkeypatch.setattr(inputs, "WIDE_QUBITS", 6)
    monkeypatch.setattr(inputs, "QNN_QUBITS", 4)
    monkeypatch.setattr(inputs, "BAYES_NODES", 6)


def _wide_outputs(workdir):
    inputs.write("wide_state", 0, workdir)
    spec = json.loads((workdir / "wide.json").read_text())
    n = inputs.WIDE_QUBITS
    state = checks.vector_state(n, checks.ansatz_gates(n, inputs.WIDE_REPS, spec["weights"]))[0]
    exact = sum(c * checks._pauli_expectation(state, s) for c, s in spec["terms"])
    counts = np.random.default_rng(1).multinomial(inputs.WIDE_SHOTS, np.abs(state) ** 2)
    sampler = {"".join(str((i >> q) & 1) for q in range(n)): c / inputs.WIDE_SHOTS
               for i, c in enumerate(counts) if c}

    m = inputs.QNN_QUBITS
    x, w = spec["qnn_inputs"], np.array(spec["qnn_weights"])

    def forward(weights):
        psi = checks.vector_state(m, checks.zz_gates(x, 1) + checks.ansatz_gates(m, 1, weights))[0]
        return checks._pauli_expectation(psi, "Z" + "I" * (m - 1))

    jacobian = [(forward(w + 1e-6 * e) - forward(w - 1e-6 * e)) / 2e-6 for e in np.eye(len(w))]
    network = json.loads((workdir / "network.json").read_text())
    target, value = spec["query"].split("=")
    evidence = {k: int(v) for k, v in (item.split("=") for item in spec["evidence"])}
    p = checks.bayes_exact(network, target, int(value), evidence)
    return {
        "estimate": {"rc": 0, "result": {"exact": exact, "shots": exact, "sampler": sampler}},
        "qnn_backward": {"rc": 0, "result": {"jacobian": jacobian}},
        "bayes": _cli({"exact": p, "estimate": p, "accepted": 5000, "shots": inputs.BAYES_SHOTS}),
    }


def test_wide_checks_pass_on_correct_outputs(tmp_path, small_wide):
    assert checks.wide_state(tmp_path, _wide_outputs(tmp_path)) == []


def _bump(stages, stage, key, delta, index=None):
    target = stages[stage]["result"] if "result" in stages[stage] else None
    if target is None:
        payload = json.loads(stages[stage]["stdout"])
        payload[key] += delta
        stages[stage] = _cli(payload)
    elif index is None:
        target[key] += delta
    else:
        target[key][index] += delta


@pytest.mark.parametrize(
    "corrupt, stage",
    [
        (lambda s: _bump(s, "estimate", "exact", 1e-6), "estimate"),
        (lambda s: _bump(s, "estimate", "shots", 0.5), "estimate"),
        (lambda s: s["estimate"]["result"]["sampler"].update({"111111": 1e-5}), "estimate"),
        (lambda s: _bump(s, "qnn_backward", "jacobian", 1e-3, index=0), "qnn_backward"),
        (lambda s: s["qnn_backward"]["result"].update(jacobian=[0.0]), "qnn_backward"),
        (lambda s: _bump(s, "bayes", "exact", 1e-6), "bayes"),
        (lambda s: _bump(s, "bayes", "estimate", 0.2), "bayes"),
        (lambda s: s.update(bayes={"rc": 0, "stdout": "", "stderr": ""}), "bayes"),
    ],
)
def test_wide_checks_fail_on_corrupted_outputs(tmp_path, small_wide, corrupt, stage):
    stages = _wide_outputs(tmp_path)
    corrupt(stages)
    assert _failed_stages("wide_state", tmp_path, stages) == {stage}


def test_shot_bound_is_five_sigma_for_many_shots_and_wider_for_skewed_counts():
    assert checks.shot_bound(0.25 / 1e8, 1e-12) == pytest.approx(5 * 0.5 / 1e4, rel=1e-6)
    p, shots = 1e-3, 1024
    assert checks.shot_bound(p * (1 - p) / shots, 1 / shots) > 5 * np.sqrt(p * (1 - p) / shots)


def _job(workdir, stages):
    return {"stages": stages, "workdir": workdir, "traced": False, "setup_s": 0.1, "job_s": 1.0}


def test_failures_counts_a_wrong_exit_code(tmp_path):
    stages = _kernel_outputs(tmp_path)
    stages["predict_shots"]["rc"] = 2
    found = run.failures("kernel_svm", [_job(tmp_path, stages)], list(stages))
    assert {(j, name) for j, name, _ in found} == {(0, "predict_shots")}


def test_failures_counts_a_later_job_that_differs_from_the_first(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    stages = _kernel_outputs(first)
    shutil.copytree(first, second)
    _edit_csv(second / "predict.csv", 0, 1, lambda v: v + 1e-15)
    jobs = [_job(first, stages), _job(second, stages), {"error": "exit 1", "workdir": second, "traced": False}]
    found = run.failures("kernel_svm", jobs, list(stages))
    assert {(j, name) for j, name, _ in found} == {(1, "predict")} | {(2, name) for name in stages}
