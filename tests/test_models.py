import json
import math

import numpy as np
import pytest

from qmlkit import (
    Circuit,
    CircuitError,
    DataError,
    Dataset,
    Gate,
    ModelFormatError,
    OptimizerConfig,
    Parameter,
    PauliObservable,
    SvmModel,
    VqcModel,
    VqrModel,
    derive_rng,
    kernel_matrix,
    load_model,
    model_to_dict,
    pegasos_fit,
    qsvc_fit,
    save_model,
    svm_predict,
    vqc_fit,
    vqc_predict,
    vqr_fit,
    vqr_predict,
    zz_feature_map,
    real_amplitudes_ansatz,
)
from qmlkit.gradients import finite_difference

from .helpers import brute_force_svm_dual, svm_bias_from_alpha, svm_dual_objective, training_functions


def ry_map() -> Circuit:
    return Circuit(1).append(Gate.ry(Parameter("x"), 0))


def ry_model_pair() -> tuple[Circuit, Circuit]:
    return ry_map(), Circuit(1).append(Gate.ry(Parameter("w"), 0))


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 1)), [1.0])
    with pytest.raises(DataError):
        Dataset([[float("nan")]], [1.0])


# --- VQC -------------------------------------------------------------------


def test_vqc_single_point_trivial_fit():
    feature_map, ansatz = ry_model_pair()
    data = Dataset([[0.0]], [-1.0])  # |0> has even parity, which is the -1 class
    # Seed 6 starts near the identity ansatz, so the initial prediction
    # already matches the label and training just tightens it.
    config = OptimizerConfig(kind="adam", max_iterations=40, seed=6)
    model = vqc_fit(data, feature_map, ansatz, config, seed=6)
    best_so_far = np.minimum.accumulate(model.loss_history)
    assert np.all(np.diff(best_so_far) <= 1e-12)
    labels, probs = vqc_predict(model, data.features)
    assert labels[0] == -1.0
    assert probs[0].sum() == pytest.approx(1.0, abs=1e-10)


def test_vqc_rejects_non_binary_labels():
    feature_map, ansatz = ry_model_pair()
    with pytest.raises(DataError):
        vqc_fit(Dataset([[0.0]], [0.5]), feature_map, ansatz, seed=0)


def test_vqc_deterministic_loss_history():
    feature_map = zz_feature_map(2, 1)
    ansatz = real_amplitudes_ansatz(2, 1)
    data = Dataset([[0.3, 0.8], [1.0, -0.6]], [1.0, -1.0])
    config = OptimizerConfig(kind="adam", max_iterations=15, seed=5)
    a = vqc_fit(data, feature_map, ansatz, config, seed=5)
    b = vqc_fit(data, feature_map, ansatz, config, seed=5)
    assert a.loss_history == b.loss_history
    assert np.array_equal(a.trained_weights, b.trained_weights)


def test_vqc_predict_probability_tie_goes_negative():
    feature_map, ansatz = ry_model_pair()
    model = vqc_fit(
        Dataset([[0.0]], [-1.0]),
        feature_map,
        ansatz,
        OptimizerConfig(kind="adam", max_iterations=5, seed=1),
        seed=1,
    )
    model.trained_weights = np.array([math.pi / 2])  # forces P(odd) = 0.5 at x = 0
    labels, probs = vqc_predict(model, [[0.0]])
    assert probs[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert labels[0] == -1.0


def test_vqc_shot_training_repeats_per_seed():
    feature_map = zz_feature_map(2, 1)
    ansatz = real_amplitudes_ansatz(2, 1)
    data = Dataset([[0.3, 0.8], [1.0, -0.6], [-1.2, 0.4]], [1.0, -1.0, 1.0])
    config = OptimizerConfig(kind="adam", max_iterations=4, learning_rate=0.1)
    a, b, c = (vqc_fit(data, feature_map, ansatz, config, shots=64, seed=s) for s in (11, 11, 12))
    assert a.loss_history == b.loss_history
    assert np.array_equal(a.trained_weights, b.trained_weights)
    assert a.loss_history != c.loss_history
    assert not np.array_equal(a.trained_weights, c.trained_weights)


@pytest.mark.parametrize("fit", [vqc_fit, vqr_fit])
def test_exact_training_gradient_matches_finite_difference(monkeypatch, fit):
    rng = np.random.default_rng(17)
    features = rng.uniform(-1.5, 1.5, (7, 2))
    labels = np.where(features[:, 0] * features[:, 1] > 0, 1.0, -1.0)
    if fit is vqr_fit:
        labels = 0.8 * np.sin(features[:, 0])
    feature_map, ansatz = zz_feature_map(2, 1), real_amplitudes_ansatz(2, 2)
    objective, gradient, start = training_functions(
        monkeypatch, fit, Dataset(features, labels), feature_map, ansatz, seed=4
    )
    assert np.max(np.abs(gradient(start) - finite_difference(objective, start))) < 1e-6


# --- VQR -------------------------------------------------------------------


@pytest.mark.parametrize("shots", [None, 32])
def test_vqc_predict_on_zero_rows_is_empty(shots):
    feature_map, ansatz = zz_feature_map(2, 1), real_amplitudes_ansatz(2, 1)
    model = VqcModel(feature_map, ansatz, np.full(ansatz.num_parameters, 0.3))
    labels, probs = vqc_predict(model, np.zeros((0, 2)), shots=shots, seed=1)
    assert labels.shape == (0,) and probs.shape == (0, 2)


def test_vqr_predict_on_zero_rows_is_empty():
    feature_map, ansatz = zz_feature_map(2, 1), real_amplitudes_ansatz(2, 1)
    model = VqrModel(feature_map, ansatz, np.full(ansatz.num_parameters, 0.3), PauliObservable.z_on(0, 2))
    assert vqr_predict(model, np.zeros((0, 2))).shape == (0,)


def test_vqr_fits_cosine():
    feature_map, ansatz = ry_model_pair()
    xs = np.linspace(0.0, math.pi, 8)
    data = Dataset(xs.reshape(-1, 1), np.cos(xs))
    config = OptimizerConfig(kind="adam", max_iterations=800, learning_rate=0.05, tolerance=1e-12, seed=1)
    model = vqr_fit(data, feature_map, ansatz, optimizer_config=config, seed=1)
    mse = float(np.mean((vqr_predict(model, data.features) - data.labels) ** 2))
    assert mse < 1e-3


def test_vqr_constant_dataset():
    feature_map, ansatz = ry_model_pair()
    data = Dataset([[0.0]], [1.0])
    # The squared-cosine loss is quartic-flat at the optimum, so ADAM needs
    # room for its second moment to forget the large early gradients.
    config = OptimizerConfig(kind="adam", max_iterations=2000, learning_rate=0.1, tolerance=0.0, seed=3)
    model = vqr_fit(data, feature_map, ansatz, optimizer_config=config, seed=3)
    assert vqr_predict(model, [[0.0]])[0] == pytest.approx(1.0, abs=1e-3)


def test_vqr_label_out_of_range_names_bound():
    feature_map, ansatz = ry_model_pair()
    with pytest.raises(DataError, match="1.0"):
        vqr_fit(Dataset([[0.0]], [2.0]), feature_map, ansatz, seed=0)


# --- QSVC ------------------------------------------------------------------


def test_qsvc_separable_pair():
    data = Dataset([[0.0], [math.pi]], [1.0, -1.0])
    model = qsvc_fit(data, ry_map(), C=1.0)
    assert model.converged
    assert len(model.support_values) == 2
    labels, _ = svm_predict(model, data.features)
    assert np.array_equal(labels, data.labels)


def test_qsvc_duplicate_point_predicts_like_original():
    data = Dataset([[0.0], [0.0], [math.pi]], [1.0, 1.0, -1.0])
    model = qsvc_fit(data, ry_map(), C=1.0)
    labels, decisions = svm_predict(model, [[0.0], [0.0]])
    assert labels[0] == labels[1]
    assert decisions[0] == pytest.approx(decisions[1], abs=1e-12)


def test_qsvc_dual_feasibility_invariants():
    rng = np.random.default_rng(83)
    for _ in range(5):
        X = rng.uniform(0, math.pi, (5, 1))
        y = np.array([1.0, 1.0, -1.0, -1.0, 1.0])
        data = Dataset(X, y)
        model = qsvc_fit(data, ry_map(), C=2.0)
        # Reconstruct full alpha over training points from retained support rows.
        assert np.all(model.support_values >= -1e-12)
        assert np.all(model.support_values <= 2.0 + 1e-9)
        assert abs(np.dot(model.support_values, model.support_labels)) < 1e-6


def test_qsvc_matches_brute_force_dual():
    rng = np.random.default_rng(89)
    feature_map = ry_map()
    for case in range(8):
        X = rng.uniform(0, math.pi, (4, 1))
        y = np.array([1.0, 1.0, -1.0, -1.0])
        rng.shuffle(y)
        C = float(rng.choice([0.5, 1.0, 4.0]))
        data = Dataset(X, y)
        model = qsvc_fit(data, feature_map, C=C)
        K = kernel_matrix(feature_map, X).entries
        alpha_star, best = brute_force_svm_dual(K, y, C)
        # Support rows keep training order, so rebuild full alpha sequentially.
        solver_alpha = np.zeros(4)
        support_iter = iter(zip(model.support_values, model.support_data))
        next_support = next(support_iter, None)
        for i, x in enumerate(X):
            if next_support is not None and np.allclose(next_support[1], x):
                solver_alpha[i] = next_support[0]
                next_support = next(support_iter, None)
        gap = abs(svm_dual_objective(solver_alpha, K, y) - best)
        assert gap < 1e-3
        oracle_bias = svm_bias_from_alpha(alpha_star, K, y, C)
        oracle_decisions = (alpha_star * y) @ K + oracle_bias
        oracle_labels = np.where(oracle_decisions > 0, 1.0, -1.0)
        labels, _ = svm_predict(model, X)
        assert np.array_equal(labels, oracle_labels)


def test_qsvc_decision_antisymmetric_under_label_flip():
    rng = np.random.default_rng(97)
    X = rng.uniform(0, math.pi, (4, 1))
    y = np.array([1.0, -1.0, 1.0, -1.0])
    up = qsvc_fit(Dataset(X, y), ry_map(), C=1.0)
    down = qsvc_fit(Dataset(X, -y), ry_map(), C=1.0)
    _, d_up = svm_predict(up, X)
    _, d_down = svm_predict(down, X)
    assert np.allclose(d_up, -d_down, atol=1e-9)


def test_qsvc_rejects_bad_inputs():
    with pytest.raises(DataError):
        qsvc_fit(Dataset([[0.0]], [0.5]), ry_map())
    with pytest.raises(DataError):
        qsvc_fit(Dataset([[0.0], [1.0]], [1.0, -1.0]), ry_map(), C=0.0)


def test_svm_predict_without_support_vectors_checks_features_and_shots():
    empty = np.zeros(0)
    model = SvmModel("qsvc", zz_feature_map(2, 2), empty, empty, np.zeros((0, 2)), bias=0.25)
    _, decisions = svm_predict(model, [[0.1, 0.2]])
    assert decisions.tolist() == [0.25]
    with pytest.raises(DataError, match="3 features"):
        svm_predict(model, [[0.1, 0.2, 0.3]])
    with pytest.raises(CircuitError, match="shots"):
        svm_predict(model, [[0.1, 0.2]], shots=0)


# --- Pegasos ---------------------------------------------------------------


def test_pegasos_first_step_always_updates():
    data = Dataset([[0.0], [math.pi]], [1.0, -1.0])
    model = pegasos_fit(data, ry_map(), lam=1.0, steps=1, seed=0)
    assert model.support_values.sum() == 1.0


def test_pegasos_orthogonal_pair_accuracy():
    data = Dataset([[0.0], [math.pi]], [1.0, -1.0])
    model = pegasos_fit(data, ry_map(), lam=1.0, steps=100, seed=7)
    labels, _ = svm_predict(model, data.features)
    assert np.array_equal(labels, data.labels)


def test_pegasos_zero_steps_rejected():
    data = Dataset([[0.0], [math.pi]], [1.0, -1.0])
    with pytest.raises(DataError):
        pegasos_fit(data, ry_map(), steps=0)


def test_pegasos_trace_replays_from_seed():
    rng = np.random.default_rng(101)
    X = rng.uniform(0, math.pi, (4, 1))
    y = np.array([1.0, -1.0, 1.0, -1.0])
    feature_map = ry_map()
    seed, lam, steps = 13, 0.5, 60
    model = pegasos_fit(Dataset(X, y), feature_map, lam=lam, steps=steps, seed=seed)

    # Independent replay with the closed-form RY kernel.
    K = np.array([[math.cos((a - b) / 2.0) ** 2 for b in X[:, 0]] for a in X[:, 0]])
    alpha = np.zeros(4, dtype=int)
    replay_rng = derive_rng(seed)
    for t in range(1, steps + 1):
        i = int(replay_rng.integers(4))
        margin = y[i] / (lam * t) * float((alpha * y) @ K[:, i])
        if margin < 1.0:
            alpha[i] += 1
    full = np.zeros(4)
    support_iter = iter(zip(model.support_values, model.support_data))
    next_support = next(support_iter, None)
    for i, x in enumerate(X):
        if next_support is not None and np.allclose(next_support[1], x):
            full[i] = next_support[0]
            next_support = next(support_iter, None)
    assert np.array_equal(full, alpha.astype(float))


def test_pegasos_deterministic():
    data = Dataset([[0.1], [1.9], [2.8]], [1.0, -1.0, -1.0])
    a = pegasos_fit(data, ry_map(), lam=0.2, steps=50, seed=3)
    b = pegasos_fit(data, ry_map(), lam=0.2, steps=50, seed=3)
    assert np.array_equal(a.support_values, b.support_values)
    _, da = svm_predict(a, data.features)
    _, db = svm_predict(b, data.features)
    assert np.array_equal(da, db)


# --- persistence -----------------------------------------------------------


def test_vqc_round_trip_predictions(tmp_path):
    feature_map = zz_feature_map(2, 1)
    ansatz = real_amplitudes_ansatz(2, 1)
    data = Dataset([[0.2, 1.1], [0.9, -0.7]], [1.0, -1.0])
    model = vqc_fit(
        data, feature_map, ansatz, OptimizerConfig(kind="adam", max_iterations=10, seed=2), seed=2
    )
    path = tmp_path / "vqc.json"
    save_model(model, path)
    loaded = load_model(path)
    probe = np.random.default_rng(0).uniform(-math.pi, math.pi, (10, 2))
    original_labels, original_probs = vqc_predict(model, probe)
    loaded_labels, loaded_probs = vqc_predict(loaded, probe)
    assert np.array_equal(original_labels, loaded_labels)
    assert np.allclose(original_probs, loaded_probs, atol=0)


def test_svm_round_trip_decisions(tmp_path):
    data = Dataset([[0.0], [math.pi], [1.0]], [1.0, -1.0, 1.0])
    model = qsvc_fit(data, ry_map(), C=1.5)
    path = tmp_path / "svm.json"
    save_model(model, path)
    loaded = load_model(path)
    probe = np.linspace(0, math.pi, 9).reshape(-1, 1)
    _, original = svm_predict(model, probe)
    _, restored = svm_predict(loaded, probe)
    assert np.max(np.abs(original - restored)) < 1e-12


def test_vqr_round_trip(tmp_path):
    feature_map, ansatz = ry_model_pair()
    data = Dataset([[0.3]], [0.5])
    model = vqr_fit(
        data, feature_map, ansatz,
        optimizer_config=OptimizerConfig(kind="adam", max_iterations=10, seed=0), seed=0,
    )
    path = tmp_path / "vqr.json"
    save_model(model, path)
    loaded = load_model(path)
    assert vqr_predict(loaded, [[0.3]])[0] == pytest.approx(vqr_predict(model, [[0.3]])[0], abs=0)


def test_truncated_file_raises_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    payload = json.dumps({"type": "vqc"})
    path.write_text(payload[: len(payload) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_missing_field_names_path(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"type": "vqc", "format_version": 1}))
    with pytest.raises(ModelFormatError, match="feature_map"):
        load_model(path)


def _saved(kind: str) -> dict:
    data = Dataset([[0.0], [math.pi]], [1.0, -1.0])
    if kind == "vqc":
        feature_map, ansatz = ry_model_pair()
        model = vqc_fit(data, feature_map, ansatz, OptimizerConfig(max_iterations=2), seed=0)
        model.label_map = {"a": -1, "b": 1}
    elif kind == "qsvc":
        model = qsvc_fit(data, ry_map())
    else:
        model = pegasos_fit(data, ry_map(), lam=1.0, steps=10, seed=0)
    return json.loads(json.dumps(model_to_dict(model)))


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("vqc", "weights", ["a"]),
        ("vqc", "loss_history", ["a"]),
        ("vqc", "label_map", ["a", "b"]),
        ("vqc", "label_map", {"a": 2, "b": 1}),
        ("qsvc", "alphas", ["a"]),
        ("qsvc", "bias", "a"),
        ("qsvc", "support_data", [[0.0], ["a"]]),
        ("pegasos", "lambda", None),
        ("pegasos", "lambda", 0),
        ("pegasos", "steps", "a"),
        ("pegasos", "steps", 0),
    ],
)
def test_malformed_model_field_raises_named_format_error(tmp_path, kind, field, value):
    payload = _saved(kind)
    payload[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert info.value.field_path == field


def test_pegasos_round_trip_keeps_counts(tmp_path):
    data = Dataset([[0.0], [math.pi]], [1.0, -1.0])
    model = pegasos_fit(data, ry_map(), lam=1.0, steps=30, seed=1)
    path = tmp_path / "pegasos.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.lam == model.lam
    assert loaded.steps == model.steps
    _, original = svm_predict(model, data.features)
    _, restored = svm_predict(loaded, data.features)
    assert np.array_equal(original, restored)
