"""End-user estimators: variational classifier/regressor and kernel SVMs.

The variational models train a quantum neural network with a classical
optimizer; the SVMs precompute a fidelity kernel and solve the
classification problem classically, either as the soft-margin dual or with
the Pegasos sub-gradient scheme. Trained models are immutable and persist
to JSON.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
import numpy as np

from .circuits import Circuit, circuit_from_dict, circuit_to_dict
from .errors import DataError, ModelFormatError
from .kernels import kernel_matrix
from .networks import EstimatorQnn, SamplerQnn, parity_interpret
from .optimizers import OptimizerConfig, minimize
from .simulator import PauliObservable, derive_rng, derive_seed

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m, d) with one label per row; finite values only."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.atleast_2d(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels, dtype=float).reshape(-1)
        if features.shape[0] < 1 or features.shape[1] < 1:
            raise DataError("dataset needs at least one row and one feature")
        if labels.shape[0] != features.shape[0]:
            raise DataError(
                f"{features.shape[0]} rows but {labels.shape[0]} labels"
            )
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(labels))):
            raise DataError("dataset contains non-finite values")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]


def _require_binary(labels: np.ndarray) -> None:
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise DataError("classifier labels must be -1 or +1")


@dataclass
class VqcModel:
    """Trained variational classifier: feature map, ansatz, and weights."""

    feature_map: Circuit
    ansatz: Circuit
    trained_weights: np.ndarray
    loss_history: list[float] = field(default_factory=list)
    label_map: dict[str, int] | None = None


@dataclass
class VqrModel:
    """Trained variational regressor; predictions are observable expectations."""

    feature_map: Circuit
    ansatz: Circuit
    trained_weights: np.ndarray
    observable: PauliObservable
    loss_history: list[float] = field(default_factory=list)


@dataclass
class SvmModel:
    """Kernel SVM state shared by the dual solver and Pegasos.

    ``support_values`` holds dual coefficients alpha_i for the dual solver
    and nonnegative violation counts for Pegasos; ``lam``/``steps`` are
    Pegasos-only, ``bias`` dual-only.
    """

    kind: str  # "qsvc" | "pegasos"
    feature_map: Circuit
    support_values: np.ndarray
    support_labels: np.ndarray
    support_data: np.ndarray
    bias: float = 0.0
    lam: float | None = None
    steps: int | None = None
    converged: bool = True
    label_map: dict[str, int] | None = None


def _build_sampler_qnn(feature_map: Circuit, ansatz: Circuit) -> SamplerQnn:
    circuit = feature_map.compose(ansatz)
    d = feature_map.num_parameters
    return SamplerQnn(
        circuit,
        input_params=range(d),
        weight_params=range(d, circuit.num_parameters),
        interpret=parity_interpret,
        output_dim=2,
        input_gradients=False,
    )


def _build_estimator_qnn(
    feature_map: Circuit, ansatz: Circuit, observable: PauliObservable
) -> EstimatorQnn:
    circuit = feature_map.compose(ansatz)
    d = feature_map.num_parameters
    return EstimatorQnn(
        circuit,
        [observable],
        input_params=range(d),
        weight_params=range(d, circuit.num_parameters),
        input_gradients=False,
    )


def _row_seed(shots: int | None, seed: int | None, *task: int) -> int | None:
    """Child seed for one row in shot mode; exact mode draws nothing and gets None."""
    return derive_seed(seed, *task) if shots is not None else None


def _class_indices(labels: np.ndarray) -> np.ndarray:
    """Map -1/+1 labels onto parity buckets 0/1."""
    return ((labels + 1.0) / 2.0).astype(int)


def vqc_fit(
    data: Dataset,
    feature_map: Circuit,
    ansatz: Circuit,
    optimizer_config: OptimizerConfig | None = None,
    shots: int | None = None,
    seed: int | None = None,
) -> VqcModel:
    """Train the parity-readout classifier by cross-entropy minimization.

    The sampler network's two-bucket distribution is matched against the
    one-hot labels; gradient-based optimizers receive the analytic
    shift-rule gradient of the loss. Runs are deterministic given the seed.
    """
    _require_binary(data.labels)
    if data.dimension != feature_map.num_parameters:
        raise DataError(
            f"data has {data.dimension} features but the feature map takes "
            f"{feature_map.num_parameters}"
        )
    qnn = _build_sampler_qnn(feature_map, ansatz)
    classes = _class_indices(data.labels)
    if optimizer_config is None:
        optimizer_config = OptimizerConfig(kind="adam", seed=seed)
    elif optimizer_config.seed is None:
        optimizer_config = replace(optimizer_config, seed=seed)
    eval_counter = [0]

    def forward_all(weights: np.ndarray, eval_id: int) -> np.ndarray:
        rows = [
            qnn.forward(x, weights, shots=shots, seed=_row_seed(shots, seed, 2, eval_id, i))
            for i, x in enumerate(data.features)
        ]
        return np.vstack(rows)

    def objective(weights: np.ndarray) -> float:
        eval_counter[0] += 1
        probs = forward_all(weights, eval_counter[0])
        picked = probs[np.arange(data.size), classes]
        return float(np.mean(-np.log(np.maximum(picked, _PROB_FLOOR))))

    def gradient(weights: np.ndarray) -> np.ndarray:
        eval_counter[0] += 1
        total = np.zeros_like(weights)
        for i, x in enumerate(data.features):
            child = _row_seed(shots, seed, 3, eval_counter[0], i)
            probs = qnn.forward(x, weights, shots=shots, seed=child)
            _, weight_jac = qnn.backward(x, weights, shots=shots, seed=child)
            c = classes[i]
            total += -weight_jac[c] / max(probs[c], _PROB_FLOOR)
        return total / data.size

    initial = derive_rng(seed, 1).uniform(-math.pi, math.pi, len(qnn.weight_params))
    result = minimize(objective, gradient, initial, optimizer_config)
    return VqcModel(feature_map, ansatz, result.best_point, result.history)


def vqc_predict(
    model: VqcModel,
    features,
    shots: int | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels in {-1, +1} and per-class probabilities [P(-1), P(+1)] per row.

    A sample sits on the +1 side only when P(+1) strictly exceeds 0.5; an
    exact tie goes to -1.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    qnn = _build_sampler_qnn(model.feature_map, model.ansatz)
    if features.shape[1] != len(qnn.input_params):
        raise DataError(
            f"expected {len(qnn.input_params)} features, got {features.shape[1]}"
        )
    probs = np.vstack(
        [
            qnn.forward(x, model.trained_weights, shots=shots, seed=_row_seed(shots, seed, i))
            for i, x in enumerate(features)
        ]
    )
    labels = np.where(probs[:, 1] > 0.5, 1.0, -1.0)
    return labels, probs


def vqr_fit(
    data: Dataset,
    feature_map: Circuit,
    ansatz: Circuit,
    observable: PauliObservable | None = None,
    optimizer_config: OptimizerConfig | None = None,
    seed: int | None = None,
) -> VqrModel:
    """Fit observable expectations to real labels under mean squared error."""
    if data.dimension != feature_map.num_parameters:
        raise DataError(
            f"data has {data.dimension} features but the feature map takes "
            f"{feature_map.num_parameters}"
        )
    if observable is None:
        observable = PauliObservable.z_on(0, feature_map.num_qubits)
    bound = observable.coefficient_bound
    if np.any(np.abs(data.labels) > bound):
        raise DataError(
            f"labels must lie within [-{bound}, {bound}] for this observable"
        )
    qnn = _build_estimator_qnn(feature_map, ansatz, observable)
    if optimizer_config is None:
        optimizer_config = OptimizerConfig(kind="adam", seed=seed)
    elif optimizer_config.seed is None:
        optimizer_config = replace(optimizer_config, seed=seed)

    def predictions(weights: np.ndarray) -> np.ndarray:
        return np.array([qnn.forward(x, weights)[0] for x in data.features])

    def objective(weights: np.ndarray) -> float:
        return float(np.mean((predictions(weights) - data.labels) ** 2))

    def gradient(weights: np.ndarray) -> np.ndarray:
        total = np.zeros_like(weights)
        for x, y in zip(data.features, data.labels):
            value = qnn.forward(x, weights)[0]
            _, weight_jac = qnn.backward(x, weights)
            total += 2.0 * (value - y) * weight_jac[0]
        return total / data.size

    initial = derive_rng(seed, 1).uniform(-math.pi, math.pi, len(qnn.weight_params))
    result = minimize(objective, gradient, initial, optimizer_config)
    return VqrModel(feature_map, ansatz, result.best_point, observable, result.history)


def vqr_predict(model: VqrModel, features) -> np.ndarray:
    """Expectation value of the model observable per input row."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    d = model.feature_map.num_parameters
    if features.shape[1] != d:
        raise DataError(f"expected {d} features, got {features.shape[1]}")
    qnn = _build_estimator_qnn(model.feature_map, model.ansatz, model.observable)
    return np.array([qnn.forward(x, model.trained_weights)[0] for x in features])


def _smo_solve(
    K: np.ndarray, y: np.ndarray, C: float, tol: float = 1e-3, max_updates: int = 100_000
) -> tuple[np.ndarray, float, bool]:
    """Soft-margin dual by maximal-violating-pair coordinate ascent.

    Returns (alpha, bias, converged). The gradient kept up to date is that of
    the minimization form 0.5 a'Qa - sum(a) with Q = yy' * K.
    """
    m = y.shape[0]
    Q = K * np.outer(y, y)
    alpha = np.zeros(m)
    grad = -np.ones(m)  # Q @ alpha - 1 at alpha = 0
    converged = False
    for _ in range(max_updates):
        up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < C - 1e-12))
        score = -y * grad
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.argmax(np.where(up, score, -np.inf)))
        j = int(np.argmin(np.where(low, score, np.inf)))
        violation = score[i] - score[j]
        if violation < tol:
            converged = True
            break
        # Two-variable subproblem along the feasible direction y_i*e_i - y_j*e_j.
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        step = violation / quad
        if y[i] > 0:
            step = min(step, C - alpha[i])
        else:
            step = min(step, alpha[i])
        if y[j] > 0:
            step = min(step, alpha[j])
        else:
            step = min(step, C - alpha[j])
        if step <= 0.0:
            break
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * (y[i] * Q[:, i] - y[j] * Q[:, j])
    decision = (alpha * y) @ K
    unbounded = (alpha > 1e-7 * C) & (alpha < C * (1.0 - 1e-7))
    if unbounded.any():
        bias = float(np.mean(y[unbounded] - decision[unbounded]))
    else:
        score = -y * (Q @ alpha - 1.0)
        up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < C - 1e-12))
        hi = np.max(score[up]) if up.any() else 0.0
        lo = np.min(score[low]) if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    return alpha, bias, converged


def qsvc_fit(
    data: Dataset,
    feature_map: Circuit,
    C: float = 1.0,
    shots: int | None = None,
    seed: int | None = None,
) -> SvmModel:
    """Soft-margin SVM on the fidelity kernel of the training set.

    The Gram matrix is evaluated up front; the dual is solved to a KKT
    violation below 1e-3 (``converged`` records whether that was reached).
    """
    _require_binary(data.labels)
    if C <= 0.0:
        raise DataError("regularization C must be positive")
    K = kernel_matrix(feature_map, data.features, shots=shots, seed=seed).entries
    alpha, bias, converged = _smo_solve(K, data.labels, C)
    support = alpha > 1e-12
    return SvmModel(
        kind="qsvc",
        feature_map=feature_map,
        support_values=alpha[support],
        support_labels=data.labels[support],
        support_data=data.features[support],
        bias=bias,
        converged=converged,
    )


def pegasos_fit(
    data: Dataset,
    feature_map: Circuit,
    lam: float = 0.01,
    steps: int = 1000,
    seed: int | None = None,
) -> SvmModel:
    """Kernelized Pegasos: count margin violations under a decaying step.

    At step t a uniformly drawn sample's margin is scored with weight
    1/(lam*t); a margin below 1 increments that sample's count. The
    training set's Gram matrix is computed once, up front.
    """
    _require_binary(data.labels)
    if lam <= 0.0:
        raise DataError("lambda must be positive")
    if steps < 1:
        raise DataError("steps must be at least 1")
    m = data.size
    y = data.labels
    alpha = np.zeros(m, dtype=int)
    K = kernel_matrix(feature_map, data.features).entries
    rng = derive_rng(seed)
    for t in range(1, steps + 1):
        i = int(rng.integers(m))
        margin = y[i] / (lam * t) * float((alpha * y) @ K[:, i])
        if margin < 1.0:
            alpha[i] += 1
    support = alpha > 0
    return SvmModel(
        kind="pegasos",
        feature_map=feature_map,
        support_values=alpha[support].astype(float),
        support_labels=y[support],
        support_data=data.features[support],
        lam=lam,
        steps=steps,
    )


def svm_predict(
    model: SvmModel,
    features,
    shots: int | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and decision values; a decision of exactly zero maps to -1."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if model.support_data.size == 0:
        decisions = np.full(features.shape[0], model.bias if model.kind == "qsvc" else 0.0)
    else:
        cross = kernel_matrix(
            model.feature_map, model.support_data, features, shots=shots, seed=seed
        ).entries
        weights = model.support_values * model.support_labels
        decisions = weights @ cross
        if model.kind == "qsvc":
            decisions = decisions + model.bias
        else:
            decisions = decisions / (model.lam * model.steps)
    labels = np.where(decisions > 0.0, 1.0, -1.0)
    return labels, decisions


# --- persistence ---------------------------------------------------------

FORMAT_VERSION = 1


def _observable_to_dict(observable: PauliObservable) -> list:
    return [[coeff, string] for coeff, string in observable.terms]


def _observable_from_dict(data, path: str) -> PauliObservable:
    try:
        return PauliObservable(tuple((float(c), str(s)) for c, s in data))
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(path, f"invalid observable: {exc}") from exc


def model_to_dict(model) -> dict:
    """JSON-ready form of any trained model."""
    if isinstance(model, (VqcModel, VqrModel)):
        payload = {
            "type": "vqc" if isinstance(model, VqcModel) else "vqr",
            "feature_map": circuit_to_dict(model.feature_map),
            "ansatz": circuit_to_dict(model.ansatz),
            "weights": [float(w) for w in model.trained_weights],
            "loss_history": [float(v) for v in model.loss_history],
        }
        if isinstance(model, VqcModel):
            payload["label_map"] = model.label_map
        else:
            payload["observable"] = _observable_to_dict(model.observable)
    elif isinstance(model, SvmModel):
        payload = {
            "type": model.kind,
            "feature_map": circuit_to_dict(model.feature_map),
            "alphas": [float(a) for a in model.support_values],
            "support_labels": [float(v) for v in model.support_labels],
            "support_data": [[float(v) for v in row] for row in model.support_data],
            "bias": float(model.bias),
            "lambda": model.lam,
            "steps": model.steps,
            "label_map": model.label_map,
        }
    else:
        raise ModelFormatError("type", f"cannot serialize {type(model).__name__}")
    payload["format_version"] = FORMAT_VERSION
    return payload


def _require(data: dict, key: str, kind, path: str):
    if key not in data:
        raise ModelFormatError(f"{path}.{key}", "missing field")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ModelFormatError(f"{path}.{key}", f"expected {kind}, got {type(value).__name__}")
    return value


def model_from_dict(data: dict):
    """Rebuild a model from ``model_to_dict`` output."""
    if not isinstance(data, dict):
        raise ModelFormatError("$", "expected a JSON object")
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ModelFormatError("format_version", f"unsupported version {version!r}")
    kind = _require(data, "type", str, "$")
    feature_map = circuit_from_dict(_require(data, "feature_map", dict, "$"), "feature_map")
    if kind in ("vqc", "vqr"):
        ansatz = circuit_from_dict(_require(data, "ansatz", dict, "$"), "ansatz")
        weights = np.asarray(_require(data, "weights", list, "$"), dtype=float)
        history = [float(v) for v in data.get("loss_history", [])]
        if kind == "vqc":
            return VqcModel(feature_map, ansatz, weights, history, data.get("label_map"))
        observable = _observable_from_dict(_require(data, "observable", list, "$"), "observable")
        return VqrModel(feature_map, ansatz, weights, observable, history)
    if kind in ("qsvc", "pegasos"):
        alphas = np.asarray(_require(data, "alphas", list, "$"), dtype=float)
        labels = np.asarray(_require(data, "support_labels", list, "$"), dtype=float)
        rows = _require(data, "support_data", list, "$")
        support = (
            np.asarray(rows, dtype=float)
            if rows
            else np.zeros((0, feature_map.num_parameters))
        )
        if not (len(alphas) == len(labels) == len(support)):
            raise ModelFormatError("support_data", "alphas, labels, and rows disagree in length")
        return SvmModel(
            kind=kind,
            feature_map=feature_map,
            support_values=alphas,
            support_labels=labels,
            support_data=np.atleast_2d(support),
            bias=float(data.get("bias", 0.0)),
            lam=data.get("lambda"),
            steps=data.get("steps"),
            label_map=data.get("label_map"),
        )
    raise ModelFormatError("type", f"unknown model type {kind!r}")


def save_model(model, path: str | os.PathLike) -> None:
    """Write the model as a one-object JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path: str | os.PathLike):
    """Read one model back; malformed files raise ModelFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError("$", f"not valid JSON: {exc}") from exc
    return model_from_dict(data)
