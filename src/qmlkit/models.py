"""End-user estimators: variational classifier/regressor and kernel SVMs.

The variational models train a quantum neural network with a classical
optimizer through one loop, ``_fit_qnn``: the classifier hands it a parity
cross-entropy, the regressor a squared error, and nothing else differs. The
SVMs precompute a fidelity kernel and solve the classification problem
classically, either as the soft-margin dual or with the Pegasos sub-gradient
scheme. Trained models persist to JSON; loading checks every field and
raises ``ModelFormatError`` naming the first bad one.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, circuit_from_dict, circuit_to_dict
from .errors import CircuitError, DataError, ModelFormatError
from .kernels import _as_dataset, kernel_matrix
from .networks import EstimatorQnn, SamplerQnn, parity_interpret
from .optimizers import OptimizeResult, OptimizerConfig, _seeded_config, minimize
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


def _qnn(feature_map: Circuit, ansatz: Circuit, observable: PauliObservable | None = None):
    """Feature map + ansatz as a network: a parity sampler, or an estimator of ``observable``."""
    circuit = feature_map.compose(ansatz)
    d = feature_map.num_parameters
    weights = range(d, circuit.num_parameters)
    split = dict(input_params=range(d), weight_params=weights, input_gradients=False)
    if observable is None:
        return SamplerQnn(circuit, interpret=parity_interpret, output_dim=2, **split)
    return EstimatorQnn(circuit, [observable], **split)


def _row_seeds(shots: int | None, seed: int | None, rows: int, *task: int) -> list:
    """Row i's child seed (seed, *task, i) in shot mode; exact mode draws nothing and gets None."""
    return [derive_seed(seed, *task, i) if shots is not None else None for i in range(rows)]


def _fit_qnn(qnn, data: Dataset, mean_loss, loss_terms, config, shots, seed) -> OptimizeResult:
    """Minimize a per-row loss of the network outputs over its weights.

    ``mean_loss`` maps the (rows, outputs) matrix to the loss, and
    ``loss_terms`` maps it and the (rows, outputs, weights) Jacobians to the
    (rows, weights) gradient terms, averaged in row order. A gradient is one
    forward and one shift-rule pass over all rows. Objective evaluation k
    reads row i from (seed, 2, k, i), gradient evaluation k from
    (seed, 3, k, i); the start is uniform in [-pi, pi) from (seed, 1).
    """
    evaluation = itertools.count(1)

    def objective(weights: np.ndarray) -> float:
        seeds = _row_seeds(shots, seed, data.size, 2, next(evaluation))
        return float(mean_loss(qnn._outputs(data.features, weights, shots, seeds)))

    def gradient(weights: np.ndarray) -> np.ndarray:
        seeds = _row_seeds(shots, seed, data.size, 3, next(evaluation))
        outputs = qnn._outputs(data.features, weights, shots, seeds)
        _, jacobians = qnn._jacobians(data.features, weights, shots, seeds)
        # Rows add up in order; sum(axis=0) would add a lone weight's column pairwise.
        return np.add.accumulate(loss_terms(outputs, jacobians))[-1] / data.size

    initial = derive_rng(seed, 1).uniform(-math.pi, math.pi, len(qnn.weight_params))
    return minimize(objective, gradient, initial, _seeded_config(config, seed, kind="adam"))


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
    _as_dataset(data.features, feature_map, "data")
    rows, classes = np.arange(data.size), (data.labels > 0).astype(int)  # -1/+1 -> parity bucket 0/1

    def mean_loss(probs: np.ndarray) -> float:
        return np.mean(-np.log(np.maximum(probs[rows, classes], _PROB_FLOOR)))

    def loss_terms(probs: np.ndarray, jacobians: np.ndarray) -> np.ndarray:
        return -jacobians[rows, classes] / np.maximum(probs[rows, classes], _PROB_FLOOR)[:, None]

    qnn = _qnn(feature_map, ansatz)
    result = _fit_qnn(qnn, data, mean_loss, loss_terms, optimizer_config, shots, seed)
    return VqcModel(feature_map, ansatz, result.best_point, result.history)


def vqc_predict(
    model: VqcModel, features, shots: int | None = None, seed: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Labels in {-1, +1} and per-class probabilities [P(-1), P(+1)] per row.

    A sample sits on the +1 side only when P(+1) strictly exceeds 0.5; an
    exact tie goes to -1. In shot mode row i samples from (seed, i).
    """
    features = _as_dataset(features, model.feature_map, "features")
    qnn = _qnn(model.feature_map, model.ansatz)
    probs = qnn._outputs(features, model.trained_weights, shots, _row_seeds(shots, seed, len(features)))
    return np.where(probs[:, 1] > 0.5, 1.0, -1.0), probs


def vqr_fit(
    data: Dataset,
    feature_map: Circuit,
    ansatz: Circuit,
    observable: PauliObservable | None = None,
    optimizer_config: OptimizerConfig | None = None,
    seed: int | None = None,
) -> VqrModel:
    """Fit observable expectations to real labels under mean squared error."""
    _as_dataset(data.features, feature_map, "data")
    if observable is None:
        observable = PauliObservable.z_on(0, feature_map.num_qubits)
    bound = observable.coefficient_bound
    if np.any(np.abs(data.labels) > bound):
        raise DataError(f"labels must lie within [-{bound}, {bound}] for this observable")

    def mean_loss(values: np.ndarray) -> float:
        return np.mean((values[:, 0] - data.labels) ** 2)

    def loss_terms(values: np.ndarray, jacobians: np.ndarray) -> np.ndarray:
        return (2.0 * (values[:, 0] - data.labels))[:, None] * jacobians[:, 0]

    qnn = _qnn(feature_map, ansatz, observable)
    result = _fit_qnn(qnn, data, mean_loss, loss_terms, optimizer_config, None, seed)
    return VqrModel(feature_map, ansatz, result.best_point, observable, result.history)


def vqr_predict(model: VqrModel, features) -> np.ndarray:
    """Expectation value of the model observable per input row."""
    features = _as_dataset(features, model.feature_map, "features")
    qnn = _qnn(model.feature_map, model.ansatz, model.observable)
    return qnn._outputs(features, model.trained_weights, None, [None] * len(features))[:, 0]


def _movable(y: np.ndarray, alpha: np.ndarray, C: float) -> tuple[np.ndarray, np.ndarray]:
    """SMO's (up, low) masks: the coordinates whose y * alpha can still rise, and fall, in the box."""
    up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
    low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < C - 1e-12))
    return up, low


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
        up, low = _movable(y, alpha, C)
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
        up, low = _movable(y, alpha, C)
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
    if not C > 0.0:
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
    if not (math.isfinite(lam) and lam > 0.0):
        raise DataError("lambda must be positive and finite")
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
    features = _as_dataset(features, model.feature_map, "features")
    if shots is not None and shots < 1:
        raise CircuitError("shots must be a positive integer")
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


def _numbers(value, path: str, ndim: int = 1) -> np.ndarray:
    """Float array of rank ``ndim`` read from finite JSON numbers, else ModelFormatError."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = np.asarray(None)
    if array.dtype.kind not in "iuf" or array.ndim != ndim or not np.all(np.isfinite(array)):
        what = "a finite number" if ndim == 0 else f"a {ndim}-d list of finite numbers"
        raise ModelFormatError(path, f"expected {what}")
    return array.astype(float)


def _label_map(data: dict) -> dict[str, int] | None:
    label_map = data.get("label_map")
    if label_map is not None and not (
        isinstance(label_map, dict)
        and all(isinstance(k, str) and type(v) is int and v in (-1, 1) for k, v in label_map.items())
    ):
        raise ModelFormatError("label_map", "expected an object mapping label strings to -1 or +1")
    return label_map


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
        weights = _numbers(_require(data, "weights", list, "$"), "weights")
        history = [float(v) for v in _numbers(data.get("loss_history", []), "loss_history")]
        if kind == "vqc":
            return VqcModel(feature_map, ansatz, weights, history, _label_map(data))
        observable = _observable_from_dict(_require(data, "observable", list, "$"), "observable")
        return VqrModel(feature_map, ansatz, weights, observable, history)
    if kind in ("qsvc", "pegasos"):
        alphas = _numbers(_require(data, "alphas", list, "$"), "alphas")
        labels = _numbers(_require(data, "support_labels", list, "$"), "support_labels")
        rows = _require(data, "support_data", list, "$")
        support = _numbers(rows, "support_data", 2) if rows else np.zeros((0, feature_map.num_parameters))
        if not (len(alphas) == len(labels) == len(support)):
            raise ModelFormatError("support_data", "alphas, labels, and rows disagree in length")
        lam = steps = None
        if kind == "pegasos":
            lam = float(_numbers(data.get("lambda"), "lambda", ndim=0))
            steps = data.get("steps")
            if lam <= 0.0:
                raise ModelFormatError("lambda", "Pegasos lambda must be positive")
            if type(steps) is not int or steps < 1:
                raise ModelFormatError("steps", "Pegasos steps must be an integer of at least 1")
        return SvmModel(
            kind=kind,
            feature_map=feature_map,
            support_values=alphas,
            support_labels=labels,
            support_data=support,
            bias=float(_numbers(data.get("bias", 0.0), "bias", ndim=0)),
            lam=lam,
            steps=steps,
            label_map=_label_map(data),
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
