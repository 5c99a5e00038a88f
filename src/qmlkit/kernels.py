"""Fidelity quantum kernels and alignment-based kernel training.

A kernel entry is the squared overlap between the feature-map states of two
samples. Each sample's state is prepared once, and a whole Gram matrix is
one matrix product of those states; no per-entry circuit is built. In shot
mode an entry is the all-zeros frequency that compute-uncompute sampling
would give, drawn as Binomial(shots, F); entries are pure functions of
(data, shots, per-entry seed), so a Gram matrix can be filled in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Parameter, bound_angles
from .errors import CircuitError, DataError
from .optimizers import OptimizeResult, OptimizerConfig, _seeded_config, minimize
from .simulator import _STREAM_ROWS, _check_shots, _seeds, _streams, derive_rng, run_ops


@dataclass(frozen=True)
class KernelMatrix:
    """Gram matrix of fidelities plus references to the data that produced it."""

    entries: np.ndarray
    row_data: np.ndarray
    col_data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class TrainableKernelSpec:
    """Feature map whose first ``data_count`` parameters carry the sample.

    The remaining parameters are trainable and get bound by ``train_kernel``
    (or by hand) before any kernel entry is evaluated.
    """

    feature_map: Circuit
    data_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.data_count <= self.feature_map.num_parameters:
            raise CircuitError(
                f"data_count {self.data_count} outside 0..{self.feature_map.num_parameters}"
            )

    @property
    def trainable_count(self) -> int:
        return self.feature_map.num_parameters - self.data_count

    @property
    def trainable_parameters(self) -> tuple[Parameter, ...]:
        return self.feature_map.parameters[self.data_count :]


def _as_dataset(X, feature_map: Circuit, name: str) -> np.ndarray:
    data = np.atleast_2d(np.asarray(X, dtype=float))
    if data.shape[1] != feature_map.num_parameters:
        raise DataError(
            f"{name} has {data.shape[1]} features but the feature map takes "
            f"{feature_map.num_parameters} data parameters"
        )
    return data


def kernel_entry(
    feature_map: Circuit,
    x,
    y,
    shots: int | None = None,
    seed: int | None = None,
) -> float:
    """Fidelity between the feature-map states of two samples; in shot mode a
    ``Binomial(shots, F) / shots`` draw from ``seed``'s stream."""
    K = kernel_matrix(feature_map, [x], [y]).entries
    return float(K[0, 0]) if shots is None else float(derive_rng(seed).binomial(n := _check_shots(shots), K[0, 0])) / n


def kernel_matrix(
    feature_map: Circuit,
    X,
    Y=None,
    shots: int | None = None,
    seed: int | None = None,
) -> KernelMatrix:
    """Gram matrix of fidelities between feature-map states.

    Every sample's state is prepared once, each side's rows in one batched
    ``run_ops`` call, and the fidelities come from one product,
    ``|A* B^T|^2`` clipped to [0, 1]; the states take ``rows * 2^n``
    amplitudes (``rows + cols`` with ``Y``), float64 for a real feature map. With
    ``Y`` absent the matrix is symmetric: the upper triangle is mirrored and
    the diagonal is exactly 1 in exact mode. Shot mode draws entry (i, j),
    upper triangle only when symmetric, as ``Binomial(shots, F_ij) / shots``
    from the stream ``derive_rng(derive_seed(seed, i*cols + j))``, so results do
    not depend on evaluation order; the streams are derived ``_STREAM_ROWS``
    entries at a time, and exact mode derives none.
    """
    rows = _as_dataset(X, feature_map, "X")
    cols = rows if Y is None else _as_dataset(Y, feature_map, "Y")
    shots = shots if shots is None else _check_shots(shots)
    n, gates = feature_map.num_qubits, feature_map.gates
    states = run_ops(n, gates, bound_angles(feature_map, rows))
    other = states if Y is None else run_ops(n, gates, bound_angles(feature_map, cols))
    entries = np.clip(np.abs(states.conj() @ other.T) ** 2, 0.0, 1.0)
    if Y is None:
        entries = np.triu(entries, 1)
        entries += entries.T + np.eye(rows.shape[0])
    width = cols.shape[0]
    for start in range(0, entries.size if shots is not None else 0, _STREAM_ROWS):
        flat = np.arange(start, min(start + _STREAM_ROWS, entries.size))  # i * width + j
        if Y is None:
            flat = flat[flat % width >= flat // width]
        streams = _streams(_seeds(seed, flat))
        entries.flat[flat] = [rng.binomial(shots, f) / shots for rng, f in zip(streams, entries.flat[flat].tolist())]
        if Y is None:
            entries.flat[flat % width * width + flat // width] = entries.flat[flat]
    return KernelMatrix(entries, rows, cols)


def trainable_kernel_matrix(
    spec: TrainableKernelSpec,
    train_values,
    X,
    Y=None,
    shots: int | None = None,
    seed: int | None = None,
) -> KernelMatrix:
    """Kernel matrix with the trainable parameters pre-bound on both sides."""
    train_values = np.asarray(train_values, dtype=float)
    if train_values.shape != (spec.trainable_count,):
        raise CircuitError(
            f"expected {spec.trainable_count} trainable values, got {train_values.shape}"
        )
    bound_map = spec.feature_map.bind_partial(
        dict(zip(spec.trainable_parameters, train_values))
    )
    return kernel_matrix(bound_map, X, Y, shots=shots, seed=seed)


def kernel_alignment(K, labels) -> float:
    """Cosine similarity between the kernel and the label outer product.

    Returns <K, yy^T>_F / (||K||_F * ||yy^T||_F), in [-1, 1].
    """
    entries = np.asarray(getattr(K, "entries", K), dtype=float)
    y = np.asarray(labels, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DataError("alignment needs a square kernel matrix")
    if y.shape != (entries.shape[0],):
        raise DataError(f"expected {entries.shape[0]} labels, got {y.shape}")
    target = np.outer(y, y)
    denom = np.linalg.norm(entries) * np.linalg.norm(target)
    if denom == 0.0:
        raise DataError("alignment undefined for an all-zero kernel")
    return float(np.sum(entries * target) / denom)


def train_kernel(
    spec: TrainableKernelSpec,
    X,
    labels,
    optimizer_config: OptimizerConfig | None = None,
    seed: int | None = None,
    initial=None,
) -> OptimizeResult:
    """Tune the trainable feature-map parameters by maximizing alignment.

    Minimizes ``1 - alignment`` with the configured optimizer (SPSA when no
    config is given) in exact mode. ``best_point`` holds the trained values;
    ``history`` the per-iteration objective. With no trainable parameters
    the objective is evaluated once and returned unchanged.
    """
    y = np.asarray(labels, dtype=float)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("kernel training expects labels in {-1, +1}")
    data = _as_dataset(X, spec.feature_map.bind_partial(
        {p: 0.0 for p in spec.trainable_parameters}
    ), "X")
    optimizer_config = _seeded_config(optimizer_config, seed, kind="spsa", max_iterations=100)

    def objective(values: np.ndarray) -> float:
        K = trainable_kernel_matrix(spec, values, data)
        return 1.0 - kernel_alignment(K, y)

    if initial is None:
        initial = derive_rng(seed, 1).uniform(-0.1, 0.1, size=spec.trainable_count)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (spec.trainable_count,):
        raise CircuitError(
            f"expected {spec.trainable_count} initial values, got {initial.shape}"
        )
    return minimize(objective, None, initial, optimizer_config)
