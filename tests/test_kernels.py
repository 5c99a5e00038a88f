import math

import numpy as np
import pytest

from qmlkit import (
    Circuit,
    DataError,
    FidelityJob,
    Gate,
    OptimizerConfig,
    Parameter,
    TrainableKernelSpec,
    compute_uncompute,
    derive_seed,
    kernel_alignment,
    kernel_entry,
    kernel_matrix,
    run,
    trainable_kernel_matrix,
    train_kernel,
    zz_feature_map,
)

from .helpers import random_supported_circuit


def ry_map() -> Circuit:
    return Circuit(1).append(Gate.ry(Parameter("x"), 0))


def shifted_ry_map() -> Circuit:
    # Data angle followed by a trainable offset on the same qubit.
    x, w = Parameter("x"), Parameter("w")
    return Circuit(1).append(Gate.ry(x, 0)).append(Gate.ry(w, 0))


def test_single_point_gram_is_one():
    K = kernel_matrix(ry_map(), [[0.4]])
    assert K.entries == pytest.approx(np.array([[1.0]]))


def test_orthogonal_pair():
    K = kernel_matrix(ry_map(), [[0.0], [math.pi]]).entries
    assert K[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert K[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_half_overlap_pair():
    K = kernel_matrix(ry_map(), [[0.0], [math.pi / 2]]).entries
    assert K[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_gram_structure_on_random_data():
    rng = np.random.default_rng(53)
    for _ in range(8):
        m = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        X = rng.uniform(-math.pi, math.pi, (m, d))
        K = kernel_matrix(zz_feature_map(d, 1), X).entries
        assert np.allclose(K, K.T, atol=1e-10)
        assert np.allclose(np.diag(K), 1.0, atol=1e-10)
        assert np.all(K >= -1e-12) and np.all(K <= 1.0 + 1e-12)
        assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_gram_matches_statevector_oracle():
    rng = np.random.default_rng(59)
    feature_map = zz_feature_map(2, 2)
    X = rng.uniform(-math.pi, math.pi, (5, 2))
    K = kernel_matrix(feature_map, X).entries
    states = [run(feature_map.bind(x)) for x in X]
    for i in range(5):
        for j in range(5):
            oracle = abs(states[j].inner(states[i])) ** 2
            assert K[i, j] == pytest.approx(oracle, abs=1e-10)


def test_rectangular_kernel_shape_and_values():
    feature_map = ry_map()
    K = kernel_matrix(feature_map, [[0.0], [1.0]], [[0.5], [1.5], [2.5]]).entries
    assert K.shape == (2, 3)
    for i, x in enumerate((0.0, 1.0)):
        for j, y in enumerate((0.5, 1.5, 2.5)):
            assert K[i, j] == pytest.approx(math.cos((x - y) / 2.0) ** 2, abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(DataError):
        kernel_matrix(ry_map(), [[0.1, 0.2]])


def test_trainable_with_empty_split_equals_plain():
    feature_map = zz_feature_map(2, 1)
    spec = TrainableKernelSpec(feature_map, data_count=2)
    X = [[0.3, 0.9], [1.2, -0.4], [2.0, 0.0]]
    plain = kernel_matrix(feature_map, X).entries
    trained = trainable_kernel_matrix(spec, [], X).entries
    assert np.array_equal(plain, trained)


def test_trainable_offset_at_zero_matches_plain():
    spec = TrainableKernelSpec(shifted_ry_map(), data_count=1)
    K = trainable_kernel_matrix(spec, [0.0], [[0.0], [math.pi]]).entries
    assert K[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_trainable_diagonal_is_one_for_any_offset():
    spec = TrainableKernelSpec(shifted_ry_map(), data_count=1)
    for w in (-2.0, 0.3, 1.7):
        K = trainable_kernel_matrix(spec, [w], [[0.2], [1.4]]).entries
        assert np.allclose(np.diag(K), 1.0)


def test_alignment_identity_kernel():
    value = kernel_alignment(np.eye(2), [1.0, -1.0])
    assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_alignment_perfect_kernel_same_labels():
    assert kernel_alignment(np.ones((3, 3)), [1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_alignment_sign_flip_invariant():
    rng = np.random.default_rng(61)
    K = kernel_matrix(ry_map(), rng.uniform(0, math.pi, (4, 1))).entries
    labels = np.array([1.0, -1.0, -1.0, 1.0])
    assert kernel_alignment(K, labels) == pytest.approx(kernel_alignment(K, -labels))


def test_alignment_shape_validation():
    with pytest.raises(DataError):
        kernel_alignment(np.eye(2), [1.0])


def test_train_kernel_degenerate_split():
    spec = TrainableKernelSpec(ry_map(), data_count=1)
    result = train_kernel(spec, [[0.0], [math.pi]], [1.0, -1.0], seed=0)
    assert result.best_point.size == 0
    assert len(result.history) == 1
    assert result.converged


def test_train_kernel_improves_alignment():
    # Scaling map RY(x*w): one data factor and one trainable factor in one angle.
    x, w = Parameter("x"), Parameter("w")
    from qmlkit import AngleExpr

    feature_map = Circuit(1).append(Gate.ry(AngleExpr(1.0, ((0.0, 1.0, x), (0.0, 1.0, w))), 0))
    spec = TrainableKernelSpec(feature_map, data_count=1)
    X = [[0.0], [math.pi]]
    labels = [1.0, -1.0]

    def alignment_at(value: float) -> float:
        return kernel_alignment(trainable_kernel_matrix(spec, [value], X), labels)

    result = train_kernel(spec, X, labels, seed=4, initial=[0.1])
    assert alignment_at(result.best_point[0]) > alignment_at(0.1)


def test_train_kernel_deterministic_history():
    spec = TrainableKernelSpec(shifted_ry_map(), data_count=1)
    config = OptimizerConfig(kind="spsa", max_iterations=25, seed=9)
    a = train_kernel(spec, [[0.0], [2.0]], [1.0, -1.0], config, seed=9)
    b = train_kernel(spec, [[0.0], [2.0]], [1.0, -1.0], config, seed=9)
    assert a.history == b.history
    assert np.array_equal(a.best_point, b.best_point)


def test_train_kernel_rejects_bad_labels():
    spec = TrainableKernelSpec(ry_map(), data_count=1)
    with pytest.raises(DataError):
        train_kernel(spec, [[0.0]], [2.0], seed=0)


def test_shot_mode_entries_are_schedule_independent():
    feature_map = zz_feature_map(2, 1)
    rng = np.random.default_rng(67)
    X = rng.uniform(-1.0, 1.0, (4, 2))
    seed = 23
    K = kernel_matrix(feature_map, X, shots=256, seed=seed).entries
    m = X.shape[0]
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    rng.shuffle(pairs)
    rebuilt = np.zeros((m, m))
    for i, j in pairs:
        value = kernel_entry(feature_map, X[i], X[j], shots=256, seed=derive_seed(seed, i * m + j))
        rebuilt[i, j] = value
        rebuilt[j, i] = value
    assert np.array_equal(K, rebuilt)


def test_shot_mode_symmetry_is_exact():
    feature_map = zz_feature_map(2, 1)
    X = np.array([[0.1, 0.2], [0.9, -0.4], [1.5, 0.6]])
    K = kernel_matrix(feature_map, X, shots=128, seed=3).entries
    assert np.array_equal(K, K.T)


def test_spec_split_validation():
    with pytest.raises(Exception):
        TrainableKernelSpec(ry_map(), data_count=5)


def test_gram_matches_compute_uncompute_per_entry():
    rng = np.random.default_rng(97)
    for _ in range(20):
        feature_map, _ = random_supported_circuit(rng)
        d = feature_map.num_parameters
        X = rng.uniform(-math.pi, math.pi, (int(rng.integers(1, 5)), d))
        Y = rng.uniform(-math.pi, math.pi, (int(rng.integers(1, 5)), d))
        for rows, cols, K in (
            (X, X, kernel_matrix(feature_map, X).entries),
            (X, Y, kernel_matrix(feature_map, X, Y).entries),
        ):
            assert K.shape == (rows.shape[0], cols.shape[0])
            for i, j in np.ndindex(K.shape):
                oracle = compute_uncompute(FidelityJob(feature_map, feature_map, rows[i], cols[j]))
                assert abs(K[i, j] - oracle) < 1e-12


def test_exact_gram_is_bit_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(101)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        X = rng.uniform(-math.pi, math.pi, (int(rng.integers(1, 12)), n))
        K = kernel_matrix(zz_feature_map(n, int(rng.integers(1, 3))), X).entries
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)


@pytest.mark.parametrize("rectangular", [False, True])
def test_shot_entries_are_binomial_frequencies(rectangular):
    feature_map = zz_feature_map(2, 1)
    X = np.array([[0.3, -1.1], [1.4, 0.6]])
    exact = kernel_matrix(feature_map, X).entries[0, 1]
    shots, seeds = 100, 200
    draws = np.array([
        kernel_matrix(feature_map, X, X if rectangular else None, shots=shots, seed=s).entries[0, 1]
        for s in range(seeds)
    ])
    counts = draws * shots
    assert np.all(np.abs(counts - np.round(counts)) < 1e-9)
    sigma = math.sqrt(exact * (1.0 - exact) / shots / seeds)
    assert abs(draws.mean() - exact) < 5.0 * sigma
