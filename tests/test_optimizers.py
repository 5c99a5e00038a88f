import numpy as np
import pytest

from qmlkit import OptimizerConfig, minimize


def quadratic(v: np.ndarray) -> float:
    return float((v[0] - 3.0) ** 2)


def test_adam_reaches_quadratic_minimum():
    config = OptimizerConfig(kind="adam", max_iterations=2000)
    result = minimize(quadratic, None, [0.0], config)
    assert abs(result.best_point[0] - 3.0) < 1e-2


def test_gd_contracts_quadratic():
    config = OptimizerConfig(kind="gd", learning_rate=0.1, max_iterations=200)
    result = minimize(quadratic, None, [0.0], config)
    assert abs(result.best_point[0] - 3.0) < 1e-3


def test_gd_history_monotone_below_critical_rate():
    config = OptimizerConfig(kind="gd", learning_rate=0.3, max_iterations=60, tolerance=0.0)
    result = minimize(quadratic, lambda v: np.array([2.0 * (v[0] - 3.0)]), [0.0], config)
    history = np.array(result.history)
    assert np.all(np.diff(history) <= 1e-12)


def test_constant_objective_converges_to_initial():
    config = OptimizerConfig(kind="gd", max_iterations=50)
    result = minimize(lambda v: 4.25, None, [1.0, -2.0], config)
    assert result.converged
    assert np.array_equal(result.best_point, [1.0, -2.0])
    assert result.best_value == 4.25


def test_spsa_quadratic_median_over_seeds():
    errors = []
    for seed in range(30):
        config = OptimizerConfig(kind="spsa", seed=seed)
        result = minimize(quadratic, None, [0.0], config)
        errors.append(abs(result.best_point[0] - 3.0))
    assert np.median(errors) < 0.1


def test_deterministic_given_seed():
    config = OptimizerConfig(kind="spsa", max_iterations=40, seed=123)
    a = minimize(quadratic, None, [0.0], config)
    b = minimize(quadratic, None, [0.0], config)
    assert np.array_equal(a.best_point, b.best_point)
    assert a.history == b.history
    assert a.evaluations == b.evaluations
    assert a.best_value == b.best_value


def test_best_value_is_history_minimum():
    config = OptimizerConfig(kind="adam", max_iterations=100, learning_rate=0.5, tolerance=0.0)
    result = minimize(quadratic, None, [0.0], config)
    assert result.best_value == pytest.approx(min(result.history), abs=1e-12)


def test_spsa_evaluation_budget():
    iterations = 50
    config = OptimizerConfig(kind="spsa", max_iterations=iterations, tolerance=0.0)
    result = minimize(quadratic, None, [0.0], config)
    # Initial evaluation plus at most 2 + 2*resamples (resamples = 1) per iteration.
    assert result.evaluations <= 1 + iterations * 4


def test_fd_gradient_evaluation_budget():
    iterations = 30
    dimension = 3
    config = OptimizerConfig(kind="gd", max_iterations=iterations, tolerance=0.0)
    objective = lambda v: float(np.sum((v - 1.0) ** 2))
    result = minimize(objective, None, np.zeros(dimension), config)
    assert result.evaluations <= 1 + iterations * (1 + 2 * dimension)


def test_non_finite_objective_aborts_with_partial_history():
    calls = [0]

    def flaky(v: np.ndarray) -> float:
        calls[0] += 1
        return float("inf") if calls[0] > 12 else quadratic(v)

    config = OptimizerConfig(kind="gd", learning_rate=0.1, max_iterations=100)
    result = minimize(flaky, lambda v: np.array([2.0 * (v[0] - 3.0)]), [0.0], config)
    assert not result.converged
    assert 1 <= len(result.history) < 100


def test_non_finite_value_inside_finite_differences_stops_the_run():
    # The first finite-difference step's minus side, 0.499991, reads inf.
    objective = lambda v: float("inf") if v[0] < 0.5 else float((v[0] - 2.0) ** 2)
    result = minimize(objective, None, [0.500001], OptimizerConfig(kind="gd", learning_rate=0.3))
    assert not result.converged
    assert result.history == [objective([0.500001])] and result.evaluations == 3


def test_non_finite_at_initial_raises():
    config = OptimizerConfig(kind="gd")
    with pytest.raises(ValueError):
        minimize(lambda v: float("nan"), None, [0.0], config)


def test_empty_parameter_vector_short_circuits():
    config = OptimizerConfig(kind="spsa")
    result = minimize(lambda v: 2.5, None, [], config)
    assert result.converged
    assert result.history == [2.5]
    assert result.evaluations == 1


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(kind="newton")
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(adam_beta1=1.0)


def test_adam_uses_supplied_gradient():
    calls = [0]

    def gradient(v: np.ndarray) -> np.ndarray:
        calls[0] += 1
        return np.array([2.0 * (v[0] - 3.0)])

    config = OptimizerConfig(kind="adam", max_iterations=50, tolerance=0.0)
    minimize(quadratic, gradient, [0.0], config)
    assert calls[0] == 50


def _reference_descent(kind: str, config: OptimizerConfig, start: np.ndarray, steps: int) -> list[float]:
    """Objective after each of ``steps`` hand-written GD or ADAM updates on a 2-d quadratic."""
    target = np.array([3.0, -1.0])
    point = start.copy()
    m = np.zeros(2)
    v = np.zeros(2)
    values = [float(np.sum((point - target) ** 2))]
    for t in range(1, steps + 1):
        g = 2.0 * (point - target)
        if kind == "gd":
            point = point - config.learning_rate * g
        else:
            m = config.adam_beta1 * m + (1.0 - config.adam_beta1) * g
            v = config.adam_beta2 * v + (1.0 - config.adam_beta2) * g * g
            m_hat = m / (1.0 - config.adam_beta1**t)
            v_hat = v / (1.0 - config.adam_beta2**t)
            point = point - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
        values.append(float(np.sum((point - target) ** 2)))
    return values


@pytest.mark.parametrize("kind", ["gd", "adam"])
def test_descent_history_matches_reference_updates(kind):
    target = np.array([3.0, -1.0])
    # At this rate and start, lr * (m_hat / denom) differs from lr * m_hat / denom
    # in the last bit, so the history also pins the ADAM step's order of operations.
    config = OptimizerConfig(kind=kind, learning_rate=0.2, max_iterations=3, tolerance=0.0)
    start = np.array([1.1, -0.2])
    result = minimize(
        lambda p: float(np.sum((p - target) ** 2)), lambda p: 2.0 * (p - target), start, config
    )
    assert result.history == _reference_descent(kind, config, start, 3)
