"""Classical optimizers behind one ``minimize`` interface.

Gradient descent and ADAM run one descent loop over a gradient callable (or
finite differences) and differ only in the step they take; SPSA needs only
function evaluations and decaying gain sequences. All three share the
stopping rule: run until the iteration cap, or until the best value improves
by less than ``tolerance`` for five consecutive iterations. A non-finite
objective value after the initial point ends any run at once, on every route
(a supplied gradient, finite differences or SPSA), unconverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .gradients import _central_difference, _rademacher, finite_difference
from .simulator import _streams

_KINDS = ("gd", "adam", "spsa")
_PLATEAU_ITERATIONS = 5


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for one ``minimize`` run.

    ``spsa_a`` left as None calibrates the gain from the first gradient
    sample so the first step has magnitude about 0.1; ``spsa_A`` defaults
    to a tenth of the iteration cap.
    """

    kind: str = "adam"
    max_iterations: int = 500
    learning_rate: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    spsa_a: float | None = None
    spsa_c: float = 0.1
    spsa_A: float | None = None
    spsa_alpha: float = 0.602
    spsa_gamma: float = 0.101
    tolerance: float = 1e-8
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}; expected one of {_KINDS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not all(map(math.isfinite, (self.learning_rate, self.tolerance, self.spsa_c))):
            raise ValueError("learning_rate, tolerance and spsa_c must be finite")
        if self.learning_rate <= 0.0 or self.spsa_c <= 0.0:
            raise ValueError("rates must be positive")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("ADAM betas must lie in [0, 1)")
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be nonnegative")


def _seeded_config(config: OptimizerConfig | None, seed: int | None, **default) -> OptimizerConfig:
    """``config`` with a missing seed taken from ``seed``; ``OptimizerConfig(**default)`` if absent."""
    if config is None:
        return OptimizerConfig(seed=seed, **default)
    return config if config.seed is not None else replace(config, seed=seed)


@dataclass
class OptimizeResult:
    """Outcome of a run: best iterate, per-iteration values, and bookkeeping.

    ``converged`` is True only when the plateau rule fired; hitting the
    iteration cap or a non-finite objective leaves it False.
    """

    best_point: np.ndarray
    best_value: float
    history: list[float] = field(default_factory=list)
    evaluations: int = 0
    converged: bool = False


class _NonFinite(Exception):
    """The objective returned a non-finite value, which ends the run."""


class _Tracker:
    """Counts evaluations, tracks the running best, and applies the plateau rule; a
    non-finite objective value raises ``_NonFinite``."""

    def __init__(self, objective: Callable[[np.ndarray], float], tolerance: float):
        self.objective = objective
        self.tolerance = tolerance
        self.evaluations = 0
        self.history: list[float] = []
        self.best_value = math.inf
        self.best_point: np.ndarray | None = None
        self.plateau = 0

    def __call__(self, point: np.ndarray) -> float:
        self.evaluations += 1
        value = float(self.objective(np.asarray(point, dtype=float)))
        if not math.isfinite(value):
            raise _NonFinite
        return value

    def advance(self, point: np.ndarray) -> bool:
        """Evaluate and record a new iterate; True when the plateau rule says stop."""
        return self.record(point, self(point))

    def record(self, point: np.ndarray, value: float) -> bool:
        """Append one iterate; True when the plateau rule says stop."""
        previous_best = self.best_value
        self.history.append(value)
        if value < self.best_value:
            self.best_value = value
            self.best_point = np.array(point, dtype=float)
        if previous_best != math.inf and abs(previous_best - self.best_value) < self.tolerance:
            self.plateau += 1
        else:
            self.plateau = 0
        return self.plateau >= _PLATEAU_ITERATIONS


def minimize(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray] | None,
    initial: Sequence[float],
    config: OptimizerConfig,
) -> OptimizeResult:
    """Minimize ``objective`` from ``initial`` with the configured algorithm.

    The objective must be finite at the initial point. A non-finite value
    later in the run stops immediately with ``converged=False`` and the
    partial history. Runs are deterministic given the config seed.
    """
    point = np.asarray(initial, dtype=float).copy()
    tracker = _Tracker(objective, config.tolerance)
    if gradient is None:
        gradient = lambda v: finite_difference(tracker, v, 1e-5)
    try:
        tracker.record(point, tracker(point))
        if point.size == 0:
            return OptimizeResult(point, tracker.best_value, tracker.history, tracker.evaluations, True)
        if config.kind == "spsa":
            converged = _spsa_loop(tracker, point, config)
        else:
            converged = _descent_loop(tracker, gradient, point, config)
    except _NonFinite:
        if not tracker.history:
            raise ValueError("objective is not finite at the initial point") from None
        converged = False

    assert tracker.best_point is not None
    return OptimizeResult(tracker.best_point, tracker.best_value, tracker.history, tracker.evaluations, converged)


def _descent_loop(tracker: _Tracker, gradient, point: np.ndarray, config: OptimizerConfig) -> bool:
    """Step against the gradient; ADAM scales each step by bias-corrected moment estimates."""
    m = np.zeros_like(point)
    v = np.zeros_like(point)
    for t in range(1, config.max_iterations + 1):
        g = np.asarray(gradient(point), dtype=float)
        if not np.all(np.isfinite(g)):
            return False
        if config.kind == "adam":
            m = config.adam_beta1 * m + (1.0 - config.adam_beta1) * g
            v = config.adam_beta2 * v + (1.0 - config.adam_beta2) * g * g
            m_hat = m / (1.0 - config.adam_beta1**t)
            v_hat = v / (1.0 - config.adam_beta2**t)
            point = point - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
        else:
            point = point - config.learning_rate * g
        if tracker.advance(point):
            return True
    return False


def _spsa_loop(tracker: _Tracker, point: np.ndarray, config: OptimizerConfig) -> bool:
    stability = config.spsa_A if config.spsa_A is not None else config.max_iterations / 10.0
    gain_a = config.spsa_a
    directions = _streams(config.seed, np.arange(config.max_iterations))  # iteration k reads (seed, k)
    for k, rng in zip(range(config.max_iterations), directions):
        c_k = config.spsa_c / (k + 1.0) ** config.spsa_gamma
        delta = _rademacher(rng, point.size)
        g = _central_difference(tracker, point, c_k * delta) / (2.0 * c_k * delta)
        if gain_a is None:
            # First-sample calibration: make the first update roughly 0.1 per component.
            magnitude = float(np.mean(np.abs(g)))
            gain_a = 0.1 if magnitude < 1e-12 else 0.1 * (1.0 + stability) ** config.spsa_alpha / magnitude
        a_k = gain_a / (k + 1.0 + stability) ** config.spsa_alpha
        point = point - a_k * g
        if tracker.advance(point):
            return True
    return False
