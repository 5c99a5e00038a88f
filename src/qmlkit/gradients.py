"""Gradient engines for parameterized circuit functions.

Three routes with different trade-offs: the shift rule gives exact
gradients for pure rotation angles, simultaneous perturbation gives cheap
stochastic estimates for anything evaluable, and central finite differences
serve as the slow, assumption-free cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuits import Circuit, Parameter, bound_angles
from .errors import CircuitError, UnsupportedParameterError
from .simulator import (
    PauliObservable,
    Statevector,
    derive_rng,
    derive_seed,
    expectation,
    expectation_sampled,
    run_ops,
)

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class GradientRequest:
    """Shift-rule gradient of estimator(circuit, observable, .) at ``values``."""

    circuit: Circuit
    observable: PauliObservable
    values: Sequence[float]
    shift: float = math.pi / 2
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if abs(math.sin(self.shift)) <= 1e-9:
            raise CircuitError(f"shift {self.shift} has sin(s) too close to zero")


@dataclass(frozen=True)
class SpsaGradientConfig:
    """Perturbation size, resample count, and RNG seed for SPSA estimates."""

    perturbation: float = 0.1
    resamples: int = 1
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.perturbation) and self.perturbation > 0.0):
            raise CircuitError("perturbation must be finite and positive")
        if self.resamples < 1:
            raise CircuitError("resamples must be at least 1")


def _occurrence_map(circuit: Circuit, wrt: Sequence[Parameter]) -> dict[Parameter, list[int]]:
    """Gate indices where each requested parameter occurs as a pure rotation.

    A supported occurrence is a single-factor angle with |coefficient*scale|
    equal to 1 on an RX, RY or RZ gate; scaled, product-form or CRY
    occurrences of a requested parameter are rejected by name (the CRY
    generator has three eigenvalues, so the two-term rule does not hold).
    """
    requested = set(map(id, wrt))
    occurrences: dict[Parameter, list[int]] = {p: [] for p in wrt}
    by_id = {id(p): p for p in wrt}
    for index, gate in enumerate(circuit.gates):
        if gate.angle is None:
            continue
        for p in gate.angle.parameters:
            if id(p) not in requested:
                continue
            if gate.kind == "CRY":
                raise UnsupportedParameterError(p.name, "parameter occurs in a CRY angle")
            if len(gate.angle.factors) != 1:
                raise UnsupportedParameterError(p.name, "parameter occurs in a product-form angle")
            _, scale, _ = gate.angle.factors[0]
            if abs(abs(gate.angle.coefficient * scale) - 1.0) > _UNIT_TOL:
                raise UnsupportedParameterError(
                    p.name, "angle coefficient magnitude differs from 1"
                )
            occurrences[by_id[id(p)]].append(index)
    return occurrences


def shift_rule_jacobian(
    circuit: Circuit,
    values: Sequence[float],
    evaluate: Callable[[Statevector, int], np.ndarray],
    shift: float = math.pi / 2,
    wrt: Sequence[Parameter] | None = None,
) -> np.ndarray:
    """Occurrence-summed shift-rule Jacobian of a vector-valued state functional.

    ``evaluate(state, task_index)`` must return a 1-d array; the task index
    is unique per evaluation so callers can derive independent RNG streams.
    Each occurrence of a parameter is shifted separately and the two-point
    differences summed, which realizes the product rule when one parameter
    feeds several gates. Returns shape (len(wrt), output_dim).
    """
    base_angles = bound_angles(circuit, values)
    params = list(circuit.parameters if wrt is None else wrt)
    env = {p: float(v) for p, v in zip(circuit.parameters, values)}
    occurrences = _occurrence_map(circuit, params)
    denom = 2.0 * math.sin(shift)

    def state_with_shift(gate_index: int, param: Parameter, delta: float) -> Statevector:
        gate = circuit.gates[gate_index]
        shifted_env = dict(env)
        shifted_env[param] = env[param] + delta
        angles = list(base_angles)
        angles[gate_index] = gate.angle.evaluate(shifted_env)
        return run_ops(circuit.num_qubits, circuit.gates, angles)

    rows: list[np.ndarray] = []
    task = 0
    for p in params:
        row: np.ndarray | None = None
        for gate_index in occurrences[p]:
            plus = evaluate(state_with_shift(gate_index, p, shift), task)
            minus = evaluate(state_with_shift(gate_index, p, -shift), task + 1)
            task += 2
            term = (np.asarray(plus, dtype=float) - np.asarray(minus, dtype=float)) / denom
            row = term if row is None else row + term
        if row is None:
            raise CircuitError(f"parameter {p.name!r} does not occur in the circuit")
        rows.append(row)
    if not rows:
        return np.zeros((0, 0))
    return np.vstack(rows)


def param_shift_gradient(request: GradientRequest) -> np.ndarray:
    """Exact gradient of the expectation value via the two-point shift rule.

    Shot mode evaluates each shifted point with its own derived seed, so the
    estimate is deterministic for a given master seed.
    """

    def evaluate(state: Statevector, task: int) -> np.ndarray:
        if request.shots is None:
            value = expectation(state, request.observable)
        else:
            value = expectation_sampled(
                state, request.observable, request.shots, derive_seed(request.seed, task)
            )
        return np.array([value])

    jacobian = shift_rule_jacobian(
        request.circuit, request.values, evaluate, shift=request.shift
    )
    return jacobian[:, 0] if jacobian.size else np.zeros(0)


def spsa_gradient(
    f: Callable[[np.ndarray], float],
    values: Sequence[float],
    config: SpsaGradientConfig,
) -> np.ndarray:
    """Average of simultaneous-perturbation gradient estimates.

    Each resample draws a Rademacher direction from its own (seed, resample)
    stream and spends two function evaluations.
    """
    point = np.asarray(values, dtype=float)
    if point.ndim != 1:
        raise CircuitError("values must be a flat vector")
    if point.size == 0:
        return np.zeros(0)
    c = config.perturbation
    estimate = np.zeros_like(point)
    for k in range(config.resamples):
        rng = derive_rng(config.seed, k)
        delta = rng.integers(0, 2, size=point.size) * 2.0 - 1.0
        f_plus = float(f(point + c * delta))
        f_minus = float(f(point - c * delta))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ValueError("objective returned a non-finite value")
        estimate += (f_plus - f_minus) / (2.0 * c * delta)
    return estimate / config.resamples


def finite_difference(
    f: Callable[[np.ndarray], float],
    values: Sequence[float],
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient; the oracle the shift rule is checked against."""
    if step <= 0.0:
        raise CircuitError("step must be positive")
    point = np.asarray(values, dtype=float)
    gradient = np.zeros_like(point)
    for i in range(point.size):
        offset = np.zeros_like(point)
        offset[i] = step
        f_plus = float(f(point + offset))
        f_minus = float(f(point - offset))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ValueError("objective returned a non-finite value")
        gradient[i] = (f_plus - f_minus) / (2.0 * step)
    return gradient
