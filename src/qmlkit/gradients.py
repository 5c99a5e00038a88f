"""Gradient engines for parameterized circuit functions.

Three routes with different trade-offs: the shift rule gives exact
gradients for every angle expression of every rotation gate (it moves the
gate's angle, by the two-term rule for RX, RY and RZ and the four-term rule
for CRY, and applies the chain rule), simultaneous perturbation gives cheap
stochastic estimates for anything evaluable, and central finite differences
serve as the slow, assumption-free cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuits import AngleExpr, Circuit, Parameter, bound_angles
from .errors import CircuitError
from .simulator import (
    PauliObservable,
    Statevector,
    derive_rng,
    derive_seed,
    _expectations,
    _row_blocks,
    run_ops,
    _sampled_expectations,
)


def _check_shift(shift: float) -> None:
    """The shift rule divides by sin(shift): refuse a shift that makes it zero or not finite."""
    if not (math.isfinite(shift) and abs(math.sin(shift)) > 1e-9):
        raise CircuitError(f"shift {shift} must be finite with sin(shift) away from zero")


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
        _check_shift(self.shift)


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


# The four-term rule of a CRY angle, whose generator has eigenvalues 0 and +-1/2 (Anselmetti et
# al. 2021): (shift, divisor) pairs (pi/2, 1/d+) and (3 pi/2, -1/d-), d+- = (sqrt 2 +- 1) / (4 sqrt 2).
_ROOT2 = math.sqrt(2.0)
_CRY_RULE = ((math.pi / 2, 4.0 * _ROOT2 / (_ROOT2 + 1.0)), (1.5 * math.pi, -4.0 * _ROOT2 / (_ROOT2 - 1.0)))


def _occurrence_map(circuit: Circuit, wrt: Sequence[Parameter]) -> dict[Parameter, list[int]]:
    """Gate indices where each requested parameter occurs, each gate once."""
    occurrences: dict[Parameter, list[int]] = {p: [] for p in wrt}  # keyed by identity
    for index, gate in enumerate(circuit.gates):
        for p in dict.fromkeys(gate.angle.parameters if gate.angle else ()):
            if p in occurrences:
                occurrences[p].append(index)
    return occurrences


def _slope(angle: AngleExpr, param: Parameter, env) -> np.ndarray | float:
    """d angle / d param at ``env``: one term per factor that holds ``param`` (the product rule)."""
    return sum(
        AngleExpr(angle.coefficient * scale, angle.factors[:k] + angle.factors[k + 1:]).evaluate(env)
        for k, (_, scale, p) in enumerate(angle.factors) if p is param
    )


def shift_rule_jacobian(
    circuit: Circuit,
    values,
    evaluate: Callable[..., np.ndarray],
    shift: float = math.pi / 2,
    wrt: Sequence[Parameter] | None = None,
) -> np.ndarray:
    """Occurrence-summed shift-rule Jacobian of a vector-valued state functional.

    An ``(R, P)`` table of ``values`` is read a block at a time by ``evaluate(states, rows,
    tasks)``, returning (B, output_dim): complex amplitude row b is table row ``rows[b]``
    under task ``tasks[b]``. One ``(P,)`` row is read one complex ``Statevector`` at a time
    by ``evaluate(state, task)``, returning a 1-d array. Tasks are numbered per row, so
    callers can derive independent RNG streams, and run over the parameters in ``wrt``
    order, then each one's gates, then each gate's (shift, divisor) pairs, two tasks a
    pair: one pair, (``shift``, 2 sin ``shift``), for an RX, RY or RZ gate and two, the
    four-term rule's (pi/2, 1/d+) and (3 pi/2, -1/d-), for a CRY gate. A task's state moves
    only that gate's angle, by the pair's shift in the direction the parameter's increase
    moves it, then against it. Each pair's difference over its divisor is scaled by the
    size of the gate's slope d angle / d parameter and the terms are summed (the chain and
    product rules). All rows' shifted states are prepared in row blocks. Returns
    (len(wrt), output_dim) for a row, (R, len(wrt), output_dim) for a table and
    (0, len(wrt), 0), with no ``evaluate`` call, for a table of no rows.
    """
    _check_shift(shift)
    params = list(circuit.parameters if wrt is None else wrt)
    occurrences = _occurrence_map(circuit, params)
    for p in params:
        if not occurrences[p]:
            raise CircuitError(f"parameter {p.name!r} does not occur in the circuit")
    values = np.asarray(values, dtype=float)
    if not params or (values.ndim == 2 and not len(values)):  # (R, 0, 0) or (0, P, 0)
        return np.zeros(values.shape[:-1] + (len(params), 0))
    two_term = ((shift, 2.0 * math.sin(shift)),)
    pairs = [(k, gate, s, divisor) for k, p in enumerate(params) for gate in occurrences[p]
             for s, divisor in (_CRY_RULE if circuit.gates[gate].kind == "CRY" else two_term)]
    owners, gates, shifts, divisors = map(np.array, zip(*pairs))
    table, n = np.atleast_2d(values), circuit.num_qubits
    read = evaluate if values.ndim == 2 else lambda states, rows, task: [
        evaluate(Statevector(n, amplitudes), k) for amplitudes, k in zip(states, task.tolist())]
    env = dict(zip(circuit.parameters, table.T))  # the rows' parameter values, as bound_angles reads them
    slopes = np.empty((len(table), len(pairs)))  # d angle / d parameter, per row and pair
    for j, (k, gate, _, _) in enumerate(pairs):
        slopes[:, j] = _slope(circuit.gates[gate].angle, params[k], env)
    steps = np.where(slopes < 0, -shifts, shifts)  # each pair's first angle move
    base = bound_angles(circuit, table)  # each row's unshifted angles, evaluated once
    tasks, blocks = 2 * len(pairs), []
    for block in _row_blocks(n, len(circuit.gates), len(table) * tasks):
        rows, task = np.divmod(np.arange(len(table) * tasks)[block], tasks)
        angles = base[rows]
        angles[np.arange(len(rows)), gates[task // 2]] += np.where(task % 2, -1.0, 1.0) * steps[rows, task // 2]
        # Unnamed, so that no block's states outlive its callback.
        blocks.append(np.asarray(read(np.asarray(run_ops(n, circuit.gates, angles), dtype=complex), rows, task),
                                 dtype=float))
    outputs = np.concatenate(blocks).reshape(len(table), -1, 2, blocks[0].shape[1])
    terms = (outputs[:, :, 0] - outputs[:, :, 1]) / divisors[:, None] * np.abs(slopes)[:, :, None]
    jacobian = np.zeros((len(table), len(params), terms.shape[2]))
    np.add.at(jacobian, (slice(None), owners), terms)  # occurrences add up in gate order
    return jacobian if values.ndim == 2 else jacobian[0]


def param_shift_gradient(request: GradientRequest) -> np.ndarray:
    """Exact gradient of the expectation value via the shift rule: two shifted points
    per RX, RY or RZ occurrence of a parameter, at ``request.shift``, and four per CRY
    occurrence, at the fixed shifts pi/2 and 3 pi/2.

    Shot mode evaluates each shifted point with its own derived seed, so the
    estimate is deterministic for a given master seed.
    """

    def evaluate(states: np.ndarray, rows: np.ndarray, tasks: np.ndarray) -> np.ndarray:
        if request.shots is None:
            return _expectations(states, request.observable)[:, None]
        seeds = [derive_seed(request.seed, k) for k in tasks]
        return _sampled_expectations(states, request.observable, request.shots, seeds)[:, None]

    jacobian = shift_rule_jacobian(request.circuit, [request.values], evaluate, shift=request.shift)[0]
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
        delta = _rademacher(config.seed, k, point.size)
        estimate += _central_difference(f, point, c * delta) / (2.0 * c * delta)
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
        gradient[i] = _central_difference(f, point, offset) / (2.0 * step)
    return gradient


def _rademacher(seed: int | None, k: int, size: int) -> np.ndarray:
    """A direction of ``size`` random signs +-1 drawn from the (seed, k) stream."""
    return derive_rng(seed, k).integers(0, 2, size=size) * 2.0 - 1.0


def _central_difference(f: Callable[[np.ndarray], float], point: np.ndarray, offset: np.ndarray) -> float:
    """f(point + offset) - f(point - offset), the plus side evaluated first; a non-finite
    value raises ValueError."""
    f_plus = float(f(point + offset))
    f_minus = float(f(point - offset))
    if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
        raise ValueError("objective returned a non-finite value")
    return f_plus - f_minus
