"""Gradient engines for parameterized circuit functions.

Four routes with different trade-offs: the shift rule gives exact
gradients for every angle expression of every rotation gate (it moves the
gate's angle, by the two-term rule for RX, RY and RZ and the four-term rule
for CRY, and applies the chain rule) and works in shot mode too; the adjoint
sweep gives the same exact Jacobians of exact expectations from one forward
and one reverse pass (the simulator's ``_adjoint_terms``), whatever the
parameter count, and applies the same chain rule to each gate's term;
simultaneous perturbation gives cheap stochastic estimates for anything
evaluable; and central finite differences are the assumption-free cross-check.
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
    _adjoint_terms,
    _check_shots,
    _expectations,
    _row_blocks,
    run_ops,
    _sampled_expectations,
    _seeds,
    _streams,
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
    tasks)``, returning (B, output_dim): complex128 amplitude row b is table row ``rows[b]``
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
    (0, len(wrt), 0), with no ``evaluate`` call, for a table of no rows. This is the one
    place where the states of a real (float64) circuit are copied to complex128.
    """
    table, n = np.asarray(values, dtype=float), circuit.num_qubits
    read = evaluate if table.ndim == 2 else lambda states, rows, tasks: [
        evaluate(Statevector(n, amplitudes), k) for amplitudes, k in zip(states, tasks.tolist())]
    complex_read = lambda states, rows, tasks: read(np.asarray(states, dtype=complex), rows, tasks)
    jacobian = _shift_rule(circuit, np.atleast_2d(table), complex_read, shift, wrt)[0]
    return jacobian if table.ndim == 2 else jacobian[0]


def _shift_rule(circuit: Circuit, table, evaluate, shift=math.pi / 2, wrt=None, unshifted: int = 0):
    """The shift rule's (R, len(wrt), output_dim) Jacobian over an (R, P) ``table``, as
    ``shift_rule_jacobian`` describes it, and the (R, unshifted, output_dim) outputs of ``unshifted``
    tasks per row, numbered -unshifted, ..., -1 after its shifted ones, that read its unshifted
    state. ``evaluate(states, rows, tasks)`` gets each block's rows as ``run_ops`` returns them:
    float64 for a circuit of only ``_REAL_KINDS`` gates, complex128 otherwise, and a block evaluates
    only its own rows' angles. With no parameters, only the unshifted tasks run (a network's forward
    pass); with neither, or no rows, nothing runs and both are empty."""
    _check_shift(shift)
    params = list(circuit.parameters if wrt is None else wrt)
    occurrences = _occurrence_map(circuit, params)
    for p in params:
        if not occurrences[p]:
            raise CircuitError(f"parameter {p.name!r} does not occur in the circuit")
    table, n = np.asarray(table, dtype=float), circuit.num_qubits
    if not (params or unshifted) or not len(table):  # (R, 0, 0) or (0, P, 0)
        return np.zeros((len(table), len(params), 0)), np.zeros((len(table), unshifted, 0))
    two_term = ((shift, 2.0 * math.sin(shift)),)
    pairs = [(k, gate, s, divisor) for k, p in enumerate(params) for gate in occurrences[p]
             for s, divisor in (_CRY_RULE if circuit.gates[gate].kind == "CRY" else two_term)]
    owners, gates, shifts, divisors = map(np.array, zip(*pairs)) if pairs else np.zeros((4, 0), int)
    env = dict(zip(circuit.parameters, table.T))  # the rows' parameter values, as bound_angles reads them
    slopes = np.empty((len(table), len(pairs)))  # d angle / d parameter, per row and pair
    for j, (k, gate, _, _) in enumerate(pairs):
        slopes[:, j] = _slope(circuit.gates[gate].angle, params[k], env)
    steps = np.where(slopes < 0, -shifts, shifts)  # each pair's first angle move
    shifted, blocks = 2 * len(pairs), []
    tasks = shifted + unshifted
    for block in _row_blocks(n, len(circuit.gates), len(table) * tasks):
        rows, task = np.divmod(np.arange(block.start, min(block.stop, len(table) * tasks)), tasks)
        moved = np.flatnonzero(task < shifted)
        angles, pair = bound_angles(circuit, table[rows[0]:rows[-1] + 1])[rows - rows[0]], task[moved] // 2
        angles[moved, gates[pair]] += np.where(task[moved] % 2, -1.0, 1.0) * steps[rows[moved], pair]
        # Unnamed, so that no block's states outlive its callback.
        blocks.append(np.asarray(evaluate(run_ops(n, circuit.gates, angles), rows,
                                          np.where(task < shifted, task, task - tasks)), dtype=float))
    outputs = np.concatenate(blocks).reshape(len(table), tasks, blocks[0].shape[1])
    moves = outputs[:, :shifted].reshape(len(table), -1, 2, outputs.shape[2])  # each pair's two moves
    terms = (moves[:, :, 0] - moves[:, :, 1]) / divisors[:, None] * np.abs(slopes)[:, :, None]
    jacobian = np.zeros((len(table), len(params), terms.shape[2]))
    np.add.at(jacobian, (slice(None), owners), terms)  # occurrences add up in gate order
    return jacobian, outputs[:, shifted:]


def _adjoint_jacobian(circuit: Circuit, observables: Sequence[PauliObservable], values,
                      wrt: Sequence[Parameter], read=None) -> np.ndarray:
    """(R, len(observables), len(wrt)) exact Jacobian of each observable's expectation over an
    (R, P) table of ``values``, from one adjoint sweep per row block: each term that
    ``_adjoint_terms`` yields for a gate holding a parameter of ``wrt``, times the angle's slope
    in the parameter, is added to that parameter's entries (the chain and product rules). A
    row's Jacobian does not depend on the other rows of its block. ``read``, if given, is called
    on each block's forward states, in row order.
    """
    params, n, gates = list(wrt), circuit.num_qubits, circuit.gates
    occurrences, owners = _occurrence_map(circuit, params), {}
    for k, p in enumerate(params):
        for g in occurrences[p]:
            owners.setdefault(g, []).append(k)
    table = np.asarray(values, dtype=float)
    jacobian = np.zeros((len(table), len(observables), len(params)))
    for block in _row_blocks(n, len(gates), len(table)):
        env = dict(zip(circuit.parameters, table[block].T))
        for g, terms in _adjoint_terms(n, gates, bound_angles(circuit, table[block]), observables, owners, read):
            for k in owners[g]:
                jacobian[block, :, k] += np.reshape(_slope(gates[g].angle, params[k], env), (-1, 1)) * terms
    return jacobian


def param_shift_gradient(request: GradientRequest) -> np.ndarray:
    """Exact gradient of the expectation value via the shift rule: two shifted points
    per RX, RY or RZ occurrence of a parameter, at ``request.shift``, and four per CRY
    occurrence, at the fixed shifts pi/2 and 3 pi/2.

    Shot mode evaluates each shifted point with its own derived seed, so the
    estimate is deterministic for a given master seed. The shifted states of a real
    circuit are read in float64, as the simulator makes them.
    """
    shots = None if request.shots is None else _check_shots(request.shots)

    def evaluate(states: np.ndarray, rows: np.ndarray, tasks: np.ndarray) -> np.ndarray:
        if shots is None:
            return _expectations(states, request.observable)[:, None]
        return _sampled_expectations(states, request.observable, shots, _seeds(request.seed, tasks))[:, None]

    jacobian = _shift_rule(request.circuit, [request.values], evaluate, request.shift)[0][0]
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
    for _, rng in zip(range(config.resamples), _streams(config.seed, np.arange(config.resamples))):
        delta = _rademacher(rng, point.size)
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


def _rademacher(rng: np.random.Generator, size: int) -> np.ndarray:
    """A direction of ``size`` random signs +-1 drawn from ``rng``, one (seed, k) stream."""
    return rng.integers(0, 2, size=size) * 2.0 - 1.0


def _central_difference(f: Callable[[np.ndarray], float], point: np.ndarray, offset: np.ndarray) -> float:
    """f(point + offset) - f(point - offset), the plus side evaluated first; a non-finite
    value raises ValueError."""
    f_plus = float(f(point + offset))
    f_minus = float(f(point - offset))
    if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
        raise ValueError("objective returned a non-finite value")
    return f_plus - f_minus
