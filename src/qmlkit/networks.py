"""Quantum neural networks: expectation-valued and distribution-valued forward maps.

Both network types split the circuit parameters into input and weight
partitions by explicit index lists and differentiate through the shift rule,
so backward passes are exact in exact mode. Outcome probabilities are
expectations of diagonal projectors, which is what makes the sampler
network's Jacobian a plain shift-rule computation as well.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .circuits import Circuit, bound_angles
from .errors import CircuitError
from .gradients import shift_rule_jacobian
from .simulator import (
    PauliObservable,
    Statevector,
    bitstring_to_index,
    derive_seed,
    expectation,
    expectation_sampled,
    index_to_bitstring,
    run_ops,
    sample_indices,
)


def parity_interpret(bitstring: str) -> int:
    """0 for even-weight outcomes, 1 for odd."""
    return bitstring.count("1") % 2


def identity_interpret(bitstring: str) -> int:
    """Outcome index itself (little-endian), for output_dim = 2^n."""
    return bitstring_to_index(bitstring)


def _merge_values(
    num_parameters: int,
    input_params: tuple[int, ...],
    weight_params: tuple[int, ...],
    inputs,
    weights,
) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if inputs.shape != (len(input_params),):
        raise CircuitError(f"expected {len(input_params)} inputs, got {inputs.shape}")
    if weights.shape != (len(weight_params),):
        raise CircuitError(f"expected {len(weight_params)} weights, got {weights.shape}")
    values = np.zeros(num_parameters)
    values[list(input_params)] = inputs
    values[list(weight_params)] = weights
    return values


def _check_partition(circuit: Circuit, input_params, weight_params) -> tuple[tuple[int, ...], tuple[int, ...]]:
    inputs = tuple(int(i) for i in input_params)
    weights = tuple(int(i) for i in weight_params)
    combined = sorted(inputs + weights)
    if combined != list(range(circuit.num_parameters)):
        raise CircuitError(
            "input and weight indices must partition the circuit parameters exactly"
        )
    return inputs, weights


class _QnnBase:
    """Shared partition plumbing and the shift-rule Jacobian."""

    circuit: Circuit
    input_params: tuple[int, ...]
    weight_params: tuple[int, ...]
    input_gradients: bool

    def _merged(self, inputs, weights) -> np.ndarray:
        return _merge_values(
            self.circuit.num_parameters, self.input_params, self.weight_params, inputs, weights
        )

    def _jacobian(self, values, evaluate, indices: tuple[int, ...], output_dim: int) -> np.ndarray:
        if not indices:
            return np.zeros((output_dim, 0))
        wrt = [self.circuit.parameters[i] for i in indices]
        rows = shift_rule_jacobian(self.circuit, values, evaluate, wrt=wrt)
        return rows.T


class EstimatorQnn(_QnnBase):
    """Forward map from (inputs, weights) to observable expectation values."""

    def __init__(
        self,
        circuit: Circuit,
        observables: Sequence[PauliObservable],
        input_params: Sequence[int],
        weight_params: Sequence[int],
        input_gradients: bool = True,
    ):
        if not observables:
            raise CircuitError("EstimatorQnn needs at least one observable")
        for obs in observables:
            if obs.num_qubits != circuit.num_qubits:
                raise CircuitError(
                    f"observable width {obs.num_qubits} != circuit width {circuit.num_qubits}"
                )
        self.circuit = circuit
        self.observables = tuple(observables)
        self.input_params, self.weight_params = _check_partition(
            circuit, input_params, weight_params
        )
        self.input_gradients = input_gradients

    @property
    def output_dim(self) -> int:
        return len(self.observables)

    def _measure(self, state: Statevector, shots: int | None, seed: int | None) -> np.ndarray:
        if shots is None:
            return np.array([expectation(state, obs) for obs in self.observables])
        return np.array(
            [
                expectation_sampled(state, obs, shots, derive_seed(seed, o))
                for o, obs in enumerate(self.observables)
            ]
        )

    def forward(self, inputs, weights, shots: int | None = None, seed: int | None = None) -> np.ndarray:
        """One expectation value per observable."""
        values = self._merged(inputs, weights)
        state = run_ops(self.circuit.num_qubits, self.circuit.gates, bound_angles(self.circuit, values))
        return self._measure(state, shots, seed)

    def backward(
        self, inputs, weights, shots: int | None = None, seed: int | None = None
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Shift-rule Jacobians (d output / d input, d output / d weight).

        The input Jacobian is None when the network was built with
        ``input_gradients=False`` (the usual setting while training, where
        data parameters may sit in non-shiftable encodings).
        """
        values = self._merged(inputs, weights)

        def evaluate(state: Statevector, task: int) -> np.ndarray:
            return self._measure(state, shots, derive_seed(seed, task) if shots is not None else None)

        weight_jac = self._jacobian(values, evaluate, self.weight_params, self.output_dim)
        input_jac = (
            self._jacobian(values, evaluate, self.input_params, self.output_dim)
            if self.input_gradients
            else None
        )
        return input_jac, weight_jac


class SamplerQnn(_QnnBase):
    """Forward map from (inputs, weights) to a probability vector.

    ``interpret`` buckets each outcome bitstring into an output index in
    ``[0, output_dim)``; identity (over all 2^n outcomes) is the default and
    ``parity_interpret`` gives the two-class variant. Totality is enforced at
    construction by pushing every possible outcome through ``interpret``.
    """

    def __init__(
        self,
        circuit: Circuit,
        input_params: Sequence[int],
        weight_params: Sequence[int],
        interpret: Callable[[str], int] | None = None,
        output_dim: int | None = None,
        input_gradients: bool = True,
    ):
        self.circuit = circuit
        self.input_params, self.weight_params = _check_partition(
            circuit, input_params, weight_params
        )
        if interpret is None:
            interpret = identity_interpret
            output_dim = output_dim if output_dim is not None else 2**circuit.num_qubits
        if output_dim is None:
            raise CircuitError("output_dim is required with a custom interpret function")
        self.interpret = interpret
        self.output_dim = int(output_dim)
        bins = []
        for index in range(2**circuit.num_qubits):
            bucket = interpret(index_to_bitstring(index, circuit.num_qubits))
            if not isinstance(bucket, (int, np.integer)) or not 0 <= bucket < self.output_dim:
                raise CircuitError(
                    f"interpret maps outcome {index} to {bucket!r}, outside [0, {self.output_dim})"
                )
            bins.append(int(bucket))
        self._bins = np.array(bins)
        self.input_gradients = input_gradients

    def _bucketed(self, state: Statevector, shots: int | None, seed: int | None) -> np.ndarray:
        if shots is None:
            return np.bincount(self._bins, weights=state.probabilities(), minlength=self.output_dim)
        outcomes = sample_indices(state, shots, seed)
        return np.bincount(self._bins[outcomes], minlength=self.output_dim) / shots

    def forward(self, inputs, weights, shots: int | None = None, seed: int | None = None) -> np.ndarray:
        """Probability mass per output bucket; sums to 1."""
        values = self._merged(inputs, weights)
        state = run_ops(self.circuit.num_qubits, self.circuit.gates, bound_angles(self.circuit, values))
        return self._bucketed(state, shots, seed)

    def backward(
        self, inputs, weights, shots: int | None = None, seed: int | None = None
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Shift-rule Jacobians of every output probability.

        Rows of each Jacobian sum to zero across outputs since the forward
        outputs always sum to one.
        """
        values = self._merged(inputs, weights)

        def evaluate(state: Statevector, task: int) -> np.ndarray:
            return self._bucketed(
                state, shots, derive_seed(seed, task) if shots is not None else None
            )

        weight_jac = self._jacobian(values, evaluate, self.weight_params, self.output_dim)
        input_jac = (
            self._jacobian(values, evaluate, self.input_params, self.output_dim)
            if self.input_gradients
            else None
        )
        return input_jac, weight_jac
