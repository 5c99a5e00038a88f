"""Quantum neural networks: expectation-valued and distribution-valued forward maps.

Both network types split the circuit parameters into input and weight
partitions by explicit index lists and share one ``forward`` and one
``backward``: prepare the state, then read it out. The estimator reads
observable expectations, the sampler bucketed outcome probabilities; that
readout is the only thing that differs. Backward passes go through the
shift rule, so they are exact in exact mode. Outcome probabilities are
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
    _row_blocks,
    run_ops,
    sample_indices,
)


def parity_interpret(bitstring: str) -> int:
    """0 for even-weight outcomes, 1 for odd."""
    return bitstring.count("1") % 2


def identity_interpret(bitstring: str) -> int:
    """Outcome index itself (little-endian), for output_dim = 2^n."""
    return bitstring_to_index(bitstring)


class _QnnBase:
    """Input/weight partition plus the one forward and backward pass.

    A subclass sets ``output_dim`` and supplies ``_readout(state, shots,
    seed)``, the 1-d output read from a prepared state; everything else is
    shared.
    """

    output_dim: int

    def __init__(self, circuit: Circuit, input_params, weight_params, input_gradients: bool):
        self.circuit = circuit
        self.input_params = tuple(int(i) for i in input_params)
        self.weight_params = tuple(int(i) for i in weight_params)
        if sorted(self.input_params + self.weight_params) != list(range(circuit.num_parameters)):
            raise CircuitError(
                "input and weight indices must partition the circuit parameters exactly"
            )
        self.input_gradients = input_gradients

    def _values(self, inputs, weights) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if inputs.shape != (len(self.input_params),):
            raise CircuitError(f"expected {len(self.input_params)} inputs, got {inputs.shape}")
        if weights.shape != (len(self.weight_params),):
            raise CircuitError(f"expected {len(self.weight_params)} weights, got {weights.shape}")
        values = np.zeros(self.circuit.num_parameters)
        values[list(self.input_params)] = inputs
        values[list(self.weight_params)] = weights
        return values

    def _outputs(self, rows, weights, shots: int | None, seeds) -> np.ndarray:
        """One output row per input row; states are prepared in row blocks and
        row i reads out with ``seeds[i]``."""
        n, gates = self.circuit.num_qubits, self.circuit.gates
        values = np.array([self._values(x, weights) for x in rows])
        return np.array([
            self._readout(Statevector(n, amplitudes), shots, seed)
            for block in _row_blocks(n, len(gates), len(values))
            for amplitudes, seed in zip(
                run_ops(n, gates, bound_angles(self.circuit, values[block])), seeds[block]
            )
        ])

    def forward(self, inputs, weights, shots: int | None = None, seed: int | None = None) -> np.ndarray:
        """One output vector: expectation values, or bucket probabilities summing to 1."""
        return self._outputs([inputs], weights, shots, [seed])[0]

    def backward(
        self, inputs, weights, shots: int | None = None, seed: int | None = None
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Shift-rule Jacobians (d output / d input, d output / d weight).

        The input Jacobian is None when the network was built with
        ``input_gradients=False`` (the usual setting while training, where
        data parameters may sit in non-shiftable encodings). Shifted state k
        reads out from ``derive_seed(seed, k)`` in shot mode.
        """
        values = self._values(inputs, weights)

        def evaluate(state: Statevector, task: int) -> np.ndarray:
            return self._readout(state, shots, derive_seed(seed, task) if shots is not None else None)

        def jacobian(indices: tuple[int, ...]) -> np.ndarray:
            if not indices:
                return np.zeros((self.output_dim, 0))
            wrt = [self.circuit.parameters[i] for i in indices]
            return shift_rule_jacobian(self.circuit, values, evaluate, wrt=wrt).T

        weight_jac = jacobian(self.weight_params)
        return (jacobian(self.input_params) if self.input_gradients else None), weight_jac


class EstimatorQnn(_QnnBase):
    """Forward map from (inputs, weights) to observable expectation values."""

    # perfbench/spans.py wraps cls.__dict__["forward"/"backward"], so each class holds both names.
    forward, backward = _QnnBase.forward, _QnnBase.backward

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
        self.observables = tuple(observables)
        super().__init__(circuit, input_params, weight_params, input_gradients)

    @property
    def output_dim(self) -> int:
        return len(self.observables)

    def _readout(self, state: Statevector, shots: int | None, seed: int | None) -> np.ndarray:
        if shots is None:
            return np.array([expectation(state, obs) for obs in self.observables])
        return np.array(
            [
                expectation_sampled(state, obs, shots, derive_seed(seed, o))
                for o, obs in enumerate(self.observables)
            ]
        )


class SamplerQnn(_QnnBase):
    """Forward map from (inputs, weights) to a probability vector.

    ``interpret`` buckets each outcome bitstring into an output index in
    ``[0, output_dim)``; identity (over all 2^n outcomes) is the default and
    ``parity_interpret`` gives the two-class variant. Totality is enforced at
    construction by pushing every possible outcome through ``interpret``.
    Rows of each Jacobian sum to zero across outputs, since the outputs
    always sum to one.
    """

    # perfbench/spans.py wraps cls.__dict__["forward"/"backward"], so each class holds both names.
    forward, backward = _QnnBase.forward, _QnnBase.backward

    def __init__(
        self,
        circuit: Circuit,
        input_params: Sequence[int],
        weight_params: Sequence[int],
        interpret: Callable[[str], int] | None = None,
        output_dim: int | None = None,
        input_gradients: bool = True,
    ):
        super().__init__(circuit, input_params, weight_params, input_gradients)
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

    def _readout(self, state: Statevector, shots: int | None, seed: int | None) -> np.ndarray:
        if shots is None:
            return np.bincount(self._bins, weights=state.probabilities(), minlength=self.output_dim)
        outcomes = sample_indices(state, shots, seed)
        return np.bincount(self._bins[outcomes], minlength=self.output_dim) / shots
