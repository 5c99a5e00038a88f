"""Quantum neural networks: expectation-valued and distribution-valued forward maps.

Both network types split the circuit parameters into input and weight
partitions by explicit index lists and share one ``forward`` and one
``backward``: prepare a block of states, then read it out. The estimator reads
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
    bitstring_to_index,
    derive_seed,
    _cdf,
    _draws,
    _expectations,
    index_to_bitstring,
    _parity,
    _probabilities,
    _row_blocks,
    run_ops,
    _sampled_expectations,
)


def parity_interpret(bitstring: str) -> int:
    """0 for even-weight outcomes, 1 for odd."""
    return bitstring.count("1") % 2


def identity_interpret(bitstring: str) -> int:
    """Outcome index itself (little-endian), for output_dim = 2^n."""
    return bitstring_to_index(bitstring)


def _index_bins(interpret, num_qubits: int) -> np.ndarray | None:
    """Every outcome index's bucket under ``identity_interpret`` (the index) or
    ``parity_interpret`` (the parity of its bits), by index arithmetic; None for any
    other interpret."""
    indices = np.arange(2**num_qubits)
    if interpret is identity_interpret:
        return indices
    return _parity(indices, range(num_qubits)) if interpret is parity_interpret else None


class _QnnBase:
    """Input/weight partition plus the one forward and backward pass.

    A subclass sets ``output_dim`` and supplies ``_readout(states, shots, seeds)``:
    the (B, output_dim) outputs of (B, 2^n) amplitude rows, row b seeded by ``seeds[b]``.
    Both passes take input rows beside one weight vector and read states a block at a
    time: ``_outputs`` every row's state, ``_jacobians`` every row's shifted states, the
    weights' then the inputs', in one shift rule. ``forward`` and ``backward`` are their
    one-row cases.
    """

    output_dim: int

    def __init__(self, circuit: Circuit, input_params, weight_params, input_gradients: bool):
        self.circuit = circuit
        self.input_params = tuple(int(i) for i in input_params)
        self.weight_params = tuple(int(i) for i in weight_params)
        if sorted(self.input_params + self.weight_params) != list(range(circuit.num_parameters)):
            raise CircuitError("input and weight indices must partition the circuit parameters exactly")
        self.input_gradients = input_gradients

    def _values(self, rows, weights) -> np.ndarray:
        """The (R, P) value table: every input row beside the one weight vector."""
        rows, weights = np.asarray(rows, dtype=float), np.asarray(weights, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.input_params):
            raise CircuitError(f"expected {len(self.input_params)} inputs per row, got {rows.shape[1:]}")
        if weights.shape != (len(self.weight_params),):
            raise CircuitError(f"expected {len(self.weight_params)} weights, got {weights.shape}")
        values = np.zeros((len(rows), self.circuit.num_parameters))
        values[:, list(self.input_params)] = rows
        values[:, list(self.weight_params)] = weights
        return values

    def _outputs(self, rows, weights, shots: int | None, seeds) -> np.ndarray:
        """One output row per input row; states are prepared and read in row blocks,
        row i with ``seeds[i]``."""
        n, gates = self.circuit.num_qubits, self.circuit.gates
        values = self._values(rows, weights)
        # The empty first block gives zero input rows a (0, output_dim) result.
        return np.concatenate([np.zeros((0, self.output_dim))] + [
            self._readout(run_ops(n, gates, bound_angles(self.circuit, values[block])), shots, seeds[block])
            for block in _row_blocks(n, len(gates), len(values))
        ])

    def _jacobians(self, rows, weights, shots: int | None, seeds):
        """(R, outputs, inputs), None without ``input_gradients``, and (R, outputs, weights)
        from one shift rule over all rows, whose tasks run over the weights, then the
        inputs; row i's shifted state k reads out from ``derive_seed(seeds[i], k)`` in shot
        mode, so no two of a row's shifted states share a stream."""
        values = self._values(rows, weights)
        indices = self.weight_params + (self.input_params if self.input_gradients else ())

        def evaluate(states: np.ndarray, rows: np.ndarray, tasks: np.ndarray) -> np.ndarray:
            task_seeds = None if shots is None else [derive_seed(seeds[i], k) for i, k in zip(rows, tasks)]
            return self._readout(states, shots, task_seeds)

        if indices and len(values):
            wrt = [self.circuit.parameters[i] for i in indices]
            jacobian = shift_rule_jacobian(self.circuit, values, evaluate, wrt=wrt).transpose(0, 2, 1)
        else:
            jacobian = np.zeros((len(values), self.output_dim, len(indices)))
        w = len(self.weight_params)
        return (jacobian[:, :, w:] if self.input_gradients else None), jacobian[:, :, :w]

    def forward(self, inputs, weights, shots: int | None = None, seed: int | None = None) -> np.ndarray:
        """One output vector: expectation values, or bucket probabilities summing to 1."""
        return self._outputs([inputs], weights, shots, [seed])[0]

    def backward(
        self, inputs, weights, shots: int | None = None, seed: int | None = None
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Shift-rule Jacobians (d output / d input, d output / d weight) of one row.

        The input Jacobian is None when the network was built with
        ``input_gradients=False``, the usual setting while training, which
        skips the input parameters' shifted states. The shifted states run
        over the weights, then the inputs, and shifted state k reads out from
        ``derive_seed(seed, k)`` in shot mode.
        """
        input_jac, weight_jac = self._jacobians([inputs], weights, shots, [seed])
        return (None if input_jac is None else input_jac[0]), weight_jac[0]


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

    def _readout(self, states: np.ndarray, shots: int | None, seeds) -> np.ndarray:
        if shots is None:
            return np.stack([_expectations(states, obs) for obs in self.observables], axis=1)
        return np.stack([_sampled_expectations(states, obs, shots, [derive_seed(seed, o) for seed in seeds])
                         for o, obs in enumerate(self.observables)], axis=1)


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
        n, bins = circuit.num_qubits, _index_bins(interpret, circuit.num_qubits)
        # A custom interpret is called on every outcome; the library's own are called only on
        # the first outcome out of range, if any, for the error.
        custom = []
        for index in range(2**n) if bins is None else np.flatnonzero(bins >= self.output_dim)[:1].tolist():
            bucket = interpret(index_to_bitstring(index, n))
            if not isinstance(bucket, (int, np.integer)) or not 0 <= bucket < self.output_dim:
                raise CircuitError(
                    f"interpret maps outcome {index} to {bucket!r}, outside [0, {self.output_dim})"
                )
            custom.append(int(bucket))
        self._bins = np.array(custom) if bins is None else bins

    def _readout(self, states: np.ndarray, shots: int | None, seeds) -> np.ndarray:
        probs, d = _probabilities(states), self.output_dim
        if shots is not None:
            return np.array([np.bincount(self._bins[_draws(_cdf(p, out=p), shots, seed)], minlength=d) / shots
                             for p, seed in zip(probs, seeds)])
        # Bucket b * d + bin sums row b's probabilities in index order, as a per-row bincount does.
        buckets = (self._bins + d * np.arange(len(probs))[:, None]).ravel()
        return np.bincount(buckets, weights=probs.ravel(), minlength=d * len(probs)).reshape(-1, d)
