"""Quantum neural networks: expectation-valued and distribution-valued forward maps.

Both network types split the circuit parameters into input and weight
partitions by explicit index lists and share one ``forward`` and one
``backward``, and neither prepares states of its own: a forward pass is the
shift rule's unshifted task over no parameter, a backward pass the shift rule
over the weights, then the inputs. The estimator reads observable
expectations, the sampler bucketed outcome probabilities; that readout is the
only thing that differs, besides the estimator's exact-mode Jacobians, which
come from one adjoint sweep per row block (Jones & Gacon 2020): one forward and
one reverse pass, whatever the parameter count. Outcome probabilities are
expectations of diagonal projectors, which makes the sampler network's Jacobian
a plain shift-rule computation. Shot readouts draw counts from the exact ones:
a binomial per estimator term, a multinomial per sampler row.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .circuits import Circuit
from .errors import CircuitError
from .gradients import _adjoint_jacobian, _shift_rule
from .simulator import (
    PauliObservable,
    bitstring_to_index,
    _check_shots,
    _expectations,
    index_to_bitstring,
    _probabilities,
    _sampled_expectations,
    _seeds,
    _streams,
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
    if interpret is not parity_interpret:
        return indices if interpret is identity_interpret else None
    parity = np.zeros_like(indices)
    for q in range(num_qubits):
        parity ^= indices >> q  # bit 0 of the XOR of the shifts is the bits' parity
    return parity & 1


class _QnnBase:
    """Input/weight partition plus the one forward and backward pass.

    A subclass sets ``output_dim`` and supplies ``_readout(states, shots, seeds)``:
    the (B, output_dim) outputs of (B, 2^n) amplitude rows, row b seeded by ``seeds[b]``,
    float64 rows for a real circuit and complex128 ones otherwise, as ``run_ops`` makes them.
    ``seeds`` holds one seed per row, or is one seed (an int or None) for a one-row call.
    Both passes take input rows beside one weight vector and run one shift-rule table
    (``gradients._shift_rule``), which prepares states a row block at a time: ``_outputs``
    reads only its unshifted task, ``_jacobians`` the derivatives in the weights, then the
    inputs, from ``_jacobian``: every row's shifted states, or a subclass's own route, which
    can also read every row's unshifted state once per seed set it is given. ``forward`` and
    ``backward`` are their one-row cases.
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
        """One output row per input row, row i read out with ``seeds[i]``: the unshifted task of
        a shift rule over no parameter, which prepares the states a row block at a time."""
        shots = None if shots is None else _check_shots(shots)

        def evaluate(states: np.ndarray, rows: np.ndarray, tasks: np.ndarray) -> np.ndarray:
            return self._readout(states, shots, seeds if shots is None or np.ndim(seeds) == 0
                                 else np.asarray(seeds, np.uint64)[rows])

        outputs = _shift_rule(self.circuit, self._values(rows, weights), evaluate, wrt=(), unshifted=1)[1]
        return outputs.reshape(-1, self.output_dim)

    def _jacobians(self, rows, weights, shots: int | None, seeds, readouts=()):
        """(R, outputs, inputs), None without ``input_gradients``, and (R, outputs, weights)
        from one ``_jacobian`` over all rows and the weights, then the inputs; then the rows'
        (R, outputs) readout under each seed set of ``readouts``, read in the same ``_jacobian``
        pass. With nothing to differentiate, that pass prepares only the unshifted states, one per
        row and seed set; with nothing to read either, or no rows, nothing runs."""
        values = self._values(rows, weights)
        shots = None if shots is None else _check_shots(shots)
        indices = self.weight_params + (self.input_params if self.input_gradients else ())
        wrt = [self.circuit.parameters[i] for i in indices]
        jacobian, outputs = self._jacobian(values, wrt, shots, seeds, readouts)
        w = len(self.weight_params)
        return (jacobian[:, :, w:] if self.input_gradients else None), jacobian[:, :, :w], *outputs

    def _jacobian(self, values: np.ndarray, wrt, shots: int | None, seeds, readouts=()):
        """(R, outputs, len(wrt)) from one shift rule over the (R, P) ``values``, and each row's
        unshifted readout under each seed set of ``readouts``, read in the same table: row i's
        shifted state k reads out from ``derive_seed(seeds[i], k)`` in shot mode, so no two
        of a row's shifted states share a stream, and its j-th unshifted one from ``readouts[j][i]``."""

        def evaluate(states: np.ndarray, rows: np.ndarray, tasks: np.ndarray) -> np.ndarray:
            row_seeds = seeds if shots is None or np.ndim(seeds) == 0 else np.asarray(seeds, np.uint64)[rows]
            task_seeds = None if shots is None else _seeds(row_seeds, np.maximum(tasks, 0))
            if task_seeds is not None and readouts:  # task j - len(readouts) reads out from readouts[j]
                task_seeds[tasks < 0] = np.asarray(readouts, np.uint64)[tasks[tasks < 0], rows[tasks < 0]]
            return self._readout(states, shots, task_seeds)

        jacobian, outputs = _shift_rule(self.circuit, values, evaluate, wrt=wrt, unshifted=len(readouts))
        # With no rows, or no tasks, the shift rule's arrays are empty; the reshapes shape them.
        return (jacobian.transpose(0, 2, 1).reshape(len(values), self.output_dim, len(wrt)),
                list(outputs.transpose(1, 0, 2).reshape(len(readouts), len(values), self.output_dim)))

    def forward(self, inputs, weights, shots: int | None = None, seed: int | None = None) -> np.ndarray:
        """One output vector: expectation values, or bucket probabilities summing to 1."""
        return self._outputs([inputs], weights, shots, seed)[0]

    def backward(
        self, inputs, weights, shots: int | None = None, seed: int | None = None
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Jacobians (d output / d input, d output / d weight) of one row, exact in exact mode.

        The input Jacobian is None when the network was built with
        ``input_gradients=False``, the usual setting while training, which
        skips the input parameters' derivatives. An exact-mode estimator
        network takes them from one adjoint sweep; otherwise the shift rule's
        shifted states run over the weights, then the inputs, and shifted
        state k reads out from ``derive_seed(seed, k)`` in shot mode.
        """
        input_jac, weight_jac = self._jacobians([inputs], weights, shots, seed)
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

    def _jacobian(self, values: np.ndarray, wrt, shots: int | None, seeds, readouts=()):
        """Exact mode's Jacobian is one adjoint sweep per row block, whose final states give the
        readouts on ``_outputs``' row blocks; shot mode's the shift rule, as is a pass over no
        parameter, which only reads the unshifted states, or over no rows."""
        if shots is not None or not wrt or not len(values):
            return super()._jacobian(values, wrt, shots, seeds, readouts)
        blocks = []
        read = (lambda states: blocks.append(self._readout(states, None, None))) if readouts else None
        jacobian = _adjoint_jacobian(self.circuit, self.observables, values, wrt, read)
        return jacobian, [np.concatenate(blocks)] * len(readouts) if blocks else []

    def _readout(self, states: np.ndarray, shots: int | None, seeds) -> np.ndarray:
        if shots is None:
            return np.stack([_expectations(states, obs) for obs in self.observables], axis=1)
        return np.stack([_sampled_expectations(states, obs, shots, _seeds(seeds, o))
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
        # Bucket b * d + bin sums row b's probabilities in index order, as a per-row bincount does.
        buckets = (self._bins + d * np.arange(len(probs))[:, None]).ravel()
        sums = np.bincount(buckets, weights=probs.ravel(), minlength=d * len(probs)).reshape(-1, d)
        if shots is None:
            return sums
        return np.array([rng.multinomial(shots, row / row.sum()) for rng, row in zip(_streams(seeds), sums)]) / shots
