import math

import numpy as np
import pytest

from qmlkit import (
    AngleExpr,
    Circuit,
    CircuitError,
    EstimatorQnn,
    Gate,
    Parameter,
    PauliObservable,
    SamplerQnn,
    finite_difference,
    identity_interpret,
    parity_interpret,
    real_amplitudes_ansatz,
    run,
    zz_feature_map,
)
from qmlkit import simulator
from qmlkit.simulator import sample_state

from .helpers import random_observable, random_supported_circuit

Z = PauliObservable(((1.0, "Z"),))


def xw_circuit() -> Circuit:
    x, w = Parameter("x"), Parameter("w")
    return Circuit(1).append(Gate.ry(x, 0)).append(Gate.ry(w, 0))


def make_estimator_qnn() -> EstimatorQnn:
    return EstimatorQnn(xw_circuit(), [Z], input_params=[0], weight_params=[1])


def test_estimator_forward_closed_form():
    qnn = make_estimator_qnn()
    assert qnn.forward([0.0], [0.0])[0] == pytest.approx(1.0)
    assert qnn.forward([math.pi / 2], [0.0])[0] == pytest.approx(0.0, abs=1e-12)
    assert qnn.forward([math.pi / 4], [math.pi / 4])[0] == pytest.approx(0.0, abs=1e-12)


def test_estimator_backward_closed_form():
    qnn = make_estimator_qnn()
    _, weight_jac = qnn.backward([0.0], [0.0])
    assert weight_jac[0, 0] == pytest.approx(0.0, abs=1e-12)
    _, weight_jac = qnn.backward([math.pi / 2], [0.0])
    assert weight_jac[0, 0] == pytest.approx(-1.0, abs=1e-8)


def test_estimator_input_gradient_equals_weight_gradient():
    qnn = make_estimator_qnn()
    for x, w in ((0.3, -0.8), (1.2, 0.5)):
        input_jac, weight_jac = qnn.backward([x], [w])
        assert input_jac[0, 0] == pytest.approx(weight_jac[0, 0], abs=1e-10)


def test_estimator_backward_respects_input_gradient_flag():
    qnn = EstimatorQnn(xw_circuit(), [Z], [0], [1], input_gradients=False)
    input_jac, weight_jac = qnn.backward([0.4], [0.1])
    assert input_jac is None
    assert weight_jac.shape == (1, 1)


def test_partition_must_cover_exactly():
    with pytest.raises(CircuitError):
        EstimatorQnn(xw_circuit(), [Z], [0], [])
    with pytest.raises(CircuitError):
        EstimatorQnn(xw_circuit(), [Z], [0, 1], [1])


def test_sampler_forward_hadamard():
    circuit = Circuit(1).append(Gate.h(0))
    qnn = SamplerQnn(circuit, [], [], interpret=identity_interpret, output_dim=2)
    assert qnn.forward([], []) == pytest.approx([0.5, 0.5])


def test_sampler_parity_of_one_one():
    circuit = Circuit(2).append(Gate.x(0)).append(Gate.x(1))
    qnn = SamplerQnn(circuit, [], [], interpret=parity_interpret, output_dim=2)
    assert qnn.forward([], []) == pytest.approx([1.0, 0.0])


def test_sampler_ry_half_split():
    x = Parameter("x")
    circuit = Circuit(1).append(Gate.ry(x, 0))
    qnn = SamplerQnn(circuit, [0], [], interpret=identity_interpret, output_dim=2)
    assert qnn.forward([math.pi / 2], []) == pytest.approx([0.5, 0.5])


def test_sampler_outputs_sum_to_one():
    rng = np.random.default_rng(71)
    for _ in range(10):
        circuit, values = random_supported_circuit(rng)
        qnn = SamplerQnn(
            circuit, range(circuit.num_parameters), [], interpret=parity_interpret, output_dim=2
        )
        out = qnn.forward(values, [])
        assert out.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(out >= -1e-15)


def test_sampler_backward_rows_sum_to_zero():
    fm = zz_feature_map(2, 1)
    ansatz = real_amplitudes_ansatz(2, 1)
    circuit = fm.compose(ansatz)
    qnn = SamplerQnn(
        circuit,
        input_params=range(2),
        weight_params=range(2, circuit.num_parameters),
        interpret=parity_interpret,
        output_dim=2,
        input_gradients=False,
    )
    rng = np.random.default_rng(73)
    _, weight_jac = qnn.backward(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 4))
    assert np.allclose(weight_jac.sum(axis=0), 0.0, atol=1e-8)


def test_sampler_backward_closed_form():
    w = Parameter("w")
    circuit = Circuit(1).append(Gate.ry(w, 0))
    qnn = SamplerQnn(circuit, [], [0], interpret=identity_interpret, output_dim=2)
    _, jac = qnn.backward([], [math.pi / 2])
    # P(1) = sin^2(w/2), derivative sin(w)/2.
    assert jac[1, 0] == pytest.approx(0.5, abs=1e-10)
    _, jac = qnn.backward([], [0.0])
    assert jac[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_interpret_totality_enforced_at_construction():
    circuit = Circuit(2).append(Gate.h(0))
    with pytest.raises(CircuitError):
        SamplerQnn(circuit, [], [], interpret=lambda bits: 5, output_dim=2)
    with pytest.raises(CircuitError):
        SamplerQnn(circuit, [], [], interpret=lambda bits: -1, output_dim=4)


@pytest.mark.parametrize("num_qubits", range(1, 13))
def test_library_interpret_bins_equal_the_per_outcome_loop(num_qubits):
    circuit = Circuit(num_qubits)
    for interpret, output_dim in ((identity_interpret, 2**num_qubits), (parity_interpret, 2)):
        expected = np.array([interpret(simulator.index_to_bitstring(i, num_qubits)) for i in range(2**num_qubits)])
        bins = SamplerQnn(circuit, [], [], interpret, output_dim)._bins
        assert bins.dtype == expected.dtype and np.array_equal(bins, expected)
    # Out of range, the library's own interprets name the first outcome, as the loop did.
    with pytest.raises(CircuitError, match=r"outcome 1 to 1, outside \[0, 1\)"):
        SamplerQnn(circuit, [], [], parity_interpret, 1)
    with pytest.raises(CircuitError, match=rf"outcome {2**num_qubits - 1} to {2**num_qubits - 1}, outside"):
        SamplerQnn(circuit, [], [], identity_interpret, 2**num_qubits - 1)


def test_identity_interpret_default_output_dim():
    circuit = Circuit(2).append(Gate.h(0)).append(Gate.cx(0, 1))
    qnn = SamplerQnn(circuit, [], [])
    out = qnn.forward([], [])
    assert out.shape == (4,)
    assert out[0] == pytest.approx(0.5)
    assert out[3] == pytest.approx(0.5)


def test_estimator_backward_matches_finite_difference():
    rng = np.random.default_rng(79)
    for _ in range(10):
        circuit, values = random_supported_circuit(rng, max_params=4)
        P = circuit.num_parameters
        split = int(rng.integers(0, P + 1))
        order = rng.permutation(P)
        input_idx, weight_idx = sorted(order[:split]), sorted(order[split:])
        obs = random_observable(rng, circuit.num_qubits)
        qnn = EstimatorQnn(circuit, [obs], input_idx, weight_idx)
        inputs = values[input_idx] if input_idx else np.zeros(0)
        weights = values[weight_idx] if weight_idx else np.zeros(0)
        input_jac, weight_jac = qnn.backward(inputs, weights)
        if len(weight_idx):
            oracle = finite_difference(lambda v: qnn.forward(inputs, v)[0], weights, 1e-5)
            assert np.max(np.abs(weight_jac[0] - oracle)) < 1e-4
        if len(input_idx):
            oracle = finite_difference(lambda v: qnn.forward(v, weights)[0], inputs, 1e-5)
            assert np.max(np.abs(input_jac[0] - oracle)) < 1e-4


def test_sampler_forward_shot_mode_deterministic():
    x = Parameter("x")
    circuit = Circuit(1).append(Gate.ry(x, 0))
    qnn = SamplerQnn(circuit, [0], [], interpret=identity_interpret, output_dim=2)
    a = qnn.forward([0.8], [], shots=512, seed=6)
    b = qnn.forward([0.8], [], shots=512, seed=6)
    assert np.array_equal(a, b)
    assert a.sum() == pytest.approx(1.0)


def test_estimator_forward_shot_mode_deterministic():
    qnn = make_estimator_qnn()
    a = qnn.forward([0.3], [0.4], shots=256, seed=8)
    b = qnn.forward([0.3], [0.4], shots=256, seed=8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("interpret, output_dim", [(parity_interpret, 2), (lambda bits: bits.count("1"), 4)])
def test_shot_forward_equals_bucketed_sample_state(interpret, output_dim):
    circuit = zz_feature_map(3, 1).compose(real_amplitudes_ansatz(3, 1))
    qnn = SamplerQnn(circuit, range(3), range(3, circuit.num_parameters), interpret, output_dim)
    rng = np.random.default_rng(71)
    for seed in range(6):
        inputs = rng.uniform(-1.0, 1.0, 3)
        weights = rng.uniform(-math.pi, math.pi, len(qnn.weight_params))
        state = run(circuit.bind(np.concatenate([inputs, weights])))
        expected = np.zeros(output_dim)
        for bits, p in sample_state(state, 300, seed).probabilities.items():
            expected[interpret(bits)] += p
        forward = qnn.forward(inputs, weights, shots=300, seed=seed)
        assert np.max(np.abs(forward - expected)) <= 1e-15


def batch_circuit() -> Circuit:
    """Two plain-RY inputs and three weights, ``w0`` feeding two gates."""
    x0, x1, w0, w1, w2 = (Parameter(name) for name in ("x0", "x1", "w0", "w1", "w2"))
    return Circuit(2).extend([
        Gate.ry(x0, 0), Gate.ry(x1, 1), Gate.cx(0, 1), Gate.ry(w0, 0), Gate.rx(w1, 1),
        Gate.rz(w0, 1), Gate.cx(1, 0), Gate.ry(w2, 0), Gate.ry(x0, 1),
    ])


BATCH_QNNS = {
    "estimator": lambda grads: EstimatorQnn(
        batch_circuit(), [PauliObservable(((1.0, "ZI"), (0.5, "XY"))), PauliObservable.z_on(1, 2)],
        [0, 1], [2, 3, 4], input_gradients=grads,
    ),
    "sampler_parity": lambda grads: SamplerQnn(
        batch_circuit(), [0, 1], [2, 3, 4], parity_interpret, 2, input_gradients=grads
    ),
    "sampler_identity": lambda grads: SamplerQnn(batch_circuit(), [0, 1], [2, 3, 4], input_gradients=grads),
}


def assert_jacobians_equal_backward_rows(qnn, inputs, weights, shots, seeds, expected=None):
    input_jacs, weight_jacs = qnn._jacobians(inputs, weights, shots, seeds)
    for i, (x, seed) in enumerate(zip(inputs, seeds)):
        input_jac, weight_jac = expected[i] if expected else qnn.backward(x, weights, shots, seed)
        assert weight_jacs[i].shape == weight_jac.shape == (qnn.output_dim, 3)
        assert weight_jacs[i].tobytes() == weight_jac.tobytes()
        if input_jac is None:
            assert input_jacs is None and not qnn.input_gradients
        else:
            assert input_jacs[i].shape == input_jac.shape == (qnn.output_dim, 2)
            assert input_jacs[i].tobytes() == input_jac.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 17])
@pytest.mark.parametrize("shots", [None, 64])
@pytest.mark.parametrize("input_gradients", [True, False])
@pytest.mark.parametrize("kind", sorted(BATCH_QNNS))
def test_jacobians_over_rows_equal_one_row_backward_calls(kind, input_gradients, shots, rows):
    qnn = BATCH_QNNS[kind](input_gradients)
    rng = np.random.default_rng(rows)
    inputs, weights = rng.uniform(-2.0, 2.0, (rows, 2)), rng.uniform(-2.0, 2.0, 3)
    seeds = [None if shots is None else 100 + i for i in range(rows)]
    assert_jacobians_equal_backward_rows(qnn, inputs, weights, shots, seeds)


@pytest.mark.parametrize("shots", [None, 64])
def test_jacobians_across_row_block_boundaries(monkeypatch, shots):
    qnn = BATCH_QNNS["sampler_identity"](True)
    rng = np.random.default_rng(5)
    inputs, weights = rng.uniform(-2.0, 2.0, (5, 2)), rng.uniform(-2.0, 2.0, 3)
    seeds = [None if shots is None else 7 * i for i in range(5)]
    expected = [qnn.backward(x, weights, shots, seed) for x, seed in zip(inputs, seeds)]
    gates = len(qnn.circuit.gates)
    # Blocks of 3 shifted states: each row's 8 weight and 6 input shifts straddle blocks.
    monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", 3 * gates)
    assert len(simulator._row_blocks(2, gates, 5 * 8)) == 14
    assert_jacobians_equal_backward_rows(qnn, inputs, weights, shots, seeds, expected)


OUTPUT_QNNS = {
    "estimator": lambda: EstimatorQnn(
        batch_circuit(),
        [PauliObservable(((1.0, "ZI"), (0.5, "XY"), (-0.25, "II"))), PauliObservable(((0.75, "YX"), (0.25, "IZ")))],
        [0, 1], [2, 3, 4],
    ),
    "sampler_parity": lambda: SamplerQnn(batch_circuit(), [0, 1], [2, 3, 4], parity_interpret, 2),
    "sampler_identity": lambda: SamplerQnn(batch_circuit(), [0, 1], [2, 3, 4]),
    "sampler_custom": lambda: SamplerQnn(batch_circuit(), [0, 1], [2, 3, 4], lambda bits: bits.count("1"), 3),
}


def assert_outputs_equal_forward_rows(qnn, inputs, weights, shots, seeds, expected=None):
    outputs = qnn._outputs(inputs, weights, shots, seeds)
    assert outputs.shape == (len(inputs), qnn.output_dim)
    for i, (x, seed) in enumerate(zip(inputs, seeds)):
        forward = expected[i] if expected else qnn.forward(x, weights, shots, seed)
        assert outputs[i].tobytes() == forward.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 17])
@pytest.mark.parametrize("shots", [None, 64])
@pytest.mark.parametrize("kind", sorted(OUTPUT_QNNS))
def test_outputs_over_rows_equal_one_row_forward_calls(kind, shots, rows):
    qnn = OUTPUT_QNNS[kind]()
    rng = np.random.default_rng(rows)
    inputs, weights = rng.uniform(-2.0, 2.0, (rows, 2)), rng.uniform(-2.0, 2.0, 3)
    seeds = [None if shots is None else 100 + i for i in range(rows)]
    assert_outputs_equal_forward_rows(qnn, inputs, weights, shots, seeds)


@pytest.mark.parametrize("shots", [None, 64])
@pytest.mark.parametrize("kind", sorted(OUTPUT_QNNS))
def test_outputs_across_row_block_boundaries(monkeypatch, kind, shots):
    qnn = OUTPUT_QNNS[kind]()
    rng = np.random.default_rng(9)
    inputs, weights = rng.uniform(-2.0, 2.0, (5, 2)), rng.uniform(-2.0, 2.0, 3)
    seeds = [None if shots is None else 3 * i for i in range(5)]
    expected = [qnn.forward(x, weights, shots, seed) for x, seed in zip(inputs, seeds)]
    gates = len(qnn.circuit.gates)
    monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", 2 * gates)
    assert len(simulator._row_blocks(2, gates, 5)) == 3
    assert_outputs_equal_forward_rows(qnn, inputs, weights, shots, seeds, expected)


@pytest.mark.parametrize("shots", [None, 64])
@pytest.mark.parametrize("kind", sorted(BATCH_QNNS))
def test_zero_input_rows_give_empty_outputs_and_jacobians(kind, shots):
    qnn = BATCH_QNNS[kind](True)
    inputs, weights = np.zeros((0, 2)), np.array([0.1, 0.2, 0.3])
    outputs = qnn._outputs(inputs, weights, shots, [])
    assert outputs.shape == (0, qnn.output_dim) and outputs.dtype == float
    input_jacs, weight_jacs = qnn._jacobians(inputs, weights, shots, [])
    assert input_jacs.shape == (0, qnn.output_dim, 2)
    assert weight_jacs.shape == (0, qnn.output_dim, 3)


def with_cry(circuit: Circuit) -> Circuit:
    """``circuit`` and two CRY gates on 0- and 1-valued controls: one of an input with a -2
    slope, one of a weight times that input."""
    x, w = circuit.parameters[1], circuit.parameters[5]
    return circuit.extend([
        Gate.cry(AngleExpr(-2.0, ((0.3, 1.0, x),)), [(0, 1), (2, 0)], 1),
        Gate.cry(AngleExpr(0.5, ((0.0, 1.0, w), (0.2, 1.0, x))), [(3, 0)], 2),
    ])


ZZ_QNNS = {
    "estimator": lambda circuit: EstimatorQnn(
        circuit, [PauliObservable.z_on(0, 4), PauliObservable(((1.0, "XZIY"), (0.5, "IIZZ")))],
        range(4), range(4, circuit.num_parameters),
    ),
    "sampler": lambda circuit: SamplerQnn(circuit, range(4), range(4, circuit.num_parameters), parity_interpret, 2),
    "estimator_cry": lambda circuit: ZZ_QNNS["estimator"](with_cry(circuit)),
    "sampler_cry": lambda circuit: ZZ_QNNS["sampler"](with_cry(circuit)),
}


def zz_qnn_point(kind: str):
    """A network on the ZZ encoding with its trainable ansatz, and one (inputs, weights) point."""
    qnn = ZZ_QNNS[kind](zz_feature_map(4, 2).compose(real_amplitudes_ansatz(4, 1)))
    rng = np.random.default_rng(83)
    return qnn, rng.uniform(-np.pi, np.pi, 4), rng.uniform(-np.pi, np.pi, qnn.circuit.num_parameters - 4)


@pytest.mark.parametrize("kind", sorted(ZZ_QNNS))
def test_zz_encoding_jacobians_match_finite_difference(kind):
    qnn, inputs, weights = zz_qnn_point(kind)
    input_jac, weight_jac = qnn.backward(inputs, weights)
    for o in range(qnn.output_dim):
        oracle = finite_difference(lambda v: qnn.forward(v, weights)[o], inputs, 1e-5)
        assert np.max(np.abs(input_jac[o] - oracle)) < 1e-6
        oracle = finite_difference(lambda v: qnn.forward(inputs, v)[o], weights, 1e-5)
        assert np.max(np.abs(weight_jac[o] - oracle)) < 1e-6


@pytest.mark.parametrize("kind", sorted(ZZ_QNNS))
def test_zz_encoding_shot_backward_is_deterministic(kind):
    qnn, inputs, weights = zz_qnn_point(kind)
    first = qnn.backward(inputs, weights, shots=128, seed=17)
    second = qnn.backward(inputs, weights, shots=128, seed=17)
    assert first[0].shape == (qnn.output_dim, 4)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


@pytest.mark.parametrize("network", ["estimator", "sampler"])
def test_shot_backward_reads_each_shifted_state_from_its_own_stream(monkeypatch, network):
    circuit = zz_feature_map(2, 1).compose(real_amplitudes_ansatz(2, 1))

    def make(input_gradients: bool):
        weights = range(2, circuit.num_parameters)
        if network == "estimator":
            return EstimatorQnn(circuit, [PauliObservable.z_on(0, 2)], [0, 1], weights, input_gradients)
        return SamplerQnn(circuit, [0, 1], weights, parity_interpret, 2, input_gradients)

    qnn, seeds = make(True), []
    readout = qnn._readout

    def recorded(states, shots, task_seeds):
        seeds.extend(task_seeds)
        return readout(states, shots, task_seeds)

    monkeypatch.setattr(qnn, "_readout", recorded)
    inputs, weights = [0.3, -1.2], [0.4, 0.9, -0.5, 1.1]
    _, weight_jac = qnn.backward(inputs, weights, shots=100, seed=5)
    # 8 shifted states for the inputs (each feeds two gates) and 8 for the weights.
    assert len(seeds) == 16 and len(set(seeds)) == 16
    assert weight_jac.tobytes() == make(False).backward(inputs, weights, shots=100, seed=5)[1].tobytes()
