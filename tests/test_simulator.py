import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit import (
    AngleExpr,
    Circuit,
    CircuitError,
    Gate,
    Parameter,
    PauliObservable,
    estimator,
    expectation,
    index_to_bitstring,
    bitstring_to_index,
    run,
    sampler,
)
from qmlkit.circuits import bound_angles
from qmlkit.simulator import run_ops

from .helpers import dense_state, random_bound_circuit, random_observable, random_supported_circuit

Z = PauliObservable(((1.0, "Z"),))
X = PauliObservable(((1.0, "X"),))


def ry_circuit() -> Circuit:
    return Circuit(1).append(Gate.ry(Parameter("t"), 0))


def test_run_hadamard():
    state = run(Circuit(1).append(Gate.h(0)))
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_run_x_is_little_endian():
    state = run(Circuit(2).append(Gate.x(0)))
    assert np.argmax(state.probabilities()) == 1


def test_run_controlled_flip_fires():
    state = run(Circuit(2).append(Gate.x(1)).append(Gate.cx(1, 0)))
    assert np.argmax(state.probabilities()) == 3


def test_run_rejects_unbound_parameters():
    with pytest.raises(CircuitError):
        run(ry_circuit())


def test_run_rejects_too_many_qubits():
    with pytest.raises(CircuitError):
        run(Circuit(25))


def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(5)
    for _ in range(25):
        circuit = random_bound_circuit(rng, int(rng.integers(1, 5)))
        state = run(circuit)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_bitstring_convention():
    assert index_to_bitstring(1, 2) == "10"
    assert index_to_bitstring(2, 2) == "01"
    assert bitstring_to_index("10") == 1
    assert bitstring_to_index(index_to_bitstring(13, 5)) == 13


def test_expectation_zero_state():
    assert expectation(run(Circuit(1)), Z) == pytest.approx(1.0)


def test_expectation_plus_state():
    assert expectation(run(Circuit(1).append(Gate.h(0))), X) == pytest.approx(1.0)


def test_expectation_ry_closed_form():
    state = run(Circuit(1).append(Gate.ry(math.pi / 3, 0)))
    assert expectation(state, Z) == pytest.approx(math.cos(math.pi / 3), abs=1e-12)


def test_expectation_y_observable():
    # RX(pi/2)|0> is the -1 eigenstate of Y.
    state = run(Circuit(1).append(Gate.rx(math.pi / 2, 0)))
    assert expectation(state, PauliObservable(((1.0, "Y"),))) == pytest.approx(-1.0)


def test_expectation_width_mismatch():
    with pytest.raises(CircuitError):
        expectation(run(Circuit(2)), Z)


def test_expectation_within_coefficient_bound():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        circuit = random_bound_circuit(rng, n)
        obs = random_observable(rng, n, alphabet="IXYZ")
        value = expectation(run(circuit), obs)
        assert abs(value) <= obs.coefficient_bound + 1e-12


def test_estimator_exact_values():
    circuit = ry_circuit()
    assert estimator(circuit, Z, [0.0]) == pytest.approx(1.0)
    assert estimator(circuit, Z, [math.pi / 2]) == pytest.approx(0.0, abs=1e-12)


def test_estimator_shot_mode_near_exact():
    value = estimator(ry_circuit(), Z, [math.pi / 2], shots=4096, seed=11)
    assert -0.05 <= value <= 0.05


def test_estimator_shot_mode_deterministic():
    a = estimator(ry_circuit(), Z, [0.4], shots=512, seed=9)
    b = estimator(ry_circuit(), Z, [0.4], shots=512, seed=9)
    assert a == b


def test_estimator_multi_term_includes_identity():
    obs = PauliObservable(((0.5, "I"), (0.25, "Z")))
    assert estimator(Circuit(1), obs, []) == pytest.approx(0.75)
    assert estimator(Circuit(1), obs, [], shots=128, seed=0) == pytest.approx(0.75)


def test_estimator_shot_mode_in_rotated_basis():
    # H|0> is the +1 eigenstate of X: every shot must report +1.
    circuit = Circuit(1).append(Gate.h(0))
    assert estimator(circuit, X, [], shots=256, seed=3) == pytest.approx(1.0)


def test_sampler_deterministic_outcome():
    circuit = Circuit(1).append(Gate.x(0))
    assert sampler(circuit, []).probabilities == {"1": 1.0}
    assert sampler(circuit, [], shots=64, seed=1).probabilities == {"1": 1.0}


def test_sampler_exact_hadamard():
    probs = sampler(Circuit(1).append(Gate.h(0)), []).probabilities
    assert probs["0"] == pytest.approx(0.5)
    assert probs["1"] == pytest.approx(0.5)


def test_sampler_shot_mode_close_to_exact():
    probs = sampler(Circuit(1).append(Gate.h(0)), [], shots=4096, seed=2).probabilities
    assert abs(probs["0"] - 0.5) < 0.05
    assert abs(probs["1"] - 0.5) < 0.05


def test_sampler_exact_matches_squared_amplitudes():
    rng = np.random.default_rng(23)
    for _ in range(10):
        circuit, values = random_supported_circuit(rng)
        probs = sampler(circuit, values).probabilities
        state = run(circuit.bind(values))
        for index, amplitude in enumerate(state.amplitudes):
            expected = abs(amplitude) ** 2
            reported = probs.get(index_to_bitstring(index, circuit.num_qubits), 0.0)
            assert abs(reported - expected) < 1e-12


def test_sampler_shot_mode_deterministic():
    circuit = Circuit(2).append(Gate.h(0)).append(Gate.cx(0, 1))
    a = sampler(circuit, [], shots=999, seed=42)
    b = sampler(circuit, [], shots=999, seed=42)
    assert a == b


def test_sampler_probabilities_sum_to_one():
    rng = np.random.default_rng(29)
    for shots in (None, 777):
        circuit = random_bound_circuit(rng, 3)
        probs = sampler(circuit, [], shots=shots, seed=0).probabilities
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= 0.0 for p in probs.values())


def test_quasi_distribution_json_shape():
    exact = sampler(Circuit(1).append(Gate.h(0)), []).to_dict()
    assert exact["shots"] == "exact"
    sampled = sampler(Circuit(1).append(Gate.h(0)), [], shots=10, seed=0).to_dict()
    assert sampled["shots"] == 10
    assert set(sampled) == {"shots", "probs"}


def test_observable_validation():
    with pytest.raises(CircuitError):
        PauliObservable(())
    with pytest.raises(CircuitError):
        PauliObservable(((1.0, "Z"), (1.0, "ZZ")))
    with pytest.raises(CircuitError):
        PauliObservable(((1.0, "A"),))


def test_z_on_builder():
    obs = PauliObservable.z_on(0, 3)
    assert obs.terms == ((1.0, "ZII"),)


def test_run_matches_dense_oracle():
    rng = np.random.default_rng(31)
    for num_qubits in range(1, 6):
        for _ in range(25):
            circuit = random_bound_circuit(rng, num_qubits)
            diff = np.max(np.abs(run(circuit).amplitudes - dense_state(circuit)))
            assert diff <= 1e-12


@settings(max_examples=60, deadline=None)
@given(num_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_run_preserves_norm_and_inverse_undoes(num_qubits, seed):
    circuit = random_bound_circuit(np.random.default_rng(seed), num_qubits)
    assert np.linalg.norm(run(circuit).amplitudes) == pytest.approx(1.0, abs=1e-12)
    identity = np.zeros(2**num_qubits, dtype=complex)
    identity[0] = 1.0
    round_trip = run(circuit.compose(circuit.inverse())).amplitudes
    assert np.max(np.abs(round_trip - identity)) <= 1e-12


def _parameterized(rng: np.random.Generator, circuit: Circuit) -> Circuit:
    """``circuit`` with most rotation angles rewritten over up to three parameters,
    some in product form."""
    params = [Parameter(f"p{i}") for i in range(3)]
    gates = []
    for gate in circuit.gates:
        if gate.angle is not None and rng.uniform() < 0.8:
            count = 2 if rng.uniform() < 0.3 else 1
            factors = tuple(
                (float(rng.uniform(-1, 1)), float(rng.uniform(-2, 2)), params[int(rng.integers(3))])
                for _ in range(count)
            )
            gate = replace(gate, angle=AngleExpr(float(rng.uniform(-2, 2)), factors))
        gates.append(gate)
    return Circuit(circuit.num_qubits).extend(gates)


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_batch_equals_its_rows_byte_for_byte(num_qubits):
    rng = np.random.default_rng(500 + num_qubits)
    circuits = [Circuit(num_qubits), random_bound_circuit(rng, num_qubits, max_gates=20)]
    circuits += [_parameterized(rng, random_bound_circuit(rng, num_qubits, max_gates=20)) for _ in range(4)]
    if num_qubits > 1:  # CRY on a 0-valued and on a 1-valued control
        t = Parameter("t")
        circuits.append(Circuit(num_qubits).extend([
            Gate.h(0), Gate.cry(t, [(0, 0)], 1), Gate.ry(0.3, 0),
            Gate.cry(AngleExpr(-0.5, ((1.0, 2.0, t),)), [(0, 1)], 1),
        ]))
    for circuit in circuits:
        for batch in (1, 2, 3, 17):
            values = rng.uniform(-np.pi, np.pi, (batch, circuit.num_parameters))
            angles = bound_angles(circuit, values)
            rows = [bound_angles(circuit, v) for v in values]
            assert angles.shape == (batch, len(circuit.gates))
            assert angles.tobytes() == np.array(rows).tobytes()
            states = run_ops(num_qubits, circuit.gates, angles)
            assert states.shape == (batch, 2**num_qubits) and states.flags.c_contiguous
            for state, row in zip(states, rows):
                assert state.tobytes() == run_ops(num_qubits, circuit.gates, row).amplitudes.tobytes()
