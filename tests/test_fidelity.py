import math

import numpy as np
import pytest

from qmlkit import Circuit, CircuitError, FidelityJob, Gate, Parameter, compute_uncompute, derive_rng, run, sampler

from .helpers import random_supported_circuit


def ry_circuit() -> Circuit:
    return Circuit(1).append(Gate.ry(Parameter("x"), 0))


def test_self_fidelity_is_exactly_one():
    circuit = ry_circuit()
    assert compute_uncompute(FidelityJob(circuit, circuit, [0.7], [0.7])) == 1.0


def test_orthogonal_states():
    circuit = ry_circuit()
    value = compute_uncompute(FidelityJob(circuit, circuit, [0.0], [math.pi]))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_half_rotation_closed_form():
    circuit = ry_circuit()
    value = compute_uncompute(FidelityJob(circuit, circuit, [0.0], [math.pi / 2]))
    assert value == pytest.approx(math.cos(math.pi / 4) ** 2, abs=1e-12)


def test_matches_cosine_law_on_grid():
    circuit = ry_circuit()
    for a in np.linspace(-math.pi, math.pi, 7):
        for b in np.linspace(-math.pi, math.pi, 5):
            value = compute_uncompute(FidelityJob(circuit, circuit, [a], [b]))
            assert value == pytest.approx(math.cos((a - b) / 2.0) ** 2, abs=1e-12)


def test_width_mismatch_rejected():
    with pytest.raises(CircuitError):
        compute_uncompute(FidelityJob(Circuit(1), Circuit(2)))


def test_agrees_with_direct_inner_product():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        circuit_a, values_a = random_supported_circuit(rng, num_qubits=n)
        circuit_b, values_b = random_supported_circuit(rng, num_qubits=n)
        value = compute_uncompute(FidelityJob(circuit_a, circuit_b, values_a, values_b))
        state_a = run(circuit_a.bind(values_a))
        state_b = run(circuit_b.bind(values_b))
        oracle = abs(state_b.inner(state_a)) ** 2
        assert value == pytest.approx(oracle, abs=1e-10)
        assert 0.0 <= value <= 1.0


def test_symmetry():
    rng = np.random.default_rng(37)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        circuit_a, values_a = random_supported_circuit(rng, num_qubits=n)
        circuit_b, values_b = random_supported_circuit(rng, num_qubits=n)
        forward = compute_uncompute(FidelityJob(circuit_a, circuit_b, values_a, values_b))
        backward = compute_uncompute(FidelityJob(circuit_b, circuit_a, values_b, values_a))
        assert forward == pytest.approx(backward, abs=1e-10)


def test_shot_mode_deterministic_and_bounded():
    circuit = ry_circuit()
    job = FidelityJob(circuit, circuit, [0.3], [1.1], shots=2048, seed=17)
    first = compute_uncompute(job)
    second = compute_uncompute(job)
    assert first == second
    assert 0.0 <= first <= 1.0
    exact = compute_uncompute(FidelityJob(circuit, circuit, [0.3], [1.1]))
    assert abs(first - exact) < 0.05


def test_shot_mode_does_not_shortcut_identical_jobs():
    # Identical circuits still go through sampling when shots are requested.
    circuit = ry_circuit()
    value = compute_uncompute(FidelityJob(circuit, circuit, [0.5], [0.5], shots=64, seed=0))
    assert value == pytest.approx(1.0)


def test_one_state_reads_what_the_sampler_reads_on_the_composed_circuit():
    # The reference is the bound, composed circuit the primitive used to build: exact mode
    # equals its all-zeros probability F, and shot mode is Binomial(shots, F) / shots drawn
    # from derive_rng(seed), draw for draw.
    rng = np.random.default_rng(41)
    for k in range(20):
        n = int(rng.integers(1, 5))
        circuit_a, values_a = random_supported_circuit(rng, num_qubits=n)
        circuit_b, values_b = random_supported_circuit(rng, num_qubits=n)
        composed = circuit_a.bind(values_a).compose(circuit_b.bind(values_b).inverse())
        exact = compute_uncompute(FidelityJob(circuit_a, circuit_b, values_a, values_b, None, k))
        assert type(exact) is float
        assert exact == pytest.approx(sampler(composed, []).probabilities.get("0" * n, 0.0), abs=1e-12)
        for shots in (1, 64):
            value = compute_uncompute(FidelityJob(circuit_a, circuit_b, values_a, values_b, shots, k))
            assert type(value) is float
            assert value == derive_rng(k).binomial(shots, exact) / shots
