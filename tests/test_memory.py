"""Peak memory of the streaming paths stays within a fixed multiple of one block.

Callers that prepare many states of one circuit run them in row blocks of at
most 2^18 amplitudes (the simulator's budget), so their peak traced
allocation is bounded by a constant times ``max(state bytes, budget
bytes)``, however many rows or shifted states they evaluate. At 16 qubits,
``run``, ``estimator`` and ``sampler`` are held to their measured multiples
of the state's bytes.
"""

import tracemalloc

import numpy as np

import pytest

from qmlkit import (
    Dataset,
    EstimatorQnn,
    Gate,
    PauliObservable,
    VqcModel,
    estimator,
    real_amplitudes_ansatz,
    run,
    sampler,
    vqc_fit,
    vqc_predict,
    zz_feature_map,
)
from qmlkit.circuits import bound_angles
from qmlkit.simulator import run_ops

from .helpers import training_functions

BUDGET_AMPLITUDES = 1 << 18
# Inside run_ops a block, its scratch and its row-major copy are alive at
# once, beside the previous block's rows that the caller is still reading.
PEAK_MULTIPLE = 4


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bound(num_qubits: int) -> int:
    return PEAK_MULTIPLE * 16 * max(1 << num_qubits, BUDGET_AMPLITUDES)


def test_backward_of_64_shifted_16_qubit_states_stays_bounded():
    n = 16
    circuit = zz_feature_map(n, 1).compose(real_amplitudes_ansatz(n, 1))
    qnn = EstimatorQnn(
        circuit, [PauliObservable.z_on(0, n)], range(n), range(n, circuit.num_parameters),
        input_gradients=False,
    )
    rng = np.random.default_rng(0)
    inputs, weights = rng.uniform(-1, 1, n), rng.uniform(-np.pi, np.pi, circuit.num_parameters - n)
    assert 2 * len(weights) == 64  # one +shift and one -shift state per weight, 1 MiB each
    assert _peak_bytes(lambda: qnn.backward(inputs, weights)) < _bound(n)


def test_vqc_predict_on_4096_rows_stays_bounded():
    feature_map, ansatz = zz_feature_map(2, 2), real_amplitudes_ansatz(2, 2)
    rng = np.random.default_rng(1)
    model = VqcModel(feature_map, ansatz, rng.uniform(-np.pi, np.pi, ansatz.num_parameters))
    features = rng.uniform(-1, 1, (4096, 2))
    assert _peak_bytes(lambda: vqc_predict(model, features)) < _bound(2)


def test_vqc_fit_gradient_over_8192_rows_stays_bounded(monkeypatch):
    feature_map, ansatz = zz_feature_map(2, 2), real_amplitudes_ansatz(2, 2)
    rng = np.random.default_rng(2)
    features = rng.uniform(-1, 1, (8192, 2))
    data = Dataset(features, np.where(features[:, 0] * features[:, 1] > 0, 1.0, -1.0))
    _, gradient, start = training_functions(monkeypatch, vqc_fit, data, feature_map, ansatz)
    # One +shift and one -shift state per weight and row: unblocked, their
    # (rows * shifts, gates) angle table alone would exceed the bound.
    gates, shifted = len(feature_map.gates) + len(ansatz.gates), 8192 * 2 * len(start)
    assert 8 * shifted * gates > _bound(2)
    assert _peak_bytes(lambda: gradient(start)) < _bound(2)


def test_run_ops_holds_two_angle_tables_for_4096_rows():
    circuit = zz_feature_map(2, 2).compose(real_amplitudes_ansatz(2, 2))
    angles = bound_angles(circuit, np.random.default_rng(3).uniform(-1, 1, (4096, circuit.num_parameters)))
    assert angles.shape == (4096, 22)  # 0.69 MiB of angles for 0.25 MiB of states
    states_bytes = 16 * 4096 * 4
    # Two (gates, rows) tables (half angles then sines, and cosines), the
    # states, their scratch and their row-major copy, and slack for each
    # gate's matrix entries.
    assert _peak_bytes(lambda: run_ops(2, circuit.gates, angles)) < 2.5 * angles.nbytes + 3 * states_bytes


def test_fused_run_of_16_qubits_holds_two_states():
    n = 16
    circuit = real_amplitudes_ansatz(n, 2)
    circuit = circuit.bind(np.random.default_rng(4).uniform(-np.pi, np.pi, circuit.num_parameters))
    circuit = circuit.extend([Gate.cx(0, n - 1), Gate.cz(n - 1, 0)])  # gates wider than a block
    run(circuit)  # first-call allocations (BLAS buffers, imports) stay out of the count
    # The state and the buffer its blocks are written into; a third state would read 3.
    assert _peak_bytes(lambda: run(circuit)) <= 2.25 * 16 * 2**n


def _sixteen_qubit_calls() -> dict:
    n = 16
    circuit = real_amplitudes_ansatz(n, 2)
    weights = np.random.default_rng(5).uniform(-np.pi, np.pi, circuit.num_parameters)
    real = circuit.bind(weights)
    observable = PauliObservable((
        (1.0, "Z" * n), (0.7, "I" * 3 + "X" + "I" * (n - 4)), (0.5, "I" * (n - 2) + "ZI"),
    ))
    return {
        "run_real": lambda: run(real),
        "run_complex": lambda: run(real.append(Gate.rz(0.3, 0))),
        "estimator_exact": lambda: estimator(circuit, observable, weights),
        "estimator_shots": lambda: estimator(circuit, observable, weights, shots=4096, seed=1),
        "sampler_shots": lambda: sampler(circuit, weights, shots=4096, seed=1),
    }


# Peak traced bytes as multiples of the 16-qubit state's 1 MiB, as measured; each may
# grow by at most 0.1. A real circuit holds its float64 state and spare buffer (0.5 each),
# then the complex result beside the float64 state; a complex one holds its state and
# spare buffer. Exact Pauli terms hold |state|^2 or one product array beside the state;
# shot-mode terms with an X hold one rotated copy and its scratch.
@pytest.mark.parametrize("name, measured", [
    ("run_real", 1.51),
    ("run_complex", 2.04),
    ("estimator_exact", 2.13),
    ("estimator_shots", 3.32),
    ("sampler_shots", 2.50),
])
def test_16_qubit_peaks_as_multiples_of_the_state(name, measured):
    call = _sixteen_qubit_calls()[name]
    call()  # first-call allocations (BLAS buffers, imports) stay out of the count
    assert _peak_bytes(call) <= (measured + 0.1) * 16 * 2**16
