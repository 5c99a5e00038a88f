"""Peak memory of the streaming paths stays within a fixed multiple of one block.

Callers that prepare many states of one circuit run them in row blocks of at
most 2^18 amplitudes (the simulator's budget), so their peak traced
allocation is bounded by a constant times ``max(state bytes, budget
bytes)``, however many rows or shifted states they evaluate.
"""

import tracemalloc

import numpy as np

from qmlkit import EstimatorQnn, PauliObservable, VqcModel, real_amplitudes_ansatz, vqc_predict, zz_feature_map

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
