"""Peak memory of the streaming paths stays within a fixed multiple of one block.

Callers that prepare many states of one circuit run them in row blocks of at
most 2^18 amplitudes (the simulator's budget), so their peak traced
allocation is bounded by a constant times ``max(state bytes, budget
bytes)``, however many rows or shifted states they evaluate. A fused run holds
its state and two piece buffers of 2^15 amplitudes, and no other state-sized
array. At 16 and 20 qubits, ``run_ops``, ``run``, ``estimator``, ``sampler`` and
(at 16) ``compute_uncompute`` are held to their measured multiples of the complex state's bytes.
"""

import tracemalloc

import numpy as np

import pytest

from qmlkit import (
    Circuit,
    Dataset,
    EstimatorQnn,
    FidelityJob,
    Gate,
    Parameter,
    PauliObservable,
    SamplerQnn,
    VqcModel,
    compute_uncompute,
    estimator,
    kernel_matrix,
    parity_interpret,
    real_amplitudes_ansatz,
    run,
    sampler,
    vqc_fit,
    vqc_predict,
    zz_feature_map,
)
from qmlkit.circuits import bound_angles
from qmlkit.simulator import _REAL_KINDS, run_ops

from .helpers import training_functions

BUDGET_AMPLITUDES = 1 << 18
# Inside run_ops a block and its row-major copy are alive at once, beside the
# previous block's rows that the caller is still reading; the block's scratch is
# freed before the copy (a 9-qubit, 512-row complex block peaks at 2.23x its
# states' bytes).
PEAK_MULTIPLE = 4
PIECE_AMPLITUDES = 1 << 15


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
    # One 4 MiB block of shifted states and the rows its readout reads; an extra block
    # kept alive beside them would exceed the bound.
    assert _peak_bytes(lambda: qnn.backward(inputs, weights)) < 2 * 16 * BUDGET_AMPLITUDES


def _sixteen_qubit_network(*observables):
    """The network and point of the test above: 32 weights, no input gradients, Z on qubit 0 and
    any further ``observables``."""
    n = 16
    circuit = zz_feature_map(n, 1).compose(real_amplitudes_ansatz(n, 1))
    qnn = EstimatorQnn(
        circuit, [PauliObservable.z_on(0, n), *observables], range(n), range(n, circuit.num_parameters),
        input_gradients=False,
    )
    rng = np.random.default_rng(0)
    return qnn, rng.uniform(-1, 1, n), rng.uniform(-np.pi, np.pi, circuit.num_parameters - n)


def test_shot_backward_of_64_shifted_16_qubit_states_stays_bounded():
    qnn, inputs, weights = _sixteen_qubit_network()
    # The exact test above now runs the adjoint sweep; shot mode keeps the shift rule's blocks of
    # shifted states, held here to the same bound.
    assert _peak_bytes(lambda: qnn.backward(inputs, weights, shots=64, seed=1)) < 2 * 16 * BUDGET_AMPLITUDES


@pytest.mark.parametrize("observables, measured", [
    ((), 3.29),
    ((PauliObservable(((0.5, "XY" + "I" * 13 + "Z"), (0.3, "I" * 15 + "X"))),), 4.30),
], ids=["z", "z-and-xy"])
def test_exact_backward_of_16_qubits_sweeps_within_its_measured_multiple(observables, measured):
    qnn, inputs, weights = _sixteen_qubit_network(*observables)
    qnn.backward(inputs, weights)  # first-call allocations stay out of the count
    # The adjoint sweep holds phi and each lambda as one complex stack (1 + O states) and one
    # state of scratch, in which each lambda term is built and through which _apply un-applies
    # each gate a column at a time, beside numpy's 256 KiB of iteration buffers for a gate on a
    # middle qubit (0.29x above the states and scratch). Measured 3.29x the complex state's
    # bytes with one observable and 4.30x with two, plus 0.1; a scratch of the stack's size
    # read 4.28x and 6.28x.
    assert _peak_bytes(lambda: qnn.backward(inputs, weights)) <= (measured + 0.1) * 16 * 2**16


@pytest.mark.parametrize("shots", [None, 64])
def test_real_sampler_backward_reads_its_float64_shifted_states_as_they_are(shots):
    n = 16
    inputs_map = Circuit(n).extend([Gate.ry(Parameter(f"x{q}"), q) for q in range(n)])
    circuit = inputs_map.compose(real_amplitudes_ansatz(n, 1))
    qnn = SamplerQnn(circuit, range(n), range(n, circuit.num_parameters), parity_interpret, 2, input_gradients=False)
    rng = np.random.default_rng(0)
    inputs, weights = rng.uniform(-1, 1, n), rng.uniform(-np.pi, np.pi, circuit.num_parameters - n)
    assert 2 * len(weights) == 64 and all(g.kind in _REAL_KINDS for g in circuit.gates)
    qnn.backward(inputs, weights, shots, 1)  # first-call allocations stay out of the count
    # The shift rule's float64 blocks of shifted states are read as run_ops returns them. Measured
    # 1.52x the complex budget's 4 MiB in both modes, plus 0.1; a complex copy of each block reads 2.02x.
    assert _peak_bytes(lambda: qnn.backward(inputs, weights, shots, 1)) <= 1.62 * 16 * BUDGET_AMPLITUDES


def test_vqc_predict_on_4096_rows_stays_bounded():
    feature_map, ansatz = zz_feature_map(2, 2), real_amplitudes_ansatz(2, 2)
    rng = np.random.default_rng(1)
    model = VqcModel(feature_map, ansatz, rng.uniform(-np.pi, np.pi, ansatz.num_parameters))
    features = rng.uniform(-1, 1, (4096, 2))
    assert _peak_bytes(lambda: vqc_predict(model, features)) < _bound(2)


def test_shot_kernel_matrix_of_300_rows_derives_its_streams_a_chunk_at_a_time():
    # 45,150 upper-triangle streams, each derived from its own (seed, i * 300 + j) child seed.
    # The exact Gram's product and its mirrored copy peak at 3.03x the (300, 300) float64
    # matrix, and the streams add nothing measurable: measured 3.03x, plus 0.1. A Python
    # object per stream, or the whole matrix's streams hashed at once, would exceed it.
    X = np.random.default_rng(3).uniform(-np.pi, np.pi, (300, 2))
    assert _peak_bytes(lambda: kernel_matrix(zz_feature_map(2, 1), X, shots=64, seed=3)) <= 3.13 * 8 * 300**2


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
    # Each row block evaluates its own rows' angles. Measured 11.37 MiB; an (8192, gates) angle
    # table held for the whole pass read 12.75 MiB.
    assert _peak_bytes(lambda: gradient(start)) < 0.75 * _bound(2)


def test_run_ops_holds_two_angle_tables_for_4096_rows():
    circuit = zz_feature_map(2, 2).compose(real_amplitudes_ansatz(2, 2))
    angles = bound_angles(circuit, np.random.default_rng(3).uniform(-1, 1, (4096, circuit.num_parameters)))
    assert angles.shape == (4096, 22)  # 0.69 MiB of angles for 0.25 MiB of states
    states_bytes = 16 * 4096 * 4
    # Two (gates, rows) tables (half angles then sines, and cosines), the
    # states, their scratch and their row-major copy, and slack for each
    # gate's matrix entries.
    assert _peak_bytes(lambda: run_ops(2, circuit.gates, angles)) < 2.5 * angles.nbytes + 3 * states_bytes


def _holds_one_state_and_two_pieces(circuit) -> None:
    """``run_ops`` of ``circuit`` peaks within its state, its two piece buffers and a tenth
    of the complex state's bytes, in float64 and with an RZ in complex128."""
    n = circuit.num_qubits
    for full, itemsize in ((circuit, 8), (circuit.append(Gate.rz(0.3, 2)), 16)):
        angles = bound_angles(full, ())
        run_ops(n, full.gates, angles)  # first-call allocations (BLAS buffers, imports) stay out of the count
        bound = itemsize * (2**n + 2 * PIECE_AMPLITUDES) + 0.1 * 16 * 2**n
        assert _peak_bytes(lambda: run_ops(n, full.gates, angles)) <= bound


def test_fused_run_of_16_qubits_with_wide_gates_holds_one_state_and_two_pieces():
    n = 16
    circuit = real_amplitudes_ansatz(n, 2)
    circuit = circuit.bind(np.random.default_rng(4).uniform(-np.pi, np.pi, circuit.num_parameters))
    # Blocks above a piece (window 12) and gates wider than a block, sliced through a piece.
    _holds_one_state_and_two_pieces(circuit.extend([Gate.cx(0, n - 1), Gate.cz(n - 1, 0)]))


def test_fused_run_of_20_qubits_holds_one_state_and_two_pieces():
    circuit = real_amplitudes_ansatz(20, 2)
    _holds_one_state_and_two_pieces(
        circuit.bind(np.random.default_rng(7).uniform(-np.pi, np.pi, circuit.num_parameters))
    )


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
        "compute_uncompute_exact": lambda: compute_uncompute(FidelityJob(circuit, circuit, weights, -weights)),
    }


# Peak traced bytes as multiples of the 16-qubit complex state's 1 MiB, as measured; each
# may grow by at most 0.1. At 16 qubits the two piece buffers hold as many numbers as the
# state. A real circuit holds its float64 state and pieces (0.5 each), then ``run``'s complex
# result beside the float64 state; a complex one holds its state and pieces. The estimator
# and sampler read the float64 state itself. A Pauli term is read a 2^15-amplitude piece at a
# time into two piece buffers (0.5 together), freed with the run's own, so the estimator peaks
# within its run. Shot-mode terms read those same exact values, one term at a time, and draw
# one binomial each, so they peak as exact mode does. The sampler holds |state|^2 with its CDF
# in place, and frees it before the outcome strings are built. Compute-uncompute runs both
# circuits as one float64 state and reads its amplitude 0.
@pytest.mark.parametrize("name, measured", [
    ("run_real", 1.51),
    ("run_complex", 2.04),
    ("estimator_exact", 1.07),
    ("estimator_shots", 1.07),
    ("sampler_shots", 1.04),
    ("compute_uncompute_exact", 1.09),
])
def test_16_qubit_peaks_as_multiples_of_the_state(name, measured):
    call = _sixteen_qubit_calls()[name]
    call()  # first-call allocations (BLAS buffers, imports) stay out of the count
    assert _peak_bytes(call) <= (measured + 0.1) * 16 * 2**16


def test_20_qubit_estimator_and_sampler_peaks():
    n = 20
    circuit = real_amplitudes_ansatz(n, 2)
    weights = np.random.default_rng(6).uniform(-np.pi, np.pi, circuit.num_parameters)
    observable = PauliObservable(((1.0, "Z" * n), (0.7, "I" * 5 + "X" + "I" * (n - 6)), (0.5, "I" * (n - 2) + "ZI")))
    state_bytes = 16 * 2**n
    # Measured multiples of the complex state (0.54, 0.54, 0.53, 1.07 and 1.07) plus 0.1, the
    # complex ones held at 1.15. Each call peaks within its run: the state and two piece buffers.
    # A Pauli term is read a piece at a time into two buffers of a piece, and a shot estimator
    # reads each term's exact value as the exact one does; the sampler's CDF is freed before its
    # outcome strings are built. A whole product or squares array beside the state reads 2.01.
    complex_circuit = circuit.append(Gate.rz(0.3, 0))
    for call, bound in (
        (lambda: estimator(circuit, observable, weights, shots=4096, seed=1), 0.64),
        (lambda: estimator(circuit, observable, weights), 0.64),
        (lambda: sampler(circuit, weights, shots=4096, seed=1), 0.63),
        (lambda: estimator(complex_circuit, observable, weights, shots=4096, seed=1), 1.15),
        (lambda: estimator(complex_circuit, observable, weights), 1.15),
    ):
        call()  # first-call allocations stay out of the count
        assert _peak_bytes(call) <= bound * state_bytes
