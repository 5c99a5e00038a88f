import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit import (
    AngleExpr,
    BayesNode,
    BayesianNetwork,
    Circuit,
    CircuitError,
    Dataset,
    EstimatorQnn,
    FidelityJob,
    Gate,
    GradientRequest,
    OptimizerConfig,
    Parameter,
    PauliObservable,
    Query,
    SamplerQnn,
    SvmModel,
    VqcModel,
    bitstring_to_index,
    compile_network,
    compute_uncompute,
    estimator,
    expectation,
    index_to_bitstring,
    kernel_entry,
    kernel_matrix,
    param_shift_gradient,
    parity_interpret,
    qsvc_fit,
    real_amplitudes_ansatz,
    rejection_inference,
    run,
    sampler,
    svm_predict,
    vqc_fit,
    vqc_predict,
    zz_feature_map,
)
from qmlkit.circuits import bound_angles
from qmlkit import simulator
from qmlkit.simulator import (
    _adjoint_terms, _blocks, _cdf, _draws, _expectations, _sampled_expectations, derive_rng, derive_seed,
    run_ops, sample_state,
)

from .helpers import (
    _PAULI_MATRICES, _PROJECTORS, _kron_qubits, axis_expectation, dense_expectation, dense_gate_unitary,
    dense_state, random_bound_circuit, random_observable, random_supported_circuit,
)

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


@pytest.mark.parametrize("shots", [0, -3])
def test_estimator_rejects_shots_below_one_on_identity_only_observable(shots):
    with pytest.raises(CircuitError, match="shots"):
        estimator(Circuit(2), PauliObservable(((0.5, "II"),)), [], shots=shots, seed=0)


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
                single = run_ops(num_qubits, circuit.gates, row)
                assert state.dtype == single.dtype and state.tobytes() == single.tobytes()


def _windowed(num_qubits: int) -> Circuit:
    """Gates on every window of four consecutive qubits (a multi-control CRY in each),
    and gates spanning more than four qubits, among them a CX from qubit 0 to the last."""
    last = num_qubits - 1
    gates = [Gate.h(q) for q in range(num_qubits)]
    for w in range(num_qubits - 3):
        gates += [
            Gate.ry(0.3 + w, w), Gate.cx(w, w + 3), Gate.rx(-0.7 * w, w + 1),
            Gate.cry(1.1 - w, [(w, 1), (w + 1, 0), (w + 3, 1)], w + 2), Gate.rz(0.2 * w, w + 3),
        ]
    gates += [Gate.cx(0, last), Gate.cry(0.9, [(q, q % 2) for q in range(1, last)], 0), Gate.cz(last, 1)]
    return Circuit(num_qubits).extend(gates)


def test_blocks_start_at_every_window_and_wide_gates_run_alone():
    for num_qubits in range(5, 11):
        blocks = _blocks(num_qubits, _windowed(num_qubits).gates)
        assert {w for w, _ in blocks} == set(range(num_qubits - 3)) | {None}
        assert all(len(indices) == 1 for w, indices in blocks if w is None)


@pytest.fixture
def fuse_from_5_qubits(monkeypatch):
    """Run circuits of 5 qubits or more as fused blocks, as wider ones run by default."""
    monkeypatch.setattr(simulator, "_FUSED_QUBITS", 5)


def test_fused_run_matches_dense_oracle(fuse_from_5_qubits):
    rng = np.random.default_rng(37)
    for num_qubits in range(5, 11):
        for circuit in (_windowed(num_qubits), random_bound_circuit(rng, num_qubits, max_gates=24)):
            diff = np.max(np.abs(run(circuit).amplitudes - dense_state(circuit)))
            assert diff <= 1e-12


@pytest.mark.parametrize("num_qubits", [7, 10, 14])
def test_fused_batch_equals_its_rows_byte_for_byte(num_qubits, fuse_from_5_qubits):
    rng = np.random.default_rng(700 + num_qubits)
    circuits = [_parameterized(rng, _windowed(num_qubits)), real_amplitudes_ansatz(num_qubits, 2)]
    circuits += [_parameterized(rng, random_bound_circuit(rng, num_qubits, max_gates=30)) for _ in range(2)]
    for circuit in circuits:
        for batch in (0, 1, 2, 3, 17):
            values = rng.uniform(-np.pi, np.pi, (batch, circuit.num_parameters))
            states = run_ops(num_qubits, circuit.gates, bound_angles(circuit, values))
            assert states.shape == (batch, 2**num_qubits) and states.flags.c_contiguous
            for state, v in zip(states, values):
                row = run_ops(num_qubits, circuit.gates, bound_angles(circuit, v))
                assert state.dtype == row.dtype and state.tobytes() == row.tobytes()


# One real circuit (float64 block products) and the same circuit made complex by an
# appended RX and RZ (complex128 block products).
_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from qmlkit import Gate, real_amplitudes_ansatz, run
n = int(sys.argv[1])
circuit = real_amplitudes_ansatz(n, 2)
circuit = circuit.bind(np.random.default_rng(n).uniform(-np.pi, np.pi, circuit.num_parameters))
circuit = circuit.extend([Gate.cx(0, n - 1), Gate.cry(0.4, [(1, 1), (n - 2, 0)], n // 2), Gate.h(n - 1)])
for extra in ([], [Gate.rx(0.3, 1), Gate.rz(-0.6, n - 2)]):
    print(hashlib.sha256(run(circuit.extend(extra)).amplitudes.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("num_qubits", [14, 18])
def test_fused_run_is_byte_identical_on_one_and_two_blas_threads(num_qubits):
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT, str(num_qubits)],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1 and len(digests.pop().split()) == 2


def _interleaved(num_qubits: int) -> Circuit:
    """Layers whose fused blocks interleave windows inside a 2^15-amplitude piece (up to
    11 at 16 qubits), the top window, and a CX and a controlled RY spanning more than four
    qubits."""
    n, gates = num_qubits, [Gate.h(q) for q in range(num_qubits)]
    for r in range(3):
        gates += [Gate.ry(0.4 + 0.3 * q - r, q) for q in range(n)]
        gates += [Gate.cx(q, q + 1) for q in range(n - 1)]
        gates += [
            Gate.cry(0.8 - r, [(r, 1), (n - 7 + r, 0)], n - 2 - r), Gate.cx(n - 1 - r, r),
            Gate.rx(0.5 * r - 0.2, n - 4 + r), Gate.rz(0.3 + r, 3 + r),
        ]
    return Circuit(n).extend(gates)


def _interleaves(windows: list, top: int) -> bool:
    inside = [i for i, w in enumerate(windows) if w is not None and w < top]
    others = [i for i, w in enumerate(windows) if w is None or w >= top]
    return {None, top} <= set(windows) and any(inside[0] < i < inside[-1] for i in others)


def test_pieces_of_16_qubits_match_the_gate_loop_and_batch_rows_their_one_state_runs(monkeypatch):
    n = 16
    circuit = _interleaved(n)
    assert _interleaves([w for w, _ in _blocks(n, circuit.gates)], 12)
    for full in (circuit, _real(circuit)):
        angles = bound_angles(full, ())
        fused = run_ops(n, full.gates, angles)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_FUSED_QUBITS", n + 1)
            loop = run_ops(n, full.gates, angles)
        assert fused.dtype == loop.dtype and np.max(np.abs(fused - loop)) <= 1e-15
    rng = np.random.default_rng(16)
    parameterized = _parameterized(rng, circuit)
    for batch in (0, 1, 3, 17):
        values = rng.uniform(-np.pi, np.pi, (batch, parameterized.num_parameters))
        states = run_ops(n, parameterized.gates, bound_angles(parameterized, values))
        assert states.shape == (batch, 2**n) and states.flags.c_contiguous
        for state, v in zip(states, values):
            row = run_ops(n, parameterized.gates, bound_angles(parameterized, v))
            assert state.dtype == row.dtype and state.tobytes() == row.tobytes()


def test_readers_of_16_qubit_states_leave_their_inputs_unchanged():
    n = 16
    circuit = _parameterized(np.random.default_rng(17), _interleaved(n))
    values = np.random.default_rng(18).uniform(-np.pi, np.pi, circuit.num_parameters)
    observable = PauliObservable(((1.0, "Z" * n), (0.6, "XY" + "I" * (n - 3) + "X"), (-0.3, "I" * n)))
    state = run(circuit.bind(values))
    real = _real(circuit.bind(values))
    rows = run_ops(n, real.gates, bound_angles(real, ()))[None]  # float64
    inputs = [values.copy(), state.amplitudes.copy(), rows.copy()]
    for call in (
        lambda: _expectations(rows, observable),
        lambda: _sampled_expectations(rows, observable, 64, [3]),
        lambda: estimator(circuit, observable, values),
        lambda: estimator(circuit, observable, values, shots=64, seed=3),
        lambda: sampler(circuit, values),
        lambda: sampler(circuit, values, shots=64, seed=3),
        lambda: expectation(state, observable),
        lambda: sample_state(state, 64, seed=3),
    ):
        first = call()
        assert np.array_equal(first, call()) if isinstance(first, np.ndarray) else first == call()
        assert [a.tobytes() for a in (values, state.amplitudes, rows)] == [a.tobytes() for a in inputs]


def test_small_pieces_match_the_dense_oracle(monkeypatch):
    """Pieces of 2^7 amplitudes put 8- and 9-qubit blocks above and inside a piece, and
    slice a 9-qubit CX."""
    for n in (8, 9):
        circuit = _interleaved(n)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_PIECE_QUBITS", 7)
            patch.setattr(simulator, "_FUSED_QUBITS", 5)
            assert _interleaves([w for w, _ in _blocks(n, circuit.gates)], n - 4)
            for full in (circuit, _real(circuit)):
                assert np.max(np.abs(run(full).amplitudes - dense_state(full))) <= 1e-12


@pytest.mark.parametrize("observables", [1, 2])
@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_apply_splits_a_gate_its_scratch_cannot_hold_into_the_same_bytes(observables, rows, dtype):
    """The adjoint's ``(1 + O,) + (2,) * n + (B,)`` stack, with scratches of 2, 6 and 64 numbers:
    gates split on the stack axis, on qubits they do not touch and, last, on the row axis, whose
    per-row entries split with it."""
    n, rng = 4, np.random.default_rng(31 * rows + observables)
    gates = [Gate.h(0), Gate.x(3), Gate.cx(1, 2), Gate.cz(0, 3), Gate.ry(0.0, 1), Gate.cry(0.0, [(2, 0)], 0),
             Gate.cry(0.0, [(0, 1), (3, 0)], 1)]
    if dtype is np.complex128:
        gates += [Gate.rx(0.0, 2), Gate.rz(0.0, 3), Gate.cry(0.0, [(3, 1)], 2)]
    half = rng.uniform(-np.pi, np.pi, (len(gates), rows)) / 2.0
    if rows == 1:  # one row's scalar angles, as the gate-by-gate path evaluates them
        half = half[:, 0].tolist()
    ops = [(simulator._MATRICES[g.kind](np.cos(h), np.sin(h)), g.targets[0], g.controls) for g, h in zip(gates, half)]
    shape = (1 + observables, 2**n, rows)
    states = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is np.complex128 else 0.0)
    view_shape = (1 + observables,) + (2,) * n + (rows,)
    expected = states.copy()
    simulator._apply(expected.reshape(view_shape), n + 1, ops)
    for size in (2, 6, 64):
        split = states.copy()
        simulator._apply(split.reshape(view_shape), n + 1, ops, np.empty(size, dtype))
        assert split.dtype == dtype and split.tobytes() == expected.tobytes()


def _record_widths(monkeypatch) -> list:
    """Record the width of the rows that each ``_run_pieces`` and ``_apply`` call with work (its run
    or its ops is not empty) receives, of the ``_apply`` calls that ``_run_blocks`` makes on the
    state: ``_block_matrices``' calls pass no scratch, and the calls ``_apply`` makes on halves of
    its view are nested in another."""
    widths, depth = [], 0
    run_pieces, apply = simulator._run_pieces, simulator._apply

    def pieces(rows, run, buffers):
        if run:
            widths.append(rows.shape[1])
        return run_pieces(rows, run, buffers)

    def gates(view, num_qubits, ops, scratch=None):
        nonlocal depth
        if ops and scratch is not None and not depth:
            widths.append(2**num_qubits)
        depth += 1
        try:
            return apply(view, num_qubits, ops, scratch)
        finally:
            depth -= 1

    monkeypatch.setattr(simulator, "_run_pieces", pieces)
    monkeypatch.setattr(simulator, "_apply", gates)
    return widths


def test_fused_blocks_run_on_the_prefix_of_the_qubits_touched_so_far(monkeypatch):
    # Node k >= 2 has parents N0 and N(k - 1): its four controlled RYs span qubits 0 to k. Nodes
    # 0 to 3 form one block on window 0, and from node 4 on each gate spans more than four qubits.
    rng = np.random.default_rng(14)
    nodes = [BayesNode("N0", (), {"": 0.3}), BayesNode("N1", ("N0",), {"0": 0.2, "1": 0.7})]
    for k in range(2, 14):
        cpt = {"".join(bits): float(rng.uniform(0.1, 0.9)) for bits in itertools.product("01", repeat=2)}
        nodes.append(BayesNode(f"N{k}", ("N0", f"N{k - 1}"), cpt))
    circuit = compile_network(BayesianNetwork(tuple(nodes)))
    expected = run(circuit).amplitudes
    widths = _record_widths(monkeypatch)
    assert run(circuit).amplitudes.tobytes() == expected.tobytes()
    # Node k's gates see 2^max(k + 1, 4) amplitudes of the 2^14.
    assert widths == [2**4] + [2 ** (k + 1) for k in range(4, 14) for _ in range(4)]


def _scrambled(rng: np.random.Generator, num_qubits: int) -> tuple[Circuit, int]:
    """A random circuit whose qubits take their first gate in a random order, and the one
    qubit that no gate touches. Each newly touched qubit meets up to three touched ones."""
    *order, untouched = (int(q) for q in rng.permutation(num_qubits))
    gates = []
    for i, q in enumerate(order):
        partners = [int(p) for p in rng.permutation(order[:i])[:int(rng.integers(0, 4))]]
        angle = float(rng.uniform(-np.pi, np.pi))
        if not partners:
            gates.append([Gate.h(q), Gate.ry(angle, q), Gate.rx(angle, q)][int(rng.integers(3))])
            continue
        controls = [(p, int(rng.integers(2))) for p in partners]
        gates += [
            [Gate.h(q), Gate.cry(angle, [(q, 1)], partners[0])],
            [Gate.cx(partners[0], q)], [Gate.cz(q, partners[0])], [Gate.cry(angle, controls, q)],
            [Gate.ry(angle, q), Gate.rz(-angle, partners[-1]), Gate.cx(q, partners[-1])],
        ][int(rng.integers(5))]
    return Circuit(num_qubits).extend(gates), untouched


@pytest.mark.parametrize("num_qubits", [10, 11, 12, 13])
def test_scrambled_first_touches_match_the_oracle_and_leave_the_untouched_qubit_zero(monkeypatch, num_qubits):
    rng = np.random.default_rng(1200 + num_qubits)
    for k in range(4):
        circuit, untouched = _scrambled(rng, num_qubits)
        circuit = _real(circuit) if k % 2 else circuit
        state = run(circuit).amplitudes
        if num_qubits <= 10:
            oracle = dense_state(circuit)
        else:  # the dense oracle's 2^n x 2^n matrices; the gate loop matches it up to 10 qubits
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "_FUSED_QUBITS", num_qubits + 1)
                oracle = run(circuit).amplitudes
        assert np.max(np.abs(state - oracle)) <= 1e-12
        parameterized = _parameterized(rng, circuit)
        values = rng.uniform(-np.pi, np.pi, (3, parameterized.num_parameters))
        states = run_ops(num_qubits, parameterized.gates, bound_angles(parameterized, values))
        for rows in (state[None], states):
            assert not rows.reshape(len(rows), -1, 2, 1 << untouched)[:, :, 1].any()
        for row, v in zip(states, values):
            single = run_ops(num_qubits, parameterized.gates, bound_angles(parameterized, v))
            assert row.dtype == single.dtype and row.tobytes() == single.tobytes()


def test_shot_modes_reject_non_finite_probabilities():
    circuit = Circuit(2).extend([Gate.h(0), Gate.ry(Parameter("t"), 1)])
    with pytest.raises(CircuitError, match="not finite"):
        sampler(circuit, [np.nan], shots=8, seed=0)
    with pytest.raises(CircuitError, match="not finite"):
        estimator(circuit, PauliObservable(((1.0, "ZZ"),)), [np.nan], shots=8, seed=0)


def test_draws_reproduce_choice_for_seeds_0_to_4():
    rng = np.random.default_rng(11)
    for num_qubits in (1, 3, 8):
        probs = rng.uniform(size=2**num_qubits) ** 3
        probs[rng.uniform(size=probs.size) < 0.3] = 0.0
        probs[0] = 0.1  # at least one outcome is possible
        for seed in range(5):
            drawn = _draws(_cdf(probs.copy()), 2000, derive_rng(seed, 4, 2))
            chosen = derive_rng(seed, 4, 2).choice(probs.size, size=2000, p=probs / probs.sum())
            assert drawn.dtype == chosen.dtype and np.array_equal(drawn, chosen)


@pytest.mark.parametrize("num_qubits", range(1, 11))
def test_bitstring_keys_equal_the_per_outcome_dicts(num_qubits):
    rng = np.random.default_rng(num_qubits)
    circuit = random_bound_circuit(rng, num_qubits, max_gates=3 * num_qubits)
    probs = run(circuit).probabilities()
    exact = sampler(circuit, [])
    expected = {index_to_bitstring(i, num_qubits): float(p) for i, p in enumerate(probs) if p > 0.0}
    assert list(exact.probabilities.items()) == list(expected.items())
    drawn = sample_state(run(circuit), 300, seed=num_qubits)
    outcomes = derive_rng(num_qubits).choice(probs.size, size=300, p=probs / probs.sum())
    values, counts = np.unique(outcomes, return_counts=True)
    expected = {index_to_bitstring(int(i), num_qubits): float(c) / 300 for i, c in zip(values, counts)}
    assert list(drawn.probabilities.items()) == list(expected.items())


def _real(circuit: Circuit) -> Circuit:
    """``circuit`` without its RX and RZ gates."""
    return Circuit(circuit.num_qubits).extend([g for g in circuit.gates if g.kind not in ("RX", "RZ")])


@pytest.mark.parametrize("num_qubits", range(1, 15))
def test_real_circuit_matches_its_complex_copy_and_the_dense_oracle(num_qubits):
    rng = np.random.default_rng(900 + num_qubits)
    for _ in range(4):
        circuit = _real(random_bound_circuit(rng, num_qubits, max_gates=6 * num_qubits))
        if num_qubits > 2:  # a multi-controlled CRY on 0- and 1-valued controls
            circuit = circuit.append(Gate.cry(0.7, [(0, 1), (num_qubits - 1, 0)], 1))
        state = run(circuit).amplitudes
        # RZ(0) is the identity; it makes the whole circuit run in complex128.
        complex_state = run(circuit.append(Gate.rz(0.0, 0))).amplitudes
        assert state.dtype == complex and state.flags.c_contiguous
        assert np.max(np.abs(state - complex_state)) <= 1e-15
        if num_qubits <= 10:
            assert np.max(np.abs(state - dense_state(circuit))) <= 1e-12


@pytest.mark.parametrize("num_qubits", [3, 7, 10, 12])
def test_only_real_circuits_run_and_return_float64_rows_and_run_returns_complex(monkeypatch, num_qubits):
    dtypes = []
    apply = simulator._apply
    monkeypatch.setattr(simulator, "_apply", lambda state, *args: dtypes.append(state.dtype) or apply(state, *args))
    circuit = real_amplitudes_ansatz(num_qubits, 1).extend([Gate.h(0), Gate.cz(0, 1), Gate.x(1)])
    values = np.random.default_rng(num_qubits).uniform(-np.pi, np.pi, (3, circuit.num_parameters))
    for extra, dtype in (([], np.float64), ([Gate.rx(0.2, 0)], np.complex128), ([Gate.rz(0.2, 1)], np.complex128)):
        full = circuit.extend(extra)
        dtypes.clear()
        for angles in (bound_angles(full, values), bound_angles(full, values[0])):
            states = run_ops(num_qubits, full.gates, angles)
            assert states.shape == angles.shape[:-1] + (2**num_qubits,)
            assert states.dtype == dtype and states.flags.c_contiguous
        assert dtypes and set(dtypes) == {np.dtype(dtype)}
        bound = full.bind(values[0])
        state = run(bound).amplitudes
        assert state.dtype == np.complex128 and state.flags.c_contiguous
        row = run_ops(num_qubits, bound.gates, bound_angles(bound, ()))
        assert state.tobytes() == row.astype(np.complex128).tobytes()


@pytest.mark.parametrize("num_qubits", range(1, 15))
def test_readers_of_real_rows_equal_them_fed_run_amplitudes(num_qubits):
    rng = np.random.default_rng(1000 + num_qubits)
    for _ in range(2):
        circuit = _real(random_bound_circuit(rng, num_qubits, max_gates=6 * num_qubits))
        if num_qubits > 2:  # a multi-controlled CRY on 0- and 1-valued controls
            circuit = circuit.append(Gate.cry(0.7, [(0, 1), (num_qubits - 1, 0)], 1))
        state = run(circuit)
        assert run_ops(num_qubits, circuit.gates, bound_angles(circuit, ())).dtype == np.float64
        observable = PauliObservable(
            random_observable(rng, num_qubits, "IXYZ", 4).terms + ((0.5, "Z" * num_qubits),)
        )
        seed = int(rng.integers(1000))
        shot = estimator(circuit, observable, [], shots=300, seed=seed)
        assert shot == float(_sampled_expectations(state.amplitudes[None], observable, 300, [seed])[0])
        assert abs(estimator(circuit, observable, []) - expectation(state, observable)) <= 1e-15
        assert sampler(circuit, [], shots=300, seed=seed) == sample_state(state, 300, seed)
        probs = state.probabilities()
        exact = {index_to_bitstring(i, num_qubits): float(p) for i, p in enumerate(probs) if p > 0.0}
        assert sampler(circuit, []).probabilities == exact
        # The sampler network on the same state followed by one RY layer.
        layer = Circuit(num_qubits).extend([Gate.ry(Parameter(f"w{q}"), q) for q in range(num_qubits)])
        qnn_circuit = circuit.compose(layer)
        weights = rng.uniform(-np.pi, np.pi, num_qubits)
        amplitudes = run(qnn_circuit.bind(weights)).amplitudes[None]
        for interpret, dim in ((parity_interpret, 2), (None, None)):
            qnn = SamplerQnn(qnn_circuit, [], range(num_qubits), interpret=interpret, output_dim=dim)
            for shots in (None, 300):
                out = qnn.forward([], weights, shots=shots, seed=seed)
                assert out.tobytes() == qnn._readout(amplitudes, shots, [seed])[0].tobytes()


_MIXED_STRINGS = ("XYZ", "YYY", "ZXY", "IYX", "XXX")


@pytest.mark.parametrize("num_qubits", range(1, 9))
def test_exact_expectations_of_mixed_strings_match_the_dense_oracle(num_qubits):
    rng = np.random.default_rng(950 + num_qubits)
    circuits = [random_bound_circuit(rng, num_qubits, max_gates=4 * num_qubits) for _ in range(3)]
    circuits.append(_real(circuits[0]))
    rows = np.stack([run(c).amplitudes for c in circuits])
    observables = [PauliObservable(((0.8, "Y" * num_qubits),)), random_observable(rng, num_qubits, "IXYZ", 4)]
    observables.append(PauliObservable(tuple(
        (0.5 - 0.1 * k, "".join(s[q % 3] for q in range(num_qubits))) for k, s in enumerate(_MIXED_STRINGS)
    ) + ((0.3, "I" * num_qubits), (-0.4, "Z" * num_qubits))))
    for obs in observables:
        values = _expectations(rows, obs)
        for row, value in zip(rows, values):
            assert value == expectation(simulator.Statevector(num_qubits, row), obs)
            assert abs(value - dense_expectation(row, obs)) <= 1e-12


def test_the_axis_oracle_matches_the_dense_oracle():
    rng = np.random.default_rng(960)
    for num_qubits in (1, 4, 7):
        row = run(random_bound_circuit(rng, num_qubits, max_gates=4 * num_qubits)).amplitudes
        obs = random_observable(rng, num_qubits, "IXYZ", 5)
        assert abs(axis_expectation(row, obs) - dense_expectation(row, obs)) <= 1e-12


@pytest.mark.parametrize("num_qubits", [16, 17])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("batch", [1, 3])
def test_expectations_across_the_piece_boundary_match_the_axis_oracle(num_qubits, dtype, batch):
    # Rows wider than 2^15 amplitudes are read a piece at a time: X, Y and Z on qubits below
    # 15 act inside a piece, and at or above it pair pieces and sign them.
    rng = np.random.default_rng(970 + 2 * num_qubits + batch)
    rows = rng.normal(size=(batch, 1 << num_qubits)).astype(dtype)
    if dtype is complex:
        rows.imag = rng.normal(size=rows.shape)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    strings = []
    for ch in "XYZ":
        chars = list(rng.choice(list("IXYZ"), num_qubits))
        chars[int(rng.integers(15))] = chars[int(rng.integers(15, num_qubits))] = ch
        strings.append("".join(chars))
    strings += ["".join(rng.choice(list("IXYZ"), num_qubits)) for _ in range(2)] + ["Z" * num_qubits]
    assert {ch for s in strings for ch in s[:15]} >= set("XYZ") and {ch for s in strings for ch in s[15:]} >= set("XYZ")
    observables = [PauliObservable(((float(rng.uniform(-1, 1)), s),)) for s in strings]
    observables.append(PauliObservable(sum((o.terms for o in observables), ())))
    shots, seeds = 1 << 30, [5, 6, 7][:batch]
    for obs in observables:
        expected = [axis_expectation(row, obs) for row in rows]
        assert np.abs(_expectations(rows, obs) - expected).max() <= 1e-12
        # Shot terms draw their binomials from their exact values: at 2^30 shots a value off by
        # 1e-9 would move the draws, so these read the oracle's values.
        draws = _per_term_sampled_expectations(rows, obs, shots, seeds, exact=axis_expectation)
        assert np.abs(_sampled_expectations(rows, obs, shots, seeds) - draws).max() <= 1e-12


def _per_term_sampled_expectations(rows, observable, shots, seeds, exact=None):
    """Shot-mode expectations with one exact value and one binomial draw per term and row: a shot
    reads -1 with probability (1 - <P>) / 2, and row b's term t draws from stream (seeds[b], t).
    ``exact(amplitudes, term)`` gives <P>, by default the one-state ``expectation``."""
    exact = exact or (lambda amplitudes, term: expectation(simulator.Statevector(term.num_qubits, amplitudes), term))
    total = np.zeros(len(rows))
    for term_index, (coeff, string) in enumerate(observable.terms):
        if set(string) == {"I"}:
            total += coeff
            continue
        term = PauliObservable(((1.0, string),))
        for b, seed in enumerate(seeds):
            odd = min(1.0, max(0.0, (1.0 - exact(rows[b], term)) / 2.0))
            total[b] += coeff * (1.0 - 2.0 * derive_rng(seed, term_index).binomial(shots, odd) / shots)
    return total


@pytest.mark.parametrize("num_qubits", [1, 3, 6])
def test_sampled_terms_sharing_a_basis_draw_the_per_term_values_byte_for_byte(num_qubits):
    rng = np.random.default_rng(980 + num_qubits)
    rows = np.stack([run(random_bound_circuit(rng, num_qubits, max_gates=20)).amplitudes for _ in range(3)])
    strings = ["Z" * num_qubits, "I" * num_qubits, "X" + "Z" * (num_qubits - 1), "X" + "I" * (num_qubits - 1)]
    strings += ["Y" * num_qubits, "I" * (num_qubits - 1) + "Z", "Y" * num_qubits]
    strings += ["".join(rng.choice(list("IXYZ"), num_qubits)) for _ in range(4)]
    obs = PauliObservable(tuple((float(rng.uniform(-1, 1)), s) for s in strings))
    for shots, seeds in ((64, [1, 2, 3]), (500, [7, 7, 40])):
        expected = _per_term_sampled_expectations(rows, obs, shots, seeds)
        assert _sampled_expectations(rows, obs, shots, seeds).tobytes() == expected.tobytes()


def _sampling_entries(seed=1) -> dict:
    """Every public call that takes ``shots``, as a function of the shot count, at ``seed``."""
    feature_map, ansatz = zz_feature_map(2, 1), real_amplitudes_ansatz(2, 1)
    circuit, unparameterised = feature_map.compose(ansatz), Circuit(2).extend([Gate.h(0), Gate.cx(0, 1)])
    values, rows = [0.3, -0.7, 0.2, 0.9, -0.4, 1.1], [[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6], [0.7, -0.8]]
    observable = PauliObservable(((0.6, "ZZ"), (0.5, "XI")))
    split = dict(input_params=range(2), weight_params=range(2, 6))
    data, config = Dataset(rows, [1.0, -1.0, 1.0, -1.0]), OptimizerConfig(max_iterations=2)
    vqc = VqcModel(feature_map, ansatz, np.full(4, 0.3))
    svm = SvmModel("qsvc", feature_map, np.array([0.5]), np.array([1.0]), np.array([[0.1, 0.2]]), bias=0.1)
    empty = SvmModel("qsvc", feature_map, np.zeros(0), np.zeros(0), np.zeros((0, 2)), bias=0.25)
    network = BayesianNetwork((BayesNode("A", (), {"": 0.3}), BayesNode("B", ("A",), {"0": 0.2, "1": 0.9})))
    return {
        "estimator": lambda shots: estimator(circuit, observable, values, shots=shots, seed=seed),
        "sampler": lambda shots: sampler(circuit, values, shots=shots, seed=seed),
        "sample_state": lambda shots: sample_state(run(circuit.bind(values)), shots, seed=seed),
        "kernel_matrix-symmetric": lambda shots: kernel_matrix(feature_map, rows, shots=shots, seed=seed).entries,
        "kernel_matrix-rectangular": lambda shots: kernel_matrix(feature_map, rows, rows[:2], shots=shots, seed=seed).entries,
        "kernel_entry": lambda shots: kernel_entry(feature_map, rows[0], rows[1], shots=shots, seed=seed),
        "compute_uncompute": lambda shots: compute_uncompute(FidelityJob(circuit, circuit, values, values, shots, seed)),
        "param_shift_gradient": lambda shots: param_shift_gradient(GradientRequest(circuit, observable, values, shots=shots, seed=seed)),
        "param_shift_gradient-no-parameters": lambda shots: param_shift_gradient(GradientRequest(unparameterised, observable, [], shots=shots, seed=seed)),
        "EstimatorQnn.forward": lambda shots: EstimatorQnn(circuit, [observable], **split).forward(values[:2], values[2:], shots, seed),
        "SamplerQnn.forward": lambda shots: SamplerQnn(circuit, **split).forward(values[:2], values[2:], shots, seed),
        "EstimatorQnn.backward-no-parameters": lambda shots: EstimatorQnn(feature_map, [observable], range(2), (), False).backward(values[:2], [], shots, seed)[1],
        "vqc_fit": lambda shots: vqc_fit(data, feature_map, ansatz, config, shots=shots, seed=seed).trained_weights,
        "vqc_predict": lambda shots: vqc_predict(vqc, rows, shots=shots, seed=seed),
        "vqc_predict-no-rows": lambda shots: vqc_predict(vqc, np.zeros((0, 2)), shots=shots, seed=seed),
        "qsvc_fit": lambda shots: qsvc_fit(data, feature_map, shots=shots, seed=seed).support_values,
        "svm_predict": lambda shots: svm_predict(svm, rows, shots=shots, seed=seed),
        "svm_predict-empty-support": lambda shots: svm_predict(empty, rows, shots=shots, seed=seed),
        "rejection_inference": lambda shots: rejection_inference(network, Query("B", 1), shots=shots, seed=seed),
    }


@pytest.mark.parametrize("shots", [0, -3, 2.5, True])
@pytest.mark.parametrize("entry", sorted(_sampling_entries()))
def test_every_sampling_entry_refuses_a_shot_count_that_is_not_a_positive_integer(entry, shots):
    with pytest.raises(CircuitError, match="shots must be a positive integer"):
        _sampling_entries()[entry](shots)


@pytest.mark.parametrize("entry", sorted(_sampling_entries()))
def test_numpy_integer_shots_give_the_output_of_int_shots(entry):
    call = _sampling_entries()[entry]
    assert pickle.dumps(call(np.int64(16))) == pickle.dumps(call(16))


def test_sampler_json_holds_an_int_shot_count():
    circuit = Circuit(2).extend([Gate.h(0), Gate.cx(0, 1)])
    payload = json.loads(json.dumps(sampler(circuit, [], shots=np.int64(8), seed=0).to_dict()))
    assert payload["shots"] == 8


# Each rotation under test, on a qubit width it fits: CRY with a 0-valued, a 1-valued and two controls.
_SWEPT_GATES = {
    "RX": (1, lambda n: Gate.rx(0.0, n - 1)),
    "RY": (1, lambda n: Gate.ry(0.0, 0)),
    "RZ": (1, lambda n: Gate.rz(0.0, n // 2)),
    "CRY-0": (2, lambda n: Gate.cry(0.0, [(0, 0)], n - 1)),
    "CRY-1": (2, lambda n: Gate.cry(0.0, [(n - 1, 1)], 0)),
    "CRY-2": (3, lambda n: Gate.cry(0.0, [(0, 1), (n - 1, 0)], 1)),
}


def _dense_adjoint_terms(gates, g: int, observables, n: int) -> list[float]:
    """Im<lambda_o|P|phi> by dense matrices: phi is the state after ``gates[g]``, lambda_o
    observable o applied to the final state and carried back by the later gates' adjoints, and P
    the gate's Pauli on its target times its controls' projectors."""
    unitaries = [dense_gate_unitary(gate, n) for gate in gates]
    phi = np.eye(2**n, dtype=complex)[0]
    for unitary in unitaries[:g + 1]:
        phi = unitary @ phi
    later = np.eye(2**n, dtype=complex)
    for unitary in unitaries[g + 1:]:
        later = unitary @ later
    factors = [np.eye(2, dtype=complex) for _ in range(n)]
    factors[gates[g].targets[0]] = _PAULI_MATRICES[{"RX": "X", "RZ": "Z"}.get(gates[g].kind, "Y")]
    for q, bit in gates[g].controls:
        factors[q] = _PROJECTORS[bit]
    generated = _kron_qubits(factors) @ phi
    return [float(np.vdot(later.conj().T @ sum(
        c * _kron_qubits([_PAULI_MATRICES[ch] for ch in string]) for c, string in observable.terms
    ) @ later @ phi, generated).imag) for observable in observables]


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("name, n", [(name, n) for name, (low, _) in _SWEPT_GATES.items() for n in range(low, 5)])
def test_adjoint_terms_match_the_dense_oracle_and_rows_their_one_row_calls(name, n, real):
    rng = np.random.default_rng([list(_SWEPT_GATES).index(name), n, real])
    before, after = (random_bound_circuit(rng, n, max_gates=6) for _ in range(2))
    if real:  # float64 forward states, and observables without a Y term
        before, after = _real(before), _real(after)
    gates = before.gates + (_SWEPT_GATES[name][1](n),) + after.gates
    observables = [random_observable(rng, n, "IXZ" if real else "IXYZ"), random_observable(rng, n, "IZ")]
    stops = [g for g, gate in enumerate(gates) if gate.angle is not None]
    angles = rng.uniform(-np.pi, np.pi, (3, len(gates)))
    yielded = list(_adjoint_terms(n, gates, angles, observables, stops))
    assert [g for g, _ in yielded] == stops[::-1]
    for b, row in enumerate(angles):
        bound = [gate if gate.angle is None else replace(gate, angle=AngleExpr.constant(a))
                 for gate, a in zip(gates, row)]
        alone = list(_adjoint_terms(n, gates, angles[b:b + 1], observables, stops))
        for (g, terms), (_, one_row) in zip(yielded, alone):
            assert terms.shape == (3, 2) and terms[b].tobytes() == one_row[0].tobytes()
            assert np.max(np.abs(terms[b] - _dense_adjoint_terms(bound, g, observables, n))) <= 1e-12


# Master seeds of one to four 32-bit words, on both sides of the one/two and two/three word boundaries.
_MASTER_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3, 2**100)


def _task_table(rng, rows: int, width: int) -> np.ndarray:
    """(rows, width) uint64 task values, each 0, below 2^32, 2^32 itself, or in [2^32, 2^64) at random:
    one table mixes every word signature."""
    kinds, values = rng.integers(0, 4, (rows, width)), rng.integers(2**32, 2**64, (rows, width), dtype=np.uint64)
    values[kinds == 0], values[kinds == 2] = 0, 2**32
    values[kinds == 1] = rng.integers(1, 2**32, (rows, width), dtype=np.uint64)[kinds == 1]
    return values


def _oracle(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(v) for v in entropy)))


@pytest.mark.parametrize("seed", _MASTER_SEEDS)
def test_batched_seeds_and_streams_equal_numpy_seed_sequences(seed):
    rng = np.random.default_rng(seed % 997)
    for width in range(1, 7):
        table = _task_table(rng, 40, width)
        rows = [tuple(int(v) for v in row) for row in table]
        expected = [int(np.random.SeedSequence((seed, *row)).generate_state(1, np.uint64)[0]) for row in rows]
        assert simulator._seeds(seed, *table.T).tolist() == expected
        assert sum(1 for _ in simulator._streams(seed, *table.T)) == len(rows)
        for row, stream in zip(rows, simulator._streams(seed, *table.T)):
            assert stream.bit_generator.state == _oracle(seed, *row).bit_generator.state
    # Per-row seeds of one and two words as the leading column, a level below the master seed.
    children = np.concatenate([np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], np.uint64), simulator._seeds(seed, np.arange(5))])
    assert simulator._seeds(children, 7).tolist() == [derive_seed(int(c), 7) for c in children]
    for child, stream in zip(children.tolist(), simulator._streams(children)):
        assert stream.random(3).tobytes() == _oracle(child).random(3).tobytes()


@pytest.mark.parametrize("seed", _MASTER_SEEDS)
def test_one_row_derivations_equal_numpy_seed_sequences(seed):
    for task in [(), (0,), (5, 2**32), (2**70, 0, 2**64 - 1), (3, 1, 4, 1, 5, 9)]:
        expected = np.random.SeedSequence((seed, *task)).generate_state(1, np.uint64)[0]
        assert derive_seed(seed, *task) == int(expected) and type(derive_seed(seed, *task)) is int
        assert derive_rng(seed, *task).bit_generator.state == _oracle(seed, *task).bit_generator.state


def test_reused_generator_draws_every_stream_from_its_start():
    """An odd count of 32-bit draws leaves half a word buffered in the bit generator; the next stream
    must not read it, nor any binomial set-up of the last one."""
    table = _task_table(np.random.default_rng(8), 60, 3)
    streams = zip(table.tolist(), simulator._streams(2**64 + 3, *table.T))
    for (row, stream), shots in zip(streams, itertools.cycle((1, 7, 64))):
        oracle = _oracle(2**64 + 3, *row)
        assert stream.integers(0, 2, 3).tolist() == oracle.integers(0, 2, 3).tolist()
        assert stream.random(shots).tobytes() == oracle.random(shots).tobytes()
        assert stream.binomial(shots * 10, 0.3) == oracle.binomial(shots * 10, 0.3)


# Shot entries whose output draws nothing: no parameters to shift, no rows, no support vectors.
_DRAWLESS = {"param_shift_gradient-no-parameters", "EstimatorQnn.backward-no-parameters", "vqc_predict-no-rows",
             "svm_predict-empty-support"}


@pytest.mark.parametrize("entry", sorted(set(_sampling_entries()) - _DRAWLESS))
def test_a_negative_seed_raises_the_value_error_of_seed_sequence(entry):
    with pytest.raises(ValueError) as oracle:
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match=f"^{oracle.value}$"):
        _sampling_entries(seed=-1)[entry](64)


@pytest.mark.parametrize("call", [
    lambda: derive_seed(-1), lambda: derive_rng(-2), lambda: derive_seed(3, -2), lambda: derive_rng(2**64, 1, -1),
    lambda: simulator._seeds(-1, np.arange(3)), lambda: next(simulator._streams(-5, np.arange(3))),
])
def test_negative_entropy_raises_the_value_error_of_seed_sequence(call):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        call()


@pytest.mark.parametrize("entry", sorted(set(_sampling_entries()) - _DRAWLESS))
def test_every_shot_path_draws_afresh_without_a_seed(entry):
    call = _sampling_entries(seed=None)[entry]
    if entry == "compute_uncompute":  # the entry's state overlaps itself, which always reads 1
        circuit = zz_feature_map(2, 1)
        call = lambda shots: compute_uncompute(FidelityJob(circuit, circuit, [0.3, -0.7], [1.2, 0.4], shots))
    first = pickle.dumps(call(256))  # the likeliest repeat, compute_uncompute's, occurs about 1 time in 8
    assert any(pickle.dumps(call(256)) != first for _ in range(10))
