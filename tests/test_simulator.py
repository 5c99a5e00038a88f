import math
import os
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
    Circuit,
    CircuitError,
    Gate,
    Parameter,
    PauliObservable,
    SamplerQnn,
    estimator,
    expectation,
    index_to_bitstring,
    bitstring_to_index,
    parity_interpret,
    real_amplitudes_ansatz,
    run,
    sampler,
)
from qmlkit.circuits import bound_angles
from qmlkit import simulator
from qmlkit.simulator import (
    _blocks, _cdf, _draws, _expectations, _rotated, _sampled_expectations, derive_rng, run_ops, sample_state,
)

from .helpers import (
    dense_expectation, dense_state, random_bound_circuit, random_observable, random_supported_circuit,
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
            drawn = _draws(_cdf(probs), 2000, seed, 4, 2)
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


def _per_term_sampled_expectations(rows, observable, shots, seeds):
    """Shot-mode expectations with one rotated copy, |amplitude|^2 and CDF per term and row."""
    total = np.zeros(len(rows))
    for term_index, (coeff, string) in enumerate(observable.terms):
        if set(string) == {"I"}:
            total += coeff
            continue
        probs = np.abs(_rotated(rows, string)) ** 2
        for b, seed in enumerate(seeds):
            outcomes = _draws(_cdf(probs[b]), shots, seed, term_index)
            signs = np.ones(shots)
            for qubit, ch in enumerate(string):
                if ch != "I":
                    signs *= 1.0 - 2.0 * ((outcomes >> qubit) & 1)
            total[b] += coeff * float(signs.mean())
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
