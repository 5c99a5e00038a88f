import json
import math

import numpy as np
import pytest

from qmlkit import (
    AngleExpr,
    Circuit,
    CircuitError,
    EstimatorQnn,
    Gate,
    ModelFormatError,
    Parameter,
    PauliObservable,
    SamplerQnn,
    SvmModel,
    VqcModel,
    circuit_from_dict,
    circuit_to_dict,
    estimator,
    kernel_matrix,
    real_amplitudes_ansatz,
    run,
    sampler,
    svm_predict,
    vqc_predict,
    zz_feature_map,
)

from .helpers import random_supported_circuit


def test_append_gate_without_parameters():
    circuit = Circuit(1).append(Gate.h(0))
    assert len(circuit.gates) == 1
    assert circuit.num_parameters == 0


def test_append_registers_parameter():
    theta = Parameter("theta")
    circuit = Circuit(1).append(Gate.ry(theta, 0))
    assert circuit.parameters == (theta,)


def test_append_rejects_duplicate_qubit():
    with pytest.raises(CircuitError):
        Gate.cx(0, 0)


def test_append_rejects_out_of_range_qubit():
    with pytest.raises(CircuitError):
        Circuit(1).append(Gate.h(1))


def test_append_rejects_name_collision_between_distinct_objects():
    circuit = Circuit(1).append(Gate.ry(Parameter("a"), 0))
    with pytest.raises(CircuitError):
        circuit.append(Gate.ry(Parameter("a"), 0))


def test_bind_collapses_to_constant():
    theta = Parameter("theta")
    circuit = Circuit(1).append(Gate.ry(theta, 0))
    bound = circuit.bind([math.pi / 2])
    assert bound.num_parameters == 0
    assert bound.gates[0].angle.evaluate({}) == pytest.approx(math.pi / 2)


def test_bind_empty_is_identity():
    circuit = Circuit(1).append(Gate.h(0))
    assert circuit.bind([]) == circuit


def test_bind_zero_factor_gives_zero_angle():
    x0, x1 = Parameter("x0"), Parameter("x1")
    angle = AngleExpr(2.0, ((math.pi, -1.0, x0), (math.pi, -1.0, x1)))
    circuit = Circuit(1).append(Gate.rz(angle, 0))
    bound = circuit.bind([math.pi, 0.0])
    assert bound.gates[0].angle.coefficient == pytest.approx(0.0)


def test_bind_length_mismatch():
    circuit = Circuit(1).append(Gate.ry(Parameter("t"), 0))
    with pytest.raises(CircuitError):
        circuit.bind([])


def test_bind_does_not_mutate_input():
    theta = Parameter("theta")
    circuit = Circuit(1).append(Gate.ry(theta, 0))
    snapshot = Circuit(circuit.num_qubits, circuit.gates, circuit.parameters)
    circuit.bind([0.3])
    assert circuit == snapshot


def test_inverse_of_hadamard_is_hadamard():
    circuit = Circuit(1).append(Gate.h(0))
    assert circuit.inverse().gates == circuit.gates


def test_inverse_negates_rotation():
    circuit = Circuit(1).append(Gate.ry(0.3, 0))
    assert circuit.inverse().gates[0].angle.evaluate({}) == pytest.approx(-0.3)


def test_inverse_reverses_order():
    circuit = Circuit(2).append(Gate.h(0)).append(Gate.cx(0, 1))
    inverted = circuit.inverse()
    assert [g.kind for g in inverted.gates] == ["CX", "H"]


def test_double_inverse_is_structural_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        circuit, _ = random_supported_circuit(rng)
        assert circuit.inverse().inverse() == circuit


def test_compose_with_empty_is_identity():
    circuit = Circuit(2).append(Gate.h(0))
    assert circuit.compose(Circuit(2)) == circuit


def test_compose_concatenates_parameters():
    a, b = Parameter("a"), Parameter("b")
    left = Circuit(1).append(Gate.ry(a, 0))
    right = Circuit(1).append(Gate.ry(b, 0))
    assert left.compose(right).parameters == (a, b)


def test_compose_width_mismatch():
    with pytest.raises(CircuitError):
        Circuit(2).compose(Circuit(3))


def test_compose_shares_identical_parameter_objects():
    theta = Parameter("theta")
    left = Circuit(1).append(Gate.ry(theta, 0))
    right = Circuit(1).append(Gate.ry(theta, 0))
    composed = left.compose(right)
    assert composed.parameters == (theta,)
    assert len(composed.gates) == 2


def test_compose_rejects_distinct_objects_with_same_name():
    left = Circuit(1).append(Gate.ry(Parameter("t"), 0))
    right = Circuit(1).append(Gate.ry(Parameter("t"), 0))
    with pytest.raises(CircuitError):
        left.compose(right)


def test_zz_feature_map_single_qubit():
    circuit = zz_feature_map(1, 1)
    assert [g.kind for g in circuit.gates] == ["H", "RZ"]
    assert circuit.num_parameters == 1


def test_zz_feature_map_gate_counts():
    assert len(zz_feature_map(2, 1).gates) == 7
    assert len(zz_feature_map(2, 2).gates) == 14
    assert zz_feature_map(2, 2).num_parameters == 2


@pytest.mark.parametrize("n,reps", [(1, 1), (2, 1), (3, 2), (2, 3)])
def test_zz_feature_map_parameter_count_independent_of_reps(n, reps):
    assert zz_feature_map(n, reps).num_parameters == n


def test_real_amplitudes_single_qubit():
    circuit = real_amplitudes_ansatz(1, 1)
    assert [g.kind for g in circuit.gates] == ["RY", "RY"]
    assert circuit.num_parameters == 2


def test_real_amplitudes_counts():
    circuit = real_amplitudes_ansatz(2, 1)
    assert circuit.num_parameters == 4
    assert sum(1 for g in circuit.gates if g.kind == "CX") == 1
    assert real_amplitudes_ansatz(3, 2).num_parameters == 9


def test_compose_with_inverse_restores_basis_states():
    rng = np.random.default_rng(11)
    for _ in range(15):
        circuit, values = random_supported_circuit(rng)
        bound = circuit.bind(values)
        n = circuit.num_qubits
        basis = int(rng.integers(1 << n))
        prep = Circuit(n).extend(Gate.x(q) for q in range(n) if (basis >> q) & 1)
        roundtrip = prep.compose(bound).compose(bound.inverse())
        amplitudes = run(roundtrip).amplitudes
        expected = np.zeros(1 << n, dtype=complex)
        expected[basis] = 1.0
        assert np.allclose(amplitudes, expected, atol=1e-10)


def test_angle_expr_linear_in_coefficient():
    p = Parameter("p")
    env = {p: 0.37}
    base = AngleExpr(1.3, ((0.2, 0.5, p),))
    doubled = AngleExpr(2.6, ((0.2, 0.5, p),))
    assert doubled.evaluate(env) == pytest.approx(2.0 * base.evaluate(env))


def test_angle_expr_factor_permutation_invariance():
    a, b = Parameter("a"), Parameter("b")
    env = {a: 0.3, b: -1.2}
    forward = AngleExpr(2.0, ((0.1, 1.0, a), (0.7, -2.0, b)))
    backward = AngleExpr(2.0, ((0.7, -2.0, b), (0.1, 1.0, a)))
    assert forward.evaluate(env) == pytest.approx(backward.evaluate(env))


def test_bind_partial_folds_selected_parameters():
    x, w = Parameter("x"), Parameter("w")
    circuit = Circuit(1).append(Gate.ry(x, 0)).append(Gate.ry(w, 0))
    partial = circuit.bind_partial({w: 0.25})
    assert partial.parameters == (x,)
    assert partial.gates[1].angle.evaluate({}) == pytest.approx(0.25)


def test_circuit_json_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        circuit, _ = random_supported_circuit(rng)
        rebuilt = circuit_from_dict(circuit_to_dict(circuit))
        assert circuit_to_dict(rebuilt) == circuit_to_dict(circuit)
        assert [p.name for p in rebuilt.parameters] == [p.name for p in circuit.parameters]


def test_circuit_json_round_trip_zz_map():
    circuit = zz_feature_map(3, 2)
    rebuilt = circuit_from_dict(circuit_to_dict(circuit))
    values = [0.3, -0.8, 1.9]
    assert np.allclose(
        run(circuit.bind(values)).amplitudes, run(rebuilt.bind(values)).amplitudes
    )


def test_circuit_from_dict_rejects_garbage():
    with pytest.raises(ModelFormatError):
        circuit_from_dict({"num_qubits": 1, "gates": []})
    with pytest.raises(ModelFormatError):
        circuit_from_dict({"num_qubits": 1, "gates": [{"kind": "WAT", "targets": [0]}], "parameters": []})
    with pytest.raises(ModelFormatError):
        circuit_from_dict(
            {"num_qubits": 1, "gates": [], "parameters": ["orphan"]}
        )


def test_circuit_from_dict_names_gate_with_qubit_outside_width():
    data = circuit_to_dict(real_amplitudes_ansatz(2, 1))
    data["gates"][3]["targets"] = [5]
    with pytest.raises(ModelFormatError) as info:
        circuit_from_dict(data)
    assert info.value.field_path == "circuit.gates[3]"
    assert "outside width 2" in str(info.value)


@pytest.mark.parametrize("text, field", [
    ('{"num_qubits": 1e400, "gates": [], "parameters": []}', "circuit.num_qubits"),
    ('{"num_qubits": 2.9, "gates": [], "parameters": []}', "circuit.num_qubits"),
    ('{"num_qubits": true, "gates": [], "parameters": []}', "circuit.num_qubits"),
    ('{"num_qubits": 2, "gates": [{"kind": "H", "targets": [1.7]}], "parameters": []}', "circuit.gates[0]"),
    ('{"num_qubits": 2, "gates": [{"kind": "H", "targets": ["1"]}], "parameters": []}', "circuit.gates[0]"),
    ('{"num_qubits": 2, "gates": [{"kind": "H", "targets": [0]}, {"kind": "CX", "targets": [1], '
     '"controls": [[0, true]]}], "parameters": []}', "circuit.gates[1]"),
], ids=["overflow", "float-width", "bool-width", "float-target", "string-target", "bool-control"])
def test_circuit_from_dict_requires_json_integers(text, field):
    with pytest.raises(ModelFormatError) as info:
        circuit_from_dict(json.loads(text))
    assert info.value.field_path == field and "expected integers" in str(info.value)


def test_circuit_from_dict_equals_saved_circuit():
    circuit = real_amplitudes_ansatz(8, 160)
    assert len(circuit.gates) == 2408
    rebuilt = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit))))
    assert [p.name for p in rebuilt.parameters] == [p.name for p in circuit.parameters]
    values = np.random.default_rng(11).uniform(-np.pi, np.pi, circuit.num_parameters)
    assert rebuilt.bind(values) == circuit.bind(values)


def test_extend_equals_chained_appends():
    rng = np.random.default_rng(89)
    params = [Parameter(f"p{i}") for i in range(40)]
    gates = []
    for k in range(1600):
        q = int(rng.integers(4))
        a, b = (params[int(i)] for i in rng.integers(40, size=2))
        if k % 4 == 0:
            gates.append(Gate.cx(q, (q + 1) % 4))
        elif k % 4 == 1:
            gates.append(Gate.rz(AngleExpr(2.0, ((0.5, 1.0, a), (0.0, -1.0, b))), q))
        else:
            gates.append(Gate.ry(a, q))
    chained = Circuit(4)
    for gate in gates:
        chained = chained.append(gate)
    extended = Circuit(4).extend(gates)
    assert extended == chained
    assert extended.parameters == chained.parameters
    with pytest.raises(CircuitError):
        extended.extend([Gate.h(0), Gate.rx(Parameter("p7"), 1)])
    with pytest.raises(CircuitError):
        Circuit(1).extend([Gate.ry(Parameter("a"), 0), Gate.ry(Parameter("a"), 0)])


def _angle_entries() -> dict:
    """Calls that evaluate gate angles, as functions of one parameter value."""
    feature_map, ansatz = zz_feature_map(2, 1), real_amplitudes_ansatz(2, 1)
    circuit, z0 = feature_map.compose(ansatz), PauliObservable.z_on(0, 2)
    split = dict(input_params=range(2), weight_params=range(2, 6))
    vqc = VqcModel(feature_map, ansatz, np.full(4, 0.3))
    svm = SvmModel("qsvc", feature_map, np.array([0.5]), np.array([1.0]), np.array([[0.1, 0.2]]), bias=0.1)
    t = Parameter("t")
    return {
        "Circuit.bind": lambda v: feature_map.bind([v, 0.0]),
        "constant-angle": lambda v: Circuit(1).append(Gate.ry(v, 0)).bind([]),
        "bind_partial-coefficient": lambda v: Circuit(1).append(Gate.ry(t, 0)).bind_partial({t: v}).bind([]),
        "estimator": lambda v: estimator(feature_map, z0, [v, 0.0]),
        "sampler": lambda v: sampler(feature_map, [v, 0.0]),
        "kernel_matrix": lambda v: kernel_matrix(feature_map, [[v, 0.0], [0.1, 0.2]]),
        "vqc_predict": lambda v: vqc_predict(vqc, [[v, 0.0]]),
        "svm_predict": lambda v: svm_predict(svm, [[v, 0.0]]),
        "EstimatorQnn.forward": lambda v: EstimatorQnn(circuit, [z0], **split).forward([v, 0.0], np.zeros(4)),
        "SamplerQnn.forward": lambda v: SamplerQnn(circuit, **split).forward([0.0, 0.0], [v, 0.0, 0.0, 0.0]),
    }


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_angle_entries()))
def test_non_finite_angles_raise(entry, value):
    with pytest.raises(CircuitError, match="not finite"):
        _angle_entries()[entry](value)
