import math
from dataclasses import replace

import numpy as np
import pytest

from qmlkit import (
    AngleExpr,
    Circuit,
    CircuitError,
    Gate,
    GradientRequest,
    Parameter,
    PauliObservable,
    SpsaGradientConfig,
    Statevector,
    UnsupportedParameterError,
    compile_network,
    estimator,
    expectation,
    finite_difference,
    param_shift_gradient,
    real_amplitudes_ansatz,
    run,
    spsa_gradient,
    zz_feature_map,
)
from qmlkit.circuits import bound_angles
from qmlkit.gradients import shift_rule_jacobian

from .helpers import random_network, random_observable, random_supported_circuit

Z = PauliObservable(((1.0, "Z"),))


def ry_circuit() -> Circuit:
    return Circuit(1).append(Gate.ry(Parameter("t"), 0))


def test_gradient_at_extremum_is_zero():
    grad = param_shift_gradient(GradientRequest(ry_circuit(), Z, [0.0]))
    assert grad == pytest.approx([0.0], abs=1e-12)


def test_gradient_matches_analytic_sine():
    for theta in (-2.0, -0.4, 0.9, math.pi / 2):
        grad = param_shift_gradient(GradientRequest(ry_circuit(), Z, [theta]))
        assert grad[0] == pytest.approx(-math.sin(theta), abs=1e-8)


def test_two_occurrences_apply_product_rule():
    theta = Parameter("t")
    circuit = Circuit(1).append(Gate.ry(theta, 0)).append(Gate.ry(theta, 0))
    grad = param_shift_gradient(GradientRequest(circuit, Z, [math.pi / 4]))
    assert grad[0] == pytest.approx(-2.0, abs=1e-8)
    # Chain rule oracle: composed function is cos(2 t).
    for theta_value in (0.3, -1.2):
        grad = param_shift_gradient(GradientRequest(circuit, Z, [theta_value]))
        assert grad[0] == pytest.approx(-2.0 * math.sin(2.0 * theta_value), abs=1e-8)


def test_negative_sign_occurrence():
    theta = Parameter("t")
    circuit = Circuit(1).append(Gate.ry(AngleExpr(-1.0, ((0.0, 1.0, theta),)), 0))
    grad = param_shift_gradient(GradientRequest(circuit, Z, [0.7]))
    # f = cos(-t) = cos(t), so the derivative is -sin... with angle -t: d cos(t)/dt.
    assert grad[0] == pytest.approx(-math.sin(0.7), abs=1e-8)


def test_product_form_parameter_matches_finite_difference():
    # The pair angle 2(pi - x0)(pi - x1) moves with both parameters (chain and product rules).
    circuit, observable = zz_feature_map(2, 1), PauliObservable(((1.0, "ZI"), (0.5, "XY")))
    for values in ([0.1, 0.2], [-1.3, 2.4]):
        grad = param_shift_gradient(GradientRequest(circuit, observable, values))
        oracle = finite_difference(lambda v: estimator(circuit, observable, v), values, 1e-5)
        assert np.max(np.abs(grad - oracle)) < 1e-4


def test_scaled_parameter_matches_analytic_and_finite_difference():
    theta = Parameter("t")
    circuit = Circuit(1).append(Gate.ry(AngleExpr(2.0, ((0.0, 1.0, theta),)), 0))
    for value in (0.1, -0.9):
        grad = param_shift_gradient(GradientRequest(circuit, Z, [value]))
        # f = cos(2 t).
        assert grad[0] == pytest.approx(-2.0 * math.sin(2.0 * value), abs=1e-8)
        oracle = finite_difference(lambda v: estimator(circuit, Z, v), [value], 1e-5)
        assert abs(grad[0] - oracle[0]) < 1e-4


def test_cry_parameter_rejected():
    # The CRY generator has eigenvalues 0 and +-1/2, so the two-term rule is
    # wrong here: it gives -0.2425 where finite differences give -0.1714.
    theta = Parameter("t")
    circuit = (
        Circuit(2).append(Gate.h(0)).append(Gate.ry(0.4, 1)).append(Gate.cry(theta, [(0, 1)], 1))
    )
    with pytest.raises(UnsupportedParameterError) as info:
        param_shift_gradient(GradientRequest(circuit, PauliObservable(((1.0, "XI"),)), [0.7]))
    assert info.value.parameter_name == "t"


def test_library_circuits_are_differentiable():
    rng = np.random.default_rng(53)
    zz = zz_feature_map(3, 2)
    circuits = [
        zz,
        real_amplitudes_ansatz(3, 2),
        zz.compose(real_amplitudes_ansatz(3, 1)),
        zz.bind_partial({zz.parameters[1]: 0.4}),
        compile_network(random_network(rng, max_nodes=3)),
    ]
    for circuit in circuits:
        observable = random_observable(rng, circuit.num_qubits)
        values = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
        jacobian = shift_rule_jacobian(circuit, values, lambda state, task: [expectation(state, observable)])
        assert jacobian.shape[0] == circuit.num_parameters
        if circuit.num_parameters:
            oracle = finite_difference(lambda v: estimator(circuit, observable, v), values, 1e-5)
            assert np.max(np.abs(jacobian[:, 0] - oracle)) < 1e-4


def test_affine_offset_is_differentiable():
    theta = Parameter("t")
    circuit = Circuit(1).append(Gate.ry(AngleExpr(1.0, ((0.4, 1.0, theta),)), 0))
    grad = param_shift_gradient(GradientRequest(circuit, Z, [0.3]))
    assert grad[0] == pytest.approx(-math.sin(0.7), abs=1e-8)


def test_invalid_shift_rejected():
    with pytest.raises(CircuitError):
        GradientRequest(ry_circuit(), Z, [0.0], shift=math.pi)


@pytest.mark.parametrize("shift", [0.0, math.pi, -2.0 * math.pi, math.nan, math.inf, -math.inf])
def test_degenerate_or_non_finite_shift_rejected(shift):
    with pytest.raises(CircuitError):
        GradientRequest(ry_circuit(), Z, [0.3], shift=shift)
    with pytest.raises(CircuitError):
        shift_rule_jacobian(ry_circuit(), [0.3], lambda state, task: [expectation(state, Z)], shift=shift)


@pytest.mark.parametrize("general_angles", [False, True], ids=["unit_angles", "general_angles"])
def test_matches_finite_difference_on_random_circuits(general_angles):
    rng = np.random.default_rng(41)
    for _ in range(30):
        circuit, values = random_supported_circuit(rng, general_angles=general_angles)
        observable = random_observable(rng, circuit.num_qubits)
        grad = param_shift_gradient(GradientRequest(circuit, observable, values))
        oracle = finite_difference(
            lambda v: estimator(circuit, observable, v), values, 1e-5
        )
        assert np.max(np.abs(grad - oracle)) < 1e-4


@pytest.mark.parametrize("general_angles", [False, True], ids=["unit_angles", "general_angles"])
def test_shift_invariance(general_angles):
    rng = np.random.default_rng(43)
    for _ in range(15):
        circuit, values = random_supported_circuit(rng, general_angles=general_angles)
        observable = random_observable(rng, circuit.num_qubits)
        g_half = param_shift_gradient(GradientRequest(circuit, observable, values, shift=math.pi / 2))
        g_third = param_shift_gradient(GradientRequest(circuit, observable, values, shift=math.pi / 3))
        assert np.max(np.abs(g_half - g_third)) < 1e-8


def test_shot_mode_gradient_deterministic():
    request = GradientRequest(ry_circuit(), Z, [0.8], shots=256, seed=13)
    assert np.array_equal(param_shift_gradient(request), param_shift_gradient(request))


def test_spsa_exact_on_linear_objective():
    grad = spsa_gradient(lambda v: 2.0 * v[0], [0.3], SpsaGradientConfig(seed=1))
    assert grad[0] == pytest.approx(2.0, abs=1e-12)


def test_spsa_cross_terms_cancel_in_expectation():
    f = lambda v: 2.0 * v[0]
    singles = [
        spsa_gradient(f, [0.0, 0.0], SpsaGradientConfig(resamples=1, seed=k))[1]
        for k in range(200)
    ]
    assert all(abs(abs(v) - 2.0) < 1e-12 for v in singles)
    assert abs(np.mean(singles)) < 0.5
    averaged = spsa_gradient(f, [0.0, 0.0], SpsaGradientConfig(resamples=400, seed=5))
    assert averaged[0] == pytest.approx(2.0, abs=1e-12)
    assert abs(averaged[1]) < 0.3


def test_spsa_constant_function_gives_zeros():
    grad = spsa_gradient(lambda v: 1.5, [0.1, 0.2, 0.3], SpsaGradientConfig(seed=2, resamples=3))
    assert np.array_equal(grad, np.zeros(3))


def test_spsa_deterministic_per_seed():
    f = lambda v: float(np.sin(v).sum())
    config = SpsaGradientConfig(resamples=4, seed=21)
    assert np.array_equal(
        spsa_gradient(f, [0.3, 0.4], config), spsa_gradient(f, [0.3, 0.4], config)
    )


def test_spsa_rejects_non_finite():
    with pytest.raises(ValueError):
        spsa_gradient(lambda v: float("nan"), [0.0], SpsaGradientConfig(seed=0))


def test_spsa_config_validation():
    with pytest.raises(CircuitError):
        SpsaGradientConfig(perturbation=0.0)
    with pytest.raises(CircuitError):
        SpsaGradientConfig(resamples=0)


def test_finite_difference_quadratic():
    grad = finite_difference(lambda v: v[0] ** 2, [3.0], 1e-5)
    assert grad[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_difference_constant():
    grad = finite_difference(lambda v: 5.0, [1.0, 2.0], 1e-5)
    assert np.array_equal(grad, np.zeros(2))


def test_finite_difference_cosine():
    grad = finite_difference(lambda v: math.cos(v[0]), [math.pi / 2], 1e-5)
    assert grad[0] == pytest.approx(-1.0, abs=1e-6)


def test_finite_difference_rejects_bad_step():
    with pytest.raises(CircuitError):
        finite_difference(lambda v: 0.0, [0.0], 0.0)


def test_shift_rule_hands_tasks_in_order_with_one_gate_moved():
    a, b = Parameter("a"), Parameter("b")
    # ``a`` feeds gates 1 and 4 (the latter as -(0.3 + a)), ``b`` feeds gate 3.
    circuit = Circuit(2).extend([
        Gate.h(0), Gate.ry(a, 0), Gate.cx(0, 1), Gate.rx(b, 1),
        Gate.rz(AngleExpr(-1.0, ((0.3, 1.0, a),)), 1),
    ])
    values = np.array([0.4, -1.1])
    seen = []

    def evaluate(state, task):
        seen.append((task, state.amplitudes.copy()))
        return np.zeros(1)

    shift_rule_jacobian(circuit, values, evaluate)
    s = math.pi / 2
    # Parameters in circuit order, then each one's gates in order, +shift before -shift.
    expected = [(1, 0, s), (1, 0, -s), (4, 0, s), (4, 0, -s), (3, 1, s), (3, 1, -s)]
    assert [task for task, _ in seen] == list(range(len(expected)))
    base = bound_angles(circuit, values)
    for (_, amplitudes), (gate, column, delta) in zip(seen, expected):
        shifted = values.copy()
        shifted[column] += delta
        angles = base.copy()
        angles[gate] = bound_angles(circuit, shifted)[gate]
        moved = Circuit(2).extend(
            replace(g, angle=AngleExpr.constant(angle)) if g.angle is not None else g
            for g, angle in zip(circuit.gates, angles)
        )
        np.testing.assert_allclose(amplitudes, run(moved).amplitudes, rtol=0, atol=1e-12)
        # Moving the parameter in every gate it feeds gives another state.
        assert column == 1 or not np.allclose(amplitudes, run(circuit.bind(shifted)).amplitudes)


def test_shift_rule_over_a_table_reads_rows_in_order_and_equals_its_rows():
    rng = np.random.default_rng(47)
    circuit, _ = random_supported_circuit(rng, num_qubits=2, max_params=3, max_gates=12)
    observable = random_observable(rng, 2)
    table = rng.uniform(-np.pi, np.pi, (5, circuit.num_parameters))
    seen = []

    def evaluate_row(state, i, task):
        seen.append((i, task))
        return [expectation(state, observable), float(i)]

    def evaluate_block(states, rows, tasks):
        return [evaluate_row(Statevector(2, a), i, k) for a, i, k in zip(states, rows.tolist(), tasks.tolist())]

    jacobians = shift_rule_jacobian(circuit, table, evaluate_block)
    tasks = len(seen) // len(table)
    assert seen == [(i, k) for i in range(len(table)) for k in range(tasks)]
    for i, values in enumerate(table):
        row = shift_rule_jacobian(circuit, values, lambda state, task: evaluate_row(state, i, task))
        assert jacobians[i].tobytes() == row.tobytes()
        assert np.all(row[:, 1] == 0.0)
