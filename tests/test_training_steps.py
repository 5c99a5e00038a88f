"""A gd/adam training step prepares its states in one table: the objective's forward rides in
the gradient's shift-rule table (or an exact regressor's adjoint sweep), so a 100-step fit makes
101 ``run_ops`` calls, not 301. Results equal those recorded before the merge, bit for bit."""

import hashlib
import math

import numpy as np
import pytest

from qmlkit import (
    Circuit,
    Dataset,
    EstimatorQnn,
    Gate,
    OptimizerConfig,
    PauliObservable,
    SamplerQnn,
    parity_interpret,
    real_amplitudes_ansatz,
    vqc_fit,
    vqr_fit,
    zz_feature_map,
)
from qmlkit import gradients, models, simulator


def fit_data():
    """8 rows of a noisy XOR sign pattern, with parity labels and cosine regression targets."""
    features = np.random.default_rng(12).uniform(-math.pi / 2, math.pi / 2, (8, 2))
    labels = np.where(features[:, 0] * features[:, 1] > 0.0, 1.0, -1.0)
    return Dataset(features, labels), Dataset(features, np.cos(features[:, 0]))


@pytest.fixture
def counted(monkeypatch):
    """Count ``run_ops`` calls from every module that binds it, and capture ``minimize``'s result."""
    calls, results, run_ops, minimize = [], [], simulator.run_ops, models.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return run_ops(*args, **kwargs)

    def capturing(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    for module in (simulator, gradients):
        monkeypatch.setattr(module, "run_ops", counting)
    monkeypatch.setattr(models, "minimize", capturing)
    return calls, results


def maps():
    return zz_feature_map(2, 1), real_amplitudes_ansatz(2, 1)


ADAM = OptimizerConfig(kind="adam", max_iterations=100, learning_rate=0.1, tolerance=0.0)
SPSA = OptimizerConfig(kind="spsa", max_iterations=100, tolerance=0.0)
ZZ = PauliObservable(((1.0, "ZZ"),))

# (run_ops calls, evaluations, sha256 of the float64 history) per fit. Before one table per
# step every case made 301 calls; the evaluations and histories are those of that code.
FITS = {
    "vqc-exact": (lambda c, r: vqc_fit(c, *maps(), ADAM, seed=1), 101, 101,
                  "eef3287c1a686129ca3eca0ea0e44edcbe3bb9dd99997d3f1e604a3fb8f519e4"),
    "vqc-64": (lambda c, r: vqc_fit(c, *maps(), ADAM, shots=64, seed=1), 101, 101,
               "8d48dcdeb043620e5cbea382e2d838d14720b1836e173cfb1c406709647220e5"),
    "vqr-exact": (lambda c, r: vqr_fit(r, *maps(), ZZ, ADAM, seed=1), 101, 101,
                  "9e08d110e3fc28b328c47034da2294fe957d58514afa8eec4418b23ccf5f91c0"),
    "vqc-spsa": (lambda c, r: vqc_fit(c, *maps(), SPSA, seed=1), 301, 301,
                 "10f6cb7ec85de6278b1b284776f42f8ec159547dc22ccb3bf691d68be991564f"),
}


@pytest.mark.parametrize("case", sorted(FITS))
def test_a_training_step_is_one_state_table(counted, case):
    fit, runs, evaluations, digest = FITS[case]
    calls, results = counted
    fit(*fit_data())
    (result,) = results
    assert len(calls) == runs
    assert result.evaluations == evaluations and len(result.history) == 101
    assert hashlib.sha256(np.asarray(result.history, "<f8").tobytes()).hexdigest() == digest


WEIGHTLESS = {  # the one-entry history each fit recorded before one table per step
    "vqc-exact": (lambda c, r, a: vqc_fit(c, zz_feature_map(2, 1), a, ADAM, seed=1), 0.5247662600042224),
    "vqc-16": (lambda c, r, a: vqc_fit(c, zz_feature_map(2, 1), a, ADAM, shots=16, seed=1), 0.5374067665316966),
    "vqr-exact": (lambda c, r, a: vqr_fit(r, zz_feature_map(2, 1), a, ZZ, ADAM, seed=1), 0.5062958009885857),
}


@pytest.mark.parametrize("case", sorted(WEIGHTLESS))
def test_an_ansatz_without_weights_trains_to_its_one_loss(case):
    fit, loss = WEIGHTLESS[case]
    model = fit(*fit_data(), Circuit(2).extend([Gate.h(0)]))
    assert model.trained_weights.shape == (0,)
    assert model.loss_history == [loss]


@pytest.mark.parametrize("case", sorted(WEIGHTLESS))
def test_an_ansatz_without_weights_trains_in_one_state_table(counted, case):
    # With no weight to shift, the step's one table holds only each row's unshifted state once
    # per seed set (two sets in shot mode): one run_ops call.
    fit, loss = WEIGHTLESS[case]
    calls, results = counted
    fit(*fit_data(), Circuit(2).extend([Gate.h(0)]))
    (result,) = results
    assert len(calls) == 1 and result.history == [loss]


def circuit() -> Circuit:
    return zz_feature_map(2, 1).compose(real_amplitudes_ansatz(2, 1))


QNNS = {
    "estimator": lambda: EstimatorQnn(
        circuit(), [PauliObservable(((1.0, "ZI"), (0.5, "XY"))), PauliObservable.z_on(1, 2)], [0, 1], range(2, 6)),
    "sampler_parity": lambda: SamplerQnn(circuit(), [0, 1], range(2, 6), parity_interpret, 2),
    "sampler_identity": lambda: SamplerQnn(circuit(), [0, 1], range(2, 6)),
    "sampler_10_qubits": lambda: models._qnn(zz_feature_map(10, 1), real_amplitudes_ansatz(10, 1)),
}


@pytest.mark.parametrize("shots", [None, 64])
@pytest.mark.parametrize("kind", sorted(QNNS))
def test_readouts_in_the_jacobian_pass_equal_the_forward_pass(monkeypatch, kind, shots):
    qnn = QNNS[kind]()
    rng = np.random.default_rng(4)
    inputs = rng.uniform(-2.0, 2.0, (5, len(qnn.input_params)))
    weights = rng.uniform(-2.0, 2.0, len(qnn.weight_params))
    seed_sets = [None] if shots is None else [np.arange(5, dtype=np.uint64) + 11, 7 * np.arange(5, dtype=np.uint64)]
    forwards = [qnn._outputs(inputs, weights, shots, seeds) for seeds in seed_sets]
    jacobians = qnn._jacobians(inputs, weights, shots, seed_sets[-1])
    # Blocks of 3 states: the shift rule's blocks, and an exact estimator's sweeps, straddle rows.
    monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", 3 * max(len(qnn.circuit.gates), 2**qnn.circuit.num_qubits))
    together = qnn._jacobians(inputs, weights, shots, seed_sets[-1], seed_sets)
    assert len(together) == 2 + len(seed_sets)
    for a, b in zip(together, jacobians + tuple(forwards)):
        assert (a is None and b is None) or (a.shape == b.shape and a.tobytes() == b.tobytes())
