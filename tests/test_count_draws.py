"""The count-drawing shot readers against the per-shot draws they replace, in distribution.

A shot reader that keeps only class counts draws them as one binomial or
multinomial over the exact class probabilities. The oracle here draws the
shots themselves, as the readers once did and ``sampler`` still does:
``shots`` uniforms searched in the CDF of the measured outcome probabilities
(``_cdf``, ``_draws``), each outcome then put in its class. Over ``SEEDS``
seeds, each output's values from the reader and from the oracle (on seeds of
its own) must pass a two-sample Kolmogorov-Smirnov check.

Significance: for two samples of n values from one distribution F, the
Dvoretzky-Kiefer-Wolfowitz inequality (Massart's constant, which also holds
for discrete F) bounds each empirical CDF's distance from F, so
P(sup |F_a - F_b| > eps) <= 4 exp(-n eps^2 / 2). Each comparison fails
correct code with probability at most ``ALPHA`` = 5e-8; the 13 comparisons
below, at most 6.5e-7 together.
"""

import math

import numpy as np

from qmlkit import (
    BayesianNetwork,
    BayesNode,
    FidelityJob,
    PauliObservable,
    Query,
    SamplerQnn,
    compile_network,
    compute_uncompute,
    index_to_bitstring,
    parity_interpret,
    real_amplitudes_ansatz,
    rejection_inference,
    run,
    zz_feature_map,
)
from qmlkit.simulator import _cdf, _draws, _sampled_expectations, _streams

from .helpers import _kron_qubits, random_bound_circuit

SEEDS = 4000
ALPHA = 5e-8
ORACLE_SEED = 10**6  # the oracle's streams are (ORACLE_SEED, k), apart from the readers' seeds 0 to SEEDS - 1

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# Per Pauli character, the rotation U with U P U^dagger = Z, so that Z measures P afterwards.
_INTO_Z = {"I": np.eye(2), "Z": np.eye(2), "X": _H, "Y": _H @ np.diag([1.0, -1j])}


def _assert_same_distribution(found, oracle) -> None:
    """Two-sample Kolmogorov-Smirnov check at level ``ALPHA``, from the bound in the module docstring."""
    found, oracle = np.sort(found), np.sort(oracle)
    values = np.union1d(found, oracle)  # the empirical CDFs jump only here
    distance = np.max(np.abs(np.searchsorted(found, values, "right") - np.searchsorted(oracle, values, "right")))
    assert distance / SEEDS <= math.sqrt(2.0 * math.log(4.0 / ALPHA) / SEEDS)


def _oracle_counts(probs: np.ndarray, classes: np.ndarray, shots: int) -> np.ndarray:
    """(SEEDS, classes) counts of ``shots`` per-shot draws against ``probs`` per oracle stream,
    outcome i counted in class ``classes[i]``."""
    cdf = _cdf(np.array(probs, dtype=float))
    return np.array([
        np.bincount(classes[_draws(cdf, shots, rng)], minlength=classes.max() + 1)
        for rng in _streams(ORACLE_SEED, np.arange(SEEDS))
    ])


def test_pauli_term_means_match_per_shot_parities():
    n, shots = 3, 64
    state = run(random_bound_circuit(np.random.default_rng(2107), n, max_gates=12)).amplitudes
    rows = np.repeat(state[None], SEEDS, axis=0)
    for string in ("XIZ", "IYX", "YYI", "ZZZ"):
        probs = np.abs(_kron_qubits([_INTO_Z[ch] for ch in string]) @ state) ** 2
        odd = np.array([sum((i >> q) & 1 for q, ch in enumerate(string) if ch != "I") % 2 for i in range(2**n)])
        oracle = 1.0 - 2.0 * _oracle_counts(probs, odd, shots)[:, 1] / shots
        found = _sampled_expectations(rows, PauliObservable(((1.0, string),)), shots, np.arange(SEEDS))
        _assert_same_distribution(found, oracle)


def test_sampler_network_buckets_match_per_shot_buckets():
    circuit = zz_feature_map(3, 1).compose(real_amplitudes_ansatz(3, 1))
    rng = np.random.default_rng(2108)
    inputs, weights = rng.uniform(-1.0, 1.0, 3), rng.uniform(-np.pi, np.pi, circuit.num_parameters - 3)
    for interpret, output_dim in ((parity_interpret, 2), (lambda bits: bits.count("1"), 4)):
        qnn = SamplerQnn(circuit, range(3), range(3, circuit.num_parameters), interpret, output_dim)
        probs = run(circuit.bind(np.concatenate([inputs, weights]))).probabilities()
        buckets = np.array([interpret(index_to_bitstring(i, 3)) for i in range(8)])
        oracle = _oracle_counts(probs, buckets, 100) / 100
        found = qnn._outputs(np.repeat(inputs[None], SEEDS, axis=0), weights, 100, np.arange(SEEDS))
        for bucket in range(output_dim):
            _assert_same_distribution(found[:, bucket], oracle[:, bucket])


def test_compute_uncompute_matches_per_shot_all_zeros_frequencies():
    feature_map, shots = zz_feature_map(2, 1), 50
    values_a, values_b = [0.3, -0.7], [1.2, 0.4]
    composed = feature_map.bind(values_a).compose(feature_map.bind(values_b).inverse())
    oracle = _oracle_counts(run(composed).probabilities(), np.array([0, 1, 1, 1]), shots)[:, 0] / shots
    found = [compute_uncompute(FidelityJob(feature_map, feature_map, values_a, values_b, shots, k))
             for k in range(SEEDS)]
    _assert_same_distribution(found, oracle)


def test_rejection_counts_match_per_shot_rejection():
    bn = BayesianNetwork((BayesNode("A", (), {"": 0.4}), BayesNode("B", ("A",), {"0": 0.2, "1": 0.7})))
    shots = 60
    # Evidence A = 1 (bit 0), target B = 1 (bit 1): class 0 hit, 1 consistent miss, 2 inconsistent.
    classes = np.array([2, 1, 2, 0])
    counts = _oracle_counts(run(compile_network(bn)).probabilities(), classes, shots)
    found = [rejection_inference(bn, Query("B", 1, {"A": 1}), shots, seed=k) for k in range(SEEDS)]
    accepted = counts[:, 0] + counts[:, 1]
    _assert_same_distribution([r.accepted for r in found], accepted)
    _assert_same_distribution([r.estimate for r in found], counts[:, 0] / accepted)
