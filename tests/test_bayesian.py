import itertools
import math

import numpy as np
import pytest

from qmlkit import (
    BayesianNetwork,
    BayesNode,
    CircuitError,
    ModelFormatError,
    NoSupportError,
    Query,
    compile_network,
    exact_inference,
    network_from_dict,
    network_to_dict,
    rejection_inference,
    run,
)
from qmlkit import bayesian, simulator

from .helpers import enumerate_joint, random_network


def chain_network() -> BayesianNetwork:
    return BayesianNetwork(
        (
            BayesNode("A", (), {"": 0.5}),
            BayesNode("B", ("A",), {"0": 0.2, "1": 0.9}),
        )
    )


def test_single_node_compilation():
    bn = BayesianNetwork((BayesNode("A", (), {"": 0.3}),))
    circuit = compile_network(bn)
    assert len(circuit.gates) == 1
    assert circuit.gates[0].kind == "RY"
    assert circuit.gates[0].angle.evaluate({}) == pytest.approx(2.0 * math.asin(math.sqrt(0.3)))
    probs = run(circuit).probabilities()
    assert probs[1] == pytest.approx(0.3, abs=1e-12)


def test_zero_probability_node():
    bn = BayesianNetwork((BayesNode("A", (), {"": 0.0}),))
    probs = run(compile_network(bn)).probabilities()
    assert probs[1] == 0.0


def test_chain_joint_probability():
    probs = run(compile_network(chain_network())).probabilities()
    assert probs[3] == pytest.approx(0.45, abs=1e-10)  # A=1 (bit 0), B=1 (bit 1)


def test_compiled_gate_count():
    rng = np.random.default_rng(103)
    for _ in range(10):
        bn = random_network(rng)
        expected = sum(2 ** len(node.parents) for node in bn.nodes)
        assert len(compile_network(bn).gates) == expected


def test_compiled_distribution_matches_enumeration():
    rng = np.random.default_rng(107)
    for _ in range(15):
        bn = random_network(rng)
        circuit_probs = run(compile_network(bn)).probabilities()
        assert np.allclose(circuit_probs, enumerate_joint(bn), atol=1e-10)


def test_exact_inference_no_evidence():
    bn = BayesianNetwork((BayesNode("A", (), {"": 0.3}),))
    assert exact_inference(bn, Query("A", 1)) == pytest.approx(0.3)


def test_exact_inference_direct_cpt_read():
    assert exact_inference(chain_network(), Query("B", 1, {"A": 1})) == pytest.approx(0.9)


def test_exact_inference_bayes_rule():
    value = exact_inference(chain_network(), Query("A", 1, {"B": 1}))
    assert value == pytest.approx(9.0 / 11.0, abs=1e-12)


def test_exact_inference_zero_support():
    bn = BayesianNetwork(
        (
            BayesNode("A", (), {"": 0.0}),
            BayesNode("B", ("A",), {"0": 0.5, "1": 0.5}),
        )
    )
    # No evidence is fine even when the queried value has zero mass.
    assert exact_inference(bn, Query("A", 1)) == 0.0
    with pytest.raises(NoSupportError):
        exact_inference(bn, Query("B", 1, {"A": 1}))


def test_rejection_single_node():
    bn = BayesianNetwork((BayesNode("A", (), {"": 0.3}),))
    estimate, accepted = rejection_inference(bn, Query("A", 1), shots=10000, seed=5)
    assert accepted == 10000
    assert abs(estimate - 0.3) < 0.02


def test_rejection_chain_with_evidence():
    estimate, accepted = rejection_inference(
        chain_network(), Query("B", 1, {"A": 1}), shots=20000, seed=8
    )
    assert abs(estimate - 0.9) < 0.02
    assert accepted < 20000  # evidence filters roughly half the draws


def test_rejection_acceptance_rate_tracks_evidence_mass():
    estimate, accepted = rejection_inference(
        chain_network(), Query("A", 1, {"B": 1}), shots=20000, seed=21
    )
    evidence_mass = 0.55
    sigma = math.sqrt(evidence_mass * (1 - evidence_mass) * 20000)
    assert abs(accepted - evidence_mass * 20000) < 3 * sigma
    assert abs(estimate - 9.0 / 11.0) < 0.02


def test_rejection_impossible_evidence():
    bn = BayesianNetwork(
        (
            BayesNode("A", (), {"": 0.0}),
            BayesNode("B", ("A",), {"0": 0.5, "1": 0.5}),
        )
    )
    with pytest.raises(NoSupportError):
        rejection_inference(bn, Query("B", 1, {"A": 1}), shots=2000, seed=0)


def test_rejection_deterministic_per_seed():
    a = rejection_inference(chain_network(), Query("B", 1, {"A": 0}), shots=7000, seed=9)
    b = rejection_inference(chain_network(), Query("B", 1, {"A": 0}), shots=7000, seed=9)
    assert a == b


def test_rejection_draws_one_multinomial_over_the_class_sums():
    # The state's hit, consistent-miss and inconsistent probabilities, each summed in index
    # order, give one multinomial draw from derive_rng(seed).
    from qmlkit import derive_rng

    bn = chain_network()
    query = Query("B", 1, {"A": 1})
    shots, seed = 10000, 33
    sums = np.zeros(3)
    for outcome, p in enumerate(run(compile_network(bn)).probabilities()):
        keep = (outcome & 0b01) == 0b01
        sums[0 if keep and (outcome >> 1) & 1 else 1 if keep else 2] += p
    hits, misses, _ = derive_rng(seed).multinomial(shots, sums / sums.sum())
    estimate, reported = rejection_inference(bn, query, shots=shots, seed=seed)
    assert reported == hits + misses
    assert estimate == hits / (hits + misses)


def test_rejection_converges_to_exact():
    rng = np.random.default_rng(109)
    bn = random_network(rng, max_nodes=3)
    query = Query(bn.nodes[-1].name, 1)
    exact = exact_inference(bn, query)
    errors = [
        abs(rejection_inference(bn, query, shots=20000, seed=s).estimate - exact)
        for s in range(10)
    ]
    assert np.median(errors) < 0.02


def test_network_validation():
    with pytest.raises(CircuitError):
        BayesNode("A", ("missing",), {"0": 0.5})  # incomplete CPT for one parent
    with pytest.raises(CircuitError):
        BayesNode("A", (), {"": 1.5})
    with pytest.raises(CircuitError):
        BayesianNetwork((BayesNode("A", ("B",), {"0": 0.1, "1": 0.2}),))
    with pytest.raises(CircuitError):
        Query("A", 1, {"A": 0})
    with pytest.raises(CircuitError):
        Query("A", 2)


def test_network_json_round_trip():
    bn = chain_network()
    rebuilt = network_from_dict(network_to_dict(bn))
    assert rebuilt == bn


def test_network_from_dict_errors():
    with pytest.raises(ModelFormatError):
        network_from_dict({})
    with pytest.raises(ModelFormatError):
        network_from_dict({"nodes": [{"name": "A", "cpt": {"": 2.0}}]})


def test_network_from_dict_rejects_non_list_parents_and_cpt():
    node = {"name": "B", "parents": "AB", "cpt": {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}}
    with pytest.raises(ModelFormatError) as info:
        network_from_dict({"nodes": [{"name": "A", "cpt": {"": 0.5}}, node]})
    assert info.value.field_path == "nodes[1].parents"
    with pytest.raises(ModelFormatError) as info:
        network_from_dict({"nodes": [{"name": "A", "cpt": [0.5]}]})
    assert info.value.field_path == "nodes[0].cpt"


def test_node_rejects_repeated_parent():
    with pytest.raises(CircuitError):
        BayesNode("B", ("A", "A"), {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4})


def _with_deterministic_entries(rng: np.random.Generator, bn: BayesianNetwork) -> BayesianNetwork:
    """Set about a third of the CPT entries to 0 or 1, so some evidence has zero mass."""
    nodes = []
    for node in bn.nodes:
        cpt = {
            key: float(rng.integers(2)) if rng.uniform() < 0.35 else p for key, p in node.cpt.items()
        }
        nodes.append(BayesNode(node.name, node.parents, cpt))
    return BayesianNetwork(tuple(nodes))


def test_exact_inference_matches_enumeration_oracle():
    rng = np.random.default_rng(211)
    unsupported = 0
    for _ in range(300):
        bn = _with_deterministic_entries(rng, random_network(rng, max_nodes=7))
        n = len(bn.nodes)
        target = int(rng.integers(n))
        value = int(rng.integers(2))
        others = [q for q in range(n) if q != target]
        chosen = rng.permutation(others)[: int(rng.integers(len(others) + 1))]
        evidence = {int(q): int(rng.integers(2)) for q in chosen}
        query = Query(bn.names[target], value, {bn.names[q]: bit for q, bit in evidence.items()})
        joint = enumerate_joint(bn)
        index = np.arange(2**n)
        consistent = np.ones(2**n, dtype=bool)
        for q, bit in evidence.items():
            consistent &= ((index >> q) & 1) == bit
        hit = consistent & (((index >> target) & 1) == value)
        if joint[consistent].sum() == 0.0:
            unsupported += 1
            with pytest.raises(NoSupportError):
                exact_inference(bn, query)
            continue
        expected = joint[hit].sum() / joint[consistent].sum()
        assert abs(exact_inference(bn, query) - expected) < 1e-12
    assert unsupported > 0


def test_exact_inference_refuses_more_than_twenty_nodes():
    bn = BayesianNetwork(tuple(BayesNode(f"n{i}", (), {"": 0.5}) for i in range(21)))
    with pytest.raises(CircuitError, match="enumeration limit"):
        exact_inference(bn, Query("n0", 1))


def test_rejection_inference_reads_the_real_state_as_its_complex_copy(monkeypatch):
    rng = np.random.default_rng(260)
    cases = []
    for n in (1, 2, 5, 9, 10, 14):  # the widest two run as fused blocks
        nodes = []
        for i in range(n):
            parents = tuple(f"n{j}" for j in range(max(0, i - 2), i))
            cpt = {"".join(bits): float(rng.uniform(0.1, 0.9)) for bits in itertools.product("01", repeat=len(parents))}
            nodes.append(BayesNode(f"n{i}", parents, cpt))
        evidence = {"n0": 1} if n > 1 else {}
        cases.append((BayesianNetwork(tuple(nodes)), Query(f"n{n - 1}", 1, evidence), int(rng.integers(100))))
    dtypes, native = [], simulator.run_ops

    def spy(*args):
        states = native(*args)
        dtypes.append(states.dtype)
        return states

    monkeypatch.setattr(bayesian, "run_ops", spy)
    results = [rejection_inference(bn, query, shots=3000, seed=seed) for bn, query, seed in cases]
    assert set(dtypes) == {np.dtype(np.float64)}
    # The same reader fed run()'s complex amplitudes.
    monkeypatch.setattr(bayesian, "run_ops", lambda *args: native(*args).astype(complex))
    for result, (bn, query, seed) in zip(results, cases):
        assert rejection_inference(bn, query, shots=3000, seed=seed) == result


# --- Bit-identity with the broadcast table and the bincount class sums ----------------


def _broadcast_table(bn: BayesianNetwork) -> np.ndarray:
    """The joint table as ones times each node's (1-p, p) table, broadcast over its own and
    its parents' axes of one (2,) * n array (node q is axis n-1-q): n passes over 2^n."""
    n = len(bn.nodes)
    table = np.ones((2,) * n)
    for q, node in enumerate(bn.nodes):
        keys = ("".join(bits) for bits in itertools.product("01", repeat=len(node.parents)))
        p_one = np.array([node.cpt[key] for key in keys])
        cpt = np.stack([1.0 - p_one, p_one], axis=-1).reshape((2,) * (len(node.parents) + 1))
        axes = [n - 1 - bn.index_of(parent) for parent in node.parents] + [n - 1 - q]
        shape = [2 if axis in axes else 1 for axis in range(n)]
        table *= cpt.transpose(np.argsort(axes)).reshape(shape)
    return table.reshape(-1)


def _matches(bn: BayesianNetwork, assignment, indices: np.ndarray) -> np.ndarray:
    mask = bits = 0
    for name, bit in assignment.items():
        q = bn.index_of(name)
        mask, bits = mask | 1 << q, bits | bit << q
    return (indices & mask) == bits


def _bincount_sums(bn: BayesianNetwork, query: Query, probs: np.ndarray) -> np.ndarray:
    """Hit, consistent-miss and inconsistent sums, each added in index order by ``bincount``."""
    indices = np.arange(probs.size)
    consistent, hit = _matches(bn, query.evidence, indices), _matches(bn, query.assignment, indices)
    return np.bincount(2 - consistent - hit, weights=probs, minlength=3)


def _where_exact(bn: BayesianNetwork, query: Query) -> float | None:
    """The hit over the consistent sum of the broadcast table, each a running sum over the whole
    table with zeros at the other entries, node 0 slowest; None for zero evidence mass."""
    table, n = _broadcast_table(bn), len(bn.nodes)
    indices = np.arange(table.size)
    consistent, hit = (
        float(np.cumsum(np.where(_matches(bn, a, indices), table, 0.0).reshape((2,) * n).T)[-1])
        for a in (query.evidence, query.assignment)
    )
    return hit / consistent if consistent > 0.0 else None


def _random_query(rng: np.random.Generator, bn: BayesianNetwork) -> Query:
    n = len(bn.nodes)
    target = int(rng.integers(n))
    others = [q for q in range(n) if q != target]
    chosen = rng.permutation(others)[: int(rng.integers(len(others) + 1))]
    return Query(bn.names[target], int(rng.integers(2)), {bn.names[q]: int(rng.integers(2)) for q in chosen})


def test_grown_table_and_sub_cube_sums_equal_the_broadcast_table_and_bincount_bit_for_bit():
    rng = np.random.default_rng(404)
    for _ in range(40):
        bn = _with_deterministic_entries(rng, random_network(rng, max_nodes=14))
        assert np.array_equal(bayesian._joint_table(bn), _broadcast_table(bn))
        probs = run(compile_network(bn)).probabilities()
        for _ in range(4):
            query = _random_query(rng, bn)
            sums, expected = bayesian._class_sums(bn, query, probs), _bincount_sums(bn, query, probs)
            assert [float(s).hex() for s in sums] == [float(s).hex() for s in expected]
            oracle = _where_exact(bn, query)
            if oracle is None:
                with pytest.raises(NoSupportError):
                    exact_inference(bn, query)
            else:
                assert float(exact_inference(bn, query)).hex() == oracle.hex()


def _wide_state_network(seed: int) -> BayesianNetwork:
    """The benchmark's 18-node wide_state network at ``seed``: the draws of its input writer,
    in order, then two parents for each node from N2 on and CPT entries in [0.1, 0.9]."""
    rng = np.random.default_rng(seed)
    rng.choice(20, 2, replace=False)
    rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
    rng.choice(17, 2, replace=False)
    rng.uniform(-np.pi, np.pi, 60), rng.uniform(-np.pi, np.pi, 14), rng.uniform(-np.pi, np.pi, 28)
    rng.integers(2), rng.integers(2)
    nodes = []
    for k in range(18):
        parents = [] if k < 2 else sorted(rng.choice(k, 2, replace=False).tolist())
        keys = [format(i, "02b") if parents else "" for i in range(2 ** len(parents))]
        cpt = {key: float(rng.uniform(0.1, 0.9)) for key in keys}
        nodes.append(BayesNode(f"N{k}", tuple(f"N{p}" for p in parents), cpt))
    return BayesianNetwork(tuple(nodes))


@pytest.mark.parametrize("seed, expected", [
    (0, ["0x1.6896ee26f3b02p-2", "0x1.1f17989d40ef8p-1", "0x1.35acfe31b7cd9p-1"]),
    (1, ["0x1.356b10c6d0248p-1", "0x1.fbe176d08d7f2p-2", "0x1.b377674da7327p-2"]),
    (2, ["0x1.f3e7fd981b6bep-2", "0x1.803ae5f619dedp-2", "0x1.f3586f8c5244ep-2"]),
])
def test_exact_inference_on_the_wide_state_network_keeps_its_bits(seed, expected):
    # No evidence; evidence on N0; the last node as the target.
    queries = [Query("N9", 1), Query("N3", 1, {"N0": 0, "N12": 1}), Query("N17", 1, {"N4": 1, "N10": 0})]
    bn = _wide_state_network(seed)
    assert [float(exact_inference(bn, query)).hex() for query in queries] == expected
