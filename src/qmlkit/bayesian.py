"""Bayesian networks over binary variables, compiled to quantum circuits.

Each node becomes one qubit; every conditional probability row becomes one
controlled RY whose controls pin the parent assignment and whose angle
2*arcsin(sqrt(p)) puts amplitude sqrt(p) on the node's |1>. The circuit's
exact outcome distribution is then the network's joint distribution.
Queries read basis indices (node q is bit q) as sub-cubes that fix the
evidence (and target) bits, each summed entry by entry: exactly from a
CPT-product table of all 2^n joint probabilities, grown one node at a
time, or by rejection sampling: one multinomial draw of the compiled
circuit's hit, consistent-miss and inconsistent counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .circuits import Circuit, Gate, bound_angles
from .errors import CircuitError, ModelFormatError, NoSupportError, _field, _numbers
from .simulator import MAX_QUBITS, _check_shots, _owned_probabilities, derive_rng, run_ops


@dataclass(frozen=True)
class BayesNode:
    """One binary variable: name, parent names, and P(node=1 | parents).

    CPT keys are parent bitstrings in parent-list order; the root key is "".
    """

    name: str
    parents: tuple[str, ...] = ()
    cpt: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.parents)) != len(self.parents):
            raise CircuitError(f"node {self.name!r} lists a parent more than once")
        expected = {"".join(bits) for bits in itertools.product("01", repeat=len(self.parents))}
        if set(self.cpt) != expected:
            raise CircuitError(
                f"node {self.name!r} needs CPT entries for exactly the keys {sorted(expected)}"
            )
        for key, p in self.cpt.items():
            if not (0.0 <= p <= 1.0):
                raise CircuitError(f"node {self.name!r} CPT[{key!r}] = {p} outside [0, 1]")


@dataclass(frozen=True)
class BayesianNetwork:
    """Topologically ordered nodes; parents always refer to earlier nodes."""

    nodes: tuple[BayesNode, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise CircuitError("network needs at least one node")
        seen: set[str] = set()
        for node in self.nodes:
            if node.name in seen:
                raise CircuitError(f"duplicate node name {node.name!r}")
            for parent in node.parents:
                if parent not in seen:
                    raise CircuitError(
                        f"node {node.name!r} references {parent!r} before it is defined"
                    )
            seen.add(node.name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(node.name for node in self.nodes)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise CircuitError(f"unknown node {name!r}") from None


@dataclass(frozen=True)
class Query:
    """P(target = target_value | evidence), evidence possibly empty."""

    target: str
    target_value: int
    evidence: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.target in self.evidence:
            raise CircuitError(f"target {self.target!r} cannot also be evidence")
        for name, bit in self.assignment.items():
            if bit not in (0, 1):
                raise CircuitError(f"{name!r} must be queried as 0 or 1, got {bit}")

    @property
    def assignment(self) -> dict[str, int]:
        return {self.target: self.target_value, **self.evidence}


class RejectionResult(NamedTuple):
    estimate: float
    accepted: int


def compile_network(bn: BayesianNetwork) -> Circuit:
    """One qubit per node; one (controlled) RY per CPT row."""
    n = len(bn.nodes)
    if n > MAX_QUBITS:
        raise CircuitError(f"{n} nodes exceeds the simulator limit of {MAX_QUBITS} qubits")
    indices = {node.name: q for q, node in enumerate(bn.nodes)}
    gates = []
    for q, node in enumerate(bn.nodes):
        for bits in itertools.product("01", repeat=len(node.parents)):
            key = "".join(bits)
            angle = 2.0 * math.asin(math.sqrt(node.cpt[key]))
            if not node.parents:
                gates.append(Gate.ry(angle, q))
            else:
                controls = [(indices[p], int(b)) for p, b in zip(node.parents, bits)]
                gates.append(Gate.cry(angle, controls, q))
    return Circuit(n).extend(gates)


_ENUMERATION_LIMIT = 20


def _joint_table(bn: BayesianNetwork) -> np.ndarray:
    """P(assignment) at every basis index, node q on bit q as in the compiled circuit.

    Grown one node at a time in one 2^n buffer: the table over nodes 0..q-1 times
    node q's (1-p, p) at each entry's parent bits, broadcast over the table's axes
    (node j is axis q-1-j), fills the table over nodes 0..q. O(2^n) in all.
    """
    table = np.ones(1 << len(bn.nodes))
    for q, node in enumerate(bn.nodes):
        keys = ("".join(bits) for bits in itertools.product("01", repeat=len(node.parents)))
        p_one = np.array([node.cpt[key] for key in keys]).reshape((2,) * len(node.parents))
        axes = [q - 1 - bn.index_of(parent) for parent in node.parents]
        shape = [2 if axis in axes else 1 for axis in range(q)]
        p_one = p_one.transpose(np.argsort(axes)).reshape(shape)
        low, high = table[:1 << q].reshape((2,) * q), table[1 << q:2 << q].reshape((2,) * q)
        np.multiply(low, p_one, out=high)
        low *= 1.0 - p_one
    return table


def _cube(bn: BayesianNetwork, assignment: Mapping[str, int]) -> tuple:
    """Index of the (2,) * n view of a 2^n basis-index array (node q is axis n-1-q) that
    keeps the entries agreeing with ``assignment``: a sub-cube, in index order."""
    index = [slice(None)] * len(bn.nodes)
    for name, bit in assignment.items():
        index[len(bn.nodes) - 1 - bn.index_of(name)] = bit
    return tuple(index)


def _running_sum(values: np.ndarray) -> float:
    """The entries of ``values`` added one by one in C order; 0.0 for none."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def exact_inference(bn: BayesianNetwork, query: Query) -> float:
    """P(target = v | evidence) from the CPT-product table, without the simulator.

    The reference for rejection sampling, summing the same evidence (and
    assignment) sub-cubes of the table. Entries are added one by one, node 0's
    bit slowest: a fixed order, so the result is reproducible to the last bit.
    """
    if len(bn.nodes) > _ENUMERATION_LIMIT:
        raise CircuitError(
            f"{len(bn.nodes)} nodes exceeds the enumeration limit of {_ENUMERATION_LIMIT}"
        )
    consistent, hit = _cube(bn, query.evidence), _cube(bn, query.assignment)
    table = _joint_table(bn).reshape((2,) * len(bn.nodes))
    denominator = _running_sum(table[consistent].T)
    if denominator <= 0.0:
        raise NoSupportError(f"evidence {dict(query.evidence)!r} has zero probability")
    return _running_sum(table[hit].T) / denominator


def _class_sums(bn: BayesianNetwork, query: Query, probs: np.ndarray) -> np.ndarray:
    """The hit, consistent-miss and inconsistent sums of 2^n basis-index ``probs``, each
    added in index order: the hit and miss sub-cubes, and the entries outside the
    evidence sub-cube."""
    flipped = {**query.evidence, query.target: 1 - query.target_value}
    probs = probs.reshape((2,) * len(bn.nodes))
    inconsistent = np.ones(probs.shape, dtype=bool)
    inconsistent[_cube(bn, query.evidence)] = False
    cubes = [probs[_cube(bn, assignment)] for assignment in (query.assignment, flipped)]
    return np.array([_running_sum(values) for values in cubes + [probs[inconsistent]]])


def rejection_inference(
    bn: BayesianNetwork,
    query: Query,
    shots: int,
    seed: int | None = None,
) -> RejectionResult:
    """Sample the compiled circuit, discard evidence-inconsistent shots, estimate.

    The counts of hits, consistent misses and inconsistent shots are one
    multinomial draw from ``derive_rng(seed)`` over the ``_class_sums`` of
    the state's probabilities. Zero accepted shots raise NoSupportError.
    """
    shots = _check_shots(shots)
    circuit = compile_network(bn)
    probs = _owned_probabilities(run_ops(circuit.num_qubits, circuit.gates, bound_angles(circuit, ())))
    sums = _class_sums(bn, query, probs)
    hits, misses, _ = derive_rng(seed).multinomial(shots, sums / sums.sum()).tolist()
    accepted = hits + misses
    if accepted == 0:
        raise NoSupportError(
            f"no samples out of {shots} were consistent with evidence {dict(query.evidence)!r}"
        )
    return RejectionResult(hits / accepted, accepted)


# --- JSON interchange -----------------------------------------------------


def network_to_dict(bn: BayesianNetwork) -> dict:
    return {
        "nodes": [
            {"name": node.name, "parents": list(node.parents), "cpt": dict(node.cpt)}
            for node in bn.nodes
        ]
    }


def network_from_dict(data: dict) -> BayesianNetwork:
    nodes = []
    for i, entry in enumerate(_field(data, "nodes", list, "")):
        where = f"nodes[{i}]"
        name, parents = _field(entry, "name", str, where), entry.get("parents", [])
        if type(parents) is not list or not all(type(p) is str for p in parents):
            raise ModelFormatError(f"{where}.parents", "expected a list of names")
        cpt = {key: _numbers(p, f"{where}.cpt", 0) for key, p in _field(entry, "cpt", dict, where).items()}
        try:
            nodes.append(BayesNode(name, tuple(parents), cpt))
        except CircuitError as exc:
            raise ModelFormatError(where, str(exc)) from exc
    try:
        return BayesianNetwork(tuple(nodes))
    except CircuitError as exc:
        raise ModelFormatError("nodes", str(exc)) from exc
