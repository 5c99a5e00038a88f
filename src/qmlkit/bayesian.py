"""Bayesian networks over binary variables, compiled to quantum circuits.

Each node becomes one qubit; every conditional probability row becomes one
controlled RY whose controls pin the parent assignment and whose angle
2*arcsin(sqrt(p)) puts amplitude sqrt(p) on the node's |1>. The circuit's
exact outcome distribution is then the network's joint distribution.
Queries read basis indices (node q is bit q) through one evidence/target
predicate: exactly from a CPT-product table of all 2^n joint
probabilities, or by rejection sampling of the compiled circuit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .circuits import Circuit, Gate, bound_angles
from .errors import CircuitError, ModelFormatError, NoSupportError
from .simulator import MAX_QUBITS, _cdf, _draws, _probabilities, run_ops

_SAMPLE_BATCH = 4096


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

    Ones times each node's (1-p, p) table, broadcast over its own and its
    parents' axes: one 2^n array, O(n*2^n). Node q is axis n-1-q.
    """
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


def _matcher(bn: BayesianNetwork, assignment: Mapping[str, int]) -> Callable[[np.ndarray], np.ndarray]:
    """Predicate: which basis indices (node q on bit q) agree with ``assignment``."""
    mask = bits = 0
    for name, bit in assignment.items():
        q = bn.index_of(name)
        mask, bits = mask | 1 << q, bits | bit << q
    return lambda indices: (indices & mask) == bits


def exact_inference(bn: BayesianNetwork, query: Query) -> float:
    """P(target = v | evidence) from the CPT-product table, without the simulator.

    The reference for rejection sampling, selecting basis indices with the
    same predicate. Entries are added one by one, node 0's bit slowest: a
    fixed order, so the result is reproducible to the last bit.
    """
    if len(bn.nodes) > _ENUMERATION_LIMIT:
        raise CircuitError(
            f"{len(bn.nodes)} nodes exceeds the enumeration limit of {_ENUMERATION_LIMIT}"
        )
    consistent, hit = _matcher(bn, query.evidence), _matcher(bn, query.assignment)
    table = _joint_table(bn)
    indices = np.arange(table.size)

    def total(matches: Callable[[np.ndarray], np.ndarray]) -> float:
        kept = np.where(matches(indices), table, 0.0)
        return float(np.cumsum(kept.reshape((2,) * len(bn.nodes)).T)[-1])

    denominator = total(consistent)
    if denominator <= 0.0:
        raise NoSupportError(f"evidence {dict(query.evidence)!r} has zero probability")
    return total(hit) / denominator


def rejection_inference(
    bn: BayesianNetwork,
    query: Query,
    shots: int,
    seed: int | None = None,
) -> RejectionResult:
    """Sample the compiled circuit, discard evidence-inconsistent draws, estimate.

    Sampling happens in fixed batches with per-batch RNG streams, so the
    merged estimate is independent of how batches are scheduled. Zero
    accepted samples raise NoSupportError.
    """
    if shots < 1:
        raise CircuitError("shots must be a positive integer")
    consistent, hit = _matcher(bn, query.evidence), _matcher(bn, query.assignment)
    circuit = compile_network(bn)  # one CDF for every batch, from the circuit's real state
    cdf = _cdf(_probabilities(run_ops(circuit.num_qubits, circuit.gates, bound_angles(circuit, ()))))
    accepted = 0
    hits = 0
    for batch_index, start in enumerate(range(0, shots, _SAMPLE_BATCH)):
        outcomes = _draws(cdf, min(_SAMPLE_BATCH, shots - start), seed, batch_index)
        accepted += int(consistent(outcomes).sum())
        hits += int(hit(outcomes).sum())
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
    if not isinstance(data, dict) or "nodes" not in data:
        raise ModelFormatError("nodes", "missing field")
    if not isinstance(data["nodes"], list):
        raise ModelFormatError("nodes", "expected a list")
    nodes = []
    for i, entry in enumerate(data["nodes"]):
        where = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise ModelFormatError(where, "expected an object")
        if not isinstance(entry.get("parents", []), list):
            raise ModelFormatError(f"{where}.parents", "expected a list of names")
        if not isinstance(entry.get("cpt"), dict):
            raise ModelFormatError(f"{where}.cpt", "expected an object")
        try:
            nodes.append(
                BayesNode(
                    str(entry["name"]),
                    tuple(str(p) for p in entry.get("parents", [])),
                    {str(k): float(v) for k, v in entry["cpt"].items()},
                )
            )
        except (KeyError, TypeError, ValueError, CircuitError) as exc:
            raise ModelFormatError(where, str(exc)) from exc
    try:
        return BayesianNetwork(tuple(nodes))
    except CircuitError as exc:
        raise ModelFormatError("nodes", str(exc)) from exc
