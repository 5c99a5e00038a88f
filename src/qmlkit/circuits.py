"""Immutable parameterized circuits plus the library feature map and ansatz.

Gate angles are symbolic: a coefficient times a product of affine terms,
each term referencing one named parameter. That single form covers plain
rotations ``RY(w)``, scaled encodings ``RZ(2*x)``, and the pairwise data
products ``RZ(2*(pi - x_i)*(pi - x_j))`` used by the ZZ feature map, and it
binds in closed form. Circuits never mutate: ``append``, ``bind``,
``inverse``, and ``compose`` all return new values, so circuits are safe to
share across any number of concurrent evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CircuitError, ModelFormatError, _field, _numbers

ROTATION_KINDS = frozenset({"RX", "RY", "RZ", "CRY"})
GATE_KINDS = frozenset({"H", "X", "CX", "CZ"}) | ROTATION_KINDS


@dataclass(frozen=True, eq=False)
class Parameter:
    """Named circuit parameter with identity semantics.

    Two ``Parameter`` objects with the same name are distinct parameters
    unless they are the same object; circuits reject name collisions between
    distinct objects. A parameter's index is its position in the owning
    circuit's ``parameters`` tuple.
    """

    name: str

    def __repr__(self) -> str:
        return f"Parameter({self.name!r})"


@dataclass(frozen=True)
class AngleExpr:
    """Angle of the form ``coefficient * prod_k (offset_k + scale_k * param_k)``.

    An empty factor list is a constant angle equal to ``coefficient``.
    Evaluation is pure; permuting factors does not change the value.
    """

    coefficient: float
    factors: tuple[tuple[float, float, Parameter], ...] = ()

    @staticmethod
    def constant(value: float) -> "AngleExpr":
        return AngleExpr(float(value))

    @staticmethod
    def linear(param: Parameter, scale: float = 1.0) -> "AngleExpr":
        """The angle ``scale * param``."""
        return AngleExpr(1.0, ((0.0, float(scale), param),))

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        return tuple(p for _, _, p in self.factors)

    @property
    def is_constant(self) -> bool:
        return not self.factors

    def evaluate(self, values: Mapping[Parameter, float]) -> float:
        """The angle at ``values``; element-wise when they map to arrays of one shape."""
        angle = self.coefficient
        for offset, scale, param in self.factors:
            angle *= offset + scale * values[param]
        return angle

    def negated(self) -> "AngleExpr":
        return AngleExpr(-self.coefficient, self.factors)


def as_angle(angle: "AngleExpr | Parameter | float") -> AngleExpr:
    """Coerce a float, Parameter, or AngleExpr into an AngleExpr."""
    if isinstance(angle, AngleExpr):
        return angle
    if isinstance(angle, Parameter):
        return AngleExpr.linear(angle)
    return AngleExpr.constant(angle)


@dataclass(frozen=True)
class Gate:
    """One circuit operation.

    ``controls`` holds ``(qubit, required_bit)`` pairs and is nonempty only
    for CX, CZ, and the multi-controlled CRY. Rotation gates carry an angle;
    the rest must not.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    angle: AngleExpr | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != 1:
            raise CircuitError(f"{self.kind} expects exactly one target qubit")
        if (self.angle is not None) != (self.kind in ROTATION_KINDS):
            raise CircuitError(f"{self.kind} carries an angle iff it is a rotation gate")
        if self.kind in ("CX", "CZ") and len(self.controls) != 1:
            raise CircuitError(f"{self.kind} expects exactly one control qubit")
        if self.kind == "CRY" and not self.controls:
            raise CircuitError("CRY expects at least one control qubit")
        if self.kind in ("H", "X", "RX", "RY", "RZ") and self.controls:
            raise CircuitError(f"{self.kind} takes no control qubits")
        seen: set[int] = set()
        for q in self.targets + tuple(q for q, _ in self.controls):
            if q < 0:
                raise CircuitError(f"negative qubit index {q}")
            if q in seen:
                raise CircuitError(f"duplicate qubit index {q} in gate {self.kind}")
            seen.add(q)
        for _, bit in self.controls:
            if bit not in (0, 1):
                raise CircuitError(f"control bit must be 0 or 1, got {bit}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + tuple(q for q, _ in self.controls)

    # Constructors, so call sites read like circuit assembly.
    @staticmethod
    def h(qubit: int) -> "Gate":
        return Gate("H", (qubit,))

    @staticmethod
    def x(qubit: int) -> "Gate":
        return Gate("X", (qubit,))

    @staticmethod
    def rx(angle, qubit: int) -> "Gate":
        return Gate("RX", (qubit,), angle=as_angle(angle))

    @staticmethod
    def ry(angle, qubit: int) -> "Gate":
        return Gate("RY", (qubit,), angle=as_angle(angle))

    @staticmethod
    def rz(angle, qubit: int) -> "Gate":
        return Gate("RZ", (qubit,), angle=as_angle(angle))

    @staticmethod
    def cx(control: int, target: int) -> "Gate":
        return Gate("CX", (target,), ((control, 1),))

    @staticmethod
    def cz(control: int, target: int) -> "Gate":
        return Gate("CZ", (target,), ((control, 1),))

    @staticmethod
    def cry(angle, controls: Iterable[tuple[int, int]], target: int) -> "Gate":
        return Gate("CRY", (target,), tuple((int(q), int(v)) for q, v in controls), as_angle(angle))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``num_qubits`` qubits with named parameters.

    ``parameters`` lists every parameter referenced by some gate angle, in
    registration order (first appearance); ``bind`` vectors follow this
    order. Structural equality compares gates and parameter objects.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    parameters: tuple[Parameter, ...] = ()

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise CircuitError("num_qubits must be at least 1")
        for gate in self.gates:
            for q in gate.qubits:
                if q >= self.num_qubits:
                    raise CircuitError(
                        f"gate {gate.kind} uses qubit {q} outside width {self.num_qubits}"
                    )
        referenced = {id(p): p for g in self.gates if g.angle for p in g.angle.parameters}
        listed = {id(p): p for p in self.parameters}
        if referenced.keys() != listed.keys():
            raise CircuitError("circuit parameter list does not match referenced parameters")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise CircuitError("parameter names must be unique within one circuit")

    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    def append(self, gate: Gate) -> "Circuit":
        """New circuit with ``gate`` at the end; unseen parameters register in order."""
        return self.extend((gate,))

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """New circuit with ``gates`` at the end, built and validated once.

        Equal to appending the gates one by one, parameter order included.
        """
        gates = tuple(gates)
        params = _registered(
            self.parameters, (p for g in gates if g.angle for p in g.angle.parameters)
        )
        return Circuit(self.num_qubits, self.gates + gates, params)

    def bind(self, values: Sequence[float]) -> "Circuit":
        """Collapse every angle to a constant; the result has zero parameters."""
        gates = tuple(
            g if g.angle is None or g.angle.is_constant else replace(g, angle=AngleExpr.constant(a))
            for g, a in zip(self.gates, bound_angles(self, values))
        )
        return Circuit(self.num_qubits, gates, ())

    def bind_partial(self, values: Mapping[Parameter, float]) -> "Circuit":
        """Fold the given parameters into angle coefficients; the rest survive.

        Remaining parameters keep their relative order.
        """
        for p in values:
            if p not in self.parameters:
                raise CircuitError(f"parameter {p.name!r} is not in this circuit")
        gates = []
        for g in self.gates:
            if g.angle is None or not any(p in values for p in g.angle.parameters):
                gates.append(g)
                continue
            coeff = g.angle.coefficient
            factors = []
            for offset, scale, p in g.angle.factors:
                if p in values:
                    coeff *= offset + scale * values[p]
                else:
                    factors.append((offset, scale, p))
            gates.append(replace(g, angle=AngleExpr(coeff, tuple(factors))))
        remaining = tuple(p for p in self.parameters if p not in values)
        return Circuit(self.num_qubits, tuple(gates), remaining)

    def inverse(self) -> "Circuit":
        """Reverse the gate order and negate rotation angles.

        Composing a circuit with its inverse acts as the identity on every
        state. The parameter tuple keeps the original order so bind vectors
        stay interchangeable between a circuit and its inverse.
        """
        gates = tuple(
            replace(g, angle=g.angle.negated()) if g.angle is not None else g
            for g in reversed(self.gates)
        )
        return Circuit(self.num_qubits, gates, self.parameters)

    def compose(self, other: "Circuit") -> "Circuit":
        """Gates of self followed by gates of other; parameters concatenated self-first.

        A parameter object shared by both circuits stays a single parameter.
        Distinct objects with the same name are rejected.
        """
        if self.num_qubits != other.num_qubits:
            raise CircuitError(
                f"cannot compose widths {self.num_qubits} and {other.num_qubits}"
            )
        params = _registered(self.parameters, other.parameters)
        return Circuit(self.num_qubits, self.gates + other.gates, params)


def _registered(known: tuple[Parameter, ...], new: Iterable[Parameter]) -> tuple[Parameter, ...]:
    """``known`` followed by each parameter object of ``new`` not yet in it, in order.

    A new object whose name is already taken by another object is rejected.
    """
    params = {p.name: p for p in known}
    for p in new:
        if params.setdefault(p.name, p) is not p:
            raise CircuitError(f"parameter name {p.name!r} already used by another object")
    return tuple(params.values())


def bound_angles(circuit: Circuit, values) -> np.ndarray:
    """Each gate's rotation angle: ``(..., P)`` values, last axis ordered like
    ``circuit.parameters``, give ``(..., G)`` angles, one per gate.

    The one place angles are evaluated: gates without an angle get 0.0, and a
    non-finite angle, from the values or the circuit, raises ``CircuitError``."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (len(circuit.parameters),):
        raise CircuitError(f"expected {len(circuit.parameters)} values per row, got shape {values.shape}")
    env = dict(zip(circuit.parameters, np.moveaxis(values, -1, 0)))
    angles = np.zeros(values.shape[:-1] + (len(circuit.gates),))
    for k, g in enumerate(circuit.gates):
        if g.angle is not None:
            angles[..., k] = g.angle.evaluate(env)
    if not np.isfinite(angles).all():
        raise CircuitError("gate angles are not finite")
    return angles


def zz_feature_map(num_qubits: int, reps: int = 1) -> Circuit:
    """Data-encoding circuit: Hadamards, single-qubit phases, and pairwise ZZ phases.

    Each repetition applies H on every qubit, ``RZ(2*x_i)`` on qubit ``i``,
    then for every adjacent pair ``(i, i+1)`` the sandwich CX, RZ with angle
    ``2*(pi - x_i)*(pi - x_j)`` on the pair's second qubit, CX. The same
    ``num_qubits`` data parameters are reused across repetitions.
    """
    if num_qubits < 1 or reps < 1:
        raise CircuitError("zz_feature_map requires num_qubits >= 1 and reps >= 1")
    xs = [Parameter(f"x{i}") for i in range(num_qubits)]
    layer = [Gate.h(q) for q in range(num_qubits)]
    layer += [Gate.rz(AngleExpr(2.0, ((0.0, 1.0, xs[q]),)), q) for q in range(num_qubits)]
    for q in range(num_qubits - 1):
        pair_angle = AngleExpr(2.0, ((math.pi, -1.0, xs[q]), (math.pi, -1.0, xs[q + 1])))
        layer += [Gate.cx(q, q + 1), Gate.rz(pair_angle, q + 1), Gate.cx(q, q + 1)]
    return Circuit(num_qubits).extend(layer * reps)


def real_amplitudes_ansatz(num_qubits: int, reps: int = 1) -> Circuit:
    """Trainable circuit of RY layers separated by CX chains.

    An initial RY on every qubit, then ``reps`` blocks of a CX chain
    (``i -> i+1``) followed by a fresh RY layer. All ``num_qubits*(reps+1)``
    weights are distinct.
    """
    if num_qubits < 1 or reps < 1:
        raise CircuitError("real_amplitudes_ansatz requires num_qubits >= 1 and reps >= 1")
    weights = iter(Parameter(f"w{i}") for i in range(num_qubits * (reps + 1)))
    gates = [Gate.ry(next(weights), q) for q in range(num_qubits)]
    for _ in range(reps):
        gates += [Gate.cx(q, q + 1) for q in range(num_qubits - 1)]
        gates += [Gate.ry(next(weights), q) for q in range(num_qubits)]
    return Circuit(num_qubits).extend(gates)


def circuit_to_dict(circuit: Circuit) -> dict:
    """JSON-ready representation used for model persistence."""
    gates = []
    for g in circuit.gates:
        entry: dict = {
            "kind": g.kind,
            "targets": list(g.targets),
            "controls": [[q, v] for q, v in g.controls],
        }
        if g.angle is not None:
            entry["angle"] = {
                "coeff": g.angle.coefficient,
                "factors": [[off, scale, p.name] for off, scale, p in g.angle.factors],
            }
        gates.append(entry)
    return {
        "num_qubits": circuit.num_qubits,
        "gates": gates,
        "parameters": [p.name for p in circuit.parameters],
    }


def circuit_from_dict(data: dict, path: str = "circuit") -> Circuit:
    """Rebuild a circuit from ``circuit_to_dict`` output, validating as it goes."""
    names = _field(data, "parameters", list, path)
    if not all(type(n) is str for n in names):
        raise ModelFormatError(f"{path}.parameters", "expected a list of names")
    if len(set(names)) != len(names):
        raise ModelFormatError(f"{path}.parameters", "duplicate parameter names")
    params = {name: Parameter(name) for name in names}
    num_qubits = _numbers(_field(data, "num_qubits", object, path), f"{path}.num_qubits", 0, integers=True)
    try:
        circuit = Circuit(num_qubits)
    except CircuitError as exc:
        raise ModelFormatError(f"{path}.num_qubits", str(exc)) from exc
    gates = []
    for i, entry in enumerate(_field(data, "gates", list, path)):
        where = f"{path}.gates[{i}]"
        kind = _field(entry, "kind", str, where)
        try:
            angle = None
            if entry.get("angle") is not None:
                at, spec = f"{where}.angle", _field(entry, "angle", dict, where)
                factors = []
                for off, scale, name in spec.get("factors", []):
                    if name not in params:
                        raise ModelFormatError(at, f"unknown parameter {name!r}")
                    factors.append((*_numbers([off, scale], f"{at}.factors", 1), params[name]))
                angle = AngleExpr(_numbers(_field(spec, "coeff", object, at), f"{at}.coeff", 0), tuple(factors))
            controls = tuple((q, v) for q, v in _numbers(entry.get("controls", []), where, 2, integers=True))
            gate = Gate(kind, tuple(_numbers(_field(entry, "targets", object, where), where, 1, integers=True)),
                        controls, angle)
            if max(gate.qubits) >= num_qubits:  # extend() below would not name the gate
                raise CircuitError(f"gate {kind} uses qubit {max(gate.qubits)} outside width {num_qubits}")
        except ModelFormatError:
            raise
        except (CircuitError, TypeError, ValueError) as exc:
            raise ModelFormatError(where, str(exc)) from exc
        gates.append(gate)
    circuit = circuit.extend(gates)  # one build, so loading stays linear
    if [p.name for p in circuit.parameters] != names:
        raise ModelFormatError(f"{path}.parameters", "listed order differs from first appearance in the gates")
    return circuit
