"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
the SVM dual oracle is projected gradient ascent on the boxed dual, and
the Bayesian oracle enumerates CPT products directly.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np

from qmlkit import AngleExpr, BayesianNetwork, BayesNode, Circuit, Gate, Parameter, PauliObservable


def random_supported_circuit(
    rng: np.random.Generator,
    num_qubits: int | None = None,
    max_qubits: int = 3,
    max_params: int = 6,
    max_gates: int = 10,
    general_angles: bool = False,
    cry: bool = False,
) -> tuple[Circuit, np.ndarray]:
    """Random circuit whose every parameter occurrence is shift-differentiable.

    Parameters may repeat across gates (multi-occurrence product rule) and
    enter with either sign. With ``general_angles`` a parameterised angle may
    also be scaled, offset, or a product of two factors (of two parameters or
    of one parameter twice); without it the draws are those of the unit
    angles alone. With ``cry`` the gates of two or more qubits also include
    CRY gates with one or more controls, each 0- or 1-valued, whose angles are
    drawn as the other rotations' are (the four-term rule); without it the
    draws are those of the other gates alone.
    """
    n = int(rng.integers(1, max_qubits + 1)) if num_qubits is None else num_qubits
    num_gates = int(rng.integers(3, max_gates + 1))
    circuit = Circuit(n)
    params: list[Parameter] = []
    kinds = ["H", "X", "RX", "RY", "RZ"]
    if n > 1:
        kinds += ["CX", "CZ"] + (["CRY"] if cry else [])
    for _ in range(num_gates):
        kind = str(rng.choice(kinds))
        if kind in ("H", "X"):
            circuit = circuit.append(Gate(kind, (int(rng.integers(n)),)))
            continue
        if kind in ("CX", "CZ"):
            control, target = rng.choice(n, size=2, replace=False)
            circuit = circuit.append(Gate(kind, (int(target),), ((int(control), 1),)))
            continue
        roll = rng.uniform()
        if roll < 0.2 or (roll < 0.6 and len(params) >= max_params):
            angle = AngleExpr.constant(float(rng.uniform(-np.pi, np.pi)))
        else:
            if params and (roll < 0.6 or len(params) >= max_params):
                p = params[int(rng.integers(len(params)))]
            else:
                p = Parameter(f"p{len(params)}")
                params.append(p)
            sign = -1.0 if rng.uniform() < 0.5 else 1.0
            if rng.uniform() < 0.5:
                angle = AngleExpr(sign, ((0.0, 1.0, p),))
            else:
                angle = AngleExpr(1.0, ((0.0, sign, p),))
            if general_angles:
                others = [q for q in params if q is not p] or [p]
                angle = _general_angle(rng, angle, p, others[int(rng.integers(len(others)))])
        if kind == "CRY":
            *controls, target = rng.choice(n, size=int(rng.integers(1, n)) + 1, replace=False)
            circuit = circuit.append(Gate.cry(angle, [(int(q), int(rng.integers(2))) for q in controls], int(target)))
        else:
            circuit = circuit.append(Gate(kind, (int(rng.integers(n)),), angle=angle))
    if not circuit.parameters:
        p = Parameter("p0")
        circuit = circuit.append(Gate.ry(p, int(rng.integers(n))))
    values = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
    return circuit, values


def _general_angle(rng: np.random.Generator, unit: AngleExpr, p: Parameter, q: Parameter) -> AngleExpr:
    """``unit``, or a scaled, offset, or two-factor angle of ``p`` (times ``q``, or ``p`` again)."""

    def factor(param: Parameter) -> tuple[float, float, Parameter]:
        return float(rng.uniform(-1.0, 1.0)), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)), param

    coefficient = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    form = int(rng.integers(5))
    if form == 0:
        return unit
    if form == 1:  # scaled, no offset
        return AngleExpr(coefficient, ((0.0, float(rng.uniform(0.5, 2.0)), p),))
    if form == 2:  # offset and scaled
        return AngleExpr(coefficient, (factor(p),))
    return AngleExpr(coefficient, (factor(p), factor(q if form == 3 else p)))


def random_bound_circuit(rng: np.random.Generator, num_qubits: int, max_gates: int = 12) -> Circuit:
    """Random parameterless circuit over the full gate set, CRY included."""
    circuit = Circuit(num_qubits)
    kinds = ["H", "X", "RX", "RY", "RZ"]
    if num_qubits > 1:
        kinds += ["CX", "CZ", "CRY"]
    for _ in range(int(rng.integers(3, max_gates + 1))):
        kind = str(rng.choice(kinds))
        angle = float(rng.uniform(-np.pi, np.pi))
        if kind in ("H", "X"):
            circuit = circuit.append(Gate(kind, (int(rng.integers(num_qubits)),)))
        elif kind in ("RX", "RY", "RZ"):
            circuit = circuit.append(Gate(kind, (int(rng.integers(num_qubits)),), angle=AngleExpr.constant(angle)))
        elif kind == "CRY":
            count = int(rng.integers(1, num_qubits))
            chosen = rng.choice(num_qubits, size=count + 1, replace=False)
            controls = [(int(q), int(rng.integers(2))) for q in chosen[:-1]]
            circuit = circuit.append(Gate.cry(angle, controls, int(chosen[-1])))
        else:
            control, target = rng.choice(num_qubits, size=2, replace=False)
            circuit = circuit.append(Gate(kind, (int(target),), ((int(control), 1),)))
    return circuit


def random_observable(
    rng: np.random.Generator, num_qubits: int, alphabet: str = "IZX", max_terms: int = 2
) -> PauliObservable:
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        while True:
            string = "".join(rng.choice(list(alphabet), size=num_qubits))
            if any(ch != "I" for ch in string):
                break
        coeff = float(rng.uniform(0.2, 1.0)) * (-1.0 if rng.uniform() < 0.5 else 1.0)
        terms.append((coeff, string))
    return PauliObservable(tuple(terms))


def training_functions(monkeypatch, fit, *args, **kwargs):
    """The (objective, gradient, start) a variational ``fit`` hands its optimizer.

    ``qmlkit.models.minimize`` is replaced by a stub that records them and
    returns the start unchanged, so no training step runs.
    """
    from qmlkit import models

    captured = []

    def record(objective, gradient, initial, config):
        captured.append((objective, gradient, initial))
        return SimpleNamespace(best_point=initial, history=[])

    monkeypatch.setattr(models, "minimize", record)
    fit(*args, **kwargs)
    return captured[0]


# --- SVM dual oracle -------------------------------------------------------


def svm_dual_objective(alpha: np.ndarray, K: np.ndarray, y: np.ndarray) -> float:
    """Soft-margin dual value sum(a) - 0.5 a'(yy'*K)a."""
    Q = K * np.outer(y, y)
    return float(alpha.sum() - 0.5 * alpha @ (Q @ alpha))


def project_dual_feasible(points: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= C, y.a = 0} of each row alpha of ``points``.

    Solves y @ clip(alpha - mu*y, 0, C) = 0 for mu; the left side is
    piecewise linear and nonincreasing in mu, so evaluating it at every
    clip breakpoint and interpolating inside the crossing segment is exact.
    A repeated breakpoint cannot start the crossing segment, so the sorted
    breakpoints need no deduplication.
    """
    breakpoints = np.sort(np.concatenate(
        [points[:, y > 0] - C, points[:, y > 0], -points[:, y < 0], C - points[:, y < 0]], axis=1), axis=1)
    values = np.clip(points[:, None, :] - breakpoints[:, :, None] * y, 0.0, C) @ y
    crossed = values <= 0.0
    mu = np.where(crossed.any(axis=1), breakpoints[:, 0], breakpoints[:, -1])
    for row in np.flatnonzero(crossed.any(axis=1) & ~crossed[:, 0]):
        k = int(crossed[row].argmax())
        left, right = values[row, k - 1], values[row, k]
        span = breakpoints[row, k] - breakpoints[row, k - 1]
        mu[row] = breakpoints[row, k - 1] + span * left / (left - right)
    return np.clip(points - mu[:, None] * y, 0.0, C)


def brute_force_svm_dual(
    K: np.ndarray, y: np.ndarray, C: float, iterations: int = 4000
) -> tuple[np.ndarray, float]:
    """Global dual maximum by projected gradient ascent from several starts.

    The dual is concave, so any feasible start converges; multiple starts
    are insurance against slow faces of the box. The starts ascend together,
    as the rows of one stack.
    """
    Q = K * np.outer(y, y)
    lipschitz = float(np.linalg.norm(Q, 2)) + 1e-9
    step = 1.0 / lipschitz
    m = len(y)
    alphas = project_dual_feasible(np.stack([np.zeros(m), np.full(m, C / 2.0), np.full(m, C)]), y, C)
    for _ in range(iterations):
        gradients = 1.0 - alphas @ Q
        alphas = project_dual_feasible(alphas + step * gradients, y, C)
    best_alpha, best_value = None, -np.inf
    for alpha in alphas:
        value = svm_dual_objective(alpha, K, y)
        if value > best_value:
            best_alpha, best_value = alpha, value
    return best_alpha, best_value


def svm_bias_from_alpha(alpha: np.ndarray, K: np.ndarray, y: np.ndarray, C: float) -> float:
    """Textbook bias: average over unbounded support vectors, KKT midpoint fallback."""
    decision = (alpha * y) @ K
    unbounded = (alpha > 1e-6 * C) & (alpha < C * (1.0 - 1e-6))
    if unbounded.any():
        return float(np.mean(y[unbounded] - decision[unbounded]))
    grad = (K * np.outer(y, y)) @ alpha - 1.0
    score = -y * grad
    up = ((y > 0) & (alpha < C - 1e-9)) | ((y < 0) & (alpha > 1e-9))
    low = ((y > 0) & (alpha > 1e-9)) | ((y < 0) & (alpha < C - 1e-9))
    if not (up.any() and low.any()):
        return 0.0
    return float((np.max(score[up]) + np.min(score[low])) / 2.0)


# --- Bayesian network oracle ----------------------------------------------


def random_network(rng: np.random.Generator, max_nodes: int = 4) -> BayesianNetwork:
    n = int(rng.integers(1, max_nodes + 1))
    nodes = []
    for i in range(n):
        fan_in = int(rng.integers(0, min(i, 3) + 1))
        parents = tuple(
            f"n{j}" for j in sorted(rng.choice(i, size=fan_in, replace=False))
        )
        cpt = {
            "".join(bits): float(rng.uniform())
            for bits in itertools.product("01", repeat=fan_in)
        }
        nodes.append(BayesNode(f"n{i}", parents, cpt))
    return BayesianNetwork(tuple(nodes))


def enumerate_joint(bn: BayesianNetwork) -> np.ndarray:
    """CPT-product joint over all assignments, indexed little-endian by node order."""
    n = len(bn.nodes)
    position = {node.name: q for q, node in enumerate(bn.nodes)}
    joint = np.zeros(2**n)
    for index in range(2**n):
        bits = [(index >> q) & 1 for q in range(n)]
        p = 1.0
        for q, node in enumerate(bn.nodes):
            key = "".join(str(bits[position[parent]]) for parent in node.parents)
            p_one = node.cpt[key]
            p *= p_one if bits[q] else 1.0 - p_one
        joint[index] = p
    return joint


# --- Dense unitary oracle --------------------------------------------------

_PROJECTORS = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def _dense_target_matrix(kind: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    return {
        "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
        "X": x,
        "CX": x,
        "CZ": np.diag([1.0, -1.0]).astype(complex),
        "RX": np.array([[c, -1j * s], [-1j * s, c]]),
        "RY": ry,
        "CRY": ry,
        "RZ": np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)]),
    }[kind]


def _kron_qubits(factors: list[np.ndarray]) -> np.ndarray:
    """Kronecker product with qubit 0 as the least significant factor."""
    out = np.ones((1, 1), dtype=complex)
    for factor in reversed(factors):
        out = np.kron(out, factor)
    return out


def dense_gate_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of a constant-angle gate, built from projectors.

    With P the projector of the control qubits onto their required bits,
    the gate is P (x) U_target + (1 - P): it acts only where every control
    matches, for required bits 0 and 1 and any number of controls.
    """
    assert gate.angle is None or gate.angle.is_constant
    angle = 0.0 if gate.angle is None else gate.angle.coefficient
    active = [np.eye(2, dtype=complex) for _ in range(num_qubits)]
    projector = [np.eye(2, dtype=complex) for _ in range(num_qubits)]
    for q, bit in gate.controls:
        active[q] = projector[q] = _PROJECTORS[bit]
    active[gate.targets[0]] = _dense_target_matrix(gate.kind, angle)
    return _kron_qubits(active) + np.eye(2**num_qubits) - _kron_qubits(projector)


def dense_state(circuit: Circuit) -> np.ndarray:
    """Output amplitudes of a bound circuit by dense matrix-vector products."""
    state = np.zeros(2**circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        state = dense_gate_unitary(gate, circuit.num_qubits) @ state
    return state


_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def dense_expectation(amplitudes: np.ndarray, observable) -> float:
    """<psi|O|psi> with each Pauli string built as a dense Kronecker product."""
    total = 0.0
    for coeff, string in observable.terms:
        matrix = _kron_qubits([_PAULI_MATRICES[ch] for ch in string])
        total += coeff * np.vdot(amplitudes, matrix @ amplitudes).real
    return total


def axis_expectation(amplitudes: np.ndarray, observable) -> float:
    """<psi|O|psi> with each Pauli factor applied as a 2x2 matrix along its own axis of the
    ``(2,) * n`` amplitude tensor (qubit q is axis n - 1 - q), then one ``np.vdot``: no 2^n x 2^n
    matrix, so it reaches past the 12 qubits of ``dense_expectation``."""
    n, total = observable.num_qubits, 0.0
    for coeff, string in observable.terms:
        image = np.asarray(amplitudes, dtype=complex).reshape((2,) * n)
        for q, ch in enumerate(string):
            if ch != "I":
                image = np.moveaxis(np.tensordot(_PAULI_MATRICES[ch], image, ([1], [n - 1 - q])), 0, n - 1 - q)
        total += coeff * np.vdot(amplitudes, image.reshape(-1)).real
    return total
