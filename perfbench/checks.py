"""Output checks against oracles that never call qmlkit's simulator.

The oracles rebuild the documented circuits from their definitions (little-
endian: qubit 0 is the least significant bit of a basis index) and simulate
them with numpy: dense ``np.kron`` unitaries for the 4-qubit kernel states,
and a statevector routine on reshaped amplitude arrays for the rest. Each check returns a list of
``(stage, message)`` failures; an empty list means the outputs are correct.

Shot-mode outputs must lie within 5 sigma of the exact values. Sigma comes
from the binomial variance of the estimate; near probabilities 0 and 1 the
Bernstein form of the bound adds a term for skew, so a correct sampler fails
a check with probability below about 1e-6 per output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import inputs

Z_SIGMA = 5.0
EXACT_TOL = 1e-10
PSD_TOL = 1e-8
FD_TOL = 1e-4
FD_STEP = 1e-5

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


# --- circuits as gate lists: ("1q", qubit, 2x2) or ("cx", control, target) ---


def zz_gates(x, reps: int) -> list:
    n = len(x)
    gates = []
    for _ in range(reps):
        gates += [("1q", q, _H) for q in range(n)]
        gates += [("1q", q, _rz(2.0 * x[q])) for q in range(n)]
        for q in range(n - 1):
            angle = 2.0 * (math.pi - x[q]) * (math.pi - x[q + 1])
            gates += [("cx", q, q + 1), ("1q", q + 1, _rz(angle)), ("cx", q, q + 1)]
    return gates


def ansatz_gates(n: int, reps: int, weights) -> list:
    weights = list(weights)
    gates = [("1q", q, _ry(weights[q])) for q in range(n)]
    for r in range(reps):
        gates += [("cx", q, q + 1) for q in range(n - 1)]
        gates += [("1q", q, _ry(weights[(r + 1) * n + q])) for q in range(n)]
    return gates


def _kron_all(factors) -> np.ndarray:
    """Kronecker product with qubit 0 as the last (least significant) factor."""
    out = np.eye(1)
    for factor in reversed(factors):
        out = np.kron(out, factor)
    return out


def dense_state(n: int, gates) -> np.ndarray:
    """Final state of ``gates`` on |0..0>, each gate expanded to a 2^n x 2^n matrix by np.kron."""
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    eye = np.eye(2)
    for kind, a, b in gates:
        if kind == "1q":
            state = _kron_all([b if q == a else eye for q in range(n)]) @ state
        else:
            off = _kron_all([_P0 if q == a else eye for q in range(n)])
            on = _kron_all([_P1 if q == a else (_X if q == b else eye) for q in range(n)])
            state = (off + on) @ state
    return state


def vector_state(n: int, gates, batch: int = 1) -> np.ndarray:
    """Final states of ``batch`` circuits on |0..0>, shape (batch, 2^n), gates acting on reshaped amplitudes.

    A one-qubit gate's matrix is either shared, shape (2, 2), or one per
    circuit, shape (batch, 2, 2); see ``stack_gates``.
    """
    state = np.zeros((batch, 2**n), dtype=complex)
    state[:, 0] = 1.0
    index = np.arange(2**n)
    for kind, a, b in gates:
        if kind == "1q":
            view = state.reshape(batch, -1, 2, 2**a)
            state = np.einsum("zij,zajb->zaib", np.broadcast_to(b, (batch, 2, 2)), view).reshape(batch, -1)
        else:
            on = index[(index >> a) & 1 == 1]
            state = state.copy()
            state[:, on] = state[:, on ^ (1 << b)]
    return state


def stack_gates(gate_lists: list) -> list:
    """Merge same-shaped gate lists of several circuits into one list for ``vector_state``."""
    merged = []
    for gates in zip(*gate_lists):
        kind, a, b = gates[0]
        merged.append((kind, a, np.array([g[2] for g in gates]) if kind == "1q" else b))
    return merged


# --- statistics ---


def shot_bound(variance: float, max_step: float, z: float = Z_SIGMA) -> float:
    """Deviation t with Bernstein tail 2 exp(-t^2 / (2 (variance + max_step t / 3))) = 2 exp(-z^2 / 2).

    ``variance`` is that of the estimate and ``max_step`` the largest change
    one shot can make to it; for max_step -> 0 this is z sigma.
    """
    skew = z * z * max_step / 3.0
    return (skew + math.sqrt(skew * skew + 4.0 * z * z * variance)) / 2.0


# --- file helpers ---


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, rows = _read_rows(path)
    data = np.array([[float(v) for v in row] for row in rows])
    return data[:, :-1], data[:, -1]


def _stdout_json(stage: dict) -> dict:
    return json.loads(stage["stdout"].strip().splitlines()[-1])


def _predictions(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, rows = _read_rows(path)
    return np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


def _failing(stage: str, fn) -> list:
    """Run one stage's check; a malformed or missing output is a failure of that stage."""
    try:
        return [(stage, message) for message in fn()]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [(stage, f"unreadable output: {type(exc).__name__}: {exc}")]


# --- workloads ---


def kernel_svm(workdir: Path, stages: dict) -> list:
    x_train, y_train = _dataset(workdir / "train.csv")
    x_test, y_test = _dataset(workdir / "test.csv")
    train_states = np.array([dense_state(4, zz_gates(x, 2)) for x in x_train])
    test_states = np.array([dense_state(4, zz_gates(x, 2)) for x in x_test])
    oracle_gram = np.abs(train_states.conj() @ train_states.T) ** 2

    def gram() -> list:
        _, rows = _read_rows(workdir / "gram.csv")
        K = np.array([[float(v) for v in row] for row in rows])
        out = []
        if K.shape != oracle_gram.shape:
            return [f"Gram shape {K.shape}, expected {oracle_gram.shape}"]
        if not np.array_equal(K, K.T):
            out.append("Gram matrix is not symmetric")
        if not np.array_equal(np.diag(K), np.ones(len(K))):
            out.append("Gram diagonal is not exactly 1")
        if np.linalg.eigvalsh(K).min() < -PSD_TOL:
            out.append(f"Gram minimum eigenvalue {np.linalg.eigvalsh(K).min():.3e} < -{PSD_TOL}")
        error = np.max(np.abs(K - oracle_gram))
        if error > EXACT_TOL:
            out.append(f"Gram differs from the np.kron oracle by {error:.3e}")
        return out

    model = json.loads((workdir / "model.json").read_text(encoding="utf-8"))
    weights = np.array(model["alphas"]) * np.array(model["support_labels"])
    support = np.array([dense_state(4, zz_gates(x, 2)) for x in np.array(model["support_data"])])
    cross = np.abs(support.conj() @ test_states.T) ** 2
    decisions = weights @ cross + model["bias"]

    def train() -> list:
        reported = _stdout_json(stages["train"])["train_accuracy"]
        train_cross = np.abs(support.conj() @ train_states.T) ** 2
        expected = float(np.mean(np.where(weights @ train_cross + model["bias"] > 0, 1.0, -1.0) == y_train))
        return [] if reported == expected else [f"train_accuracy {reported} != oracle {expected}"]

    def predict() -> list:
        labels, values = _predictions(workdir / "predict.csv")
        out = []
        error = np.max(np.abs(values - decisions))
        if error > 1e-9:
            out.append(f"exact decisions differ from the oracle by {error:.3e}")
        if not np.array_equal(labels, np.where(decisions > 0, 1.0, -1.0)):
            out.append("predicted labels disagree with the oracle decisions")
        accuracy = float(np.mean(labels == y_test))
        if _stdout_json(stages["predict"])["accuracy"] != accuracy:
            out.append("reported accuracy disagrees with the written predictions")
        return out

    def predict_shots() -> list:
        _, values = _predictions(workdir / "predict_shots.csv")
        shots = inputs.SHOTS
        variance = (weights**2) @ (cross * (1.0 - cross)) / shots
        bounds = np.array([shot_bound(v, np.max(np.abs(weights)) / shots) for v in variance])
        worst = np.max(np.abs(values - decisions) - bounds)
        return [] if worst <= 0 else [f"shot decisions exceed the 5-sigma bound by {worst:.3e}"]

    return (_failing("kernel", gram) + _failing("train", train)
            + _failing("predict", predict) + _failing("predict_shots", predict_shots))


def vqc_train(workdir: Path, stages: dict) -> list:
    model = json.loads((workdir / "model.json").read_text(encoding="utf-8"))
    weights = model["weights"]
    odd = np.array([bin(i).count("1") % 2 for i in range(4)]) == 1

    def p_odd(features: np.ndarray) -> np.ndarray:
        gates = stack_gates([zz_gates(x, 2) + ansatz_gates(2, 2, weights) for x in features])
        return np.sum(np.abs(vector_state(2, gates, len(features))[:, odd]) ** 2, axis=1)

    x_train, y_train = _dataset(workdir / "train.csv")
    x_test, _ = _dataset(workdir / "test.csv")
    exact = p_odd(x_test)

    def train() -> list:
        reported = _stdout_json(stages["train"])
        expected = float(np.mean(np.where(p_odd(x_train) > 0.5, 1.0, -1.0) == y_train))
        out = [] if reported["train_accuracy"] == expected else [
            f"train_accuracy {reported['train_accuracy']} != oracle {expected}"]
        if reported["iterations"] != 100:
            out.append(f"ran {reported['iterations']} iterations, expected 100")
        return out

    def predict() -> list:
        _, values = _predictions(workdir / "predict.csv")
        error = np.max(np.abs(values - exact))
        return [] if error <= EXACT_TOL else [f"exact probabilities differ from the oracle by {error:.3e}"]

    def predict_shots() -> list:
        _, values = _predictions(workdir / "predict_shots.csv")
        shots = inputs.SHOTS
        bounds = np.array([shot_bound(p * (1.0 - p) / shots, 1.0 / shots) for p in exact])
        worst = np.max(np.abs(values - exact) - bounds)
        return [] if worst <= 0 else [f"shot probabilities exceed the 5-sigma bound by {worst:.3e}"]

    return _failing("train", train) + _failing("predict", predict) + _failing("predict_shots", predict_shots)


def _parities(n: int, string: str) -> np.ndarray:
    index = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for q, ch in enumerate(string):
        if ch != "I":
            parity ^= (index >> q) & 1
    return 1.0 - 2.0 * parity


def _pauli_expectation(state: np.ndarray, string: str) -> float:
    """<state|P|state> for a string of I, X and Z."""
    n = len(string)
    flip = sum(1 << q for q, ch in enumerate(string) if ch == "X")
    zs = "".join("Z" if ch == "Z" else "I" for ch in string)
    flipped = state[np.arange(2**n) ^ flip]
    return float(np.real(np.vdot(state, _parities(n, zs) * flipped)))


def bayes_exact(network: dict, target: str, value: int, evidence: dict) -> float:
    """P(target = value | evidence) from the product of CPT entries over all assignments."""
    names = [node["name"] for node in network["nodes"]]
    n = len(names)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    joint = np.ones(2**n)
    for k, node in enumerate(network["nodes"]):
        parents = [names.index(p) for p in node["parents"]]
        key = np.zeros(2**n, dtype=np.int64)
        for p in parents:
            key = 2 * key + bits[:, p]
        table = np.array([node["cpt"][format(i, f"0{len(parents)}b") if parents else ""]
                          for i in range(2 ** len(parents))])
        p_one = table[key]
        joint *= np.where(bits[:, k] == 1, p_one, 1.0 - p_one)
    keep = np.ones(2**n, dtype=bool)
    for name, bit in evidence.items():
        keep &= bits[:, names.index(name)] == bit
    return float(joint[keep & (bits[:, names.index(target)] == value)].sum() / joint[keep].sum())


def wide_state(workdir: Path, stages: dict) -> list:
    spec = json.loads((workdir / "wide.json").read_text(encoding="utf-8"))

    def estimate() -> list:
        result = stages["estimate"]["result"]
        n = inputs.WIDE_QUBITS
        state = vector_state(n, ansatz_gates(n, inputs.WIDE_REPS, spec["weights"]))[0]
        values = [_pauli_expectation(state, s) for _, s in spec["terms"]]
        coeffs = [c for c, _ in spec["terms"]]
        exact = float(np.dot(coeffs, values))
        out = []
        if abs(result["exact"] - exact) > EXACT_TOL:
            out.append(f"exact estimate {result['exact']} != oracle {exact}")
        shots = inputs.WIDE_SHOTS
        variance = sum(c * c * (1.0 - v * v) for c, v in zip(coeffs, values)) / shots
        if abs(result["shots"] - exact) > shot_bound(variance, 2.0 * max(map(abs, coeffs)) / shots):
            out.append(f"shot estimate {result['shots']} is beyond 5 sigma of {exact}")
        probs = result["sampler"]
        counts = np.array([p * shots for p in probs.values()])
        if not np.allclose(counts, np.round(counts), atol=1e-6) or round(counts.sum()) != shots:
            out.append("sampler frequencies are not counts out of the shot total")
        parity_z = values[0]  # the first term is Z on every qubit
        sampled = sum(p * (1.0 - 2.0 * (bits.count("1") % 2)) for bits, p in probs.items())
        if abs(sampled - parity_z) > shot_bound((1.0 - parity_z**2) / shots, 2.0 / shots):
            out.append(f"sampled Z parity {sampled} is beyond 5 sigma of {parity_z}")
        return out

    def qnn_backward() -> list:
        n = inputs.QNN_QUBITS
        x, w = spec["qnn_inputs"], np.array(spec["qnn_weights"])
        jacobian = stages["qnn_backward"]["result"]["jacobian"]
        z0 = "Z" + "I" * (n - 1)

        def forward(weights) -> float:
            return _pauli_expectation(vector_state(n, zz_gates(x, 1) + ansatz_gates(n, 1, weights))[0], z0)

        out = []
        if len(jacobian) != len(w):
            return [f"Jacobian has {len(jacobian)} entries, expected {len(w)}"]
        for k in (0, 1, len(w) - 1):
            step = np.zeros_like(w)
            step[k] = FD_STEP
            numeric = (forward(w + step) - forward(w - step)) / (2.0 * FD_STEP)
            if abs(jacobian[k] - numeric) > FD_TOL:
                out.append(f"d/dw{k}: backward {jacobian[k]} vs finite difference {numeric}")
        return out

    def bayes() -> list:
        reported = _stdout_json(stages["bayes"])
        network = json.loads((workdir / "network.json").read_text(encoding="utf-8"))
        target, value = spec["query"].split("=")
        evidence = {name: int(bit) for name, bit in (item.split("=") for item in spec["evidence"])}
        exact = bayes_exact(network, target, int(value), evidence)
        out = []
        if abs(reported["exact"] - exact) > EXACT_TOL:
            out.append(f"exact {reported['exact']} != enumeration {exact}")
        accepted = reported["accepted"]
        if not 0 < accepted <= inputs.BAYES_SHOTS:
            return out + [f"accepted {accepted} of {inputs.BAYES_SHOTS} shots"]
        if abs(reported["estimate"] - exact) > shot_bound(exact * (1.0 - exact) / accepted, 1.0 / accepted):
            out.append(f"estimate {reported['estimate']} is beyond 5 sigma of {exact}")
        return out

    return _failing("estimate", estimate) + _failing("qnn_backward", qnn_backward) + _failing("bayes", bayes)


CHECKS = {"kernel_svm": kernel_svm, "vqc_train": vqc_train, "wide_state": wide_state}
