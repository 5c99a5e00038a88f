"""Seeded outputs of the CLI, the shot readers and the library's fidelity, kernel,
gradient, optimizer, inference and fitting calls, recorded for ``tests/test_golden.py``.

``probes()`` runs every probe and returns ``{"exact": {...}, "shots": {...}}``. Shot
outputs, counts, labels and integers compare exactly; floats under "exact" compare
within 1e-12, since BLAS builds round differently. Write the record from the
repository root with

    PYTHONPATH=src python tests/golden/make.py

Regenerating the record is a change of test data: say which keys moved, and why.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import pathlib
import tempfile

import numpy as np

from qmlkit import (
    AngleExpr,
    BayesianNetwork,
    BayesNode,
    Circuit,
    Dataset,
    EstimatorQnn,
    FidelityJob,
    Gate,
    GradientRequest,
    OptimizerConfig,
    Parameter,
    PauliObservable,
    Query,
    SamplerQnn,
    TrainableKernelSpec,
    circuit_to_dict,
    compute_uncompute,
    estimator,
    kernel_entry,
    kernel_matrix,
    minimize,
    model_to_dict,
    param_shift_gradient,
    parity_interpret,
    pegasos_fit,
    qsvc_fit,
    real_amplitudes_ansatz,
    rejection_inference,
    sampler,
    train_kernel,
    trainable_kernel_matrix,
    vqc_fit,
    vqr_fit,
    zz_feature_map,
)
from qmlkit.cli import main
from qmlkit.simulator import derive_seed

RECORD = pathlib.Path(__file__).with_name("record.json")
SEEDS = (0, 1)
# Master seeds of two and three 32-bit words, for the shot paths' seed derivation.
WIDE_SEEDS = (2**32 + 7, 2**64 + 3)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read(path: pathlib.Path):
    """A written file as JSON, or as CSV rows with numeric cells read as floats."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return [[_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def _cli(workdir: pathlib.Path, out: str | None, *argv) -> dict:
    """Exit code, stdout metrics without ``wall_seconds`` and the written path, and the
    ``--out`` file of one run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv] + (["--out", str(workdir / out)] if out else []))
    result: dict = {"exit": code}
    if code == 0:
        metrics = json.loads(stdout.getvalue())
        for varying in ("wall_seconds", "written"):
            metrics.pop(varying, None)
        result["stdout"] = metrics
        if out:
            result["file"] = _read(workdir / out)
    return result


def _cli_probes(workdir: pathlib.Path, seed: int) -> tuple[dict, dict]:
    exact, shots = {}, {}
    w = workdir

    def run(section: dict, name: str, out: str | None, *argv) -> None:
        section[f"cli/{seed}/{name}"] = _cli(w, out, *argv)

    run(shots, "gen-data-blobs", "blobs.csv", "gen-data", "blobs", "--samples", 8, "--noise", 0.3, "--seed", seed)
    run(shots, "gen-data-xor", "xor.csv", "gen-data", "xor", "--samples", 8, "--noise", 0.1, "--seed", seed)
    xs = np.linspace(0.0, math.pi, 6)
    (w / "reg.csv").write_text("f0,label\n" + "".join(f"{float(x)!r},{math.cos(x + seed)!r}\n" for x in xs))
    (w / "one.csv").write_text("f0,f1,label\n0.1,0.2,a\n0.3,0.4,a\n")
    (w / "three.csv").write_text("f0,f1,label\n0.1,0.2,a\n0.3,0.4,b\n0.5,0.6,c\n")

    vqc = ("train", "--model", "vqc", "--data", w / "xor.csv", "--max-iter", 12, "--seed", seed)
    run(exact, "train-vqc", "vqc.json", *vqc)
    run(shots, "train-vqc-shots", "vqc-shots.json", *vqc, "--shots", 64)
    run(exact, "train-vqc-best-of", "vqc-best.json", *vqc, "--best-of", 2)
    run(exact, "train-vqr", "vqr.json", "train", "--model", "vqr", "--data", w / "reg.csv",
        "--feature-reps", 1, "--ansatz-reps", 1, "--max-iter", 12, "--seed", seed)
    qsvc = ("train", "--model", "qsvc", "--data", w / "blobs.csv", "--seed", seed)
    run(exact, "train-qsvc", "qsvc.json", *qsvc)
    run(shots, "train-qsvc-shots", "qsvc-shots.json", *qsvc, "--shots", 50)
    run(exact, "train-qsvc-c", "qsvc-c.json", *qsvc, "--svm-c", 0.05)
    pegasos = ("train", "--model", "pegasos", "--data", w / "blobs.csv", "--pegasos-steps", 200, "--seed", seed)
    run(exact, "train-pegasos", "pegasos.json", *pegasos)
    run(exact, "train-pegasos-best-of", "pegasos-best.json", *pegasos, "--best-of", 3)
    run(exact, "train-one-class", "one.json", "train", "--model", "qsvc", "--data", w / "one.csv")
    run(exact, "train-three-class", "three.json", "train", "--model", "vqc", "--data", w / "three.csv")

    for model, data in (("vqc", "xor"), ("vqr", "reg"), ("qsvc", "blobs"), ("pegasos", "blobs")):
        argv = ("predict", "--model", w / f"{model}.json", "--data", w / f"{data}.csv", "--seed", seed)
        run(exact, f"predict-{model}", f"p-{model}.csv", *argv)
        run(shots, f"predict-{model}-shots", f"p-{model}-shots.csv", *argv, "--shots", 33)

    run(exact, "kernel", "k.csv", "kernel", "--data", w / "blobs.csv", "--seed", seed)
    run(shots, "kernel-shots", "k-shots.csv", "kernel", "--data", w / "blobs.csv", "--seed", seed, "--shots", 40)

    fixed = Circuit(1).append(Gate.h(0))
    zz = zz_feature_map(2, 2).compose(real_amplitudes_ansatz(2, 1))
    for name, circuit in (("fixed", fixed), ("zz", zz)):
        (w / f"{name}-circuit.json").write_text(json.dumps(circuit_to_dict(circuit)))
    run(exact, "gradcheck-fixed", None, "gradcheck", "--circuit", w / "fixed-circuit.json")
    run(exact, "gradcheck-zz", None, "gradcheck", "--circuit", w / "zz-circuit.json",
        "--values", "0.4,-1.3,0.2,0.9,-0.5,1.7")

    (w / "net.json").write_text(json.dumps({"nodes": [
        {"name": "A", "parents": [], "cpt": {"": 0.3}},
        {"name": "B", "parents": ["A"], "cpt": {"0": 0.2, "1": 0.9}},
        {"name": "C", "parents": ["A", "B"], "cpt": {"00": 0.1, "01": 0.6, "10": 0.4, "11": 0.95}},
    ]}))
    run(shots, "bayes", None, "bayes", "--network", w / "net.json", "--query", "C=1",
        "--evidence", "A=1", "--shots", 3000, "--seed", seed)
    return exact, shots


def _wide_seed_probes(workdir: pathlib.Path, seed: int) -> dict:
    """The CLI's shot-mode ``kernel``, ``predict`` (vqc, qsvc) and ``train --model vqc`` at a
    multi-word master seed, on the data and models that ``_cli_probes`` wrote at seed 0."""
    w, shots = workdir, {}

    def run(name: str, out: str, *argv) -> None:
        shots[f"cli/{seed}/{name}"] = _cli(w, out, *argv, "--seed", seed)

    run("kernel-shots", f"k-shots-{seed}.csv", "kernel", "--data", w / "blobs.csv", "--shots", 40)
    for model, data in (("vqc", "xor"), ("qsvc", "blobs")):
        run(f"predict-{model}-shots", f"p-{model}-shots-{seed}.csv",
            "predict", "--model", w / f"{model}.json", "--data", w / f"{data}.csv", "--shots", 33)
    run("train-vqc-shots", f"vqc-shots-{seed}.json",
        "train", "--model", "vqc", "--data", w / "xor.csv", "--max-iter", 12, "--shots", 64)
    return shots


def _circuits(num_qubits: int) -> dict[str, tuple[Circuit, PauliObservable]]:
    """A real and a complex bound circuit on ``num_qubits``, each with a Z/X/Y observable."""
    ansatz = real_amplitudes_ansatz(num_qubits, 2)
    real = ansatz.bind(np.random.default_rng(num_qubits).uniform(-math.pi, math.pi, ansatz.num_parameters))
    complex_ = real.extend([Gate.rz(0.3, 0), Gate.rx(-0.8, num_qubits - 1)])
    pad = "I" * (num_qubits - 2)
    observable = PauliObservable(((0.7, "ZZ" + pad), (0.4, "XX" + pad), (-0.3, "YZ" + pad), (0.2, "I" * num_qubits)))
    return {"real": (real, observable), "complex": (complex_, observable)}


def _state_probes() -> tuple[dict, dict]:
    exact, shots = {}, {}
    for n in (2, 6, 12, 16):
        for kind, (circuit, observable) in _circuits(n).items():
            exact[f"estimator/{n}/{kind}"] = estimator(circuit, observable, ())
            if n < 12:
                exact[f"sampler/{n}/{kind}"] = sampler(circuit, ()).probabilities
            for count in (64, 512):
                shots[f"estimator/{n}/{kind}/{count}"] = estimator(circuit, observable, (), shots=count, seed=n)
                shots[f"sampler/{n}/{kind}/{count}"] = sampler(circuit, (), shots=count, seed=n).probabilities
    return exact, shots


def _split(circuit: Circuit) -> dict:
    """A zz feature map's parameters as inputs, its ansatz's as weights."""
    n = circuit.num_qubits
    return dict(input_params=range(n), weight_params=range(n, circuit.num_parameters))


def _qnn_probes() -> tuple[dict, dict]:
    exact, shots = {}, {}
    circuit = zz_feature_map(2, 1).compose(real_amplitudes_ansatz(2, 1))
    wide = zz_feature_map(3, 1).compose(real_amplitudes_ansatz(3, 1))
    qnns = {
        "estimator": EstimatorQnn(circuit, [PauliObservable(((0.6, "ZZ"), (0.5, "XI")))], **_split(circuit)),
        "sampler": SamplerQnn(circuit, interpret=parity_interpret, output_dim=2, **_split(circuit)),
        "sampler-identity": SamplerQnn(wide, **_split(wide)),
    }
    rng = np.random.default_rng(3)
    for name, qnn in qnns.items():
        rows = rng.uniform(-math.pi, math.pi, (5, len(qnn.input_params)))
        weights = rng.uniform(-math.pi, math.pi, len(qnn.weight_params))
        seeds = [derive_seed(11, i) for i in range(len(rows))]
        exact[f"qnn/{name}/outputs"] = qnn._outputs(rows, weights, None, [None] * len(rows)).tolist()
        shots[f"qnn/{name}/outputs/64"] = qnn._outputs(rows, weights, 64, seeds).tolist()
        for label, count in (("exact", None), ("64", 64)):
            inputs, of_weights = qnn.backward(rows[0], weights, shots=count, seed=5)
            (exact if count is None else shots)[f"qnn/{name}/backward/{label}"] = [
                inputs.tolist(), of_weights.tolist()]
        for seed in WIDE_SEEDS if name == "estimator" else ():
            inputs, of_weights = qnn.backward(rows[0], weights, shots=64, seed=seed)
            shots[f"qnn/{name}/backward/64/{seed}"] = [inputs.tolist(), of_weights.tolist()]
    return exact, shots


def _fidelity_probes() -> tuple[dict, dict]:
    """``compute_uncompute`` on nearby real and complex pairs, whose all-zeros outcome is
    likely enough that shot counts read it, and on one identical pair."""
    exact, shots = {}, {}
    for n in (2, 6, 12):
        rng = np.random.default_rng(100 + n)
        ansatz, feature_map = real_amplitudes_ansatz(n, 1), zz_feature_map(n, 1)
        pairs = {
            "real": (ansatz, ansatz.append(Gate.ry(0.1, 0)), rng.uniform(-1, 1, ansatz.num_parameters)),
            "complex": (feature_map, feature_map.append(Gate.rz(0.1, n - 1)), rng.uniform(-1, 1, n)),
        }
        for kind, (circuit_a, circuit_b, values_a) in pairs.items():
            values_b = values_a + rng.normal(0.0, 0.3 / n, len(values_a))
            job = dict(circuit_a=circuit_a, circuit_b=circuit_b, values_a=values_a, values_b=values_b)
            exact[f"fidelity/{n}/{kind}"] = compute_uncompute(FidelityJob(**job))
            for count in (64, 1000):
                shots[f"fidelity/{n}/{kind}/{count}"] = compute_uncompute(FidelityJob(**job, shots=count, seed=n))
    feature_map, values = zz_feature_map(3, 2), [0.3, -1.1, 2.0]
    exact["fidelity/identical"] = compute_uncompute(FidelityJob(feature_map, feature_map, values, values))
    shots["fidelity/identical/64"] = compute_uncompute(FidelityJob(feature_map, feature_map, values, values, 64, 3))
    return exact, shots


def _kernel_probes() -> tuple[dict, dict]:
    exact, shots = {}, {}
    feature_map = zz_feature_map(3, 2)
    rng = np.random.default_rng(7)
    X, Y = rng.uniform(-math.pi, math.pi, (5, 3)), rng.uniform(-math.pi, math.pi, (3, 3))
    for name, other in (("symmetric", None), ("rectangular", Y)):
        exact[f"kernel_matrix/{name}"] = kernel_matrix(feature_map, X, other).entries.tolist()
        shots[f"kernel_matrix/{name}/40"] = kernel_matrix(feature_map, X, other, shots=40, seed=2).entries.tolist()
    exact["kernel_entry"] = kernel_entry(feature_map, X[0], Y[0])
    shots["kernel_entry/40"] = kernel_entry(feature_map, X[0], Y[0], shots=40, seed=2)
    spec = TrainableKernelSpec(zz_feature_map(2, 1).compose(real_amplitudes_ansatz(2, 1)), 2)
    data, labels = X[:, :2], np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    exact["trainable_kernel_matrix"] = trainable_kernel_matrix(spec, [0.2, -0.4, 0.9, 0.1], data).entries.tolist()
    result = train_kernel(spec, data, labels, OptimizerConfig(kind="spsa", max_iterations=10), seed=4)
    exact["train_kernel"] = [result.best_point.tolist(), result.best_value, result.history]
    return exact, shots


def _gradient_probes() -> tuple[dict, dict]:
    """Shift-rule gradients through product-form zz angles, plain weights and a scaled CRY."""
    c = Parameter("c")
    circuit = zz_feature_map(2, 1).compose(real_amplitudes_ansatz(2, 1))
    circuit = circuit.append(Gate.cry(AngleExpr(0.7, ((0.2, 1.0, c),)), [(0, 1)], 1))
    observable = PauliObservable(((0.6, "ZZ"), (0.5, "XI"), (-0.4, "IY")))
    values = np.random.default_rng(9).uniform(-math.pi, math.pi, circuit.num_parameters)
    exact = {"param_shift_gradient": param_shift_gradient(GradientRequest(circuit, observable, values)).tolist()}
    request = GradientRequest(circuit, observable, values, shots=64, seed=6)
    return exact, {"param_shift_gradient/64": param_shift_gradient(request).tolist()}


def _optimizer_probes() -> tuple[dict, dict]:
    """Seeded ``minimize`` runs of 20 iterations on one smooth objective."""
    target = np.array([1.0, -2.0, 0.5])

    def objective(x: np.ndarray) -> float:
        return float(np.sum((x - target) ** 2) + 0.3 * np.sum(np.sin(3.0 * x)))

    def gradient(x: np.ndarray) -> np.ndarray:
        return 2.0 * (x - target) + 0.9 * np.cos(3.0 * x)

    exact = {}
    for kind in ("gd", "adam", "spsa"):
        config = OptimizerConfig(kind=kind, max_iterations=20, learning_rate=0.1, seed=5)
        result = minimize(objective, None if kind == "spsa" else gradient, [0.0, 0.0, 0.0], config)
        exact[f"minimize/{kind}"] = [result.best_point.tolist(), result.best_value, result.history, result.converged]
    return exact, {}


def _fit_probes() -> tuple[dict, dict]:
    """The four fits through the API on 8 rows, and rejection inference at seeds 0-1."""
    exact, shots = {}, {}
    rng = np.random.default_rng(12)
    features = rng.uniform(-math.pi / 2, math.pi / 2, (8, 2))
    labels = np.where(features[:, 0] * features[:, 1] > 0.0, 1.0, -1.0)
    data, feature_map, ansatz = Dataset(features, labels), zz_feature_map(2, 1), real_amplitudes_ansatz(2, 1)
    config = OptimizerConfig(kind="adam", max_iterations=8, learning_rate=0.1)
    exact["vqc_fit"] = model_to_dict(vqc_fit(data, feature_map, ansatz, config, seed=1))
    shots["vqc_fit/32"] = model_to_dict(vqc_fit(data, feature_map, ansatz, config, shots=32, seed=1))
    # Under ZZ every weight has a gradient well away from zero: Adam would turn a zero
    # gradient's last-bit changes into steps of learning_rate / adam_epsilon times as much.
    regression, zz = Dataset(features, np.cos(features[:, 0])), PauliObservable(((1.0, "ZZ"),))
    exact["vqr_fit"] = model_to_dict(vqr_fit(regression, feature_map, ansatz, zz, config, seed=1))
    exact["qsvc_fit"] = model_to_dict(qsvc_fit(data, feature_map, C=1.0))
    shots["qsvc_fit/40"] = model_to_dict(qsvc_fit(data, feature_map, C=1.0, shots=40, seed=1))
    exact["pegasos_fit"] = model_to_dict(pegasos_fit(data, feature_map, steps=100, seed=1))
    network = BayesianNetwork((
        BayesNode("A", (), {"": 0.3}),
        BayesNode("B", ("A",), {"0": 0.2, "1": 0.9}),
        BayesNode("C", ("A", "B"), {"00": 0.1, "01": 0.6, "10": 0.4, "11": 0.95}),
    ))
    for seed in SEEDS:
        result = rejection_inference(network, Query("C", 1, {"A": 1}), shots=3000, seed=seed)
        shots[f"rejection_inference/{seed}"] = [result.estimate, result.accepted]
    return exact, shots


def probes() -> dict:
    exact, shots = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            workdir = pathlib.Path(tmp, str(seed))
            workdir.mkdir()
            for section, found in zip((exact, shots), _cli_probes(workdir, seed)):
                section.update(found)
        for seed in WIDE_SEEDS:
            shots.update(_wide_seed_probes(pathlib.Path(tmp, str(SEEDS[0])), seed))
    for make in (_state_probes, _qnn_probes, _fidelity_probes, _kernel_probes, _gradient_probes,
                 _optimizer_probes, _fit_probes):
        for section, found in zip((exact, shots), make()):
            section.update(found)
    return {"exact": exact, "shots": shots}


if __name__ == "__main__":
    RECORD.write_text(json.dumps(probes(), sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {RECORD} ({RECORD.stat().st_size} bytes)")
