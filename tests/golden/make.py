"""Seeded outputs of the CLI and the shot readers, recorded for ``tests/test_golden.py``.

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
    Circuit,
    EstimatorQnn,
    Gate,
    PauliObservable,
    SamplerQnn,
    circuit_to_dict,
    estimator,
    parity_interpret,
    real_amplitudes_ansatz,
    sampler,
    zz_feature_map,
)
from qmlkit.cli import main
from qmlkit.simulator import derive_seed

RECORD = pathlib.Path(__file__).with_name("record.json")
SEEDS = (0, 1)


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
    return exact, shots


def probes() -> dict:
    exact, shots = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            workdir = pathlib.Path(tmp, str(seed))
            workdir.mkdir()
            for section, found in zip((exact, shots), _cli_probes(workdir, seed)):
                section.update(found)
    for make in (_state_probes, _qnn_probes):
        for section, found in zip((exact, shots), make()):
            section.update(found)
    return {"exact": exact, "shots": shots}


if __name__ == "__main__":
    RECORD.write_text(json.dumps(probes(), sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {RECORD} ({RECORD.stat().st_size} bytes)")
