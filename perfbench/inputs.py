"""Workload inputs, generated from the workload seed with numpy alone.

qmlkit sees only the files written here. The same (workload, seed) always
gives byte-identical files, so every job of one run works on the same inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# kernel_svm: two 4-feature Gaussian blobs centred at pi +- 0.5 per feature.
# Around pi the ZZ map's pair angles 2(pi - x_i)(pi - x_j) stay small, so the
# kernel generalises (exact test accuracy 0.8-1.0 over seeds 0-9).
BLOB_CENTRE = math.pi
BLOB_OFFSET = 0.5
BLOB_NOISE = 0.25
KERNEL_ROWS = 40
# A small C puts every training row at the box bound, so each seed yields 40
# support vectors and the prediction stages do the same work on every seed.
SVM_C = 0.05

# vqc_train: noisy XOR around the corners (+-pi/2, +-pi/2).
XOR_NOISE = 0.15
XOR_TRAIN_ROWS = 16
XOR_TEST_ROWS = 1024

# wide_state sizes.
WIDE_QUBITS = 20
WIDE_REPS = 2
QNN_QUBITS = 14
BAYES_NODES = 18
BAYES_PARENTS = 2

SHOTS = 1024
WIDE_SHOTS = 4096
BAYES_SHOTS = 100_000


def _write_csv(path: Path, features: np.ndarray, labels: np.ndarray) -> None:
    header = [f"f{i}" for i in range(features.shape[1])] + ["label"]
    lines = [",".join(header)]
    for row, label in zip(features, labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _blobs(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
    labels = np.where(np.arange(rows) % 2 == 0, 1, -1)
    features = BLOB_CENTRE + labels[:, None] * BLOB_OFFSET + rng.normal(0.0, BLOB_NOISE, (rows, 4))
    return features, labels


def _xor(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
    corners = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])[np.arange(rows) % 4]
    features = corners * (math.pi / 2) + rng.normal(0.0, XOR_NOISE, (rows, 2))
    return features, corners[:, 0] * corners[:, 1]


def _network(rng: np.random.Generator) -> dict:
    """Topologically ordered binary network; every CPT entry in [0.1, 0.9]."""
    nodes = []
    for k in range(BAYES_NODES):
        parents = [] if k < BAYES_PARENTS else sorted(rng.choice(k, BAYES_PARENTS, replace=False).tolist())
        keys = [format(i, f"0{len(parents)}b") if parents else "" for i in range(2 ** len(parents))]
        nodes.append(
            {
                "name": f"N{k}",
                "parents": [f"N{p}" for p in parents],
                "cpt": {key: float(rng.uniform(0.1, 0.9)) for key in keys},
            }
        )
    return {"nodes": nodes}


def write(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files into ``directory``; return their paths by role."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "kernel_svm":
        paths = {"train": directory / "train.csv", "test": directory / "test.csv"}
        _write_csv(paths["train"], *_blobs(rng, KERNEL_ROWS))
        _write_csv(paths["test"], *_blobs(rng, KERNEL_ROWS))
        return {k: str(v) for k, v in paths.items()}
    if workload == "vqc_train":
        paths = {"train": directory / "train.csv", "test": directory / "test.csv"}
        _write_csv(paths["train"], *_xor(rng, XOR_TRAIN_ROWS))
        _write_csv(paths["test"], *_xor(rng, XOR_TEST_ROWS))
        return {k: str(v) for k, v in paths.items()}
    if workload == "wide_state":
        n = WIDE_QUBITS
        x_qubit, z_qubit = (int(q) for q in rng.choice(n, 2, replace=False))
        terms = [
            [1.0, "Z" * n],
            [float(rng.uniform(0.5, 1.0)), "".join("X" if q == x_qubit else "I" for q in range(n))],
            [float(rng.uniform(0.5, 1.0)), "".join("Z" if q == z_qubit else "I" for q in range(n))],
        ]
        names = rng.choice(BAYES_NODES - 1, 2, replace=False)
        spec = {
            "weights": rng.uniform(-math.pi, math.pi, n * (WIDE_REPS + 1)).tolist(),
            "terms": terms,
            "qnn_inputs": rng.uniform(-math.pi, math.pi, QNN_QUBITS).tolist(),
            "qnn_weights": rng.uniform(-math.pi, math.pi, 2 * QNN_QUBITS).tolist(),
            "query": f"N{BAYES_NODES - 1}=1",
            "evidence": [f"N{int(names[0])}={int(rng.integers(2))}", f"N{int(names[1])}={int(rng.integers(2))}"],
        }
        paths = {"spec": directory / "wide.json", "network": directory / "network.json"}
        paths["spec"].write_text(json.dumps(spec), encoding="utf-8")
        paths["network"].write_text(json.dumps(_network(rng)), encoding="utf-8")
        return {k: str(v) for k, v in paths.items()}
    raise ValueError(f"unknown workload {workload!r}")
