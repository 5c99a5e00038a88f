import argparse
import functools
import json
import math
import operator
import sys

import numpy as np
import pytest

from qmlkit import (
    AngleExpr, Circuit, Gate, ModelFormatError, Parameter, PauliObservable, circuit_from_dict, circuit_to_dict,
    kernel_entry, network_from_dict, real_amplitudes_ansatz, zz_feature_map,
)
from qmlkit.cli import GRADCHECK_TOLERANCE, build_parser, main
from qmlkit.models import SvmModel, VqcModel, VqrModel, model_from_dict, model_to_dict, svm_predict


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_chain_network(path) -> None:
    path.write_text(
        json.dumps(
            {
                "nodes": [
                    {"name": "A", "parents": [], "cpt": {"": 0.5}},
                    {"name": "B", "parents": ["A"], "cpt": {"0": 0.2, "1": 0.9}},
                ]
            }
        )
    )


# --- gen-data --------------------------------------------------------------


def test_gen_data_blobs_noise_zero_repeats_centers(tmp_path, capsys):
    out = tmp_path / "blobs.csv"
    code, stdout, _ = run_cli(capsys, "gen-data", "blobs", "--samples", "6", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "f0,f1,label"
    rows = [line.split(",") for line in lines[1:]]
    positives = {tuple(r[:2]) for r in rows if r[2] == "1"}
    negatives = {tuple(r[:2]) for r in rows if r[2] == "-1"}
    assert len(positives) == 1 and len(negatives) == 1


def test_gen_data_blob_centres_are_distinct_states(tmp_path, capsys):
    # Under the default zz_feature_map(2, 2) the two centres must encode
    # states a kernel can tell apart, not one state up to a global phase.
    out = tmp_path / "blobs.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "2", "--out", str(out))
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    a, b = ([float(v) for v in row[:2]] for row in rows)
    assert kernel_entry(zz_feature_map(2, 2), a, b) < 0.5


def test_gen_data_xor_corners(tmp_path, capsys):
    out = tmp_path / "xor.csv"
    code, _, _ = run_cli(
        capsys, "gen-data", "xor", "--samples", "4", "--noise", "0", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()[1:]
    labels = [line.split(",")[2] for line in lines]
    assert labels == ["1", "-1", "-1", "1"]
    half_pi = repr(math.pi / 2)
    assert lines[0].split(",")[:2] == [half_pi, half_pi]


def test_gen_data_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "gen-data", "xor", "--samples", "8", "--noise", "0.2", "--seed", "5", "--out", str(a))
    run_cli(capsys, "gen-data", "xor", "--samples", "8", "--noise", "0.2", "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_csv_round_trips_losslessly(tmp_path, capsys):
    out = tmp_path / "xor.csv"
    run_cli(capsys, "gen-data", "xor", "--samples", "8", "--noise", "0.3", "--seed", "6", "--out", str(out))
    from qmlkit.cli import read_dataset

    features, labels = read_dataset(str(out), require_label=True)
    reformatted = "f0,f1,label\n" + "".join(
        f"{float(row[0])!r},{float(row[1])!r},{label}\n"
        for row, label in zip(features, labels)
    )
    assert out.read_text() == reformatted


def test_gen_data_rejects_odd_samples(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen-data", "blobs", "--samples", "3", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_gen_data_non_finite_noise_exits_2_and_writes_nothing(tmp_path, capsys, noise):
    out = tmp_path / "xor.csv"
    code, _, err = run_cli(capsys, "gen-data", "xor", "--samples", "4", "--noise", noise, "--out", str(out))
    assert code == 2
    assert "noise" in json.loads(err)["error"]
    assert not out.exists()


# --- train / predict --------------------------------------------------------


def test_train_qsvc_on_blobs(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    model = tmp_path / "model.json"
    run_cli(capsys, "gen-data", "blobs", "--samples", "8", "--noise", "0", "--seed", "1", "--out", str(data))
    code, stdout, _ = run_cli(
        capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(model)
    )
    assert code == 0
    metrics = json.loads(stdout.strip().splitlines()[-1])
    assert metrics["train_accuracy"] == 1.0
    assert "wall_seconds" in metrics and "final_loss" in metrics
    saved = json.loads(model.read_text())
    assert saved["format_version"] == 1
    assert saved["type"] == "qsvc"


@pytest.mark.parametrize("model, best_of, calls", [("qsvc", "1", 1), ("pegasos", "2", 2)])
def test_train_scores_each_attempt_with_one_svm_predict(tmp_path, capsys, monkeypatch, model, best_of, calls):
    import qmlkit.cli

    scored = []

    def spy(*args, **kwargs):
        scored.append(kwargs)
        return svm_predict(*args, **kwargs)

    monkeypatch.setattr(qmlkit.cli, "svm_predict", spy)
    data = tmp_path / "blobs.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "6", "--noise", "0.1", "--seed", "2", "--out", str(data))
    code, stdout, _ = run_cli(
        capsys, "train", "--model", model, "--data", str(data), "--out", str(tmp_path / "m.json"),
        "--pegasos-steps", "100", "--best-of", best_of,
    )
    assert code == 0
    assert "train_accuracy" in json.loads(stdout)
    assert len(scored) == calls


@pytest.mark.parametrize("labels", [["a", "a"], ["a", "b", "c"]])
def test_train_needs_exactly_two_label_values(tmp_path, capsys, labels):
    data = tmp_path / "labels.csv"
    data.write_text("f0,f1,label\n" + "".join(f"0.{i},0.{i + 1},{label}\n" for i, label in enumerate(labels)))
    out = tmp_path / "m.json"
    code, _, err = run_cli(capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(out))
    assert code == 2
    assert "exactly 2 label values" in json.loads(err)["error"]
    assert not out.exists()


def test_train_writes_reproducible_model(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "6", "--noise", "0.05", "--seed", "2", "--out", str(data))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(
            capsys, "train", "--model", "pegasos", "--data", str(data), "--out", str(target),
            "--pegasos-steps", "200", "--seed", "4",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_predict_round_trip_accuracy(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    model = tmp_path / "model.json"
    predictions = tmp_path / "pred.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "8", "--noise", "0.1", "--seed", "3", "--out", str(data))
    _, stdout, _ = run_cli(capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(model))
    trained = json.loads(stdout.strip().splitlines()[-1])
    code, stdout, _ = run_cli(
        capsys, "predict", "--model", str(model), "--data", str(data), "--out", str(predictions)
    )
    assert code == 0
    predicted = json.loads(stdout.strip().splitlines()[-1])
    assert predicted["accuracy"] == trained["train_accuracy"]
    assert predicted["rows"] == 8
    assert len(predictions.read_text().strip().splitlines()) == 9


def test_predict_feature_mismatch_exits_2(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    model = tmp_path / "model.json"
    run_cli(capsys, "gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", str(data))
    run_cli(capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(model))
    bad = tmp_path / "bad.csv"
    bad.write_text("f0\n0.5\n")
    code, _, err = run_cli(capsys, "predict", "--model", str(model), "--data", str(bad), "--out", str(tmp_path / "p.csv"))
    assert code == 2
    assert err


@pytest.mark.parametrize("columns, shots", [(3, []), (2, ["--shots", "0"])])
def test_predict_without_support_vectors_checks_features_and_shots(tmp_path, capsys, columns, shots):
    data = tmp_path / "blobs.csv"
    model = tmp_path / "model.json"
    run_cli(capsys, "gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", str(data))
    run_cli(capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(model))
    payload = json.loads(model.read_text())
    payload.update(alphas=[], support_labels=[], support_data=[])
    model.write_text(json.dumps(payload))
    rows = tmp_path / "rows.csv"
    rows.write_text(",".join(f"f{i}" for i in range(columns)) + "\n" + ",".join(["0.5"] * columns) + "\n")
    out = tmp_path / "p.csv"
    code, _, err = run_cli(capsys, "predict", "--model", str(model), "--data", str(rows), "--out", str(out), *shots)
    assert code == 2
    assert json.loads(err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("label_map", [True, False])
def test_predict_refuses_a_label_the_model_does_not_know(tmp_path, capsys, label_map):
    data, model, out = tmp_path / "blobs.csv", tmp_path / "model.json", tmp_path / "p.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "8", "--noise", "0.1", "--seed", "3", "--out", str(data))
    names = {"1": "pos", "-1": "neg"} if label_map else {"1": "1", "-1": "-1"}
    rows = [line.rsplit(",", 1) for line in data.read_text().splitlines()[1:]]
    data.write_text("f0,f1,label\n" + "".join(f"{x},{names[y]}\n" for x, y in rows))
    _, stdout, _ = run_cli(capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(model))
    trained = json.loads(stdout)
    if not label_map:  # a model saved without a label map reads labels as -1 and +1
        model.write_text(json.dumps({**json.loads(model.read_text()), "label_map": None}))
    code, stdout, _ = run_cli(capsys, "predict", "--model", str(model), "--data", str(data), "--out", str(out))
    assert code == 0 and json.loads(stdout)["accuracy"] == trained["train_accuracy"]
    out.unlink()
    unknown = tmp_path / "unknown.csv"
    unknown.write_text(data.read_text().replace(f",{names['-1']}\n", ",7\n"))
    code, stdout, err = run_cli(capsys, "predict", "--model", str(model), "--data", str(unknown), "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.count("\n") == 1 and f"labels in {unknown} do not match the model" in json.loads(err)["error"]


def test_train_missing_label_column(tmp_path, capsys):
    data = tmp_path / "nolabel.csv"
    data.write_text("f0,f1\n0.0,0.1\n0.2,0.3\n")
    code, _, err = run_cli(
        capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(tmp_path / "m.json")
    )
    assert code == 2
    assert "label" in err


def test_train_bad_cell_reports_line_number(tmp_path, capsys):
    data = tmp_path / "corrupt.csv"
    data.write_text("f0,f1,label\n0.0,0.1,1\nnope,0.3,-1\n")
    code, _, err = run_cli(
        capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(tmp_path / "m.json")
    )
    assert code == 2
    assert ":3:" in err


@pytest.mark.parametrize("cell", ["inf", "NaN"])
def test_train_non_finite_feature_exits_2(tmp_path, capsys, cell):
    data = tmp_path / "bad.csv"
    data.write_text(f"f0,f1,label\n0.0,0.1,1\n{cell},0.3,-1\n")
    code, _, err = run_cli(
        capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(tmp_path / "m.json")
    )
    assert code == 2
    assert ":3:" in json.loads(err)["error"]


@pytest.mark.parametrize("cell", ["inf", "NaN"])
def test_predict_non_finite_feature_exits_2(tmp_path, capsys, cell):
    data = tmp_path / "blobs.csv"
    model = tmp_path / "model.json"
    predictions = tmp_path / "p.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", str(data))
    run_cli(capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(model))
    bad = tmp_path / "bad.csv"
    bad.write_text(f"f0,f1\n0.5,0.5\n0.1,{cell}\n")
    code, _, err = run_cli(
        capsys, "predict", "--model", str(model), "--data", str(bad), "--out", str(predictions)
    )
    assert code == 2
    assert ":3:" in json.loads(err)["error"]
    assert not predictions.exists()


def test_train_vqc_on_xor_reaches_full_accuracy(tmp_path, capsys):
    data = tmp_path / "xor.csv"
    model = tmp_path / "vqc.json"
    run_cli(capsys, "gen-data", "xor", "--samples", "4", "--noise", "0", "--out", str(data))
    code, stdout, _ = run_cli(
        capsys, "train", "--model", "vqc", "--data", str(data), "--out", str(model),
        "--max-iter", "300", "--learning-rate", "0.1", "--tolerance", "0", "--seed", "0",
    )
    assert code == 0
    metrics = json.loads(stdout.strip().splitlines()[-1])
    assert metrics["train_accuracy"] == 1.0


def test_predict_output_reproducible(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    model = tmp_path / "model.json"
    run_cli(capsys, "gen-data", "blobs", "--samples", "6", "--noise", "0.05", "--seed", "9", "--out", str(data))
    run_cli(capsys, "train", "--model", "qsvc", "--data", str(data), "--out", str(model))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "predict", "--model", str(model), "--data", str(data), "--out", str(a))
    run_cli(capsys, "predict", "--model", str(model), "--data", str(data), "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_train_best_of_uses_derived_seeds_deterministically(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "6", "--noise", "0.05", "--seed", "2", "--out", str(data))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(
            capsys, "train", "--model", "pegasos", "--data", str(data), "--out", str(target),
            "--pegasos-steps", "100", "--seed", "4", "--best-of", "2",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_vqr_reports_mse(tmp_path, capsys):
    data = tmp_path / "reg.csv"
    xs = np.linspace(0, math.pi, 6)
    rows = "\n".join(f"{float(x)!r},{math.cos(x)!r}" for x in xs)
    data.write_text("f0,label\n" + rows + "\n")
    code, stdout, _ = run_cli(
        capsys, "train", "--model", "vqr", "--data", str(data), "--out", str(tmp_path / "m.json"),
        "--feature-reps", "1", "--ansatz-reps", "1", "--max-iter", "60", "--seed", "6",
    )
    assert code == 0
    metrics = json.loads(stdout.strip().splitlines()[-1])
    assert "train_mse" in metrics


@pytest.mark.parametrize("model", ["vqr", "pegasos"])
def test_train_exact_only_model_rejects_shots(tmp_path, capsys, model):
    data = tmp_path / "blobs.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", str(data))
    out = tmp_path / "m.json"
    code, _, err = run_cli(
        capsys, "train", "--model", model, "--data", str(data), "--out", str(out), "--shots", "10"
    )
    assert code == 2
    assert "--shots" in json.loads(err)["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "model, flag, value, named",
    [
        ("vqc", "--learning-rate", "nan", "finite"),
        ("vqc", "--learning-rate", "inf", "finite"),
        ("vqc", "--tolerance", "nan", "finite"),
        ("qsvc", "--svm-c", "nan", "positive"),
        ("pegasos", "--pegasos-lambda", "nan", "finite"),
        ("pegasos", "--pegasos-lambda", "inf", "finite"),
    ],
)
def test_train_non_finite_hyperparameter_exits_2(tmp_path, capsys, model, flag, value, named):
    data = tmp_path / "blobs.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", str(data))
    out = tmp_path / "m.json"
    code, _, err = run_cli(
        capsys, "train", "--model", model, "--data", str(data), "--out", str(out),
        "--max-iter", "2", flag, value,
    )
    assert code == 2
    assert named in json.loads(err)["error"]
    assert not out.exists()


def test_predict_vqr_rejects_shots(tmp_path, capsys):
    data = tmp_path / "reg.csv"
    data.write_text("f0,label\n0.1,0.5\n1.2,-0.3\n")
    model = tmp_path / "m.json"
    run_cli(capsys, "train", "--model", "vqr", "--data", str(data), "--out", str(model), "--max-iter", "2")
    out = tmp_path / "p.csv"
    code, _, err = run_cli(
        capsys, "predict", "--model", str(model), "--data", str(data), "--out", str(out), "--shots", "5"
    )
    assert code == 2
    assert "--shots" in json.loads(err)["error"]
    assert not out.exists()


def test_predict_malformed_model_exits_2(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    model = tmp_path / "model.json"
    run_cli(capsys, "gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", str(data))
    run_cli(capsys, "train", "--model", "pegasos", "--data", str(data), "--out", str(model))
    payload = json.loads(model.read_text())
    payload["lambda"] = 0
    model.write_text(json.dumps(payload))
    code, _, err = run_cli(
        capsys, "predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "p.csv")
    )
    assert code == 2
    assert json.loads(err)["error"].startswith("lambda:")


# --- kernel ------------------------------------------------------------------


def test_kernel_single_row(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("f0,f1\n0.5,0.25\n")
    out = tmp_path / "kernel.csv"
    code, _, _ = run_cli(capsys, "kernel", "--data", str(data), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines == ["0", "1.0"]


def test_kernel_symmetric_and_reproducible(tmp_path, capsys):
    data = tmp_path / "data.csv"
    run_cli(capsys, "gen-data", "xor", "--samples", "4", "--noise", "0.1", "--seed", "7", "--out", str(data))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "kernel", "--data", str(data), "--out", str(a), "--shots", "128", "--seed", "9")
    run_cli(capsys, "kernel", "--data", str(data), "--out", str(b), "--shots", "128", "--seed", "9")
    assert a.read_bytes() == b.read_bytes()
    K = np.array([[float(v) for v in line.split(",")] for line in a.read_text().splitlines()[1:]])
    assert np.array_equal(K, K.T)


# --- gradcheck ---------------------------------------------------------------


def test_gradcheck_ry_chain(tmp_path, capsys):
    circuit = real_amplitudes_ansatz(2, 1)
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit_to_dict(circuit)))
    code, stdout, _ = run_cli(
        capsys, "gradcheck", "--circuit", str(path), "--values", "0.3,0.7,-0.2,1.1"
    )
    assert code == 0
    report = json.loads(stdout.strip())
    assert report["max_deviation"] < 1e-6
    assert report["parameters"] == 4


def test_gradcheck_product_angle_exits_0(tmp_path, capsys):
    path = tmp_path / "zz.json"
    path.write_text(json.dumps(circuit_to_dict(zz_feature_map(2, 1))))
    code, stdout, _ = run_cli(capsys, "gradcheck", "--circuit", str(path), "--values", "0.4,-1.3")
    assert code == 0
    report = json.loads(stdout.strip())
    assert report["max_deviation"] < GRADCHECK_TOLERANCE
    assert report["parameters"] == 2


def test_gradcheck_cry_parameter_matches_finite_difference(tmp_path, capsys):
    from qmlkit import AngleExpr, Circuit, Gate, Parameter

    theta = Parameter("theta")
    single = Circuit(2).extend([Gate.h(0), Gate.cry(theta, [(0, 1)], 1)])
    # A -2 slope on 0- and 1-valued controls.
    multi = Circuit(3).extend([
        Gate.h(0), Gate.h(1), Gate.cry(AngleExpr(-2.0, ((0.3, 1.0, theta),)), [(0, 1), (2, 0)], 1),
    ])
    for circuit, observable in ((single, "ZX"), (multi, "ZXI")):
        path = tmp_path / "cry.json"
        path.write_text(json.dumps(circuit_to_dict(circuit)))
        code, stdout, _ = run_cli(
            capsys, "gradcheck", "--circuit", str(path), "--values", "0.7", "--observable", observable
        )
        assert code == 0
        assert json.loads(stdout)["max_deviation"] < 1e-8


def test_gradcheck_non_numeric_value_exits_2(tmp_path, capsys):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit_to_dict(real_amplitudes_ansatz(1, 1))))
    for value in ("abc", "nan", "inf"):
        code, _, err = run_cli(capsys, "gradcheck", "--circuit", str(path), "--values", f"1,{value}")
        assert code == 2
        assert value in json.loads(err)["error"]


def test_gradcheck_zero_parameters(tmp_path, capsys):
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(circuit_to_dict(Circuit(1).append(Gate.h(0)))))
    code, stdout, _ = run_cli(capsys, "gradcheck", "--circuit", str(path))
    assert code == 0
    assert json.loads(stdout.strip()) == {"max_deviation": 0.0, "parameters": 0}


@pytest.mark.parametrize("num_qubits, observable, error", [
    (100, None, "100 qubits exceeds the dense statevector limit of 24"),
    (2, "ZZZ", "observable width 3 != state width 2"),
], ids=["100-qubits", "observable-width"])
@pytest.mark.parametrize("parameters", [0, 1])
def test_gradcheck_refuses_what_it_cannot_simulate_with_or_without_parameters(
        tmp_path, capsys, num_qubits, observable, error, parameters):
    circuit = Circuit(num_qubits).extend([Gate.h(0)] + [Gate.ry(Parameter("t"), 0)] * parameters)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(circuit_to_dict(circuit)))
    argv = ["gradcheck", "--circuit", str(path)] + (["--observable", observable] if observable else [])
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert json.loads(err)["error"] == error


# --- bayes ---------------------------------------------------------------------


def test_bayes_chain_query(tmp_path, capsys):
    path = tmp_path / "net.json"
    write_chain_network(path)
    code, stdout, _ = run_cli(
        capsys, "bayes", "--network", str(path), "--query", "B=1", "--evidence", "A=1",
        "--shots", "20000", "--seed", "11",
    )
    assert code == 0
    report = json.loads(stdout.strip())
    assert abs(report["estimate"] - 0.9) < 0.02
    assert report["exact"] == pytest.approx(0.9)
    assert report["shots"] == 20000
    assert 0 < report["accepted"] <= 20000


def test_bayes_repeated_evidence_answers_as_given_once(tmp_path, capsys):
    path = tmp_path / "net.json"
    write_chain_network(path)
    query = ["bayes", "--network", str(path), "--query", "B=1", "--evidence", "A=1", "--shots", "500"]
    once = run_cli(capsys, *query)
    assert once[0] == 0 and run_cli(capsys, *query, "--evidence", "A=1") == once


def test_bayes_no_evidence_matches_exact(tmp_path, capsys):
    path = tmp_path / "net.json"
    write_chain_network(path)
    code, stdout, _ = run_cli(
        capsys, "bayes", "--network", str(path), "--query", "B=1", "--shots", "20000", "--seed", "2"
    )
    assert code == 0
    report = json.loads(stdout.strip())
    assert abs(report["estimate"] - report["exact"]) < 0.02


def test_bayes_impossible_evidence_exits_3(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(
        json.dumps(
            {
                "nodes": [
                    {"name": "A", "parents": [], "cpt": {"": 0.0}},
                    {"name": "B", "parents": ["A"], "cpt": {"0": 0.5, "1": 0.5}},
                ]
            }
        )
    )
    code, _, err = run_cli(
        capsys, "bayes", "--network", str(path), "--query", "B=1", "--evidence", "A=1"
    )
    assert code == 3
    assert err


def test_bayes_malformed_query(tmp_path, capsys):
    path = tmp_path / "net.json"
    write_chain_network(path)
    code, _, _ = run_cli(capsys, "bayes", "--network", str(path), "--query", "B=7")
    assert code == 2


def test_bayes_cpt_list_exits_2(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": [{"name": "A", "parents": [], "cpt": [0.5]}]}))
    code, _, err = run_cli(capsys, "bayes", "--network", str(path), "--query", "A=1")
    assert code == 2
    assert "nodes[0].cpt" in json.loads(err)["error"]


# --- usage errors ----------------------------------------------------------


@pytest.mark.parametrize("argv, named", [
    (["train", "--model", "foo", "--data", "d.csv", "--out", "m.json"], "invalid choice: 'foo'"),
    (["kernel", "--data", "d.csv", "--out", "k.csv", "--shots", "abc"], "invalid int value: 'abc'"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["train", "--model", "qsvc", "--out", "m.json"], "required: --data"),
    (["kernel", "--data", "d.csv", "--out", "k.csv", "--feature-map", "zz"], "unrecognized arguments: --feature-map zz"),
])
def test_usage_errors_exit_2_with_one_json_line(capsys, argv, named):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and named in json.loads(err)["error"]


STEEP_CIRCUIT = circuit_to_dict(
    Circuit(1).extend([Gate.h(0), Gate.rz(AngleExpr.linear(Parameter("x"), 3000.0), 0), Gate.h(0)]))
KERNEL = ["kernel", "--data", "d.csv", "--out", "k.csv"]
TRAIN_QSVC = [["gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", "b.csv"],
              ["train", "--model", "qsvc", "--data", "b.csv", "--out", "m.json"]]
TRAIN_VQC = [["gen-data", "xor", "--samples", "4", "--seed", "1", "--out", "x.csv"],
             ["train", "--model", "vqc", "--data", "x.csv", "--max-iter", "1", "--out", "v.json"]]
CHAIN = json.dumps({"nodes": [{"name": "A", "parents": [], "cpt": {"": 0.5}},
                              {"name": "B", "parents": ["A"], "cpt": {"0": 0.2, "1": 0.9}}]})
TOO_MANY_SHOTS = ["--shots", str(10**20)]  # past 2^63 - 1, numpy cannot draw the count


@pytest.mark.parametrize("files, setup, argv, code, named", [
    ({"d.csv": ""}, [], KERNEL, 2, "d.csv: empty file"),
    ({"d.csv": "x0,x1\n0.1,0.2\n"}, [], KERNEL, 2, "header must be f0..f{d-1}[,label]"),
    ({"d.csv": "f0,f1\n0.1,0.2\n0.3\n"}, [], KERNEL, 2, "d.csv:3: expected 2 fields, got 1"),
    ({"d.csv": "f0,f1\n"}, [], KERNEL, 2, "d.csv: no data rows"),
    ({"d.csv": "f0,label\n0.1,0.5\n0.2,high\n"}, [],
     ["train", "--model", "vqr", "--data", "d.csv", "--out", "m.json"], 2, "regression labels must be numeric"),
    ({"d.csv": "f0,f1,label\n0.1,0.2,c\n"}, TRAIN_QSVC,
     ["predict", "--model", "m.json", "--data", "d.csv", "--out", "p.csv"], 2, "labels in d.csv do not match the model"),
    ({"c.json": json.dumps(STEEP_CIRCUIT)}, [], ["gradcheck", "--circuit", "c.json", "--values", "0.3,0.4"],
     2, "circuit takes 1 values, got 2"),
    # d<Z>/dx = -3000 sin(3000 x): at x = 0.3 the finite difference's step is too coarse for it.
    ({"c.json": json.dumps(STEEP_CIRCUIT)}, [], ["gradcheck", "--circuit", "c.json", "--values", "0.3"],
     3, f"exceeds {GRADCHECK_TOLERANCE}"),
    ({"c.json": "{"}, [], ["gradcheck", "--circuit", "c.json"], 2, "c.json: not valid JSON"),
    ({"n.json": "nodes"}, [], ["bayes", "--network", "n.json", "--query", "A=1"], 2, "n.json: not valid JSON"),
    ({}, TRAIN_QSVC, ["kernel", "--data", "b.csv", "--out", "k.csv", *TOO_MANY_SHOTS], 2, "below 2^63"),
    ({}, TRAIN_VQC[:1], ["train", "--model", "vqc", "--data", "x.csv", "--out", "m.json", *TOO_MANY_SHOTS],
     2, "below 2^63"),
    ({}, TRAIN_QSVC, ["predict", "--model", "m.json", "--data", "b.csv", "--out", "p.csv", *TOO_MANY_SHOTS],
     2, "below 2^63"),
    ({}, TRAIN_VQC, ["predict", "--model", "v.json", "--data", "x.csv", "--out", "p.csv", *TOO_MANY_SHOTS],
     2, "below 2^63"),
    ({"n.json": CHAIN}, [], ["bayes", "--network", "n.json", "--query", "B=1", *TOO_MANY_SHOTS], 2, "below 2^63"),
    ({"n.json": CHAIN}, [], ["bayes", "--network", "n.json", "--query", "B=1", "--evidence", "A=1",
                             "--evidence", "A=0"], 2, "--evidence sets A to both 0 and 1"),
], ids=["empty", "header", "ragged", "no-rows", "vqr-label", "predict-label", "values-count", "deviation",
        "circuit-json", "network-json", "kernel-shots", "train-vqc-shots", "predict-qsvc-shots",
        "predict-vqc-shots", "bayes-shots", "bayes-conflicting-evidence"])
def test_cli_exit_paths_write_one_json_error_line(tmp_path, monkeypatch, capsys, files, setup, argv, code, named):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for command in setup:
        assert run_cli(capsys, *command)[0] == 0
    status, _, err = run_cli(capsys, *argv)
    assert status == code
    assert err.count("\n") == 1 and named in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--data", "bad", "--out", "k.csv"],
    ["train", "--model", "vqc", "--data", "bad", "--out", "m.json"],
    ["predict", "--model", "bad", "--data", "d.csv", "--out", "p.csv"],
    ["bayes", "--network", "bad", "--query", "A=1"],
    ["gradcheck", "--circuit", "bad"],
], ids=lambda argv: argv[0])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_bytes(b"\xff\xfe" + "f0,f1\n0.1,0.2\n".encode("utf-16-le"))
    (tmp_path / "d.csv").write_text("f0,f1\n0.1,0.2\n")
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error.startswith("bad: ") and "can't decode" in error
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad", "d.csv"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--data", "nope.csv", "--out", "k.csv"],
    ["train", "--model", "qsvc", "--data", "nope.csv", "--out", "m2.json"],
    ["predict", "--model", "nope.json", "--data", "b.csv", "--out", "p.csv"],
    ["predict", "--model", "m.json", "--data", "nope.csv", "--out", "p.csv"],
    ["bayes", "--network", "nope.json", "--query", "A=1"],
    ["gradcheck", "--circuit", "nope.json"],
    ["train", "--model", "qsvc", "--data", "b.csv", "--out", "no-such-dir/m.json"],
], ids=["kernel-data", "train-data", "predict-model", "predict-data", "bayes-network", "gradcheck-circuit",
        "train-out"])
def test_a_file_that_cannot_be_opened_exits_2_with_its_path(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for command in TRAIN_QSVC:
        assert run_cli(capsys, *command)[0] == 0
    status, out, err = run_cli(capsys, *argv)
    missing = next(arg for arg in argv if "nope" in arg or "no-such-dir" in arg)
    assert status == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == f"{missing}: No such file or directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "m.json"]


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    pytest.param('{"num_qubits": ' + "1" * 5000 + "}", marks=pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000, reason="no integer digit limit")),
], ids=["deep-nesting", "long-integer"])
@pytest.mark.parametrize("argv", [
    ["predict", "--model", "f.json", "--data", "d.csv", "--out", "p.csv"],
    ["bayes", "--network", "f.json", "--query", "A=1"],
    ["gradcheck", "--circuit", "f.json"],
], ids=lambda argv: argv[0])
def test_json_that_python_cannot_parse_exits_2(tmp_path, monkeypatch, capsys, argv, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(text)
    (tmp_path / "d.csv").write_text("f0\n0.1\n")
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"].startswith("f.json: not valid JSON: ")


def test_a_circuit_with_an_overflowing_width_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"num_qubits": 1e400, "gates": [], "parameters": []}')
    status, out, err = run_cli(capsys, "gradcheck", "--circuit", str(path))
    assert status == 2 and out == ""
    assert json.loads(err)["error"].startswith("circuit.num_qubits: expected integers")


# One rule for every JSON file: numbers are JSON numbers (never strings or bools) and
# finite, names are strings, and a label map holds one label for -1 and one for +1.
PREDICT_F = ["predict", "--model", "f.json", "--data", "d.csv", "--out", "p.csv"]
RULE_FILES = {  # a valid file of each kind, its loader and the command that reads it
    "circuit": (circuit_to_dict(Circuit(1).extend(
        [Gate.h(0), Gate.ry(AngleExpr.linear(Parameter("t"), 2.0), 0), Gate.rz(0.5, 0)])),
        circuit_from_dict, ["gradcheck", "--circuit", "f.json"]),
    "network": ({"nodes": [{"name": "A", "parents": [], "cpt": {"": 0.5}},
                           {"name": "B", "parents": ["A"], "cpt": {"0": 0.2, "1": 0.9}}]},
                network_from_dict, ["bayes", "--network", "f.json", "--query", "A=1"]),
    "vqc": (model_to_dict(VqcModel(zz_feature_map(1), real_amplitudes_ansatz(1), np.array([0.1, 0.2]),
                                   [0.5], {"a": -1, "b": 1})), model_from_dict, PREDICT_F),
    "vqr": (model_to_dict(VqrModel(zz_feature_map(1), real_amplitudes_ansatz(1), np.array([0.1, 0.2]),
                                   PauliObservable(((1.0, "Z"),)), [0.5])), model_from_dict, PREDICT_F),
    "qsvc": (model_to_dict(SvmModel("qsvc", zz_feature_map(1), np.array([0.5]), np.array([1.0]), np.array([[0.2]]),
                                    label_map={"a": -1, "b": 1})), model_from_dict, PREDICT_F),
}


@pytest.mark.parametrize("kind, keys, value, field", [
    ("circuit", ("gates", 2, "angle"), 5, "circuit.gates[2].angle"),
    ("circuit", ("gates", 2, "angle", "coeff"), "1.5", "circuit.gates[2].angle.coeff"),
    ("circuit", ("gates", 2, "angle", "coeff"), math.inf, "circuit.gates[2].angle.coeff"),
    ("circuit", ("gates", 1, "angle", "factors", 0), [True, "2", "t"], "circuit.gates[1].angle.factors"),
    ("network", ("nodes", 0, "cpt", ""), "0.3", "nodes[0].cpt"),
    ("network", ("nodes", 1, "cpt", "1"), True, "nodes[1].cpt"),
    ("network", ("nodes", 0, "name"), 5, "nodes[0].name"),
    ("vqr", ("observable", 0, 0), "1.0", "observable"),
    ("vqc", ("weights",), [0.1, True], "weights"),
    ("vqc", ("label_map",), {"a": -1, "b": -1}, "label_map"),
    ("vqc", ("label_map",), {"a": 1}, "label_map"),
    ("vqc", ("format_version",), True, "format_version"),
    ("vqr", ("format_version",), 1.0, "format_version"),
    ("circuit", ("gates", 1, "angle", "factors", 0), [0.0, 1.0], "circuit.gates[1].angle.factors"),
    ("circuit", ("gates", 1, "angle", "factors"), "ab", "circuit.gates[1].angle.factors"),
    ("circuit", ("gates", 1, "angle", "factors"), [5], "circuit.gates[1].angle.factors"),
    ("circuit", ("gates", 1, "angle", "factors", 0), [0.0, 1.0, [1]], "circuit.gates[1].angle.factors"),
    ("circuit", ("gates", 1, "angle", "factors", 0, 2), "u", "circuit.gates[1].angle.factors"),
    ("circuit", ("gates", 0, "controls"), [[1]], "circuit.gates[0]"),
    ("circuit", ("parameters",), [5], "circuit.parameters"),
    ("circuit", ("parameters",), ["t", "t"], "circuit.parameters"),
    ("network", ("nodes",), [], "nodes"),
    ("network", ("nodes", 1, "name"), "A", "nodes"),
    ("vqc", ("format_version",), 2, "format_version"),
    ("vqc", ("type",), "mlp", "type"),
    ("vqc", ("weights",), [0.1], "weights"),
    ("vqc", ("ansatz",), circuit_to_dict(real_amplitudes_ansatz(2)), "ansatz"),
    ("vqr", ("observable",), [[1.0, "ZZ"]], "observable"),
    ("qsvc", ("alphas",), [0.5, 0.1], "support_data"),
    ("qsvc", ("support_data",), [[0.2, 0.3]], "support_data"),
    ("qsvc", ("support_data",), [[0.2], [0.1, 0.3]], "support_data"),
], ids=["angle-int", "coeff-string", "coeff-1e400", "factor-bool-string", "cpt-string", "cpt-bool",
        "node-name-int", "observable-string", "weight-bool", "labels-both-minus", "labels-one",
        "version-bool", "version-float", "factor-pair", "factors-string", "factor-int", "factor-name-list",
        "factor-name-unknown", "control-single", "parameter-int", "parameters-duplicate", "nodes-empty",
        "node-name-duplicate", "version-2", "type-unknown", "weights-too-few", "ansatz-width",
        "observable-width", "alphas-length", "support-data-width", "support-data-ragged"])
def test_every_json_loader_names_a_bad_field_and_the_cli_exits_2(
        tmp_path, monkeypatch, capsys, kind, keys, value, field):
    document, load, argv = RULE_FILES[kind]
    document = json.loads(json.dumps(document))
    *parents, last = keys
    functools.reduce(operator.getitem, parents, document)[last] = value
    with pytest.raises(ModelFormatError) as info:
        load(document)
    assert info.value.field_path == field
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps(document).replace("Infinity", "1e400"))  # parses as inf
    (tmp_path / "d.csv").write_text("f0\n0.1\n")
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"].startswith(f"{field}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "f.json"]


@pytest.mark.parametrize("kind", sorted(RULE_FILES))
def test_every_json_loader_names_a_top_level_array_and_the_cli_exits_2(tmp_path, monkeypatch, capsys, kind):
    _, load, argv = RULE_FILES[kind]
    field = "circuit" if kind == "circuit" else "$"  # a circuit file is read as the field "circuit"
    with pytest.raises(ModelFormatError) as info:
        load([])
    assert info.value.field_path == field
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text("[]")
    (tmp_path / "d.csv").write_text("f0\n0.1\n")
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == f"{field}: expected an object"


@pytest.mark.parametrize("best_of", ["0", "-3"])
def test_train_best_of_below_1_exits_2(tmp_path, capsys, best_of):
    data, out = tmp_path / "blobs.csv", tmp_path / "m.json"
    run_cli(capsys, "gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", str(data))
    status, stdout, err = run_cli(
        capsys, "train", "--model", "pegasos", "--data", str(data), "--out", str(out), "--best-of", best_of
    )
    assert status == 2 and stdout == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == f"--best-of must be at least 1, got {best_of}"
    assert not out.exists()


SEEDED_SUBCOMMANDS = {
    "gen-data": ["gen-data", "xor", "--samples", "4", "--out", "d.csv"],
    "train": ["train", "--model", "vqc", "--data", "d.csv", "--out", "m.json"],
    "predict": ["predict", "--model", "m.json", "--data", "d.csv", "--out", "p.csv"],
    "kernel": ["kernel", "--data", "d.csv", "--out", "k.csv"],
    "bayes": ["bayes", "--network", "n.json", "--query", "A=1"],
}


def test_every_seeded_subcommand_is_listed():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {name for name, sub in commands.items()
            if any("--seed" in action.option_strings for action in sub._actions)} == set(SEEDED_SUBCOMMANDS)


@pytest.mark.parametrize("seed", ["-1", "-2", "abc"])
@pytest.mark.parametrize("command", sorted(SEEDED_SUBCOMMANDS))
def test_a_bad_seed_exits_2_with_one_json_line(tmp_path, monkeypatch, capsys, command, seed):
    monkeypatch.chdir(tmp_path)  # no file named on the command line is read or written
    code, stdout, err = run_cli(capsys, *SEEDED_SUBCOMMANDS[command], "--seed", seed)
    assert code == 2 and stdout == "" and not list(tmp_path.iterdir())
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"argument --seed: expected a non-negative integer seed, got {seed!r}"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--help"])
    assert exit_info.value.code == 0 and "--model" in capsys.readouterr().out
