import json
import math

import numpy as np
import pytest

from qmlkit import circuit_to_dict, kernel_entry, real_amplitudes_ansatz, zz_feature_map
from qmlkit.cli import GRADCHECK_TOLERANCE, main


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


def test_predict_missing_model_file_exits_2(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", str(data))
    code, _, err = run_cli(
        capsys, "predict", "--model", str(tmp_path / "absent.json"), "--data", str(data),
        "--out", str(tmp_path / "p.csv"),
    )
    assert code == 2
    assert "absent.json" in json.loads(err)["error"]


def test_train_out_in_missing_directory_exits_2(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    run_cli(capsys, "gen-data", "blobs", "--samples", "4", "--seed", "1", "--out", str(data))
    code, _, err = run_cli(
        capsys, "train", "--model", "qsvc", "--data", str(data),
        "--out", str(tmp_path / "no-such-dir" / "model.json"),
    )
    assert code == 2
    assert "no-such-dir" in json.loads(err)["error"]


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
    from qmlkit import Circuit, Gate

    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(circuit_to_dict(Circuit(1).append(Gate.h(0)))))
    code, stdout, _ = run_cli(capsys, "gradcheck", "--circuit", str(path))
    assert code == 0
    assert json.loads(stdout.strip()) == {"max_deviation": 0.0, "parameters": 0}


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
