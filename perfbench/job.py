"""One benchmark job, run in a fresh Python process.

The job writes its workload's inputs, runs the workload's stages through
qmlkit's in-process CLI (``qmlkit.cli.main``) and public API, and prints one
JSON line: set-up time, each stage's time and exit code, the CLI's captured
output, API results and the process's peak RSS. A fresh process per job keeps
``peak_rss_mb`` to one job and starts qmlkit's index caches empty, as for a
CLI user.

``--trace`` runs the stages under the span wrappers of ``spans.py`` and
writes the spans to ``spans.json`` in the work directory when the stages are
done.

Usage (from the repository root):
    PYTHONPATH=src python3 perfbench/job.py --workload kernel_svm --seed 0 --workdir perfbench-work/j
"""

import argparse
import contextlib
import io
import json
import resource
import time
from pathlib import Path


def _cli(argv: list[str]):
    import qmlkit.cli

    def stage() -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qmlkit.cli.main([str(a) for a in argv])
        return {"rc": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    return stage


def _api(fn):
    def stage() -> dict:
        try:
            return {"rc": 0, "result": fn()}
        except Exception as exc:  # a failed API call is a failed operation, not a crash of the job
            return {"rc": 1, "stderr": f"{type(exc).__name__}: {exc}"}

    return stage


def kernel_svm_stages(paths: dict, seed: int, workdir: Path) -> list:
    import inputs

    train, test = paths["train"], paths["test"]
    model = workdir / "model.json"
    return [
        ("kernel", _cli(["kernel", "--data", train, "--out", workdir / "gram.csv", "--seed", seed])),
        ("train", _cli(["train", "--model", "qsvc", "--data", train, "--out", model,
                        "--svm-c", inputs.SVM_C, "--seed", seed])),
        ("predict", _cli(["predict", "--model", model, "--data", test,
                          "--out", workdir / "predict.csv", "--seed", seed])),
        ("predict_shots", _cli(["predict", "--model", model, "--data", test,
                                "--out", workdir / "predict_shots.csv", "--shots", inputs.SHOTS, "--seed", seed])),
    ]


def vqc_train_stages(paths: dict, seed: int, workdir: Path) -> list:
    import inputs

    train, test = paths["train"], paths["test"]
    model = workdir / "model.json"
    return [
        ("train", _cli(["train", "--model", "vqc", "--data", train, "--out", model,
                        "--optimizer", "adam", "--max-iter", 100, "--learning-rate", 0.1,
                        "--tolerance", 0, "--seed", seed])),
        ("predict", _cli(["predict", "--model", model, "--data", test,
                          "--out", workdir / "predict.csv", "--seed", seed])),
        ("predict_shots", _cli(["predict", "--model", model, "--data", test,
                                "--out", workdir / "predict_shots.csv", "--shots", inputs.SHOTS, "--seed", seed])),
    ]


def wide_state_stages(paths: dict, seed: int, workdir: Path) -> list:
    import inputs
    import qmlkit

    spec = json.loads(Path(paths["spec"]).read_text(encoding="utf-8"))

    def estimate() -> dict:
        circuit = qmlkit.real_amplitudes_ansatz(inputs.WIDE_QUBITS, inputs.WIDE_REPS)
        observable = qmlkit.PauliObservable(tuple((float(c), s) for c, s in spec["terms"]))
        weights = spec["weights"]
        shots = inputs.WIDE_SHOTS
        return {
            "exact": qmlkit.estimator(circuit, observable, weights),
            "shots": qmlkit.estimator(circuit, observable, weights, shots=shots, seed=seed),
            "sampler": qmlkit.sampler(circuit, weights, shots=shots, seed=seed).probabilities,
        }

    def qnn_backward() -> dict:
        n = inputs.QNN_QUBITS
        circuit = qmlkit.zz_feature_map(n, 1).compose(qmlkit.real_amplitudes_ansatz(n, 1))
        qnn = qmlkit.EstimatorQnn(
            circuit, [qmlkit.PauliObservable.z_on(0, n)],
            input_params=range(n), weight_params=range(n, circuit.num_parameters),
            input_gradients=False,
        )
        _, jacobian = qnn.backward(spec["qnn_inputs"], spec["qnn_weights"])
        return {"jacobian": jacobian[0].tolist()}

    evidence = [arg for item in spec["evidence"] for arg in ("--evidence", item)]
    return [
        ("estimate", _api(estimate)),
        ("qnn_backward", _api(qnn_backward)),
        ("bayes", _cli(["bayes", "--network", paths["network"], "--query", spec["query"], *evidence,
                        "--shots", inputs.BAYES_SHOTS, "--seed", seed])),
    ]


STAGES = {"kernel_svm": kernel_svm_stages, "vqc_train": vqc_train_stages, "wide_state": wide_state_stages}


def main() -> None:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(STAGES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import qmlkit  # noqa: F401  (import time is part of set-up)
    import qmlkit.cli  # noqa: F401
    import inputs

    workdir = Path(args.workdir)
    paths = inputs.write(args.workload, args.seed, workdir)
    report: dict = {"setup_s": time.perf_counter() - started}
    stages = STAGES[args.workload](paths, args.seed, workdir)
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    report["stages"] = {}
    for name, stage in stages:
        start = time.perf_counter()
        outcome = stage()
        outcome["s"] = time.perf_counter() - start
        report["stages"][name] = outcome
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        (workdir / "spans.json").write_text(json.dumps(recorder.spans), encoding="utf-8")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
