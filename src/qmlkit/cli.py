"""Command-line workflows: data generation, training, prediction, kernels,
gradient checks, and Bayesian queries.

Every run takes a seed (default 0) and is reproducible: the same flags give
byte-identical output files. Exact simulation is the default everywhere;
``--shots`` opts into sampling. Exit codes: 0 success, 2 usage, input
validation or a file that cannot be read, decoded as UTF-8 or written, 3
domain failure (non-convergence, impossible evidence, failed gradient check),
1 internal error. Every error, argparse's usage errors included, is one line of JSON on
stderr; an exit-2 error about an input file starts with the file's path, or with the bad
field's path in it (``nodes[0].cpt: ...``). ``gradcheck`` differentiates every rotation
angle, CRY included. Model kinds are told apart in one place, ``_predict``, through which
``train`` and ``predict`` score.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .bayesian import Query, exact_inference, network_from_dict, rejection_inference
from .circuits import circuit_from_dict, real_amplitudes_ansatz, zz_feature_map
from .errors import CircuitError, DataError, ModelFormatError, NoSupportError, _read_json
from .gradients import GradientRequest, finite_difference, param_shift_gradient
from .kernels import kernel_matrix
from .models import (
    Dataset,
    VqcModel,
    VqrModel,
    load_model,
    pegasos_fit,
    qsvc_fit,
    save_model,
    svm_predict,
    vqc_fit,
    vqc_predict,
    vqr_fit,
    vqr_predict,
)
from .optimizers import OptimizerConfig
from .simulator import PauliObservable, derive_rng, derive_seed, estimator

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

GRADCHECK_TOLERANCE = 1e-4


class CliError(Exception):
    """Input problem that should exit with code 2."""


class DomainFailure(Exception):
    """Well-formed request that cannot be satisfied; exits with code 3."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ``CliError``; its subparsers share the class."""

    def error(self, message: str):
        raise CliError(message)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def read_dataset(path: str, require_label: bool):
    """CSV with header f0..f{d-1}[,label] -> (features, label strings or None)."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows:
        raise CliError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    has_label = header and header[-1] == "label"
    feature_names = header[:-1] if has_label else header
    expected = [f"f{i}" for i in range(len(feature_names))]
    if feature_names != expected or not feature_names:
        raise CliError(f"{path}: header must be f0..f{{d-1}}[,label], got {header}")
    if require_label and not has_label:
        raise CliError(f"{path}: missing required column 'label'")
    features = []
    labels: list[str] = []
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CliError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
        try:
            values = [float(v) for v in row[: len(feature_names)]]
        except ValueError as exc:
            raise CliError(f"{path}:{line_no}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise CliError(f"{path}:{line_no}: feature values must be finite")
        features.append(values)
        if has_label:
            labels.append(row[-1])
    if not features:
        raise CliError(f"{path}: no data rows")
    return np.asarray(features), labels if has_label else None


def _map_labels(raw: list[str]) -> tuple[np.ndarray, dict[str, int]]:
    """Binary labels by sorted string order: first -> -1, second -> +1."""
    unique = sorted(set(raw))
    if len(unique) != 2:
        raise CliError(f"classification needs exactly 2 label values, got {len(unique)}: {unique}")
    mapping = {unique[0]: -1, unique[1]: 1}
    return np.array([float(mapping[v]) for v in raw]), mapping


def _float_cell(value: float) -> str:
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommands ----------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.samples < 2 or args.samples % 2 != 0:
        raise CliError("--samples must be an even integer >= 2")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise CliError("--noise must be finite and nonnegative")
    rng = derive_rng(args.seed)
    rows = []
    # Row i sits at (sx pi/2, sy pi/2) for the i-th sign pair in turn: blobs alternate two
    # centres labelled sx, xor cycles four corners labelled sx * sy. Under the default
    # zz_feature_map(2, 2), (+-pi/4, +-pi/4) map to one state up to a global phase;
    # (+-pi/2, +-pi/2) overlap with fidelity 0.396.
    signs = [(1, 1), (-1, -1)] if args.kind == "blobs" else [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for i in range(args.samples):
        sx, sy = signs[i % len(signs)]
        jitter = rng.normal(0.0, args.noise, 2) if args.noise > 0 else np.zeros(2)
        rows.append([_float_cell(sx * math.pi / 2 + jitter[0]), _float_cell(sy * math.pi / 2 + jitter[1]),
                     sx if args.kind == "blobs" else sx * sy])
    _write_csv(args.out, ["f0", "f1", "label"], rows)
    _emit({"written": args.out, "samples": args.samples, "kind": args.kind})
    return EXIT_OK


def _optimizer_from(args) -> OptimizerConfig:
    try:
        return OptimizerConfig(
            kind=args.optimizer,
            max_iterations=args.max_iter,
            learning_rate=args.learning_rate,
            tolerance=args.tolerance,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _predict(model, features, shots: int | None, seed: int | None):
    """Labels (values for a vqr model), the score column's name and each row's score: the
    one place the CLI tells model kinds apart, for ``train`` and ``predict`` alike."""
    if isinstance(model, VqcModel):
        predicted, probs = vqc_predict(model, features, shots=shots, seed=seed)
        return predicted, "probability", probs[:, 1]
    if isinstance(model, VqrModel):
        _no_shots(shots, "a vqr model")
        predicted = vqr_predict(model, features)
        return predicted, "prediction", predicted
    predicted, decisions = svm_predict(model, features, shots=shots, seed=seed)
    return predicted, "decision", decisions


def _fit_once(args, data: Dataset, label_map, seed: int):
    """One fit: the model, its loss, its iteration count and its exact predictions on the
    training set, which also give an SVM's hinge loss."""
    feature_map = zz_feature_map(data.dimension, args.feature_reps)
    if args.model in ("vqc", "vqr"):
        ansatz = real_amplitudes_ansatz(data.dimension, args.ansatz_reps)
        config = _optimizer_from(args)
        if args.model == "vqc":
            model = vqc_fit(data, feature_map, ansatz, config, shots=args.shots, seed=seed)
        else:
            model = vqr_fit(data, feature_map, ansatz, optimizer_config=config, seed=seed)
    elif args.model == "qsvc":
        model = qsvc_fit(data, feature_map, C=args.svm_c, shots=args.shots, seed=seed)
        if not model.converged:
            raise DomainFailure("dual solver did not reach the KKT tolerance")
    else:  # pegasos
        model = pegasos_fit(data, feature_map, lam=args.pegasos_lambda, steps=args.pegasos_steps, seed=seed)
    if label_map is not None:
        model.label_map = label_map
    predicted, _, scores = _predict(model, data.features, None, None)
    if args.model in ("vqc", "vqr"):
        return model, min(model.loss_history), len(model.loss_history) - 1, predicted
    hinge = float(np.mean(np.maximum(0.0, 1.0 - data.labels * scores)))
    return model, hinge, args.pegasos_steps if args.model == "pegasos" else 0, predicted


def _no_shots(shots: int | None, what: str) -> None:
    if shots is not None:
        raise CliError(f"--shots is not supported for {what}, which runs in exact mode only")


def cmd_train(args) -> int:
    started = time.monotonic()
    if args.best_of < 1:
        raise CliError(f"--best-of must be at least 1, got {args.best_of}")
    if args.model in ("vqr", "pegasos"):
        _no_shots(args.shots, f"--model {args.model}")
    features, raw_labels = read_dataset(args.data, require_label=True)
    if args.model == "vqr":
        try:
            labels = np.array([float(v) for v in raw_labels])
        except ValueError as exc:
            raise CliError(f"regression labels must be numeric: {exc}") from exc
        label_map = None
    else:
        labels, label_map = _map_labels(raw_labels)
    data = Dataset(features, labels)

    best = None
    for attempt in range(args.best_of):
        seed = args.seed if args.best_of <= 1 else derive_seed(args.seed, attempt)
        fit = _fit_once(args, data, label_map, seed)
        if best is None or fit[1] < best[1]:
            best = fit
    model, loss, iterations, predicted = best

    save_model(model, args.out)
    metrics: dict = {"iterations": iterations, "final_loss": loss}
    if args.model == "vqr":
        metrics["train_mse"] = float(np.mean((predicted - data.labels) ** 2))
    else:
        metrics["train_accuracy"] = float(np.mean(predicted == data.labels))
    metrics["wall_seconds"] = round(time.monotonic() - started, 3)
    _emit(metrics)
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model_path)
    features, raw_labels = read_dataset(args.data, require_label=False)
    predicted, score_name, scores = _predict(model, features, args.shots, args.seed)
    mapping = getattr(model, "label_map", None) or {}
    if raw_labels is not None:  # a classifier's labels are its map's keys, or -1 and +1 without one
        try:
            truth = np.array([float(mapping[v] if mapping else v) for v in raw_labels])
            if not (isinstance(model, VqrModel) or (np.abs(truth) == 1.0).all()):
                raise ValueError("a label is not -1 or +1")
        except (KeyError, ValueError) as exc:
            raise CliError(f"labels in {args.data} do not match the model: {exc}") from exc
    inverse_map = {v: k for k, v in mapping.items()}

    rows = []
    for value, score in zip(predicted, scores):
        shown = inverse_map.get(int(value), value) if inverse_map else value
        rows.append([shown, _float_cell(score)])
    _write_csv(args.out, ["prediction", score_name], rows)

    metrics: dict = {"rows": len(rows), "written": args.out}
    if raw_labels is not None:
        if isinstance(model, VqrModel):
            metrics["mse"] = float(np.mean((predicted - truth) ** 2))
        else:
            metrics["accuracy"] = float(np.mean(predicted == truth))
    _emit(metrics)
    return EXIT_OK


def cmd_kernel(args) -> int:
    features, _ = read_dataset(args.data, require_label=False)
    feature_map = zz_feature_map(features.shape[1], args.feature_reps)
    K = kernel_matrix(feature_map, features, shots=args.shots, seed=args.seed).entries
    header = [str(j) for j in range(K.shape[1])]
    rows = [[_float_cell(v) for v in row] for row in K]
    _write_csv(args.out, header, rows)
    _emit({"written": args.out, "shape": list(K.shape)})
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    circuit = circuit_from_dict(_read_json(args.circuit))
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise CliError(f"--values: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise CliError(f"--values: every value must be finite, got {args.values!r}")
    else:
        values = [0.0] * circuit.num_parameters
    if len(values) != circuit.num_parameters:
        raise CliError(f"circuit takes {circuit.num_parameters} values, got {len(values)}")
    if args.observable is not None:
        observable = PauliObservable(((1.0, args.observable),))
    else:
        observable = PauliObservable.z_on(0, circuit.num_qubits)
    estimator(circuit, observable, values)  # refuses what it cannot simulate, parameters or none
    analytic = param_shift_gradient(GradientRequest(circuit, observable, values))
    numeric = finite_difference(lambda v: estimator(circuit, observable, v), values)
    deviation = float(np.max(np.abs(analytic - numeric), initial=0.0))
    _emit({"max_deviation": deviation, "parameters": circuit.num_parameters})
    if deviation >= GRADCHECK_TOLERANCE:
        raise DomainFailure(f"gradient deviation {deviation} exceeds {GRADCHECK_TOLERANCE}")
    return EXIT_OK


def _parse_assignment(text: str) -> tuple[str, int]:
    name, _, value = text.partition("=")
    if value not in ("0", "1") or not name:
        raise CliError(f"expected NAME=0 or NAME=1, got {text!r}")
    return name, int(value)


def cmd_bayes(args) -> int:
    network = network_from_dict(_read_json(args.network))
    target, target_value = _parse_assignment(args.query)
    evidence = dict(_parse_assignment(item) for item in args.evidence)
    query = Query(target, target_value, evidence)
    exact = exact_inference(network, query)
    estimate, accepted = rejection_inference(network, query, shots=args.shots, seed=args.seed)
    _emit({"estimate": estimate, "exact": exact, "accepted": accepted, "shots": args.shots})
    return EXIT_OK


# --- argument wiring ------------------------------------------------------


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer seed, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmlkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
        p.add_argument("--shots", type=int, default=None, help="sample instead of exact mode")

    p = sub.add_parser("gen-data", help="write a synthetic two-feature dataset")
    p.add_argument("kind", choices=["blobs", "xor"])
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit a model and write it as JSON")
    p.add_argument("--model", choices=["vqc", "vqr", "qsvc", "pegasos"], required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--feature-reps", type=int, default=2)
    p.add_argument("--ansatz-reps", type=int, default=2)
    p.add_argument("--optimizer", choices=["gd", "adam", "spsa"], default="adam")
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--svm-c", type=float, default=1.0)
    p.add_argument("--pegasos-lambda", type=float, default=0.01)
    p.add_argument("--pegasos-steps", type=int, default=1000)
    p.add_argument("--best-of", type=int, default=1, help="rerun across derived seeds, keep lowest loss")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to a dataset")
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("kernel", help="export the Gram matrix of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--feature-reps", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("gradcheck", help="compare shift-rule and finite-difference gradients")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--values", default=None, help="comma-separated parameter values")
    p.add_argument("--observable", default=None, help="Pauli string, default Z on qubit 0")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser(
        "bayes", help="query a Bayesian network exactly and by rejection sampling of its circuit"
    )
    p.add_argument("--network", required=True, help="network JSON file")
    p.add_argument("--query", required=True, help="NAME=BIT")
    p.add_argument("--evidence", action="append", default=[], help="NAME=BIT, repeatable")
    p.add_argument("--shots", type=int, default=20000)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_bayes)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:  # a file that cannot be opened: its path, then the reason
        return _fail(str(exc) if exc.filename is None else f"{exc.filename}: {exc.strerror}", EXIT_USAGE)
    except (CliError, DataError, ModelFormatError, CircuitError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    except (DomainFailure, NoSupportError) as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    except Exception as exc:  # pragma: no cover - unexpected
        return _fail(f"internal error: {exc}", EXIT_INTERNAL)


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
