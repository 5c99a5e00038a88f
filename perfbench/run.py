"""qmlkit benchmark: run one workload for a fixed time, check its outputs, print its metrics.

Usage (from the repository root; needs only Python 3.10+ and numpy):
    python3 perfbench/run.py --workload kernel_svm --seed 0 --seconds 30 --trace 0

Each job runs in a fresh Python process (``job.py``), one at a time, with
BLAS threads capped at the number of usable cores. Jobs repeat on the same
seeded inputs while another fits in ``--seconds``. Each time is the fastest
of the run's jobs, since contention from other tenants of the host only ever
adds time; the report also gives the median and every sample. Outputs are
checked outside the timed region: the first job's outputs against numpy
oracles (``checks.py``), every later job's outputs for equality with the
first.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` plain and traced jobs alternate, and it carries the per-layer
metrics of the traced jobs plus the tracing overhead. The line before it is a
report with every stage time, the failure share, the accuracy, the
per-layer times in seconds and the machine facts.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench-work"
WORKLOADS = ("kernel_svm", "vqc_train", "wide_state")
JOB_TIMEOUT_S = 120
# Files each CLI stage writes; later jobs must reproduce the first job's bytes.
STAGE_FILES = {"kernel": "gram.csv", "train": "model.json", "predict": "predict.csv",
               "predict_shots": "predict_shots.csv"}
# Stage whose CLI output carries the workload's deterministic accuracy.
ACCURACY = {"kernel_svm": ("predict", "accuracy"), "vqc_train": ("train", "train_accuracy")}
# Largest statevector each workload simulates: 2^n complex128 amplitudes.
STATE_QUBITS = {"kernel_svm": 4, "vqc_train": 2, "wide_state": 20}
END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_job(workload: str, seed: int, workdir: Path, trace: bool = False) -> dict:
    """One job in a fresh process; ``job_s`` is its wall time from spawn to exit."""
    command = [sys.executable, str(HERE / "job.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir)]
    if trace:
        command.append("--trace")
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=_child_env(),
                              cwd=ROOT, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {JOB_TIMEOUT_S} s", "workdir": workdir, "traced": trace}
    job_s = time.perf_counter() - start
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}", "workdir": workdir, "traced": trace}
    report = json.loads(proc.stdout.splitlines()[-1])
    report.update(job_s=job_s, workdir=workdir, traced=trace)
    return report


def _fingerprint(name: str, stage: dict, workdir: Path) -> str:
    """Digest of a stage's outputs: exit code, CLI JSON minus wall time, API result, written file."""
    parts = [str(stage.get("rc"))]
    lines = stage.get("stdout", "").strip().splitlines()
    if lines:
        parsed = json.loads(lines[-1])
        parsed.pop("wall_seconds", None)
        parsed.pop("written", None)
        parts.append(json.dumps(parsed, sort_keys=True))
    parts.append(json.dumps(stage.get("result"), sort_keys=True))
    if name in STAGE_FILES and (workdir / STAGE_FILES[name]).is_file():
        parts.append((workdir / STAGE_FILES[name]).read_text(encoding="utf-8"))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def failures(workload: str, jobs: list, stage_names: list) -> list:
    """(job index, stage, message) for every failed operation, the output checks included."""
    import checks

    found = []
    reference = None
    for j, job in enumerate(jobs):
        if "error" in job:
            found += [(j, name, job["error"]) for name in stage_names or ["job"]]
            continue
        for name, stage in job["stages"].items():
            if stage["rc"] != 0:
                found.append((j, name, f"exit code {stage['rc']}: {stage.get('stderr', '')[-500:]}"))
        if reference is None:
            reference = {name: _fingerprint(name, stage, job["workdir"]) for name, stage in job["stages"].items()}
            try:
                found += [(j, name, msg) for name, msg in checks.CHECKS[workload](job["workdir"], job["stages"])]
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                found += [(j, name, f"outputs unreadable: {exc!r}") for name in stage_names]
            continue
        for name, stage in job["stages"].items():
            if _fingerprint(name, stage, job["workdir"]) != reference[name]:
                found.append((j, name, "outputs differ from the first job's"))
    return found


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _timing(values: list) -> dict:
    """A time as reported: the fastest sample, plus the median, the count and every sample."""
    return {"value": min(values, default=0.0), "median": _median(values), "unit": "s",
            "n": len(values), "samples": values}


def _src_lines() -> dict:
    lines = {path.stem: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((SRC / "qmlkit").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def _cache_bytes(level: int) -> int | None:
    """Size of the level-``level`` cache as ``getconf`` reports it; None where it is unknown."""
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def machine_facts(workload: str) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "state_bytes": 16 * 2 ** STATE_QUBITS[workload],
        "src_lines": _src_lines(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Run jobs for about ``seconds``; return (result line, report)."""
    start = time.perf_counter()
    jobs, rounds = [], []
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            jobs.append(run_job(workload, seed, work / f"job{len(jobs)}", trace=traced))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    stage_names = list(next((job["stages"] for job in jobs if "stages" in job), {}))
    found = failures(workload, jobs, stage_names)
    failed = len({(j, name) for j, name, _ in found})
    attempted = len(jobs) * max(1, len(stage_names))

    good = [job for job in jobs if "error" not in job]
    plain = [job for job in good if not job["traced"]]
    traced = [job for job in good if job["traced"]]
    report = {
        "workload": workload, "seed": seed, "jobs": len(jobs), "traced_jobs": len(traced),
        "fail_share": {"value": failed / attempted, "unit": "ratio"},
        "failures": [f"job {j} {name}: {msg}" for j, name, msg in found][:20],
        "setup_s": _timing([job["setup_s"] for job in good]),
        "job_s": _timing([job["job_s"] for job in plain]),
        "peak_rss_mb": {"value": _median([job["peak_rss_mb"] for job in plain]), "unit": "MB"},
        "machine": machine_facts(workload),
    }
    for name in stage_names:
        report[f"{name}_s"] = _timing([job["stages"][name]["s"] for job in plain])
    if workload in ACCURACY and plain and not found:
        stage, key = ACCURACY[workload]
        report["accuracy"] = {"value": json.loads(plain[0]["stages"][stage]["stdout"].splitlines()[-1])[key],
                              "unit": "ratio"}

    if trace:
        import spans

        per_job, details = [], []
        for job in traced:
            recorded = json.loads((job["workdir"] / "spans.json").read_text(encoding="utf-8"))
            metrics, detail = spans.layer_metrics(recorded)
            per_job.append(metrics)
            details.append(detail)
        report["traced_job_s"] = _timing([job["job_s"] for job in traced])
        overhead = report["traced_job_s"]["value"] - report["job_s"]["value"]
        metrics = {name: {"value": _median([m[name] for m in per_job]), "unit": unit}
                   for name, unit in spans.UNITS.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": spans.UNITS["trace.overhead_s"]}
        report["layers"] = details[0] if details else {}
    else:
        metrics = {name: {"value": report[name]["value"], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0 and bool(good), "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmlkit" / "__init__.py").is_file():
        print(f"qmlkit sources not found under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile up front so the first job's set-up does not include it.
    compileall.compile_dir(str(SRC / "qmlkit"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
