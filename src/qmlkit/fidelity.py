"""Compute-uncompute fidelity between two parameterized state preparations.

The first circuit runs forward, the second's gates after it in reverse order
at negated angles (its inverse), and the probability of the all-zeros outcome
is the squared overlap of the two prepared states. Each circuit's angles are
evaluated against its own values, so parameter names never collide, and both
gate lists run as one state; shot mode draws the all-zeros count as one
binomial. This is the paper's fidelity primitive for any two circuits; kernel
matrices over one feature map take the overlaps of prepared states directly
(``kernels``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import Circuit, bound_angles
from .errors import CircuitError
from .simulator import _check_shots, derive_rng, run_ops


@dataclass(frozen=True)
class FidelityJob:
    """One fidelity evaluation: two circuits, their values, and shot settings."""

    circuit_a: Circuit
    circuit_b: Circuit
    values_a: Sequence[float] = ()
    values_b: Sequence[float] = ()
    shots: int | None = None
    seed: int | None = None


def compute_uncompute(job: FidelityJob) -> float:
    """All-zeros probability of circuit_a followed by inverse(circuit_b), in [0, 1].

    Exact mode returns |<phi_b|phi_a>|^2; an identical (circuit, values) pair
    short-circuits to exactly 1.0. Shot mode returns the raw all-zeros
    frequency of ``shots`` shots, Binomial(shots, F) / shots for the exact
    F, drawn from ``derive_rng(seed)`` as a kernel entry's is.
    """
    if job.circuit_a.num_qubits != job.circuit_b.num_qubits:
        raise CircuitError(f"fidelity widths differ: {job.circuit_a.num_qubits} vs {job.circuit_b.num_qubits}")
    shots = None if job.shots is None else _check_shots(job.shots)
    values_a, values_b = np.asarray(job.values_a, dtype=float), np.asarray(job.values_b, dtype=float)
    angles = np.concatenate([bound_angles(job.circuit_a, values_a), -bound_angles(job.circuit_b, values_b)[::-1]])
    if shots is None and job.circuit_a == job.circuit_b and np.array_equal(values_a, values_b):
        return 1.0
    state = run_ops(job.circuit_a.num_qubits, job.circuit_a.gates + job.circuit_b.gates[::-1], angles)
    fidelity = min(1.0, max(0.0, abs(complex(state[0])) ** 2))
    return float(fidelity if shots is None else derive_rng(job.seed).binomial(shots, fidelity) / shots)
