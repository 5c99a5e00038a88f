"""Compute-uncompute fidelity between two parameterized state preparations.

The first circuit runs forward, the inverse of the second runs after it, and
the probability of the all-zeros outcome is the squared overlap of the two
prepared states. Both circuits are bound before composing, so parameter
names never collide. This is the paper's fidelity primitive for any two
circuits; kernel matrices over one feature map do not build these composed
circuits but take the overlaps of prepared states directly (``kernels``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import Circuit
from .errors import CircuitError
from .simulator import index_to_bitstring, run, sampler


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
    frequency of a seeded sampler draw.
    """
    if job.circuit_a.num_qubits != job.circuit_b.num_qubits:
        raise CircuitError(
            f"fidelity widths differ: {job.circuit_a.num_qubits} vs {job.circuit_b.num_qubits}"
        )
    bound_a = job.circuit_a.bind(job.values_a)
    bound_b = job.circuit_b.bind(job.values_b)
    if (
        job.shots is None
        and job.circuit_a == job.circuit_b
        and np.array_equal(np.asarray(job.values_a, dtype=float), np.asarray(job.values_b, dtype=float))
    ):
        return 1.0
    composed = bound_a.compose(bound_b.inverse())
    if job.shots is None:
        amp0 = run(composed).amplitudes[0]
        return float(min(1.0, max(0.0, abs(amp0) ** 2)))
    distribution = sampler(composed, [], shots=job.shots, seed=job.seed)
    return distribution.probabilities.get(index_to_bitstring(0, composed.num_qubits), 0.0)
