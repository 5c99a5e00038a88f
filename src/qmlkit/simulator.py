"""Exact and shot-based statevector simulation.

Two execution primitives sit on top of the raw state: ``estimator`` returns
observable expectation values and ``sampler`` returns outcome probability
distributions. Both are pure functions of (circuit, values, shots, seed) and
safe to call concurrently. The measurement halves (``expectation``,
``expectation_sampled``, ``sample_state``) also work on a ``Statevector``
directly, which lets gradient and network code reuse prepared states.

One in-place gate loop does all the state updates, for one state or a
batch of B states of one circuit. Every gate kind maps to a 2x2 target
matrix (CX to X, CZ to Z, CRY to RY), and its (qubit, bit) controls select a
basic-index slice of the states viewed as ``(2,) * n + (B,)``, so no index
arrays or caches are built. The batch axis is innermost, so a rotation's
matrix entries are (B,) rows that broadcast against every slice with no
per-gate reshape; fixed gates, and all gates of a single state, keep scalar
entries. Intermediate products go to one scratch buffer the size of the
states, so a gate allocates nothing: per-gate temporaries of half the state
made a fresh process fault in about 250 MB of new pages during its first
20-qubit circuit. Pauli terms reuse the loop on one (2^n, 1) copy of the
state per term: an exact expectation applies X, Y or Z; a sampled one
applies the H or S-dagger-then-H basis rotations and reads each drawn
outcome's eigenvalue from the parity of its index bits. ``bound_angles``
evaluates the angles and ``run_ops`` feeds the loop.

Callers that stream states (the shift rule, the networks' rows) prepare
them in blocks of at most ``_BATCH_AMPLITUDES`` = 2^18 amplitudes (4 MiB),
16 rows at 14 qubits. On a 2-core host a 14-qubit backward of 56 shifted
states took 0.64 s in such blocks, against 1.05 s and twice the memory in
one batch and 1.42 s in blocks of two rows.

Bit ordering is little-endian throughout: qubit 0 is the least significant
bit of a basis index, and outcome bitstrings put qubit 0 first (the most
significant qubit comes last). ``[X q0]`` on two qubits therefore produces
basis index 1 and bitstring "10".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, bound_angles
from .errors import CircuitError

MAX_QUBITS = 24


def derive_rng(seed: int | None, *task: int) -> np.random.Generator:
    """Seedable, splittable RNG stream for (seed, task indices).

    Streams derived from the same seed but different task tuples are
    statistically independent, so per-entry or per-term work can be
    scheduled in any order without changing results. ``None`` gives a
    fresh nondeterministic generator.
    """
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(t) for t in task)))


def derive_seed(seed: int | None, *task: int) -> int | None:
    """Integer child seed for (seed, task indices); None stays None."""
    if seed is None:
        return None
    seq = np.random.SeedSequence((int(seed),) + tuple(int(t) for t in task))
    return int(seq.generate_state(1, np.uint64)[0])


def index_to_bitstring(index: int, num_qubits: int) -> str:
    """Little-endian outcome string: character k holds qubit k's bit."""
    return "".join(str((index >> q) & 1) for q in range(num_qubits))


def bitstring_to_index(bits: str) -> int:
    """Inverse of ``index_to_bitstring``."""
    return sum((1 << q) for q, ch in enumerate(bits) if ch == "1")


@dataclass(frozen=True)
class Statevector:
    """2^n complex amplitudes of an n-qubit pure state, unit norm."""

    num_qubits: int
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def inner(self, other: "Statevector") -> complex:
        """The overlap <self|other>."""
        if self.num_qubits != other.num_qubits:
            raise CircuitError("statevector widths differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class PauliObservable:
    """Real-weighted sum of Pauli strings.

    Strings use the little-endian character order: character k acts on
    qubit k. All strings must share one length.
    """

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise CircuitError("observable needs at least one term")
        width = len(self.terms[0][1])
        for coeff, string in self.terms:
            if len(string) != width:
                raise CircuitError("all Pauli strings must have the same length")
            if any(ch not in "IXYZ" for ch in string):
                raise CircuitError(f"invalid Pauli string {string!r}")
            if not math.isfinite(coeff):
                raise CircuitError("observable coefficients must be finite")

    @property
    def num_qubits(self) -> int:
        return len(self.terms[0][1])

    @property
    def coefficient_bound(self) -> float:
        """Sum of |coefficients|; expectation values lie within +-bound."""
        return float(sum(abs(c) for c, _ in self.terms))

    @staticmethod
    def z_on(qubit: int, num_qubits: int) -> "PauliObservable":
        string = "".join("Z" if q == qubit else "I" for q in range(num_qubits))
        return PauliObservable(((1.0, string),))


@dataclass(frozen=True)
class QuasiDistribution:
    """Outcome probabilities from the sampler; ``shots`` is None in exact mode."""

    probabilities: dict[str, float]
    shots: int | None = None

    def to_dict(self) -> dict:
        return {
            "shots": "exact" if self.shots is None else self.shots,
            "probs": dict(sorted(self.probabilities.items())),
        }


_R = 1.0 / math.sqrt(2.0)
_H = (_R, _R, _R, -_R)
_X = (0.0, 1.0, 1.0, 0.0)
_Z = (1.0, 0.0, 0.0, -1.0)
# Per-kind 2x2 target matrix (m00, m01, m10, m11) from the cosine and sine
# of the gate's half angle; a controlled kind shares the matrix of the gate
# it controls.
_MATRICES = {
    "H": lambda c, s: _H, "X": lambda c, s: _X, "CX": lambda c, s: _X, "CZ": lambda c, s: _Z,
    "RX": lambda c, s: (c, -1j * s, -1j * s, c),
    "RY": lambda c, s: (c, -s, s, c), "CRY": lambda c, s: (c, -s, s, c),
    "RZ": lambda c, s: (c - 1j * s, 0.0, 0.0, c + 1j * s),
}
# Per Pauli character: the matrices that apply it, and the rotations into its eigenbasis.
_PAULIS = {"X": (_X,), "Y": ((0.0, -1j, 1j, 0.0),), "Z": (_Z,)}
_MEASUREMENT_ROTATIONS = {"X": (_H,), "Y": ((1.0, 0.0, 0.0, -1j), _H)}
# Callers that stream many rows prepare them in blocks of at most this many
# amplitudes (and angles), and at least one row.
_BATCH_AMPLITUDES = 1 << 18


def _apply(state: np.ndarray, num_qubits: int, ops) -> None:
    """Apply each ``(matrix, target, controls)`` of ``ops`` in place to a (2^n, B)
    state: the 2x2 matrix acts on ``target`` where every (qubit, bit) control matches.

    Qubit q is axis n - 1 - q of the ``(2,) * n + (B,)`` view; fixing axes
    with integers keeps every slice a view, even when all n qubit axes are
    fixed. Two slices of ``scratch`` hold the intermediate products.
    """
    view = state.reshape((2,) * num_qubits + state.shape[1:])
    scratch = np.empty_like(view)
    last = num_qubits - 1
    for (m00, m01, m10, m11), target, controls in ops:
        index = [slice(None)] * view.ndim
        for q, bit in controls:
            index[last - q] = bit
        index[last - target] = 0
        lo = view[tuple(index)]
        index[last - target] = 1
        hi = view[tuple(index)]
        # Diagonal (RZ, CZ, Z, S-dagger) and antidiagonal (X, CX, Y) matrices
        # skip the zero products; ``lo_part`` is the old lo's share of the new
        # hi. Only scalar entries are compared: both off-diagonal entries, and
        # both diagonal ones, are scalars or both are (B,) rows.
        if type(m01) is not np.ndarray and m01 == 0 and m10 == 0:
            for half, factor in ((lo, m00), (hi, m11)):
                if type(factor) is not np.ndarray and factor == 1:
                    continue
                # numpy rounds an in-place complex product of one element
                # without the fused multiply-add it uses on longer arrays; out
                # of place, a lone amplitude (a 1-qubit state) rounds as in a batch.
                if half.size == 1:
                    half[...] = half * factor
                else:
                    half *= factor
            continue
        # Contiguous blocks of scratch with lo's shape: one fixed axis per
        # control, after the axis that picks the block.
        block = (0,) * len(controls)
        lo_part = np.multiply(lo, m10, scratch[(0,) + block])
        if type(m00) is not np.ndarray and m00 == 0 and m11 == 0:
            np.multiply(hi, m01, lo)
            hi[...] = lo_part
        else:
            lo *= m00
            lo += np.multiply(hi, m01, scratch[(1,) + block])
            hi *= m11
            hi += lo_part


def run_ops(num_qubits: int, gates, angles):
    """Apply gates to |0...0> with pre-evaluated angles, as ``bound_angles`` gives them.

    A ``(G,)`` angle vector gives one ``Statevector``; a ``(B, G)`` table
    gives B states as C-contiguous ``(B, 2^n)`` amplitude rows. Angles of
    non-rotation gates are ignored.
    """
    if num_qubits > MAX_QUBITS:
        raise CircuitError(
            f"{num_qubits} qubits exceeds the dense statevector limit of {MAX_QUBITS}"
        )
    angles = np.asarray(angles, dtype=float)
    table = angles.ndim == 2
    half = np.ascontiguousarray(angles.T) / 2.0  # one row of B half angles per gate
    cos, sin = np.cos(half), np.sin(half)
    if not table:  # one state: Python scalars keep the per-gate arithmetic cheap
        cos, sin = cos.tolist(), sin.tolist()
    state = np.zeros((1 << num_qubits, angles.shape[0] if table else 1), dtype=complex)
    state[0] = 1.0
    ops = (
        (_MATRICES[g.kind](c, s), g.targets[0], g.controls)
        for g, c, s in zip(gates, cos, sin)
    )
    _apply(state, num_qubits, ops)
    return np.ascontiguousarray(state.T) if table else Statevector(num_qubits, state[:, 0])


def _row_blocks(num_qubits: int, num_gates: int, rows: int) -> list[slice]:
    """Slices that split ``rows`` states into blocks of at least one row, whose
    states and angle table hold at most ``_BATCH_AMPLITUDES`` numbers each."""
    step = max(1, _BATCH_AMPLITUDES // max(1 << num_qubits, num_gates))
    return [slice(start, start + step) for start in range(0, rows, step)]


def run(circuit: Circuit) -> Statevector:
    """Apply all gates in order to |0...0> and return the final state."""
    if circuit.parameters:
        names = ", ".join(p.name for p in circuit.parameters)
        raise CircuitError(f"cannot run circuit with unbound parameters: {names}")
    return run_ops(circuit.num_qubits, circuit.gates, bound_angles(circuit, ()))


def _check_width(state: Statevector, observable: PauliObservable) -> None:
    if observable.num_qubits != state.num_qubits:
        raise CircuitError(
            f"observable width {observable.num_qubits} != state width {state.num_qubits}"
        )


def _rotated(state: Statevector, string: str, matrices: dict) -> np.ndarray:
    """Copy of the amplitudes with ``matrices[ch]`` applied, in order, on each qubit."""
    out = state.amplitudes.reshape(-1, 1).copy()
    ops = ((m, q, ()) for q, ch in enumerate(string) for m in matrices.get(ch, ()))
    _apply(out, state.num_qubits, ops)
    return out[:, 0]


def expectation(state: Statevector, observable: PauliObservable) -> float:
    """Exact <state|O|state> for a Pauli-sum observable."""
    _check_width(state, observable)
    total = 0.0 + 0.0j
    for coeff, string in observable.terms:
        total += coeff * np.vdot(state.amplitudes, _rotated(state, string, _PAULIS))
    return float(total.real)


def expectation_sampled(
    state: Statevector,
    observable: PauliObservable,
    shots: int,
    seed: int | None = None,
) -> float:
    """Shot-based expectation: each term measured in its own rotated basis.

    Every term gets the full shot budget and an RNG stream derived from
    (seed, term index), so results are deterministic per seed and
    independent of evaluation order. A drawn outcome's eigenvalue is +-1 by
    the parity of its bits on the term's non-identity qubits.
    """
    _check_width(state, observable)
    if shots < 1:
        raise CircuitError("shots must be a positive integer")
    dim = state.amplitudes.shape[0]
    total = 0.0
    for term_index, (coeff, string) in enumerate(observable.terms):
        if all(ch == "I" for ch in string):
            total += coeff
            continue
        probs = np.abs(_rotated(state, string, _MEASUREMENT_ROTATIONS)) ** 2
        outcomes = derive_rng(seed, term_index).choice(dim, size=shots, p=probs / probs.sum())
        parity = np.zeros(shots, dtype=np.int64)
        for qubit, ch in enumerate(string):
            if ch != "I":
                parity ^= (outcomes >> qubit) & 1
        total += coeff * float((1.0 - 2.0 * parity).mean())
    return total


def sample_indices(state: Statevector, shots: int, seed: int | None = None) -> np.ndarray:
    """Basis indices of ``shots`` seeded draws against |amp|^2."""
    if shots < 1:
        raise CircuitError("shots must be a positive integer")
    probs = state.probabilities()
    return derive_rng(seed).choice(probs.shape[0], size=shots, p=probs / probs.sum())


def sample_state(state: Statevector, shots: int, seed: int | None = None) -> QuasiDistribution:
    """Empirical outcome frequencies from a seeded draw against |amp|^2."""
    outcomes = sample_indices(state, shots, seed)
    values, counts = np.unique(outcomes, return_counts=True)
    freqs = {
        index_to_bitstring(int(i), state.num_qubits): float(c) / shots
        for i, c in zip(values, counts)
    }
    return QuasiDistribution(freqs, shots)


def estimator(
    circuit: Circuit,
    observable: PauliObservable,
    values,
    shots: int | None = None,
    seed: int | None = None,
) -> float:
    """Expectation value of the bound circuit's output state.

    Exact mode (``shots`` None) evaluates the Pauli sum directly; shot mode
    delegates to ``expectation_sampled``.
    """
    state = run_ops(circuit.num_qubits, circuit.gates, bound_angles(circuit, values))
    if shots is None:
        return expectation(state, observable)
    return expectation_sampled(state, observable, shots, seed)


def sampler(
    circuit: Circuit,
    values,
    shots: int | None = None,
    seed: int | None = None,
) -> QuasiDistribution:
    """Outcome distribution of the bound circuit.

    Exact mode reports squared amplitude magnitudes for every nonzero
    outcome; shot mode reports empirical frequencies from a seeded draw.
    """
    state = run_ops(circuit.num_qubits, circuit.gates, bound_angles(circuit, values))
    if shots is None:
        probs = state.probabilities()
        return QuasiDistribution(
            {
                index_to_bitstring(i, state.num_qubits): float(p)
                for i, p in enumerate(probs)
                if p > 0.0
            },
            None,
        )
    return sample_state(state, shots, seed)
