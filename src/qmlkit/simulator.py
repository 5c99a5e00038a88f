"""Exact and shot-based statevector simulation.

Two execution primitives sit on top of the raw state: ``estimator`` returns
observable expectation values and ``sampler`` returns outcome probability
distributions. Both are pure functions of (circuit, values, shots, seed) and
safe to call concurrently. Measurement reads C-contiguous (B, 2^n) amplitude
rows, a block of prepared states at a time, as the shift rule and the networks
hold them; ``expectation`` and ``sample_state`` are its one-``Statevector`` cases.

One in-place gate loop (``_apply``) updates one state or a batch of B states
of one circuit: each gate's 2x2 target matrix (CX's is X, CZ's Z, CRY's RY)
acts on a basic-index slice of the states viewed as ``(2,) * n + (B,)``, with
(B,) rows of rotation entries. Circuits of only H, X, CX, CZ, RY and CRY gates
run in float64, others in complex128; only amplitudes that leave the library
(``run``'s ``Statevector``, ``shift_rule_jacobian``'s callback) are converted.

From 10 qubits, one state buffer is updated once per block of gates on at most
K = 4 consecutive qubits (``_blocks``). A block's 2^K x 2^K matrix per state is
the loop run on identity columns; each state's products with it are separate
BLAS calls of one shape, so batch rows equal their one-state runs byte for
byte. Runs of blocks within the lowest 15 qubits go over each row's
2^15-amplitude pieces in turn through two piece buffers, higher blocks a
piece's worth of columns at a time, and a gate spanning more than K qubits
runs the loop slice by slice: no other state-sized array is made.

Exact Z/I terms fold their Z signs into the squares of the state's halves, and
X/Y terms sum conj(psi) times a flipped view of psi. Shot-mode terms rotate one
copy per basis (H, or S-dagger then H) slice by slice, square real copies and
build CDFs in place, and read each outcome's eigenvalue from its bits' parity.
Streaming callers (the shift rule, the networks' rows) prepare states in blocks
of at most ``_BATCH_AMPLITUDES`` = 2^18 amplitudes (4 MiB).

Bit ordering is little-endian throughout: qubit 0 is the least significant
bit of a basis index, and outcome bitstrings put qubit 0 first (the most
significant qubit comes last). ``[X q0]`` on two qubits therefore produces
basis index 1 and bitstring "10".
"""

from __future__ import annotations

import itertools
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


def _outcome_dict(indices: np.ndarray, values: np.ndarray, num_qubits: int) -> dict[str, float]:
    """``{index_to_bitstring(i): v}`` over ``indices`` and ``values`` in order, with the
    strings built by numpy 2^12 outcomes at a time: one 4-byte character per (index,
    qubit), read as one fixed-width string per index."""
    outcomes: dict[str, float] = {}
    for start in range(0, len(indices), 1 << 12):
        chunk = slice(start, start + (1 << 12))
        bits = (indices[chunk, None] >> np.arange(num_qubits)) & 1
        keys = (bits + ord("0")).astype(np.uint32).view(f"U{num_qubits}")[:, 0].tolist()
        outcomes.update(zip(keys, values[chunk].tolist()))
    return outcomes


def bitstring_to_index(bits: str) -> int:
    """Inverse of ``index_to_bitstring``."""
    return sum((1 << q) for q, ch in enumerate(bits) if ch == "1")


@dataclass(frozen=True)
class Statevector:
    """2^n complex amplitudes of an n-qubit pure state, unit norm."""

    num_qubits: int
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return _probabilities(self.amplitudes)

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
# Kinds whose matrices are real: circuits of only these run in float64.
_REAL_KINDS = frozenset({"H", "X", "CX", "CZ", "RY", "CRY"})
# Per Pauli character, the rotations into its eigenbasis.
_MEASUREMENT_ROTATIONS = {"X": (_H,), "Y": ((1.0, 0.0, 0.0, -1j), _H)}
# Callers that stream many rows prepare them in blocks of at most this many
# amplitudes (and angles), and at least one row.
_BATCH_AMPLITUDES = 1 << 18
# Circuits of at least ``_FUSED_QUBITS`` qubits run as fused blocks of gates on
# at most ``_BLOCK_QUBITS`` consecutive qubits; narrower circuits run gate by
# gate, as they do not win back a block's 2^(2K) amplitudes per gate.
_BLOCK_QUBITS = 4
_FUSED_QUBITS = 10
# Rows per state of one product by a block on qubits 0 to K - 1: small enough
# that OpenBLAS runs it on one thread.
_CHUNK_ROWS = 256
# Blocks within the lowest 15 qubits run over each row's 2^15-amplitude pieces in turn.
_PIECE_QUBITS = 15


def _apply(view: np.ndarray, num_qubits: int, ops, scratch: np.ndarray | None = None) -> None:
    """Apply each ``(matrix, target, controls)`` of ``ops`` in place to a ``(2,) * n + (B,)``
    view of states: the 2x2 matrix acts on ``target`` where every (qubit, bit) control matches.

    Qubit q is axis n - 1 - q (of length 1 where a caller's slice fixed it); integer indices
    keep every slice a view. Two blocks at the start of the flat ``scratch`` (by default a
    new one the size of ``view``) hold a gate's intermediate products."""
    scratch = np.empty(view.size, view.dtype) if scratch is None else scratch
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
        parts = scratch[:2 * lo.size].reshape((2,) + lo.shape)
        lo_part = np.multiply(lo, m10, parts[0])
        if type(m00) is not np.ndarray and m00 == 0 and m11 == 0:
            np.multiply(hi, m01, lo)
            hi[...] = lo_part
        else:
            lo *= m00
            lo += np.multiply(hi, m01, parts[1])
            hi *= m11
            hi += lo_part


def _apply_sliced(rows: np.ndarray, num_qubits: int, ops, scratch: np.ndarray) -> None:
    """``_apply`` of ``ops`` in place on C-contiguous (B, 2^n) rows, an op and a slice at a time.
    A slice spans a group of rows, the op's qubits and as many of its lowest other qubits as
    keep its two blocks within the flat ``scratch``; its higher other qubits take each of their
    values in turn. The ops' real or imaginary entries round alike however the rows are sliced."""
    room, last = scratch.size // 2, num_qubits - 1
    for matrix, target, controls in ops:
        free = sorted(set(range(num_qubits)) - {target, *(q for q, _ in controls)})
        group = max(1, room >> len(free))
        fixed = free[(room // group).bit_length() - 1:]
        for start in range(0, len(rows), group):
            entries = tuple(m[start:start + group] if type(m) is np.ndarray else m for m in matrix)
            view = rows[start:start + group].T.reshape((2,) * num_qubits + (-1,))
            for bits in itertools.product((0, 1), repeat=len(fixed)):
                index = [slice(None)] * view.ndim
                for q, bit in zip(fixed, bits):
                    index[last - q] = slice(bit, bit + 1)
                _apply(view[tuple(index)], num_qubits, [(entries, target, controls)], scratch)


def _blocks(num_qubits: int, gates) -> list[tuple[int | None, list[int]]]:
    """Greedy commuting fusion of ``gates`` into ``(window, gate indices)`` blocks.

    A gate joins the first block, from the last one that touches its qubits
    on, whose qubits then still span at most ``_BLOCK_QUBITS``: no later block
    touches the gate's qubits, so the gate commutes past them. Otherwise it
    opens a new block. A block acts on the ``_BLOCK_QUBITS`` consecutive qubits
    from its window on: 0 when it fits there, else as high as the state allows.
    A gate spanning more qubits is its own block, with window None.
    """
    blocks: list[list] = []  # [qubits, low, high, gate indices]; low is None for a wide gate
    for k, gate in enumerate(gates):
        qubits = set(gate.qubits)
        low, high = min(qubits), max(qubits)
        if high - low >= _BLOCK_QUBITS:
            blocks.append([qubits, None, None, [k]])
            continue
        start = next((i for i in range(len(blocks) - 1, -1, -1) if blocks[i][0] & qubits), 0)
        for block in blocks[start:]:
            if block[1] is not None and max(high, block[2]) - min(low, block[1]) < _BLOCK_QUBITS:
                block[0] |= qubits
                block[1], block[2] = min(low, block[1]), max(high, block[2])
                block[3].append(k)
                break
        else:
            blocks.append([qubits, low, high, [k]])
    last = num_qubits - _BLOCK_QUBITS
    return [
        (None if low is None else 0 if high < _BLOCK_QUBITS else min(low, last), indices)
        for _, low, high, indices in blocks
    ]


def _block_matrices(window: int, block_ops, rows: int, dtype) -> np.ndarray:
    """(B, 2^K, 2^K) matrices of a block of ``(matrix, target, controls)`` ops on the K qubits
    from ``window`` on: ``_apply`` run on identity columns, transposed for window 0."""
    dim = 1 << _BLOCK_QUBITS
    columns = np.zeros((dim, dim, rows), dtype=dtype)
    columns[np.arange(dim), np.arange(dim)] = 1.0
    _apply(columns.reshape((2,) * _BLOCK_QUBITS + (dim, rows)), _BLOCK_QUBITS, [
        (matrix, target - window, tuple((q - window, bit) for q, bit in controls))
        for matrix, target, controls in block_ops
    ])
    return np.ascontiguousarray(columns.transpose((2, 1, 0) if window == 0 else (2, 0, 1)))


def _run_pieces(state: np.ndarray, run: list, buffers: np.ndarray) -> None:
    """Apply a ``run`` of ``(window, matrices)`` blocks to each contiguous piece of each row in
    turn: the first product reads the piece, the next ones alternate between the two
    ``buffers``, and the last writes the piece. Window 0 multiplies chunks of (2^K,) rows by
    the transposed matrix, a window w > 0 the matrix by each (2^K, 2^w) slice."""
    dim, pieces = 1 << _BLOCK_QUBITS, buffers[:, :state.shape[1]]
    for b, row in enumerate(state):
        for piece in row.reshape(-1, pieces.shape[1]):
            source = piece
            for k, (window, matrices) in enumerate(run):
                out = piece if 0 < k == len(run) - 1 else pieces[k % 2]
                if window == 0:
                    shape = (-1, min(_CHUNK_ROWS, piece.size // dim), dim)
                    np.matmul(source.reshape(shape), matrices[b], out=out.reshape(shape))
                else:
                    shape = (-1, dim, 1 << window)
                    np.matmul(matrices[b], source.reshape(shape), out=out.reshape(shape))
                source = out
            if len(run) == 1:
                piece[...] = pieces[0]


def _run_blocks(num_qubits: int, gates, ops: list, rows: int, dtype) -> np.ndarray:
    """``rows`` states of more than ``_BLOCK_QUBITS`` qubits, as (B, 2^n) ``dtype`` rows, from
    each gate's ``(matrix, target, controls)`` op. Blocks within a piece go to ``_run_pieces``
    in runs whose matrices hold at most half as many numbers as the states."""
    state = np.zeros((rows, 1 << num_qubits), dtype=dtype)
    state[:, 0] = 1.0
    buffers, run = np.empty((2, 1 << _PIECE_QUBITS), dtype=dtype), []
    for window, indices in _blocks(num_qubits, gates) + [(None, [])]:  # the empty last block ends a run
        block_ops = [ops[k] for k in indices]
        if window is not None and window + _BLOCK_QUBITS <= _PIECE_QUBITS:
            run.append((window, _block_matrices(window, block_ops, rows, dtype)))
            if (len(run) + 1) << (2 * _BLOCK_QUBITS + 1) <= 1 << num_qubits:
                continue
        if run:
            _run_pieces(state, run, buffers)
            run = []
        if window is None:
            _apply_sliced(state, num_qubits, block_ops, buffers[0])
        elif window + _BLOCK_QUBITS > _PIECE_QUBITS:
            matrices = _block_matrices(window, block_ops, rows, dtype)
            out = buffers[0].reshape(1 << _BLOCK_QUBITS, -1)
            for b, row in enumerate(state):
                for outer in row.reshape(-1, 1 << _BLOCK_QUBITS, 1 << window):
                    for start in range(0, 1 << window, out.shape[1]):
                        part = outer[:, start:start + out.shape[1]]
                        np.matmul(matrices[b], part, out=out)
                        part[...] = out
    return state


def run_ops(num_qubits: int, gates, angles):
    """Apply gates to |0...0> with pre-evaluated angles, as ``bound_angles`` gives them.

    A ``(G,)`` angle vector gives one state's ``(2^n,)`` amplitudes; a ``(B, G)`` table
    gives B states as C-contiguous ``(B, 2^n)`` rows. They are float64 when every gate is
    of ``_REAL_KINDS`` and complex128 otherwise. Angles of non-rotation gates are ignored.
    """
    if num_qubits > MAX_QUBITS:
        raise CircuitError(
            f"{num_qubits} qubits exceeds the dense statevector limit of {MAX_QUBITS}"
        )
    angles = np.asarray(angles, dtype=float)
    table = angles.ndim == 2
    half = np.divide(angles.T, 2.0, order="C")  # one C-ordered row of B half angles per gate
    cos, sin = np.cos(half), np.sin(half, out=half)
    fused, rows = num_qubits >= _FUSED_QUBITS, angles.shape[0] if table else 1
    # One state runs as the one-row table when fused; gate by gate, Python
    # scalars keep its per-gate arithmetic cheap.
    if not table:
        cos, sin = (cos[:, None], sin[:, None]) if fused else (cos.tolist(), sin.tolist())
    ops = ((_MATRICES[g.kind](c, s), g.targets[0], g.controls) for g, c, s in zip(gates, cos, sin))
    dtype = float if all(g.kind in _REAL_KINDS for g in gates) else complex
    if fused:
        states = _run_blocks(num_qubits, gates, list(ops), rows, dtype)
    else:
        states = np.zeros((1 << num_qubits, rows), dtype=dtype)
        states[0] = 1.0
        _apply(states.reshape((2,) * num_qubits + (rows,)), num_qubits, ops)
        states = np.ascontiguousarray(states.T)
    return states if table else states[0]


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
    amplitudes = run_ops(circuit.num_qubits, circuit.gates, bound_angles(circuit, ()))
    return Statevector(circuit.num_qubits, np.asarray(amplitudes, dtype=complex))


def _check_width(rows: np.ndarray, observable: PauliObservable) -> None:
    if rows.shape[-1] != 1 << observable.num_qubits:
        width = rows.shape[-1].bit_length() - 1
        raise CircuitError(f"observable width {observable.num_qubits} != state width {width}")


def _rotated(rows: np.ndarray, string: str) -> np.ndarray:
    """Copy of (B, 2^n) amplitude rows rotated, on each qubit, into the eigenbasis of its
    Pauli character, complex only for a Y, by ``_apply_sliced`` with a scratch of at most a
    piece: these exact or real-scaled products round alike in any layout."""
    out = rows.astype(complex if "Y" in string else rows.dtype)
    ops = [(m, q, ()) for q, ch in enumerate(string) for m in _MEASUREMENT_ROTATIONS.get(ch, ())]
    _apply_sliced(out, len(string), ops, np.empty(min(out.size, 1 << _PIECE_QUBITS), out.dtype))
    return out


def _signed_sums(values: np.ndarray, qubits) -> np.ndarray:
    """Each row's sum of (B, 2^n) ``values``, entry i times -1 per set bit of i on ``qubits``:
    one fold per qubit, highest first, takes the differences across that bit."""
    for q in sorted(qubits, reverse=True):
        pairs = values.reshape(len(values), -1, 2, 1 << q)
        values = pairs[:, :, 0] - pairs[:, :, 1]
    return values.reshape(len(values), -1).sum(axis=1)


def _squares(amplitudes: np.ndarray) -> np.ndarray:
    """real^2 + imag^2 of ``amplitudes`` in one new float array."""
    squares = np.square(amplitudes.real)
    if np.iscomplexobj(amplitudes):
        squares += np.square(amplitudes.imag)
    return squares


def _expectations(rows: np.ndarray, observable: PauliObservable) -> np.ndarray:
    """Exact <row|O|row> of each of (B, 2^n) real or complex amplitude rows. A Z/I term folds
    its Z signs into |row|^2, the first (highest) fold straight from the squares of the two
    halves across that qubit. A term with X or Y sums conj(psi_k) psi_(k with its X, Y bits
    flipped), a flipped view, with its Z and Y signs folded in, times (-i)^(Y count)."""
    _check_width(rows, observable)
    n, total = observable.num_qubits, np.zeros(len(rows))
    for coeff, string in (term for term in observable.terms if not term[1].strip("IZ")):
        qubits = [q for q, ch in enumerate(string) if ch == "Z"]
        if qubits:  # the first fold, across the highest Z qubit, from the halves' squares
            pairs = rows.reshape(len(rows), -1, 2, 1 << qubits.pop())
            squares = _squares(pairs[:, :, 0])
            squares -= _squares(pairs[:, :, 1])
        else:
            squares = _squares(rows)
        total += coeff * _signed_sums(squares, qubits)
        del squares  # freed before the next term's squares and any X/Y term's products
    view = rows.reshape((len(rows),) + (2,) * n)  # qubit q is axis n - q
    for coeff, string in (term for term in observable.terms if term[1].strip("IZ")):
        products = np.conjugate(view)
        products *= np.flip(view, [n - q for q, ch in enumerate(string) if ch in "XY"])
        signed = _signed_sums(products.reshape(rows.shape), [q for q, ch in enumerate(string) if ch in "YZ"])
        total += coeff * ((-1j) ** string.count("Y") * signed).real
    return total


def _probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """|amplitude|^2 in one new array; of real amplitudes, the bits of ``np.abs(a + 0j) ** 2``."""
    probs = np.abs(amplitudes)
    return np.square(probs, out=probs)


def _owned_probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """``_probabilities`` of amplitudes the caller owns, squared in place when float64."""
    return np.square(amplitudes, out=amplitudes) if amplitudes.dtype == float else _probabilities(amplitudes)


def _cdf(probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The CDF that ``Generator.choice`` searches for ``p=probs / probs.sum()``: the
    cumulative sum of the renormalised probabilities, divided by its last entry, in one new
    array or in ``out``; a caller passes ``out=probs`` only for an array it owns."""
    cdf = np.divide(probs, probs.sum(), out=out)
    np.cumsum(cdf, out=cdf)
    if not np.isfinite(cdf[-1]):  # ``choice`` rejects such p; a search would draw index 0
        raise CircuitError("outcome probabilities are not finite")
    cdf /= cdf[-1]
    return cdf


def _draws(cdf: np.ndarray, shots: int, seed: int | None, *task: int) -> np.ndarray:
    """Basis indices of ``shots`` draws from the (seed, *task) stream, searched in a ``_cdf``:
    the indices ``choice`` draws from that stream, without rebuilding the CDF per call."""
    if shots < 1:
        raise CircuitError("shots must be a positive integer")
    return cdf.searchsorted(derive_rng(seed, *task).random(shots), side="right")


def _parity(indices: np.ndarray, qubits) -> np.ndarray:
    """0 or 1 per basis index: the parity of its bits on ``qubits``."""
    parity = np.zeros_like(indices)
    for q in qubits:
        parity ^= indices >> q  # bit 0 of the XOR of the shifts is the bits' parity
    return parity & 1


def _sampled_expectations(rows: np.ndarray, observable: PauliObservable, shots: int, seeds) -> np.ndarray:
    """Shot-based expectation of each of (B, 2^n) real or complex rows: each term measured with the
    full shot budget, row b drawing from the (seeds[b], term index) stream, so results do not
    depend on evaluation order. Terms with the same X and Y characters share one rotated copy
    (none for Z/I terms) and one CDF per row. A drawn outcome's eigenvalue is +-1 by the
    parity of its bits on the term's non-identity qubits, folded into one array."""
    _check_width(rows, observable)
    if shots < 1:
        raise CircuitError("shots must be a positive integer")
    bases: dict[str, list[int]] = {}
    for term_index, (_, string) in enumerate(observable.terms):
        if string.strip("I"):
            bases.setdefault("".join(ch if ch in "XY" else "I" for ch in string), []).append(term_index)
    means = np.ones((len(observable.terms), len(rows)))  # an identity term reads 1 on every shot
    for basis, term_indices in bases.items():
        probs = _owned_probabilities(_rotated(rows, basis)) if basis.strip("I") else _probabilities(rows)
        for b, seed in enumerate(seeds):
            cdf = _cdf(probs[b], out=probs[b])
            for term_index in term_indices:
                qubits = [q for q, ch in enumerate(observable.terms[term_index][1]) if ch != "I"]
                means[term_index, b] = (1.0 - 2.0 * _parity(_draws(cdf, shots, seed, term_index), qubits)).mean()
        probs = cdf = None  # freed before the next basis's rotated copy
    return sum((coeff * mean for (coeff, _), mean in zip(observable.terms, means)), np.zeros(len(rows)))


def expectation(state: Statevector, observable: PauliObservable) -> float:
    """Exact <state|O|state> for a Pauli-sum observable."""
    return float(_expectations(state.amplitudes[None], observable)[0])


def _frequencies(probs: np.ndarray, num_qubits: int, shots: int, seed: int | None) -> QuasiDistribution:
    """Empirical outcome frequencies of ``shots`` seeded draws against ``probs``, an array
    the caller owns: its CDF is built in place."""
    values, counts = np.unique(_draws(_cdf(probs, out=probs), shots, seed), return_counts=True)
    return QuasiDistribution(_outcome_dict(values, counts / shots, num_qubits), shots)


def sample_state(state: Statevector, shots: int, seed: int | None = None) -> QuasiDistribution:
    """Empirical outcome frequencies from a seeded draw against |amp|^2."""
    return _frequencies(state.probabilities(), state.num_qubits, shots, seed)


def estimator(
    circuit: Circuit,
    observable: PauliObservable,
    values,
    shots: int | None = None,
    seed: int | None = None,
) -> float:
    """Expectation value of the bound circuit's output state.

    Exact mode (``shots`` None) evaluates the Pauli sum directly; shot mode
    measures each term from the stream of (seed, term index).
    """
    row = run_ops(circuit.num_qubits, circuit.gates, bound_angles(circuit, values))[None]
    if shots is None:
        return float(_expectations(row, observable)[0])
    return float(_sampled_expectations(row, observable, shots, [seed])[0])


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
    probs = _owned_probabilities(run_ops(circuit.num_qubits, circuit.gates, bound_angles(circuit, values)))
    if shots is None:
        outcomes = np.flatnonzero(probs > 0.0)
        return QuasiDistribution(_outcome_dict(outcomes, probs[outcomes], circuit.num_qubits), None)
    return _frequencies(probs, circuit.num_qubits, shots, seed)
