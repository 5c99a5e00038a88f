"""Exact and shot-based statevector simulation.

Two execution primitives sit on top of the raw state: ``estimator`` returns
observable expectation values and ``sampler`` returns outcome probability
distributions. Both are pure functions of (circuit, values, shots, seed) and
safe to call concurrently. Measurement reads C-contiguous (B, 2^n) amplitude
rows, a block of prepared states at a time, as the shift rule and the networks
hold them; ``expectation`` and ``sample_state`` are its one-``Statevector`` cases.

One in-place gate loop (``_apply``) updates one state or a batch of B states
of one circuit: each gate's 2x2 target matrix from ``_MATRICES``, the one
per-kind gate table (CX's is X, CZ's Z, CRY's RY), acts on a basic-index slice
of the states viewed as ``(2,) * n + (B,)``, with (B,) rows of rotation
entries. Circuits of only H, X, CX, CZ, RY and CRY gates run in float64, others
in complex128. The library's own readers, the shift rule's included, take the
rows in that dtype; only amplitudes that leave the library (``run``'s
``Statevector``, the public ``shift_rule_jacobian``'s callbacks) are
converted. The adjoint sweep's reverse pass (``_adjoint_terms``) un-applies
gates through the same loop and reads each rotation's generator P = i R(pi)
from ``_MATRICES``.

From 10 qubits, one state buffer is updated once per block of gates on at most
K = 4 consecutive qubits (``_blocks``). A block's 2^K x 2^K matrix per state is
the loop run on identity columns; each state's products with it are separate
BLAS calls of one shape, so batch rows equal their one-state runs byte for
byte. Runs of blocks within the lowest 15 qubits go over each row's
2^15-amplitude pieces in turn through two piece buffers, higher blocks a
piece's worth of columns at a time, and the loop splits a gate on more than
K qubits into slices whose products fit a piece buffer: no other state-sized
array is made. A qubit is |0> until its first gate, so blocks run on the
touched prefix: the first 2^m amplitudes of each row, m covering every qubit
touched so far (at least K).

Pauli terms are read from the amplitudes, exactly or by shots, without a dense
operator (``_expectations``, ``_sampled_expectations``). A row wider than a
piece is read a 2^15-amplitude piece at a time, with the piece its X/Y bits
pair it with, into two buffers of a piece: no readout holds a second state.
Shot readers that keep only class counts draw the counts, one binomial or
multinomial over the exact class probabilities; ``sampler`` and
``sample_state`` draw each shot from a CDF built in place (``_cdf``,
``_draws``), freed before their outcome strings are built. Streaming callers
(the shift rule, which runs every network's forward pass, and the adjoint
sweep) evaluate angles and prepare states in row blocks of at most
``_BATCH_AMPLITUDES`` = 2^18 amplitudes (4 MiB).

Shot-mode draws come from the streams of ``derive_rng(seed, *task)``, numpy's
``default_rng(SeedSequence((seed, *task)))``. ``_seeds`` and ``_streams`` derive
them for a whole array of task tuples at once: ``SeedSequence``'s 32-bit hash
runs in int64 lanes over the rows (``_hash``, ``_lanes``), and each row's PCG64 state is
set on one reused generator, with the draws of numpy's own seeding.
``derive_seed`` and ``derive_rng`` are their one-row calls.

Bit ordering is little-endian throughout: qubit 0 is the least significant
bit of a basis index, and outcome bitstrings put qubit 0 first (the most
significant qubit comes last). ``[X q0]`` on two qubits therefore produces
basis index 1 and bitstring "10".
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, bound_angles
from .errors import CircuitError

MAX_QUBITS = 24


# numpy's SeedSequence hash constants, and PCG64's LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
_M32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_STREAM_ROWS = 256  # rows hashed, and generator states made, a chunk at a time


def derive_rng(seed: int | None, *task: int) -> np.random.Generator:
    """Seedable, splittable RNG stream for (seed, task indices), the generator of
    ``default_rng(SeedSequence((seed, *task)))``.

    Streams derived from the same seed but different task tuples are
    statistically independent, so per-entry or per-term work can be
    scheduled in any order without changing results. ``None`` gives a
    fresh nondeterministic generator.
    """
    return np.random.default_rng() if seed is None else next(_streams(*(int(t) for t in (seed, *task))))


def derive_seed(seed: int | None, *task: int) -> int | None:
    """Integer child seed for (seed, task indices): the first uint64 that
    ``SeedSequence((seed, *task)).generate_state`` gives; None stays None."""
    return None if seed is None else int(_seeds(*(int(t) for t in (seed, *task)))[0])


@functools.cache
def _steps(width: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``_lanes``' (xor, multiplier) pairs: (2, steps, 4, 1) for the pool's first hash, 4 mixing rounds
    (row src unused) and each word past the fourth, and (2, 2 count, 1) for its output words."""
    a = [_INIT_A * pow(_MULT_A, k, 1 << 32) & _M32 for k in range(17 + 4 * max(width - 4, 0))]
    b = [_INIT_B * pow(_MULT_B, k, 1 << 32) & _M32 for k in range(2 * count + 1)]
    steps = [range(4)] + [[4 + 3 * src + d - (d >= src) for d in range(4)] for src in range(4)]
    steps += [range(4 * src, 4 * src + 4) for src in range(4, width)]
    pairs = np.array([[[a[k + i] for k in ks] for ks in steps] for i in (0, 1)])
    return pairs[..., None], np.array([b[:-1], b[1:]])[..., None]


def _xorshift(z: np.ndarray) -> np.ndarray:
    """The 32-bit word ``z mod 2^32`` xor-shifted right by 16, of a temporary ``z``."""
    z &= _M32
    return z ^ (z >> 16)


def _lanes(entropy: np.ndarray, count: int) -> np.ndarray:
    """The 2 count ``generate_state`` words of each column of (W >= 4, N) entropy words, as (2 count, N)
    int64: 32-bit arithmetic in int64 lanes. numpy's hashmix is ``_xorshift((v ^ x) * m)`` and its mix
    ``_xorshift(p * L - h * R)``."""
    (xor, mult), out = _steps(len(entropy), count)
    pool = _xorshift((entropy[:4] ^ xor[0]) * mult[0])
    for src in range(4):  # word src into each other word
        mixed = _xorshift(pool * _MIX_L - _xorshift((pool[src] ^ xor[1 + src]) * mult[1 + src]) * _MIX_R)
        mixed[src], pool = pool[src], mixed
    for src in range(4, len(entropy)):  # each word past the fourth into all 4
        pool = _xorshift(pool * _MIX_L - _xorshift((entropy[src] ^ xor[1 + src]) * mult[1 + src]) * _MIX_R)
    return _xorshift((pool[np.arange(2 * count) % 4] ^ out[0]) * out[1])


def _hash(values: tuple, count: int):
    """Yield (n, count) uint64, ``SeedSequence(row).generate_state(count, np.uint64)`` for each
    row of ``values``, ``_STREAM_ROWS`` rows at a time: ints, then from the first array on
    broadcast uint64 columns. The leading ints are split into 32-bit words once; the rows of a
    chunk whose values split into the same numbers of words (0 is one, 2^32 or more two) go
    through ``_lanes`` together."""
    lead = next((i for i, v in enumerate(values) if np.ndim(v)), len(values))
    if any(int(v) < 0 for v in values[:lead]):
        raise ValueError("expected non-negative integer")
    head = [int(v) >> s & _M32 for v in values[:lead] for s in range(0, max(int(v).bit_length(), 1), 32)]
    broadcast = np.broadcast_arrays(*(np.asarray(v, np.uint64) for v in values[lead:]))
    columns = [np.ravel(c).view(np.int64) for c in broadcast]  # the same 64 bits
    signature = np.zeros(len(columns[0]) if columns else 1, np.int64)
    for i, column in enumerate(columns):
        signature |= ((column >> 32 & _M32) + _M32) >> 32 << i  # 1 for a nonzero high word, in int64 ops
    for start in range(0, len(signature), _STREAM_ROWS):
        part = slice(start, start + _STREAM_ROWS)
        state = np.empty((len(signature[part]), 2 * count), np.int64)
        keys = np.flatnonzero(np.bincount(signature[part])).tolist()  # np.unique would import numpy.ma
        for key in keys:
            group = slice(None) if len(keys) == 1 else np.flatnonzero(signature[part] == key)
            words = [np.full(len(state[group]), w) for w in head]
            for i, column in enumerate(columns):
                words.append(column[part][group] & _M32)
                if key >> i & 1:
                    words.append(column[part][group] >> 32 & _M32)
            state[group] = _lanes(np.stack(words + [0 * words[0]] * (4 - len(words))), count).T  # 4+ words
        yield (state[:, 1::2] << 32 | state[:, 0::2]).view(np.uint64)  # word pairs, low word first


def _seeds(seed, *task) -> np.ndarray | None:
    """``derive_seed(seed, *row)`` as (N,) uint64 for each of the N rows of the broadcast ``task``
    columns. ``seed`` is one int for every row or a column of per-row seeds; None gives None."""
    if seed is None:
        return None
    return np.concatenate([np.zeros(0, np.uint64)] + [words[:, 0] for words in _hash((seed, *task), 1)])


def _streams(seed, *task):
    """Yield ``derive_rng(seed, *row)`` for each row of the broadcast ``task`` columns in turn, as one
    ``Generator`` whose state is set before each yield (draw before taking the next); ``seed`` as in
    ``_seeds``. A None seed yields one fresh nondeterministic generator without end."""
    if seed is None:
        yield from itertools.repeat(np.random.default_rng())
    bits = np.random.PCG64(0)
    generator = np.random.Generator(bits)
    for words in _hash((seed, *task), 4):
        for state_hi, state_lo, seq_hi, seq_lo in words.tolist():
            # PCG64's seeding: inc = 2 initseq + 1, then two LCG steps around adding initstate.
            inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
            state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield generator


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

    Qubit q is axis n - 1 - q; integer indices keep every slice a view. Two blocks at the start
    of the flat ``scratch`` (by default a new one the size of ``view``) hold a gate's products; a
    non-diagonal gate whose blocks do not fit is applied to each half of the view's first free
    axis (neither target nor control) longer than one, the row axis last, whose (B,) entries
    split with it. Entries round alike however the view is split."""
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
        if 2 * lo.size > scratch.size:
            axis = next(a for a, i in enumerate(index) if type(i) is slice and view.shape[a] > 1)
            cut = view.shape[axis] // 2
            for part in (slice(None, cut), slice(cut, None)):
                entries = tuple(m[part] if type(m) is np.ndarray and axis == view.ndim - 1 else m
                                for m in (m00, m01, m10, m11))
                _apply(view[(slice(None),) * axis + (part,)], num_qubits, [(entries, target, controls)], scratch)
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
    in runs whose matrices hold at most half as many numbers as the states. Qubits that no
    gate has touched yet are still |0>, so every block runs on the rows' first 2^m amplitudes,
    an m-qubit state: m covers the blocks run so far, and is at least ``_BLOCK_QUBITS``."""
    state = np.zeros((rows, 1 << num_qubits), dtype=dtype)
    state[:, 0] = 1.0
    buffers, run, m = np.empty((2, 1 << _PIECE_QUBITS), dtype=dtype), [], _BLOCK_QUBITS
    for window, indices in _blocks(num_qubits, gates) + [(None, [])]:  # the empty last block ends a run
        block_ops = [ops[k] for k in indices]
        touched = [q for k in indices for q in gates[k].qubits]
        top = 1 + max(touched, default=0) if window is None else window + _BLOCK_QUBITS
        if window is not None and window + _BLOCK_QUBITS <= _PIECE_QUBITS:
            run.append((window, _block_matrices(window, block_ops, rows, dtype)))
            m = max(m, top)
            if (len(run) + 1) << (2 * _BLOCK_QUBITS + 1) <= 1 << num_qubits:
                continue
        if run:
            _run_pieces(state[:, :1 << m], run, buffers)
            run = []
        m = max(m, top)
        prefix = state[:, :1 << m]
        if window is None:
            _apply(prefix.T.reshape((2,) * m + (rows,)), m, block_ops, buffers[0])
        elif window + _BLOCK_QUBITS > _PIECE_QUBITS:
            matrices = _block_matrices(window, block_ops, rows, dtype)
            out = buffers[0].reshape(1 << _BLOCK_QUBITS, -1)
            for b, row in enumerate(prefix):
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
    The row count picks the route: below ``_FUSED_QUBITS``, one row, a vector's or a one-row
    table's, runs gate by gate on Python-scalar entries, and the same bytes come out."""
    if num_qubits > MAX_QUBITS:
        raise CircuitError(
            f"{num_qubits} qubits exceeds the dense statevector limit of {MAX_QUBITS}"
        )
    angles = np.asarray(angles, dtype=float)
    half = np.divide(np.atleast_2d(angles).T, 2.0, order="C")  # one C-ordered row of B half angles per gate
    cos, sin = np.cos(half), np.sin(half, out=half)
    fused, rows = num_qubits >= _FUSED_QUBITS, half.shape[1]
    if rows == 1 and not fused:  # gate by gate, one row's Python scalars keep the per-gate arithmetic cheap
        cos, sin = cos.ravel().tolist(), sin.ravel().tolist()
    ops = ((_MATRICES[g.kind](c, s), g.targets[0], g.controls) for g, c, s in zip(gates, cos, sin))
    dtype = float if all(g.kind in _REAL_KINDS for g in gates) else complex
    if fused:
        states = _run_blocks(num_qubits, gates, list(ops), rows, dtype)
    else:
        states = np.zeros((1 << num_qubits, rows), dtype=dtype)
        states[0] = 1.0
        _apply(states.reshape((2,) * num_qubits + (rows,)), num_qubits, ops)
        states = np.ascontiguousarray(states.T)
    return states if angles.ndim == 2 else states[0]


def _adjoint_terms(num_qubits: int, gates, angles, observables, stops, read=None):
    """The adjoint sweep's reverse pass (Jones & Gacon 2020) over a (B, G) ``angles`` table: for
    each gate index in ``stops``, last first, yields it and the (B, O) Im<lambda_o|P|phi> of its
    generator P (a CRY's on its controls' subspace). phi, the states after the gate, and lambda_o,
    ``observables[o]`` applied to the final states and carried back to it, are the columns of one
    (1 + O, 2^n, B) stack, complex when the states are or an observable has a Y term. A term of
    lambda_o is phi copied through a view reversed on its X and Y axes, times its Z signs and
    (-i)^(Y count). Each gate after the earliest stop is un-applied from every column by one
    ``_apply`` at the negated angle, whose scratch of one column (at least a piece) splits the stack.
    ``read``, if given, is called on the (B, 2^n) final states first, before the stack is made."""
    n, first = num_qubits, min(stops)
    states = run_ops(n, gates, angles)
    if read is not None:
        read(states)
    complex_terms = any("Y" in string for o in observables for _, string in o.terms)
    stack = np.empty((1 + len(observables), 1 << n, len(angles)), dtype=complex if complex_terms else states.dtype)
    stack[0] = states.T
    del states
    scratch = np.empty(max(stack[0].size, 1 << _PIECE_QUBITS), stack.dtype)
    # Qubit q is axis n - q: ``_apply`` takes the column axis for an (n + 1)-th qubit's.
    view = stack.reshape(stack.shape[:1] + (2,) * n + stack.shape[2:])
    parts = stack.view(float).reshape(view.shape + (-1,))  # each amplitude's real (and imaginary) part
    term = scratch[:view[0].size].reshape(view[0].shape)
    for o, observable in enumerate(observables):
        view[1 + o] = 0.0
        for coeff, string in observable.terms:  # X, then Z, on each Y qubit: Y = -i Z X
            np.copyto(term, view[0][tuple(slice(None, None, 1 - 2 * (ch in "XY")) for ch in reversed(string))])
            _apply(term, n, [(_Z, q, ()) for q, ch in enumerate(string) if ch in "YZ"], scratch[:0])  # no products
            term *= coeff * (1, -1j, -1, 1j)[string.count("Y") % 4]
            view[1 + o] += term
    half = np.divide(angles.T, -2.0, order="C")  # each gate's row of negated half angles
    cos, sin = np.cos(half), np.sin(half, out=half)
    for g, gate in reversed(list(enumerate(gates))[first:]):
        if g in stops:
            yield g, _generator_terms(parts, gate, scratch.view(float))
        if g > first:
            _apply(view, n + 1, [(_MATRICES[gate.kind](cos[g], sin[g]), gate.targets[0], gate.controls)], scratch)


def _generator_terms(parts: np.ndarray, gate, products: np.ndarray) -> np.ndarray:
    """(B, O): Im<lambda_o|P|phi> of ``gate``'s generator P = i R(pi), per row of a ``(1 + O,) + (2,) * n
    + (B, 1 or 2)`` float view of the parts of columns phi, lambda_1, ...: each nonzero entry e at (i, j)
    of ``_MATRICES[kind](0, 1)`` adds e Re<lambda_i|phi_j> if real and -Im(e) Im<lambda_i|phi_j> if
    imaginary, of halves i and j across the target, each summed along a (B, half, 1 or 2) row of
    products in the flat ``products``."""
    index, last = [slice(None)] * parts.ndim, parts.ndim - 3  # qubit q is axis n - q
    for q, bit in gate.controls:
        index[last - q] = bit
    halves = []
    for bit in (0, 1):
        index[last - gate.targets[0]] = bit
        halves.append(parts[tuple(index)])
    shape = halves[0].shape[1:]  # (2,) * m + (B, 1 or 2)
    rows, m = products[:math.prod(shape)].reshape(shape[-2], -1, shape[-1]), len(shape) - 2
    out = rows.reshape(shape[-2:-1] + shape[:-2] + shape[-1:]).transpose(tuple(range(1, m + 1)) + (0, m + 1))
    terms = np.zeros((shape[-2], len(parts) - 1))
    entries = [(divmod(k, 2), e) for k, e in enumerate(_MATRICES[gate.kind](0.0, 1.0)) if e != 0]  # (i, j), e
    for o in range(len(parts) - 1):
        for (i, j), e in entries:
            if e.imag == 0:  # Re<a|b>: the sum of ar br + ai bi
                np.multiply(halves[i][1 + o], halves[j][0], out=out)
                terms[:, o] += e.real * rows.reshape(len(rows), -1).sum(axis=1)
            else:  # Im<a|b>: the sum of ar bi - ai br
                np.multiply(halves[i][1 + o], halves[j][0][..., ::-1], out=out)
                terms[:, o] += -e.imag * (rows[:, :, 0].sum(axis=1) - rows[:, :, 1].sum(axis=1))
    return terms


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


def _signed_sums(values: np.ndarray, qubits, spare: np.ndarray) -> np.ndarray:
    """Each row's sum of (B, 2^m) C-contiguous ``values``, entry i times -1 per set bit of i on
    ``qubits``: one fold per qubit, highest first, takes the differences across that bit, into
    ``spare`` (as many numbers) and then ``values`` in turn."""
    buffers = (spare.reshape(-1), values.reshape(-1))
    for k, q in enumerate(sorted(qubits, reverse=True)):
        pairs = values.reshape(len(values), -1, 2, 1 << q)
        out = buffers[k % 2][:pairs.size // 2].reshape(pairs[:, :, 0].shape)
        values = np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=out)
    return values.reshape(len(values), -1).sum(axis=1)


def _expectations(rows: np.ndarray, observable: PauliObservable) -> np.ndarray:
    """Exact <row|O|row> of each of (B, 2^n) real or complex amplitude rows, read in pieces of
    2^``_PIECE_QUBITS`` amplitudes (a whole shorter row). A Z/I term sums |psi_k|^2, a term with
    X or Y conj(psi_k) psi_(k with its X, Y bits flipped): piece p with piece p ^ (the high X/Y
    bits), read through a view flipped on the low ones. Each piece's values are added to or, for
    an odd count of high Z/Y bits in p, subtracted from one buffer of a piece per row; its low Z/Y
    signs then fold in, and the sum is times (-i)^(Y count). Z/I terms are read first. Rows wider
    than a piece are read one at a time."""
    _check_width(rows, observable)
    rows = np.asarray(rows, dtype=complex if np.iscomplexobj(rows) else float)  # the buffers' dtypes
    if len(rows) > 1 and observable.num_qubits > _PIECE_QUBITS:
        return np.concatenate([_expectations(row[None], observable) for row in rows])
    low, total = min(observable.num_qubits, _PIECE_QUBITS), np.zeros(len(rows))
    pieces = rows.reshape(len(rows), -1, 1 << low)
    shape = (len(rows),) + (2,) * low  # qubit q of a piece is axis low - q
    scratch = np.empty(2 * len(rows) << low, rows.dtype)  # two pieces of each row
    for coeff, string in sorted(observable.terms, key=lambda term: bool(term[1].strip("IZ"))):
        x, z = (sum(1 << q for q, ch in enumerate(string) if ch in chars) for chars in ("XY", "YZ"))
        buffers = scratch.view(rows.dtype if x else float).reshape((-1,) + shape)  # 4 float pieces of complex rows
        flip = (slice(None),) + tuple(slice(None, None, 1 - 2 * (x >> q & 1)) for q in reversed(range(low)))
        for p in range(pieces.shape[1]):
            out, piece = buffers[1 if p else 0], pieces[:, p].reshape(shape)
            if x:
                partner = pieces[:, p ^ x >> low].reshape(shape)[flip]
                np.multiply(np.conjugate(piece, out=out) if rows.dtype == complex else piece, partner, out=out)
            else:
                np.square(piece.real, out=out)
                if rows.dtype == complex:
                    out += np.square(piece.imag, out=buffers[-1])
            if p:
                (np.subtract if bin(p & z >> low).count("1") % 2 else np.add)(buffers[0], out, out=buffers[0])
        signed = _signed_sums(buffers[0].reshape(len(rows), -1), [q for q in range(low) if z >> q & 1], buffers[1])
        total += coeff * ((-1j) ** string.count("Y") * signed).real
    return total


def _probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """|amplitude|^2 in one new array; of real amplitudes, the bits of ``np.abs(a + 0j) ** 2``."""
    probs = np.abs(amplitudes)
    return np.square(probs, out=probs)


def _owned_probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """``_probabilities`` of amplitudes the caller owns, squared in place when float64."""
    return np.square(amplitudes, out=amplitudes) if amplitudes.dtype == float else _probabilities(amplitudes)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The CDFs that ``Generator.choice`` searches for ``p=row / row.sum()``, in place along the
    last axis of ``probs``, an array the caller owns: each row over its sum, summed up, over its
    last entry. Sums along the last axis take the bits of the one-row sums."""
    probs /= probs.sum(axis=-1, keepdims=True)
    np.cumsum(probs, axis=-1, out=probs)
    if not np.isfinite(probs[..., -1]).all():  # ``choice`` rejects such p; a search would draw index 0
        raise CircuitError("outcome probabilities are not finite")
    probs /= probs[..., -1:].copy()  # by a view of itself, numpy would divide a copy of probs
    return probs


def _check_shots(shots) -> int:
    """The shot-count rule, applied once by each sampling entry: an int or numpy integer from 1 to
    2^63 - 1, the largest count numpy draws, not a bool."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or not 1 <= shots < 1 << 63:
        raise CircuitError("shots must be a positive integer below 2^63")
    return int(shots)


def _draws(cdf: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Basis indices of ``shots`` draws from ``rng``, searched in a ``_cdf``: the indices ``choice``
    draws from that generator, without rebuilding the CDF per call."""
    return cdf.searchsorted(rng.random(shots), side="right")


def _sampled_expectations(rows: np.ndarray, observable: PauliObservable, shots: int, seeds) -> np.ndarray:
    """Shot-based expectation of each of (B, 2^n) real or complex rows: each term measured with the
    full shot budget. A shot of term P reads -1 with probability p_odd = (1 - <P>) / 2, from the
    term's exact ``_expectations``, so the term's mean is 1 - 2 Binomial(shots, p_odd) / shots: one
    draw, row b's from the (seeds[b], term index) stream (seeds itself if one int or None), so
    results do not depend on evaluation order. An identity term reads exactly 1."""
    _check_width(rows, observable)
    measured = [t for t, (_, string) in enumerate(observable.terms) if string.strip("I")]
    exact = [_expectations(rows, PauliObservable(((1.0, observable.terms[t][1]),))) for t in measured]
    odd = np.clip((1.0 - np.reshape(exact, (len(measured), len(rows))).T) / 2.0, 0.0, 1.0)
    column = seeds if np.ndim(seeds) == 0 else np.asarray(seeds, np.uint64)[:, None]
    streams = _streams(column, np.broadcast_to(measured, odd.shape))  # row b's terms, then row b + 1's
    counts = [rng.binomial(shots, p) for rng, p in zip(streams, odd.ravel().tolist())]
    means = np.ones((len(observable.terms), len(rows)))
    means[measured] = 1.0 - 2.0 * np.reshape(counts, odd.shape).T / shots
    return sum((coeff * mean for (coeff, _), mean in zip(observable.terms, means)), np.zeros(len(rows)))


def expectation(state: Statevector, observable: PauliObservable) -> float:
    """Exact <state|O|state> for a Pauli-sum observable."""
    return float(_expectations(state.amplitudes[None], observable)[0])


def _frequencies(draws: np.ndarray, num_qubits: int, shots: int) -> QuasiDistribution:
    """Empirical outcome frequencies of ``shots`` drawn basis indices. Callers free the CDF
    they were drawn from first, so that it is not alive beside the outcome strings."""
    values, counts = np.unique(draws, return_counts=True)
    return QuasiDistribution(_outcome_dict(values, counts / shots, num_qubits), shots)


def sample_state(state: Statevector, shots: int, seed: int | None = None) -> QuasiDistribution:
    """Empirical outcome frequencies from a seeded draw against |amp|^2."""
    shots = _check_shots(shots)
    return _frequencies(_draws(_cdf(state.probabilities()), shots, derive_rng(seed)), state.num_qubits, shots)


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
    return float(_sampled_expectations(row, observable, _check_shots(shots), seed)[0])


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
    shots = _check_shots(shots)
    draws = _draws(_cdf(probs), shots, derive_rng(seed))
    del probs  # the CDF, built in place
    return _frequencies(draws, circuit.num_qubits, shots)
