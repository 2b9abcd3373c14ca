"""Bidirectional GRU sentence encoder with temporal max pooling.

A sentence of T tokens becomes a d = 2h vector: run one GRU left-to-right
and another right-to-left from zero states, concatenate the two h-vectors at
each position, then take the columnwise max over positions.  Word vectors
come from a frozen EmbeddingTable and never join the gradient tape.

The recurrence has one implementation, ``bigru_forward``: plain numpy over
a batch in packed-sequence layout (``pack_batch``), with a leading axis
over parameter points, so that a finite-difference audit evaluates every
perturbed parameter set in one call.  Packing sorts the rows longest first
and lays out only the real tokens, step by step, so the rows still active
at any step are a prefix of the sorted rows and no pad slot is ever
computed.  That layout is what makes a row equal its sentence encoded
alone:

  - each step updates only the prefix of active rows, so the backward scan
    enters each row with a genuine zero state, and
  - max pooling runs over each row's own steps, so nothing but a real
    hidden state can win the max.

The input projections and biases of all three gates at all real tokens
are one product; only the recurrent products stay in the time loop.
``bigru`` records that kernel at one parameter point as a single tape node,
rows in input order, whose backward pass is hand-written backpropagation
through time over the same prefixes.  ``encode_batch``, the training path,
is pack_batch in the parameters' dtype, then that node, which with the
loss's node is all a training step records.

Inference runs the same kernel untaped in float64: ``encode_many`` runs
batches of up to INFERENCE_CHUNK rows, and ``encode`` is its row for a
one-sentence list.  A row's float32 value depends on which rows share its
batch (BLAS blocks the products by batch size, by up to about 1e-7), while
in float64 batched and one-row rows agree to about 4e-16; so a sentence
scores the same whether it was encoded alone or in a batch.  Training,
inference and the audit share one forward pass.

The chunks are independent, so from a hidden width of PARALLEL_MIN_HIDDEN
on, ``encode_many`` packs and encodes two or more chunks on two threads
(numpy releases the GIL inside BLAS and its ufunc loops) and holds
OpenBLAS to one thread through its C API until they end, restoring its
count after.  Without that limit the pool's threads and OpenBLAS's compete
for the CPUs and the pool loses.  When OpenBLAS's thread count cannot be
set, the chunks run one after another, as they do below the crossover.
Float64 GEMMs of 32 or more rows can differ by about 1e-14 between one and
two BLAS threads; at hidden 150 the rows moved by at most 4.4e-16 against
the sequential path.

The 18 parameter tensors live in one flat buffer, ``EncoderParams.flat``,
in checkpoint order; ``layout`` is the one place that says where each
tensor sits, and splits a buffer with leading axes into the 18 arrays.
The tape node's one input is that buffer and its backward pass returns one
flat gradient, so the optimizer, the audit and the checkpoint files each
handle a single vector.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import numerics as nx
from .numerics import ShapeError, Tensor
from .text_data import ConfigError, EmbeddingTable

GATE_NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")
DIRECTIONS = ("forward", "backward")


class Layout(NamedTuple):
    """Where each encoder tensor sits in the flat parameter buffer: in
    named() order, each tensor's entries in C order."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]  # start of each tensor, then the buffer length

    @property
    def size(self) -> int:
        return self.offsets[-1]

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of a (..., size) array as the 18 tensors in named() order,
        each keeping the leading axes."""
        lead = flat.shape[:-1]
        return tuple(flat[..., lo:hi].reshape(lead + shape)
                     for shape, lo, hi in zip(self.shapes, self.offsets, self.offsets[1:]))

    def name_at(self, k: int) -> str:
        """Name of the tensor holding entry k of the buffer."""
        return self.names[bisect.bisect_right(self.offsets, k) - 1]


def layout(hidden: int, input_dim: int) -> Layout:
    """The flat buffer's layout: forward then backward direction, each in
    GATE_NAMES order, with W_* (hidden, input_dim), U_* (hidden, hidden)
    and b_* (hidden,)."""
    shape = {"W": (hidden, input_dim), "U": (hidden, hidden), "b": (hidden,)}
    names = tuple(f"{direction}.{gate}" for direction in DIRECTIONS for gate in GATE_NAMES)
    shapes = tuple(shape[gate[0]] for _ in DIRECTIONS for gate in GATE_NAMES)
    return Layout(names, shapes, (0, *itertools.accumulate(math.prod(s) for s in shapes)))


@dataclass(frozen=True)
class EncoderParams:
    """The encoder's 18 tensors as views of one flat buffer, ``flat``, laid
    out by layout(hidden, input_dim).  The views are built once per
    instance."""

    flat: Tensor
    hidden: int
    input_dim: int

    def __post_init__(self):
        if self.hidden < 1 or self.input_dim < 1:
            raise ConfigError(f"hidden and input_dim must be positive, got {self.hidden}, {self.input_dim}")
        if self.flat.shape != (self.layout.size,):
            raise ShapeError(f"expected a flat buffer of {self.layout.size} values, got shape {self.flat.shape}")

    @cached_property
    def layout(self) -> Layout:
        return layout(self.hidden, self.input_dim)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The 18 read-only tensor views, in named() order."""
        return self.layout.split(self.flat.values)

    @cached_property
    def point_arrays(self) -> tuple[np.ndarray, ...]:
        """The same views with a leading point axis of one, as
        bigru_forward takes them."""
        return self.layout.split(self.flat.values[None])

    @cached_property
    def point_arrays64(self) -> tuple[np.ndarray, ...]:
        """point_arrays upcast to float64, once per instance, for inference."""
        return self.layout.split(self.flat.values.astype(np.float64, copy=False)[None])

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden

    @property
    def dtype(self):
        return self.flat.dtype

    def named(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(name, view) pairs in the fixed checkpoint order."""
        return tuple(zip(self.layout.names, self.arrays))

    @classmethod
    def initialize(cls, input_dim: int, hidden: int, seed: int = 0, dtype=None) -> "EncoderParams":
        """Weights uniform in [-k, k] with k = 1/sqrt(hidden); zero biases.

        Draw order is the buffer's (forward then backward, gates z, r, h),
        so a seed pins every parameter bit.
        """
        if hidden < 1 or input_dim < 1:
            raise ConfigError(f"hidden and input_dim must be positive, got {hidden}, {input_dim}")
        k = 1.0 / np.sqrt(hidden)
        rng = np.random.default_rng(seed)
        parts = [np.zeros(shape) if len(shape) == 1 else rng.uniform(-k, k, size=shape)
                 for shape in layout(hidden, input_dim).shapes]
        flat = np.concatenate([p.ravel() for p in parts])
        return cls(flat=nx.tensor(flat, dtype=dtype or nx.DEFAULT_DTYPE), hidden=hidden, input_dim=input_dim)


class PackedBatch(NamedTuple):
    """A batch's real tokens in time-major packed layout.

    Rows are sorted by length, longest first; the sort is stable, so tied
    rows keep their input order.  Step t has sizes[t] active rows, always
    the first sizes[t] sorted rows, and their word vectors are
    X[offsets[t]:offsets[t + 1]] in sorted-row order.  X holds exactly the
    N real tokens of the batch: there are no pad slots.
    """

    X: np.ndarray              # (N, n) word vectors
    sizes: tuple[int, ...]     # (T,) rows active at each step, non-increasing
    order: np.ndarray          # (B,) input row of each sorted row
    offsets: tuple[int, ...]   # (T + 1,) bounds of each step's block of X

    def steps(self, row: int) -> np.ndarray:
        """Packed positions of input row ``row``'s tokens, in step order."""
        j = int(np.flatnonzero(self.order == row)[0])
        return np.array([off + j for off, active in zip(self.offsets, self.sizes) if active > j])


def pack_batch(sentences, table: EmbeddingTable, dtype) -> PackedBatch:
    """The word vectors of a batch's real tokens, packed time-major, with
    one table lookup per distinct token."""
    if len(sentences) == 0:
        raise ValueError("cannot encode an empty batch")
    lengths = [len(s) for s in sentences]
    if min(lengths) == 0:
        raise ValueError(f"cannot encode an empty sentence (batch row {lengths.index(0)})")
    order = sorted(range(len(sentences)), key=lengths.__getitem__, reverse=True)
    rows = [sentences[i] for i in order]
    sizes, n = [], len(rows)
    for t in range(len(rows[0])):
        while len(rows[n - 1]) <= t:
            n -= 1
        sizes.append(n)
    index: dict[str, int] = {}
    ids = [index.setdefault(row[t], len(index)) for t, active in enumerate(sizes) for row in rows[:active]]
    vectors = np.array([table.lookup(tok) for tok in index], dtype=dtype)
    return PackedBatch(X=vectors.take(ids, axis=0), sizes=tuple(sizes), order=np.array(order),
                       offsets=(0, *itertools.accumulate(sizes)))


def _gru_scan(packed: PackedBatch, w, order) -> tuple[np.ndarray, np.ndarray]:
    """One direction of bigru_forward, over the steps in ``order``: the
    (P, N, h) packed states and the (P, N, 3h) gate activations z | r | h~
    that its backward pass reads."""
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = w
    h = b_z.shape[-1]
    # input projections and biases of every gate at every real token in one
    # product; the loop overwrites each step's block with its activations
    gates = packed.X @ np.concatenate([W_z, W_r, W_h], axis=-2).swapaxes(-1, -2)
    gates += np.concatenate([b_z, b_r, b_h], axis=-1)[:, None]
    # The loop takes sigmoid(x) = (1 + tanh(x / 2)) / 2, several times faster
    # than scipy's expit, so the z and r pre-activations are halved here and
    # through u_zr; halving is exact in floating point.
    gates[..., :2 * h] *= 0.5
    # C-contiguous: the step products run faster than on transposed views
    u_zr = np.multiply(np.concatenate([U_z, U_r], axis=-2).swapaxes(-1, -2), 0.5, order="C")
    u_h = U_h.swapaxes(-1, -2).copy()
    off = packed.offsets
    # a row's state stays zero until the row's first step
    state = np.zeros((len(gates), packed.sizes[0], h), dtype=gates.dtype)
    states = np.empty(gates.shape[:-1] + (h,), dtype=gates.dtype)
    for t in order:
        lo, hi = off[t], off[t + 1]
        s = state[:, :hi - lo]
        zr = gates[:, lo:hi, :2 * h]
        zr += s @ u_zr
        np.tanh(zr, out=zr)
        zr += 1.0
        zr *= 0.5
        z, r = zr[..., :h], zr[..., h:]
        h_cand = np.tanh(gates[:, lo:hi, 2 * h:] + (r * s) @ u_h, out=gates[:, lo:hi, 2 * h:])
        # the blend (1 - z) s + z h~ as s + z (h~ - s), one array operation fewer
        step = h_cand - s
        step *= z
        np.add(s, step, out=states[:, lo:hi])
        s[...] = states[:, lo:hi]
    return states, gates


def _max_pool(packed: PackedBatch, states: np.ndarray) -> np.ndarray:
    """Each sorted row's columnwise max over its real steps, (P, B, 2h)."""
    off = packed.offsets
    best = states[:, :off[1]].copy()
    for t in range(1, len(packed.sizes)):
        lo, hi = off[t], off[t + 1]
        np.maximum(best[:, :hi - lo], states[:, lo:hi], out=best[:, :hi - lo])
    return best


def _max_pool_grads(packed: PackedBatch, states: np.ndarray, best: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The (N, 2h) gradient at one point's packed states: each pooled
    entry's gradient goes to the earliest step of its row that attains the
    max, as in maxpool_time.  ``best`` is _max_pool's output at that point
    and g the (B, 2h) gradient of the pooled rows in input order."""
    off = packed.offsets
    first = np.empty(best.shape, dtype=np.intp)
    # latest step first, so that the earliest step attaining the max is written last
    for t in range(len(packed.sizes) - 1, -1, -1):
        lo, hi = off[t], off[t + 1]
        np.copyto(first[:hi - lo], np.arange(lo, hi)[:, None], where=states[lo:hi] == best[:hi - lo])
    d_states = np.zeros(states.shape, dtype=np.result_type(states, g))
    np.put_along_axis(d_states, first, g[packed.order], axis=0)
    return d_states


def bigru_forward(packed: PackedBatch, weights):
    """The BiGRU recurrence and max pooling as plain numpy, at P parameter
    points at once.

    ``weights`` is the 18 arrays in named() order carrying a leading point
    axis, as Layout.split gives them for a (P, size) buffer: (P, h, n) for
    W_*, (P, h, h) for U_*, (P, h) for b_*.  Returns

      - the (P, N, 2h) hidden states at the packed positions, forward then
        backward half;
      - the (P, B, 2h) max-pooled sentence vectors, rows in input order;
      - the gate activations of the forward and of the backward direction,
        each (P, N, 3h) holding z | r | h~.
    """
    T = len(packed.sizes)
    fwd, fwd_gates = _gru_scan(packed, weights[:9], range(T))
    bwd, bwd_gates = _gru_scan(packed, weights[9:], range(T - 1, -1, -1))
    states = np.concatenate([fwd, bwd], axis=-1)
    pooled = np.empty((len(states), len(packed.order), states.shape[-1]), dtype=states.dtype)
    pooled[:, packed.order] = _max_pool(packed, states)
    return states, pooled, (fwd_gates, bwd_gates)


def _gru_scan_grads(packed: PackedBatch, w, order,
                    states: np.ndarray, gates: np.ndarray, d_states: np.ndarray) -> tuple:
    """Backpropagation through time of one _gru_scan direction at one
    parameter point.

    ``w`` is the direction's nine arrays without a point axis; states,
    gates and d_states are its (N, h) packed states, (N, 3h) gates and the
    (N, h) loss gradient that reaches each state from the pooling.
    Returns the nine parameter gradients in GATE_NAMES order.
    """
    _, U_z, _, _, U_r, _, _, U_h, _ = w
    N, h = states.shape
    off, sizes = packed.offsets, packed.sizes
    order = list(order)
    prev = np.zeros_like(states)  # the state each step starts from
    for a, b in zip(order, order[1:]):
        n = sizes[max(a, b)]  # rows active at both steps
        prev[off[b]:off[b] + n] = states[off[a]:off[a] + n]
    z, r, h_cand = gates[:, :h], gates[:, h:2 * h], gates[:, 2 * h:]
    u_zr = np.concatenate([U_z, U_r])
    d_pre = np.empty((N, 3 * h), dtype=d_states.dtype)  # gate pre-activation gradients
    # a row's carry is zero at its last step, the first one visited here
    carry = np.zeros((sizes[0], h), dtype=d_states.dtype)
    for t in reversed(order):
        lo, hi = off[t], off[t + 1]
        g = carry[:hi - lo] + d_states[lo:hi]
        zt, rt, ht, pt = z[lo:hi], r[lo:hi], h_cand[lo:hi], prev[lo:hi]
        d_h = g * zt * (1.0 - ht * ht)
        d_rp = d_h @ U_h
        d_pre[lo:hi, :h] = g * (ht - pt) * zt * (1.0 - zt)
        d_pre[lo:hi, h:2 * h] = d_rp * pt * rt * (1.0 - rt)
        d_pre[lo:hi, 2 * h:] = d_h
        carry[:hi - lo] = g * (1.0 - zt) + d_rp * rt + d_pre[lo:hi, :2 * h] @ u_zr
    d_W = (d_pre.T @ packed.X).reshape(3, h, -1)
    d_b = d_pre.sum(axis=0).reshape(3, h)
    # U_z and U_r multiply the previous state, U_h multiplies r * previous
    d_U = np.concatenate([d_pre[:, :2 * h].T @ prev,
                          d_pre[:, 2 * h:].T @ (r * prev)]).reshape(3, h, h)
    return tuple(grad for k in range(3) for grad in (d_W[k], d_U[k], d_b[k]))


def bigru(packed: PackedBatch, params: EncoderParams) -> Tensor:
    """bigru_forward's (B, 2h) pooled rows at params, in their dtype,
    recorded as one tape node whose one input is the flat parameter buffer;
    the word vectors get no gradient."""
    states, pooled, gates = bigru_forward(packed, params.point_arrays)
    states, pooled = states[0], pooled[0]
    T, h, weights = len(packed.sizes), params.hidden, params.arrays

    def back(g):
        d_states = _max_pool_grads(packed, states, pooled[packed.order], g)
        grads = (_gru_scan_grads(packed, weights[:9], range(T),
                                 states[:, :h], gates[0][0], d_states[:, :h])
                 + _gru_scan_grads(packed, weights[9:], range(T - 1, -1, -1),
                                   states[:, h:], gates[1][0], d_states[:, h:]))
        return (np.concatenate([d.ravel() for d in grads]),)

    return nx._emit(pooled, (params.flat,), back)


def _finite(pooled: np.ndarray) -> np.ndarray:
    if not np.isfinite(pooled).all():
        raise ValueError("non-finite sentence vectors in batch")
    return pooled


def encode_batch(sentences, table: EmbeddingTable, params: EncoderParams) -> Tensor:
    """(B, output_dim) matrix of the sentences' vectors in the parameters'
    dtype, as one tape node."""
    pooled = bigru(pack_batch(sentences, table, params.dtype), params)
    _finite(pooled.values)
    return pooled


def encode(tokens, table: EmbeddingTable, params: EncoderParams) -> Tensor:
    """Untaped float64 sentence vector of length params.output_dim for one
    token sequence: encode_many's row for it."""
    return Tensor(encode_many([tokens], table, params)[0])


INFERENCE_CHUNK = 64  # rows per encode_many kernel call

# Hidden width from which encode_many runs its chunks on two threads.  Its
# gain comes from the time loop: the per-step products (rows, h) @ (h, 2h)
# are too small to gain from OpenBLAS's own threads, so two chunks at one
# BLAS thread each beat one chunk at two, once the products outweigh the
# Python work of a step.  Two-thread over sequential encode_many time on 2
# CPUs (Xeon, OpenBLAS 0.3.31, numpy 2.4), 300-600 sentences of 3-40
# tokens, median of 6 alternating runs per side: hidden 16 0.80x; 32
# 0.70-1.01x; 48 0.83-1.00x; 64 0.88-1.20x (median 1.14x over seven
# runs); 96-150 1.14-1.45x.
PARALLEL_MIN_HIDDEN = 64
INFERENCE_THREADS = 2


@cache
def _openblas_threads():
    """(set, get) for the thread count of the OpenBLAS that numpy loaded,
    or None when it cannot be found."""
    import ctypes
    import glob
    import os

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@cache
def _pool():
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(INFERENCE_THREADS, thread_name_prefix="analogia-encode")


# The OpenBLAS thread count is process-wide: one caller at a time holds it
# at one thread, and a concurrent caller runs its chunks sequentially.
_blas_limit = threading.Lock()


def encode_many(sentences, table: EmbeddingTable, params: EncoderParams) -> np.ndarray:
    """(B, output_dim) float64 inference vectors of the sentences, rows in
    input order, from untaped bigru_forward calls over the fewest chunks of
    at most INFERENCE_CHUNK sentences, of even size (70 sentences run as
    35 + 35).  From PARALLEL_MIN_HIDDEN on, two or more chunks run on
    INFERENCE_THREADS threads with OpenBLAS held to one thread, when its
    thread count can be set."""
    count = -(-len(sentences) // INFERENCE_CHUNK)  # ceil(B / INFERENCE_CHUNK)
    if not count:
        return np.empty((0, params.output_dim))
    size = -(-len(sentences) // count)
    weights = params.point_arrays64

    def run(start):
        return bigru_forward(pack_batch(sentences[start:start + size], table, np.float64), weights)[1][0]

    starts = range(0, len(sentences), size)
    blas = len(starts) > 1 and params.hidden >= PARALLEL_MIN_HIDDEN and _openblas_threads()
    if blas and _blas_limit.acquire(blocking=False):
        try:
            chunks = _on_pool(run, starts, *blas)
        finally:
            _blas_limit.release()
    else:
        chunks = [run(start) for start in starts]
    return _finite(np.concatenate(chunks))


def _on_pool(fn, args, set_threads, get_threads) -> list:
    """[fn(a) for a in args] on the pool's threads, with OpenBLAS held to
    one thread until every call has ended."""
    from concurrent.futures import wait

    before = get_threads()
    set_threads(1)
    try:
        jobs = [_pool().submit(fn, a) for a in args]
        try:
            return [job.result() for job in jobs]
        finally:
            for job in jobs:
                job.cancel()
            wait(jobs)
    finally:
        set_threads(before)


def derive_seed(base: int, *parts) -> int:
    """Stable sub-seed from a base seed and context labels."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(base).encode())
    for p in parts:
        h.update(b"\x00")
        h.update(str(p).encode())
    return int.from_bytes(h.digest(), "little")


def sentence_encoder(table: EmbeddingTable, params: EncoderParams):
    """Inference-mode closure mapping a token sequence to a numpy vector.
    Its ``many`` attribute maps a list of token sequences to their vectors
    in one encode_many call; evaluation.evaluate uses it."""
    def encode_fn(tokens):
        return encode(tokens, table, params).values
    encode_fn.many = lambda sentences: encode_many(sentences, table, params)
    return encode_fn
