"""Bidirectional GRU sentence encoder with temporal max pooling.

A sentence of T tokens becomes a d = 2h vector: run one GRU left-to-right
and another right-to-left from zero states, concatenate the two h-vectors at
each position, then take the columnwise max over positions.  Word vectors
come from a frozen EmbeddingTable and never join the gradient tape.

The recurrence has one implementation, ``bigru_forward``: plain numpy over
a batch padded to its longest sentence (``pad_batch``), with a leading axis
over parameter points, so that a finite-difference audit evaluates every
perturbed parameter set in one call.  The input projections of all three
gates at all steps are one product; only the recurrent products stay in the
time loop.  Two guards make a padded row equal its sentence encoded alone:

  - the recurrent state is frozen through pad positions (so the backward
    scan enters each sentence with a genuine zero state), and
  - pad positions are replaced by a large negative sentinel before pooling
    (so they can never win the max; real hidden entries live in (-1, 1)).

``bigru`` records that kernel at one parameter point as a single tape node
whose backward pass is hand-written backpropagation through time.
``encode_batch`` is pad_batch, that node, then dropout, and ``encode`` is a
one-row encode_batch, so training, inference and the audit share one
forward pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import numerics as nx
from .numerics import NEG_SENTINEL, ShapeError, Tensor
from .text_data import ConfigError, EmbeddingTable

GATE_NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")
DIRECTIONS = ("forward", "backward")


@dataclass(frozen=True)
class Dropout:
    """Inverted dropout on the pooled sentence vector: zero with
    probability rate, scale survivors by 1/(1-rate).  Inactive unless
    training."""

    rate: float = 0.0
    training: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.rate}")

    def mask(self, shape) -> np.ndarray | None:
        """Pre-scaled keep mask, or None when dropout is a no-op."""
        if not self.training or self.rate == 0.0:
            return None
        rng = np.random.default_rng(self.seed)
        keep = rng.random(shape) >= self.rate
        return keep.astype(np.float64) / (1.0 - self.rate)

    def apply(self, m: Tensor) -> Tensor:
        """m times its mask, on the tape; m itself when dropout is a no-op."""
        mask = self.mask(m.shape)
        return m if mask is None else nx.hadamard(m, nx.tensor(mask, dtype=m.dtype))


INFERENCE = Dropout()


@dataclass(frozen=True)
class GruWeights:
    """One direction's parameters; W_* are (h, d_in), U_* are (h, h),
    biases length h."""

    W_z: Tensor
    U_z: Tensor
    b_z: Tensor
    W_r: Tensor
    U_r: Tensor
    b_r: Tensor
    W_h: Tensor
    U_h: Tensor
    b_h: Tensor

    def tensors(self) -> tuple[Tensor, ...]:
        return tuple(getattr(self, n) for n in GATE_NAMES)

    def validate(self, hidden: int, input_dim: int) -> None:
        # Runs on every rebuild, including once per finite-difference probe,
        # so the happy path formats no strings.
        want = {"W": (hidden, input_dim), "U": (hidden, hidden), "b": (hidden,)}
        for name in GATE_NAMES:
            t = getattr(self, name)
            if t.shape != want[name[0]]:
                raise ShapeError(f"{name}: expected shape {want[name[0]]}, got {t.shape}")


@dataclass(frozen=True)
class EncoderParams:
    forward: GruWeights
    backward: GruWeights
    hidden: int
    input_dim: int

    def __post_init__(self):
        if self.hidden < 1 or self.input_dim < 1:
            raise ConfigError(f"hidden and input_dim must be positive, got {self.hidden}, {self.input_dim}")
        self.forward.validate(self.hidden, self.input_dim)
        self.backward.validate(self.hidden, self.input_dim)

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden

    @property
    def dtype(self):
        return self.forward.W_z.dtype

    def named(self) -> tuple[tuple[str, Tensor], ...]:
        """(name, tensor) pairs in the fixed checkpoint order."""
        out = []
        for direction in DIRECTIONS:
            w = getattr(self, direction)
            for gate in GATE_NAMES:
                out.append((f"{direction}.{gate}", getattr(w, gate)))
        return tuple(out)

    def tensors(self) -> tuple[Tensor, ...]:
        # Same order as named(), without formatting 18 names per call.
        return self.forward.tensors() + self.backward.tensors()

    def with_tensors(self, tensors) -> "EncoderParams":
        """Rebuild with replacement tensors in named() order."""
        tensors = tuple(tensors)
        if len(tensors) != 18:
            raise ValueError(f"expected 18 tensors, got {len(tensors)}")
        fwd = GruWeights(*tensors[:9])
        bwd = GruWeights(*tensors[9:])
        return EncoderParams(forward=fwd, backward=bwd, hidden=self.hidden, input_dim=self.input_dim)

    @classmethod
    def initialize(cls, input_dim: int, hidden: int, seed: int = 0, dtype=None) -> "EncoderParams":
        """Weights uniform in [-k, k] with k = 1/sqrt(hidden); zero biases.

        Draw order is fixed (forward then backward, gates z, r, h), so a
        seed pins every parameter bit.
        """
        if hidden < 1 or input_dim < 1:
            raise ConfigError(f"hidden and input_dim must be positive, got {hidden}, {input_dim}")
        dtype = dtype or nx.DEFAULT_DTYPE
        k = 1.0 / np.sqrt(hidden)
        rng = np.random.default_rng(seed)
        directions = []
        for _ in DIRECTIONS:
            parts = {}
            for gate in "zrh":
                parts[f"W_{gate}"] = nx.tensor(rng.uniform(-k, k, size=(hidden, input_dim)), dtype=dtype)
                parts[f"U_{gate}"] = nx.tensor(rng.uniform(-k, k, size=(hidden, hidden)), dtype=dtype)
                parts[f"b_{gate}"] = nx.tensor(np.zeros(hidden), dtype=dtype)
            directions.append(GruWeights(**parts))
        return cls(forward=directions[0], backward=directions[1], hidden=hidden, input_dim=input_dim)


def pad_batch(sentences, table: EmbeddingTable, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Word vectors of a batch padded to its longest sentence: the (T, B, n)
    inputs, zero at pads, and the (T, B) mask of real token positions."""
    B = len(sentences)
    if B == 0:
        raise ValueError("cannot encode an empty batch")
    lengths = [len(s) for s in sentences]
    if min(lengths) == 0:
        raise ValueError(f"cannot encode an empty sentence (batch row {lengths.index(0)})")
    T = max(lengths)
    X = np.zeros((T, B, table.dim), dtype=dtype)
    for i, sent in enumerate(sentences):
        for t, tok in enumerate(sent):
            X[t, i] = table.lookup(tok)
    valid = np.zeros((T, B), dtype=bool)
    for i, L in enumerate(lengths):
        valid[:L, i] = True
    return X, valid


def _gru_scan(X: np.ndarray, valid: np.ndarray, w, order) -> tuple[np.ndarray, np.ndarray]:
    """One direction of bigru_forward: (P, T, B, h) states and the
    (P, T, B, 3h) gate activations z | r | h~ that its backward pass reads."""
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = w
    h = b_z.shape[-1]
    # input projections of every gate at every step in one product
    xw = X @ np.concatenate([W_z, W_r, W_h], axis=-2).swapaxes(-1, -2)[:, None]
    P, T, B, _ = xw.shape
    u_zr = np.concatenate([U_z, U_r], axis=-2).swapaxes(-1, -2)
    u_h = U_h.swapaxes(-1, -2)
    b_zr = np.concatenate([b_z, b_r], axis=-1)[:, None]
    b_h = b_h[:, None]
    state = np.zeros((P, B, h), dtype=xw.dtype)
    states = np.empty((P, T, B, h), dtype=xw.dtype)
    gates = np.empty((P, T, B, 3 * h), dtype=xw.dtype)
    for t in order:
        zr = expit((xw[:, t, :, :2 * h] + state @ u_zr) + b_zr, out=gates[:, t, :, :2 * h])
        z, r = zr[..., :h], zr[..., h:]
        h_cand = np.tanh((xw[:, t, :, 2 * h:] + (r * state) @ u_h) + b_h, out=gates[:, t, :, 2 * h:])
        state = np.where(valid[t][:, None], (1.0 - z) * state + z * h_cand, state)
        states[:, t] = state
    return states, gates


def bigru_forward(X: np.ndarray, valid: np.ndarray, forward, backward):
    """The BiGRU recurrence and max pooling as plain numpy, at P parameter
    points at once.

    X and valid are pad_batch's output.  ``forward`` and ``backward`` are
    each nine arrays in GATE_NAMES order carrying a leading point axis:
    (P, h, n) for W_*, (P, h, h) for U_*, (P, h) for b_*.  Returns

      - the (P, T, B, 2h) hidden states, forward then backward half; pad
        positions hold the frozen state;
      - the (P, B, 2h) max-pooled sentence vectors;
      - the gate activations of the forward and of the backward direction,
        each (P, T, B, 3h) holding z | r | h~.
    """
    T = X.shape[0]
    fwd, fwd_gates = _gru_scan(X, valid, forward, range(T))
    bwd, bwd_gates = _gru_scan(X, valid, backward, range(T - 1, -1, -1))
    states = np.concatenate([fwd, bwd], axis=-1)
    pooled = np.where(valid[:, :, None], states, NEG_SENTINEL).max(axis=1)
    return states, pooled, (fwd_gates, bwd_gates)


def _gru_scan_grads(X: np.ndarray, valid: np.ndarray, w, order,
                    states: np.ndarray, gates: np.ndarray, d_states: np.ndarray) -> tuple:
    """Backpropagation through time of one _gru_scan direction at one
    parameter point.

    ``w`` is the direction's nine arrays without a point axis; states,
    gates and d_states are its (T, B, h) states, (T, B, 3h) gates and the
    (T, B, h) loss gradient that reaches each state from the pooling.
    Returns the nine parameter gradients in GATE_NAMES order.
    """
    _, U_z, _, _, U_r, _, _, U_h, _ = w
    T, B, h = states.shape
    order = list(order)
    prev = np.zeros_like(states)  # the state each step starts from
    prev[order[1:]] = states[order[:-1]]
    z, r, h_cand = gates[..., :h], gates[..., h:2 * h], gates[..., 2 * h:]
    u_zr = np.concatenate([U_z, U_r])
    d_pre = np.zeros((T, B, 3 * h), dtype=d_states.dtype)  # gate pre-activation gradients
    carry = np.zeros((B, h), dtype=d_states.dtype)
    for t in reversed(order):
        g = carry + d_states[t]
        keep = valid[t][:, None]
        d_new = np.where(keep, g, 0.0)
        carry = np.where(keep, 0.0, g)  # a frozen pad step hands its gradient straight back
        zt, rt, ht, pt = z[t], r[t], h_cand[t], prev[t]
        d_h = d_new * zt * (1.0 - ht * ht)
        d_rp = d_h @ U_h
        d_pre[t, :, :h] = d_new * (ht - pt) * zt * (1.0 - zt)
        d_pre[t, :, h:2 * h] = d_rp * pt * rt * (1.0 - rt)
        d_pre[t, :, 2 * h:] = d_h
        carry += d_new * (1.0 - zt) + d_rp * rt + d_pre[t, :, :2 * h] @ u_zr
    flat = d_pre.reshape(T * B, 3 * h)
    d_W = (flat.T @ X.reshape(T * B, -1)).reshape(3, h, -1)
    d_b = flat.sum(axis=0).reshape(3, h)
    # U_z and U_r multiply the previous state, U_h multiplies r * previous
    d_U = np.concatenate([flat[:, :2 * h].T @ prev.reshape(T * B, h),
                          flat[:, 2 * h:].T @ (r * prev).reshape(T * B, h)]).reshape(3, h, h)
    return tuple(grad for k in range(3) for grad in (d_W[k], d_U[k], d_b[k]))


def bigru(X: np.ndarray, valid: np.ndarray, params: EncoderParams) -> Tensor:
    """bigru_forward's (B, 2h) pooled rows at params, recorded as one tape
    node over the 18 parameter tensors.  X and valid are pad_batch's
    output; the word vectors get no gradient."""
    tensors = params.tensors()
    weights = [t.values for t in tensors]
    states, pooled, gates = bigru_forward(X, valid, [w[None] for w in weights[:9]],
                                          [w[None] for w in weights[9:]])
    states = states[0]
    T, h = len(valid), params.hidden

    def back(g):
        # each pooled entry's gradient goes to its argmax step; pads never
        # win, and ties go to the earliest step, as in maxpool_time
        arg = np.where(valid[:, :, None], states, NEG_SENTINEL).argmax(axis=0)
        d_states = np.zeros(states.shape, dtype=np.result_type(states, g))
        np.put_along_axis(d_states, arg[None], g[None], axis=0)
        return (_gru_scan_grads(X, valid, weights[:9], range(T),
                                states[..., :h], gates[0][0], d_states[..., :h])
                + _gru_scan_grads(X, valid, weights[9:], range(T - 1, -1, -1),
                                  states[..., h:], gates[1][0], d_states[..., h:]))

    return nx._emit(pooled[0], tensors, back)


def encode_batch(sentences, table: EmbeddingTable, params: EncoderParams,
                 dropout: Dropout = INFERENCE) -> Tensor:
    """(B, output_dim) matrix of the sentences' vectors; under dropout each
    row gets its own derived mask."""
    X, valid = pad_batch(sentences, table, params.dtype)
    pooled = bigru(X, valid, params)
    if not np.isfinite(pooled.values).all():
        raise ValueError("non-finite sentence vectors in batch")
    return dropout.apply(pooled)


def encode(tokens, table: EmbeddingTable, params: EncoderParams,
           dropout: Dropout = INFERENCE) -> Tensor:
    """Sentence vector of length params.output_dim for one token sequence:
    the row of a one-row encode_batch."""
    if len(tokens) == 0:
        raise ValueError("cannot encode an empty sentence")
    return nx.gather_rows(encode_batch([tokens], table, params, dropout), 0)


def derive_seed(base: int, *parts) -> int:
    """Stable sub-seed from a base seed and context labels."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(base).encode())
    for p in parts:
        h.update(b"\x00")
        h.update(str(p).encode())
    return int.from_bytes(h.digest(), "little")


def sentence_encoder(table: EmbeddingTable, params: EncoderParams):
    """Inference-mode closure mapping a token sequence to a numpy vector."""
    def encode_fn(tokens):
        return encode(tokens, table, params, INFERENCE).values
    return encode_fn
