"""Randomized end-to-end gradient checks over the whole loss pipeline:
four encodings, shift vectors, energy, contrastive loss, L2 term.

Instances are rejected and redrawn when they sit within finite-difference
reach of a genuine non-smoothness: a small shift norm (cosine curvature
blows up), a hinge argument near the kink, or a max-pool column whose top
two competitors nearly tie (the argmax flips under perturbation).
Everywhere else the loss is smooth and analytic gradients must match
central differences tightly.

Per instance, one untaped pass of the plain-numpy BiGRU kernel decides
whether a draw is acceptable, one tape gives the analytic gradient of the
encoder's flat parameter buffer, and one float64 pass of the kernel
evaluates the loss at every central-difference point of that buffer.  The
loss on both sides is analogy_core.batch_loss_forward, the kernel that
batch_loss records as its tape node: this module keeps no energy or loss
arithmetic of its own.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analogy_core import EncodedBatch, HyperParams, batch_loss, batch_loss_forward
from .encoder import EncoderParams, Layout, bigru_forward, encode_batch, pack_batch
from .numerics import finite_difference_check
from .text_data import EmbeddingTable, derive_seed

F32_TOLERANCE = 1e-4
F64_TOLERANCE = 1e-7

_MIN_SHIFT_NORM = 0.3
_MIN_HINGE_DISTANCE = 5e-2
_MIN_POOL_GAP = 5e-3


def _random_instance(rng, dtype):
    d_in = int(rng.integers(1, 4))
    h = int(rng.integers(1, 4))
    words = [f"w{i}" for i in range(6)]
    entries = {w: rng.normal(size=d_in).astype(dtype) for w in words}
    table = EmbeddingTable(dim=d_in, entries=entries)
    sentences = [tuple(str(w) for w in rng.choice(words, size=int(rng.integers(1, 4))))
                 for _ in range(4)]
    params = EncoderParams.initialize(input_dim=d_in, hidden=h,
                                      seed=int(rng.integers(2 ** 31)), dtype=dtype)
    y = int(rng.integers(0, 2))
    variant = "hinge" if int(rng.integers(2)) else "literal"
    hp = HyperParams(margin=0.25, loss_variant=variant, l2_lambda=0.01)
    return table, sentences, params, y, hp


def _loss(table, sentences, params, y, hp):
    """One 4-row encoding, row k in quadruple slot k."""
    stacked = encode_batch(sentences, table, params)
    batch = EncodedBatch(encoded=stacked, rows=np.arange(4)[:, None], labels=np.array([y]))
    return batch_loss(batch, hp, params.flat)


def _quadruple_loss(pooled: np.ndarray, y: int, hp: HyperParams, theta=None):
    """batch_loss_forward on (P, 4, d) pooled encodings, each point one
    quadruple: the kernel batch_loss records, with P as its leading axis."""
    rows = (pooled[:, i:i + 1] for i in range(4))
    return batch_loss_forward(*rows, np.array([y]), hp, theta)


def _numeric_losses(table, sentences, lay: Layout, y, hp):
    """Loss at many parameter points in one float64 kernel pass; takes the
    (2N, F) points finite_difference_check hands its batch_f and returns
    their losses."""
    packed = pack_batch(sentences, table, np.float64)

    def losses(theta):
        _, pooled, _ = bigru_forward(packed, lay.split(theta))
        return _quadruple_loss(pooled, y, hp, theta).loss

    return losses


def _acceptable(table, sentences, params, y, hp) -> bool:
    """Whether the instance is clear of every non-smoothness, judged from
    one untaped kernel pass at params, in their dtype."""
    packed = pack_batch(sentences, table, params.dtype)
    states, pooled, _ = bigru_forward(packed, params.point_arrays)
    fwd = _quadruple_loss(pooled, y, hp)
    # a short shift, degenerate ones included, bends the cosine sharply
    if np.sqrt(fwd.sq.min()) < _MIN_SHIFT_NORM:
        return False
    if hp.loss_variant == "hinge" and y == 0 and abs(fwd.energies[0, 0] - hp.margin) < _MIN_HINGE_DISTANCE:
        return False
    # no max-pool column may have its top two time steps nearly tied
    for i, s in enumerate(sentences):
        if len(s) >= 2:
            top = np.sort(states[0, packed.steps(i)].astype(np.float64), axis=0)
            if np.min(top[-1] - top[-2]) < _MIN_POOL_GAP:
                return False
    return True


def _instance_error(seed: int, index: int, dtype) -> float:
    rng = np.random.default_rng(derive_seed(seed, "fd-instance", index))
    while True:
        table, sentences, params, y, hp = _random_instance(rng, dtype)
        if _acceptable(table, sentences, params, y, hp):
            break

    def loss_at(flat):
        return _loss(table, sentences, replace(params, flat=flat), y, hp).loss

    # eps an order below the default: the f64 tolerance of 1e-7 leaves no
    # room for central-difference truncation error at 1e-4 steps.
    return finite_difference_check(loss_at, params.flat, eps=1e-5,
                                   batch_f=_numeric_losses(table, sentences, params.layout, y, hp))


def full_pipeline_gradient_errors(instances: int, seed: int, dtype=np.float32) -> np.ndarray:
    """Per-instance worst relative error between analytic and numeric
    gradients, over every coordinate of each instance's parameter buffer."""
    return np.array([_instance_error(seed, k, dtype) for k in range(instances)])
