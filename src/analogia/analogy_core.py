"""Shift vectors, analogical dissimilarity, cosine energy, and ranking.

A quadruple (a, b, c, d) is in arithmetic analogical proportion when
a - b = c - d.  Everything here scores how close a quadruple comes to that:
either directly on vectors (``analogical_dissimilarity``) or through the
cosine between learned shift vectors (``energy``), which also drives the
contrastive training objective.

That objective has one implementation: the plain-numpy kernel
``batch_loss_forward``, over rows with any leading axes.  ``batch_loss``
records it as one tape node over the encoded sentences, taking each role's
rows and dropout mask itself, with ``_batch_loss_grads`` scattered back
onto those rows as its backward pass; the gradient audit in
``diagnostics`` calls the same kernel for its numeric side.  The scalar
``energy`` and ``contrastive_loss`` stay as reference oracles.  Ranking
has one kernel too, ``rank_group``, over any number of questions of one
wh-type; ``rank_candidates`` is its one-question call.  The loss and the
ranking read one degeneracy threshold, COSINE_EPSILON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics as nx
from .numerics import ShapeError, Tensor
from .text_data import ConfigError, require_finite

ENERGY_MODE = "energy"
DISSIMILARITY_MODE = "dissimilarity"
RANK_MODES = (ENERGY_MODE, DISSIMILARITY_MODE)

LOSS_VARIANTS = ("hinge", "literal")

# A shift vector shorter than this has no usable direction: its cosine
# scores the neutral 0, in training and in ranking alike.
COSINE_EPSILON = 1e-8


@dataclass(frozen=True)
class HyperParams:
    """The contrastive loss's settings.

    ``margin`` is where the dissimilar branch stops pushing (hinge) or pulls
    toward (literal).  ``l2_lambda`` scales an explicit parameter-norm term
    inside the loss; the optimizer's decoupled weight decay is separate.
    """

    margin: float = 0.0
    loss_variant: str = "hinge"
    l2_lambda: float = 0.0

    def __post_init__(self):
        require_finite(margin=self.margin, l2_lambda=self.l2_lambda)
        if not -1.0 <= self.margin <= 1.0:
            raise ConfigError(f"margin must be in [-1, 1], got {self.margin}")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ConfigError(f"loss_variant must be one of {LOSS_VARIANTS}, got {self.loss_variant!r}")
        if self.l2_lambda < 0:
            raise ConfigError(f"l2_lambda must be >= 0, got {self.l2_lambda}")


def _as_vector(name: str, v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a vector, got shape {arr.shape}")
    return arr


def analogical_dissimilarity(a, b, c, d) -> float:
    """Euclidean norm of (a - b) - (c - d); zero iff a:b::c:d holds exactly."""
    av, bv, cv, dv = (_as_vector(n, v) for n, v in zip("abcd", (a, b, c, d)))
    if not (av.shape == bv.shape == cv.shape == dv.shape):
        raise ShapeError(
            f"operands must share one length, got {av.shape}, {bv.shape}, {cv.shape}, {dv.shape}")
    return float(np.linalg.norm((av - bv) - (cv - dv)))


@dataclass(frozen=True)
class ShiftPair:
    """Two shift vectors f(a)-f(b) and f(c)-f(d) of equal length."""

    f_ab: np.ndarray
    f_cd: np.ndarray

    def __post_init__(self):
        ab = _as_vector("f_ab", self.f_ab)
        cd = _as_vector("f_cd", self.f_cd)
        if ab.shape != cd.shape:
            raise ShapeError(f"shift vectors must match, got {ab.shape} and {cd.shape}")
        object.__setattr__(self, "f_ab", ab)
        object.__setattr__(self, "f_cd", cd)


def energy(pair: ShiftPair, eps: float = COSINE_EPSILON) -> tuple[float, bool]:
    """Cosine of the two shifts, clipped to [-1, 1].

    A shift whose norm falls below eps carries no usable direction; the
    score is then the neutral 0.0 and the returned flag is True.
    """
    nu = np.linalg.norm(pair.f_ab)
    nv = np.linalg.norm(pair.f_cd)
    if nu < eps or nv < eps:
        return 0.0, True
    cos = float(np.dot(pair.f_ab, pair.f_cd) / (nu * nv))
    return float(np.clip(cos, -1.0, 1.0)), False


def contrastive_loss(E: float, y: int, hp: HyperParams) -> float:
    """Per-quadruple loss: (1-E)^2 when y=1, else the margin branch.

    The hinge variant max(E-m, 0)^2 only penalizes energies above the
    margin; the literal variant (E-m)^2 pulls them toward it from both
    sides.
    """
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    if y == 1:
        return float((1.0 - E) ** 2)
    if hp.loss_variant == "hinge":
        return float(max(E - hp.margin, 0.0) ** 2)
    return float((E - hp.margin) ** 2)


@dataclass(frozen=True)
class RankedCandidate:
    candidate_index: int
    score: float
    rank: int
    best_prototype_index: int


@dataclass(frozen=True)
class RankedList:
    """Candidates in rank order (rank 1 first)."""

    entries: tuple[RankedCandidate, ...]
    mode: str
    degenerate_count: int = 0

    def order(self) -> tuple[int, ...]:
        return tuple(e.candidate_index for e in self.entries)


def check_mode(mode: str) -> None:
    """Raise ValueError unless mode is one of RANK_MODES."""
    if mode not in RANK_MODES:
        raise ValueError(f"mode must be one of {RANK_MODES}, got {mode!r}")


class GroupRanking(NamedTuple):
    """rank_group's results for G questions of n candidates each."""

    scores: np.ndarray  # (G, n) each candidate's best score
    best: np.ndarray  # (G, n) the prototype that gave it
    order: np.ndarray  # (G, n) candidate indices in rank order
    degenerate: np.ndarray  # (G,) (candidate, prototype) pairs scored the neutral 0
    mode: str

    @classmethod
    def of(cls, scores, best, degenerate, mode: str) -> "GroupRanking":
        """Each row of scores ranked best first, ties in candidate order."""
        order = np.argsort(-scores if mode == ENERGY_MODE else scores, axis=-1, kind="stable")
        return cls(scores, best, order, degenerate, mode)

    def lists(self) -> list[RankedList]:
        """Each question's RankedList, in group order."""
        rows = zip(self.scores.tolist(), self.best.tolist(), self.order.tolist(), self.degenerate.tolist())
        return [RankedList(tuple(RankedCandidate(i, scores[i], r, best[i]) for r, i in enumerate(order, start=1)),
                           self.mode, degenerate) for scores, best, order, degenerate in rows]


def rank_group(q, C, P, mode: str = ENERGY_MODE) -> GroupRanking:
    """Rank G questions' candidates at once: questions q (G, d), candidates
    C (G, n, d) and prototype shifts P (p, d), all float64.

    Energy mode keeps each candidate's best (maximum) cosine over
    prototypes, 0 where a shift is shorter than COSINE_EPSILON, and sorts
    descending; dissimilarity mode keeps the minimum analogical
    dissimilarity and sorts ascending.  Score ties preserve the original
    candidate order, and prototype ties go to the lowest index.

    Every step works per row or per question: the stacked matmul makes one
    BLAS call per (n, d) slice, and norms reduce along the last axis, so a
    question's bits are the same whatever G is.  One product over all G*n
    rows can round differently.
    """
    check_mode(mode)
    shifts = q[:, None, :] - C  # [g, i] is f(q_g) - f(d_gi)
    if mode == ENERGY_MODE:
        dots = shifts @ P.T
        ns = np.linalg.norm(shifts, axis=-1)
        np_ = np.linalg.norm(P, axis=-1)
        degen = (ns[..., None] < COSINE_EPSILON) | (np_ < COSINE_EPSILON)
        E = np.clip(dots / np.where(degen, 1.0, ns[..., None] * np_), -1.0, 1.0)
        E[degen] = 0.0
        scores, best, degenerate = E.max(axis=-1), E.argmax(axis=-1), degen.sum(axis=(1, 2))
    else:
        V = np.linalg.norm(P - shifts[..., None, :], axis=-1)
        scores, best, degenerate = V.min(axis=-1), V.argmin(axis=-1), np.zeros(len(q), dtype=np.int64)
    return GroupRanking.of(scores, best, degenerate, mode)


def rank_candidates(question_vec, candidate_vecs, prototype_vecs,
                    mode: str = ENERGY_MODE) -> RankedList:
    """One question's rank_group, with every vector checked: each
    prototype is a (question, answer) vector pair."""
    if len(candidate_vecs) == 0:
        raise ValueError("rank_candidates needs at least one candidate")
    if len(prototype_vecs) == 0:
        raise ValueError("rank_candidates needs at least one prototype; "
                         "questions without same-type prototypes should be skipped upstream")
    q = _as_vector("question_vec", question_vec)
    C = np.stack([_as_vector(f"candidate {i}", c) for i, c in enumerate(candidate_vecs)])
    P = np.stack([
        _as_vector(f"prototype {i} question", qp) - _as_vector(f"prototype {i} answer", ap)
        for i, (qp, ap) in enumerate(prototype_vecs)
    ])
    if C.shape[1] != q.shape[0] or P.shape[1] != q.shape[0]:
        raise ShapeError(
            f"vector lengths disagree: question {q.shape[0]}, candidates {C.shape[1]}, prototypes {P.shape[1]}")
    return rank_group(q[None], C[None], P, mode).lists()[0]


@dataclass(frozen=True)
class EncodedBatch:
    """Quadruples over one matrix of encoded sentences.  Row k of ``rows``
    picks, for role k (prototype question, prototype answer, question,
    candidate), each quadruple's row of ``encoded``; ``masks``, when given,
    holds each role's inverted-dropout scales in encoded's dtype."""

    encoded: Tensor  # (S, d), one row per distinct sentence
    rows: np.ndarray  # (4, B) ints in [0, S)
    labels: np.ndarray  # (B,) zeros and ones
    masks: np.ndarray | None = None  # (4, B, d)

    def __post_init__(self):
        if self.encoded.ndim != 2:
            raise ShapeError(f"encoded must be an (S, d) matrix, got shape {self.encoded.shape}")
        S, d = self.encoded.shape
        rows = np.asarray(self.rows)
        if rows.dtype.kind not in "iu" or rows.ndim != 2 or rows.shape[0] != 4 or rows.size == 0:
            raise ShapeError(f"rows must be a (4, B) int array with B >= 1, got {rows.dtype} {rows.shape}")
        if ((rows < 0) | (rows >= S)).any():
            raise ShapeError(f"rows index out of range for {S} encoded sentences")
        B = rows.shape[1]
        if self.masks is not None and (self.masks.shape, self.masks.dtype) != ((4, B, d), self.encoded.dtype):
            raise ShapeError(f"masks must be {(4, B, d)} {self.encoded.dtype}, "
                             f"got {self.masks.shape} {self.masks.dtype}")
        labels = np.asarray(self.labels)
        if labels.shape != (B,):
            raise ShapeError(f"labels shape {labels.shape} does not match batch size {B}")
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def size(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class BatchLossResult:
    loss: Tensor  # rank-0, on the active tape
    energies: np.ndarray  # per-row energy actually used (0.0 where degenerate)
    degenerate_count: int


class LossForward(NamedTuple):
    """batch_loss_forward's results; the fields after usable feed _batch_loss_grads."""

    loss: np.ndarray  # (...), mean loss per point, L2 term included
    energies: np.ndarray  # (..., B), 0.0 where degenerate
    usable: np.ndarray  # (..., B) bool, both shift norms reach COSINE_EPSILON
    shifts: np.ndarray  # (2, ..., B, d): f_qp - f_ap, then f_qi - f_ai
    sq: np.ndarray  # (2, ..., B) squared shift norms
    dots: np.ndarray
    denom: np.ndarray
    pos_gap: np.ndarray  # 1 - E
    shifted: np.ndarray  # E - margin, clamped at 0 by the hinge
    y: np.ndarray  # labels in the rows' dtype


def batch_loss_forward(f_qp, f_ap, f_qi, f_ai, labels, hp: HyperParams, theta=None) -> LossForward:
    """The mean contrastive loss of rows shaped (..., B, d), in their dtype.

    Energies are cosines of the two per-row shifts.  Rows where either
    shift norm falls below COSINE_EPSILON are scored 0, the neutral score
    of energy().  With hp.l2_lambda > 0 and a flat ``theta`` of shape
    (..., F), l2_lambda times its squared norm is added per point.
    """
    eps = COSINE_EPSILON
    shifts = np.stack((f_qp - f_ap, f_qi - f_ai))
    sq = (shifts * shifts).sum(axis=-1)
    dots = (shifts[0] * shifts[1]).sum(axis=-1)
    # eps^4 keeps the denominator (and its gradient) finite on zero shifts
    denom = np.sqrt(sq[0] * sq[1] + eps ** 4)
    usable = (np.sqrt(sq.astype(np.float64)) >= eps).all(axis=0)
    e = dots / denom * usable
    pos_gap = 1.0 - e
    shifted = e - hp.margin
    if hp.loss_variant == "hinge":
        shifted = np.where(shifted >= 0, shifted, 0.0)
    y = np.asarray(labels).astype(e.dtype)
    per_row = (1.0 - y) * (shifted * shifted) + y * (pos_gap * pos_gap)
    loss = per_row.sum(axis=-1) * (1.0 / y.shape[-1])
    if theta is not None and hp.l2_lambda > 0:
        loss = loss + np.square(theta).sum(axis=-1) * hp.l2_lambda
    return LossForward(loss, e, usable, shifts, sq, dots, denom, pos_gap, shifted, y)


def _batch_loss_grads(g, fwd: LossForward, hp: HyperParams, theta=None) -> tuple:
    """The gradients of f_qp, f_ap, f_qi, f_ai, then theta when given, for
    an upstream gradient g of batch_loss_forward's loss.  The clamped hinge
    needs no mask.  Each square's gradient is 2.0 * (g * s), exactly the
    (g * s) + (g * s) a tape of elementwise ops would add up, so the bits
    match that composition."""
    g_row = np.full(fwd.y.shape, g * (1.0 / fwd.y.shape[-1]), dtype=fwd.y.dtype)
    g_neg = g_row * (1.0 - fwd.y)
    g_pos = g_row * fwd.y
    g_shifted = 2.0 * (g_neg * fwd.shifted)
    g_pos_gap = 2.0 * (g_pos * fwd.pos_gap)
    g_e = (g_shifted - g_pos_gap) * fwd.usable
    g_dots = (g_e / fwd.denom)[..., None]
    g_denom = -g_e * fwd.dots / (fwd.denom * fwd.denom)
    g_sq = (g_denom * 0.5 / fwd.denom * fwd.sq[::-1])[..., None]
    g_shifts = 2.0 * (g_sq * fwd.shifts) + g_dots * fwd.shifts[::-1]
    grads = (g_shifts[0], -g_shifts[0], g_shifts[1], -g_shifts[1])
    if theta is not None:
        grads += (g * hp.l2_lambda * 2.0 * theta,)
    return grads


def batch_loss(batch: EncodedBatch, hp: HyperParams, theta: Tensor | None = None) -> BatchLossResult:
    """Mean contrastive loss over a batch as one node on the active tape,
    over the encoded matrix: batch_loss_forward of each role's masked rows,
    and in the backward pass _batch_loss_grads' role gradients, masked,
    added back onto those rows (degenerate rows get none).  With
    l2_lambda > 0 the squared norm of the flat parameter buffer ``theta``
    is added, and theta is an input of the node too."""
    encoded, rows, masks = batch.encoded.values, batch.rows, batch.masks
    roles = [encoded[r] if masks is None else encoded[r] * masks[k] for k, r in enumerate(rows)]
    theta = theta if hp.l2_lambda > 0 else None
    flat = None if theta is None else theta.values
    fwd = batch_loss_forward(*roles, batch.labels, hp, flat)

    def back(g):
        grads = _batch_loss_grads(g, fwd, hp, flat)
        # One array per role, added up d, c, b, a as a tape of per-role
        # gathers adds them, so rows repeated within a role keep their bits.
        total = None
        for k in (3, 2, 1, 0):
            g_role = grads[k] if masks is None else grads[k] * masks[k]
            z = np.zeros(encoded.shape, dtype=np.result_type(encoded, g_role))
            np.add.at(z, rows[k], g_role)
            total = z if total is None else total + z
        return (total,) + grads[4:]

    inputs = (batch.encoded,) if theta is None else (batch.encoded, theta)
    loss = nx._emit(np.asarray(fwd.loss), inputs, back)
    return BatchLossResult(loss=loss, energies=fwd.energies.astype(np.float64),
                           degenerate_count=int(np.count_nonzero(~fwd.usable)))
