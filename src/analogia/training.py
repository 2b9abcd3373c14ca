"""Training loop, Adam with decoupled weight decay, and checkpoints.

One run is a pure function of (config, dataset, prototypes, table): the
seed pins quadruple generation, parameter init, epoch shuffles, and
dropout masks, so two identical runs produce bit-identical loss logs and
weights.  Word embeddings are read-only throughout; only the encoder's
flat parameter buffer trains, so a step's tape watches one tensor and
records two nodes, the encoder and the loss, and Adam, decay and clipping
are a few vector operations on one array.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .analogy_core import EncodedBatch, HyperParams, batch_loss
from .encoder import EncoderParams, Layout, encode_batch, layout
from .fsio import atomic_write_bytes, atomic_write_text
from .numerics import GradTape, Tensor
from .quadgen import Prototype, generate_training_quadruples
from .text_data import (WH_TYPES, ConfigError, EmbeddingTable, ParseError, QADataset, derive_seed, join_lines,
                        read_lines, require_finite)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

LOSS_LOG_HEADER = "epoch\tmean_loss\tdegenerate_quadruples"

MANIFEST_NAME = "manifest.txt"
WEIGHTS_NAME = "weights.bin"
CONFIG_NAME = "config.json"
PROTOTYPES_NAME = "prototypes.tsv"


class TrainingError(RuntimeError):
    """Unrecoverable training failure (non-finite loss or gradients)."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    weight_decay: float = 0.01
    dropout: float = 0.5
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    hp: HyperParams = field(default_factory=HyperParams)
    dim: int = 300
    negatives_per_positive: int = 1
    clip_norm: float | None = None

    def __post_init__(self):
        require_finite(lr=self.lr, weight_decay=self.weight_decay, dropout=self.dropout,
                       clip_norm=self.clip_norm)
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.dim < 2 or self.dim % 2:
            raise ConfigError(f"dim must be a positive even number, got {self.dim}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.negatives_per_positive < 0:
            raise ConfigError(f"negatives_per_positive must be >= 0, got {self.negatives_per_positive}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be > 0, got {self.clip_norm}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, theta) -> "AdamState":
        return cls(m=np.zeros(theta.shape, dtype=theta.dtype),
                   v=np.zeros(theta.shape, dtype=theta.dtype), t=0)


def adam_step(theta: Tensor, grad, state: AdamState, cfg: TrainConfig) -> Tensor:
    """Bias-corrected Adam update, then decoupled decay θ -= lr*wd*θ, as
    elementwise vector operations on one parameter array; returns the new
    parameters."""
    grad = np.asarray(grad)
    if grad.shape != theta.shape:
        raise ValueError(f"grad shape {grad.shape} != param shape {theta.shape}")
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient")
    state.t += 1
    t = state.t
    g = grad.astype(theta.dtype, copy=False)
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (g * g)
    m_hat = state.m / (1.0 - ADAM_BETA1 ** t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** t)
    new = theta.values - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return Tensor(new * (1.0 - cfg.lr * cfg.weight_decay), dtype=theta.dtype)


def _clip_gradients(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """grad scaled to norm max_norm when its norm is larger."""
    total = float(np.sqrt(np.square(grad, dtype=np.float64).sum()))
    if total <= max_norm:
        return grad
    return grad * (max_norm / total)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    degenerate_quadruples: int


@dataclass(frozen=True)
class TrainResult:
    params: EncoderParams
    loss_log: tuple[EpochStats, ...]
    quadruple_count: int
    prototypes: dict[str, list[Prototype]]


def loss_log_to_tsv(log) -> str:
    return join_lines([LOSS_LOG_HEADER, *(f"{row.epoch}\t{row.mean_loss!r}\t{row.degenerate_quadruples}"
                                          for row in log)])


def _distinct_sentences(chunk):
    """The chunk's a/b/c/d sentences without repeats, in first-seen order,
    and the (4, B) table of each quadruple's row in that list per role."""
    slots: dict = {}
    rows = np.array([[slots.setdefault(getattr(q, role), len(slots)) for q in chunk]
                     for role in "abcd"])
    return list(slots), rows


def _dropout_masks(cfg: TrainConfig, epoch: int, batch_idx: int, shape, dtype):
    """The (4, *shape) inverted-dropout scales of one step, role by role: a
    keep mask drawn from (seed, epoch, batch offset, role), survivors
    scaled by 1/(1-rate) in float64, then cast to dtype; None at rate 0."""
    if cfg.dropout == 0.0:
        return None
    keep = np.stack([
        np.random.default_rng(derive_seed(cfg.seed, "dropout", epoch, batch_idx, role)).random(shape)
        >= cfg.dropout for role in "abcd"])
    return (keep / (1.0 - cfg.dropout)).astype(dtype)


def train(cfg: TrainConfig, dataset: QADataset, prototypes: dict[str, list[Prototype]],
          table: EmbeddingTable) -> TrainResult:
    """Run the full optimization and return final weights plus the log.

    Batches hold whole quadruples.  Each distinct sentence of a batch is
    encoded once, in one packed batch over all four roles, and batch_loss
    takes each role's rows and its own derived dropout mask from that
    matrix: a step records two tape nodes, the encoder and the loss.
    """
    quads = generate_training_quadruples(dataset, prototypes,
                                         negatives_per_positive=cfg.negatives_per_positive,
                                         seed=derive_seed(cfg.seed, "quadruples"))
    if not quads:
        raise TrainingError("no training quadruples could be generated")

    params = EncoderParams.initialize(input_dim=table.dim, hidden=cfg.dim // 2,
                                      seed=derive_seed(cfg.seed, "init"))
    state = AdamState.for_params(params.flat)
    log: list[EpochStats] = []

    for epoch in range(1, cfg.epochs + 1):
        order = np.random.default_rng(derive_seed(cfg.seed, "shuffle", epoch)).permutation(len(quads))
        loss_sum = 0.0
        degenerate = 0
        for batch_idx in range(0, len(order), cfg.batch_size):
            chunk = [quads[i] for i in order[batch_idx:batch_idx + cfg.batch_size]]
            batch_id = f"epoch {epoch} batch {batch_idx // cfg.batch_size}"
            sentences, rows = _distinct_sentences(chunk)
            masks = _dropout_masks(cfg, epoch, batch_idx, (len(chunk), params.output_dim), params.dtype)
            with GradTape() as tape:
                tape.watch(params.flat)
                encoded = encode_batch(sentences, table, params)
                batch = EncodedBatch(encoded, rows, np.array([q.y for q in chunk]), masks)
                result = batch_loss(batch, cfg.hp, params.flat)
            loss_value = result.loss.item()
            if not np.isfinite(loss_value):
                raise TrainingError(
                    f"non-finite loss at {batch_id}; energies={result.energies.tolist()}")
            if result.degenerate_count == len(chunk):
                warnings.warn(f"all {len(chunk)} quadruples degenerate at {batch_id}", RuntimeWarning)
            grad = tape.gradient(result.loss)[params.flat]
            bad = np.flatnonzero(~np.isfinite(grad))
            if bad.size:
                raise TrainingError(f"non-finite gradient in {params.layout.name_at(bad[0])} at {batch_id}")
            if cfg.clip_norm is not None:
                grad = _clip_gradients(grad, cfg.clip_norm)
            params = replace(params, flat=adam_step(params.flat, grad, state, cfg))
            loss_sum += loss_value * len(chunk)
            degenerate += result.degenerate_count
        log.append(EpochStats(epoch=epoch, mean_loss=loss_sum / len(quads),
                              degenerate_quadruples=degenerate))

    return TrainResult(params=params, loss_log=tuple(log),
                       quadruple_count=len(quads), prototypes=prototypes)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _manifest_lines(lay: Layout) -> list[str]:
    """manifest.txt's lines: each tensor's name, shape and byte offset in
    weights.bin."""
    return [f"{name}\t{','.join(str(n) for n in shape)}\t{4 * offset}"
            for name, shape, offset in zip(lay.names, lay.shapes, lay.offsets)]


def save_checkpoint(directory, params: EncoderParams, config: dict,
                    prototypes: dict[str, list[Prototype]]) -> None:
    """Write manifest.txt, weights.bin (little-endian float32 in manifest
    order), config.json, and prototypes.tsv into the directory; a NaN or
    infinite config value raises ValueError before any file is written."""
    meta = dict(config)
    meta.setdefault("input_dim", params.input_dim)
    meta.setdefault("hidden", params.hidden)
    config_text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
    os.makedirs(directory, exist_ok=True)
    atomic_write_bytes(os.path.join(directory, WEIGHTS_NAME),
                       np.ascontiguousarray(params.flat.values, dtype="<f4").tobytes())
    atomic_write_text(os.path.join(directory, MANIFEST_NAME), join_lines(_manifest_lines(params.layout)))
    atomic_write_text(os.path.join(directory, CONFIG_NAME), config_text)
    atomic_write_text(os.path.join(directory, PROTOTYPES_NAME),
                      join_lines(f"{wh}\t{' '.join(pr.question)}\t{' '.join(pr.answer)}"
                                 for wh in sorted(prototypes) for pr in prototypes[wh]))


def load_checkpoint(directory):
    """Read back (EncoderParams, config dict, prototypes)."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    weights_path = os.path.join(directory, WEIGHTS_NAME)
    config_path = os.path.join(directory, CONFIG_NAME)
    protos_path = os.path.join(directory, PROTOTYPES_NAME)
    for p in (manifest_path, weights_path, config_path, protos_path):
        if not os.path.exists(p):
            raise ParseError(f"checkpoint incomplete: missing {os.path.basename(p)}")

    with open(config_path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{config_path}: not valid UTF-8 JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ParseError(f"{config_path}: expected a JSON object, got {type(config).__name__}")
    for key in ("hidden", "input_dim"):
        value = config.get(key)
        if type(value) is not int or value < 1:
            raise ParseError(f"{config_path}: {key} must be a positive integer, got {value!r}"
                             if key in config else f"{config_path}: missing key {key!r}")
    hidden, input_dim = config["hidden"], config["input_dim"]

    lay = layout(hidden, input_dim)
    want = _manifest_lines(lay)
    got = [line for _, line in read_lines(manifest_path)]
    for lineno, (line, expected) in enumerate(itertools.zip_longest(got, want), start=1):
        if line == expected:
            continue
        where = f"{manifest_path}: line {lineno}"
        if expected is None:
            raise ParseError(f"{where}: unexpected line after the {len(want)} tensors")
        raise ParseError(f"{where}: tensor {lay.names[lineno - 1]}: got "
                         f"{'end of file' if line is None else repr(line)}, but config.json's "
                         f"hidden={hidden}, input_dim={input_dim} lay it out as {expected!r}")

    with open(weights_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 * lay.size:
        raise ParseError(f"{weights_path}: tensor {lay.name_at(len(blob) // 4)} exceeds weights file "
                         f"({len(blob)} bytes, {4 * lay.size} needed)")
    if len(blob) > 4 * lay.size:
        raise ParseError(f"{weights_path}: {len(blob) - 4 * lay.size} bytes after the "
                         f"{4 * lay.size} that the manifest's tensors use")
    flat = np.frombuffer(blob, dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ParseError(f"{weights_path}: tensor {lay.name_at(bad[0])} has non-finite values")
    params = EncoderParams(flat=Tensor(flat, dtype=np.float32), hidden=hidden, input_dim=input_dim)

    prototypes: dict[str, list[Prototype]] = {}
    for lineno, line in read_lines(protos_path):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(f"{protos_path}: line {lineno}: expected 3 columns")
        wh, q, a = cols
        if wh not in WH_TYPES:
            raise ParseError(f"{protos_path}: line {lineno}: wh-type {wh!r} is not one of {WH_TYPES}")
        question, answer = tuple(q.split()), tuple(a.split())
        if not question or not answer:
            raise ParseError(f"{protos_path}: line {lineno}: prototype question or answer has no tokens")
        prototypes.setdefault(wh, []).append(Prototype(question=question, answer=answer, wh_type=wh))
    return params, config, prototypes
