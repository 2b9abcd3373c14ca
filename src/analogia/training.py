"""Training loop, Adam with decoupled weight decay, and checkpoints.

One run is a pure function of (config, dataset, prototypes, table): the
seed pins quadruple generation, parameter init, epoch shuffles, and
dropout masks, so two identical runs produce bit-identical loss logs and
weights.  Word embeddings are read-only throughout; only the 18 encoder
tensors train.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .analogy_core import EncodedBatch, HyperParams, batch_loss
from .encoder import Dropout, EncoderParams, derive_seed, encode_batch
from .fsio import atomic_write_bytes, atomic_write_text
from .numerics import GradTape, Tensor, gather_rows
from .quadgen import Prototype, generate_training_quadruples
from .text_data import ConfigError, EmbeddingTable, ParseError, QADataset

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
    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros(p.shape, dtype=p.dtype) for p in params],
                   v=[np.zeros(p.shape, dtype=p.dtype) for p in params], t=0)


def adam_step(params, grads, state: AdamState, cfg: TrainConfig):
    """Bias-corrected Adam update, then decoupled decay θ -= lr*wd*θ.

    Returns replacement tensors; the caller rebuilds its parameter struct.
    """
    params = list(params)
    grads = list(grads)
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must align")
    for i, (p, g) in enumerate(zip(params, grads)):
        if np.asarray(g).shape != p.shape:
            raise ValueError(f"grad {i} shape {np.asarray(g).shape} != param shape {p.shape}")
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient in parameter {i}")
    state.t += 1
    t = state.t
    out = []
    decay = 1.0 - cfg.lr * cfg.weight_decay
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=p.dtype)
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[i] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[i] / (1.0 - ADAM_BETA2 ** t)
        theta = p.values - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        theta = theta * decay
        out.append(Tensor(theta, dtype=p.dtype))
    return out


def _clip_gradients(grads, max_norm: float):
    total = np.sqrt(sum(float((np.asarray(g, dtype=np.float64) ** 2).sum()) for g in grads))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return [g * scale for g in grads]


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
    lines = [LOSS_LOG_HEADER]
    for row in log:
        lines.append(f"{row.epoch}\t{row.mean_loss!r}\t{row.degenerate_quadruples}")
    return "".join(line + "\n" for line in lines)


def _distinct_sentences(chunk):
    """The chunk's a/b/c/d sentences without repeats, in first-seen order,
    and for each role the index of each quadruple's sentence in that list."""
    slots: dict = {}
    rows = {role: np.array([slots.setdefault(getattr(q, role), len(slots)) for q in chunk])
            for role in "abcd"}
    return list(slots), rows


def train(cfg: TrainConfig, dataset: QADataset, prototypes: dict[str, list[Prototype]],
          table: EmbeddingTable) -> TrainResult:
    """Run the full optimization and return final weights plus the log.

    Batches hold whole quadruples.  Each distinct sentence of a batch is
    encoded once, in one packed batch over all four roles; each role then
    gathers its rows and applies its own derived dropout mask.
    """
    quads = generate_training_quadruples(dataset, prototypes,
                                         negatives_per_positive=cfg.negatives_per_positive,
                                         seed=derive_seed(cfg.seed, "quadruples"))
    if not quads:
        raise TrainingError("no training quadruples could be generated")

    params = EncoderParams.initialize(input_dim=table.dim, hidden=cfg.dim // 2,
                                      seed=derive_seed(cfg.seed, "init"))
    state = AdamState.for_params(params.tensors())
    log: list[EpochStats] = []

    for epoch in range(1, cfg.epochs + 1):
        order = np.random.default_rng(derive_seed(cfg.seed, "shuffle", epoch)).permutation(len(quads))
        loss_sum = 0.0
        degenerate = 0
        for batch_idx in range(0, len(order), cfg.batch_size):
            chunk = [quads[i] for i in order[batch_idx:batch_idx + cfg.batch_size]]
            batch_id = f"epoch {epoch} batch {batch_idx // cfg.batch_size}"
            tensors = params.tensors()
            with GradTape() as tape:
                tape.watch(*tensors)
                sentences, rows = _distinct_sentences(chunk)
                encoded = encode_batch(sentences, table, params)
                groups = {}
                for role in "abcd":
                    drop = Dropout(rate=cfg.dropout, training=True,
                                   seed=derive_seed(cfg.seed, "dropout", epoch, batch_idx, role))
                    groups[role] = drop.apply(gather_rows(encoded, rows[role]))
                batch = EncodedBatch(f_qp=groups["a"], f_ap=groups["b"],
                                     f_qi=groups["c"], f_ai=groups["d"],
                                     labels=np.array([q.y for q in chunk]))
                result = batch_loss(batch, cfg.hp, params=tensors)
            loss_value = result.loss.item()
            if not np.isfinite(loss_value):
                raise TrainingError(
                    f"non-finite loss at {batch_id}; energies={result.energies.tolist()}")
            if result.degenerate_count == len(chunk):
                warnings.warn(f"all {len(chunk)} quadruples degenerate at {batch_id}", RuntimeWarning)
            grad_map = tape.gradient(result.loss)
            grads = [grad_map[t] for t in tensors]
            for i, g in enumerate(grads):
                if not np.isfinite(g).all():
                    raise TrainingError(f"non-finite gradient (parameter {i}) at {batch_id}")
            if cfg.clip_norm is not None:
                grads = _clip_gradients(grads, cfg.clip_norm)
            params = params.with_tensors(adam_step(tensors, grads, state, cfg))
            loss_sum += loss_value * len(chunk)
            degenerate += result.degenerate_count
        log.append(EpochStats(epoch=epoch, mean_loss=loss_sum / len(quads),
                              degenerate_quadruples=degenerate))

    return TrainResult(params=params, loss_log=tuple(log),
                       quadruple_count=len(quads), prototypes=prototypes)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(directory, params: EncoderParams, config: dict,
                    prototypes: dict[str, list[Prototype]]) -> None:
    """Write manifest.txt, weights.bin (little-endian float32 in manifest
    order), config.json, and prototypes.tsv into the directory."""
    os.makedirs(directory, exist_ok=True)
    manifest_lines = []
    blobs = []
    offset = 0
    for name, t in params.named():
        raw = np.ascontiguousarray(t.values, dtype="<f4").tobytes()
        shape = ",".join(str(s) for s in t.shape)
        manifest_lines.append(f"{name}\t{shape}\t{offset}")
        blobs.append(raw)
        offset += len(raw)
    meta = dict(config)
    meta.setdefault("input_dim", params.input_dim)
    meta.setdefault("hidden", params.hidden)
    atomic_write_bytes(os.path.join(directory, WEIGHTS_NAME), b"".join(blobs))
    atomic_write_text(os.path.join(directory, MANIFEST_NAME),
                      "".join(line + "\n" for line in manifest_lines))
    atomic_write_text(os.path.join(directory, CONFIG_NAME),
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")
    proto_lines = []
    for wh in sorted(prototypes):
        for pr in prototypes[wh]:
            proto_lines.append(f"{wh}\t{' '.join(pr.question)}\t{' '.join(pr.answer)}")
    atomic_write_text(os.path.join(directory, PROTOTYPES_NAME),
                      "".join(line + "\n" for line in proto_lines))


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
        config = json.load(fh)
    try:
        hidden = int(config["hidden"])
        input_dim = int(config["input_dim"])
    except KeyError as exc:
        raise ParseError(f"{config_path}: missing key {exc}") from None

    blob = open(weights_path, "rb").read()
    entries = {}
    with open(manifest_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise ParseError(f"{manifest_path}: line {lineno}: expected 3 columns")
            name, shape_str, offset_str = cols
            shape = tuple(int(s) for s in shape_str.split(","))
            offset = int(offset_str)
            count = int(np.prod(shape))
            end = offset + 4 * count
            if end > len(blob):
                raise ParseError(f"{manifest_path}: line {lineno}: tensor {name} exceeds weights file")
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape)
            if not np.isfinite(arr).all():
                raise ParseError(f"{weights_path}: tensor {name} has non-finite values")
            entries[name] = Tensor(arr.astype(np.float32))

    template = EncoderParams.initialize(input_dim=input_dim, hidden=hidden, seed=0)
    try:
        tensors = [entries[name] for name, _ in template.named()]
    except KeyError as exc:
        raise ParseError(f"{manifest_path}: missing tensor {exc}") from None
    params = template.with_tensors(tensors)

    prototypes: dict[str, list[Prototype]] = {}
    with open(protos_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise ParseError(f"{protos_path}: line {lineno}: expected 3 columns")
            wh, q, a = cols
            prototypes.setdefault(wh, []).append(
                Prototype(question=tuple(q.split()), answer=tuple(a.split()), wh_type=wh))
    return params, config, prototypes
