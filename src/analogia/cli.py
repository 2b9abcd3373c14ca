"""Command-line entry point.

Exit codes: 0 success, 1 usage error (bad or missing flags), 2 data or
configuration error (unreadable files, malformed rows, inconsistent
dimensions, failed checks).  Flag values win over config-file values,
which win over built-in defaults; the seed additionally falls back to the
ANALOGIA_SEED environment variable.  Every output file is written through
a temp-file rename, so a failing run never leaves partial files behind.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .analogy_core import ENERGY_MODE, HyperParams, LOSS_VARIANTS, RANK_MODES
from .diagnostics import F32_TOLERANCE, F64_TOLERANCE, full_pipeline_gradient_errors
from .encoder import derive_seed, sentence_encoder
from .evaluation import baseline_rank, evaluate, random_rank, rankings_to_tsv, sweep_prototypes
from .fsio import atomic_write_text
from .quadgen import generate_training_quadruples, quadruples_to_tsv, select_prototypes
from .text_data import WH_TYPES, ConfigError, load_embeddings, load_qa_dataset, read_lines
from .training import (
    TrainConfig,
    TrainingError,
    load_checkpoint,
    loss_log_to_tsv,
    save_checkpoint,
    train,
)

LOSS_LOG_FILE = "loss_log.tsv"

_log = logging.getLogger("analogia")


class UsageError(ValueError):
    """Bad command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_types(text: str) -> tuple[str, ...]:
    canon = {t.lower(): t for t in WH_TYPES}
    out = []
    for raw in text.split(","):
        name = raw.strip().lower()
        if name not in canon:
            raise ValueError(f"unknown wh-type {raw.strip()!r}; expected {', '.join(canon)}")
        if canon[name] not in out:
            out.append(canon[name])
    if not out:
        raise ValueError("at least one wh-type required")
    return tuple(out)


def _parse_p_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v.strip()) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise ValueError(f"prototype counts must be positive integers, got {text!r}")
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def read_config_file(path) -> dict[str, str]:
    """Flat key-value text: `key value` or `key = value`, # comments."""
    values: dict[str, str] = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"{path}: line {lineno}: expected 'key value' or 'key=value'")
            key, value = parts
        key = key.strip().lower().replace("-", "_")
        if not key:
            raise ConfigError(f"{path}: line {lineno}: empty key")
        values[key] = value.strip()
    return values


class _Opt:
    """One resolvable option: flag name, parser, default."""

    def __init__(self, name, cast, default, help, choices=None, flag=False, required=False):
        self.name = name
        self.dest = name.replace("-", "_")
        self.cast = cast
        self.default = default
        self.help = help
        self.choices = choices
        self.flag = flag
        self.required = required

    def register(self, parser):
        if self.flag:
            parser.add_argument(f"--{self.name}", action="store_true", default=None, help=self.help)
        else:
            parser.add_argument(f"--{self.name}", type=self.cast, default=None,
                                choices=self.choices, help=self.help)

    def resolve(self, ns, file_cfg, config_path):
        given = getattr(ns, self.dest)
        if given is not None:
            return given
        if self.dest in file_cfg:
            raw = file_cfg[self.dest]
            try:
                value = _parse_bool(raw) if self.flag else self.cast(raw)
            except ValueError as exc:
                raise ConfigError(f"{config_path}: key {self.dest}: {exc}") from None
            if self.choices is not None and value not in self.choices:
                raise ConfigError(
                    f"{config_path}: key {self.dest}: {value!r} not one of {self.choices}")
            return value
        if self.required:
            raise UsageError(f"the following argument is required: --{self.name}")
        return self.default


def _seed_default() -> int:
    raw = os.environ.get("ANALOGIA_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"ANALOGIA_SEED must be an integer, got {raw!r}") from None


_COMMON = [
    _Opt("config", str, None, "flat key-value config file; flags override it"),
    _Opt("verbose", None, False, "log progress to stderr", flag=True),
]

_SEED = _Opt("seed", int, None, "RNG seed (default: $ANALOGIA_SEED or 0)")

_OPTIONS = {
    "gen-quadruples": [
        _Opt("data", str, None, "QA dataset TSV", required=True),
        _Opt("prototypes", int, 5, "prototypes per wh-type"),
        _Opt("types", _parse_types, WH_TYPES, "comma-separated wh-types to keep"),
        _Opt("negatives-per-positive", int, 1, "sampled negatives per positive quadruple"),
        _Opt("has-header", None, False, "skip the first dataset line", flag=True),
        _SEED,
        _Opt("out", str, None, "output TSV path (default: stdout)"),
    ],
    "train": [
        _Opt("data", str, None, "training QA dataset TSV", required=True),
        _Opt("embeddings", str, None, "word-vector text file", required=True),
        _Opt("prototypes", int, 5, "prototypes per wh-type"),
        _Opt("types", _parse_types, WH_TYPES, "comma-separated wh-types to train on"),
        _Opt("epochs", int, 20, "training epochs"),
        _Opt("batch-size", int, 32, "quadruples per batch"),
        _Opt("lr", float, 0.001, "learning rate"),
        _Opt("weight-decay", float, 0.01, "decoupled weight decay rate"),
        _Opt("dropout", float, 0.5, "dropout rate on pooled sentence vectors"),
        _Opt("margin", float, 0.0, "negative-pair margin"),
        _Opt("loss-variant", str, "hinge", "negative branch form", choices=LOSS_VARIANTS),
        _Opt("l2-lambda", float, 0.0, "explicit L2 coefficient on encoder weights"),
        _Opt("dim", int, 300, "sentence vector dimension (must be even)"),
        _Opt("negatives-per-positive", int, 1, "sampled negatives per positive quadruple"),
        _Opt("clip-norm", float, None, "global gradient-norm clip (off by default)"),
        _Opt("has-header", None, False, "skip the first dataset line", flag=True),
        _SEED,
        _Opt("out", str, None, "checkpoint directory", required=True),
    ],
    "rank": [
        _Opt("checkpoint", str, None, "trained checkpoint directory", required=True),
        _Opt("data", str, None, "QA dataset TSV to rank", required=True),
        _Opt("embeddings", str, None, "word-vector text file", required=True),
        _Opt("mode", str, ENERGY_MODE, "scoring mode", choices=RANK_MODES),
        _Opt("has-header", None, False, "skip the first dataset line", flag=True),
        _Opt("out", str, None, "ranking TSV path (default: stdout)"),
    ],
    "eval": [
        _Opt("checkpoint", str, None, "trained checkpoint directory", required=True),
        _Opt("data", str, None, "QA dataset TSV to evaluate", required=True),
        _Opt("embeddings", str, None, "word-vector text file", required=True),
        _Opt("mode", str, ENERGY_MODE, "scoring mode", choices=RANK_MODES),
        _Opt("has-header", None, False, "skip the first dataset line", flag=True),
        _Opt("report", str, None, "report TSV path (default: stdout)"),
    ],
    "baseline": [
        _Opt("data", str, None, "QA dataset TSV to evaluate", required=True),
        _Opt("embeddings", str, None, "word-vector text file", required=True),
        _Opt("proto-data", str, None, "dataset to draw prototypes from (default: --data)"),
        _Opt("prototypes", int, 5, "prototypes per wh-type"),
        _Opt("types", _parse_types, WH_TYPES, "comma-separated wh-types to keep"),
        _Opt("method", str, "mean", "baseline scorer", choices=("mean", "random")),
        _Opt("mode", str, ENERGY_MODE, "scoring mode (mean method only)", choices=RANK_MODES),
        _Opt("has-header", None, False, "skip the first dataset line", flag=True),
        _SEED,
        _Opt("report", str, None, "report TSV path (default: stdout)"),
    ],
    "sweep-prototypes": [
        _Opt("checkpoint", str, None, "trained checkpoint directory", required=True),
        _Opt("data", str, None, "QA dataset TSV to evaluate", required=True),
        _Opt("embeddings", str, None, "word-vector text file", required=True),
        _Opt("proto-data", str, None, "dataset to draw prototypes from (default: --data)"),
        _Opt("p", _parse_p_list, (10, 20, 30, 40, 50), "comma-separated prototype counts"),
        _Opt("mode", str, ENERGY_MODE, "scoring mode", choices=RANK_MODES),
        _Opt("has-header", None, False, "skip the first dataset line", flag=True),
        _SEED,
        _Opt("out", str, None, "sweep table TSV path (default: stdout)"),
    ],
    "check-gradients": [
        _Opt("instances", int, 50, "random pipeline instances per precision"),
        _Opt("precision", str, "both", "which working precisions to check",
             choices=("f32", "f64", "both")),
        _SEED,
    ],
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="analogia",
                     description="analogy-based answer ranking over wh-questions")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    summaries = {
        "gen-quadruples": "dump labeled training quadruples as TSV",
        "train": "fit the recurrent encoder and write a checkpoint",
        "rank": "score and order every question's candidates",
        "eval": "per-type MAP/MRR report for a checkpoint",
        "baseline": "mean-embedding or random ranking report",
        "sweep-prototypes": "re-evaluate across prototype pool sizes",
        "check-gradients": "finite-difference check of the full loss pipeline",
    }
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name, help=summaries[name], add_help=True)
        for opt in options + _COMMON:
            opt.register(p)
    return parser


def _resolve_options(ns) -> dict:
    file_cfg = {}
    if ns.config is not None:
        file_cfg = read_config_file(ns.config)
    cfg = {}
    for opt in _OPTIONS[ns.command] + _COMMON:
        cfg[opt.dest] = opt.resolve(ns, file_cfg, ns.config)
    if "seed" in cfg and cfg["seed"] is None:
        cfg["seed"] = _seed_default()
    return cfg


def _emit_text(path, text) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)
        _log.info("wrote %s", path)


def _load_inputs(cfg):
    return load_qa_dataset(cfg["data"], has_header=cfg["has_header"]), load_embeddings(cfg["embeddings"])


def _proto_dataset(cfg, dataset):
    """The --proto-data dataset, or the --data one, ``dataset``, when
    --proto-data is unset or names the same file."""
    path = cfg["proto_data"] or cfg["data"]
    return dataset if path == cfg["data"] else load_qa_dataset(path, has_header=cfg["has_header"])


def _select(cfg, dataset):
    protos = select_prototypes(dataset, cfg["prototypes"],
                               seed=derive_seed(cfg["seed"], "prototypes"))
    return {wh: (protos[wh] if wh in cfg["types"] else []) for wh in protos}


def _checkpoint_encoder(cfg):
    """The checkpoint's sentence encoder over --embeddings, and its
    prototypes."""
    params, _, protos = load_checkpoint(cfg["checkpoint"])
    table = load_embeddings(cfg["embeddings"])
    if params.input_dim != table.dim:
        raise ConfigError(
            f"embedding dimension {table.dim} does not match checkpoint input_dim {params.input_dim}")
    return sentence_encoder(table, params), protos


def _evaluate_checkpoint(cfg):
    encode_fn, protos = _checkpoint_encoder(cfg)
    dataset = load_qa_dataset(cfg["data"], has_header=cfg["has_header"])
    return evaluate(encode_fn, dataset, protos, mode=cfg["mode"])


def _cmd_gen_quadruples(cfg) -> int:
    dataset = load_qa_dataset(cfg["data"], has_header=cfg["has_header"])
    protos = _select(cfg, dataset)
    quads = generate_training_quadruples(dataset, protos,
                                         negatives_per_positive=cfg["negatives_per_positive"],
                                         seed=derive_seed(cfg["seed"], "quadruples"))
    if not quads:
        raise ConfigError("no quadruples: dataset has no answerable non-prototype questions")
    _log.info("generated %d quadruples", len(quads))
    _emit_text(cfg["out"], quadruples_to_tsv(quads))
    return 0


def _cmd_train(cfg) -> int:
    dataset, table = _load_inputs(cfg)
    protos = _select(cfg, dataset)
    hp = HyperParams(margin=cfg["margin"], loss_variant=cfg["loss_variant"],
                     l2_lambda=cfg["l2_lambda"])
    train_cfg = TrainConfig(lr=cfg["lr"], weight_decay=cfg["weight_decay"],
                            dropout=cfg["dropout"], epochs=cfg["epochs"],
                            batch_size=cfg["batch_size"], seed=cfg["seed"], hp=hp,
                            dim=cfg["dim"],
                            negatives_per_positive=cfg["negatives_per_positive"],
                            clip_norm=cfg["clip_norm"])
    result = train(train_cfg, dataset, protos, table)
    meta = {
        "data": cfg["data"], "embeddings": cfg["embeddings"],
        "prototypes": cfg["prototypes"], "types": ",".join(cfg["types"]),
        "epochs": cfg["epochs"], "batch_size": cfg["batch_size"],
        "lr": cfg["lr"], "weight_decay": cfg["weight_decay"], "dropout": cfg["dropout"],
        "margin": cfg["margin"], "loss_variant": cfg["loss_variant"],
        "l2_lambda": cfg["l2_lambda"], "dim": cfg["dim"],
        "negatives_per_positive": cfg["negatives_per_positive"], "seed": cfg["seed"],
        "quadruples": result.quadruple_count,
    }
    save_checkpoint(cfg["out"], result.params, meta, result.prototypes)
    atomic_write_text(os.path.join(cfg["out"], LOSS_LOG_FILE), loss_log_to_tsv(result.loss_log))
    _log.info("checkpoint written to %s", cfg["out"])
    return 0


def _cmd_rank(cfg) -> int:
    _emit_text(cfg["out"], rankings_to_tsv(_evaluate_checkpoint(cfg).rankings))
    return 0


def _cmd_eval(cfg) -> int:
    _emit_text(cfg["report"], _evaluate_checkpoint(cfg).report.to_tsv())
    return 0


def _cmd_baseline(cfg) -> int:
    dataset, table = _load_inputs(cfg)
    protos = _select(cfg, _proto_dataset(cfg, dataset))
    if cfg["method"] == "mean":
        result = baseline_rank(dataset, table, protos, mode=cfg["mode"])
    else:
        result = random_rank(dataset, protos, seed=derive_seed(cfg["seed"], "scores"))
    _emit_text(cfg["report"], result.report.to_tsv())
    return 0


def _cmd_sweep(cfg) -> int:
    encode_fn, _ = _checkpoint_encoder(cfg)
    dataset = load_qa_dataset(cfg["data"], has_header=cfg["has_header"])
    result = sweep_prototypes(encode_fn, dataset, _proto_dataset(cfg, dataset), p_values=cfg["p"],
                              seed=cfg["seed"], mode=cfg["mode"])
    _emit_text(cfg["out"], result.to_tsv())
    return 0


def _cmd_check_gradients(cfg) -> int:
    if cfg["instances"] < 1:
        raise ConfigError(f"--instances must be at least 1, got {cfg['instances']}")
    runs = {"f32": (np.float32, F32_TOLERANCE), "f64": (np.float64, F64_TOLERANCE)}
    if cfg["precision"] != "both":
        runs = {cfg["precision"]: runs[cfg["precision"]]}
    failed = False
    for label, (dtype, tol) in runs.items():
        errors = full_pipeline_gradient_errors(cfg["instances"], seed=cfg["seed"], dtype=dtype)
        worst = float(errors.max())
        status = "PASS" if worst < tol else "FAIL"
        failed = failed or status == "FAIL"
        print(f"{label}: instances={len(errors)} max_rel_error={worst:.3e} tol={tol:.0e} {status}")
    if failed:
        raise ConfigError("gradient check failed")
    return 0


_COMMANDS = {
    "gen-quadruples": _cmd_gen_quadruples,
    "train": _cmd_train,
    "rank": _cmd_rank,
    "eval": _cmd_eval,
    "baseline": _cmd_baseline,
    "sweep-prototypes": _cmd_sweep,
    "check-gradients": _cmd_check_gradients,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise UsageError("a subcommand is required")
        cfg = _resolve_options(ns)
    except UsageError as exc:
        print(f"analogia: error: {exc}", file=sys.stderr)
        print("run 'analogia --help' for usage", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"analogia: error: {exc}", file=sys.stderr)
        return 2

    logging.basicConfig(level=logging.INFO if cfg.get("verbose") else logging.WARNING,
                        stream=sys.stderr, format="%(message)s")
    try:
        return _COMMANDS[ns.command](cfg)
    except (ValueError, TrainingError, OSError) as exc:
        print(f"analogia: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
