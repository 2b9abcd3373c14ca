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
from dataclasses import dataclass

import numpy as np

from .analogy_core import ENERGY_MODE, HyperParams, LOSS_VARIANTS, RANK_MODES
from .diagnostics import F32_TOLERANCE, F64_TOLERANCE, full_pipeline_gradient_errors
from .encoder import sentence_encoder
from .evaluation import baseline_rank, evaluate, random_rank, rankings_to_tsv, sweep_prototypes
from .fsio import atomic_write_text
from .quadgen import generate_training_quadruples, quadruples_to_tsv, select_prototypes
from .text_data import WH_TYPES, ConfigError, derive_seed, load_embeddings, load_qa_dataset, read_lines
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
    """Flat key-value text: `key value` or `key = value`, # comments.  A key
    must name an option of some command, so one file can serve several."""
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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


@dataclass(frozen=True)
class _Opt:
    """One resolvable option: flag name, parser, default."""

    name: str
    cast: object
    default: object
    help: str
    choices: tuple | None = None
    flag: bool = False
    required: bool = False

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")

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


def _setting(name, cast, help, **kw) -> _Opt:
    """train's flag for the TrainConfig or HyperParams field ``name``,
    with the field's own default."""
    owner = HyperParams if name in HyperParams.__dataclass_fields__ else TrainConfig
    return _Opt(name.replace("_", "-"), cast, getattr(owner, name), help, **kw)


_COMMON = [
    _Opt("config", str, None, "flat key-value config file; flags override it"),
    _Opt("verbose", None, False, "log progress to stderr", flag=True),
]

_SEED = _Opt("seed", int, None, "RNG seed (default: $ANALOGIA_SEED or 0)")
_DATA = _Opt("data", str, None, "QA dataset TSV", required=True)
_EMBEDDINGS = _Opt("embeddings", str, None, "word-vector text file", required=True)
_CHECKPOINT = _Opt("checkpoint", str, None, "trained checkpoint directory", required=True)
_HAS_HEADER = _Opt("has-header", None, False, "skip the first dataset line", flag=True)
_MODE = _Opt("mode", str, ENERGY_MODE, "scoring mode", choices=RANK_MODES)
_PROTOTYPES = _Opt("prototypes", int, 5, "prototypes per wh-type")
_TYPES = _Opt("types", _parse_types, WH_TYPES, "comma-separated wh-types to keep")
_PROTO_DATA = _Opt("proto-data", str, None, "dataset to draw prototypes from (default: --data)")
_NEGATIVES = _setting("negatives_per_positive", int, "sampled negatives per positive quadruple")
_OUT = _Opt("out", str, None, "output TSV path (default: stdout)")
_REPORT = _Opt("report", str, None, "report TSV path (default: stdout)")

# train's settings, in --help order.  _cmd_train passes each one, and the
# seed, to HyperParams or TrainConfig and records it in config.json.
_SETTINGS = (
    _setting("epochs", int, "training epochs"),
    _setting("batch_size", int, "quadruples per batch"),
    _setting("lr", float, "learning rate"),
    _setting("weight_decay", float, "decoupled weight decay rate"),
    _setting("dropout", float, "dropout rate on pooled sentence vectors"),
    _setting("margin", float, "negative-pair margin"),
    _setting("loss_variant", str, "negative branch form", choices=LOSS_VARIANTS),
    _setting("l2_lambda", float, "explicit L2 coefficient on encoder weights"),
    _setting("dim", int, "sentence vector dimension (must be even)"),
    _NEGATIVES,
    _setting("clip_norm", float, "global gradient-norm clip (off by default)"),
)

_OPTIONS = {
    "gen-quadruples": [_DATA, _PROTOTYPES, _TYPES, _NEGATIVES, _HAS_HEADER, _SEED, _OUT],
    "train": [_DATA, _EMBEDDINGS, _PROTOTYPES, _TYPES, *_SETTINGS, _HAS_HEADER, _SEED,
              _Opt("out", str, None, "checkpoint directory", required=True)],
    "rank": [_CHECKPOINT, _DATA, _EMBEDDINGS, _MODE, _HAS_HEADER, _OUT],
    "eval": [_CHECKPOINT, _DATA, _EMBEDDINGS, _MODE, _HAS_HEADER, _REPORT],
    "baseline": [_DATA, _EMBEDDINGS, _PROTO_DATA, _PROTOTYPES, _TYPES,
                 _Opt("method", str, "mean", "baseline scorer; --mode applies to mean",
                      choices=("mean", "random")),
                 _MODE, _HAS_HEADER, _SEED, _REPORT],
    "sweep-prototypes": [_CHECKPOINT, _DATA, _EMBEDDINGS, _PROTO_DATA,
                         _Opt("p", _parse_p_list, (10, 20, 30, 40, 50), "comma-separated prototype counts"),
                         _MODE, _HAS_HEADER, _SEED, _OUT],
    "check-gradients": [_Opt("instances", int, 50, "random pipeline instances per precision"),
                        _Opt("precision", str, "both", "which working precisions to check",
                             choices=("f32", "f64", "both")), _SEED],
}

_CONFIG_KEYS = frozenset(opt.dest for options in _OPTIONS.values() for opt in options + _COMMON)


def _join_negative_values(argv) -> list[str]:
    """argv with a negative number after a value flag, or after an
    unambiguous prefix of one, joined to it as --flag=value: argparse takes
    -1e-3 or -inf for an option of its own."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    takes_value = {"--help": False}
    takes_value.update((f"--{opt.name}", not opt.flag) for opt in _OPTIONS.get(command, []) + _COMMON)
    out = []
    for arg in argv:
        if out and arg.startswith("-") and _is_number(arg) and _is_value_flag(out[-1], takes_value):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_value_flag(arg: str, takes_value: dict[str, bool]) -> bool:
    """Whether argparse reads arg as an option that takes a value: its full
    name, or a prefix of exactly one option's name."""
    if arg in takes_value:
        return takes_value[arg]
    names = [name for name in takes_value if name.startswith(arg)]
    return len(names) == 1 and takes_value[names[0]]


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _build_parser() -> _Parser:
    parser = _Parser(prog="analogia",
                     description="analogy-based answer ranking over wh-questions")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name, help=_COMMANDS[name][0], add_help=True)
        for opt in options + _COMMON:
            opt.register(p)
    return parser


def _resolve_options(ns) -> dict:
    file_cfg = read_config_file(ns.config) if ns.config is not None else {}
    cfg = {opt.dest: opt.resolve(ns, file_cfg, ns.config) for opt in _OPTIONS[ns.command] + _COMMON}
    if "seed" in cfg and cfg["seed"] is None:
        cfg["seed"] = _seed_default()
    return cfg


def _emit_text(path, text) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)
        _log.info("wrote %s", path)


def _dataset(cfg, path=None):
    """The QA dataset at ``path``, or at --data, read as --has-header says."""
    return load_qa_dataset(path or cfg["data"], has_header=cfg["has_header"])


def _proto_dataset(cfg, dataset):
    """The --proto-data dataset, or the --data one, ``dataset``, when
    --proto-data is unset or names the same file."""
    path = cfg["proto_data"] or cfg["data"]
    return dataset if path == cfg["data"] else _dataset(cfg, path)


def _select(cfg, dataset):
    protos = select_prototypes(dataset, cfg["prototypes"], seed=derive_seed(cfg["seed"], "prototypes"))
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
    dataset = _dataset(cfg)
    return evaluate(encode_fn, dataset, protos, mode=cfg["mode"])


def _cmd_gen_quadruples(cfg) -> None:
    dataset = _dataset(cfg)
    protos = _select(cfg, dataset)
    quads = generate_training_quadruples(dataset, protos,
                                         negatives_per_positive=cfg["negatives_per_positive"],
                                         seed=derive_seed(cfg["seed"], "quadruples"))
    if not quads:
        raise ConfigError("no quadruples: dataset has no answerable non-prototype questions")
    _log.info("generated %d quadruples", len(quads))
    _emit_text(cfg["out"], quadruples_to_tsv(quads))


def _cmd_train(cfg) -> None:
    dataset, table = _dataset(cfg), load_embeddings(cfg["embeddings"])
    protos = _select(cfg, dataset)
    settings = {opt.dest: cfg[opt.dest] for opt in _SETTINGS} | {"seed": cfg["seed"]}
    loss = {name: settings[name] for name in HyperParams.__dataclass_fields__}
    train_cfg = TrainConfig(hp=HyperParams(**loss), **{k: v for k, v in settings.items() if k not in loss})
    result = train(train_cfg, dataset, protos, table)
    meta = {"data": cfg["data"], "embeddings": cfg["embeddings"], "has_header": cfg["has_header"] or None,
            "prototypes": cfg["prototypes"], "types": ",".join(cfg["types"]),
            "quadruples": result.quadruple_count, **settings}
    save_checkpoint(cfg["out"], result.params, {k: v for k, v in meta.items() if v is not None},
                    result.prototypes)
    atomic_write_text(os.path.join(cfg["out"], LOSS_LOG_FILE), loss_log_to_tsv(result.loss_log))
    _log.info("checkpoint written to %s", cfg["out"])


def _cmd_rank(cfg) -> None:
    _emit_text(cfg["out"], rankings_to_tsv(_evaluate_checkpoint(cfg).rankings))


def _cmd_eval(cfg) -> None:
    _emit_text(cfg["report"], _evaluate_checkpoint(cfg).report.to_tsv())


def _cmd_baseline(cfg) -> None:
    dataset, table = _dataset(cfg), load_embeddings(cfg["embeddings"])
    protos = _select(cfg, _proto_dataset(cfg, dataset))
    if cfg["method"] == "mean":
        result = baseline_rank(dataset, table, protos, mode=cfg["mode"])
    else:
        result = random_rank(dataset, protos, seed=derive_seed(cfg["seed"], "scores"))
    _emit_text(cfg["report"], result.report.to_tsv())


def _cmd_sweep(cfg) -> None:
    encode_fn, _ = _checkpoint_encoder(cfg)
    dataset = _dataset(cfg)
    result = sweep_prototypes(encode_fn, dataset, _proto_dataset(cfg, dataset), p_values=cfg["p"],
                              seed=cfg["seed"], mode=cfg["mode"])
    for warning in result.warnings:
        _log.warning("%s", warning)
    _emit_text(cfg["out"], result.to_tsv())


def _cmd_check_gradients(cfg) -> None:
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


# Each subcommand's --help summary and its function.
_COMMANDS = {
    "gen-quadruples": ("dump labeled training quadruples as TSV", _cmd_gen_quadruples),
    "train": ("fit the recurrent encoder and write a checkpoint", _cmd_train),
    "rank": ("score and order every question's candidates", _cmd_rank),
    "eval": ("per-type MAP/MRR report for a checkpoint", _cmd_eval),
    "baseline": ("mean-embedding or random ranking report", _cmd_baseline),
    "sweep-prototypes": ("re-evaluate across prototype pool sizes", _cmd_sweep),
    "check-gradients": ("finite-difference check of the full loss pipeline", _cmd_check_gradients),
}


def dispatch(argv) -> int:
    try:
        ns = _build_parser().parse_args(_join_negative_values(argv))
        if ns.command is None:
            raise UsageError("a subcommand is required")
        cfg = _resolve_options(ns)
        logging.basicConfig(level=logging.INFO if cfg.get("verbose") else logging.WARNING,
                            stream=sys.stderr, format="%(message)s")
        _COMMANDS[ns.command][1](cfg)
        return 0
    except UsageError as exc:
        print(f"analogia: error: {exc}", file=sys.stderr)
        print("run 'analogia --help' for usage", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ValueError, TrainingError, OSError) as exc:
        print(f"analogia: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
