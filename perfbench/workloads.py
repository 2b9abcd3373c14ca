"""The benchmark's workloads, their output checks, and the reference units.

Load shape: a closed loop with one caller in one process, which calls each
phase through analogia's public modules and waits for it.  A run is a set
of units, each a repeatable timed phase with its output checks.  The
scheduler runs them in turn for the run's time, always the unit with the
least time spent per unit of weight, so every figure is sampled all
through the run and not in one stretch of it; each end-to-end metric is the
median of its samples.

The output contract needs every end-to-end metric from every workload.
Figures a workload does not target come from reference units with fixed
inputs, which read the same whatever the workload seed: the README quick
start in-process on the bundled toy data, a gradient audit on fixed
instances, and the quick start through the CLI.

This module imports analogia, so the caller pins the checkout first.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from analogia import (analogy_core, cli, diagnostics, encoder, evaluation, fsio, numerics,
                      quadgen, synthetic, text_data, training)

import inputs
import spans

MODULES = {
    "analogy_core": analogy_core, "cli": cli, "diagnostics": diagnostics, "encoder": encoder,
    "evaluation": evaluation, "fsio": fsio, "numerics": numerics, "quadgen": quadgen,
    "synthetic": synthetic, "text_data": text_data, "training": training,
}

# Share of a run's time per unit.  The host's speed moves in phases of
# about ten seconds, so a figure sampled in several short units spread over
# the run is steadier than one sampled in one long unit.
WEIGHTS = {"setup": 1.0, "train": 4.0, "evaluate": 3.0, "sweep": 2.0, "toy": 1.5, "audit": 2.0, "cli": 2.0}

# synth-small: the acceptance test's training split and default training
# (20 epochs), checked once per run; timed training units of 4 epochs, so
# that a run holds several; a held-out split large enough that evaluation
# takes about a second, and a three-point prototype sweep on a third of it.
SYNTH_HELDOUT_PER_TYPE = 100
SYNTH_SWEEP_STRIDE = 3
SYNTH_P = 5
SYNTH_SWEEP_P = (1, 3, 5)
SYNTH_DIM = 32
SYNTH_UNIT_EPOCHS = 4

PAPER_P = 5
PAPER_EPOCHS = 1
PAPER_CHECKED_QUESTIONS = 2
PAPER_OVERHEAD_QUESTIONS = 6

# The README quick start.
TOY_DATA = os.path.join("data", "toy_qa.tsv")
TOY_VECTORS = os.path.join("data", "toy_vectors.vec")
TOY_P = 2
TOY_EPOCHS = 10
TOY_DIM = 8
TOY_SEED = 0
TOY_SWEEP_P = (1, 2)
TOY_RANKED = {"Who": (3, 0), "When": (3, 0), "Where": (3, 0), "Other": (0, 1), "Combined": (9, 1)}

REFERENCE_AUDIT_INSTANCES = 5  # per precision
REFERENCE_AUDIT_SEED = 0

# Tracing overhead: alternating untraced/traced pairs of one short
# training, each pair's order flipped from the last.
OVERHEAD_PAIRS = 5


E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_quads_per_s": "quadruples/s",
    "eval_questions_per_s": "questions/s",
    "sweep_questions_per_s": "questions/s",
    "heldout_mrr": "ratio",
    "audit_instances_per_s": "instances/s",
    "cli_train_s": "s",
    "cli_eval_s": "s",
}

NULL = spans.NullTracer()

# The console script may not be installed: launch the CLI through this
# interpreter, with the checkout's src first on the path.
_CLI_MAIN = "import sys; sys.path.insert(0, sys.argv.pop(1)); import analogia.cli as c; sys.exit(c.dispatch(sys.argv[1:]))"


class OpFailed(Exception):
    """An operation raised; the run cannot go on."""


class Ledger:
    """Operations attempted and failed.  Every phase and every output check
    is an operation; a failed check counts as a failed operation, never as
    a skipped one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, name: str, fn):
        """(result, seconds) of fn(); a raise is a failed operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(f"{name}: {exc}") from exc
        return result, time.perf_counter() - t0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {name} {detail}", file=sys.stderr)
        return ok


class Unit:
    """One repeatable piece of a run.  run(ledger, tracer) does the work,
    checks it, and returns {metric: sample}.  weight is the unit's share of
    the run's time."""

    def __init__(self, name: str, run, weight: float | None = None):
        self.name, self.run = name, run
        self.weight = WEIGHTS[name] if weight is None else weight
        self.spent = 0.0
        self.last = 0.0
        self.runs = 0


def schedule(units, seconds: float, ledger: Ledger) -> dict:
    """Run units for `seconds`, always the one with the least time spent
    per unit of weight among those that still fit; every unit runs at least
    once.  Returns metric -> samples."""
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        fitting = [u for u in units if not u.runs or now + u.last <= deadline]
        if not fitting:
            return samples
        unit = min(fitting, key=lambda u: u.spent / u.weight)
        for name, value in unit.run(ledger, NULL).items():
            samples[name].append(value)
        unit.last = time.perf_counter() - now
        unit.spent += unit.last
        unit.runs += 1


def _sub_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def _combined(report):
    return report.row("Combined")


def _report_shape_ok(text: str):
    """True when a CLI eval report has the quick start's rows and counts."""
    rows = {}
    for line in text.splitlines()[1:]:
        cols = line.split("\t")
        if len(cols) == 5:
            rows[cols[0]] = (int(cols[1]), int(cols[2]))
    return rows == TOY_RANKED, f"report rows {rows}"


def _launch(root: str, args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", _CLI_MAIN, os.path.join(root, "src"), *args],
                          capture_output=True, text=True, cwd=root, timeout=120)


def _quick_start_args(root: str, out: str, seed: int):
    train = ["train", "--data", os.path.join(root, TOY_DATA), "--embeddings", os.path.join(root, TOY_VECTORS),
             "--prototypes", str(TOY_P), "--epochs", str(TOY_EPOCHS), "--dim", str(TOY_DIM),
             "--seed", str(seed), "--out", out]
    evaluate = ["eval", "--checkpoint", out, "--data", os.path.join(root, TOY_DATA),
                "--embeddings", os.path.join(root, TOY_VECTORS)]
    return train, evaluate


def _warm_encoder(sentences, table, dim: int, seed: int) -> None:
    """One forward pass at the workload's shapes, so lazy BLAS start-up
    is paid in set-up and not in the first timed phase."""
    params = encoder.EncoderParams.initialize(input_dim=table.dim, hidden=dim // 2, seed=seed)
    encoder.encode_batch(sentences, table, params)
    encoder.sentence_encoder(table, params)(sentences[0])


def _check_losses(name, result, ledger) -> None:
    ledger.check(f"{name} finite loss", all(math.isfinite(e.mean_loss) for e in result.loss_log),
                 f"{result.loss_log}")


def _train_rate(result, cfg, seconds: float) -> float:
    return result.quadruple_count * cfg.epochs / seconds


def _first_questions(dataset, count: int | None):
    return dataset if count is None else text_data.QADataset(questions=dataset.questions[:count])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A named set of inputs and the units timed on them.

    prepare() makes what set-up reads, untimed; setup() builds or loads the
    inputs through analogia and is timed as setup_s; begin() does untimed
    work the units need; units() lists the workload's timed phases;
    overhead_step() is the short fixed training the tracing overhead is
    measured on."""

    name = ""
    measures: tuple = ()
    overhead_questions: int | None = None

    def prepare(self, root, seed, workdir):
        return None

    def begin(self, state, ledger):
        return None

    def overhead_step(self, state):
        cfg = training.TrainConfig(dim=state["dim"], epochs=1, seed=state["seed"])
        dataset = _first_questions(state["train"], self.overhead_questions)
        return lambda: training.train(cfg, dataset, state["prototypes"], state["table"])


class SynthSmall(Workload):
    """Overhead-bound: dim 32 on the synthetic corpus."""

    name = "synth-small"
    measures = ("setup_s", "peak_rss_mb", "train_quads_per_s", "eval_questions_per_s",
                "sweep_questions_per_s", "heldout_mrr")

    def setup(self, root, seed, workdir, prepared, ledger, tracer):
        with tracer.phase("setup"):
            corpus, _ = ledger.run("build corpus", lambda: synthetic.build_corpus(
                eval_per_type=SYNTH_HELDOUT_PER_TYPE, seed=seed))
            prototypes, _ = ledger.run("select prototypes", lambda: quadgen.select_prototypes(
                corpus.train, p=SYNTH_P, seed=seed))
            sentences = [c.text for q in corpus.train.questions[:8] for c in q.candidates]
            ledger.run("warm-up", lambda: _warm_encoder(sentences, corpus.table, SYNTH_DIM, seed))
        return {"train": corpus.train, "held_out": corpus.held_out, "table": corpus.table,
                "sweep_set": text_data.QADataset(questions=corpus.held_out.questions[::SYNTH_SWEEP_STRIDE]),
                "prototypes": prototypes, "seed": seed, "dim": SYNTH_DIM}

    def begin(self, state, ledger):
        """The default 20-epoch training, once, for the output checks and
        the weights that evaluate and sweep use."""
        cfg = training.TrainConfig(dim=SYNTH_DIM, seed=state["seed"])
        result, _ = ledger.run("checked train", lambda: training.train(
            cfg, state["train"], state["prototypes"], state["table"]))
        log = result.loss_log
        ledger.check("loss halves", all(math.isfinite(e.mean_loss) for e in log)
                     and log[-1].mean_loss <= 0.5 * log[0].mean_loss,
                     f"{log[0].mean_loss} -> {log[-1].mean_loss}")
        state["encoder"] = encoder.sentence_encoder(state["table"], result.params)
        state["baseline_mrr"] = _combined(evaluation.baseline_rank(
            state["held_out"], state["table"], state["prototypes"]).report).mrr
        sweep_ev, _ = ledger.run("evaluate sweep set", lambda: evaluation.evaluate(
            state["encoder"], state["sweep_set"], state["prototypes"]))
        state["sweep_mrr"] = _combined(sweep_ev.report).mrr
        state["sweep_ranked"] = _combined(sweep_ev.report).questions

    def units(self, state):
        return [Unit("train", functools.partial(self.train, state)),
                Unit("evaluate", functools.partial(self.evaluate, state)),
                Unit("sweep", functools.partial(self.sweep, state))]

    @staticmethod
    def train(state, ledger, tracer):
        cfg = training.TrainConfig(dim=SYNTH_DIM, epochs=SYNTH_UNIT_EPOCHS, seed=state["seed"])
        with tracer.phase("train"):
            result, seconds = ledger.run("train", lambda: training.train(
                cfg, state["train"], state["prototypes"], state["table"]))
        _check_losses("train", result, ledger)
        return {"train_quads_per_s": _train_rate(result, cfg, seconds)}

    @staticmethod
    def evaluate(state, ledger, tracer):
        with tracer.phase("evaluate"):
            ev, seconds = ledger.run("evaluate", lambda: evaluation.evaluate(
                state["encoder"], state["held_out"], state["prototypes"]))
        combined = _combined(ev.report)
        ledger.check("held-out MRR", combined.mrr >= 0.9 and combined.mrr > state["baseline_mrr"],
                     f"MRR {combined.mrr} baseline {state['baseline_mrr']}")
        return {"eval_questions_per_s": combined.questions / seconds, "heldout_mrr": combined.mrr}

    @staticmethod
    def sweep(state, ledger, tracer):
        with tracer.phase("sweep"):
            sweep, seconds = ledger.run("sweep", lambda: evaluation.sweep_prototypes(
                state["encoder"], state["sweep_set"], state["train"], p_values=SYNTH_SWEEP_P, seed=state["seed"]))
        rows = {r.p: r for r in sweep.rows}
        ledger.check("sweep rows", sorted(rows) == sorted(SYNTH_SWEEP_P) and not sweep.warnings
                     and all(math.isfinite(r.map) and math.isfinite(r.mrr) for r in sweep.rows),
                     f"{sweep.rows} {sweep.warnings}")
        ledger.check("sweep agrees with evaluate", rows.get(SYNTH_P) is not None
                     and rows[SYNTH_P].mrr == state["sweep_mrr"], f"{rows.get(SYNTH_P)} vs {state['sweep_mrr']}")
        return {"sweep_questions_per_s": state["sweep_ranked"] * len(SYNTH_SWEEP_P) / seconds}


class PaperScale(Workload):
    """FLOP-bound: 300-d vectors, hidden 150, sentences of 10-40 tokens,
    read from generated files."""

    name = "paper-scale"
    measures = ("setup_s", "peak_rss_mb", "train_quads_per_s", "eval_questions_per_s")
    overhead_questions = PAPER_OVERHEAD_QUESTIONS

    def prepare(self, root, seed, workdir):
        return inputs.write_texts(inputs.paper_scale_texts(seed), os.path.join(workdir, "paper-scale"))

    def setup(self, root, seed, workdir, paths, ledger, tracer):
        with tracer.phase("setup"):
            table, _ = ledger.run("load embeddings", lambda: text_data.load_embeddings(paths[inputs.PAPER_VEC]))
            train_ds, _ = ledger.run("load train", lambda: text_data.load_qa_dataset(paths[inputs.PAPER_TRAIN]))
            heldout, _ = ledger.run("load held-out", lambda: text_data.load_qa_dataset(paths[inputs.PAPER_HELDOUT]))
            prototypes, _ = ledger.run("select prototypes", lambda: quadgen.select_prototypes(
                train_ds, p=PAPER_P, seed=seed))
            sentences = [c.text for q in train_ds.questions[:4] for c in q.candidates][:32]
            ledger.run("warm-up", lambda: _warm_encoder(sentences, table, training.TrainConfig().dim, seed))
        return {"table": table, "train": train_ds, "heldout": heldout, "prototypes": prototypes,
                "seed": seed, "dim": training.TrainConfig().dim}

    def begin(self, state, ledger):
        prototypes = state["prototypes"]
        state["scorable"] = sum(1 for q in state["heldout"].questions
                                if any(c.label == 1 for c in q.candidates) and prototypes.get(q.wh_type)
                                and q.text and all(c.text for c in q.candidates))
        state["evaluations"] = 0

    def units(self, state):
        return [Unit("train", functools.partial(self.train, state)),
                Unit("evaluate", functools.partial(self.evaluate, state))]

    @staticmethod
    def train(state, ledger, tracer):
        cfg = training.TrainConfig(epochs=PAPER_EPOCHS, seed=state["seed"])
        with tracer.phase("train"):
            result, seconds = ledger.run("train", lambda: training.train(
                cfg, state["train"], state["prototypes"], state["table"]))
        _check_losses("train", result, ledger)
        state["params"] = result.params
        return {"train_quads_per_s": _train_rate(result, cfg, seconds)}

    @classmethod
    def evaluate(cls, state, ledger, tracer):
        enc = encoder.sentence_encoder(state["table"], state["params"])
        with tracer.phase("evaluate"):
            ev, seconds = ledger.run("evaluate", lambda: evaluation.evaluate(enc, state["heldout"], state["prototypes"]))
        with tracer.phase("check"):
            ranked = _combined(ev.report).questions
            ledger.check("ranked == scorable", ranked == state["scorable"] and ranked == len(ev.rankings),
                         f"ranked {ranked}, scorable {state['scorable']}")
            state["evaluations"] += 1
            cls._check_sample(state, ev, ledger, _sub_seed(state["seed"], state["evaluations"]))
        return {"eval_questions_per_s": ranked / seconds}

    @staticmethod
    def _check_sample(state, ev, ledger, seed):
        """Reported scores against an independent numpy cosine over encode
        outputs, and encode_batch rows against per-sentence encode."""
        table, prototypes, params = state["table"], state["prototypes"], state["params"]
        by_id = {q.question_id: q for q in state["heldout"].questions}
        rng = np.random.default_rng(seed)
        for k in rng.choice(len(ev.rankings), size=min(PAPER_CHECKED_QUESTIONS, len(ev.rankings)), replace=False):
            scored = ev.rankings[int(k)]
            q = by_id[scored.question_id]

            def enc(tokens):
                return encoder.encode(tokens, table, params).values.astype(np.float64)

            qv = enc(q.text)
            protos = [enc(p.question) - enc(p.answer) for p in prototypes[q.wh_type]]
            want = []
            for c in q.candidates:
                shift = qv - enc(c.text)
                cos = [0.0 if min(np.linalg.norm(shift), np.linalg.norm(p)) < 1e-8
                       else float(np.dot(shift, p) / (np.linalg.norm(shift) * np.linalg.norm(p)))
                       for p in protos]
                want.append(max(cos))
            got = [0.0] * len(q.candidates)
            for e in scored.ranking.entries:
                got[e.candidate_index] = e.score
            ledger.check(f"scores {q.question_id}", np.allclose(got, want, rtol=0, atol=1e-9),
                         f"{got} vs {want}")

            sentences = [q.text] + [c.text for c in q.candidates]
            batch = encoder.encode_batch(sentences, table, params).values
            single = np.stack([encoder.encode(s, table, params).values for s in sentences])
            ledger.check(f"encode_batch rows {q.question_id}", np.allclose(batch, single, rtol=1e-4, atol=1e-5),
                         f"max diff {np.abs(batch - single).max()}")


WORKLOADS = {w.name: w for w in (SynthSmall(), PaperScale())}


# ---------------------------------------------------------------------------
# Reference units
# ---------------------------------------------------------------------------


def _audit(ledger: Ledger):
    """The float32 then float64 audit on the reference instances, as
    `analogia check-gradients` runs it, with its checks; its seconds."""
    tolerances = {np.float32: diagnostics.F32_TOLERANCE, np.float64: diagnostics.F64_TOLERANCE}
    seconds = 0.0
    for dtype, tolerance in tolerances.items():
        errors, dt = ledger.run("audit", lambda dtype=dtype: diagnostics.full_pipeline_gradient_errors(
            REFERENCE_AUDIT_INSTANCES, seed=REFERENCE_AUDIT_SEED, dtype=dtype))
        seconds += dt
        ledger.check("audit instance count", len(errors) == REFERENCE_AUDIT_INSTANCES, f"{len(errors)}")
        for e in errors:
            ledger.check("audit instance", bool(e < tolerance), f"{np.dtype(dtype).name} error {e} >= {tolerance}")
    return seconds


def reference_units(root: str, workdir: str, wanted) -> list:
    """Units for the end-to-end metrics in `wanted`, on fixed inputs."""
    wanted = set(wanted)
    units = []
    if wanted & {"train_quads_per_s", "eval_questions_per_s", "sweep_questions_per_s", "heldout_mrr"}:
        toy = {"dataset": text_data.load_qa_dataset(os.path.join(root, TOY_DATA)),
               "table": text_data.load_embeddings(os.path.join(root, TOY_VECTORS)), "mrr": None}
        toy["prototypes"] = quadgen.select_prototypes(toy["dataset"], p=TOY_P, seed=TOY_SEED)
        units.append(Unit("toy", functools.partial(_toy_unit, toy, wanted)))
    if "audit_instances_per_s" in wanted:
        units.append(Unit("audit", lambda ledger, tracer:
                          {"audit_instances_per_s": 2 * REFERENCE_AUDIT_INSTANCES / _audit(ledger)}))
    if wanted & {"cli_train_s", "cli_eval_s"}:
        out = os.path.join(workdir, "reference-model")
        units.append(Unit("cli", lambda ledger, tracer: _cli_unit(root, out, ledger)))
    return units


def _toy_unit(toy, wanted, ledger, tracer) -> dict:
    """The README quick start in-process: train, evaluate, sweep.  Its
    first run is a warm-up and gives no samples."""
    cfg = training.TrainConfig(dim=TOY_DIM, epochs=TOY_EPOCHS, seed=TOY_SEED)
    dataset, table, prototypes = toy["dataset"], toy["table"], toy["prototypes"]
    result, t_train = ledger.run("toy train", lambda: training.train(cfg, dataset, prototypes, table))
    enc = encoder.sentence_encoder(table, result.params)
    ev, t_eval = ledger.run("toy evaluate", lambda: evaluation.evaluate(enc, dataset, prototypes))
    sweep, t_sweep = ledger.run("toy sweep", lambda: evaluation.sweep_prototypes(
        enc, dataset, dataset, p_values=TOY_SWEEP_P, seed=TOY_SEED))
    combined = _combined(ev.report)
    ledger.check("toy report", (combined.questions, combined.skipped) == TOY_RANKED["Combined"], f"{combined}")
    ledger.check("toy sweep", len(sweep.rows) == len(TOY_SWEEP_P)
                 and all(math.isfinite(r.mrr) for r in sweep.rows), f"{sweep.rows}")
    if toy["mrr"] is None:
        toy["mrr"] = combined.mrr
        return {}
    ledger.check("toy reruns identical", combined.mrr == toy["mrr"], f"{combined.mrr} vs {toy['mrr']}")
    out = {
        "train_quads_per_s": _train_rate(result, cfg, t_train),
        "eval_questions_per_s": combined.questions / t_eval,
        "sweep_questions_per_s": combined.questions * len(TOY_SWEEP_P) / t_sweep,
        "heldout_mrr": combined.mrr,
    }
    return {k: v for k, v in out.items() if k in wanted}


def _cli_unit(root: str, out: str, ledger: Ledger) -> dict:
    """Quick-start train then eval, each in a fresh interpreter; their wall
    times."""
    train_args, eval_args = _quick_start_args(root, out, TOY_SEED)
    times = {}
    for metric, name, args in (("cli_train_s", "cli train", train_args), ("cli_eval_s", "cli eval", eval_args)):
        proc, times[metric] = ledger.run(name, lambda args=args: _launch(root, args))
        if not ledger.check(name, proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"):
            raise OpFailed(name)
    ledger.check("cli eval report", *_report_shape_ok(proc.stdout))
    return times


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kilobytes on Linux


def timed_run(wl, root: str, seed: int, seconds: float, workdir: str, ledger: Ledger):
    """End-to-end metrics of one untraced run, name -> value, and the
    number of samples behind each median, name -> count.  The first
    set-up, and the workload's untimed begin(), come before the run's
    `seconds`; set-up then repeats as a unit of its own."""
    prepared = wl.prepare(root, seed, workdir)

    def setup():
        t0 = time.perf_counter()
        state = wl.setup(root, seed, workdir, prepared, ledger, NULL)
        return state, time.perf_counter() - t0

    state, first_setup = setup()
    wl.begin(state, ledger)
    units = [Unit("setup", lambda ledger, tracer: {"setup_s": setup()[1]})]
    units += wl.units(state) + reference_units(root, workdir, set(E2E_UNITS) - set(wl.measures))
    samples = schedule(units, seconds, ledger)
    samples["setup_s"].append(first_setup)

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, {name: len(values) for name, values in samples.items()}


def traced_run(wl, root: str, seed: int, workdir: str, ledger: Ledger, spans_path: str) -> dict:
    """Per-layer metrics of one traced run, name -> (value, unit).

    Set-up and each of the workload's units run once traced, then the
    reference audit and the quick start through cli.dispatch in this
    process, so that the audit and CLI layers are measured as well.  The
    tracing overhead comes from separate alternating pairs of a short
    training, untraced and traced."""
    tracer = spans.Tracer(run_id=f"{wl.name}-seed{seed}-pid{os.getpid()}")
    probe = spans.LayerProbe(MODULES, tracer)
    ledger.run("wrapper targets", probe.require_targets)
    prepared = wl.prepare(root, seed, workdir)
    with probe.installed():
        state = wl.setup(root, seed, workdir, prepared, ledger, tracer)
    wl.begin(state, ledger)
    t_dispatch = _quick_start_in_process(root, workdir, ledger, NULL)
    with probe.installed():
        for unit in wl.units(state):
            unit.run(ledger, tracer)
        with tracer.phase("audit"):
            _audit(ledger)
        _quick_start_in_process(root, workdir, ledger, tracer)
    tracer.write(spans_path)

    extra = {"cli.dispatch_s": (t_dispatch, "s")}
    extra.update(_tracing_overhead(wl.overhead_step(state), ledger))
    imports, _ = ledger.run("import times", lambda: _import_times(root))
    extra.update(imports)
    return probe.metrics(instances=2 * REFERENCE_AUDIT_INSTANCES, extra=extra)


def _tracing_overhead(step, ledger: Ledger) -> dict:
    """Median wall time of step() untraced and traced, and the median over
    pairs of their difference and ratio.  The pairs alternate which side
    runs first; their spans go to a tracer of their own and are dropped."""
    probe = spans.LayerProbe(MODULES, spans.Tracer(run_id="overhead"))
    untraced, traced = [], []
    for i in range(OVERHEAD_PAIRS):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            with probe.installed() if on else contextlib.nullcontext():
                _, seconds = ledger.run("overhead step", step)
            (traced if on else untraced).append(seconds)
    return {
        "trace.untraced_s": (statistics.median(untraced), "s"),
        "trace.traced_s": (statistics.median(traced), "s"),
        "trace.overhead_s": (statistics.median(t - u for t, u in zip(traced, untraced)), "s"),
        "trace.overhead_ratio": (statistics.median(t / u for t, u in zip(traced, untraced)), "ratio"),
    }


def _quick_start_in_process(root: str, workdir: str, ledger: Ledger, tracer) -> float:
    """The quick start's train and eval through cli.dispatch in this
    process; their summed wall time."""
    train_args, eval_args = _quick_start_args(root, os.path.join(workdir, "in-process-model"), TOY_SEED)
    seconds = 0.0
    for phase, args in (("cli-train", train_args), ("cli-eval", eval_args)):
        buf = io.StringIO()
        with tracer.phase(phase), contextlib.redirect_stdout(buf):
            code, dt = ledger.run(phase, lambda args=args: cli.dispatch(args))
        ledger.check(phase, code == 0, f"exit {code}")
        if phase == "cli-eval":
            ledger.check("cli eval report", *_report_shape_ok(buf.getvalue()))
        seconds += dt
    return seconds


def _import_times(root: str, repeats: int = 3) -> dict:
    """Median wall time of a fresh interpreter importing analogia.cli,
    and importing numpy alone (the floor)."""
    timer = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import {mod}; print(time.perf_counter() - t)")
    out = {}
    for metric, mod in (("cli.import_s", "analogia.cli"), ("cli.numpy_import_s", "numpy")):
        times = []
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-c", timer.format(mod=mod), os.path.join(root, "src")],
                                  capture_output=True, text=True, timeout=120, check=True)
            times.append(float(proc.stdout.strip()))
        out[metric] = (statistics.median(times), "s")
    return out
