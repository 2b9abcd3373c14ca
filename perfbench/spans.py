"""Span tracing of analogia from outside the program.

A traced run installs wrappers on analogia's module and class attributes,
in the namespace each caller resolves the name from, and removes them when
the run ends, so untraced runs call the original functions.  Each call of a
wrapped function records one span: name, start, end and parent span; the
run id is shared by every span of a run.  Spans stay in flat arrays in
memory and are written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Calls made on one thread nest, so that is the duration minus the sum of the
direct children's durations.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

PHASE_PREFIX = "phase:"

# Phases whose spans feed the per-step, per-question and per-instance
# figures.  Set-up and output checks are traced under their own phases and
# only feed per-call figures.  The audit and the in-process quick start
# ("cli-*") are the reference section of a traced run; the loader,
# quadruple and corpus figures leave them out, so that the toy files do not
# mix with the workload's own.
TRAIN_PHASES = ("train",)
EVAL_PHASES = ("evaluate", "sweep")
AUDIT_PHASES = ("audit",)
REFERENCE_PHASES = AUDIT_PHASES + ("cli-train", "cli-eval")

# Tape ops reported one by one; every wrapped op counts toward op calls.
REPORTED_OPS = ("affine2", "sigmoid", "tanh", "blend", "hadamard", "maximum",
                "concat", "add", "matmul", "transpose")
OTHER_OPS = ("sub", "square", "relu", "sqrt", "div", "scale", "stack_rows",
             "maxpool_time", "sum_all", "sum_axis", "sum_squares")


class Tracer:
    """In-memory span recorder.  Not thread-safe: one traced caller."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self._stack = [-1]
        self.phase_name = ""

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(self.name_id(name))
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")
        self.end[i] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span of one workload phase; hooks read phase_name."""
        if len(self._stack) != 1:
            raise RuntimeError("phases do not nest")
        self.phase_name = name
        try:
            with self.span(PHASE_PREFIX + name):
                yield
        finally:
            self.phase_name = ""

    def wrap(self, fn, name: str, after=None):
        """fn recording one span per call.  after(args, kwargs, result)
        runs once the span is closed, so its cost lands in the parent's
        self time and not in fn's."""
        nid = self.name_id(name)
        starts, ends, parents, names, stack = self.start, self.end, self.parent, self.name, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            starts.append(clock())
            ends.append(0.0)
            parents.append(stack[-1])
            names.append(nid)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[i] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """(start, end, parent, name id) as numpy arrays."""
        return (np.frombuffer(self.start, dtype=np.float64), np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int64), np.frombuffer(self.name, dtype=np.int64))

    def write(self, path: str) -> None:
        start, end, parent, name = self.arrays()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(path, run_id=np.array(self.run_id), names=np.array(self.names, dtype=str),
                            start=start, end=end, parent=parent, name=name)


class NullTracer:
    """Stand-in for untraced runs: phases cost nothing."""

    phase_name = ""

    @staticmethod
    def phase(name: str):
        return contextlib.nullcontext()


def self_times(start, end, parent) -> np.ndarray:
    """Per-span duration minus the summed duration of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def roots(parent) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root)."""
    top = np.arange(len(parent))
    while True:
        up = parent[top]
        if (up < 0).all():
            return top
        top = np.where(up >= 0, up, top)


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    """Install traced wrappers for (owner, attribute, span name, after)
    targets; every original is put back on exit, error or not.  A target
    the checkout lacks raises LookupError: a layer that disappears must be
    handled here, not read as zero."""
    saved = []
    try:
        for owner, attr, name, after in targets:
            orig = _original(owner, attr)
            if isinstance(orig, classmethod):
                new = classmethod(tracer.wrap(orig.__func__, name, after))
            else:
                new = tracer.wrap(orig, name, after)
            setattr(owner, attr, new)
            saved.append((owner, attr, orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _original(owner, attr):
    try:
        return vars(owner)[attr]
    except KeyError:
        raise LookupError(f"no {getattr(owner, '__name__', owner)}.{attr} to trace") from None


class LayerProbe:
    """The wrapper targets of one traced run, the counters their hooks
    fill, and the per-layer metrics derived from both."""

    def __init__(self, analogia_modules: dict, tracer: Tracer):
        self.m = analogia_modules
        self.tracer = tracer
        self.counts = defaultdict(float)
        self._step_sentences: set = set()
        self._used_tokens: dict[int, set] = {}
        self._table_rows: dict[int, int] = {}
        self._encoded: dict[str, set] = defaultdict(set)

    # -- hooks ------------------------------------------------------------

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.tracer.phase_name, key)] += amount

    def _after_encode_batch(self, args, kwargs, result) -> None:
        if self.tracer.phase_name not in TRAIN_PHASES:
            return
        sentences = args[0]
        lengths = [len(s) for s in sentences]
        self._count("rows", len(sentences))
        self._count("slots", max(lengths) * len(sentences))
        self._count("tokens", sum(lengths))
        self._step_sentences.update(tuple(s) for s in sentences)

    def _after_adam_step(self, args, kwargs, result) -> None:
        self._count("distinct_rows", len(self._step_sentences))
        self._step_sentences.clear()

    def _after_batch_loss(self, args, kwargs, result) -> None:
        self._count("degenerate_rows", result.degenerate_count)

    def _after_lookup(self, args, kwargs, result) -> None:
        table, token = args[0], args[1]
        if token in table.entries:
            used = self._used_tokens.get(id(table))
            if used is not None:
                used.add(token)
        else:
            self._count("oov_lookups")

    def _after_load_embeddings(self, args, kwargs, result) -> None:
        if self.tracer.phase_name in REFERENCE_PHASES:
            return
        self._table_rows[id(result)] = len(result.entries)
        self._used_tokens[id(result)] = set()

    def _after_encode(self, args, kwargs, result) -> None:
        self._encoded[self.tracer.phase_name].add(tuple(args[0]))

    def _after_write(self, args, kwargs, result) -> None:
        data = args[1]
        self._count("bytes_written", len(data) if isinstance(data, bytes) else len(data.encode("utf-8")))

    def _counting_fd_check(self, fd_check):
        def fd_check_counting(f, x, *args, **kwargs):
            def counted(v):
                self._count("fd_evals")
                return f(v)
            return fd_check(counted, x, *args, **kwargs)
        return fd_check_counting

    # -- targets ----------------------------------------------------------

    def targets(self):
        m = self.m
        nx, enc, td = m["numerics"], m["encoder"], m["text_data"]
        tr, ev, dg, cli = m["training"], m["evaluation"], m["diagnostics"], m["cli"]
        out = [(nx, op, f"numerics.{op}", None) for op in REPORTED_OPS + OTHER_OPS]
        out += [
            (nx.GradTape, "gradient", "numerics.gradient", None),
            (tr, "encode_batch", "encoder.encode_batch", self._after_encode_batch),
            (dg, "encode_batch", "encoder.encode_batch", self._after_encode_batch),
            (enc, "encode", "encoder.encode", self._after_encode),
            (td.EmbeddingTable, "lookup", "text_data.lookup", self._after_lookup),
            (enc.EncoderParams, "initialize", "encoder.initialize", None),
            (tr, "batch_loss", "analogy_core.batch_loss", self._after_batch_loss),
            (tr, "adam_step", "training.adam_step", self._after_adam_step),
            (tr, "generate_training_quadruples", "quadgen.generate", None),
            (m["fsio"], "_atomic_write", "fsio.write", self._after_write),
            (ev, "rank_candidates", "analogy_core.rank_candidates", None),
        ]
        for owner in (td, cli):
            out.append((owner, "load_embeddings", "text_data.load_embeddings", self._after_load_embeddings))
            out.append((owner, "load_qa_dataset", "text_data.load_qa_dataset", None))
        for owner in (m["quadgen"], ev, cli):
            out.append((owner, "select_prototypes", "quadgen.select_prototypes", None))
        for owner in (ev, cli):
            out.append((owner, "evaluate", "evaluation.evaluate", None))
        for owner in (tr, cli):
            out.append((owner, "save_checkpoint", "training.save_checkpoint", None))
        out.append((cli, "load_checkpoint", "training.load_checkpoint", None))
        out.append((m["synthetic"], "build_corpus", "synthetic.build_corpus", None))
        out.append((dg, "finite_difference_check", "numerics.fd_check", None))
        return out

    def require_targets(self) -> None:
        """Raise LookupError naming the first wrapper target the checkout
        lacks."""
        for owner, attr, _, _ in self.targets():
            _original(owner, attr)
        _original(self.m["diagnostics"], "finite_difference_check")

    @contextlib.contextmanager
    def installed(self):
        """Wrappers on for the body; the FD check also counts its f calls."""
        dg = self.m["diagnostics"]
        fd = _original(dg, "finite_difference_check")
        with _swapped(dg, "finite_difference_check", self._counting_fd_check(fd)), \
                installed(self.tracer, self.targets()):
            yield

    # -- metrics ----------------------------------------------------------

    def metrics(self, instances: int, extra: dict) -> dict:
        """Per-layer figures of the traced run, name -> (value, unit).
        A layer the workload does not reach reads 0."""
        start, end, parent, name = self.tracer.arrays()
        names = np.array(self.tracer.names, dtype=object)
        dur = end - start
        own = self_times(start, end, parent)
        root_name = names[name[roots(parent)]]
        span_name = names[name]

        def in_phases(phases):
            return np.isin(root_name, [PHASE_PREFIX + p for p in phases])

        train, evals, audit = in_phases(TRAIN_PHASES), in_phases(EVAL_PHASES), in_phases(AUDIT_PHASES)
        workload = ~in_phases(REFERENCE_PHASES)
        everywhere = np.ones(len(dur), dtype=bool)

        def total(span, where, times=dur):
            return float(times[(span_name == span) & where].sum())

        def calls(span, where=None):
            sel = span_name == span
            return int(sel.sum() if where is None else (sel & where).sum())

        def per_call(span, where=everywhere):
            n = calls(span, where)
            return total(span, where) / n if n else 0.0

        def count(key, phases):
            return sum(self.counts[(p, key)] for p in phases)

        def ratio(a, b):
            return a / b if b else 0.0

        steps = calls("training.adam_step", train)
        questions = calls("analogy_core.rank_candidates", evals)
        op_names = [f"numerics.{op}" for op in REPORTED_OPS + OTHER_OPS]
        encoded = sum(len(self._encoded[p]) for p in EVAL_PHASES)
        rows_used = sum(len(u) for u in self._used_tokens.values())
        rows_parsed = sum(self._table_rows.values())
        lookups = calls("text_data.lookup", train | evals)

        out = {
            "numerics.op_calls_per_step": (ratio(int(np.isin(span_name, op_names)[train].sum()), steps), "count"),
        }
        for op in REPORTED_OPS:
            out[f"numerics.{op}_s"] = (ratio(total(f"numerics.{op}", train, own), steps), "s/step")
        out.update({
            "numerics.gradient_s": (ratio(total("numerics.gradient", train), steps), "s/step"),
            "numerics.fd_check_s": (ratio(total("numerics.fd_check", audit), instances), "s/instance"),
            "numerics.fd_evals_per_instance": (ratio(count("fd_evals", AUDIT_PHASES), instances), "count"),
            "encoder.encode_batch_self_s": (ratio(total("encoder.encode_batch", train, own), steps), "s/step"),
            "encoder.encode_batch_calls_per_step": (ratio(calls("encoder.encode_batch", train), steps), "count"),
            "encoder.rows_per_step": (ratio(count("rows", TRAIN_PHASES), steps), "count"),
            "encoder.distinct_row_ratio": (ratio(count("distinct_rows", TRAIN_PHASES), count("rows", TRAIN_PHASES)), "ratio"),
            "encoder.eval_distinct_ratio": (ratio(encoded, calls("encoder.encode", evals)), "ratio"),
            "encoder.pad_fraction": (ratio(count("slots", TRAIN_PHASES) - count("tokens", TRAIN_PHASES),
                                           count("slots", TRAIN_PHASES)), "ratio"),
            "encoder.encode_s": (ratio(total("encoder.encode", evals), questions), "s/question"),
            "text_data.load_embeddings_s": (per_call("text_data.load_embeddings", workload), "s"),
            "text_data.vector_rows_used_ratio": (ratio(rows_used, rows_parsed), "ratio"),
            "text_data.load_qa_dataset_s": (per_call("text_data.load_qa_dataset", workload), "s"),
            "text_data.lookup_s": (ratio(total("text_data.lookup", train), steps), "s/step"),
            "text_data.oov_share": (ratio(count("oov_lookups", TRAIN_PHASES + EVAL_PHASES), lookups), "ratio"),
            "quadgen.generate_s": (per_call("quadgen.generate", workload), "s"),
            "quadgen.select_prototypes_s": (per_call("quadgen.select_prototypes", workload), "s"),
            "analogy_core.batch_loss_s": (ratio(total("analogy_core.batch_loss", train), steps), "s/step"),
            "analogy_core.degenerate_rows": (count("degenerate_rows", TRAIN_PHASES), "count"),
            "analogy_core.rank_candidates_s": (ratio(total("analogy_core.rank_candidates", evals), questions), "s/question"),
            "training.adam_step_s": (ratio(total("training.adam_step", train), steps), "s/step"),
            "training.steps": (steps, "count"),
            "training.save_checkpoint_s": (per_call("training.save_checkpoint"), "s"),
            "training.load_checkpoint_s": (per_call("training.load_checkpoint"), "s"),
            "evaluation.evaluate_self_s": (ratio(total("evaluation.evaluate", evals, own), questions), "s/question"),
            "evaluation.encodes_per_question": (ratio(calls("encoder.encode", evals), questions), "count"),
            "synthetic.build_corpus_s": (per_call("synthetic.build_corpus", workload), "s"),
            "diagnostics.draws_per_instance": (ratio(calls("encoder.initialize", audit), instances), "count"),
            "diagnostics.loss_evals_per_instance": (ratio(calls("encoder.encode_batch", audit), instances), "count"),
            "fsio.write_s": (total("fsio.write", everywhere), "s"),
            "fsio.bytes_written": (sum(v for (p, k), v in self.counts.items() if k == "bytes_written"), "bytes"),
            "trace.spans": (len(dur), "count"),
        })
        out.update(extra)
        return out


@contextlib.contextmanager
def _swapped(owner, attr, value):
    orig = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, orig)
