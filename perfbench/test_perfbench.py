"""Tests of the benchmark's own code: seeded generation, self time, and
wrapper removal.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import run

run.pin_checkout()

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def paper_texts():
    return inputs.paper_scale_texts(3)


def test_paper_scale_same_seed_gives_identical_bytes(paper_texts):
    again = inputs.paper_scale_texts(3)
    assert {k: v.encode() for k, v in paper_texts.items()} == {k: v.encode() for k, v in again.items()}


def test_paper_scale_other_seed_gives_other_files(paper_texts):
    other = inputs.paper_scale_texts(4)
    assert set(other) == set(paper_texts)
    for name in paper_texts:
        assert other[name] != paper_texts[name], name


def test_paper_scale_shape(paper_texts):
    vec_lines = paper_texts[inputs.PAPER_VEC].splitlines()
    rows, dim = (int(x) for x in vec_lines[0].split())
    assert rows == len(vec_lines) - 1 and dim == inputs.PAPER_DIM
    vec_words = {line.split(" ", 1)[0] for line in vec_lines[1:]}

    sentences_by_question: dict[str, set] = {}
    tokens = []
    for name in (inputs.PAPER_TRAIN, inputs.PAPER_HELDOUT):
        for line in paper_texts[name].splitlines():
            qid, qtext, ctext, label = line.split("\t")
            assert label in ("0", "1")
            assert qtext.split()[0] in inputs.WH_WORDS
            group = sentences_by_question.setdefault(qid, {qtext})
            group.add(ctext)
            for text in (qtext, ctext):
                n = len(text.split())
                assert inputs.PAPER_SENTENCE_TOKENS[0] <= n <= inputs.PAPER_SENTENCE_TOKENS[1]
            tokens += ctext.split()
    vocabulary = set(tokens)
    assert rows >= 4 * len(vocabulary)
    oov = np.mean([t not in vec_words for t in tokens])
    assert 0.03 < oov < 0.07
    seen = set()
    for group in sentences_by_question.values():
        assert not (group & seen)
        seen |= group


def test_self_time_on_hand_built_tree():
    #  root 0..10 ─┬─ a 1..4 ── a1 2..3
    #              └─ b 5..9 ─┬─ b1 5..6
    #                         └─ b2 7..8.5
    #  other 11..12 (a second root)
    start = np.array([0, 1, 2, 5, 5, 7, 11], dtype=float)
    end = np.array([10, 4, 3, 9, 6, 8.5, 12], dtype=float)
    parent = np.array([-1, 0, 1, 0, 3, 3, -1])
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0]
    assert spans.roots(parent).tolist() == [0, 0, 0, 0, 0, 0, 6]


def test_tracer_records_the_tree_it_runs(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    tracer = spans.Tracer(run_id="t")
    leaf = tracer.wrap(lambda: None, "leaf")
    middle = tracer.wrap(lambda: (leaf(), leaf()), "middle")
    with tracer.phase("p"):   # 0 .. 7
        middle()              # 1 .. 6, leaves 2..3 and 4..5
    leaf()                    # 8 .. 9, a root of its own
    start, end, parent, name = tracer.arrays()
    assert [tracer.names[i] for i in name] == ["phase:p", "middle", "leaf", "leaf", "leaf"]
    assert parent.tolist() == [-1, 0, 1, 1, -1]
    assert spans.self_times(start, end, parent).tolist() == [2.0, 3.0, 1.0, 1.0, 1.0]


class _ToyWorkload(workloads.Workload):
    """Two epochs on the toy data, so a whole traced run stays cheap."""

    name = "toy"

    def setup(self, root, seed, workdir, prepared, ledger, tracer):
        with tracer.phase("setup"):
            dataset = workloads.text_data.load_qa_dataset(os.path.join(root, workloads.TOY_DATA))
            table = workloads.text_data.load_embeddings(os.path.join(root, workloads.TOY_VECTORS))
            prototypes = workloads.quadgen.select_prototypes(dataset, p=2, seed=seed)
        return {"train": dataset, "table": table, "prototypes": prototypes, "seed": seed, "dim": 8}

    def units(self, state):
        def train(ledger, tracer):
            cfg = workloads.training.TrainConfig(dim=8, epochs=2, seed=0)
            with tracer.phase("train"):
                state["params"] = workloads.training.train(cfg, state["train"], state["prototypes"],
                                                           state["table"]).params
            return {}

        def evaluate(ledger, tracer):
            with tracer.phase("evaluate"):
                enc = workloads.encoder.sentence_encoder(state["table"], state["params"])
                workloads.evaluation.evaluate(enc, state["train"], state["prototypes"])
            return {}

        return [workloads.Unit("train", train), workloads.Unit("evaluate", evaluate)]


def test_wrappers_are_removed_after_traced_run(tmp_path):
    probe = spans.LayerProbe(workloads.MODULES, spans.Tracer(run_id="snapshot"))
    targets = probe.targets() + [(workloads.diagnostics, "finite_difference_check", "", None)]
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]

    ledger = workloads.Ledger()
    metrics = workloads.traced_run(_ToyWorkload(), run.ROOT, 0, str(tmp_path), ledger,
                                   str(tmp_path / "spans.npz"))

    for owner, attr, orig in originals:
        assert vars(owner)[attr] is orig, f"{getattr(owner, '__name__', owner)}.{attr} still wrapped"
    assert ledger.failed == 0
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    for name in ("training.steps", "fsio.bytes_written", "numerics.fd_evals_per_instance",
                 "training.load_checkpoint_s", "cli.import_s"):
        assert metrics[name][0] > 0, name


def test_wrappers_are_removed_when_the_traced_call_raises():
    tracer = spans.Tracer(run_id="raise")
    target = workloads.numerics
    orig = vars(target)["matmul"]
    with pytest.raises(ZeroDivisionError):
        with spans.installed(tracer, [(target, "matmul", "numerics.matmul", None)]):
            assert vars(target)["matmul"] is not orig
            1 / 0
    assert vars(target)["matmul"] is orig


def test_a_missing_target_is_an_error_not_a_zero():
    tracer = spans.Tracer(run_id="missing")
    target = workloads.numerics
    orig = vars(target)["matmul"]
    with pytest.raises(LookupError, match="no_such_op"):
        with spans.installed(tracer, [(target, "matmul", "numerics.matmul", None),
                                      (target, "no_such_op", "numerics.no_such_op", None)]):
            pass
    assert vars(target)["matmul"] is orig


def test_schedule_shares_time_by_weight(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: clock[0])

    def unit(name, cost, weight):
        def run(ledger, tracer):
            clock[0] += cost
            return {name: cost}
        return workloads.Unit(name, run, weight)

    units = [unit("long", 3.0, 2.0), unit("short", 0.5, 1.0), unit("late", 20.0, 1.0)]
    samples = workloads.schedule(units, 30.0, workloads.Ledger())
    # Every unit runs once, even one that takes most of the run; after that
    # the least-served unit that still fits runs, and none ends past the
    # deadline.
    assert [u.runs for u in units] == [2, 8, 1]
    assert clock[0] == 30.0
    assert {name: len(v) for name, v in samples.items()} == {"long": 2, "short": 8, "late": 1}
    assert units[0].spent / units[0].weight == 3.0 and units[1].spent / units[1].weight == 4.0


def test_every_check_is_an_attempted_operation():
    ledger = workloads.Ledger()
    assert ledger.check("passes", True)
    assert not ledger.check("fails", False)
    with pytest.raises(workloads.OpFailed):
        ledger.run("raises", lambda: 1 / 0)
    assert (ledger.attempted, ledger.failed) == (3, 2)
