"""Acceptance gate for the shipped guarantees.

Each test prints one [PASS]/[FAIL] verdict line with its measured numbers
(straight to the terminal, bypassing capture) and then asserts, so a plain
``pytest -v tests/test_acceptance.py`` doubles as a readable report.
"""

import itertools
import os
import time

import numpy as np
import pytest

from analogia.analogy_core import (
    ENERGY_MODE,
    HyperParams,
    ShiftPair,
    analogical_dissimilarity,
    contrastive_loss,
    energy,
    rank_candidates,
)
from analogia.diagnostics import F32_TOLERANCE, F64_TOLERANCE, full_pipeline_gradient_errors
from analogia.encoder import encode
from analogia.evaluation import (
    baseline_rank,
    evaluate,
    mean_average_precision,
    mrr,
    sweep_prototypes,
)
from analogia.quadgen import generate_eval_quadruples, generate_training_quadruples, select_prototypes
from analogia.synthetic import build_corpus
from analogia.text_data import Candidate, QADataset, Question, load_embeddings, load_qa_dataset
from analogia.training import TrainConfig, loss_log_to_tsv, train

GRADIENT_SEED = 2  # fixed draw; any seed must pass, this one is the pinned gate


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. gradients of the full pipeline loss


def test_01_full_pipeline_gradients(capsys):
    t0 = time.perf_counter()
    e32 = full_pipeline_gradient_errors(50, seed=GRADIENT_SEED, dtype=np.float32)
    e64 = full_pipeline_gradient_errors(50, seed=GRADIENT_SEED, dtype=np.float64)
    elapsed = time.perf_counter() - t0
    ok = (len(e32) == len(e64) == 50
          and e32.max() < F32_TOLERANCE and e64.max() < F64_TOLERANCE
          and elapsed < 10.0)
    _verdict(capsys, "full-pipeline gradients", ok,
             f"50 instances/precision, f32 max {e32.max():.2e} < 1e-4, "
             f"f64 max {e64.max():.2e} < 1e-7, {elapsed:.1f}s < 10s")
    assert len(e32) == 50 and len(e64) == 50
    assert e32.max() < F32_TOLERANCE
    assert e64.max() < F64_TOLERANCE
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. dissimilarity axioms


def test_02_dissimilarity_axioms(capsys):
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst_parallelogram = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        a, b, c, d = rng.normal(scale=3.0, size=(4, dim))
        assert analogical_dissimilarity(a, b, c, d) >= 0.0
        assert analogical_dissimilarity(a, b, a, b) == 0.0
        v = analogical_dissimilarity(a, b, c, c - a + b)
        worst_parallelogram = max(worst_parallelogram, v)
    elapsed = time.perf_counter() - t0
    ok = worst_parallelogram <= 1e-6 and elapsed < 1.0
    _verdict(capsys, "dissimilarity axioms", ok,
             f"1000 quadruples, v >= 0, v(a,b,a,b) = 0, "
             f"parallelogram max {worst_parallelogram:.2e} <= 1e-6, {elapsed:.2f}s < 1s")
    assert worst_parallelogram <= 1e-6
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. energy bounds and invariances


def test_03_energy_bounds_and_invariances(capsys):
    rng = np.random.default_rng(1)
    worst_bound = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(1, 7))
        u, v = rng.normal(size=(2, dim))
        E, _ = energy(ShiftPair(u, v))
        worst_bound = max(worst_bound, abs(E))
    bound_ok = worst_bound <= 1.0 + 1e-6

    worst_scale = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        u = rng.normal(size=dim) + 0.2
        v = rng.normal(size=dim) + 0.2
        alpha, beta = rng.choice((-1, 1), size=2) * rng.uniform(0.1, 3.0, size=2)
        base, _ = energy(ShiftPair(u, v))
        scaled, _ = energy(ShiftPair(alpha * u, beta * v))
        worst_scale = max(worst_scale, abs(scaled - np.sign(alpha * beta) * base))
    scale_ok = worst_scale <= 1e-6

    rank_ok = True
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        q = rng.normal(size=dim)
        protos = [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(3)]
        shifts = rng.normal(size=(4, dim))
        lam = float(rng.uniform(0.1, 20.0))
        before = rank_candidates(q, list(q - shifts), protos, mode=ENERGY_MODE).order()
        after = rank_candidates(q, list(q - lam * shifts), protos, mode=ENERGY_MODE).order()
        rank_ok = rank_ok and before == after

    ok = bound_ok and scale_ok and rank_ok
    _verdict(capsys, "energy bounds and invariances", ok,
             f"|E| max {worst_bound:.6f} <= 1+1e-6 on 10000 pairs, "
             f"sign(ab) deviation max {worst_scale:.2e} <= 1e-6, "
             f"ranking invariant under positive shift rescaling: {rank_ok}")
    assert bound_ok and scale_ok and rank_ok


# ---------------------------------------------------------------------------
# 4. loss values


def test_04_loss_values(capsys):
    hinge = HyperParams(margin=0.0, loss_variant="hinge")
    literal = HyperParams(margin=0.0, loss_variant="literal")
    examples_ok = (
        contrastive_loss(1.0, 1, hinge) == 0.0
        and contrastive_loss(0.0, 1, hinge) == 1.0
        and contrastive_loss(0.5, 0, hinge) == 0.25
        and contrastive_loss(-0.5, 0, hinge) == 0.0
        and contrastive_loss(-0.5, 0, literal) == 0.25
    )

    rng = np.random.default_rng(4)
    margins = np.concatenate([rng.uniform(-1, 1, size=9_997), [0.0, 0.25, 0.5]])
    non_negative = True
    for m in margins:
        E = float(rng.uniform(-1, 1))
        y = int(rng.integers(0, 2))
        variant = "hinge" if rng.integers(0, 2) else "literal"
        hp = HyperParams(margin=float(m), loss_variant=variant)
        non_negative = non_negative and contrastive_loss(E, y, hp) >= 0.0

    ok = examples_ok and non_negative
    _verdict(capsys, "loss values", ok,
             f"4 worked examples exact: {examples_ok}, "
             f"loss >= 0 on 10000 random (E, y, m) draws: {non_negative}")
    assert examples_ok and non_negative


# ---------------------------------------------------------------------------
# 5. metric oracles


def _brute_mrr(lists):
    return sum(1.0 / (labels.index(1) + 1) for labels in lists) / len(lists)


def _brute_ap(labels):
    precisions = []
    hits = 0
    for i, label in enumerate(labels, start=1):
        if label == 1:
            hits += 1
            precisions.append(hits / i)
    return sum(precisions) / len(precisions)


def test_05_metric_oracles(capsys):
    lists = [labels
             for k in range(1, 6)
             for labels in itertools.product((0, 1), repeat=k)
             if any(labels)]
    worst = 0.0
    for labels in lists:
        worst = max(worst,
                    abs(mrr([labels]) - _brute_mrr([labels])),
                    abs(mean_average_precision([labels]) - _brute_ap(labels)))
    worst = max(worst,
                abs(mrr(lists) - _brute_mrr(lists)),
                abs(mean_average_precision(lists)
                    - sum(_brute_ap(l) for l in lists) / len(lists)))

    single_positive = [labels for labels in lists if sum(labels) == 1]
    identity_ok = all(mean_average_precision([l]) == mrr([l]) for l in single_positive)

    ok = worst <= 1e-12 and identity_ok
    _verdict(capsys, "metric oracles", ok,
             f"all {len(lists)} label lists with k <= 5 vs brute force, "
             f"max deviation {worst:.2e} <= 1e-12, "
             f"MAP = MRR exact on {len(single_positive)} single-positive lists: {identity_ok}")
    assert worst <= 1e-12 and identity_ok


# ---------------------------------------------------------------------------
# 6. quadruple counting


def _random_dataset(rng) -> QADataset:
    wh_words = ("who", "when", "where", "what")
    questions = []
    for qi in range(int(rng.integers(4, 16))):
        wh = wh_words[rng.integers(0, 4)]
        text = (wh, "q", str(qi))
        n_cand = int(rng.integers(1, 6))
        labels = [int(rng.integers(0, 2)) for _ in range(n_cand)]
        candidates = tuple(Candidate(text=("ans", str(qi), str(ci)), label=labels[ci])
                           for ci in range(n_cand))
        questions.append(Question(question_id=f"q{qi}", text=text,
                                  wh_type=wh.capitalize() if wh != "what" else "Other",
                                  candidates=candidates))
    return QADataset(questions=tuple(questions))


def _brute_counts(dataset, prototypes, negatives_per_positive):
    positives = negatives = 0
    for wh, protos in prototypes.items():
        proto_texts = {p.question for p in protos}
        for q in dataset.by_type(wh):
            if q.text in proto_texts:
                continue
            pos = sum(c.label == 1 for c in q.candidates)
            wrong = sum(c.label == 0 for c in q.candidates)
            positives += len(protos) * pos
            negatives += len(protos) * pos * min(negatives_per_positive, wrong)
    return positives, negatives


def test_06_quadruple_counts(capsys):
    rng = np.random.default_rng(6)
    checked = 0
    counts_ok = eval_ok = True
    for trial in range(20):
        dataset = _random_dataset(rng)
        protos = select_prototypes(dataset, int(rng.integers(1, 5)), seed=trial)
        for n in (0, 1, 2, 7):
            quads = generate_training_quadruples(dataset, protos,
                                                 negatives_per_positive=n, seed=trial)
            pos, neg = _brute_counts(dataset, protos, n)
            counts_ok = counts_ok and len(quads) == pos + neg
            counts_ok = counts_ok and sum(q.y == 1 for q in quads) == pos
            checked += 1
        for q in dataset.questions:
            same_type = protos.get(q.wh_type, [])
            got = len(generate_eval_quadruples(q, q.candidates, same_type))
            eval_ok = eval_ok and got == len(same_type) * len(q.candidates)

    ok = counts_ok and eval_ok
    _verdict(capsys, "quadruple counts", ok,
             f"{checked} randomized training configurations match brute force: {counts_ok}, "
             f"eval count = prototypes x candidates on every question: {eval_ok}")
    assert counts_ok and eval_ok


# ---------------------------------------------------------------------------
# 7-9. synthetic end-to-end learning, determinism, prototype sweep


@pytest.fixture(scope="module")
def synthetic_run():
    t0 = time.perf_counter()
    corpus = build_corpus(seed=0)
    prototypes = select_prototypes(corpus.train, p=5, seed=0)
    cfg = TrainConfig(dim=32, seed=0)
    result = train(cfg, corpus.train, prototypes, corpus.table)

    def encode_fn(tokens):
        return encode(tokens, corpus.table, result.params).values

    model_eval = evaluate(encode_fn, corpus.held_out, prototypes)
    base_eval = baseline_rank(corpus.held_out, corpus.table, prototypes)
    elapsed = time.perf_counter() - t0
    return {"corpus": corpus, "prototypes": prototypes, "cfg": cfg, "result": result,
            "encode_fn": encode_fn, "model": model_eval, "baseline": base_eval,
            "elapsed": elapsed}


def test_07_synthetic_end_to_end(capsys, synthetic_run):
    corpus = synthetic_run["corpus"]
    assert len(corpus.table.entries) <= 200
    assert len(corpus.train) >= 60
    assert all(len(q.candidates) == 4 for q in corpus.train.questions)
    assert {q.wh_type for q in corpus.train.questions} == {"Who", "When", "Where"}

    log = synthetic_run["result"].loss_log
    ratio = log[-1].mean_loss / log[0].mean_loss
    model_mrr = synthetic_run["model"].report.row("Combined").mrr
    base_mrr = synthetic_run["baseline"].report.row("Combined").mrr
    elapsed = synthetic_run["elapsed"]

    ok = ratio <= 0.5 and model_mrr >= 0.9 and model_mrr > base_mrr and elapsed < 300.0
    _verdict(capsys, "synthetic end-to-end learning", ok,
             f"loss {log[0].mean_loss:.4f} -> {log[-1].mean_loss:.4f} "
             f"(ratio {ratio:.3f} <= 0.5), held-out MRR {model_mrr:.3f} >= 0.9 "
             f"and > baseline {base_mrr:.3f}, {elapsed:.0f}s < 300s")
    assert ratio <= 0.5
    assert model_mrr >= 0.9
    assert model_mrr > base_mrr
    assert elapsed < 300.0


def test_08_determinism(capsys, synthetic_run):
    corpus = synthetic_run["corpus"]
    prototypes = synthetic_run["prototypes"]
    cfg = synthetic_run["cfg"]

    rerun = train(cfg, corpus.train, prototypes, corpus.table)
    first_log = loss_log_to_tsv(synthetic_run["result"].loss_log)
    logs_identical = loss_log_to_tsv(rerun.loss_log) == first_log

    def encode_fn(tokens):
        return encode(tokens, corpus.table, rerun.params).values

    rerun_report = evaluate(encode_fn, corpus.held_out, prototypes).report.to_tsv()
    reports_identical = rerun_report == synthetic_run["model"].report.to_tsv()

    other = train(TrainConfig(dim=32, seed=1), corpus.train, prototypes, corpus.table)
    seeds_differ = loss_log_to_tsv(other.loss_log) != first_log

    ok = logs_identical and reports_identical and seeds_differ
    _verdict(capsys, "determinism", ok,
             f"same seed: loss logs bit-identical {logs_identical}, "
             f"reports bit-identical {reports_identical}; "
             f"different seed changes the log: {seeds_differ}")
    assert logs_identical and reports_identical and seeds_differ


def test_09_prototype_sweep(capsys, synthetic_run):
    corpus = synthetic_run["corpus"]
    sweep = sweep_prototypes(synthetic_run["encode_fn"], corpus.held_out, corpus.train,
                             p_values=(10, 20, 30, 40, 50), seed=0)
    ps = [row.p for row in sweep.rows]
    finite = all(np.isfinite(row.map) and np.isfinite(row.mrr) for row in sweep.rows)
    ok = ps == [10, 20, 30, 40, 50] and finite and not sweep.warnings
    _verdict(capsys, "prototype sweep", ok,
             f"rows for p = {ps}, all metrics finite: {finite}, "
             f"no truncation warnings: {not sweep.warnings}")
    assert ps == [10, 20, 30, 40, 50]
    assert finite
    assert not sweep.warnings


# ---------------------------------------------------------------------------
# 10. optional real-dataset pathway (enabled by environment variables)


@pytest.mark.skipif(
    "ANALOGIA_WIKIQA_TRAIN_TSV" not in os.environ or "ANALOGIA_FASTTEXT_VEC" not in os.environ,
    reason="set ANALOGIA_WIKIQA_TRAIN_TSV and ANALOGIA_FASTTEXT_VEC to run the full-data pathway",
)
def test_10_real_dataset_pathway(capsys):
    has_header = os.environ.get("ANALOGIA_WIKIQA_HAS_HEADER", "") in ("1", "true", "yes")
    dataset = load_qa_dataset(os.environ["ANALOGIA_WIKIQA_TRAIN_TSV"], has_header=has_header)
    counts = {wh: len(dataset.by_type(wh)) for wh in ("Who", "When", "Where")}
    counts_ok = counts == {"Who": 119, "When": 86, "Where": 71}

    table = load_embeddings(os.environ["ANALOGIA_FASTTEXT_VEC"])
    prototypes = select_prototypes(dataset, p=5, seed=0)
    cfg = TrainConfig(dim=32, epochs=1, seed=0)
    result = train(cfg, dataset, prototypes, table)

    def encode_fn(tokens):
        return encode(tokens, table, result.params).values

    report = evaluate(encode_fn, dataset, prototypes).report
    combined = report.row("Combined")
    ran = np.isfinite(combined.mrr) and combined.questions > 0

    ok = counts_ok and ran
    _verdict(capsys, "real-dataset pathway", ok,
             f"typed question counts {counts} == Who 119 / When 86 / Where 71: {counts_ok}; "
             f"1-epoch train + eval completed over {combined.questions} questions: {ran}")
    assert counts_ok
    assert ran
