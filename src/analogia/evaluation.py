"""MRR/MAP metrics, the ranking pipeline, baselines, and prototype sweeps.

Questions are evaluated only when they can be scored meaningfully: they
need at least one gold-positive candidate, at least one same-type
prototype, and no empty sentences.  Everything else is counted as skipped,
per subset, so all methods report over an identical question set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analogy_core import ENERGY_MODE, RankedCandidate, RankedList, ShapeError, check_mode, rank_group
from .analogy_core import rank_candidates  # noqa: F401  perfbench/spans.py wraps evaluation.rank_candidates
from .quadgen import Prototype, select_prototypes
from .text_data import OTHER, WH_TYPES, EmbeddingTable, QADataset

REPORT_SUBSETS = WH_TYPES + (OTHER, "Combined")
REPORT_HEADER = "subset\tquestions\tskipped\tMAP\tMRR"
SWEEP_HEADER = "p\tMAP\tMRR"


def _validated(label_lists) -> list[tuple]:
    label_lists = [tuple(l) for l in label_lists]
    if not label_lists:
        raise ValueError("need at least one ranked question")
    for i, labels in enumerate(label_lists):
        if len(labels) == 0:
            raise ValueError(f"ranked list {i} is empty")
        if any(l not in (0, 1) for l in labels):
            raise ValueError(f"ranked list {i} has non-binary labels")
        if not any(labels):
            raise ValueError(f"ranked list {i} has no positive candidate; exclude it upstream")
    return label_lists


def _mean_rr(label_lists) -> float:
    total = 0.0
    for labels in label_lists:
        total += 1.0 / (labels.index(1) + 1)
    return total / len(label_lists)


def mrr(label_lists) -> float:
    """Mean reciprocal rank of the first positive, ranks 1-based.

    Each element is that question's gold labels in rank order.
    """
    return _mean_rr(_validated(label_lists))


def average_precision(labels) -> float:
    """Precision averaged over the ranks of the positives."""
    return _average_precision(_validated([labels])[0])


def _average_precision(labels) -> float:
    hits = 0
    total = 0.0
    for rank, y in enumerate(labels, start=1):
        if y == 1:
            hits += 1
            total += hits / rank
    return total / hits


def mean_average_precision(label_lists) -> float:
    label_lists = _validated(label_lists)
    return sum(_average_precision(l) for l in label_lists) / len(label_lists)


@dataclass(frozen=True)
class ScoredQuestion:
    """One question's ranking plus the gold labels (by original candidate
    index) needed to score it."""

    question_id: str
    wh_type: str
    ranking: RankedList
    labels: tuple[int, ...]

    def labels_ranked(self) -> tuple[int, ...]:
        return tuple(self.labels[e.candidate_index] for e in self.ranking.entries)


@dataclass(frozen=True)
class SubsetMetrics:
    subset: str
    questions: int
    skipped: int
    map: float
    mrr: float


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple[SubsetMetrics, ...]

    def row(self, subset: str) -> SubsetMetrics:
        for r in self.rows:
            if r.subset == subset:
                return r
        raise KeyError(subset)

    def to_tsv(self) -> str:
        lines = [REPORT_HEADER]
        for r in self.rows:
            lines.append(f"{r.subset}\t{r.questions}\t{r.skipped}\t{r.map!r}\t{r.mrr!r}")
        return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class EvaluationResult:
    report: MetricsReport
    rankings: tuple[ScoredQuestion, ...]


def _build_report(evaluated: list[ScoredQuestion], skipped: dict[str, int]) -> MetricsReport:
    rows = []
    by_type: dict[str, list] = {wh: [] for wh in WH_TYPES}
    all_lists = _validated(sq.labels_ranked() for sq in evaluated) if evaluated else []
    for sq, labels in zip(evaluated, all_lists):
        by_type[sq.wh_type].append(labels)
    for subset in REPORT_SUBSETS:
        if subset == "Combined":
            lists = all_lists
            skip = sum(skipped.values())
        else:
            lists = by_type.get(subset, [])
            skip = skipped.get(subset, 0)
        if lists:
            map_ = sum(_average_precision(l) for l in lists) / len(lists)
            rows.append(SubsetMetrics(subset, len(lists), skip, map_, _mean_rr(lists)))
        else:
            rows.append(SubsetMetrics(subset, 0, skip, math.nan, math.nan))
    return MetricsReport(rows=tuple(rows))


def _scorable(question, prototypes) -> bool:
    return (any(c.label == 1 for c in question.candidates)
            and question.wh_type != OTHER and bool(prototypes.get(question.wh_type))
            and len(question.text) > 0 and all(len(c.text) > 0 for c in question.candidates))


def _rank_questions(dataset: QADataset, prototypes, rank_all) -> EvaluationResult:
    """rank_all(questions) -> their RankedLists, called once on the scorable
    questions in dataset order; the others count as skipped per wh-type."""
    scorable, skipped = [], {}
    for q in dataset.questions:
        if _scorable(q, prototypes):
            scorable.append(q)
        else:
            skipped[q.wh_type] = skipped.get(q.wh_type, 0) + 1
    evaluated = [ScoredQuestion(question_id=q.question_id, wh_type=q.wh_type, ranking=ranking,
                                labels=tuple(c.label for c in q.candidates))
                 for q, ranking in zip(scorable, rank_all(scorable))]
    return EvaluationResult(report=_build_report(evaluated, skipped), rankings=tuple(evaluated))


def _encode_all(encode_fn, sentences, memo: dict) -> None:
    """Put the vectors of the distinct sentences not yet in ``memo`` into
    it, in first-seen order, with one call of encode_fn.many when encode_fn
    has it and one encode_fn call per sentence when it does not."""
    missing = [s for s in dict.fromkeys(map(tuple, sentences)) if s not in memo]
    if not missing:
        return
    many = getattr(encode_fn, "many", None)
    vectors = many(missing) if many is not None else [encode_fn(s) for s in missing]
    for s, v in zip(missing, vectors):
        memo[s] = v


def evaluate(encode_fn, dataset: QADataset, prototypes: dict[str, list[Prototype]],
             mode: str = ENERGY_MODE, memo: dict | None = None) -> EvaluationResult:
    """Rank every scorable question's candidates against its same-type
    prototypes and aggregate MRR/MAP per subset.

    encode_fn maps a token sequence to a fixed-length numpy vector; both
    the learned encoder and the mean-embedding baseline plug in here, so
    the ranking logic downstream is byte-for-byte shared.

    Encoding comes first, then ranking.  The distinct sentences of every
    prototype and of every scorable question and its candidates are
    collected in first-seen order, and those not already in ``memo`` are
    encoded in one call of ``encode_fn.many`` (a list of token tuples to
    their vectors, in order) when encode_fn has that attribute, as
    encoder.sentence_encoder does, or else by one encode_fn call each.
    Ranking then stacks those vectors as float64 rows and makes one
    rank_group call per wh-type and candidate count, which scores each
    question with the bits it gets alone.  ``memo``, a dict from token
    tuples to encode_fn's vectors, carries them across calls with the same
    encode_fn.
    """
    check_mode(mode)
    memo = {} if memo is None else memo

    def rank_all(scorable):
        sentences = list(dict.fromkeys(map(tuple, itertools.chain(
            (s for protos in prototypes.values() for pr in protos for s in (pr.question, pr.answer)),
            (s for q in scorable for s in (q.text, *(c.text for c in q.candidates)))))))
        _encode_all(encode_fn, sentences, memo)
        M = np.array([memo[s] for s in sentences], dtype=np.float64)
        if sentences and M.ndim != 2:
            raise ShapeError(f"encode_fn must return vectors, got shape {M.shape[1:]}")
        index = {s: i for i, s in enumerate(sentences)}

        def rows(token_seqs):
            return [index[tuple(s)] for s in token_seqs]

        groups: dict[tuple, list] = {}
        for q in scorable:
            groups.setdefault((q.wh_type, len(q.candidates)), []).append(q)
        shifts = {wh: M[rows(pr.question for pr in prototypes[wh])] - M[rows(pr.answer for pr in prototypes[wh])]
                  for wh, _ in groups}
        ranked = {}
        for (wh, _), qs in groups.items():
            C = M[[rows(c.text for c in q.candidates) for q in qs]]
            ranked.update(zip(map(id, qs), rank_group(M[rows(q.text for q in qs)], C, shifts[wh], mode).lists()))
        return [ranked[id(q)] for q in scorable]

    return _rank_questions(dataset, prototypes, rank_all)


def mean_embedding_encoder(table: EmbeddingTable):
    """Sentence vector = unweighted mean of token vectors, OOV included."""
    def encode_fn(tokens):
        if len(tokens) == 0:
            raise ValueError("cannot embed an empty sentence")
        return np.mean([table.lookup(t) for t in tokens], axis=0, dtype=np.float64)
    return encode_fn


def baseline_rank(dataset: QADataset, table: EmbeddingTable,
                  prototypes: dict[str, list[Prototype]],
                  mode: str = ENERGY_MODE) -> EvaluationResult:
    """Mean-embedding sentences pushed through the identical ranking path."""
    return evaluate(mean_embedding_encoder(table), dataset, prototypes, mode=mode)


def random_rank(dataset: QADataset, prototypes: dict[str, list[Prototype]],
                seed: int = 0) -> EvaluationResult:
    """Seeded random scores over the same skip rules; a sanity floor.

    best_prototype_index is -1 on every entry since no prototype takes part.
    """
    rng = np.random.default_rng(seed)

    def rank(q):
        scores = rng.random(len(q.candidates))
        order = sorted(range(len(scores)), key=lambda i: -scores[i])
        entries = tuple(RankedCandidate(candidate_index=i, score=float(scores[i]), rank=r + 1,
                                        best_prototype_index=-1) for r, i in enumerate(order))
        return RankedList(entries=entries, mode=ENERGY_MODE, degenerate_count=0)

    return _rank_questions(dataset, prototypes, lambda questions: [rank(q) for q in questions])


@dataclass(frozen=True)
class SweepRow:
    p: int
    map: float
    mrr: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    warnings: tuple[str, ...]

    def to_tsv(self) -> str:
        lines = [SWEEP_HEADER]
        for r in self.rows:
            lines.append(f"{r.p}\t{r.map!r}\t{r.mrr!r}")
        return "".join(line + "\n" for line in lines)


def sweep_prototypes(encode_fn, eval_dataset: QADataset, proto_dataset: QADataset,
                     p_values, seed: int, mode: str = ENERGY_MODE) -> SweepResult:
    """Evaluate once per requested prototype count, re-selecting with the
    same seed (so smaller sets are prefixes of larger ones); each distinct
    sentence is encoded once across all counts."""
    check_mode(mode)
    p_values = list(p_values)
    if not p_values:
        raise ValueError("p_values must be non-empty")
    rows = []
    warnings = []
    memo: dict = {}
    for p in p_values:
        prototypes = select_prototypes(proto_dataset, p, seed)
        for wh in WH_TYPES:
            got = len(prototypes[wh])
            if got < p:
                warnings.append(f"p={p}: only {got} answerable {wh} questions available")
        result = evaluate(encode_fn, eval_dataset, prototypes, mode=mode, memo=memo)
        combined = result.report.row("Combined")
        rows.append(SweepRow(p=p, map=combined.map, mrr=combined.mrr))
    return SweepResult(rows=tuple(rows), warnings=tuple(warnings))


def rankings_to_tsv(rankings) -> str:
    """CLI `rank` payload: one row per (question, candidate)."""
    lines = ["question_id\tcandidate_index\tscore\trank\tbest_prototype_index"]
    for sq in rankings:
        for e in sq.ranking.entries:
            lines.append(f"{sq.question_id}\t{e.candidate_index}\t{e.score!r}\t{e.rank}\t{e.best_prototype_index}")
    return "".join(line + "\n" for line in lines)
