"""MRR/MAP metrics, the ranking pipeline, baselines, and prototype sweeps.

Questions are evaluated only when they can be scored meaningfully: they
need at least one gold-positive candidate, at least one same-type
prototype, and no empty sentences.  Everything else is counted as skipped,
per subset, so all methods report over an identical question set.

Ranking a question set runs in two parts.  A plan is prepared once: the
scorable filter and the skipped counts, one encoding of the distinct
sentences, and for each (wh-type, candidate count) group its question
vectors, candidate vectors and gold labels as float64 arrays.  Ranking the
plan against one prototype set then encodes only prototype sentences not
seen yet, makes one rank_group call per group, and reads the labels in
rank order from the group's label array.  evaluate prepares and ranks
once; sweep_prototypes draws its prototypes and prepares once, and ranks
once per prototype count.  random_rank orders through GroupRanking too.
Results keep these per-group arrays, and build ScoredQuestion objects only
when their ``rankings`` are first read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .analogy_core import ENERGY_MODE, GroupRanking, RankedList, ShapeError, check_mode, rank_group
from .analogy_core import rank_candidates  # noqa: F401  perfbench/spans.py wraps evaluation.rank_candidates
from .quadgen import Prototype, select_prototypes
from .text_data import OTHER, WH_TYPES, EmbeddingTable, QADataset

REPORT_SUBSETS = WH_TYPES + (OTHER, "Combined")
REPORT_HEADER = "subset\tquestions\tskipped\tMAP\tMRR"
SWEEP_HEADER = "p\tMAP\tMRR"


def _checked(i: int, labels: tuple) -> tuple:
    if not labels:
        raise ValueError(f"ranked list {i} is empty")
    positives = labels.count(1)
    if positives + labels.count(0) != len(labels):
        raise ValueError(f"ranked list {i} has non-binary labels")
    if not positives:
        raise ValueError(f"ranked list {i} has no positive candidate; exclude it upstream")
    return labels


def _validated(label_lists) -> list[tuple]:
    label_lists = [_checked(i, tuple(l)) for i, l in enumerate(label_lists)]
    if not label_lists:
        raise ValueError("need at least one ranked question")
    return label_lists


def mrr(label_lists) -> float:
    """Mean reciprocal rank of the first positive, ranks 1-based.

    Each element is that question's gold labels in rank order.
    """
    return _subset_metrics("", _question_scores(_validated(label_lists)), 0).mrr


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
    return _subset_metrics("", _question_scores(_validated(label_lists)), 0).map


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


@dataclass(frozen=True, eq=False)
class EvaluationResult:
    report: MetricsReport
    questions: tuple  # the scorable questions, in dataset order
    labels: tuple[tuple[int, ...], ...]  # their gold labels by candidate index
    groups: tuple[tuple[list[int], GroupRanking], ...]  # each group's positions in questions, and its ranking

    @cached_property
    def rankings(self) -> tuple[ScoredQuestion, ...]:
        """The ScoredQuestions, in dataset order, built on first read."""
        lists = _in_dataset_order(len(self.questions), ((members, r.lists()) for members, r in self.groups))
        return tuple(ScoredQuestion(question_id=q.question_id, wh_type=q.wh_type, ranking=ranking, labels=labels)
                     for q, ranking, labels in zip(self.questions, lists, self.labels))


def _subset_metrics(subset: str, scores: list[tuple[float, float]], skipped: int) -> SubsetMetrics:
    """A report row from its questions' (AP, RR) pairs, summed in their
    order."""
    if not scores:
        return SubsetMetrics(subset, 0, skipped, math.nan, math.nan)
    total = 0.0
    for _, rr in scores:
        total += rr
    return SubsetMetrics(subset, len(scores), skipped, sum(ap for ap, _ in scores) / len(scores),
                         total / len(scores))


def _question_scores(label_lists) -> list[tuple[float, float]]:
    """Each validated list's average precision and reciprocal rank."""
    return [(_average_precision(l), 1.0 / (l.index(1) + 1)) for l in label_lists]


def _build_report(wh_types: list[str], label_lists: list, skipped: dict[str, int]) -> MetricsReport:
    """Per-subset rows over questions given by wh-type and validated labels
    in rank order; each question's AP and RR are computed once."""
    scores = _question_scores(label_lists)
    by_type: dict[str, list] = {wh: [] for wh in WH_TYPES}
    for wh, score in zip(wh_types, scores):
        by_type[wh].append(score)
    rows = [_subset_metrics(subset, by_type.get(subset, []), skipped.get(subset, 0))
            for subset in REPORT_SUBSETS if subset != "Combined"]
    rows.append(_subset_metrics("Combined", scores, sum(skipped.values())))
    return MetricsReport(rows=tuple(rows))


def _scorable(question, prototypes) -> bool:
    return (any(c.label == 1 for c in question.candidates)
            and question.wh_type != OTHER and bool(prototypes.get(question.wh_type))
            and len(question.text) > 0 and all(len(c.text) > 0 for c in question.candidates))


def _split(dataset: QADataset, prototypes) -> tuple[list, list[tuple], dict[str, int]]:
    """The scorable questions in dataset order, their gold labels
    (validated), and the other questions counted per wh-type."""
    questions, labels, skipped = [], [], {}
    for q in dataset.questions:
        if _scorable(q, prototypes):
            labels.append(_checked(len(questions), tuple(c.label for c in q.candidates)))
            questions.append(q)
        else:
            skipped[q.wh_type] = skipped.get(q.wh_type, 0) + 1
    return questions, labels, skipped


def _encode_all(encode_fn, sentences, memo: dict) -> None:
    """Put the vectors of the distinct sentences not yet in ``memo`` into
    it, in first-seen order, with one call of encode_fn.many when encode_fn
    has it and one encode_fn call per sentence when it does not."""
    missing = [s for s in dict.fromkeys(map(tuple, sentences)) if s not in memo]
    if not missing:
        return
    many = getattr(encode_fn, "many", None)
    vectors = many(missing) if many is not None else [encode_fn(s) for s in missing]
    if len(vectors) != len(missing):
        raise ShapeError(f"encode_fn.many returned {len(vectors)} vectors for {len(missing)} sentences")
    for s, v in zip(missing, vectors):
        memo[s] = v


def _prototype_sentences(prototypes):
    return (s for protos in prototypes.values() for pr in protos for s in (pr.question, pr.answer))


class _Group(NamedTuple):
    """The scorable questions of one wh-type and candidate count."""

    wh_type: str
    members: list[int]  # their positions in _Plan.questions
    labels: np.ndarray  # (G, n) gold labels by candidate index
    q: np.ndarray | None = None  # (G, d) question vectors, float64, once encoded
    C: np.ndarray | None = None  # (G, n, d) candidate vectors, float64, once encoded


class _Plan(NamedTuple):
    """What ranking a question set needs that no prototype set changes."""

    questions: list  # the scorable questions, in dataset order
    labels: list[tuple]  # their gold labels by candidate index
    skipped: dict[str, int]
    groups: list[_Group]
    encode_fn: object = None
    memo: dict | None = None  # token tuple -> encode_fn's vector


def _prepare(encode_fn, dataset: QADataset, prototypes, memo: dict | None) -> _Plan:
    """Filter, group and, unless encode_fn is None, encode ``dataset`` once.
    The prototypes decide which wh-types are scorable, and their sentences
    are encoded first, in the same encode_fn.many call as the questions'."""
    questions, labels, skipped = _split(dataset, prototypes)
    members: dict[tuple, list[int]] = {}
    for i, q in enumerate(questions):
        members.setdefault((q.wh_type, len(q.candidates)), []).append(i)
    groups = [_Group(wh, idx, np.array([labels[i] for i in idx])) for (wh, _), idx in members.items()]
    if encode_fn is None:
        return _Plan(questions, labels, skipped, groups)
    sentences = list(dict.fromkeys(map(tuple, itertools.chain(
        _prototype_sentences(prototypes),
        (s for q in questions for s in (q.text, *(c.text for c in q.candidates)))))))
    _encode_all(encode_fn, sentences, memo)
    M = np.array([memo[s] for s in sentences], dtype=np.float64)
    if sentences and M.ndim != 2:
        raise ShapeError(f"encode_fn must return vectors, got shape {M.shape[1:]}")
    index = {s: i for i, s in enumerate(sentences)}
    groups = [g._replace(q=M[[index[tuple(questions[i].text)] for i in g.members]],
                         C=M[[[index[tuple(c.text)] for c in questions[i].candidates] for i in g.members]])
              for g in groups]
    return _Plan(questions, labels, skipped, groups, encode_fn, memo)


def _rank(plan: _Plan, prototypes, mode: str) -> list[GroupRanking]:
    """One rank_group call per group of the plan against ``prototypes``,
    which must hold a prototype for every wh-type the plan ranks; their
    sentences not yet encoded are encoded in one call first."""
    _encode_all(plan.encode_fn, _prototype_sentences(prototypes), plan.memo)

    def vectors(token_seqs):
        return np.array([plan.memo[tuple(s)] for s in token_seqs], dtype=np.float64)

    shifts = {}
    for g in plan.groups:
        if g.wh_type not in shifts:
            protos = prototypes[g.wh_type]
            shifts[g.wh_type] = vectors(pr.question for pr in protos) - vectors(pr.answer for pr in protos)
    return [rank_group(g.q, g.C, shifts[g.wh_type], mode) for g in plan.groups]


def _in_dataset_order(n: int, per_group) -> list:
    """One list of n from (members, items) pairs: items[k] goes to members[k]."""
    out = [None] * n
    for members, items in per_group:
        for i, item in zip(members, items):
            out[i] = item
    return out


def _ranked_labels(plan: _Plan, rankings: list[GroupRanking]) -> list[list[int]]:
    return _in_dataset_order(len(plan.questions), ((g.members, np.take_along_axis(g.labels, r.order, 1).tolist())
                                                   for g, r in zip(plan.groups, rankings)))


def _result(plan: _Plan, rankings: list[GroupRanking]) -> EvaluationResult:
    report = _build_report([q.wh_type for q in plan.questions], _ranked_labels(plan, rankings), plan.skipped)
    return EvaluationResult(report, tuple(plan.questions), tuple(plan.labels),
                            tuple((g.members, r) for g, r in zip(plan.groups, rankings)))


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
    encode_fn.  The result keeps the rankings as those calls' arrays; its
    ``rankings`` become ScoredQuestion objects only when first read.
    """
    check_mode(mode)
    plan = _prepare(encode_fn, dataset, prototypes, {} if memo is None else memo)
    return _result(plan, _rank(plan, prototypes, mode))


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

    Scores are drawn per question, in dataset order.  best_prototype_index
    is -1 on every entry since no prototype takes part.
    """
    rng = np.random.default_rng(seed)
    plan = _prepare(None, dataset, prototypes, None)
    draws = [rng.random((1, len(q.candidates))) for q in plan.questions]
    scores = [np.concatenate([draws[i] for i in g.members]) for g in plan.groups]
    return _result(plan, [GroupRanking(s, np.full(s.shape, -1), np.argsort(-s, axis=-1, kind="stable"),
                                       np.zeros(len(s), dtype=np.int64), ENERGY_MODE) for s in scores])


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
    """The Combined MAP/MRR of eval_dataset once per requested prototype
    count.  The prototypes are drawn once, at the largest count; each count
    takes the first p of every wh-type's draw, which is what
    select_prototypes gives at p with the same seed.

    The plan (scorable filter, one encoding of the questions' and first
    count's prototype sentences, grouped vectors and labels) is prepared
    once.  Each count then encodes only its prototype sentences not seen
    yet, in one call, makes one rank_group call per group and sums the
    Combined row, bit for bit as evaluate's.
    """
    check_mode(mode)
    p_values = list(p_values)
    if not p_values:
        raise ValueError("p_values must be non-empty")
    if min(p_values) < 1:
        raise ValueError(f"p must be >= 1, got {min(p_values)}")
    drawn = select_prototypes(proto_dataset, max(p_values), seed)
    draws = [{wh: protos[:p] for wh, protos in drawn.items()} for p in p_values]
    # The scorable set does not depend on p: a wh-type gets at least one
    # prototype either at every p >= 1 (it has an answerable question in
    # proto_dataset) or at none, so the first count's prototypes decide it.
    plan = _prepare(encode_fn, eval_dataset, draws[0], {})
    rows = []
    warnings = []
    for p, prototypes in zip(p_values, draws):
        for wh in WH_TYPES:
            got = len(prototypes[wh])
            if got < p:
                warnings.append(f"p={p}: only {got} answerable {wh} questions available")
        labels = _ranked_labels(plan, _rank(plan, prototypes, mode))
        combined = _subset_metrics("Combined", _question_scores(labels), sum(plan.skipped.values()))
        rows.append(SweepRow(p=p, map=combined.map, mrr=combined.mrr))
    return SweepResult(rows=tuple(rows), warnings=tuple(warnings))


def rankings_to_tsv(rankings) -> str:
    """CLI `rank` payload: one row per (question, candidate)."""
    lines = ["question_id\tcandidate_index\tscore\trank\tbest_prototype_index"]
    for sq in rankings:
        for e in sq.ranking.entries:
            lines.append(f"{sq.question_id}\t{e.candidate_index}\t{e.score!r}\t{e.rank}\t{e.best_prototype_index}")
    return "".join(line + "\n" for line in lines)
