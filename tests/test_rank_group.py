"""rank_group against a per-question oracle, bit for bit, and evaluate's
grouped ranking against the per-question loop it replaced."""

import itertools

import numpy as np
import pytest

from analogia.analogy_core import (
    COSINE_EPSILON,
    ENERGY_MODE,
    RANK_MODES,
    RankedCandidate,
    RankedList,
    rank_candidates,
    rank_group,
)
from analogia.encoder import EncoderParams, sentence_encoder
from analogia.evaluation import (
    ScoredQuestion,
    _scorable,
    average_precision,
    evaluate,
    mean_average_precision,
    mean_embedding_encoder,
    mrr,
    random_rank,
    rankings_to_tsv,
)
from analogia.numerics import ShapeError
from analogia.quadgen import select_prototypes
from analogia.synthetic import build_corpus
from analogia.text_data import QADataset, WH_TYPES


def _oracle_rank(q, C, P, mode):
    """One question's ranking, as rank_candidates computed it before
    rank_group: q (d,), C (n, d), P (p, d) prototype shifts."""
    shifts = q[None, :] - C
    degenerate_count = 0
    if mode == ENERGY_MODE:
        dots = shifts @ P.T
        ns = np.linalg.norm(shifts, axis=1)
        np_ = np.linalg.norm(P, axis=1)
        degen = (ns[:, None] < COSINE_EPSILON) | (np_[None, :] < COSINE_EPSILON)
        denom = np.where(degen, 1.0, ns[:, None] * np_[None, :])
        E = np.clip(dots / denom, -1.0, 1.0)
        E[degen] = 0.0
        degenerate_count = int(degen.sum())
        scores = E.max(axis=1)
        best = E.argmax(axis=1)
        order = sorted(range(C.shape[0]), key=lambda i: -scores[i])
    else:
        V = np.linalg.norm(P[None, :, :] - shifts[:, None, :], axis=2)
        scores = V.min(axis=1)
        best = V.argmin(axis=1)
        order = sorted(range(C.shape[0]), key=lambda i: scores[i])
    return scores, best, np.array(order), degenerate_count


def _group(rng, G, n, p, d):
    """G questions with zero question shifts, exact ties and a zero
    prototype shift mixed in."""
    scale = 10.0 ** rng.integers(-3, 3, size=(G, 1))
    q = rng.standard_normal((G, d)) * scale
    C = rng.standard_normal((G, n, d)) * scale[:, :, None]
    C[0, 0] = q[0]  # a zero question shift
    if n > 1:
        C[1 % G, n - 1] = C[1 % G, 0]  # an exact score tie
        C[G - 1] = C[G - 1, :1]  # every candidate tied
    protos = rng.standard_normal((p, 2, d))
    if p > 1:
        protos[1, 1] = protos[1, 0]  # a zero prototype shift
        protos[p - 1] = protos[0]  # a prototype tie
    return q, C, protos[:, 0] - protos[:, 1]


@pytest.mark.parametrize("mode", RANK_MODES)
@pytest.mark.parametrize("d", [2, 8, 32, 300])
def test_rank_group_matches_per_question_oracle(mode, d):
    rng = np.random.default_rng(d)
    for n, p in itertools.product([1, 2, 7, 12], [1, 2, 5]):
        G = int(rng.integers(2, 9))
        q, C, P = _group(rng, G, n, p, d)
        got = rank_group(q, C, P, mode)
        assert got.scores.shape == got.best.shape == got.order.shape == (G, n)
        for g in range(G):
            scores, best, order, degenerate = _oracle_rank(q[g], C[g], P, mode)
            assert np.array_equal(got.scores[g], scores), (n, p, g)
            assert np.array_equal(got.best[g], best), (n, p, g)
            assert np.array_equal(got.order[g], order), (n, p, g)
            assert got.degenerate[g] == degenerate, (n, p, g)


def test_rank_group_counts_degenerate_pairs():
    q = np.zeros((2, 3))
    C = np.array([[[0.0, 0, 0], [1, 0, 0]], [[1, 0, 0], [0, 1, 0]]])
    P = np.array([[1.0, 0, 0], [0, 0, 0]])
    got = rank_group(q, C, P)
    # question 0: candidate 0's shift is zero (2 pairs), candidate 1 meets
    # the zero prototype (1); question 1: the zero prototype twice
    assert got.degenerate.tolist() == [3, 2]
    # a degenerate pair's neutral 0 beats a cosine of -1
    assert got.scores.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert got.best.tolist() == [[0, 1], [1, 0]]


def test_rank_candidates_is_the_one_question_group():
    rng = np.random.default_rng(3)
    q, C, protos = rng.standard_normal(6), rng.standard_normal((4, 6)), rng.standard_normal((3, 2, 6))
    for mode in RANK_MODES:
        alone = rank_candidates(q, list(C), [(qp, ap) for qp, ap in protos], mode=mode)
        (grouped,) = rank_group(q[None], C[None], protos[:, 0] - protos[:, 1], mode).lists()
        assert alone == grouped


def test_rank_group_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        rank_group(np.zeros((1, 2)), np.zeros((1, 1, 2)), np.ones((1, 2)), mode="mean")


def _oracle_evaluate(memo, dataset, prototypes, mode):
    """The per-question loop evaluate ran before grouping, over vectors
    evaluate has already put in memo."""
    scored, skipped = [], {}
    for q in dataset.questions:
        if not _scorable(q, prototypes):
            skipped[q.wh_type] = skipped.get(q.wh_type, 0) + 1
            continue
        P = np.stack([memo[pr.question] - memo[pr.answer] for pr in prototypes[q.wh_type]])
        C = np.stack([memo[c.text] for c in q.candidates])
        scores, best, order, degenerate = _oracle_rank(memo[q.text], C, P, mode)
        entries = tuple(RankedCandidate(int(i), float(scores[i]), r + 1, int(best[i]))
                        for r, i in enumerate(order))
        scored.append(ScoredQuestion(q.question_id, q.wh_type, RankedList(entries, mode, degenerate),
                                     tuple(c.label for c in q.candidates)))
    return scored, skipped


def _old_mrr(label_lists):
    total = 0.0
    for labels in label_lists:
        total += 1.0 / (labels.index(1) + 1)
    return total / len(label_lists)


def _old_map(label_lists):
    return sum(average_precision(labels) for labels in label_lists) / len(label_lists)


def _old_report_tsv(scored, skipped):
    """Report rows as per-subset MAP and MRR sums computed them, before
    mrr and mean_average_precision summed through the report rows."""
    lines = ["subset\tquestions\tskipped\tMAP\tMRR"]
    for subset in WH_TYPES + ("Other", "Combined"):
        lists = [sq.labels_ranked() for sq in scored if subset in ("Combined", sq.wh_type)]
        skip = sum(skipped.values()) if subset == "Combined" else skipped.get(subset, 0)
        values = (_old_map(lists), _old_mrr(lists)) if lists else (float("nan"),) * 2
        lines.append(f"{subset}\t{len(lists)}\t{skip}\t{values[0]!r}\t{values[1]!r}")
    return "".join(line + "\n" for line in lines)


def _varied_corpus():
    """The synthetic held-out split, with candidates dropped so that
    questions of one wh-type have different candidate counts, and one
    question left without a positive."""
    corpus = build_corpus(train_per_type=12, eval_per_type=8, embedding_dim=8, seed=4)
    questions = []
    for k, q in enumerate(corpus.held_out.questions):
        negatives = [c for c in q.candidates if c.label == 0]
        drop = negatives[: k % (len(negatives) + 1)]
        keep = tuple(negatives if k == 5 else (c for c in q.candidates if c not in drop))
        questions.append(type(q)(q.question_id, q.text, q.wh_type, keep))
    return corpus, QADataset(questions=tuple(questions))


@pytest.mark.parametrize("mode", RANK_MODES)
@pytest.mark.parametrize("learned", [False, True], ids=["mean-embedding", "bigru"])
def test_evaluate_matches_per_question_loop(mode, learned):
    corpus, dataset = _varied_corpus()
    prototypes = select_prototypes(corpus.train, p=3, seed=1)
    prototypes["Where"] = prototypes["Where"][:1]
    if learned:
        encode_fn = sentence_encoder(corpus.table, EncoderParams.initialize(8, 6, seed=2))
    else:
        encode_fn = mean_embedding_encoder(corpus.table)
    memo = {}
    result = evaluate(encode_fn, dataset, prototypes, mode=mode, memo=memo)
    scored, skipped = _oracle_evaluate(memo, dataset, prototypes, mode)
    assert sum(skipped.values()) == 1
    assert len({(q.wh_type, len(q.candidates)) for q in dataset.questions}) > len(WH_TYPES)
    assert rankings_to_tsv(result.rankings) == rankings_to_tsv(scored)
    assert result.report.to_tsv() == _old_report_tsv(scored, skipped)
    assert result.rankings == tuple(scored)


def test_metrics_are_the_old_sums_bit_for_bit():
    rng = np.random.default_rng(8)
    lists = [tuple(rng.permutation([1] * k + [0] * (n - k)).tolist())
             for n, k in rng.integers(1, 9, size=(200, 2)) if k <= n]
    assert (repr(mrr(lists)), repr(mean_average_precision(lists))) == (repr(_old_mrr(lists)), repr(_old_map(lists)))


def _oracle_random_rank(dataset, prototypes, seed):
    """random_rank's per-question loop before it ranked through
    GroupRanking."""
    rng = np.random.default_rng(seed)
    scored, skipped = [], {}
    for q in dataset.questions:
        if not _scorable(q, prototypes):
            skipped[q.wh_type] = skipped.get(q.wh_type, 0) + 1
            continue
        scores = rng.random(len(q.candidates))
        order = sorted(range(len(scores)), key=lambda i: -scores[i])
        entries = tuple(RankedCandidate(candidate_index=i, score=float(scores[i]), rank=r + 1,
                                        best_prototype_index=-1) for r, i in enumerate(order))
        scored.append(ScoredQuestion(q.question_id, q.wh_type, RankedList(entries, ENERGY_MODE, 0),
                                     tuple(c.label for c in q.candidates)))
    return scored, skipped


class _TiedRng:
    """A generator whose draws cycle through 0.5, 0.25, 0.5, so that every
    question of three or more candidates has tied scores."""

    def __init__(self, seed):
        pass

    def random(self, size):
        return np.resize([0.5, 0.25, 0.5], size)


@pytest.mark.parametrize("seed, tied", [(0, False), (1, False), (7, False), (0, True)],
                         ids=["seed0", "seed1", "seed7", "tied"])
def test_random_rank_matches_per_question_loop(seed, tied, monkeypatch):
    corpus, dataset = _varied_corpus()
    prototypes = select_prototypes(corpus.train, p=3, seed=1)
    if tied:
        monkeypatch.setattr(np.random, "default_rng", _TiedRng)
    result = random_rank(dataset, prototypes, seed=seed)
    scored, skipped = _oracle_random_rank(dataset, prototypes, seed)
    assert sum(skipped.values()) == 1
    assert rankings_to_tsv(result.rankings) == rankings_to_tsv(scored)
    assert result.report.to_tsv() == _old_report_tsv(scored, skipped)
    assert result.rankings == tuple(scored)


@pytest.mark.parametrize("method", [*RANK_MODES, "random-0", "random-1", "random-7"])
def test_lazy_rankings_equal_the_eager_ones(method):
    """rankings is built on first read, then kept; it equals the rankings
    that evaluate and random_rank built eagerly, one per question in
    dataset order, as the per-question loops build them."""
    corpus, dataset = _varied_corpus()
    prototypes = select_prototypes(corpus.train, p=3, seed=1)
    if method in RANK_MODES:
        memo = {}
        result = evaluate(sentence_encoder(corpus.table, EncoderParams.initialize(8, 6, seed=2)), dataset,
                          prototypes, mode=method, memo=memo)
        eager, _ = _oracle_evaluate(memo, dataset, prototypes, method)
    else:
        seed = int(method.split("-")[1])
        result = random_rank(dataset, prototypes, seed=seed)
        eager, _ = _oracle_random_rank(dataset, prototypes, seed)
    eager = tuple(eager)
    assert "rankings" not in vars(result)
    rankings = result.rankings
    assert rankings == eager
    assert rankings_to_tsv(rankings) == rankings_to_tsv(eager)
    assert [sq.question_id for sq in rankings] == [q.question_id for q in result.questions]
    assert result.rankings is rankings


def test_evaluate_rejects_encodings_that_are_not_vectors():
    corpus, dataset = _varied_corpus()
    prototypes = select_prototypes(corpus.train, p=2, seed=1)
    mean = mean_embedding_encoder(corpus.table)
    with pytest.raises(ShapeError, match="must return vectors"):
        evaluate(lambda tokens: mean(tokens)[None], dataset, prototypes)


def test_evaluate_rejects_non_binary_labels():
    """The gold labels are checked once, before ranking, on evaluate's and
    random_rank's path alike."""
    corpus, dataset = _varied_corpus()
    q = dataset.questions[0]
    bad = type(q)(q.question_id, q.text, q.wh_type, q.candidates + (type(q.candidates[0])(("x",), 2),))
    dataset = QADataset(questions=(bad,) + dataset.questions[1:])
    prototypes = select_prototypes(corpus.train, p=2, seed=1)
    with pytest.raises(ValueError, match="ranked list 0 has non-binary labels"):
        evaluate(mean_embedding_encoder(corpus.table), dataset, prototypes)
    with pytest.raises(ValueError, match="ranked list 0 has non-binary labels"):
        random_rank(dataset, prototypes)
