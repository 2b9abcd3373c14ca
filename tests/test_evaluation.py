"""Metric formulas against exhaustive oracles, the evaluation pipeline,
baselines, and report serialization."""

import itertools
import math

import numpy as np
import pytest

from analogia import analogy_core, evaluation
from analogia.analogy_core import RANK_MODES
from analogia.encoder import EncoderParams, encode, sentence_encoder
from analogia.evaluation import (
    REPORT_SUBSETS,
    EvaluationResult,
    _scorable,
    average_precision,
    baseline_rank,
    evaluate,
    mean_average_precision,
    mean_embedding_encoder,
    mrr,
    random_rank,
    rankings_to_tsv,
    sweep_prototypes,
)
from analogia.numerics import ShapeError
from analogia.quadgen import Prototype, select_prototypes
from analogia.text_data import Candidate, EmbeddingTable, QADataset, Question, classify_question, tokenize


def _question(qid, text, cands):
    toks = tokenize(text)
    return Question(question_id=qid, text=toks, wh_type=classify_question(toks),
                    candidates=tuple(Candidate(text=tokenize(t), label=y) for t, y in cands))


def _dataset(*questions):
    return QADataset(questions=tuple(questions))


def _oracle_rr(labels):
    for rank, y in enumerate(labels, start=1):
        if y == 1:
            return 1.0 / rank
    raise AssertionError("no positive")


def _oracle_ap(labels):
    m = sum(labels)
    total = 0.0
    for rank in range(1, len(labels) + 1):
        if labels[rank - 1] == 1:
            total += sum(labels[:rank]) / rank
    return total / m


class TestMrr:
    def test_correct_at_rank_one(self):
        assert mrr([(1, 0, 0)]) == 1.0

    def test_two_questions(self):
        assert mrr([(1, 0), (0, 1)]) == 0.75

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            lists = []
            for _ in range(5):
                labels = rng.integers(0, 2, size=int(rng.integers(1, 7))).tolist()
                if not any(labels):
                    labels[int(rng.integers(len(labels)))] = 1
                lists.append(tuple(labels))
            want = float(np.mean([_oracle_rr(l) for l in lists]))
            np.testing.assert_allclose(mrr(lists), want, atol=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            mrr([])

    def test_list_without_positive_rejected(self):
        with pytest.raises(ValueError):
            mrr([(0, 0)])


class TestAveragePrecision:
    def test_perfect_front(self):
        assert average_precision((1, 0, 0)) == 1.0

    def test_two_positives_trailing(self):
        np.testing.assert_allclose(average_precision((0, 1, 1)), 7.0 / 12.0, atol=1e-15)

    def test_all_permutations_of_four(self):
        """Every arrangement of 2 positives among 4 candidates matches the
        explicit precision-at-positive-ranks oracle."""
        for perm in set(itertools.permutations((1, 1, 0, 0))):
            np.testing.assert_allclose(average_precision(perm), _oracle_ap(list(perm)), atol=1e-15)

    def test_map_is_mean(self):
        lists = [(1, 0), (0, 1, 1), (0, 0, 1)]
        want = np.mean([_oracle_ap(list(l)) for l in lists])
        np.testing.assert_allclose(mean_average_precision(lists), want, atol=1e-15)

    def test_bounds_random(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            labels = rng.integers(0, 2, size=int(rng.integers(1, 8))).tolist()
            if not any(labels):
                labels[0] = 1
            ap = average_precision(tuple(labels))
            assert 0.0 < ap <= 1.0

    def test_single_positive_ap_equals_rr(self):
        """With exactly one positive, AP reduces to the reciprocal rank."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            labels = [0] * k
            labels[int(rng.integers(k))] = 1
            np.testing.assert_allclose(average_precision(tuple(labels)),
                                       _oracle_rr(labels), atol=1e-15)


def _toy_world():
    """Small dataset with an identity-friendly 2d embedding table."""
    entries = {
        "a0": np.array([4.0, 0.0], dtype=np.float32),
        "a1": np.array([0.0, 4.0], dtype=np.float32),
        "q": np.array([1.0, 1.0], dtype=np.float32),
    }
    table = EmbeddingTable(dim=2, entries=entries, oov_seed=0)
    ds = _dataset(
        _question("w1", "who q", [("a1", 0), ("a0", 1)]),
        _question("w2", "who q q", [("a0", 1), ("a1", 0), ("a0 a1", 0)]),
        _question("n1", "when q", [("a1", 1), ("a0", 0)]),
        _question("skip-no-pos", "who q", [("a1", 0)]),
        _question("skip-other", "what q", [("a0", 1)]),
    )
    protos = {
        "Who": [Prototype(("who", "q"), ("a0",), "Who")],
        "When": [Prototype(("when", "q"), ("a1",), "When")],
        "Where": [],
    }
    return table, ds, protos


class TestEvaluatePipeline:
    def test_perfect_scorer_gets_ones(self):
        """An encoder that separates positives from negatives along the
        prototype shift direction ranks every positive first."""
        table, ds, protos = _toy_world()

        def encode_fn(tokens):
            # questions at origin, correct answers far along -x, wrong along +x
            if tokens[0] in ("who", "when", "what"):
                return np.zeros(2)
            return np.array([-1.0, 0.0]) if "a0" in tokens[0] or tokens == ("a0",) else np.array([1.0, 0.0])

        protos = {
            "Who": [Prototype(("who", "p"), ("a0",), "Who")],
            "When": [Prototype(("when", "p"), ("a0",), "When")],
            "Where": [],
        }
        ds2 = _dataset(
            _question("w1", "who q", [("a1", 0), ("a0", 1)]),
            _question("n1", "when q", [("a0", 1), ("a1", 0)]),
        )
        result = evaluate(encode_fn, ds2, protos)
        combined = result.report.row("Combined")
        assert combined.map == 1.0 and combined.mrr == 1.0

    def test_inverted_scorer_ranks_positive_last(self):
        """Mirror image of the perfect scorer on single-positive questions
        with k candidates: MRR becomes 1/k."""
        k = 4
        ds = _dataset(_question("w1", "who q", [("a0", 1)] + [("a1", 0)] * (k - 1)))
        protos = {"Who": [Prototype(("who", "p"), ("pa",), "Who")], "When": [], "Where": []}

        def encode_fn(tokens):
            if tokens[0] == "who":
                return np.zeros(2)
            # positive candidate sits opposite the prototype answer
            return np.array([-1.0, 0.0]) if tokens == ("a0",) else np.array([1.0, 0.0])

        result = evaluate(encode_fn, ds, protos)
        assert result.report.row("Who").mrr == pytest.approx(1.0 / k)

    def test_identity_encoder_matches_dissimilarity_oracle(self):
        """End-to-end: evaluate() with a lookup encoder in dissimilarity
        mode reproduces a hand-rolled argmin-over-prototypes ranking."""
        table, ds, protos = _toy_world()
        enc = mean_embedding_encoder(table)
        result = evaluate(enc, ds, protos, mode="dissimilarity")

        def dis(u, v):
            return float(np.linalg.norm(u - v))

        for sq in result.rankings:
            q = next(q for q in ds.questions if q.question_id == sq.question_id)
            plist = protos[q.wh_type]
            scores = []
            for c in q.candidates:
                vals = [dis(enc(pr.question) - enc(pr.answer), enc(q.text) - enc(c.text))
                        for pr in plist]
                scores.append(min(vals))
            want_order = tuple(sorted(range(len(scores)), key=lambda i: scores[i]))
            assert sq.ranking.order() == want_order

    def test_skip_rules_and_counts(self):
        table, ds, protos = _toy_world()
        result = evaluate(mean_embedding_encoder(table), ds, protos)
        report = result.report
        assert report.row("Who").questions == 2
        assert report.row("Who").skipped == 1  # no positive candidate
        assert report.row("Other").questions == 0
        assert report.row("Other").skipped == 1
        assert math.isnan(report.row("Other").map)
        assert report.row("Combined").questions == 3
        assert report.row("Combined").skipped == 2

    def test_no_prototypes_for_type_skips(self):
        table, ds, protos = _toy_world()
        ds2 = _dataset(_question("x", "where q", [("a0", 1)]))
        result = evaluate(mean_embedding_encoder(table), ds2, protos)
        assert result.report.row("Where").questions == 0
        assert result.report.row("Where").skipped == 1

    def test_empty_candidate_sentence_skips_question(self):
        table, _, protos = _toy_world()
        ds = _dataset(_question("x", "who q", [("a0", 1), ("...", 0)]))
        result = evaluate(mean_embedding_encoder(table), ds, protos)
        assert result.report.row("Who").skipped == 1
        assert not result.rankings

    def test_unknown_mode_rejected_without_scorable_questions(self):
        """The mode is checked before any question is ranked, so a
        dataset with nothing to rank cannot hide a bad one."""
        table, _, protos = _toy_world()
        ds = _dataset(_question("x", "who q", [("a1", 0)]), _question("y", "what q", [("a0", 1)]))
        encode_fn = mean_embedding_encoder(table)
        assert math.isnan(evaluate(encode_fn, ds, protos).report.row("Combined").mrr)
        for run in (lambda: evaluate(encode_fn, ds, protos, mode="bogus"),
                    lambda: baseline_rank(ds, table, protos, mode="bogus"),
                    lambda: sweep_prototypes(encode_fn, ds, ds, [1], seed=0, mode="bogus")):
            with pytest.raises(ValueError, match="mode must be one of"):
                run()

    def test_score_monotone_invariance(self):
        """Metrics depend only on the ranking: exponentiating all encoder
        outputs' scale (a strictly monotone score map) keeps MRR/MAP."""
        table, ds, protos = _toy_world()
        enc = mean_embedding_encoder(table)
        base = evaluate(enc, ds, protos)
        scaled = evaluate(lambda t: enc(t) * 3.0, ds, protos)
        # cosine is scale-invariant so the rankings coincide entirely
        assert [s.ranking.order() for s in base.rankings] == \
               [s.ranking.order() for s in scaled.rankings]
        assert base.report.row("Combined").map == scaled.report.row("Combined").map

    def test_report_computes_each_average_precision_once(self, monkeypatch):
        table, ds, protos = _toy_world()
        calls = []
        real = evaluation._average_precision
        monkeypatch.setattr(evaluation, "_average_precision", lambda labels: calls.append(labels) or real(labels))
        result = evaluate(mean_embedding_encoder(table), ds, protos)
        assert len(calls) == len(result.rankings) == 3
        calls.clear()
        result = random_rank(ds, protos)
        assert len(calls) == len(result.rankings)

    def test_report_row_layout(self):
        table, ds, protos = _toy_world()
        result = evaluate(mean_embedding_encoder(table), ds, protos)
        assert tuple(r.subset for r in result.report.rows) == REPORT_SUBSETS
        tsv = result.report.to_tsv()
        lines = tsv.strip().split("\n")
        assert lines[0] == "subset\tquestions\tskipped\tMAP\tMRR"
        assert len(lines) == 6
        assert lines[4].startswith("Other\t0\t1\tnan\tnan")

    def test_metrics_in_unit_interval(self):
        table, ds, protos = _toy_world()
        result = evaluate(mean_embedding_encoder(table), ds, protos)
        for row in result.report.rows:
            if row.questions:
                assert 0.0 <= row.map <= 1.0
                assert 0.0 <= row.mrr <= 1.0


class TestBaselines:
    def test_single_token_sentences_use_token_vector(self):
        table, _, _ = _toy_world()
        enc = mean_embedding_encoder(table)
        np.testing.assert_allclose(enc(("a0",)), [4.0, 0.0])

    def test_mean_of_tokens(self):
        table, _, _ = _toy_world()
        enc = mean_embedding_encoder(table)
        np.testing.assert_allclose(enc(("a0", "a1")), [2.0, 2.0])

    def test_identical_candidates_tie_stably(self):
        table, _, protos = _toy_world()
        ds = _dataset(_question("x", "who q", [("a0", 0), ("a0", 1)]))
        result = baseline_rank(ds, table, protos)
        assert result.rankings[0].ranking.order() == (0, 1)

    def test_baseline_map_recomputed_independently(self):
        """Pipeline MAP equals a from-scratch recomputation that never
        touches evaluate(): mean vectors, cosine of shifts, max over
        prototypes, stable sort, AP by hand."""
        table, ds, protos = _toy_world()
        result = baseline_rank(ds, table, protos)

        def vec(tokens):
            return np.mean([table.lookup(t).astype(np.float64) for t in tokens], axis=0)

        aps = []
        for q in ds.questions:
            if not any(c.label == 1 for c in q.candidates):
                continue
            if q.wh_type not in protos or not protos[q.wh_type]:
                continue
            scores = []
            for c in q.candidates:
                best = -2.0
                for pr in protos[q.wh_type]:
                    u = vec(pr.question) - vec(pr.answer)
                    v = vec(q.text) - vec(c.text)
                    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
                    e = 0.0 if (nu < 1e-8 or nv < 1e-8) else float(np.dot(u, v) / (nu * nv))
                    best = max(best, min(1.0, max(-1.0, e)))
                scores.append(best)
            order = sorted(range(len(scores)), key=lambda i: -scores[i])
            labels = [q.candidates[i].label for i in order]
            aps.append(_oracle_ap(labels))
        want = float(np.mean(aps))
        np.testing.assert_allclose(result.report.row("Combined").map, want, atol=1e-9)

    def test_random_rank_deterministic_and_same_skips(self):
        table, ds, protos = _toy_world()
        a = random_rank(ds, protos, seed=5)
        b = random_rank(ds, protos, seed=5)
        assert [s.ranking.order() for s in a.rankings] == [s.ranking.order() for s in b.rankings]
        ref = evaluate(mean_embedding_encoder(table), ds, protos)
        assert a.report.row("Combined").questions == ref.report.row("Combined").questions
        assert a.report.row("Combined").skipped == ref.report.row("Combined").skipped

    def test_random_rank_marks_no_prototype(self):
        _, ds, protos = _toy_world()
        result = random_rank(ds, protos, seed=1)
        assert all(e.best_prototype_index == -1
                   for sq in result.rankings for e in sq.ranking.entries)


class TestSweep:
    def _world(self):
        rng = np.random.default_rng(12)
        words = {f"w{i}": rng.normal(size=3).astype(np.float32) for i in range(20)}
        table = EmbeddingTable(dim=3, entries=words, oov_seed=0)
        questions = []
        for i in range(12):
            opener = ["who", "when", "where"][i % 3]
            qtext = f"{opener} w{i % 20} w{(i + 3) % 20}"
            cands = [(f"w{(i + j) % 20}", 1 if j == 0 else 0) for j in range(3)]
            questions.append(_question(f"q{i}", qtext, cands))
        return table, _dataset(*questions)

    def test_single_p_single_row(self):
        table, ds = self._world()
        res = sweep_prototypes(mean_embedding_encoder(table), ds, ds, [1], seed=0)
        assert len(res.rows) == 1 and res.rows[0].p == 1

    def test_duplicate_p_identical_rows(self):
        table, ds = self._world()
        res = sweep_prototypes(mean_embedding_encoder(table), ds, ds, [2, 2], seed=0)
        assert res.rows[0] == res.rows[1]

    def test_five_point_sweep_shape(self):
        table, ds = self._world()
        res = sweep_prototypes(mean_embedding_encoder(table), ds, ds, [10, 20, 30, 40, 50], seed=0)
        assert [r.p for r in res.rows] == [10, 20, 30, 40, 50]
        lines = res.to_tsv().strip().split("\n")
        assert lines[0] == "p\tMAP\tMRR"
        assert len(lines) == 6

    def test_clamp_warning_when_p_exceeds_pool(self):
        table, ds = self._world()
        res = sweep_prototypes(mean_embedding_encoder(table), ds, ds, [50], seed=0)
        assert res.warnings

    def test_empty_p_values_rejected(self):
        table, ds = self._world()
        with pytest.raises(ValueError):
            sweep_prototypes(mean_embedding_encoder(table), ds, ds, [], seed=0)

    def test_non_positive_p_rejected(self):
        table, ds = self._world()
        with pytest.raises(ValueError, match="p must be >= 1, got 0"):
            sweep_prototypes(mean_embedding_encoder(table), ds, ds, [2, 0, 3], seed=0)


def _counting(encode_fn):
    calls = []

    def fn(tokens):
        calls.append(tuple(tokens))
        return encode_fn(tokens)

    return fn, calls


def _occurrences(dataset, prototypes, result):
    """Every sentence that ranking reads, once per occurrence: each
    prototype's question and answer, then the text and the candidates of
    each question the result ranked."""
    ranked = {sq.question_id for sq in result.rankings}
    out = [s for protos in prototypes.values() for pr in protos for s in (pr.question, pr.answer)]
    for q in dataset.questions:
        if q.question_id in ranked:
            out += [q.text, *(c.text for c in q.candidates)]
    return out


class TestEncodeOnce:
    def test_evaluate_encodes_each_distinct_sentence_once(self):
        table, ds, protos = _toy_world()
        fn, calls = _counting(mean_embedding_encoder(table))
        memo = {}
        once = evaluate(fn, ds, protos, memo=memo)
        every_occurrence = _occurrences(ds, protos, once)
        assert len(every_occurrence) > len(set(every_occurrence))  # the toy world repeats sentences
        assert sorted(calls) == sorted(set(every_occurrence))
        again = evaluate(fn, ds, protos, memo=memo)
        assert len(calls) == len(set(every_occurrence))
        assert once.report.to_tsv() == again.report.to_tsv()
        assert once.rankings == again.rankings

    def test_sweep_encodes_each_distinct_sentence_once_across_p(self):
        table, ds = TestSweep()._world()
        p_values = [1, 2, 3]
        fn, calls = _counting(mean_embedding_encoder(table))
        res = sweep_prototypes(fn, ds, ds, p_values, seed=0)
        every_occurrence = []
        for p, row in zip(p_values, res.rows):
            protos = select_prototypes(ds, p, 0)
            plain = evaluate(mean_embedding_encoder(table), ds, protos)
            every_occurrence += _occurrences(ds, protos, plain)
            combined = plain.report.row("Combined")
            assert (row.map, row.mrr) == (combined.map, combined.mrr)
        assert len(every_occurrence) > len(set(every_occurrence))
        assert sorted(calls) == sorted(set(every_occurrence))


def _counting_batches(encode_fn):
    """A batch encoder over encode_fn that records each batch it is given;
    calling it one sentence at a time fails."""
    batches = []

    def fn(tokens):
        raise AssertionError("evaluate must encode through fn.many")

    def many(sentences):
        batches.append(list(sentences))
        return np.stack([encode_fn(s) for s in sentences])

    fn.many = many
    return fn, batches


def _distinct_sentences(ds, prototypes):
    return ({s for protos in prototypes.values() for pr in protos for s in (pr.question, pr.answer)}
            | {s for q in ds.questions for s in (q.text, *(c.text for c in q.candidates))})


class TestEncodeFirst:
    def test_one_batch_of_distinct_sentences_per_evaluate(self):
        table, ds, protos = _toy_world()
        fn, batches = _counting_batches(mean_embedding_encoder(table))
        result = evaluate(fn, ds, protos)
        assert len(batches) == 1
        assert len(batches[0]) == len(set(batches[0]))
        # every prototype and every scorable question's sentences; the
        # unscorable questions' own sentences are left out
        scorable = _dataset(*(q for q in ds.questions if not q.question_id.startswith("skip")))
        assert set(batches[0]) == _distinct_sentences(scorable, protos)
        plain = evaluate(mean_embedding_encoder(table), ds, protos)
        assert result.report.to_tsv() == plain.report.to_tsv()
        assert result.rankings == plain.rankings

    @pytest.mark.parametrize("extra", [-1, 1], ids=["one-dropped", "one-added"])
    def test_wrong_vector_count_is_a_shape_error(self, extra):
        """A batch encoder that returns more or fewer vectors than it was
        given sentences is named with both counts."""
        table, ds, protos = _toy_world()
        fn, batches = _counting_batches(mean_embedding_encoder(table))
        many = fn.many

        def wrong_count(sentences):
            vectors = many(sentences)
            return vectors[:-1] if extra < 0 else np.concatenate([vectors, vectors[:1]])

        fn.many = wrong_count
        with pytest.raises(ShapeError) as info:
            evaluate(fn, ds, protos)
        n = len(batches[0])
        assert str(info.value) == f"encode_fn.many returned {n + extra} vectors for {n} sentences"

    def test_memo_skips_encoded_sentences(self):
        table, ds, protos = _toy_world()
        fn, batches = _counting_batches(mean_embedding_encoder(table))
        memo = {}
        first = evaluate(fn, ds, protos, memo=memo)
        again = evaluate(fn, ds, protos, memo=memo)
        assert len(batches) == 1
        assert again.rankings == first.rankings

    def test_sweep_encodes_each_distinct_sentence_once(self):
        table, ds = TestSweep()._world()
        fn, batches = _counting_batches(mean_embedding_encoder(table))
        res = sweep_prototypes(fn, ds, ds, [1, 2, 3], seed=0)
        encoded = [s for batch in batches for s in batch]
        assert len(encoded) == len(set(encoded))
        assert set(encoded) == _distinct_sentences(ds, select_prototypes(ds, 3, 0))
        plain = sweep_prototypes(mean_embedding_encoder(table), ds, ds, [1, 2, 3], seed=0)
        assert res.rows == plain.rows

    def test_learned_encoder_batches_match_per_sentence_encode(self):
        """sentence_encoder's batches give the report and, to 1e-12, the
        scores of encoding every sentence alone."""
        table, ds, protos = _toy_world()
        params = EncoderParams.initialize(table.dim, 3, seed=1)
        batched = evaluate(sentence_encoder(table, params), ds, protos)
        alone = evaluate(lambda tokens: encode(tokens, table, params).values, ds, protos)
        assert batched.report.to_tsv() == alone.report.to_tsv()
        for b, a in zip(batched.rankings, alone.rankings):
            assert [e.candidate_index for e in b.ranking.entries] == [e.candidate_index for e in a.ranking.entries]
            np.testing.assert_allclose([e.score for e in b.ranking.entries],
                                       [e.score for e in a.ranking.entries], rtol=0, atol=1e-12)


class TestRankTsv:
    def test_layout(self):
        table, ds, protos = _toy_world()
        result = evaluate(mean_embedding_encoder(table), ds, protos)
        text = rankings_to_tsv(result.rankings)
        lines = text.strip().split("\n")
        assert lines[0] == "question_id\tcandidate_index\tscore\trank\tbest_prototype_index"
        first = lines[1].split("\t")
        assert first[0] == "w1"
        assert int(first[3]) == 1
        # one row per candidate of each evaluated question
        assert len(lines) - 1 == sum(len(sq.ranking.entries) for sq in result.rankings)


def _sweep_world():
    """Held-out and prototype sets over random 3-d words.  No Where
    question of the prototype set is answerable, one held-out Who question
    has no positive, and held-out questions come with 3 and 4 candidates;
    some sentences occur in both sets."""
    rng = np.random.default_rng(3)
    table = EmbeddingTable(dim=3, entries={f"w{i}": rng.normal(size=3).astype(np.float32) for i in range(30)},
                           oov_seed=0)
    openers = ["who", "when", "where"]

    def question(qid, opener, i, n, answerable=True):
        cands = [(f"w{(i + j) % 30} w{(i + 2 * j + 1) % 30}", int(answerable and j == i % n)) for j in range(n)]
        return _question(qid, f"{opener} w{i % 30} w{(i + 7) % 30}", cands)

    proto_ds = _dataset(*(question(f"p{i}", openers[i % 3], i, 3, answerable=i % 3 != 2) for i in range(18)))
    eval_ds = _dataset(*(question(f"e{i}", openers[i % 3], i + 25, 3 + i % 2) for i in range(15)),
                       question("e-no-positive", "who", 5, 3, answerable=False))
    return table, eval_ds, proto_ds


class TestSweepPlan:
    """The sweep prepares its questions once and ranks each p with
    rank_group alone."""

    P_VALUES = [1, 3, 2, 5]

    def _sweep(self, encode_fn, eval_ds, proto_ds, mode="energy"):
        return sweep_prototypes(encode_fn, eval_ds, proto_ds, self.P_VALUES, seed=0, mode=mode)

    def test_scorable_set_does_not_depend_on_p(self):
        _, eval_ds, proto_ds = _sweep_world()
        sets = {tuple(q.question_id for q in eval_ds.questions if _scorable(q, select_prototypes(proto_ds, p, 0)))
                for p in range(1, 9)}
        assert len(sets) == 1
        (scorable,) = sets
        assert 0 < len(scorable) < len(eval_ds.questions)

    @pytest.mark.parametrize("mode", RANK_MODES)
    def test_rows_are_evaluates_combined_rows_bit_for_bit(self, mode):
        table, eval_ds, proto_ds = _sweep_world()
        res = self._sweep(mean_embedding_encoder(table), eval_ds, proto_ds, mode)
        assert [r.p for r in res.rows] == self.P_VALUES
        for p, row in zip(self.P_VALUES, res.rows):
            report = evaluate(mean_embedding_encoder(table), eval_ds, select_prototypes(proto_ds, p, 0),
                              mode=mode).report
            combined = report.row("Combined")
            # the Where questions and the question without a positive are skipped
            assert report.row("Where").skipped == 5 and combined.skipped == 6
            assert (repr(row.map), repr(row.mrr)) == (repr(combined.map), repr(combined.mrr))

    def test_one_rank_group_call_per_group_and_p(self, monkeypatch):
        table, eval_ds, proto_ds = _sweep_world()
        calls = []
        real = evaluation.rank_group

        def counting(q, C, P, mode):
            calls.append((C.shape[1], len(P)))
            return real(q, C, P, mode)

        monkeypatch.setattr(evaluation, "rank_group", counting)
        self._sweep(mean_embedding_encoder(table), eval_ds, proto_ds)
        groups = {(q.wh_type, len(q.candidates)) for q in eval_ds.questions
                  if _scorable(q, select_prototypes(proto_ds, 1, 0))}
        assert len(groups) == 4
        assert len(calls) == len(self.P_VALUES) * len(groups)
        assert [n_protos for _, n_protos in calls] == [p for p in self.P_VALUES for _ in groups]

    def test_builds_no_ranked_candidate(self, monkeypatch):
        table, eval_ds, proto_ds = _sweep_world()

        def refuse(*args, **kwargs):
            raise AssertionError("built a RankedCandidate")

        monkeypatch.setattr(analogy_core, "RankedCandidate", refuse)
        res = self._sweep(mean_embedding_encoder(table), eval_ds, proto_ds)
        assert len(res.rows) == len(self.P_VALUES)
        # the positive control: reading an evaluation's rankings builds them
        with pytest.raises(AssertionError, match="built a RankedCandidate"):
            evaluate(mean_embedding_encoder(table), eval_ds, select_prototypes(proto_ds, 1, 0)).rankings

    @pytest.mark.parametrize("method", ["evaluate", "random"])
    def test_report_builds_no_ranking_objects(self, method, monkeypatch):
        """An evaluation's report comes from the group arrays alone; the
        per-question objects are built only when rankings is read."""
        table, eval_ds, proto_ds = _sweep_world()
        protos = select_prototypes(proto_ds, 1, 0)

        def refuse(*args, **kwargs):
            raise AssertionError("built a ranking object")

        for owner, name in ((analogy_core, "RankedCandidate"), (analogy_core, "RankedList"),
                            (evaluation, "RankedList"), (evaluation, "ScoredQuestion")):
            monkeypatch.setattr(owner, name, refuse)
        result = (evaluate(mean_embedding_encoder(table), eval_ds, protos) if method == "evaluate"
                  else random_rank(eval_ds, protos, seed=0))
        assert result.report.row("Combined").questions > 0
        with pytest.raises(AssertionError, match="built a ranking object"):
            result.rankings

    def test_draws_the_prototypes_once(self, monkeypatch):
        """One select_prototypes call, at the largest p, gives the rows and
        warnings of one single-p sweep per p."""
        table, eval_ds, proto_ds = _sweep_world()
        fn = mean_embedding_encoder(table)
        per_p = [sweep_prototypes(fn, eval_ds, proto_ds, [p], seed=0) for p in self.P_VALUES]
        calls = []
        real = evaluation.select_prototypes

        def counting(dataset, p, seed):
            calls.append(p)
            return real(dataset, p, seed)

        monkeypatch.setattr(evaluation, "select_prototypes", counting)
        res = self._sweep(fn, eval_ds, proto_ds)
        assert calls == [max(self.P_VALUES)]
        assert res.rows == tuple(row for r in per_p for row in r.rows)
        assert res.warnings == tuple(w for r in per_p for w in r.warnings)
        assert res.warnings  # no Where question of the prototype set is answerable

    def test_encode_batches_are_those_of_one_evaluate_per_p(self):
        """The first p's distinct sentences in one batch, then each later
        p's prototype sentences not encoded yet, in first-seen order: what
        evaluating once per p with one memo encodes."""
        table, eval_ds, proto_ds = _sweep_world()
        fn, batches = _counting_batches(mean_embedding_encoder(table))
        self._sweep(fn, eval_ds, proto_ds)
        want, seen = [], set()
        for p in self.P_VALUES:
            protos = select_prototypes(proto_ds, p, 0)
            sentences = [s for group in protos.values() for pr in group for s in (pr.question, pr.answer)]
            sentences += [s for q in eval_ds.questions if _scorable(q, protos)
                          for s in (q.text, *(c.text for c in q.candidates))]
            missing = [s for s in dict.fromkeys(sentences) if s not in seen]
            if missing:
                want.append(missing)
                seen.update(missing)
        assert len(want) == 3  # p = 2 adds no sentence after p = 3
        assert batches == want
