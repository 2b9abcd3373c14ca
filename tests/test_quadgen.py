"""Prototype selection and quadruple generation against brute-force
counting oracles."""

import numpy as np
import pytest

from analogia.quadgen import (
    Prototype,
    Quadruple,
    generate_eval_quadruples,
    generate_training_quadruples,
    quadruples_to_tsv,
    select_prototypes,
)
from analogia.text_data import Candidate, QADataset, Question, classify_question, tokenize


def _question(qid, text, cands):
    toks = tokenize(text)
    return Question(question_id=qid, text=toks, wh_type=classify_question(toks),
                    candidates=tuple(Candidate(text=tokenize(t), label=y) for t, y in cands))


def _dataset(*questions):
    return QADataset(questions=tuple(questions))


def _random_dataset(rng, n_questions=12):
    vocab = ["rome", "paris", "1905", "monday", "amundsen", "curie", "valley", "harbor"]
    openers = ["who", "when", "where", "what"]
    questions = []
    for i in range(n_questions):
        opener = openers[int(rng.integers(len(openers)))]
        qtext = f"{opener} {' '.join(rng.choice(vocab, size=3))}"
        k = int(rng.integers(1, 5))
        labels = [int(rng.integers(0, 2)) for _ in range(k)]
        cands = [(" ".join(rng.choice(vocab, size=2)), y) for y in labels]
        questions.append(_question(f"q{i}", qtext, cands))
    return _dataset(*questions)


class TestSelectPrototypes:
    def test_single_answerable_question_forced(self):
        ds = _dataset(_question("q1", "Who wrote it?", [("the author.", 1), ("a play.", 0)]))
        protos = select_prototypes(ds, p=1, seed=0)
        assert protos["Who"] == [Prototype(question=("who", "wrote", "it"),
                                           answer=("the", "author"), wh_type="Who")]
        assert protos["When"] == [] and protos["Where"] == []

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        ds = _random_dataset(rng, 20)
        assert select_prototypes(ds, 3, seed=42) == select_prototypes(ds, 3, seed=42)

    def test_seed_changes_selection(self):
        ds = _dataset(*[
            _question(f"q{i}", f"who did thing {i}?", [("yes indeed.", 1)]) for i in range(30)
        ])
        a = select_prototypes(ds, 5, seed=1)["Who"]
        b = select_prototypes(ds, 5, seed=2)["Who"]
        assert a != b

    def test_cap_at_p(self):
        ds = _dataset(*[
            _question(f"q{i}", f"when was event {i}?", [("in 1905.", 1)]) for i in range(119)
        ])
        protos = select_prototypes(ds, 30, seed=7)
        assert len(protos["When"]) == 30

    def test_fewer_than_p_available(self):
        ds = _dataset(_question("q1", "where is it?", [("here.", 1)]))
        assert len(select_prototypes(ds, 10, seed=0)["Where"]) == 1

    def test_only_answerable_questions_qualify(self):
        ds = _dataset(
            _question("q1", "who did x?", [("nobody.", 0), ("unclear.", 0)]),
            _question("q2", "who did y?", [("someone.", 1)]),
        )
        protos = select_prototypes(ds, 5, seed=0)["Who"]
        assert len(protos) == 1
        assert protos[0].question == ("who", "did", "y")

    def test_first_correct_candidate_is_answer(self):
        ds = _dataset(_question("q1", "who?", [("wrong.", 0), ("first right.", 1), ("also right.", 1)]))
        protos = select_prototypes(ds, 1, seed=0)["Who"]
        assert protos[0].answer == ("first", "right")

    def test_one_prototype_per_question(self):
        ds = _dataset(_question("q1", "who?", [("a.", 1), ("b.", 1), ("c.", 1)]))
        assert len(select_prototypes(ds, 5, seed=0)["Who"]) == 1

    def test_other_questions_never_become_prototypes(self):
        ds = _dataset(_question("q1", "what is it?", [("a thing.", 1)]))
        protos = select_prototypes(ds, 3, seed=0)
        assert set(protos) == {"Who", "When", "Where"}
        assert all(not v for v in protos.values())

    def test_p_validation(self):
        with pytest.raises(ValueError):
            select_prototypes(_dataset(), 0, seed=0)


def _count_oracle(dataset, prototypes, npp):
    """Independent positive/negative count via explicit enumeration."""
    pos = neg = 0
    for wh in ("Who", "When", "Where"):
        protos = prototypes.get(wh, [])
        proto_q = {pr.question for pr in protos}
        for q in dataset.questions:
            if q.wh_type != wh or q.text in proto_q:
                continue
            n_correct = sum(1 for c in q.candidates if c.label == 1)
            n_wrong = sum(1 for c in q.candidates if c.label == 0)
            pos += len(protos) * n_correct
            neg += len(protos) * n_correct * min(npp, n_wrong)
    return pos, neg


class TestTrainingQuadruples:
    def test_one_positive_one_negative(self):
        ds = _dataset(
            _question("p", "who made it?", [("the maker.", 1)]),
            _question("q", "who broke it?", [("the culprit.", 1), ("a vase.", 0), ("a cup.", 0)]),
        )
        protos = {"Who": [Prototype(("who", "made", "it"), ("the", "maker"), "Who")]}
        quads = generate_training_quadruples(ds, protos, negatives_per_positive=1, seed=0)
        assert [q.y for q in quads] == [1, 0]
        assert quads[0].d == ("the", "culprit")
        assert quads[1].d in (("a", "vase"), ("a", "cup"))

    def test_negative_count_clamped_by_available_wrong_answers(self):
        ds = _dataset(_question("q", "who broke it?", [("the culprit.", 1), ("a vase.", 0)]))
        protos = {"Who": [Prototype(("who", "made", "it"), ("the", "maker"), "Who")]}
        quads = generate_training_quadruples(ds, protos, negatives_per_positive=2, seed=0)
        assert sum(q.y == 0 for q in quads) == 1

    def test_all_prototype_question_pairs_enumerate(self):
        ds = _dataset(*[
            _question(f"q{i}", f"when was event {i}?", [("in 1905.", 1), ("no.", 0)])
            for i in range(3)
        ])
        protos = {"When": [
            Prototype(("when", "was", "p1"), ("in", "1900"), "When"),
            Prototype(("when", "was", "p2"), ("in", "1901"), "When"),
        ]}
        quads = generate_training_quadruples(ds, protos, negatives_per_positive=0, seed=0)
        assert len(quads) == 6
        assert all(q.y == 1 for q in quads)

    def test_prototype_questions_excluded_as_targets(self):
        ds = _dataset(
            _question("q1", "who wrote x?", [("author x.", 1), ("no.", 0)]),
            _question("q2", "who wrote y?", [("author y.", 1), ("no.", 0)]),
        )
        protos = select_prototypes(ds, 1, seed=3)
        quads = generate_training_quadruples(ds, protos, 1, seed=0)
        proto_q = protos["Who"][0].question
        assert all(q.c != proto_q for q in quads)

    def test_label_matches_candidate_correctness(self):
        rng = np.random.default_rng(5)
        ds = _random_dataset(rng, 15)
        protos = select_prototypes(ds, 2, seed=1)
        quads = generate_training_quadruples(ds, protos, 2, seed=2)
        truth = {}
        for q in ds.questions:
            for c in q.candidates:
                # a text can appear with both labels across questions; key per question
                truth[(q.text, c.text, c.label)] = True
        for quad in quads:
            assert (quad.c, quad.d, quad.y) in truth

    def test_type_homogeneous(self):
        rng = np.random.default_rng(6)
        ds = _random_dataset(rng, 20)
        protos = select_prototypes(ds, 3, seed=1)
        for quad in generate_training_quadruples(ds, protos, 1, seed=0):
            assert classify_question(quad.a) == quad.wh_type
            assert classify_question(quad.c) == quad.wh_type

    def test_counts_match_brute_force_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ds = _random_dataset(rng, 16)
            protos = select_prototypes(ds, 3, seed=seed)
            for npp in (0, 1, 2, 5):
                quads = generate_training_quadruples(ds, protos, npp, seed=seed)
                want_pos, want_neg = _count_oracle(ds, protos, npp)
                assert sum(q.y == 1 for q in quads) == want_pos, f"seed={seed} npp={npp}"
                assert sum(q.y == 0 for q in quads) == want_neg, f"seed={seed} npp={npp}"

    def test_negatives_distinct_within_a_positive(self):
        ds = _dataset(_question("q", "who is it?", [
            ("right.", 1), ("w1.", 0), ("w2.", 0), ("w3.", 0)]))
        protos = {"Who": [Prototype(("who", "made", "it"), ("maker",), "Who")]}
        quads = generate_training_quadruples(ds, protos, 3, seed=4)
        negs = [q.d for q in quads if q.y == 0]
        assert len(negs) == len(set(negs)) == 3

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        ds = _random_dataset(rng, 18)
        protos = select_prototypes(ds, 2, seed=0)
        a = generate_training_quadruples(ds, protos, 2, seed=9)
        b = generate_training_quadruples(ds, protos, 2, seed=9)
        assert a == b

    def test_npp_validation(self):
        with pytest.raises(ValueError):
            generate_training_quadruples(_dataset(), {}, -1, seed=0)


class TestEvalQuadruples:
    def _q(self):
        return _question("q", "where is the harbor?", [("north.", 0), ("south.", 1), ("east.", 0)])

    def _protos(self, p):
        return [Prototype((f"where is p{i}",), (f"at p{i}",), "Where") for i in range(p)]

    def test_p_times_k(self):
        q = self._q()
        quads = generate_eval_quadruples(q, q.candidates, self._protos(2))
        assert len(quads) == 6

    def test_prototype_major_order(self):
        q = self._q()
        quads = generate_eval_quadruples(q, q.candidates, self._protos(2))
        # first k rows share prototype 0; candidate order cycles fastest
        assert [qq.a for qq in quads[:3]] == [("where is p0",)] * 3
        assert [qq.d for qq in quads[:3]] == [("north",), ("south",), ("east",)]
        assert quads[3].a == ("where is p1",)

    def test_single_pair(self):
        q = self._q()
        quads = generate_eval_quadruples(q, q.candidates[:1], self._protos(1))
        assert len(quads) == 1
        assert quads[0].y is None

    def test_no_prototypes_gives_empty(self):
        q = self._q()
        assert generate_eval_quadruples(q, q.candidates, []) == []

    def test_type_mismatch_rejected(self):
        q = self._q()
        wrong = [Prototype(("who",), ("x",), "Who")]
        with pytest.raises(ValueError):
            generate_eval_quadruples(q, q.candidates, wrong)


class TestQuadrupleSerialization:
    def _quads(self):
        return [
            Quadruple(("who", "a"), ("b",), ("who", "c"), ("d", "e"), 1, "Who"),
            Quadruple(("when", "x"), ("y",), ("when", "z"), ("w",), 0, "When"),
        ]

    def test_serialized_shape(self):
        text = quadruples_to_tsv(self._quads())
        lines = text.strip().split("\n")
        assert lines[0] == "Who\twho a\tb\twho c\td e\t1"
        assert lines[1].endswith("\t0")

    def test_unlabeled_rejected(self):
        quad = Quadruple(("a",), ("b",), ("c",), ("d",), None, "Who")
        with pytest.raises(ValueError):
            quadruples_to_tsv([quad])

    def test_label_validation_in_constructor(self):
        with pytest.raises(ValueError):
            Quadruple(("a",), ("b",), ("c",), ("d",), 2, "Who")
