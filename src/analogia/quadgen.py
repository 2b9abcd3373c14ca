"""Prototype selection and quadruple generation.

A prototype is a question paired with one known-correct answer.  Training
quadruples stack a prototype pair against a (question, candidate) pair of
the same wh-type, labeled 1 when the candidate is correct.  Evaluation
quadruples pair one question's candidates with every same-type prototype,
prototype-major, giving exactly p*k rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .text_data import WH_TYPES, Candidate, QADataset, Question, join_lines


@dataclass(frozen=True)
class Prototype:
    question: tuple[str, ...]
    answer: tuple[str, ...]
    wh_type: str


@dataclass(frozen=True)
class Quadruple:
    """(a, b, c, d) with a:b the prototype pair and c:d the target pair.

    y is 1 when d correctly answers c, 0 when not, None for unlabeled
    evaluation quadruples.
    """

    a: tuple[str, ...]
    b: tuple[str, ...]
    c: tuple[str, ...]
    d: tuple[str, ...]
    y: int | None
    wh_type: str

    def __post_init__(self):
        if self.y not in (0, 1, None):
            raise ValueError(f"y must be 0, 1 or None, got {self.y!r}")


def gold_answer(question: Question) -> tuple[str, ...] | None:
    """The text of the question's first label-1 candidate, or None."""
    for c in question.candidates:
        if c.label == 1:
            return c.text
    return None


def usable(question: Question) -> bool:
    """Whether the question may be drawn as a prototype, trained on or
    ranked: its text and every candidate have tokens, and it has a
    gold_answer."""
    return (len(question.text) > 0 and all(c.text for c in question.candidates)
            and gold_answer(question) is not None)


def select_prototypes(dataset: QADataset, p: int, seed: int) -> dict[str, list[Prototype]]:
    """Up to p prototypes per wh-type, drawn by seeded shuffle.

    Only usable questions qualify; each contributes at most one prototype,
    its gold_answer as the answer.  A type with no usable questions yields
    an empty list (the caller decides whether that warrants a warning).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    rng = np.random.default_rng(seed)
    out: dict[str, list[Prototype]] = {}
    for wh in WH_TYPES:
        pairs = [(q.text, gold_answer(q)) for q in dataset.by_type(wh) if usable(q)]
        order = rng.permutation(len(pairs))
        out[wh] = [Prototype(*pairs[i], wh_type=wh) for i in order[:p]]
    return out


def generate_training_quadruples(dataset: QADataset, prototypes: dict[str, list[Prototype]],
                                 negatives_per_positive: int = 1, seed: int = 0) -> list[Quadruple]:
    """Labeled quadruples for training.

    For every same-type (prototype, question, correct answer) triple there
    is one positive, followed by up to negatives_per_positive negatives
    drawn without replacement from that question's wrong answers.  Targets
    are the usable questions that are not prototype questions.  Iteration
    order is fixed (types, then prototypes, then dataset question order),
    so the output is a pure function of (inputs, seed).
    """
    if negatives_per_positive < 0:
        raise ValueError(f"negatives_per_positive must be >= 0, got {negatives_per_positive}")
    rng = np.random.default_rng(seed)
    quads: list[Quadruple] = []
    for wh in WH_TYPES:
        protos = prototypes.get(wh, [])
        if not protos:
            continue
        proto_questions = {pr.question for pr in protos}
        targets = [q for q in dataset.by_type(wh) if q.text not in proto_questions and usable(q)]
        for pr in protos:
            for q in targets:
                wrong = [c for c in q.candidates if c.label == 0]
                for cand in q.candidates:
                    if cand.label != 1:
                        continue
                    quads.append(Quadruple(a=pr.question, b=pr.answer,
                                           c=q.text, d=cand.text, y=1, wh_type=wh))
                    n = min(negatives_per_positive, len(wrong))
                    if n > 0:
                        picks = rng.choice(len(wrong), size=n, replace=False)
                        for idx in picks:
                            quads.append(Quadruple(a=pr.question, b=pr.answer,
                                                   c=q.text, d=wrong[idx].text, y=0, wh_type=wh))
    return quads


def generate_eval_quadruples(question: Question, candidates, prototypes) -> list[Quadruple]:
    """p*k unlabeled quadruples, prototype-major; empty when no prototypes
    exist for the question's type (the caller records a skip)."""
    prototypes = list(prototypes)
    for pr in prototypes:
        if pr.wh_type != question.wh_type:
            raise ValueError(
                f"prototype type {pr.wh_type} does not match question type {question.wh_type}")
    if not prototypes:
        return []
    quads = []
    for pr in prototypes:
        for cand in candidates:
            text = cand.text if isinstance(cand, Candidate) else tuple(cand)
            quads.append(Quadruple(a=pr.question, b=pr.answer,
                                   c=question.text, d=text, y=None, wh_type=question.wh_type))
    return quads


def quadruples_to_tsv(quads) -> str:
    """One quadruple per line: wh_type, the four space-joined sentences, y."""
    lines = []
    for q in quads:
        if q.y is None:
            raise ValueError("cannot serialize unlabeled quadruples")
        lines.append("\t".join((q.wh_type, " ".join(q.a), " ".join(q.b),
                                " ".join(q.c), " ".join(q.d), str(q.y))))
    return join_lines(lines)
