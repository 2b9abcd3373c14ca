"""Seeded input generators for the benchmark workloads.

Every generator here is a pure function of the workload seed, passed as
an argument: the same seed gives byte-identical text, a different seed
gives different text.  analogia never sees the seed, only the files or
objects built from it.
"""

from __future__ import annotations

import io
import os

import numpy as np

# Paper-scale shape: fastText-sized vectors, sentences of 10-40 tokens,
# about 10 candidates per question with one or two positives.
PAPER_DIM = 300
PAPER_TRAIN_PER_TYPE = 10
PAPER_HELDOUT_PER_TYPE = 12
PAPER_CANDIDATES = (9, 11)  # inclusive range of candidates per question
PAPER_SENTENCE_TOKENS = (10, 40)  # inclusive range of tokens per sentence
PAPER_OOV_SHARE = 0.05
PAPER_IN_VOCAB = 2400  # distinct in-vocabulary words the dataset draws from
PAPER_OOV_WORDS = 400  # distinct out-of-vocabulary words
PAPER_ROWS_PER_WORD = 4  # .vec rows per distinct dataset word, so most rows go unused

WH_WORDS = ("who", "when", "where")

PAPER_VEC = "vectors.vec"
PAPER_TRAIN = "train.tsv"
PAPER_HELDOUT = "heldout.tsv"

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def _words(rng, count: int, taken: set) -> list[str]:
    """count new lowercase words, none in taken; taken is extended."""
    out = []
    while len(out) < count:
        n = int(rng.integers(4, 10))
        w = "".join(_LETTERS[rng.integers(0, 26, size=n)])
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _sentence(rng, vocab: list[str], oov: list[str], first: str | None = None) -> tuple[str, ...]:
    lo, hi = PAPER_SENTENCE_TOKENS
    n = int(rng.integers(lo, hi + 1))
    # Zipf-like word frequencies, as in natural text.
    ranks = (rng.zipf(1.3, size=n) - 1) % len(vocab)
    toks = [vocab[int(r)] for r in ranks]
    for i in np.flatnonzero(rng.random(n) < PAPER_OOV_SHARE):
        toks[i] = oov[int(rng.integers(len(oov)))]
    if first is not None:
        toks[0] = first
    return tuple(toks)


def _questions(rng, per_type: int, prefix: str, vocab, oov, seen: set) -> list[str]:
    """TSV rows for per_type questions of each wh-type.  No sentence
    repeats across questions (seen holds every sentence so far)."""

    def fresh(first=None):
        while True:
            s = _sentence(rng, vocab, oov, first)
            if s not in seen:
                seen.add(s)
                return " ".join(s)

    rows = []
    for wh in WH_WORDS:
        for k in range(per_type):
            qid = f"{prefix}-{wh}-{k}"
            qtext = fresh(wh)
            n_cand = int(rng.integers(PAPER_CANDIDATES[0], PAPER_CANDIDATES[1] + 1))
            n_pos = int(rng.integers(1, 3))
            positives = set(rng.choice(n_cand, size=n_pos, replace=False).tolist())
            for c in range(n_cand):
                rows.append(f"{qid}\t{qtext}\t{fresh()}\t{int(c in positives)}\n")
    return rows


def paper_scale_texts(seed: int) -> dict[str, str]:
    """File name -> text of the paper-scale .vec and QA TSVs for a seed.

    The .vec has PAPER_ROWS_PER_WORD rows per distinct dataset word
    (in-vocabulary plus OOV), in shuffled order; OOV words get no row.
    """
    rng = np.random.default_rng(seed)
    taken = set(WH_WORDS)
    vocab = list(WH_WORDS) + _words(rng, PAPER_IN_VOCAB - len(WH_WORDS), taken)
    # wh-words stay at the head of the Zipf ranks only as question openers.
    body_vocab = vocab[len(WH_WORDS):]
    oov = _words(rng, PAPER_OOV_WORDS, taken)
    seen: set = set()
    train = _questions(rng, PAPER_TRAIN_PER_TYPE, "t", body_vocab, oov, seen)
    heldout = _questions(rng, PAPER_HELDOUT_PER_TYPE, "h", body_vocab, oov, seen)

    n_rows = PAPER_ROWS_PER_WORD * (len(vocab) + len(oov))
    row_words = vocab + _words(rng, n_rows - len(vocab), taken)
    row_words = [row_words[i] for i in rng.permutation(len(row_words))]
    values = rng.normal(scale=0.3, size=(n_rows, PAPER_DIM))
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.5f")
    value_lines = buf.getvalue().splitlines()
    vec = f"{n_rows} {PAPER_DIM}\n" + "".join(f"{w} {v}\n" for w, v in zip(row_words, value_lines))
    return {PAPER_VEC: vec, PAPER_TRAIN: "".join(train), PAPER_HELDOUT: "".join(heldout)}


def write_texts(texts: dict[str, str], directory: str) -> dict[str, str]:
    """Write each text under directory; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        paths[name] = path
    return paths
