"""Tokenization, word-vector tables, and QA dataset ingestion."""

from __future__ import annotations

import hashlib
import math
import string
from dataclasses import dataclass, field

import numpy as np

WHO = "Who"
WHEN = "When"
WHERE = "Where"
OTHER = "Other"
WH_TYPES = (WHO, WHEN, WHERE)

_ASCII_PUNCT = string.punctuation

# rows of a vector file parsed by one np.loadtxt call
_BLOCK_ROWS = 1024


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


class ConfigError(ValueError):
    """Inputs are well-formed but inconsistent with the requested setup."""


def require_finite(**settings) -> None:
    """Raise ConfigError naming the first setting that is NaN or infinite."""
    for name, value in settings.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value}")


def read_lines(path):
    """(line number from 1, text) of each line of a UTF-8 text file, the
    line ending stripped.  Bytes that are not UTF-8 raise ParseError naming
    the file and the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: not UTF-8 text: {exc}") from None
            yield lineno, line.rstrip("\r\n")


def tokenize(raw: str) -> tuple[str, ...]:
    """Lowercase, split on Unicode whitespace, strip ASCII punctuation off
    token edges, drop empties.  Total on any string; idempotent on its own
    space-joined output."""
    out = []
    for piece in raw.lower().split():
        tok = piece.strip(_ASCII_PUNCT)
        if tok:
            out.append(tok)
    return tuple(out)


def classify_question(tokens) -> str:
    """Wh-type from the first token: who/when/where, anything else Other."""
    if not tokens:
        return OTHER
    first = tokens[0]
    for wh in WH_TYPES:
        if first == wh.lower():
            return wh
    return OTHER


@dataclass(frozen=True)
class Candidate:
    text: tuple[str, ...]
    label: int


@dataclass(frozen=True)
class Question:
    question_id: str
    text: tuple[str, ...]
    wh_type: str
    candidates: tuple[Candidate, ...]


@dataclass(frozen=True)
class QADataset:
    questions: tuple[Question, ...]

    def __len__(self) -> int:
        return len(self.questions)

    def by_type(self, wh_type: str) -> tuple[Question, ...]:
        return tuple(q for q in self.questions if q.wh_type == wh_type)


@dataclass(frozen=True)
class EmbeddingTable:
    """Token -> vector map with deterministic out-of-vocabulary fallback.

    Unknown tokens hash (oov_seed, token bytes) into a generator seed and
    draw a uniform [-0.1, 0.1] vector, so repeated lookups agree across
    processes.  Each table draws a token's vector once and hands out the
    same read-only array after that.
    """

    dim: int
    entries: dict[str, np.ndarray] = field(repr=False)
    oov_seed: int = 0
    _oov: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def lookup(self, token: str) -> np.ndarray:
        vec = self.entries.get(token)
        if vec is not None:
            return vec
        vec = self._oov.get(token)
        if vec is None:
            # concurrent callers that both missed keep the first stored array
            vec = self._oov.setdefault(token, self._oov_vector(token))
        return vec

    def _oov_vector(self, token: str) -> np.ndarray:
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.oov_seed).encode("utf-8"))
        h.update(b"\x00")
        h.update(token.encode("utf-8"))
        rng = np.random.default_rng(int.from_bytes(h.digest(), "little"))
        vec = rng.uniform(-0.1, 0.1, size=self.dim).astype(np.float32)
        vec.setflags(write=False)
        return vec


def _is_header(fields: list[str]) -> bool:
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def load_embeddings(path) -> EmbeddingTable:
    """Read a word-vector text file.

    Format: optional first line ``count dim``; data lines
    ``token v1 v2 ... vd``, values in Python ``float()`` syntax, stored as
    float32; a value that is NaN, infinite or beyond float32's range (1e39)
    is a ParseError.  Duplicate tokens keep the first occurrence.
    Dimension comes from the header or the first data row; a later row of
    a different width is a ParseError.  The whole file is parsed, in blocks of _BLOCK_ROWS
    rows, and a file with several bad lines reports the first in file order.
    """
    dim: int | None = None
    entries: dict[str, np.ndarray] = {}
    for block in _row_blocks(path):
        lineno, token, values = block[0]
        if lineno == 1 and _is_header(fields := [token, *values.split()]):
            dim = int(fields[1])
            if dim <= 0:
                raise ParseError(f"{path}: line 1: header dimension must be positive")
            del block[0]
            if not block:
                continue
        matrix, dim = _parse_block(path, block, dim)
        for (_, token, _), vec in zip(block, matrix):
            entries.setdefault(token, vec)
    if dim is None or not entries:
        raise ParseError(f"{path}: no embedding rows found")
    return EmbeddingTable(dim=dim, entries=entries)


def _row_blocks(path):
    """Lists of up to _BLOCK_ROWS (line number, token, value text) rows,
    one per non-blank line of a vector file."""
    block = []
    try:
        for lineno, line in read_lines(path):
            parts = line.split(None, 1)
            if not parts:
                continue
            block.append((lineno, parts[0], parts[1] if len(parts) == 2 else ""))
            if len(block) == _BLOCK_ROWS:
                yield block
                block = []
    except ParseError:
        # the rows read so far come first in the file: a bad one among them
        # is the error to report
        if block:
            yield block
        raise
    if block:
        yield block


def _parse_block(path, block, dim):
    """The block's values as a read-only float32 (rows, dim) matrix, and
    dim, taken from the block's first row when not yet known."""
    values = [text for _, _, text in block]
    width = dim if dim is not None else len(values[0].split())
    matrix = None
    # loadtxt skips a line with no values (and warns when it skips them all),
    # so such a block goes row by row, which rejects the line.
    if all(values):
        try:
            matrix = np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if matrix is None or matrix.shape != (len(block), width):
        # a bad float, a width change, or syntax only float() accepts (1_0)
        matrix, width = _parse_rows(path, block, dim)
    else:
        matrix = _float32(matrix)
        if not np.isfinite(matrix).all():
            row = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
            raise _not_finite(path, block[row][0], block[row][2], matrix[row])
    matrix.setflags(write=False)
    return matrix, width


def _parse_rows(path, block, dim):
    """Parse a block row by row with float(): float32 (rows, dim) values
    and dim, or a ParseError naming the block's first bad line."""
    rows = []
    for lineno, _, text in block:
        values = text.split()
        if not values:
            raise ParseError(f"{path}: line {lineno}: expected a token and at least one value")
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ParseError(
                f"{path}: line {lineno}: row width {len(values)} does not match dimension {dim}")
        try:
            row = _float32(np.array([float(v) for v in values]))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if not np.isfinite(row).all():
            raise _not_finite(path, lineno, text, row)
        rows.append(row)
    return np.array(rows), dim


def _float32(values: np.ndarray) -> np.ndarray:
    """float64 values cast to float32, those beyond its range becoming
    infinite without numpy's overflow warning."""
    with np.errstate(over="ignore"):
        return values.astype(np.float32)


def _not_finite(path, lineno, text, row) -> ParseError:
    """The ParseError for a row whose float32 values are not all finite,
    naming its first such value as written."""
    col = int(np.flatnonzero(~np.isfinite(row))[0])
    return ParseError(f"{path}: line {lineno}: value {text.split()[col]!r} is not a finite float32")


def load_qa_dataset(path, has_header: bool = False) -> QADataset:
    """Read questions and labeled candidates from a 4-column TSV.

    Columns: question_id, question_text, candidate_text, label in {0,1}.
    Rows group by question_id in order of first appearance; per-question
    candidate order follows the file.  Question text and wh-type come from
    the group's first row.
    """
    order: list[str] = []
    texts: dict[str, tuple[str, ...]] = {}
    cands: dict[str, list[Candidate]] = {}
    for lineno, line in read_lines(path):
        if has_header and lineno == 1:
            continue
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 tab-separated columns, got {len(cols)}")
        qid, qtext, ctext, label_str = cols
        if label_str not in ("0", "1"):
            raise ParseError(f"{path}: line {lineno}: label must be 0 or 1, got {label_str!r}")
        if qid not in texts:
            order.append(qid)
            texts[qid] = tokenize(qtext)
            cands[qid] = []
        cands[qid].append(Candidate(text=tokenize(ctext), label=int(label_str)))
    questions = tuple(
        Question(
            question_id=qid,
            text=texts[qid],
            wh_type=classify_question(texts[qid]),
            candidates=tuple(cands[qid]),
        )
        for qid in order
    )
    return QADataset(questions=questions)


def qa_dataset_to_tsv(dataset: QADataset) -> str:
    """Serialize a dataset back to the 4-column TSV format.

    Texts are written token-joined, so load(serialize(ds)) gives the same
    tokens even though the original raw strings are gone.
    """
    lines = []
    for q in dataset.questions:
        qtext = " ".join(q.text)
        for cand in q.candidates:
            lines.append(f"{q.question_id}\t{qtext}\t{' '.join(cand.text)}\t{cand.label}")
    return "".join(line + "\n" for line in lines)


def embeddings_to_vec_text(table: EmbeddingTable, header: bool = True) -> str:
    """Serialize a table in word2vec text format (optional `count dim` header)."""
    lines = []
    if header:
        lines.append(f"{len(table.entries)} {table.dim}")
    for token, vec in table.entries.items():
        lines.append(token + " " + " ".join(repr(float(x)) for x in vec))
    return "".join(line + "\n" for line in lines)
