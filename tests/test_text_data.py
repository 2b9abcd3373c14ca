"""Tokenizer, embedding table, and QA dataset loader behavior."""

import hashlib
import re
import threading
import warnings

import numpy as np
import pytest

from analogia.text_data import (
    _BLOCK_ROWS,
    OTHER,
    WH_TYPES,
    Candidate,
    EmbeddingTable,
    ParseError,
    QADataset,
    Question,
    classify_question,
    embeddings_to_vec_text,
    load_embeddings,
    load_qa_dataset,
    qa_dataset_to_tsv,
    tokenize,
)


class TestTokenize:
    def test_basic_question(self):
        assert tokenize("Who discovered prions?") == ("who", "discovered", "prions")

    def test_empty_string(self):
        assert tokenize("") == ()

    def test_punctuation_stripped_from_edges(self):
        assert tokenize("On February 12, 1809,") == ("on", "february", "12", "1809")

    def test_internal_punctuation_kept(self):
        assert tokenize("don't stop") == ("don't", "stop")

    def test_pure_punctuation_token_dropped(self):
        assert tokenize("wait ... what ?!") == ("wait", "what")

    def test_unicode_whitespace_split(self):
        assert tokenize("a b c\td") == ("a", "b", "c", "d")

    def test_non_ascii_punctuation_survives(self):
        # only ASCII punctuation is stripped
        assert tokenize("¿como?") == ("¿como",)

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(7)
        words = ["Who?", "it's", "12,", "(a)", "B--", "c", "...", "£5", "end."]
        for _ in range(50):
            raw = " ".join(rng.choice(words, size=6))
            once = tokenize(raw)
            assert tokenize(" ".join(once)) == once


class TestClassifyQuestion:
    def test_three_wh_types(self):
        assert classify_question(("who", "is", "x")) == "Who"
        assert classify_question(("when", "did", "x")) == "When"
        assert classify_question(("where", "was", "abraham", "lincoln", "born")) == "Where"

    def test_other(self):
        assert classify_question(("what", "is", "x")) == OTHER
        assert classify_question(("how", "many")) == OTHER

    def test_empty_is_other(self):
        assert classify_question(()) == OTHER

    def test_wh_word_not_first_is_other(self):
        assert classify_question(("tell", "me", "who")) == OTHER

    def test_partition_is_total_and_disjoint(self):
        """Every token sequence lands in exactly one of the four tags."""
        rng = np.random.default_rng(3)
        vocab = ["who", "when", "where", "what", "why", "the", "x"]
        tags = set(WH_TYPES) | {OTHER}
        for _ in range(200):
            toks = tuple(rng.choice(vocab, size=rng.integers(0, 4)))
            assert classify_question(toks) in tags


class TestEmbeddingLoading:
    def test_headerless_direct_readback(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        table = load_embeddings(p)
        assert table.dim == 2
        np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])
        np.testing.assert_array_equal(table.lookup("b"), [0.0, 1.0])

    def test_header_establishes_dim(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("2 3\na 1 2 3\nb 4 5 6\n")
        assert load_embeddings(p).dim == 3

    def test_inconsistent_width_reports_line(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("a 1.0 2.0\nb 3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(p)

    def test_width_against_header(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("1 3\na 1.0 2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(p)

    def test_duplicate_token_first_wins(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("a 1.0\na 2.0\n")
        np.testing.assert_array_equal(load_embeddings(p).lookup("a"), [1.0])

    def test_non_numeric_value_reports_line(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("a 1.0\nb oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("")
        with pytest.raises(ParseError):
            load_embeddings(p)

    def test_stored_vectors_read_only(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("a 1.0 2.0\n")
        vec = load_embeddings(p).lookup("a")
        with pytest.raises(ValueError):
            vec[0] = 9.0


def _float_oracle(text: str) -> dict[str, np.ndarray]:
    """Row-by-row float() parse of .vec text, as the loader did before it
    parsed in blocks: first occurrence wins, a `count dim` line 1 is skipped."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or (lineno == 1 and len(fields) == 2 and all(f.isdigit() for f in fields)):
            continue
        out.setdefault(fields[0], np.array([float(v) for v in fields[1:]], dtype=np.float32))
    return out


def _assert_bits_equal(table, want):
    assert list(table.entries) == list(want)
    for token, vec in want.items():
        got = table.entries[token]
        assert got.dtype == np.float32 and got.shape == vec.shape
        np.testing.assert_array_equal(got.view(np.uint32), vec.view(np.uint32), err_msg=token)


class TestBlockParsing:
    """load_embeddings parses _BLOCK_ROWS rows per np.loadtxt call and falls
    back to float() row by row; either way the result and the errors are
    those of a row-by-row float() parse."""

    def _write(self, tmp_path, text, name="v.vec"):
        p = tmp_path / name
        p.write_bytes(text.encode("utf-8"))
        return p

    def _rows(self, n, dim=3):
        return [f"w{i} " + " ".join(f"{i + k / 8}" for k in range(dim)) for i in range(n)]

    def test_many_blocks_match_float_oracle(self, tmp_path):
        rng = np.random.default_rng(11)
        n, dim = 2 * _BLOCK_ROWS + 37, 7
        values = rng.normal(scale=3.0, size=(n, dim))
        formats = (repr, "{:.9e}".format, "{:.7g}".format, "{:.5f}".format)
        lines = [f"{n} {dim}"]
        for i, row in enumerate(values):
            # every fifth row repeats an earlier token, across block edges too
            token = f"w{i // 5 * 3}" if i % 5 == 4 else f"w{i}"
            lines.append(token + " " + " ".join(formats[(i + k) % 4](float(v)) for k, v in enumerate(row)))
            if i % 300 == 7:
                lines.append(" \t" if i % 600 == 7 else "")
        text = "\n".join(lines) + "\n"
        table = load_embeddings(self._write(tmp_path, text))
        assert table.dim == dim
        _assert_bits_equal(table, _float_oracle(text))

    def test_hard_value_strings_match_float_oracle(self, tmp_path):
        hard = ["0.1", repr(0.1 + 0.2), repr(1 / 3), "1.0000000596046448", "3.4028235e+38",
                "5e-324", "1e-45", "7e-46", "1.1754943e-38", "-0.0", "-3.4028235e+38",
                "3.40282356e+38", "1e-50", "1.", ".5", "-2E-3"]
        rows = [hard[i:i + 4] for i in range(0, len(hard), 4)]
        seps = [" ", "\t", "   ", " \t "]
        text = "".join(f"t{i}{seps[i % 4]}" + seps[(i + 1) % 4].join(row) + "  \r\n"
                       for i, row in enumerate(rows))
        _assert_bits_equal(load_embeddings(self._write(tmp_path, text)), _float_oracle(text))

    NON_FINITE = ["nan", "-NaN", "inf", "-Infinity", "+inf", "1e400", "-1e400", "1e39", "-3.5e38",
                  "3.4028236e+38"]

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("path", ["loadtxt", "float"])
    def test_non_finite_value_named(self, tmp_path, value, path):
        """On both parse paths (a 1_0 later in the block sends it row by
        row), without numpy's overflow warning."""
        rows = self._rows(2 * _BLOCK_ROWS)
        rows[_BLOCK_ROWS + 1] = f"w 1 {value} 2"
        if path == "float":
            rows[_BLOCK_ROWS + 5] = "w 1_0 1 2"
        p = self._write(tmp_path, "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=f"line {_BLOCK_ROWS + 2}: value '{re.escape(value)}' is not a finite float32"):
                load_embeddings(p)

    @pytest.mark.parametrize("first, second", [(3, 9), (9, 3)])
    def test_non_finite_and_bad_float_reported_in_file_order(self, tmp_path, first, second):
        rows = self._rows(20)
        rows[first - 1] = "w 1 1e39 2"
        rows[second - 1] = "w 1 oops 2"
        p = self._write(tmp_path, "\n".join(rows) + "\n")
        want = "not a finite float32" if first < second else "could not convert"
        with pytest.raises(ParseError, match=f"line {min(first, second)}: .*{want}"):
            load_embeddings(p)

    @pytest.mark.parametrize("bad, message", [
        ("w x 1 2", "could not convert string to float: 'x'"),
        ("w 1 2", "row width 2 does not match dimension 3"),
        ("w", "expected a token and at least one value"),
    ], ids=["bad-float", "wrong-width", "token-only"])
    def test_bad_line_in_second_block_named(self, tmp_path, bad, message):
        rows = self._rows(2 * _BLOCK_ROWS)
        rows[_BLOCK_ROWS + 1] = bad
        p = self._write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=f"line {_BLOCK_ROWS + 2}: {message}"):
            load_embeddings(p)

    @pytest.mark.parametrize("first, second", [(3, 9), (9, 3)])
    def test_earlier_of_two_bad_rows_reported(self, tmp_path, first, second):
        rows = self._rows(20)
        rows[first - 1] = "w 1 2"
        rows[second - 1] = "w 1 oops 2"
        p = self._write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=f"line {min(first, second)}:"):
            load_embeddings(p)

    @pytest.mark.parametrize("bad_float_first", [True, False])
    def test_bad_row_and_undecodable_line_reported_in_file_order(self, tmp_path, bad_float_first):
        rows = [line.encode("utf-8") for line in self._rows(10)]
        rows[2 if bad_float_first else 6] = b"w 1 oops 2"
        rows[6 if bad_float_first else 2] = b"w \xff 1 2"
        p = tmp_path / "v.vec"
        p.write_bytes(b"\n".join(rows) + b"\n")
        want = "line 3: could not convert" if bad_float_first else "line 3: not UTF-8"
        with pytest.raises(ParseError, match=want):
            load_embeddings(p)

    def test_float_only_syntax_still_accepted(self, tmp_path):
        """Underscores and non-ASCII digits, which float() takes and
        np.loadtxt does not."""
        table = load_embeddings(self._write(tmp_path, "a 1_0 2\nb \u0661 0.5\n"))
        np.testing.assert_array_equal(table.lookup("a"), [10.0, 2.0])
        np.testing.assert_array_equal(table.lookup("b"), [1.0, 0.5])

    def test_no_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_embeddings(self._write(tmp_path, "\n".join(self._rows(_BLOCK_ROWS + 5)) + "\n"))
            assert len(table.entries) == _BLOCK_ROWS + 5
            with pytest.raises(ParseError, match="line 1: expected a token"):
                load_embeddings(self._write(tmp_path, "a\nb\nc\n", name="tokens.vec"))

    def test_header_only_file_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="no embedding rows found"):
            load_embeddings(self._write(tmp_path, "0 3\n"))

    def test_rows_are_read_only_float32(self, tmp_path):
        table = load_embeddings(self._write(tmp_path, "\n".join(self._rows(_BLOCK_ROWS + 1)) + "\n"))
        for vec in table.entries.values():
            assert vec.dtype == np.float32 and vec.shape == (3,) and not vec.flags.writeable


class TestOovLookup:
    def _table(self, seed=0):
        return EmbeddingTable(dim=4, entries={"known": np.ones(4, dtype=np.float32)}, oov_seed=seed)

    def test_known_token_exact(self):
        np.testing.assert_array_equal(self._table().lookup("known"), np.ones(4))

    def test_repeated_lookup_identical(self):
        t = self._table()
        np.testing.assert_array_equal(t.lookup("zzz"), t.lookup("zzz"))

    def test_fresh_table_same_seed_identical(self):
        a, b = self._table(seed=5), self._table(seed=5)
        np.testing.assert_array_equal(a.lookup("zzz"), b.lookup("zzz"))

    def test_different_seed_differs(self):
        a, b = self._table(seed=1), self._table(seed=2)
        assert not np.array_equal(a.lookup("zzz"), b.lookup("zzz"))

    def test_bounds_over_many_tokens(self):
        """Unknown-token vectors stay within [-0.1, 0.1] and have the
        table's dimension."""
        t = self._table()
        for i in range(1000):
            v = t.lookup(f"oov-{i}")
            assert v.shape == (4,)
            assert np.all(v >= -0.1) and np.all(v <= 0.1)

    def test_distinct_tokens_get_distinct_vectors(self):
        t = self._table()
        seen = {tuple(np.round(t.lookup(f"tok{i}"), 6)) for i in range(100)}
        assert len(seen) == 100

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 40])
    def test_vectors_equal_the_blake2b_draw(self, seed):
        """The memoised vector is bit for bit the uniform draw from the
        generator seeded by blake2b(oov_seed, 0x00, token)."""
        t = self._table(seed)
        for token in ("zzz", "unseen", "naïve", ""):
            h = hashlib.blake2b(digest_size=8)
            h.update(str(seed).encode("utf-8") + b"\x00" + token.encode("utf-8"))
            rng = np.random.default_rng(int.from_bytes(h.digest(), "little"))
            want = rng.uniform(-0.1, 0.1, size=4).astype(np.float32)
            got = t.lookup(token)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    def test_second_lookup_returns_the_same_array(self):
        t = self._table()
        assert t.lookup("zzz") is t.lookup("zzz")
        assert t.lookup("zzz") is not self._table().lookup("zzz")

    def test_oov_vector_is_read_only(self):
        vec = self._table().lookup("zzz")
        with pytest.raises(ValueError):
            vec[0] = 9.0

    def test_concurrent_misses_share_one_array(self, monkeypatch):
        """Two threads that both miss the memo for a token get the same
        array: each draw waits until the other thread has missed too."""
        table = self._table()
        tokens = [f"race-{i}" for i in range(50)]
        want = {token: self._table().lookup(token) for token in tokens}
        both_missed = threading.Barrier(2, timeout=10)
        draw = EmbeddingTable._oov_vector

        def draw_once_both_missed(self, token):
            both_missed.wait()
            return draw(self, token)

        monkeypatch.setattr(EmbeddingTable, "_oov_vector", draw_once_both_missed)
        got = ([], [])
        threads = [threading.Thread(target=lambda out: out.extend(table.lookup(t) for t in tokens), args=(out,))
                   for out in got]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got[0]) == len(got[1]) == len(tokens)
        for token, a, b in zip(tokens, *got):
            assert a is b is table.lookup(token)
            np.testing.assert_array_equal(a, want[token])


class TestQaDatasetLoading:
    def _write(self, tmp_path, rows):
        p = tmp_path / "qa.tsv"
        p.write_text("".join(f"{r}\n" for r in rows))
        return p

    def test_single_question_three_candidates(self, tmp_path):
        p = self._write(tmp_path, [
            "q1\tWho wrote Hamlet?\tShakespeare wrote it.\t1",
            "q1\tWho wrote Hamlet?\tIt is a play.\t0",
            "q1\tWho wrote Hamlet?\tMarlowe perhaps.\t0",
        ])
        ds = load_qa_dataset(p)
        assert len(ds) == 1
        q = ds.questions[0]
        assert q.question_id == "q1"
        assert q.wh_type == "Who"
        assert len(q.candidates) == 3
        assert [c.label for c in q.candidates] == [1, 0, 0]

    def test_interleaved_ids_group_in_row_order(self, tmp_path):
        p = self._write(tmp_path, [
            "a\tWhen was X?\tfirst a\t0",
            "b\tWhere is Y?\tfirst b\t1",
            "a\tWhen was X?\tsecond a\t1",
        ])
        ds = load_qa_dataset(p)
        assert [q.question_id for q in ds.questions] == ["a", "b"]
        assert [c.text for c in ds.questions[0].candidates] == [("first", "a"), ("second", "a")]

    def test_candidate_total_matches_row_count(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(40):
            qid = f"q{rng.integers(0, 8)}"
            rows.append(f"{qid}\tWho is {i}?\tcandidate {i}\t{int(rng.integers(0, 2))}")
        ds = load_qa_dataset(self._write(tmp_path, rows))
        assert sum(len(q.candidates) for q in ds.questions) == 40

    def test_wh_typing_applied(self, tmp_path):
        p = self._write(tmp_path, [
            "q1\tWho discovered prions?\tStanley Prusiner.\t1",
            "q2\tWho invented baseball?\tAbner Doubleday.\t1",
            "q3\tWhat is rust?\tAn oxide.\t1",
        ])
        ds = load_qa_dataset(p)
        assert [q.wh_type for q in ds.questions] == ["Who", "Who", OTHER]

    def test_bad_column_count_reports_line(self, tmp_path):
        p = self._write(tmp_path, ["q1\tWho?\tanswer\t1", "q1\tWho?\tanswer"])
        with pytest.raises(ParseError, match="line 2"):
            load_qa_dataset(p)

    def test_non_binary_label_reports_line(self, tmp_path):
        p = self._write(tmp_path, ["q1\tWho?\tanswer\t2"])
        with pytest.raises(ParseError, match="line 1"):
            load_qa_dataset(p)

    def test_header_skipped_when_flagged(self, tmp_path):
        p = self._write(tmp_path, [
            "question_id\tquestion\tcandidate\tlabel",
            "q1\tWho?\tanswer\t1",
        ])
        ds = load_qa_dataset(p, has_header=True)
        assert len(ds) == 1
        with pytest.raises(ParseError):
            load_qa_dataset(p, has_header=False)

    def test_empty_file_is_empty_dataset(self, tmp_path):
        assert len(load_qa_dataset(self._write(tmp_path, []))) == 0

    def test_by_type_filter(self, tmp_path):
        p = self._write(tmp_path, [
            "q1\tWho?\ta\t1",
            "q2\tWhere?\tb\t1",
            "q3\tWho else?\tc\t0",
        ])
        ds = load_qa_dataset(p)
        assert [q.question_id for q in ds.by_type("Who")] == ["q1", "q3"]


class TestSerializers:
    def test_qa_tsv_roundtrip(self, tmp_path):
        rows = [
            ("q1", "Who discovered prions?", "Stanley Prusiner did.", 1),
            ("q1", "Who discovered prions?", "A kind of protein.", 0),
            ("q2", "When was it found?", "In 1982 formally.", 1),
        ]
        src = tmp_path / "src.tsv"
        src.write_text("".join(f"{a}\t{b}\t{c}\t{d}\n" for a, b, c, d in rows))
        ds = load_qa_dataset(src)
        out = tmp_path / "out.tsv"
        out.write_text(qa_dataset_to_tsv(ds))
        assert load_qa_dataset(out) == ds

    def test_qa_tsv_uses_tokenized_text(self):
        text = qa_dataset_to_tsv(QADataset(questions=(
            Question(question_id="q1", text=("who", "did", "it"), wh_type="Who",
                     candidates=(Candidate(text=("a", "person"), label=1),)),
        )))
        assert text == "q1\twho did it\ta person\t1\n"

    def test_vec_roundtrip_with_header(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = {w: rng.normal(size=4).astype(np.float32) for w in ("alpha", "beta", "gamma")}
        table = EmbeddingTable(dim=4, entries=entries)
        path = tmp_path / "t.vec"
        path.write_text(embeddings_to_vec_text(table))
        loaded = load_embeddings(path)
        assert loaded.dim == 4 and set(loaded.entries) == set(entries)
        for w, v in entries.items():
            np.testing.assert_array_equal(loaded.entries[w], v)

    def test_vec_headerless(self, tmp_path):
        table = EmbeddingTable(dim=2, entries={"only": np.array([0.5, -0.25], dtype=np.float32)})
        path = tmp_path / "t.vec"
        path.write_text(embeddings_to_vec_text(table, header=False))
        assert path.read_text() == "only 0.5 -0.25\n"
        loaded = load_embeddings(path)
        np.testing.assert_array_equal(loaded.entries["only"], table.entries["only"])
