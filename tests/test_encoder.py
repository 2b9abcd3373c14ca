"""Encoder correctness: cell vs a scalar oracle, pooling, batching, and
gradient checks through the whole recurrence.
"""

import math
import threading
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from analogia import encoder, training
from analogia import numerics as nx
from analogia.encoder import (
    GATE_NAMES,
    INFERENCE_CHUNK,
    EncoderParams,
    bigru_forward,
    derive_seed,
    encode,
    encode_batch,
    encode_many,
    pack_batch,
    sentence_encoder,
)
from analogia.numerics import ShapeError
from analogia.text_data import EmbeddingTable

F32_TOL = 1e-4
F64_TOL = 1e-7


def _table(dim=3, seed=0, words=("alpha", "beta", "gamma", "delta")):
    rng = np.random.default_rng(seed)
    entries = {w: rng.normal(size=dim).astype(np.float32) for w in words}
    return EmbeddingTable(dim=dim, entries=entries, oov_seed=seed)


class GruWeights(NamedTuple):
    """One direction's nine tensors for the op-by-op oracle; W_* are
    (h, d_in), U_* are (h, h), biases length h."""

    W_z: nx.Tensor
    U_z: nx.Tensor
    b_z: nx.Tensor
    W_r: nx.Tensor
    U_r: nx.Tensor
    b_r: nx.Tensor
    W_h: nx.Tensor
    U_h: nx.Tensor
    b_h: nx.Tensor


def _direction(params, direction):
    """A direction's tensors as oracle weights, copied out of the buffer."""
    named = dict(params.named())
    return GruWeights(*[nx.tensor(named[f"{direction}.{gate}"]) for gate in GATE_NAMES])


def gru_cell(x_t, h_prev, w: GruWeights):
    """One recurrence step on the tape, op by op: update gate z, reset gate
    r, candidate state, convex blend with the previous state.  The oracle
    the encoder's fused kernel is checked against."""
    z = nx.sigmoid(nx.add(nx.add(nx.matmul(w.W_z, x_t), nx.matmul(w.U_z, h_prev)), w.b_z))
    r = nx.sigmoid(nx.add(nx.add(nx.matmul(w.W_r, x_t), nx.matmul(w.U_r, h_prev)), w.b_r))
    h_cand = nx.tanh(nx.add(nx.add(nx.matmul(w.W_h, x_t), nx.matmul(w.U_h, nx.hadamard(r, h_prev))), w.b_h))
    return nx.blend(z, h_prev, h_cand)


def _scalar_cell_oracle(x, h_prev, w):
    """Pure-loop transcription of the four update formulas in float64."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    H = len(w.b_z.values)
    x = [float(v) for v in x]
    h_prev = [float(v) for v in h_prev]

    def affine(W, U, b, hvec):
        out = []
        for i in range(H):
            s = float(b.values[i])
            for k in range(len(x)):
                s += float(W.values[i][k]) * x[k]
            for k in range(H):
                s += float(U.values[i][k]) * hvec[k]
            out.append(s)
        return out

    z = [sig(v) for v in affine(w.W_z, w.U_z, w.b_z, h_prev)]
    r = [sig(v) for v in affine(w.W_r, w.U_r, w.b_r, h_prev)]
    rh = [r[i] * h_prev[i] for i in range(H)]
    hc = [math.tanh(v) for v in affine(w.W_h, w.U_h, w.b_h, rh)]
    return np.array([(1 - z[i]) * h_prev[i] + z[i] * hc[i] for i in range(H)])


class TestGruCell:
    def test_all_zero_weights_keep_zero_state(self):
        params = EncoderParams.initialize(input_dim=2, hidden=3, seed=0, dtype=np.float64)
        zero = _direction(params, "forward")
        w = GruWeights(*[nx.zeros(t.shape, dtype=np.float64) for t in zero])
        out = gru_cell(nx.tensor(np.ones(2), dtype=np.float64),
                       nx.tensor(np.zeros(3), dtype=np.float64), w)
        np.testing.assert_array_equal(out.values, np.zeros(3))

    def test_saturated_update_gate_follows_candidate(self):
        """Huge b_z forces z to 1, so h_t becomes the candidate state; with
        zero W_h/U_h/b_h the candidate is 0."""
        shapes = [(1, 1), (1, 1), (1,)] * 3
        tensors = [nx.zeros(s, dtype=np.float64) for s in shapes]
        w = GruWeights(*tensors)
        w = GruWeights(w.W_z, w.U_z, nx.tensor([50.0], dtype=np.float64),
                       w.W_r, w.U_r, w.b_r, w.W_h, w.U_h, w.b_h)
        out = gru_cell(nx.tensor([3.0], dtype=np.float64), nx.tensor([0.9], dtype=np.float64), w)
        assert abs(out.values[0]) < 1e-15

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            params = EncoderParams.initialize(input_dim=2, hidden=2,
                                              seed=int(rng.integers(1 << 30)), dtype=np.float64)
            x = rng.normal(size=2)
            h_prev = rng.normal(size=2)
            forward = _direction(params, "forward")
            got = gru_cell(nx.tensor(x, dtype=np.float64),
                           nx.tensor(h_prev, dtype=np.float64), forward)
            want = _scalar_cell_oracle(x, h_prev, forward)
            np.testing.assert_allclose(got.values, want, rtol=1e-12)

    def test_gate_interval_keeps_state_bounded(self):
        """From a zero initial state every later state stays in (-1, 1):
        each step is a convex blend of the previous state and a tanh."""
        rng = np.random.default_rng(8)
        params = EncoderParams.initialize(input_dim=3, hidden=4, seed=5, dtype=np.float64)
        state = nx.tensor(np.zeros(4), dtype=np.float64)
        forward = _direction(params, "forward")
        for _ in range(30):
            x = nx.tensor(rng.normal(size=3) * 3, dtype=np.float64)
            state = gru_cell(x, state, forward)
            assert np.all(np.abs(state.values) < 1.0)

    def test_dim_mismatch_raises(self):
        params = EncoderParams.initialize(input_dim=2, hidden=3, seed=0)
        with pytest.raises(ShapeError):
            gru_cell(nx.tensor(np.zeros(5)), nx.tensor(np.zeros(3)), _direction(params, "forward"))


class TestEncoderParams:
    def test_initialize_bounds_and_zero_biases(self):
        params = EncoderParams.initialize(input_dim=7, hidden=9, seed=3)
        k = 1.0 / np.sqrt(9)
        for name, t in params.named():
            if name.endswith(("b_z", "b_r", "b_h")):
                np.testing.assert_array_equal(t, np.zeros(9))
            else:
                assert np.all(np.abs(t) <= k)
                assert np.std(t) > 0

    def test_initialize_deterministic(self):
        a = EncoderParams.initialize(4, 3, seed=11)
        b = EncoderParams.initialize(4, 3, seed=11)
        for (_, ta), (_, tb) in zip(a.named(), b.named()):
            np.testing.assert_array_equal(ta, tb)

    def test_different_seeds_differ(self):
        a = EncoderParams.initialize(4, 3, seed=1)
        b = EncoderParams.initialize(4, 3, seed=2)
        assert not np.array_equal(a.arrays[0], b.arrays[0])

    def test_output_dim_is_twice_hidden(self):
        assert EncoderParams.initialize(5, 4, seed=0).output_dim == 8

    def test_named_order_fixed(self):
        names = [n for n, _ in EncoderParams.initialize(2, 2, seed=0).named()]
        assert names[0] == "forward.W_z"
        assert names[9] == "backward.W_z"
        assert len(names) == 18

    def test_named_tensors_are_views_of_the_flat_buffer(self):
        """named() order is the buffer order: the views tile it end to end
        without copies, and split gives the same tensors with a leading
        axis kept."""
        params = EncoderParams.initialize(3, 2, seed=0)
        flat = params.flat.values
        assert all(np.shares_memory(t, flat) for _, t in params.named())
        np.testing.assert_array_equal(np.concatenate([t.ravel() for _, t in params.named()]), flat)
        for view, (_, t) in zip(params.layout.split(np.stack([flat, flat])), params.named()):
            assert view.shape == (2,) + t.shape
            np.testing.assert_array_equal(view[1], t)

    def test_shape_validation(self):
        params = EncoderParams.initialize(3, 2, seed=0)
        with pytest.raises(ShapeError):
            EncoderParams(nx.tensor(params.flat.values[:-1]), params.hidden, params.input_dim)
        with pytest.raises(ShapeError):
            EncoderParams(nx.tensor(params.flat.values.reshape(2, -1)), params.hidden, params.input_dim)


class TestEncode:
    def test_single_token_equals_concatenated_states(self):
        """With T=1 the pooled vector is just [forward state, backward
        state] for that token."""
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=2, dtype=np.float64)
        x = nx.tensor(table.lookup("alpha"), dtype=np.float64)
        h0 = nx.tensor(np.zeros(3), dtype=np.float64)
        want = np.concatenate([
            gru_cell(x, h0, _direction(params, "forward")).values,
            gru_cell(x, h0, _direction(params, "backward")).values,
        ])
        got = encode(("alpha",), table, params)
        np.testing.assert_allclose(got.values, want, rtol=1e-12)

    def test_matches_cell_composition_oracle(self):
        """Recompute a 3-token encoding from gru_cell plus an explicit
        elementwise max, independently of the pooling op."""
        table = _table()
        params = EncoderParams.initialize(table.dim, 2, seed=9, dtype=np.float64)
        tokens = ("alpha", "gamma", "beta")
        xs = [nx.tensor(table.lookup(t), dtype=np.float64) for t in tokens]
        h0 = nx.tensor(np.zeros(2), dtype=np.float64)
        fwd, state = [], h0
        for x in xs:
            state = gru_cell(x, state, _direction(params, "forward"))
            fwd.append(state.values)
        bwd, state = [None] * 3, h0
        for t in (2, 1, 0):
            state = gru_cell(xs[t], state, _direction(params, "backward"))
            bwd[t] = state.values
        rows = np.stack([np.concatenate([f, b]) for f, b in zip(fwd, bwd)])
        want = rows.max(axis=0)
        got = encode(tokens, table, params)
        np.testing.assert_allclose(got.values, want, rtol=1e-12)

    def test_output_length_for_any_input_length(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 4, seed=1)
        for T in (1, 2, 5, 9):
            out = encode(tuple(["alpha", "beta", "gamma"][i % 3] for i in range(T)), table, params)
            assert out.shape == (8,)
            assert np.isfinite(out.values).all()

    def test_token_order_matters(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 4, seed=4)
        a = encode(("alpha", "beta", "gamma"), table, params)
        b = encode(("gamma", "beta", "alpha"), table, params)
        assert not np.array_equal(a.values, b.values)

    def test_oov_tokens_encode_deterministically(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 2, seed=0)
        a = encode(("zzz", "unseen"), table, params)
        b = encode(("zzz", "unseen"), table, params)
        np.testing.assert_array_equal(a.values, b.values)

    def test_empty_sentence_rejected(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 2, seed=0)
        with pytest.raises(ValueError):
            encode((), table, params)

    def test_inference_deterministic(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=6)
        a = encode(("alpha", "beta"), table, params)
        b = encode(("alpha", "beta"), table, params)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_is_the_untaped_encode_many_row(self, dtype):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=7, dtype=dtype)
        sentence = ("gamma", "alpha", "zzz", "beta")
        with nx.GradTape() as tape:
            tape.watch(params.flat)
            got = encode(sentence, table, params)
        assert tape._nodes == []
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.values, encode_many([sentence], table, params)[0])


class TestDeriveSeed:
    def test_derive_seed_stable_and_sensitive(self):
        assert derive_seed(5, "epoch", 1) == derive_seed(5, "epoch", 1)
        assert derive_seed(5, "epoch", 1) != derive_seed(5, "epoch", 2)
        assert derive_seed(5, "epoch", 1) != derive_seed(6, "epoch", 1)


class TestEncodeBatch:
    def _setup(self, dtype=np.float64, hidden=3, seed=12):
        table = _table()
        params = EncoderParams.initialize(table.dim, hidden, seed=seed, dtype=dtype)
        sentences = [
            ("alpha",),
            ("beta", "gamma", "alpha", "delta"),
            ("gamma", "gamma"),
            ("delta", "alpha", "beta"),
        ]
        return table, params, sentences

    def test_rows_match_per_sentence_encoding_f64(self):
        table, params, sentences = self._setup(np.float64)
        batch = encode_batch(sentences, table, params)
        for i, sent in enumerate(sentences):
            np.testing.assert_allclose(batch.values[i], encode(sent, table, params).values,
                                       rtol=1e-12, atol=1e-14)

    def test_rows_match_per_sentence_encoding_f32(self):
        table, params, sentences = self._setup(np.float32)
        batch = encode_batch(sentences, table, params)
        for i, sent in enumerate(sentences):
            np.testing.assert_allclose(batch.values[i], encode(sent, table, params).values,
                                       rtol=1e-5, atol=1e-6)

    def test_batch_composition_invariance(self):
        """A sentence's row must not depend on which other sentences share
        the batch (padding must be inert)."""
        table, params, sentences = self._setup(np.float64)
        full = encode_batch(sentences, table, params)
        solo = encode_batch([sentences[1]], table, params)
        np.testing.assert_allclose(full.values[1], solo.values[0], rtol=1e-12, atol=1e-14)

    def test_values_finite_and_bounded(self):
        table, params, sentences = self._setup(np.float64)
        out = encode_batch(sentences, table, params).values
        assert np.isfinite(out).all()
        assert np.all(np.abs(out) < 1.0)  # states are blends of tanh values

    def test_empty_batch_and_empty_sentence_rejected(self):
        table, params, _ = self._setup()
        with pytest.raises(ValueError):
            encode_batch([], table, params)
        with pytest.raises(ValueError, match="row 1"):
            encode_batch([("alpha",), ()], table, params)

    def _dropped(self, seed):
        """The batch's rows times the first role's dropout mask for seed."""
        table, params, sentences = self._setup(np.float64)
        out = encode_batch(sentences, table, params)
        masks = training._dropout_masks(training.TrainConfig(dropout=0.5, seed=seed), 1, 0, out.shape, out.dtype)
        return out.values * masks[0]

    def test_dropout_rows_use_distinct_masks(self):
        """Training's dropout on an encoded batch masks each row on its own."""
        zero_patterns = {tuple(row == 0) for row in self._dropped(2)}
        assert len(zero_patterns) > 1

    def test_dropout_deterministic(self):
        np.testing.assert_array_equal(self._dropped(9), self._dropped(9))


def _sentences(count, seed=3, words=("alpha", "beta", "gamma", "delta", "oov")):
    """Sentences of 1-8 tokens over _table()'s words and one OOV token."""
    rng = np.random.default_rng(seed)
    return [tuple(words[int(i)] for i in rng.integers(len(words), size=int(rng.integers(1, 9))))
            for _ in range(count)]


class TestEncodeMany:
    """Untaped float64 inference batches: one-row batches are encode bit
    for bit, and a row does not depend on the batch it is in."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_equals_encode_exactly(self, dtype):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=8, dtype=dtype)
        for sent in _sentences(12):
            row = encode_many([sent], table, params)
            assert row.dtype == np.float64 and row.shape == (1, params.output_dim)
            np.testing.assert_array_equal(row[0], encode(sent, table, params).values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_agree_across_batch_compositions(self, dtype):
        """Reversed order, a shifted start that moves every chunk boundary,
        and one sentence at a time, over more than two chunks."""
        table = _table()
        params = EncoderParams.initialize(table.dim, 4, seed=2, dtype=dtype)
        sentences = _sentences(2 * INFERENCE_CHUNK + 23)
        rows = encode_many(sentences, table, params)
        assert rows.shape == (len(sentences), params.output_dim)
        np.testing.assert_allclose(encode_many(sentences[::-1], table, params)[::-1], rows, rtol=0, atol=1e-12)
        np.testing.assert_allclose(encode_many(sentences[17:], table, params), rows[17:], rtol=0, atol=1e-12)
        single = np.stack([encode(s, table, params).values for s in sentences])
        np.testing.assert_allclose(single, rows, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("count, sizes", [(70, [35, 35]), (64, [64]), (65, [33, 32]),
                                              (2 * INFERENCE_CHUNK + 1, [43, 43, 43])])
    def test_fewest_chunks_of_even_size(self, monkeypatch, count, sizes):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=5)
        packed = []

        def recording_pack_batch(batch, *args):
            packed.append(len(batch))
            return pack_batch(batch, *args)

        monkeypatch.setattr(encoder, "pack_batch", recording_pack_batch)
        assert encode_many(_sentences(count), table, params).shape == (count, params.output_dim)
        assert packed == sizes

    def test_records_no_tape_node(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=5)
        with nx.GradTape() as tape:
            tape.watch(params.flat)
            encode_many(_sentences(5), table, params)
        assert tape._nodes == []

    def test_empty_input_gives_no_rows(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=5)
        assert encode_many([], table, params).shape == (0, params.output_dim)

    def test_non_finite_rows_rejected(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=5, dtype=np.float64)
        flat = params.flat.values.copy()
        flat[-1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            encode_many(_sentences(3), table, replace(params, flat=nx.tensor(flat, dtype=np.float64)))

    def test_float64_weights_are_upcast_once(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=5)
        assert params.point_arrays64 is params.point_arrays64
        assert all(w.dtype == np.float64 for w in params.point_arrays64)
        for w64, w in zip(params.point_arrays64, params.point_arrays):
            np.testing.assert_array_equal(w64, w)


class TestEncodeManyThreads:
    """Chunks on the thread pool, with the hidden-width crossover moved to
    0: the same rows, in input order, and the same errors as the
    sequential path, with OpenBLAS's thread count restored."""

    COUNT = 2 * INFERENCE_CHUNK + 22
    ROWS = -(-COUNT // 3)  # rows in each of the three even chunks

    @pytest.fixture
    def blas_threads(self):
        """OpenBLAS's thread-count getter, with the count set to 2 (one that
        the one-thread limit changes) for the test and restored after it."""
        control = encoder._openblas_threads()
        if control is None:
            pytest.skip("no OpenBLAS thread control: encode_many stays sequential")
        set_threads, get_threads = control
        before = get_threads()
        set_threads(2)
        yield get_threads
        set_threads(before)

    @pytest.fixture
    def threads_used(self, monkeypatch):
        """Names of the threads that packed a chunk."""
        names = []

        def recording_pack_batch(*args):
            names.append(threading.current_thread().name)
            return pack_batch(*args)

        monkeypatch.setattr(encoder, "pack_batch", recording_pack_batch)
        return names

    def _encode(self, monkeypatch, crossover, sentences, table, params):
        monkeypatch.setattr(encoder, "PARALLEL_MIN_HIDDEN", crossover)
        return encode_many(sentences, table, params)

    def _case(self, count=COUNT):
        table = _table(dim=5)
        params = EncoderParams.initialize(table.dim, 6, seed=4)
        return _sentences(count, seed=9), table, params

    def test_rows_equal_the_sequential_path_in_input_order(self, blas_threads, threads_used, monkeypatch):
        sentences, table, params = self._case()
        rows = self._encode(monkeypatch, 0, sentences, table, params)
        assert blas_threads() == 2
        assert len(threads_used) == 3 and all(n.startswith("analogia-encode") for n in threads_used)
        sequential = self._encode(monkeypatch, math.inf, sentences, table, params)
        assert threads_used[3:] == [threading.current_thread().name] * 3
        assert rows.shape == (len(sentences), params.output_dim)
        np.testing.assert_allclose(rows, sequential, rtol=0, atol=1e-12)
        single = np.stack([encode(s, table, params).values for s in sentences])
        np.testing.assert_allclose(rows, single, rtol=0, atol=1e-12)

    def test_one_chunk_stays_encode_bit_for_bit(self, blas_threads, threads_used, monkeypatch):
        sentences, table, params = self._case(5)
        for sent in sentences:
            row = self._encode(monkeypatch, 0, [sent], table, params)[0]
            np.testing.assert_array_equal(row, encode(sent, table, params).values)
        assert set(threads_used) == {threading.current_thread().name}

    def _errors(self, monkeypatch, sentences, table, params, blas_threads):
        """The exception of the threaded and of the sequential path, with
        the BLAS thread count checked unchanged after each."""
        raised = []
        for crossover in (0, math.inf):
            with pytest.raises(ValueError) as info:
                self._encode(monkeypatch, crossover, sentences, table, params)
            assert blas_threads() == 2
            raised.append(info.value)
        return raised

    def test_empty_sentence_in_a_later_chunk(self, blas_threads, monkeypatch):
        sentences, table, params = self._case()
        sentences[2 * self.ROWS + 3] = ()
        threaded, sequential = self._errors(monkeypatch, sentences, table, params, blas_threads)
        assert type(threaded) is type(sequential)
        assert str(threaded) == str(sequential) == "cannot encode an empty sentence (batch row 3)"

    def test_non_finite_row_in_a_later_chunk(self, blas_threads, monkeypatch):
        sentences, table, params = self._case()
        table = EmbeddingTable(dim=table.dim, entries={**table.entries, "nan": np.full(table.dim, np.nan, np.float32)})
        sentences[INFERENCE_CHUNK + 7] = ("alpha", "nan")
        threaded, sequential = self._errors(monkeypatch, sentences, table, params, blas_threads)
        assert type(threaded) is type(sequential)
        assert str(threaded) == str(sequential) == "non-finite sentence vectors in batch"

    def test_no_pool_thread_outlives_the_call(self, blas_threads, threads_used, monkeypatch):
        """The pool lives for one encode_many call, whether it returns or
        raises."""
        def pool_threads():
            return [t.name for t in threading.enumerate() if t.name.startswith("analogia-encode")]

        sentences, table, params = self._case()
        self._encode(monkeypatch, 0, sentences, table, params)
        assert len(threads_used) == 3 and all(n.startswith("analogia-encode") for n in threads_used)
        assert pool_threads() == []
        sentences[2 * self.ROWS + 3] = ()
        with pytest.raises(ValueError, match="empty sentence"):
            self._encode(monkeypatch, 0, sentences, table, params)
        assert pool_threads() == []

    def test_below_the_crossover_no_thread_starts(self, threads_used, monkeypatch):
        sentences, table, params = self._case()
        running = threading.active_count()
        self._encode(monkeypatch, params.hidden + 1, sentences, table, params)
        assert threading.active_count() == running
        assert threads_used == [threading.current_thread().name] * 3


def _points(*params_list):
    """The 18 arrays of the parameter sets, stacked over a leading point
    axis."""
    return params_list[0].layout.split(np.stack([p.flat.values for p in params_list]))


class TestBigruForward:
    """The plain-numpy kernel: the tape node's rows, the op-by-op oracle's
    states, independent parameter points."""

    SENTENCES = [
        ("alpha",),
        ("beta", "gamma", "alpha", "delta", "beta"),
        ("gamma", "gamma"),
        ("delta", "alpha", "beta"),
        ("beta", "delta", "gamma", "alpha", "alpha"),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooled_matches_encode_batch(self, dtype):
        table = _table(dim=3, seed=4)
        params = EncoderParams.initialize(table.dim, 4, seed=21, dtype=dtype)
        packed = pack_batch(self.SENTENCES, table, dtype)
        states, pooled, _ = bigru_forward(packed, _points(params))
        assert states.shape == (1, 16, 8) and pooled.shape == (1, 5, 8)
        assert pooled.dtype == dtype
        tol = 8 * np.finfo(dtype).eps
        np.testing.assert_allclose(pooled[0], encode_batch(self.SENTENCES, table, params).values,
                                   rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_states_match_per_sentence_cells(self, dtype):
        """At real token positions each direction's state is the one a
        per-sentence scan from a zero state reaches."""
        table = _table(dim=3, seed=4)
        params = EncoderParams.initialize(table.dim, 4, seed=21, dtype=dtype)
        packed = pack_batch(self.SENTENCES, table, dtype)
        states, _, _ = bigru_forward(packed, _points(params))
        tol = 8 * np.finfo(dtype).eps
        for i, sent in enumerate(self.SENTENCES):
            for weights, half, order in ((_direction(params, "forward"), slice(0, 4), range(len(sent))),
                                         (_direction(params, "backward"), slice(4, 8),
                                          range(len(sent) - 1, -1, -1))):
                h = nx.zeros((4,), dtype=dtype)
                for t in order:
                    h = gru_cell(nx.tensor(table.lookup(sent[t]), dtype=dtype), h, weights)
                    np.testing.assert_allclose(states[0, packed.steps(i)[t], half], h.values,
                                               rtol=tol, atol=tol)

    def test_point_axis_is_independent(self):
        """Several parameter sets in one call give each set's own result."""
        table = _table(dim=3, seed=4)
        sets = [EncoderParams.initialize(table.dim, 2, seed=s, dtype=np.float64) for s in (1, 2, 3)]
        packed = pack_batch(self.SENTENCES, table, np.float64)
        _, together, _ = bigru_forward(packed, _points(*sets))
        for k, params in enumerate(sets):
            _, alone, _ = bigru_forward(packed, _points(params))
            np.testing.assert_allclose(together[k], alone[0], rtol=1e-15, atol=1e-15)


def _all_token_scan(packed, w, order):
    """The scan as it was before the kernel projected each distinct token
    once: one X @ [W_z; W_r; W_h] product over all N packed tokens, the
    0.5 of sigmoid-via-tanh applied to the z | r columns afterwards, and
    the time loop on column slices of one (P, N, 3h) array.  Returns the
    gates split into the kernel's z | r and h~ blocks."""
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = w
    h = b_z.shape[-1]
    X = packed.V[packed.ids]
    gates = X @ np.concatenate([W_z, W_r, W_h], axis=-2).swapaxes(-1, -2)
    gates += np.concatenate([b_z, b_r, b_h], axis=-1)[:, None]
    gates[..., :2 * h] *= 0.5
    u_zr = np.multiply(np.concatenate([U_z, U_r], axis=-2).swapaxes(-1, -2), 0.5, order="C")
    u_h = U_h.swapaxes(-1, -2).copy()
    off = packed.offsets
    state = np.zeros((len(gates), packed.sizes[0], h), dtype=gates.dtype)
    states = np.empty(gates.shape[:-1] + (h,), dtype=gates.dtype)
    for t in order:
        lo, hi = off[t], off[t + 1]
        s = state[:, :hi - lo]
        zr = gates[:, lo:hi, :2 * h]
        zr += s @ u_zr
        np.tanh(zr, out=zr)
        zr += 1.0
        zr *= 0.5
        z, r = zr[..., :h], zr[..., h:]
        h_cand = np.tanh(gates[:, lo:hi, 2 * h:] + (r * s) @ u_h, out=gates[:, lo:hi, 2 * h:])
        step = h_cand - s
        step *= z
        np.add(s, step, out=states[:, lo:hi])
        s[...] = states[:, lo:hi]
    return states, (gates[..., :2 * h], gates[..., 2 * h:])


def _min_distinct_tokens(hidden):
    """Distinct tokens a batch needs for the input projection to equal
    _all_token_scan's bit for bit.  OpenBLAS (0.3.31, SkylakeX kernels)
    computes a product of at most 1,200 output entries with a small-matrix
    kernel whose float32 rounding differs from its blocked one, and the
    projection has one row per distinct token and 3 * hidden columns: at
    hidden 64, 7 or more tokens; at hidden 150, 3 or more."""
    return 1200 // (3 * hidden) + 1


class TestDistinctTokenProjection:
    """bigru_forward against _all_token_scan, the formulation it replaced:
    bit for bit in float32, within 1e-15 in float64."""

    INPUT, HIDDEN = 48, 64

    def _batch(self, dtype):
        words = [f"w{i}" for i in range(30)]
        table = _table(dim=self.INPUT, seed=6, words=words)
        sentences = _sentences(12, seed=9, words=(*words, "oov1", "oov2"))
        packed = pack_batch(sentences, table, dtype)
        assert len(packed.V) >= _min_distinct_tokens(self.HIDDEN)
        return packed

    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_all_token_projection(self, dtype, points, monkeypatch):
        packed = self._batch(dtype)
        # every entry drawn, biases too, which initialize sets to zero
        size = encoder.layout(self.HIDDEN, self.INPUT).size
        draws = np.random.default_rng(11).normal(scale=0.2, size=(points, size))
        weights = _points(*[EncoderParams(nx.tensor(d, dtype=dtype), self.HIDDEN, self.INPUT) for d in draws])
        got = bigru_forward(packed, weights)
        monkeypatch.setattr(encoder, "_gru_scan", _all_token_scan)
        want = bigru_forward(packed, weights)
        pairs = [(got[0], want[0]), (got[1], want[1])] + [
            (g, w) for direction in range(2) for g, w in zip(got[2][direction], want[2][direction])]
        for g, w in pairs:
            assert g.shape == w.shape and g.dtype == w.dtype == dtype
            if dtype == np.float32:
                np.testing.assert_array_equal(g.view(np.uint32), w.view(np.uint32))
            else:
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)

    def test_gate_blocks_are_contiguous(self):
        packed = self._batch(np.float64)
        params = EncoderParams.initialize(self.INPUT, self.HIDDEN, seed=11, dtype=np.float64)
        _, _, gates = bigru_forward(packed, params.point_arrays)
        N, h = len(packed.ids), self.HIDDEN
        for zr, h_cand in gates:
            assert zr.shape == (1, N, 2 * h) and h_cand.shape == (1, N, h)
            assert zr.flags.c_contiguous and h_cand.flags.c_contiguous

    def test_default_width_training_gradients_match(self, monkeypatch):
        """At TrainConfig's default width, with more distinct tokens per
        batch than the small-matrix kernel takes, every float32 step
        gradient of a training run equals the all-token projection's."""
        from analogia import synthetic
        from analogia.quadgen import select_prototypes

        corpus = synthetic.build_corpus(train_per_type=4, eval_per_type=1, embedding_dim=self.INPUT, seed=0)
        prototypes = select_prototypes(corpus.train, p=2, seed=0)
        cfg = training.TrainConfig(epochs=1, batch_size=4, seed=3)
        hidden = cfg.dim // 2
        distinct, pack, step = [], encoder.pack_batch, training.adam_step

        def counted_pack(*args):
            packed = pack(*args)
            distinct.append(len(packed.V))
            return packed

        def run():
            grads = []

            def recorded_step(theta, grad, state, cfg):
                grads.append(np.array(grad))
                return step(theta, grad, state, cfg)

            monkeypatch.setattr(training, "adam_step", recorded_step)
            result = training.train(cfg, corpus.train, prototypes, corpus.table)
            assert result.params.hidden == hidden and result.params.dtype == np.float32
            return grads

        monkeypatch.setattr(encoder, "pack_batch", counted_pack)
        got = run()
        assert len(got) >= 3 and min(distinct) >= _min_distinct_tokens(hidden)
        monkeypatch.setattr(encoder, "_gru_scan", _all_token_scan)
        want = run()
        assert len(want) == len(got)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float32
            np.testing.assert_array_equal(g.view(np.uint32), w.view(np.uint32))


def _cell_graph_rows(sentences, table, forward, backward):
    """Each sentence's pooled vector built op by op on the tape from
    gru_cell, concat, stack_rows and maxpool_time: the graph the fused node
    replaces."""
    dtype, h = forward.b_z.dtype, forward.b_z.shape[0]
    rows = []
    for sent in sentences:
        xs = [nx.tensor(table.lookup(tok), dtype=dtype) for tok in sent]
        fwd, state = [], nx.zeros((h,), dtype=dtype)
        for x in xs:
            state = gru_cell(x, state, forward)
            fwd.append(state)
        bwd, state = [None] * len(xs), nx.zeros((h,), dtype=dtype)
        for t in range(len(xs) - 1, -1, -1):
            state = gru_cell(xs[t], state, backward)
            bwd[t] = state
        rows.append(nx.maxpool_time(nx.stack_rows([nx.concat([f, b]) for f, b in zip(fwd, bwd)])))
    return rows


class TestBigruNode:
    """The fused tape node: one node per batch, its backpropagation
    through time against finite differences and the op-by-op graph."""

    SENTENCES = [
        ("beta", "gamma", "alpha", "delta", "beta"),
        ("alpha",),
        ("gamma", "gamma"),
        ("delta", "alpha", "beta"),
    ]

    @staticmethod
    def _weighted_sum(sentences, table, params, seed=0):
        """Scalar sum of the pooled rows times fixed random weights, as a
        function of the flat parameter buffer."""
        weights = np.random.default_rng(seed).normal(size=(len(sentences), params.output_dim))

        def f(flat):
            out = encode_batch(sentences, table, replace(params, flat=flat))
            return nx.sum_all(nx.hadamard(out, nx.tensor(weights, dtype=out.dtype)))

        return f

    def test_one_node_per_batch(self):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=5)
        with nx.GradTape() as tape:
            tape.watch(params.flat)
            encode_batch(self.SENTENCES, table, params)
        assert len(tape._nodes) == 1
        assert tape._nodes[0].inputs == (params.flat,)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, F32_TOL), (np.float64, F64_TOL)])
    def test_all_tensors_pass_finite_differences(self, dtype, tol):
        """All 18 tensors at once, on a padded batch of lengths 5, 1, 2, 3."""
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=13, dtype=dtype)
        f = self._weighted_sum(self.SENTENCES, table, params)
        err = nx.finite_difference_check(f, params.flat, eps=1e-4 if dtype == np.float32 else 1e-5)
        assert err < tol

    @pytest.mark.parametrize("zero_weights", [False, True])
    def test_gradients_equal_op_by_op_graph(self, zero_weights):
        """The hand-written backward pass gives the op-by-op graph's
        gradients.  All-zero weights make every state zero, so every pooled
        column ties across all steps: the gradient must take the earliest
        step, as maxpool_time does."""
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=8, dtype=np.float64)
        if zero_weights:
            params = replace(params, flat=nx.zeros(params.flat.shape, dtype=np.float64))
        weights = nx.tensor(np.random.default_rng(1).normal(size=(4, 6)), dtype=np.float64)
        with nx.GradTape() as tape:
            tape.watch(params.flat)
            loss = nx.sum_all(nx.hadamard(encode_batch(self.SENTENCES, table, params), weights))
        fused = params.layout.split(tape.gradient(loss)[params.flat])
        forward, backward = _direction(params, "forward"), _direction(params, "backward")
        with nx.GradTape() as tape:
            tape.watch(*forward, *backward)
            out = nx.stack_rows(_cell_graph_rows(self.SENTENCES, table, forward, backward))
            loss = nx.sum_all(nx.hadamard(out, weights))
        grad_map = tape.gradient(loss)
        grads = [fused, [grad_map[t] for t in (*forward, *backward)]]
        for k, (got, want) in enumerate(zip(*grads)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=f"tensor {k}")


class TestPackedBatch:
    """The packed layout: only real tokens, active rows a prefix at every
    step, and the node's gradients on batches that stress the packing."""

    BATCHES = {
        "same-length": [("alpha", "beta", "gamma"), ("delta", "alpha", "beta"), ("gamma", "gamma", "delta")],
        "tied-lengths-unsorted": [("alpha", "beta"), ("gamma", "delta", "alpha", "beta"), ("delta", "gamma"),
                                  ("beta", "alpha", "gamma", "delta"), ("alpha", "alpha")],
        "single-row": [("delta", "beta", "alpha", "gamma")],
        "length-1-beside-long": [("alpha",), ("beta", "gamma", "delta", "alpha", "beta", "gamma", "delta"),
                                 ("gamma",), ("delta", "alpha", "beta", "gamma", "alpha", "beta"), ("beta",)],
    }

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_only_real_tokens_are_laid_out(self, name):
        sentences = self.BATCHES[name]
        table = _table()
        packed = pack_batch(sentences, table, np.float64)
        lengths = [len(s) for s in sentences]
        assert sum(packed.sizes) == sum(lengths) == len(packed.ids) == packed.offsets[-1]
        assert np.all(np.diff(packed.sizes) <= 0)
        assert len(packed.sizes) == max(lengths) and packed.sizes[0] == len(sentences)
        # longest first, ties in input order
        assert list(packed.order) == sorted(range(len(sentences)), key=lambda i: -lengths[i])
        for i, sent in enumerate(sentences):
            steps = packed.steps(i)
            assert len(steps) == len(sent)
            np.testing.assert_array_equal(packed.V[packed.ids[steps]], [table.lookup(tok) for tok in sent])
        # V at ids is the lookups in packed order: step by step, sorted rows
        want = [table.lookup(sentences[i][t]) for t, active in enumerate(packed.sizes)
                for i in packed.order[:active]]
        np.testing.assert_array_equal(packed.V[packed.ids], want)

    def test_each_distinct_token_once_in_V(self):
        """Tokens repeated within a row, across rows and across steps, and
        OOV tokens, each get one row of V, in first packed order."""
        table = _table()
        sentences = [("alpha", "zzz", "alpha", "beta"), ("beta", "beta"), ("zzz", "gamma", "yyy"), ("alpha",)]
        packed = pack_batch(sentences, table, np.float32)
        sorted_rows = [sentences[i] for i in packed.order]
        packed_tokens = [row[t] for t, active in enumerate(packed.sizes) for row in sorted_rows[:active]]
        distinct = list(dict.fromkeys(packed_tokens))
        assert packed.V.shape == (len(distinct), table.dim) == (5, 3)
        assert packed.V.dtype == np.float32 and packed.ids.shape == (len(packed_tokens),)
        for k, tok in enumerate(distinct):
            np.testing.assert_array_equal(packed.V[k], table.lookup(tok))
        assert [distinct[i] for i in packed.ids] == packed_tokens

    def test_one_lookup_per_distinct_token(self, monkeypatch):
        table = _table()
        looked_up = []
        lookup = EmbeddingTable.lookup

        def counted(self, tok):
            looked_up.append(tok)
            return lookup(self, tok)

        monkeypatch.setattr(EmbeddingTable, "lookup", counted)
        sentences = self.BATCHES["length-1-beside-long"] + [("zzz", "alpha", "zzz")]
        pack_batch(sentences, table, np.float32)
        assert sorted(looked_up) == sorted({tok for s in sentences for tok in s})

    @pytest.mark.parametrize("name", sorted(BATCHES))
    @pytest.mark.parametrize("dtype, tol", [(np.float32, F32_TOL), (np.float64, F64_TOL)])
    def test_node_passes_finite_differences(self, name, dtype, tol):
        table = _table()
        params = EncoderParams.initialize(table.dim, 3, seed=13, dtype=dtype)
        f = TestBigruNode._weighted_sum(self.BATCHES[name], table, params)
        err = nx.finite_difference_check(f, params.flat, eps=1e-4 if dtype == np.float32 else 1e-5)
        assert err < tol

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_permuted_batch_gives_permuted_rows(self, name):
        sentences = self.BATCHES[name]
        table = _table()
        params = EncoderParams.initialize(table.dim, 4, seed=3)
        perm = np.random.default_rng(1).permutation(len(sentences))
        rows = encode_batch(sentences, table, params).values
        permuted = encode_batch([sentences[k] for k in perm], table, params).values
        np.testing.assert_allclose(permuted, rows[perm], rtol=1e-6)


def _written_into(buffer, lo, t):
    """A copy of the flat buffer with tensor t's entries written from lo
    on, as a tape node that hands that slice's gradient back to t."""
    values = buffer.copy()
    values[lo:lo + t.size] = t.values.ravel()
    return nx._emit(values, (t,), lambda g: (g[lo:lo + t.size].reshape(t.shape),))


class TestEncoderGradients:
    """Finite-difference checks through the full recurrence, pooling, and
    batching, for every one of the 18 parameter tensors."""

    def _loss_through_encode_batch(self, which, dtype, batched):
        table = _table(dim=2, words=("alpha", "beta", "gamma"))
        params = EncoderParams.initialize(2, 2, seed=31, dtype=dtype)
        baseline = params.flat.values.astype(np.float64)
        lo, hi = params.layout.offsets[which:which + 2]
        sentences = [("alpha", "beta", "gamma"), ("beta",), ("gamma", "alpha")]

        def f(t):
            p = replace(params, flat=_written_into(baseline.astype(t.dtype), lo, t))
            out = encode_batch(sentences if batched else sentences[:1], table, p)
            return nx.sum_all(nx.hadamard(out, out))

        return f, baseline[lo:hi].reshape(params.layout.shapes[which])

    @pytest.mark.parametrize("which", range(18))
    def test_per_sentence_path(self, which):
        for dtype, tol in ((np.float32, F32_TOL), (np.float64, F64_TOL)):
            f, x0 = self._loss_through_encode_batch(which, dtype, batched=False)
            err = nx.finite_difference_check(f, nx.tensor(x0, dtype=dtype))
            assert err < tol, f"param {which} dtype {dtype.__name__}: {err}"

    @pytest.mark.parametrize("which", range(18))
    def test_batched_path(self, which):
        f, x0 = self._loss_through_encode_batch(which, np.float64, batched=True)
        err = nx.finite_difference_check(f, nx.tensor(x0, dtype=np.float64))
        assert err < F64_TOL, f"param {which}: {err}"

    def test_batched_path_f32_spot_checks(self):
        for which in (0, 7, 13):
            f, x0 = self._loss_through_encode_batch(which, np.float32, batched=True)
            err = nx.finite_difference_check(f, nx.tensor(x0, dtype=np.float32))
            assert err < F32_TOL, f"param {which}: {err}"


class TestSentenceEncoder:
    def test_matches_inference_encode(self):
        table = _table(dim=3, seed=2)
        params = EncoderParams.initialize(input_dim=3, hidden=2, seed=4)
        fn = sentence_encoder(table, params)
        toks = ("what", "a", "day")
        np.testing.assert_array_equal(fn(toks), encode(toks, table, params).values)

    def test_many_is_encode_many(self):
        table = _table(dim=3, seed=2)
        params = EncoderParams.initialize(input_dim=3, hidden=2, seed=4)
        sentences = [("what", "a", "day"), ("alpha",), ("beta", "alpha")]
        np.testing.assert_array_equal(sentence_encoder(table, params).many(sentences),
                                      encode_many(sentences, table, params))
