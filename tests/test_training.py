"""Optimizer math against hand-evaluated recurrences, trainer determinism,
and checkpoint round-trips."""

import json
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from analogia import encoder, training
from analogia.encoder import EncoderParams, derive_seed
from analogia.numerics import GradTape, Tensor
from analogia.quadgen import Prototype, generate_training_quadruples, select_prototypes
from analogia.text_data import Candidate, ConfigError, EmbeddingTable, ParseError, QADataset, Question, classify_question, tokenize
from analogia.training import (
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    load_checkpoint,
    loss_log_to_tsv,
    save_checkpoint,
    train,
)


def _question(qid, text, cands):
    toks = tokenize(text)
    return Question(question_id=qid, text=toks, wh_type=classify_question(toks),
                    candidates=tuple(Candidate(text=tokenize(t), label=y) for t, y in cands))


def _toy_world(n_per_type=5):
    """Tiny learnable corpus: correct Who answers mention people, correct
    When answers mention years, wrong answers swap the pattern."""
    people = ["amundsen", "curie", "darwin", "tesla", "noether", "turing"]
    years = ["1905", "1911", "1931", "1947", "1953", "1969"]
    questions = []
    for i in range(n_per_type):
        p, y = people[i % len(people)], years[i % len(years)]
        questions.append(_question(f"who{i}", f"who led the {i} effort?",
                                   [(f"it was {p} leading.", 1), (f"in {y} barely.", 0)]))
        questions.append(_question(f"when{i}", f"when did the {i} effort happen?",
                                   [(f"around {y} roughly.", 1), (f"by {p} alone.", 0)]))
    ds = QADataset(questions=tuple(questions))
    vocab = set(people) | set(years) | {
        "who", "when", "led", "the", "effort", "did", "happen", "it", "was",
        "leading", "in", "barely", "around", "roughly", "by", "alone",
    } | {str(i) for i in range(n_per_type)}
    rng = np.random.default_rng(7)
    entries = {w: rng.normal(scale=0.5, size=6).astype(np.float32) for w in sorted(vocab)}
    table = EmbeddingTable(dim=6, entries=entries)
    protos = select_prototypes(ds, p=2, seed=3)
    return ds, table, protos


class TestAdamStep:
    def test_zero_gradient_zero_decay_is_identity(self):
        p = Tensor(np.arange(1.0, 7.0, dtype=np.float32).reshape(2, 3))
        cfg = TrainConfig(lr=0.001, weight_decay=0.0, dim=4)
        state = AdamState.for_params(p)
        out = adam_step(p, np.zeros((2, 3)), state, cfg)
        np.testing.assert_array_equal(out.values, p.values)
        assert state.t == 1

    def test_zero_gradient_shrinks_by_decay_factor(self):
        # g=0 leaves the Adam term at exactly zero, so only the decoupled
        # decay acts: one step multiplies by (1 - lr*wd) = (1 - 1e-5).
        p = Tensor(np.array([2.0, -3.0, 0.5], dtype=np.float32))
        cfg = TrainConfig(lr=0.001, weight_decay=0.01, dim=4)
        state = AdamState.for_params(p)
        out = adam_step(p, np.zeros(3), state, cfg)
        expected = p.values * (1.0 - cfg.lr * cfg.weight_decay)
        np.testing.assert_array_equal(out.values, expected)
        out2 = adam_step(out, np.zeros(3), state, cfg)
        np.testing.assert_array_equal(out2.values, expected * (1.0 - cfg.lr * cfg.weight_decay))
        assert state.t == 2

    def test_first_step_unit_gradient_moves_by_lr(self):
        # t=1: m_hat = g, v_hat = g*g, so the update is lr*g/(|g|+eps),
        # i.e. almost exactly lr in magnitude for g=1.
        p = Tensor(np.array(0.0, dtype=np.float64))
        cfg = TrainConfig(lr=0.001, weight_decay=0.0, dim=4)
        state = AdamState.for_params(p)
        out = adam_step(p, np.array(1.0), state, cfg)
        assert out.values == pytest.approx(-cfg.lr, rel=1e-6)

    def test_matches_independent_recurrence_over_steps(self):
        rng = np.random.default_rng(11)
        theta = rng.normal(size=(3, 2))
        p = Tensor(theta.copy())
        cfg = TrainConfig(lr=0.01, weight_decay=0.02, dim=4)
        state = AdamState.for_params(p)
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t in range(1, 6):
            g = rng.normal(size=(3, 2))
            p = adam_step(p, g, state, cfg)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            step = cfg.lr * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            theta = (theta - step) * (1.0 - cfg.lr * cfg.weight_decay)
        np.testing.assert_allclose(p.values, theta, rtol=1e-12)

    def test_lr_zero_limit_leaves_params_unchanged(self):
        # TrainConfig itself rejects lr=0; the optimizer math still has the
        # property that a zero learning rate freezes everything, decay
        # included (the decay term is lr-scaled).
        cfg = SimpleNamespace(lr=0.0, weight_decay=0.5)
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32))
        state = AdamState.for_params(p)
        out = adam_step(p, np.array([5.0, -7.0]), state, cfg)
        np.testing.assert_array_equal(out.values, p.values)

    def test_nan_gradient_raises(self):
        p = Tensor(np.ones(3, dtype=np.float32))
        cfg = TrainConfig(dim=4)
        state = AdamState.for_params(p)
        with pytest.raises(TrainingError, match="non-finite gradient"):
            adam_step(p, np.array([1.0, np.nan, 0.0]), state, cfg)
        assert state.t == 0

    def test_shape_mismatch_raises(self):
        p = Tensor(np.ones((2, 2), dtype=np.float32))
        state = AdamState.for_params(p)
        with pytest.raises(ValueError, match="shape"):
            adam_step(p, np.ones(3), state, TrainConfig(dim=4))


class TestClipGradients:
    """--clip-norm: one global norm over the whole parameter buffer."""

    def test_above_threshold_scaled_to_clip_norm(self):
        g = np.random.default_rng(3).normal(size=300).astype(np.float32)
        clipped = training._clip_gradients(g, 0.5)
        assert clipped.dtype == np.float32
        np.testing.assert_allclose(np.linalg.norm(clipped.astype(np.float64)), 0.5, rtol=1e-6)
        np.testing.assert_allclose(clipped / g, clipped[0] / g[0], rtol=1e-6)

    @pytest.mark.parametrize("g", [np.full(40, 0.01, dtype=np.float32), np.zeros(40, dtype=np.float32)],
                             ids=["below", "zero"])
    def test_at_or_below_threshold_unchanged(self, g):
        clipped = training._clip_gradients(g, 1.0)
        assert clipped.dtype == g.dtype
        np.testing.assert_array_equal(clipped, g)

    def test_clipped_runs_bit_identical(self):
        ds, table, protos = _toy_world()
        cfg = TrainConfig(epochs=2, batch_size=8, dim=8, seed=9, clip_norm=0.01)
        r1 = train(cfg, ds, protos, table)
        r2 = train(cfg, ds, protos, table)
        assert loss_log_to_tsv(r1.loss_log) == loss_log_to_tsv(r2.loss_log)
        np.testing.assert_array_equal(r1.params.flat.values, r2.params.flat.values)
        unclipped = train(replace(cfg, clip_norm=None), ds, protos, table)
        assert not np.array_equal(r1.params.flat.values, unclipped.params.flat.values)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0}, {"lr": -1.0},
        {"dropout": 1.0}, {"dropout": -0.1},
        {"epochs": -1},
        {"batch_size": 0},
        {"dim": 0}, {"dim": 7},
        {"weight_decay": -0.01},
        {"negatives_per_positive": -1},
        {"clip_norm": 0.0},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.weight_decay, cfg.dropout) == (0.001, 0.01, 0.5)
        assert (cfg.epochs, cfg.batch_size, cfg.dim) == (20, 32, 300)
        assert cfg.hp.margin == 0.0 and cfg.clip_norm is None


class TestTrain:
    def test_loss_log_shape_and_finiteness(self):
        ds, table, protos = _toy_world()
        cfg = TrainConfig(epochs=3, batch_size=8, dim=8, seed=5, dropout=0.0)
        res = train(cfg, ds, protos, table)
        assert [row.epoch for row in res.loss_log] == [1, 2, 3]
        for row in res.loss_log:
            assert np.isfinite(row.mean_loss) and row.mean_loss >= 0.0
            assert row.degenerate_quadruples >= 0
        assert res.quadruple_count > 0

    def test_loss_decreases_on_learnable_toy(self):
        ds, table, protos = _toy_world()
        cfg = TrainConfig(epochs=5, batch_size=8, dim=8, seed=5, lr=0.01, dropout=0.0)
        res = train(cfg, ds, protos, table)
        assert res.loss_log[-1].mean_loss < res.loss_log[0].mean_loss

    def test_embeddings_frozen(self):
        ds, table, protos = _toy_world()
        before = {w: v.copy() for w, v in table.entries.items()}
        train(TrainConfig(epochs=2, batch_size=8, dim=8, seed=1), ds, protos, table)
        for w, v in table.entries.items():
            np.testing.assert_array_equal(v, before[w])

    def test_same_seed_bit_identical(self):
        ds, table, protos = _toy_world()
        cfg = TrainConfig(epochs=2, batch_size=8, dim=8, seed=9, dropout=0.5)
        r1 = train(cfg, ds, protos, table)
        r2 = train(cfg, ds, protos, table)
        assert loss_log_to_tsv(r1.loss_log) == loss_log_to_tsv(r2.loss_log)
        np.testing.assert_array_equal(r1.params.flat.values, r2.params.flat.values)

    def test_different_seed_differs(self):
        ds, table, protos = _toy_world()
        r1 = train(TrainConfig(epochs=2, batch_size=8, dim=8, seed=1), ds, protos, table)
        r2 = train(TrainConfig(epochs=2, batch_size=8, dim=8, seed=2), ds, protos, table)
        assert loss_log_to_tsv(r1.loss_log) != loss_log_to_tsv(r2.loss_log)

    def test_zero_epochs_equals_initialization(self):
        ds, table, protos = _toy_world()
        cfg = TrainConfig(epochs=0, dim=8, seed=4)
        res = train(cfg, ds, protos, table)
        init = EncoderParams.initialize(input_dim=table.dim, hidden=4,
                                        seed=derive_seed(4, "init"))
        np.testing.assert_array_equal(res.params.flat.values, init.flat.values)
        assert res.loss_log == ()

    def test_no_quadruples_raises(self):
        # The only Who question doubles as the prototype, so the target
        # pool is empty for every type.
        q = _question("q0", "who wrote it?", [("the author did.", 1)])
        ds = QADataset(questions=(q,))
        protos = select_prototypes(ds, p=1, seed=0)
        table = EmbeddingTable(dim=4, entries={})
        with pytest.raises(TrainingError, match="no training quadruples"):
            train(TrainConfig(epochs=1, dim=4), ds, protos, table)

    def test_non_finite_gradient_names_its_tensor(self, monkeypatch):
        """A NaN in one tensor's gradient stops training at the first step,
        naming that tensor and the batch."""
        scan_grads = encoder._gru_scan_grads

        def nan_in_b_r(*args):
            grads = list(scan_grads(*args))
            grads[5] = np.full_like(grads[5], np.nan)
            return tuple(grads)

        monkeypatch.setattr(encoder, "_gru_scan_grads", nan_in_b_r)
        ds, table, protos = _toy_world()
        with pytest.raises(TrainingError, match=r"non-finite gradient in forward\.b_r at epoch 1 batch 0"):
            train(TrainConfig(epochs=1, batch_size=8, dim=8, seed=1), ds, protos, table)

    def test_loss_log_tsv_layout(self):
        ds, table, protos = _toy_world()
        res = train(TrainConfig(epochs=2, batch_size=8, dim=8, seed=0), ds, protos, table)
        text = loss_log_to_tsv(res.loss_log)
        lines = text.splitlines()
        assert lines[0] == "epoch\tmean_loss\tdegenerate_quadruples"
        assert len(lines) == 3
        for i, line in enumerate(lines[1:], start=1):
            epoch, loss, degen = line.split("\t")
            assert int(epoch) == i
            assert float(loss) >= 0.0
            assert int(degen) >= 0


class TestDropout:
    """training._dropout_masks: each role's inverted-dropout scales for one
    step, drawn from (seed, epoch, batch offset, role)."""

    def _masks(self, rate, seed=0, epoch=1, batch_idx=0, dtype=np.float32):
        return training._dropout_masks(TrainConfig(dropout=rate, seed=seed), epoch, batch_idx,
                                       (4, 8), dtype)

    def test_rate_zero_is_identity(self):
        assert self._masks(0.0) is None

    def test_training_mask_zeroes_or_rescales(self):
        masks = self._masks(0.5, seed=3)
        assert masks.shape == (4, 4, 8) and masks.dtype == np.float32
        assert set(np.unique(masks)) == {0.0, 2.0}

    def test_mask_deterministic_given_seed(self):
        a, b = self._masks(0.5, seed=7, dtype=np.float64), self._masks(0.5, seed=7, dtype=np.float64)
        np.testing.assert_array_equal(a, b)
        for other in (self._masks(0.5, seed=8), self._masks(0.5, seed=7, epoch=2),
                      self._masks(0.5, seed=7, batch_idx=4)):
            assert not np.array_equal(a, other)
        for k, role in enumerate("abcd"):
            keep = np.random.default_rng(derive_seed(7, "dropout", 1, 0, role)).random((4, 8)) >= 0.5
            np.testing.assert_array_equal(a[k], keep.astype(np.float64) / 0.5)


class TestTrainingStep:
    """Each step encodes the batch's distinct sentences in one call; the
    loss takes each role's rows of that matrix and applies the role's own
    dropout mask."""

    CFG = TrainConfig(epochs=2, batch_size=16, dim=8, seed=3, dropout=0.5)

    def _run(self, monkeypatch):
        """Train CFG on the toy world, recording per step the encoded
        sentences and matrix, the tape size when batch_loss starts, the
        tape size at gradient time, and the batch handed to batch_loss."""
        ds, table, protos = _toy_world()
        steps, tapes = [], []
        encode_batch, batch_loss = training.encode_batch, training.batch_loss

        class RecordingTape(GradTape):
            def __enter__(self):
                tapes.append(self)
                return super().__enter__()

            def gradient(self, loss):
                steps[-1]["nodes"] = len(self._nodes)
                return super().gradient(loss)

        def recording_encode_batch(sentences, *args, **kwargs):
            out = encode_batch(sentences, *args, **kwargs)
            steps.append({"sentences": list(sentences), "encoded": out})
            return out

        def recording_batch_loss(batch, *args, **kwargs):
            steps[-1]["encoder_nodes"] = len(tapes[-1]._nodes)
            steps[-1]["batch"] = batch
            return batch_loss(batch, *args, **kwargs)

        monkeypatch.setattr(training, "GradTape", RecordingTape)
        monkeypatch.setattr(training, "encode_batch", recording_encode_batch)
        monkeypatch.setattr(training, "batch_loss", recording_batch_loss)
        res = train(self.CFG, ds, protos, table)
        return steps, res, ds, protos

    def test_one_encoder_call_and_few_tape_nodes_per_step(self, monkeypatch):
        """Two nodes a step: the encoder's, then the loss's over the
        encoded matrix."""
        steps, res, _, _ = self._run(monkeypatch)
        batches = -(-res.quadruple_count // self.CFG.batch_size)
        assert len(steps) == self.CFG.epochs * batches
        for step in steps:
            assert len(set(step["sentences"])) == len(step["sentences"])
            assert step["batch"].encoded is step["encoded"]
            assert step["encoder_nodes"] == 1
            assert step["nodes"] == 2
        # prototype sentences repeat, so some step encodes fewer rows than 4B
        assert any(len(step["sentences"]) < 4 * step["batch"].size for step in steps)

    def test_role_rows_carry_the_per_role_masks(self, monkeypatch):
        """Row i of role r is the encoding of quadruple i's r sentence, and
        its mask is the inverted-dropout mask drawn from (seed, epoch,
        batch offset, role) for the (B, d) shape."""
        steps, res, ds, protos = self._run(monkeypatch)
        cfg = self.CFG
        quads = generate_training_quadruples(ds, protos, negatives_per_positive=cfg.negatives_per_positive,
                                             seed=derive_seed(cfg.seed, "quadruples"))
        step = iter(steps)
        for epoch in range(1, cfg.epochs + 1):
            order = np.random.default_rng(derive_seed(cfg.seed, "shuffle", epoch)).permutation(len(quads))
            for batch_idx in range(0, len(order), cfg.batch_size):
                chunk = [quads[i] for i in order[batch_idx:batch_idx + cfg.batch_size]]
                rec = next(step)
                batch = rec["batch"]
                for k, role in enumerate("abcd"):
                    rows = [rec["sentences"].index(getattr(q, role)) for q in chunk]
                    np.testing.assert_array_equal(batch.rows[k], rows)
                    rng = np.random.default_rng(derive_seed(cfg.seed, "dropout", epoch, batch_idx, role))
                    mask = (rng.random((len(chunk), cfg.dim)) >= cfg.dropout) / (1.0 - cfg.dropout)
                    assert batch.masks[k].tobytes() == mask.astype(np.float32).tobytes()
        assert next(step, None) is None

    def test_rate_zero_passes_no_masks(self, monkeypatch):
        monkeypatch.setattr(self, "CFG", replace(self.CFG, dropout=0.0))
        steps, _, _, _ = self._run(monkeypatch)
        assert all(step["batch"].masks is None for step in steps)

    def test_seeded_runs_bit_identical_with_repeated_sentences(self):
        """One step per epoch over the whole toy set, where prototype and
        question sentences repeat across many quadruples."""
        ds, table, protos = _toy_world()
        cfg = TrainConfig(epochs=3, batch_size=64, dim=8, seed=12, dropout=0.5)
        r1 = train(cfg, ds, protos, table)
        r2 = train(cfg, ds, protos, table)
        assert loss_log_to_tsv(r1.loss_log) == loss_log_to_tsv(r2.loss_log)
        np.testing.assert_array_equal(r1.params.flat.values, r2.params.flat.values)


class TestCheckpoint:
    def _roundtrip(self, tmp_path):
        params = EncoderParams.initialize(input_dim=5, hidden=3, seed=21)
        protos = {
            "Who": [Prototype(question=("who", "did"), answer=("curie",), wh_type="Who")],
            "When": [Prototype(question=("when", "was", "it"), answer=("1905", "maybe"), wh_type="When")],
        }
        config = {"lr": 0.001, "epochs": 2, "seed": 21, "dim": 6,
                  "embeddings": "vectors.vec", "margin": 0.0}
        out = os.path.join(tmp_path, "ckpt")
        save_checkpoint(out, params, config, protos)
        return out, params, config, protos

    def test_roundtrip_exact(self, tmp_path):
        out, params, config, protos = self._roundtrip(tmp_path)
        loaded, meta, loaded_protos = load_checkpoint(out)
        for (n1, t1), (n2, t2) in zip(params.named(), loaded.named()):
            assert n1 == n2
            np.testing.assert_array_equal(t1, t2)
        for key, value in config.items():
            assert meta[key] == value
        assert meta["input_dim"] == 5 and meta["hidden"] == 3
        assert loaded_protos == protos

    def test_manifest_layout(self, tmp_path):
        out, params, _, _ = self._roundtrip(tmp_path)
        lines = open(os.path.join(out, "manifest.txt")).read().splitlines()
        assert len(lines) == 18
        names = [line.split("\t")[0] for line in lines]
        assert names == [n for n, _ in params.named()]
        offsets = [int(line.split("\t")[2]) for line in lines]
        assert offsets[0] == 0
        assert offsets == sorted(offsets)

    def test_weights_are_little_endian_float32(self, tmp_path):
        out, params, _, _ = self._roundtrip(tmp_path)
        blob = open(os.path.join(out, "weights.bin"), "rb").read()
        first_line = open(os.path.join(out, "manifest.txt")).readline().rstrip("\n")
        name, shape_str, offset = first_line.split("\t")
        shape = tuple(int(s) for s in shape_str.split(","))
        n = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=int(offset)).reshape(shape)
        np.testing.assert_array_equal(arr, dict(params.named())[name])

    def test_config_file_is_json(self, tmp_path):
        out, _, config, _ = self._roundtrip(tmp_path)
        meta = json.load(open(os.path.join(out, "config.json")))
        assert meta["epochs"] == config["epochs"]

    def test_non_finite_config_value_writes_nothing(self, tmp_path):
        params = EncoderParams.initialize(input_dim=2, hidden=1, seed=0)
        out = os.path.join(tmp_path, "ckpt")
        with pytest.raises(ValueError, match="JSON compliant"):
            save_checkpoint(out, params, {"l2_lambda": float("nan")}, {})
        assert not os.path.exists(out)

    def test_missing_file_raises(self, tmp_path):
        out, _, _, _ = self._roundtrip(tmp_path)
        os.remove(os.path.join(out, "weights.bin"))
        with pytest.raises(ParseError, match="missing weights.bin"):
            load_checkpoint(out)

    def test_truncated_weights_raises(self, tmp_path):
        out, _, _, _ = self._roundtrip(tmp_path)
        path = os.path.join(out, "weights.bin")
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(ParseError, match="exceeds weights file"):
            load_checkpoint(out)

    def test_trained_params_roundtrip(self, tmp_path):
        ds, table, protos = _toy_world(3)
        res = train(TrainConfig(epochs=1, batch_size=8, dim=8, seed=2), ds, protos, table)
        out = os.path.join(tmp_path, "ckpt")
        save_checkpoint(out, res.params, {"seed": 2}, res.prototypes)
        loaded, _, _ = load_checkpoint(out)
        np.testing.assert_array_equal(res.params.flat.values, loaded.flat.values)
