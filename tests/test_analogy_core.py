"""Dissimilarity, energy, loss, ranking, and the batched training loss.

Ranking is checked against a brute-force oracle that recomputes every
candidate/prototype score with explicit loops and sorts by hand.
"""

import numpy as np
import pytest

from analogia import numerics as nx
from analogia.analogy_core import (
    COSINE_EPSILON,
    BatchLossResult,
    EncodedBatch,
    LOSS_VARIANTS,
    HyperParams,
    ShiftPair,
    analogical_dissimilarity,
    batch_loss,
    batch_loss_forward,
    _batch_loss_grads,
    contrastive_loss,
    energy,
    rank_candidates,
)
from analogia.numerics import ShapeError
from analogia.text_data import ConfigError


class TestAnalogicalDissimilarity:
    def test_exact_parallelogram_is_zero(self):
        assert analogical_dissimilarity([2, 1], [1, 1], [3, 0], [2, 0]) == 0.0

    def test_fully_degenerate_is_zero(self):
        v = [0.3, -0.7, 2.0]
        assert analogical_dissimilarity(v, v, v, v) == 0.0

    def test_direct_value(self):
        got = analogical_dissimilarity([1, 0], [0, 0], [0, 0], [0, 1])
        np.testing.assert_allclose(got, np.sqrt(2.0), rtol=1e-15)

    def test_pair_swap_symmetry(self):
        """v(a,b,c,d) = v(c,d,a,b) since the norm ignores argument sign."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b, c, d = rng.normal(size=(4, 5))
            np.testing.assert_allclose(
                analogical_dissimilarity(a, b, c, d),
                analogical_dissimilarity(c, d, a, b), rtol=1e-12)

    def test_self_proportion_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.normal(size=(2, 4))
            assert analogical_dissimilarity(a, b, a, b) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, c, d = rng.normal(size=(4, 3))
            assert analogical_dissimilarity(a, b, c, d) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            analogical_dissimilarity([1, 0], [0, 0], [0, 0, 0], [0, 1, 0])

    def test_rejects_matrix_operand(self):
        with pytest.raises(ShapeError):
            analogical_dissimilarity(np.zeros((2, 2)), [0, 0], [0, 0], [0, 0])


class TestEnergy:
    def test_parallel_shifts(self):
        val, degen = energy(ShiftPair(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        assert val == 1.0 and not degen

    def test_orthogonal_shifts(self):
        val, degen = energy(ShiftPair(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        assert val == 0.0 and not degen

    def test_antiparallel_and_scale_free(self):
        val, _ = energy(ShiftPair(np.array([1.0, 0.0]), np.array([-2.0, 0.0])))
        assert val == -1.0

    def test_scale_invariance(self):
        """energy(a*u, b*v) = sign(ab) * energy(u, v) for nonzero scales."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            u, v = rng.normal(size=(2, 6))
            base, _ = energy(ShiftPair(u, v))
            a, b = rng.uniform(0.1, 10, size=2) * rng.choice([-1, 1], size=2)
            scaled, _ = energy(ShiftPair(a * u, b * v))
            np.testing.assert_allclose(scaled, np.sign(a * b) * base, atol=1e-12)

    def test_bounds_over_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            val, _ = energy(ShiftPair(rng.normal(size=4), rng.normal(size=4)))
            assert -1.0 <= val <= 1.0

    def test_degenerate_zero_shift(self):
        val, degen = energy(ShiftPair(np.zeros(3), np.array([1.0, 0.0, 0.0])))
        assert val == 0.0 and degen

    def test_near_zero_norm_uses_eps(self):
        tiny = np.full(3, 1e-12)
        val, degen = energy(ShiftPair(tiny, np.ones(3)), eps=1e-8)
        assert degen and val == 0.0
        val2, degen2 = energy(ShiftPair(tiny, np.ones(3)), eps=1e-15)
        assert not degen2 and val2 == pytest.approx(1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ShapeError):
            ShiftPair(np.zeros(2), np.zeros(3))


class TestContrastiveLoss:
    HP = HyperParams()

    def test_perfect_positive(self):
        assert contrastive_loss(1.0, 1, self.HP) == 0.0

    def test_neutral_positive(self):
        assert contrastive_loss(0.0, 1, self.HP) == 1.0

    def test_hinge_negative(self):
        assert contrastive_loss(0.5, 0, self.HP) == 0.25

    def test_variant_contrast_below_margin(self):
        hinge = HyperParams(loss_variant="hinge")
        literal = HyperParams(loss_variant="literal")
        assert contrastive_loss(-0.5, 0, hinge) == 0.0
        assert contrastive_loss(-0.5, 0, literal) == 0.25

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(9)
        for variant in ("hinge", "literal"):
            for m in (-0.5, 0.0, 0.25):
                hp = HyperParams(margin=m, loss_variant=variant)
                for E in rng.uniform(-1, 1, size=200):
                    assert contrastive_loss(float(E), int(rng.integers(0, 2)), hp) >= 0.0

    def test_positive_branch_strictly_decreasing(self):
        E = np.linspace(-1, 1, 101)
        losses = [contrastive_loss(float(e), 1, self.HP) for e in E]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_hinge_flat_at_or_below_margin(self):
        hp = HyperParams(margin=0.25)
        for E in np.linspace(-1, 0.25, 50):
            assert contrastive_loss(float(E), 0, hp) == 0.0

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            contrastive_loss(0.0, 2, self.HP)


class TestHyperParamsValidation:
    def test_defaults(self):
        hp = HyperParams()
        assert hp.margin == 0.0 and hp.loss_variant == "hinge"
        assert hp.l2_lambda == 0.0 and COSINE_EPSILON == 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"margin": 1.5},
        {"loss_variant": "quadratic"},
        {"l2_lambda": -0.1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            HyperParams(**kwargs)


def _oracle_rank(question, candidates, prototypes, mode):
    """Loop-and-sort reimplementation of the ranking contract."""
    scored = []
    for i, cand in enumerate(candidates):
        per_proto = []
        for (qp, ap) in prototypes:
            if mode == "energy":
                val, _ = energy(ShiftPair(np.asarray(qp, float) - np.asarray(ap, float),
                                          np.asarray(question, float) - np.asarray(cand, float)))
            else:
                val = analogical_dissimilarity(qp, ap, question, cand)
            per_proto.append(val)
        if mode == "energy":
            best_val = max(per_proto)
        else:
            best_val = min(per_proto)
        scored.append((i, best_val, per_proto.index(best_val)))
    reverse = mode == "energy"
    scored.sort(key=lambda t: -t[1] if reverse else t[1])
    return scored


class TestRankCandidates:
    def test_energy_orders_by_cosine(self):
        q = np.array([1.0, 0.0])
        d1, d2 = q - np.array([1.0, 0.0]), q - np.array([0.0, 1.0])
        out = rank_candidates(q, [d1, d2], [(np.array([1.0, 0.0]), np.array([0.0, 0.0]))])
        assert out.order() == (0, 1)
        assert out.entries[0].score == pytest.approx(1.0)
        assert out.entries[1].score == pytest.approx(0.0)

    def test_dissimilarity_prefers_near_parallelogram(self):
        # prototype pair differs by [1, 0]; d1 nearly closes the
        # parallelogram with the question, d2 points elsewhere
        qp, ap = np.array([2.0, 1.0]), np.array([1.0, 1.0])
        q = np.array([5.0, 3.0])
        d1 = q - np.array([1.05, 0.02])
        d2 = q - np.array([-0.5, 1.0])
        out = rank_candidates(q, [d2, d1], [(qp, ap)], mode="dissimilarity")
        assert out.order() == (1, 0)
        assert out.entries[0].rank == 1

    def test_tied_scores_keep_original_order(self):
        q = np.zeros(2)
        c = np.array([1.0, 1.0])
        out = rank_candidates(q, [c, c.copy(), c.copy()], [(np.ones(2), np.zeros(2))])
        assert out.order() == (0, 1, 2)
        assert [e.rank for e in out.entries] == [1, 2, 3]

    def test_best_prototype_earliest_on_tie(self):
        q = np.array([1.0, 0.0])
        cand = np.array([0.0, 0.0])
        proto = (np.array([2.0, 0.0]), np.array([0.0, 0.0]))
        out = rank_candidates(q, [cand], [proto, proto])
        assert out.entries[0].best_prototype_index == 0

    @pytest.mark.parametrize("mode", ["energy", "dissimilarity"])
    def test_matches_exhaustive_oracle(self, mode):
        """Random small-integer instances against the loop oracle; integer
        coordinates make score ties exact and reachable."""
        rng = np.random.default_rng(13)
        for _ in range(150):
            dim = int(rng.integers(2, 5))
            n_cand = int(rng.integers(1, 6))
            n_proto = int(rng.integers(1, 4))
            q = rng.integers(-3, 4, size=dim).astype(float)
            cands = [rng.integers(-3, 4, size=dim).astype(float) for _ in range(n_cand)]
            protos = [(rng.integers(-3, 4, size=dim).astype(float),
                       rng.integers(-3, 4, size=dim).astype(float)) for _ in range(n_proto)]
            got = rank_candidates(q, cands, protos, mode=mode)
            want = _oracle_rank(q, cands, protos, mode)
            assert got.order() == tuple(i for i, _, _ in want)
            for entry, (i, val, best) in zip(got.entries, want):
                assert entry.candidate_index == i
                np.testing.assert_allclose(entry.score, val, atol=1e-12)
                assert entry.best_prototype_index == best

    def test_degenerate_pairs_counted_and_neutral(self):
        q = np.array([1.0, 0.0])
        cand_same_as_q = q.copy()  # question shift is zero
        out = rank_candidates(q, [cand_same_as_q], [(np.ones(2), np.zeros(2))])
        assert out.degenerate_count == 1
        assert out.entries[0].score == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            rank_candidates(np.zeros(2), [], [(np.zeros(2), np.zeros(2))])
        with pytest.raises(ValueError):
            rank_candidates(np.zeros(2), [np.zeros(2)], [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            rank_candidates(np.zeros(2), [np.zeros(2)], [(np.zeros(2), np.zeros(2))], mode="mean")

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            rank_candidates(np.zeros(2), [np.zeros(3)], [(np.zeros(2), np.zeros(2))])


def _stacked(mats, labels, dtype=np.float64, masks=None):
    """An EncodedBatch over the four (B, d) role matrices stacked into one
    (4B, d) encoded matrix, row i of role k at row k * B + i."""
    B = len(mats[0])
    return EncodedBatch(nx.tensor(np.concatenate(mats), dtype=dtype), np.arange(4 * B).reshape(4, B),
                        np.asarray(labels), masks)


def _batch_from_shifts(proto_shifts, quad_shifts, labels, dtype=np.float64):
    """Build an EncodedBatch whose two shift matrices equal the given rows."""
    P = np.asarray(proto_shifts, dtype=np.float64)
    Q = np.asarray(quad_shifts, dtype=np.float64)
    return _stacked([P, np.zeros_like(P), Q, np.zeros_like(Q)], labels, dtype)


def _gather(m, idx):
    """A tape op taking rows m[idx], whose backward pass scatter-adds each
    row's gradient onto the row it came from."""
    def back(g):
        z = np.zeros(m.shape, dtype=np.result_type(m.values, g))
        np.add.at(z, idx, g)
        return (z,)
    return nx._emit(m.values[idx], (m,), back)


def _op_by_op_loss(batch, hp, params):
    """Reference oracle: the batch loss composed from elementwise tape ops,
    one node per op, over a gather node and a mask product per role;
    batch_loss's single node must give the same bits."""
    B, dtype, eps = batch.size, batch.encoded.dtype, COSINE_EPSILON
    roles = [_gather(batch.encoded, r) for r in batch.rows]
    if batch.masks is not None:
        roles = [nx.hadamard(m, nx.tensor(k, dtype=dtype)) for m, k in zip(roles, batch.masks)]
    f_qp, f_ap, f_qi, f_ai = roles
    u = nx.sub(f_qp, f_ap)
    v = nx.sub(f_qi, f_ai)
    dots = nx.sum_axis(nx.hadamard(u, v), axis=1)
    squ = nx.sum_axis(nx.hadamard(u, u), axis=1)
    sqv = nx.sum_axis(nx.hadamard(v, v), axis=1)
    denom = nx.sqrt(nx.add(nx.hadamard(squ, sqv), nx.tensor(np.full(B, eps ** 4), dtype=dtype)))
    usable = (np.sqrt(squ.values.astype(np.float64)) >= eps) & (np.sqrt(sqv.values.astype(np.float64)) >= eps)
    e = nx.hadamard(nx.div(dots, denom), nx.tensor(usable, dtype=dtype))
    pos_gap = nx.sub(nx.tensor(np.ones(B), dtype=dtype), e)
    shifted = nx.sub(e, nx.tensor(np.full(B, hp.margin), dtype=dtype))
    if hp.loss_variant == "hinge":
        shifted = nx.maximum(shifted, nx.tensor(np.zeros(B), dtype=dtype))
    per_row = nx.blend(nx.tensor(batch.labels, dtype=dtype), nx.hadamard(shifted, shifted),
                       nx.hadamard(pos_gap, pos_gap))
    loss = nx.scale(nx.sum_all(per_row), 1.0 / B)
    if hp.l2_lambda > 0 and params:
        loss = nx.add(loss, nx.scale(nx.sum_squares(params), hp.l2_lambda))
    return BatchLossResult(loss=loss, energies=e.values.astype(np.float64),
                           degenerate_count=int(B - usable.sum()))


def _keep_scales(rng, shape, rate, dtype):
    """Inverted-dropout scales: 0 or 1/(1-rate), as training draws them."""
    return ((rng.random(shape) >= rate) / (1.0 - rate)).astype(dtype)


class TestBatchLoss:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_the_op_by_op_composition(self, dtype):
        """Loss, energies and the gradients of the encoded matrix and of
        theta equal the reference's bit for bit, over both variants,
        margins 0 and random, with and without masks, rows repeated within
        and across roles, and batches with degenerate rows."""
        rng = np.random.default_rng(25)
        for case in range(48):
            B, d = (int(n) for n in rng.integers(1, 12, size=2))
            S = int(rng.integers(1, 2 * B + 2))
            encoded = rng.normal(size=(S, d))
            rows = rng.integers(0, S, size=(4, B))
            rows[1, 0] = rows[0, 0]  # row 0 is degenerate
            masks = _keep_scales(rng, (4, B, d), 0.5, dtype) if case % 4 < 2 else None
            hp = HyperParams(margin=0.0 if case % 3 else float(rng.uniform(-1, 1)),
                             loss_variant=LOSS_VARIANTS[case % 2], l2_lambda=(0.0, 0.01)[case // 2 % 2])
            labels = rng.integers(0, 2, size=B)
            theta = nx.tensor(rng.normal(size=7), dtype=dtype)
            results = []
            for loss_fn in (lambda b: batch_loss(b, hp, theta),
                            lambda b: _op_by_op_loss(b, hp, (theta,))):
                with nx.GradTape() as tape:
                    m = nx.tensor(encoded, dtype=dtype)
                    tape.watch(m, theta)
                    out = loss_fn(EncodedBatch(m, rows, labels, masks))
                grads = tape.gradient(out.loss)
                results.append([out.loss.values, out.energies, np.array(out.degenerate_count),
                                grads[m], grads[theta]])
            for got, want in zip(*results):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_repeated_rows_accumulate_in_role_order(self, dtype):
        """A sentence repeated within and across roles gets each role's
        np.add.at sum of its masked gradients, the four sums added in d, c,
        b, a order; a row no quadruple picks gets zero."""
        rng = np.random.default_rng(26)
        encoded = nx.tensor(rng.normal(size=(5, 6)), dtype=dtype)
        rows = np.array([[0, 1, 0, 0], [1, 1, 2, 3], [0, 2, 0, 1], [3, 0, 0, 2]])
        masks = _keep_scales(rng, (4, 4, 6), 0.25, dtype)
        labels = np.array([1, 0, 1, 0])
        hp = HyperParams(margin=0.1, loss_variant="literal")
        with nx.GradTape() as tape:
            tape.watch(encoded)
            out = batch_loss(EncodedBatch(encoded, rows, labels, masks), hp)
        got = tape.gradient(out.loss)[encoded]

        roles = [encoded.values[r] * k for r, k in zip(rows, masks)]
        fwd = batch_loss_forward(*roles, labels, hp)
        role_grads = _batch_loss_grads(np.ones((), dtype=dtype), fwd, hp)
        sums = []
        for k in range(4):
            z = np.zeros(encoded.shape, dtype=dtype)
            np.add.at(z, rows[k], role_grads[k] * masks[k])
            sums.append(z)
        want = sums[3] + sums[2] + sums[1] + sums[0]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got[4], np.zeros(6))
        assert np.count_nonzero(got[:4]) > 0

    def test_single_perfect_positive_is_zero(self):
        batch = _batch_from_shifts([[1.0, 0.0]], [[2.0, 0.0]], [1])
        out = batch_loss(batch, HyperParams())
        assert out.loss.item() == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.energies, [1.0], atol=1e-12)

    def test_mean_of_two_known_losses(self):
        """Two positive rows engineered to lose exactly 0.2 and 0.4."""
        e1, e2 = 1.0 - np.sqrt(0.2), 1.0 - np.sqrt(0.4)
        rows = [[np.cos(t), np.sin(t)] for t in (np.arccos(e1), np.arccos(e2))]
        batch = _batch_from_shifts([[1.0, 0.0], [1.0, 0.0]], rows, [1, 1])
        out = batch_loss(batch, HyperParams())
        assert out.loss.item() == pytest.approx(0.3, abs=1e-9)

    def test_matches_scalar_loss_over_random_batches(self):
        """Batched value equals the mean of per-row contrastive_loss(energy)."""
        rng = np.random.default_rng(21)
        for variant in ("hinge", "literal"):
            for m in (0.0, 0.25):
                hp = HyperParams(margin=m, loss_variant=variant)
                B, d = 6, 4
                P = rng.normal(size=(B, d))
                Q = rng.normal(size=(B, d))
                labels = rng.integers(0, 2, size=B)
                batch = _batch_from_shifts(P, Q, labels)
                out = batch_loss(batch, hp)
                want = np.mean([
                    contrastive_loss(energy(ShiftPair(P[i], Q[i]))[0], int(labels[i]), hp)
                    for i in range(B)])
                np.testing.assert_allclose(out.loss.item(), want, rtol=1e-9)

    def test_l2_term_matches_direct_recomputation(self):
        rng = np.random.default_rng(22)
        theta = nx.tensor(rng.normal(size=11), dtype=np.float64)
        batch = _batch_from_shifts([[1.0, 0.0]], [[1.0, 0.0]], [1])
        lam = 0.01
        out = batch_loss(batch, HyperParams(l2_lambda=lam), theta)
        want = lam * float((theta.values ** 2).sum())
        np.testing.assert_allclose(out.loss.item(), want, rtol=1e-12)

    def test_degenerate_row_neutral_and_counted(self):
        batch = _batch_from_shifts([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]], [1, 1])
        out = batch_loss(batch, HyperParams())
        assert out.degenerate_count == 1
        assert out.energies[0] == 0.0
        # degenerate positive contributes (1-0)^2 = 1, clean positive 0
        assert out.loss.item() == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_row_gradient_finite_and_zero(self):
        """The prototype question and answer share row 0, a zero shift."""
        with nx.GradTape() as tape:
            encoded = nx.tensor([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]], dtype=np.float64)
            tape.watch(encoded)
            batch = EncodedBatch(encoded, np.array([[0], [0], [1], [2]]), np.array([1]))
            out = batch_loss(batch, HyperParams())
        grad = tape.gradient(out.loss)[encoded]
        assert np.isfinite(grad).all()
        np.testing.assert_array_equal(grad, np.zeros((3, 2)))

    def test_gradients_pass_finite_difference(self):
        """FD over the encoded matrix, with masks and rows repeated within
        and across roles, and over an L2 parameter, on a 2-row, d=2 batch
        (both loss variants)."""
        rng = np.random.default_rng(23)
        base = {"encoded": rng.normal(size=(5, 2)), "theta": rng.normal(size=4)}
        rows = np.array([[0, 1], [2, 2], [3, 0], [4, 1]])
        masks = rng.uniform(0.5, 2.0, size=(4, 2, 2))
        labels = np.array([1, 0])

        for variant in ("hinge", "literal"):
            hp = HyperParams(margin=0.25, loss_variant=variant, l2_lambda=0.01)
            for which in base:
                def f(t):
                    args = {k: (t if which == k else nx.tensor(v, dtype=t.dtype)) for k, v in base.items()}
                    b = EncodedBatch(args["encoded"], rows, labels, masks.astype(t.dtype))
                    return batch_loss(b, hp, args["theta"]).loss

                # eps as in the pipeline audit: 1e-4 steps leave truncation
                # error near the 1e-7 tolerance on rows this short
                err = nx.finite_difference_check(f, nx.tensor(base[which], dtype=np.float64), eps=1e-5)
                assert err < 1e-7, f"{variant}/{which}: err={err}"

    def test_records_one_tape_node(self):
        """The whole loss is one node; its input is the encoded matrix,
        plus theta when the L2 term is on."""
        batch = _batch_from_shifts([[1.0, 0.0]], [[0.5, 0.5]], [1])
        theta = nx.tensor([1.0, 2.0], dtype=np.float64)
        for lam, inputs in ((0.0, (batch.encoded,)), (0.01, (batch.encoded, theta))):
            with nx.GradTape() as tape:
                batch_loss(batch, HyperParams(l2_lambda=lam), theta)
            assert len(tape._nodes) == 1
            assert tape._nodes[0].inputs == inputs

    def test_leading_axes_match_batch_loss(self):
        """The kernel over (P, B, d) rows gives, point by point, the bits
        batch_loss gives for each (B, d) batch, L2 term included."""
        rng = np.random.default_rng(24)
        P, B, d = 3, 4, 5
        mats = [rng.normal(size=(P, B, d)) for _ in range(4)]
        theta = rng.normal(size=(P, 6))
        labels = np.array([1, 0, 1, 0])
        for variant in ("hinge", "literal"):
            hp = HyperParams(margin=0.25, loss_variant=variant, l2_lambda=0.01)
            fwd = batch_loss_forward(*mats, labels, hp, theta)
            assert fwd.loss.shape == (P,) and fwd.energies.shape == (P, B)
            for k in range(P):
                out = batch_loss(_stacked([m[k] for m in mats], labels), hp,
                                 nx.tensor(theta[k], dtype=np.float64))
                assert fwd.loss[k] == out.loss.item()
                np.testing.assert_array_equal(fwd.energies[k], out.energies)

    @pytest.mark.parametrize("short", ["candidate", "prototype"])
    def test_degenerate_rows_agree_with_rank_candidates(self, short):
        """Around COSINE_EPSILON the loss and the ranking call the same
        shifts degenerate: a row whose short shift sits just under it
        scores 0 in both, one just over it scores its cosine, 1 here."""
        norms = COSINE_EPSILON * np.array([0.5, 1 - 1e-6, 1 + 1e-6, 2.0])
        e1 = np.array([1.0, 0.0, 0.0])
        for n in norms:
            cand, proto = (n, 1.0) if short == "candidate" else (1.0, n)
            # shifts f(q) - f(d) = -cand e1 and f(qp) - f(ap) = -proto e1
            ranked = rank_candidates(np.zeros(3), [cand * e1], [(np.zeros(3), proto * e1)])
            fwd = batch_loss_forward(np.zeros((1, 3)), [proto * e1], np.zeros((1, 3)), [cand * e1],
                                     np.array([1]), HyperParams())
            degenerate = bool(n < COSINE_EPSILON)
            assert ranked.degenerate_count == int(degenerate)
            assert bool(fwd.usable[0]) is not degenerate
            assert ranked.entries[0].score == (0.0 if degenerate else 1.0)
            assert fwd.energies[0] == pytest.approx(0.0 if degenerate else 1.0, abs=1e-12)
            assert energy(ShiftPair(-cand * e1, -proto * e1)) == (ranked.entries[0].score, degenerate)

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            EncodedBatch(nx.tensor(np.zeros((2, 2))), np.zeros((4, 0), dtype=int), np.zeros(0))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            _batch_from_shifts([[1.0, 0.0]], [[1.0, 0.0]], [2])

    def test_bad_rows_rejected(self):
        """Rows must be a (4, B) int table of indices into the encoded
        matrix."""
        m = nx.tensor(np.zeros((3, 2)))
        for rows in ([[3]] * 4, [[-1]] * 4, [[0]] * 3, [0, 1, 2, 0], [[0.0]] * 4):
            with pytest.raises(ShapeError):
                EncodedBatch(m, np.array(rows), np.zeros(len(np.atleast_2d(rows)[0])))

    def test_shape_validation(self):
        m = nx.tensor(np.zeros((3, 2)))
        rows = np.zeros((4, 2), dtype=int)
        with pytest.raises(ShapeError):
            EncodedBatch(nx.tensor(np.zeros(3)), rows, np.zeros(2))
        with pytest.raises(ShapeError):
            EncodedBatch(m, rows, np.zeros(3))
        for masks in (np.ones((4, 2, 3), np.float32), np.ones((4, 2), np.float32),
                      np.ones((4, 2, 2), np.float32)):
            with pytest.raises(ShapeError):
                EncodedBatch(m, rows, np.zeros(2), masks)
