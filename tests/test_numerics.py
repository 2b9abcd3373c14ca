"""Tensor, tape, and gradient correctness.

The finite-difference checker is itself validated first against closed-form
derivatives, then used as the oracle for every op's backward rule and for a
full recurrent-cell chain.
"""

import threading
import warnings

import numpy as np
import pytest
from scipy.special import expit

from analogia import numerics as nx

F32_TOL = 1e-4
F64_TOL = 1e-7


class TestTensorConstruction:
    def test_list_defaults_to_float32(self):
        t = nx.tensor([1.0, 2.0, 3.0])
        assert t.dtype == np.float32

    def test_float_array_dtype_preserved(self):
        assert nx.tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
        assert nx.tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32

    def test_int_array_promoted_to_default(self):
        assert nx.tensor(np.arange(4)).dtype == np.float32

    def test_rank_cap(self):
        with pytest.raises(nx.ShapeError):
            nx.tensor(np.zeros((2, 2, 2)))

    def test_zero_size_rejected(self):
        with pytest.raises(nx.ShapeError):
            nx.tensor(np.zeros((0, 3)))
        with pytest.raises(nx.ShapeError):
            nx.tensor([])

    def test_values_are_read_only(self):
        t = nx.tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.values[0] = 9.0

    def test_construction_copies_input(self):
        src = np.array([1.0, 2.0], dtype=np.float32)
        t = nx.tensor(src)
        src[0] = 99.0
        assert t.values[0] == 1.0

    def test_scalar_item(self):
        assert nx.tensor(np.float64(2.5)).item() == 2.5


class TestFiniteDifferenceOracle:
    """Validate the checker against functions with known gradients before
    trusting it as the oracle for everything else."""

    def test_quadratic_exact(self):
        """f(x) = sum(x*x) has gradient 2x; the checker must report a tiny
        error since central differences are exact for quadratics up to
        rounding."""
        x = nx.tensor(np.linspace(-2, 2, 7), dtype=np.float64)
        err = nx.finite_difference_check(lambda t: nx.sum_all(nx.hadamard(t, t)), x)
        assert err < 1e-10

    def test_detects_wrong_gradient(self):
        """A function whose recorded backward rule is deliberately broken by
        construction (watched tensor unused, analytic gradient zero) must
        produce a large reported error."""
        rng = np.random.default_rng(3)
        shadow = nx.tensor(rng.normal(size=4), dtype=np.float64)

        def f(t):
            # ignores t entirely except through a detached copy
            detached = nx.tensor(t.values, dtype=np.float64)
            return nx.sum_all(nx.hadamard(detached, shadow))

        x = nx.tensor(rng.normal(size=4), dtype=np.float64)
        err = nx.finite_difference_check(f, x)
        assert err > 1e-2

    def test_relative_error_formula(self):
        """Error is |a-n| / max(1, |a|, |n|): scaling the function up by 1e6
        must not scale the reported error by 1e6."""
        x = nx.tensor([0.3, -0.7], dtype=np.float64)
        small = nx.finite_difference_check(lambda t: nx.sum_all(nx.hadamard(t, t)), x)
        big = nx.finite_difference_check(
            lambda t: nx.scale(nx.sum_all(nx.hadamard(t, t)), 1e6), x)
        assert big < max(small, 1e-10) * 1e4

    def test_rejects_bad_eps(self):
        x = nx.tensor([1.0])
        with pytest.raises(ValueError):
            nx.finite_difference_check(lambda t: nx.sum_all(t), x, eps=0.0)

    def test_rejects_nonscalar_function(self):
        x = nx.tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            nx.finite_difference_check(lambda t: t, x)

    def test_rejects_nonfinite_evaluation(self):
        big = nx.tensor([1e5], dtype=np.float64)  # 64th power overflows float64

        def overflow(t):
            y = t
            for _ in range(6):
                y = nx.hadamard(y, y)
            return nx.sum_all(y)

        with np.errstate(over="ignore"):
            with pytest.raises(ValueError):
                nx.finite_difference_check(overflow, big)


_SHADOW = np.random.default_rng(3).normal(size=4)


def _detached_dot(t):
    # the watched tensor reaches the loss only through a detached copy
    return nx.sum_all(nx.hadamard(nx.tensor(t.values, dtype=np.float64),
                                  nx.tensor(_SHADOW, dtype=np.float64)))


class TestVectorisedFiniteDifferences:
    """The batch_f path against the per-coordinate loop on the oracle
    functions above: same central differences, so the same error up to the
    rounding of numpy's reductions in place of the tape ops'."""

    CASES = {
        "quadratic": (lambda t: nx.sum_all(nx.hadamard(t, t)),
                      lambda P: (P * P).sum(axis=1)),
        "scaled quadratic": (lambda t: nx.scale(nx.sum_all(nx.hadamard(t, t)), 1e6),
                             lambda P: (P * P).sum(axis=1) * 1e6),
        "wrong gradient": (_detached_dot, lambda P: P @ _SHADOW),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_loop(self, case, dtype):
        f, batch_f = self.CASES[case]
        x = nx.tensor(np.random.default_rng(5).normal(size=4), dtype=dtype)
        loop = nx.finite_difference_check(f, x, eps=1e-5)
        vectorised = nx.finite_difference_check(f, x, eps=1e-5, batch_f=batch_f)
        assert vectorised == pytest.approx(loop, rel=1e-6, abs=1e-10)

    def test_rejects_nonfinite_evaluation(self):
        big = nx.tensor([1e5], dtype=np.float64)  # 64th power overflows float64

        def overflow(t):
            y = t
            for _ in range(6):
                y = nx.hadamard(y, y)
            return nx.sum_all(y)

        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                nx.finite_difference_check(overflow, big, batch_f=lambda P: (P ** 64).sum(axis=1))

    def test_rejects_wrong_value_count(self):
        x = nx.tensor([1.0, 2.0], dtype=np.float64)
        with pytest.raises(ValueError):
            nx.finite_difference_check(lambda t: nx.sum_all(t), x, batch_f=lambda P: P.sum())


def _check_both_precisions(make_f, make_x, seeds=(0, 1, 2)):
    """FD-check a scalar function at float32 and float64 over several seeds.

    make_f(dtype, rng) returns the function, make_x(rng) the evaluation
    point (a float64 ndarray cast per precision).
    """
    for seed in seeds:
        for dtype, tol in ((np.float32, F32_TOL), (np.float64, F64_TOL)):
            rng = np.random.default_rng(seed)
            f = make_f(dtype, rng)
            x = nx.tensor(make_x(rng), dtype=dtype)
            err = nx.finite_difference_check(f, x)
            assert err < tol, f"seed={seed} dtype={dtype.__name__} err={err}"


class TestOpGradients:
    """Every op's backward rule against the finite-difference oracle, at
    both working precisions."""

    def test_matmul_matrix_matrix(self):
        def mk(dtype, rng):
            b = nx.tensor(rng.normal(size=(4, 5)), dtype=dtype)
            return lambda t: nx.sum_all(nx.matmul(t, b))
        _check_both_precisions(mk, lambda rng: rng.normal(size=(3, 4)))

    def test_matmul_matrix_vector(self):
        def mk(dtype, rng):
            w = nx.tensor(rng.normal(size=(4, 3)), dtype=dtype)
            return lambda t: nx.sum_all(nx.matmul(w, t))
        _check_both_precisions(mk, lambda rng: rng.normal(size=3))

    def test_matmul_vector_matrix(self):
        def mk(dtype, rng):
            w = nx.tensor(rng.normal(size=(3, 4)), dtype=dtype)
            return lambda t: nx.sum_all(nx.matmul(t, w))
        _check_both_precisions(mk, lambda rng: rng.normal(size=3))

    def test_matmul_dot_product(self):
        def mk(dtype, rng):
            v = nx.tensor(rng.normal(size=5), dtype=dtype)
            return lambda t: nx.matmul(t, v)
        _check_both_precisions(mk, lambda rng: rng.normal(size=5))

    def test_matmul_right_operand_gradient(self):
        def mk(dtype, rng):
            a = nx.tensor(rng.normal(size=(3, 4)), dtype=dtype)
            return lambda t: nx.sum_all(nx.matmul(a, t))
        _check_both_precisions(mk, lambda rng: rng.normal(size=(4, 2)))

    def test_add_same_shape(self):
        def mk(dtype, rng):
            b = nx.tensor(rng.normal(size=(3, 4)), dtype=dtype)
            return lambda t: nx.sum_all(nx.hadamard(nx.add(t, b), nx.add(t, b)))
        _check_both_precisions(mk, lambda rng: rng.normal(size=(3, 4)))

    def test_add_row_broadcast(self):
        """(B, n) + (n,) broadcasts the vector over rows; its gradient is
        the column sum of the upstream gradient."""
        def mk(dtype, rng):
            m = nx.tensor(rng.normal(size=(5, 3)), dtype=dtype)
            return lambda t: nx.sum_all(nx.tanh(nx.add(m, t)))
        _check_both_precisions(mk, lambda rng: rng.normal(size=3))

    def test_sub_both_operands_and_broadcast(self):
        def mk_left(dtype, rng):
            b = nx.tensor(rng.normal(size=4), dtype=dtype)
            return lambda t: nx.sum_all(nx.hadamard(nx.sub(t, b), nx.sub(t, b)))
        _check_both_precisions(mk_left, lambda rng: rng.normal(size=4))

        def mk_bcast(dtype, rng):
            m = nx.tensor(rng.normal(size=(5, 3)), dtype=dtype)
            return lambda t: nx.sum_all(nx.tanh(nx.sub(m, t)))
        _check_both_precisions(mk_bcast, lambda rng: rng.normal(size=3))

    def test_hadamard(self):
        def mk(dtype, rng):
            b = nx.tensor(rng.normal(size=(2, 6)), dtype=dtype)
            return lambda t: nx.sum_all(nx.hadamard(t, b))
        _check_both_precisions(mk, lambda rng: rng.normal(size=(2, 6)))

    def test_sigmoid(self):
        def mk(dtype, rng):
            return lambda t: nx.sum_all(nx.sigmoid(t))
        _check_both_precisions(mk, lambda rng: rng.normal(size=(3, 3)))

    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-15)])
    def test_sigmoid_matches_expit(self, dtype, atol):
        """(1 + tanh(x/2)) / 2 against scipy's logistic, out to where both
        saturate, without an overflow or other warning."""
        x = np.concatenate([np.linspace(-100.0, 100.0, 4001), [-100.0, -1e-8, 0.0, 1e-8, 100.0]]).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nx.sigmoid(nx.tensor(x)).values
        assert out.dtype == dtype
        np.testing.assert_allclose(out, expit(x), rtol=0, atol=atol)

    def test_tanh(self):
        def mk(dtype, rng):
            return lambda t: nx.sum_all(nx.tanh(t))
        _check_both_precisions(mk, lambda rng: rng.normal(size=7))

    def test_relu_away_from_kink(self):
        def mk(dtype, rng):
            return lambda t: nx.sum_all(nx.relu(t))
        # keep evaluation points well clear of 0 where relu is not smooth
        _check_both_precisions(
            mk, lambda rng: np.where(rng.normal(size=8) > 0, 1.0, -1.0) * rng.uniform(0.5, 2.0, size=8))

    def test_sqrt_positive_domain(self):
        def mk(dtype, rng):
            return lambda t: nx.sum_all(nx.sqrt(t))
        _check_both_precisions(mk, lambda rng: rng.uniform(0.5, 3.0, size=6))

    def test_div(self):
        def mk(dtype, rng):
            b = nx.tensor(rng.uniform(1.0, 2.0, size=5), dtype=dtype)
            return lambda t: nx.sum_all(nx.div(t, b))
        _check_both_precisions(mk, lambda rng: rng.normal(size=5))

    def test_div_denominator_gradient(self):
        def mk(dtype, rng):
            a = nx.tensor(rng.normal(size=5), dtype=dtype)
            return lambda t: nx.sum_all(nx.div(a, t))
        _check_both_precisions(mk, lambda rng: rng.uniform(1.0, 2.0, size=5))

    def test_scale(self):
        def mk(dtype, rng):
            return lambda t: nx.sum_all(nx.scale(t, -2.5))
        _check_both_precisions(mk, lambda rng: rng.normal(size=(2, 3)))

    def test_maximum_distinct_values(self):
        def mk(dtype, rng):
            b = nx.tensor(rng.normal(size=6) + 5.0, dtype=dtype)
            return lambda t: nx.sum_all(nx.maximum(t, b))
        _check_both_precisions(mk, lambda rng: rng.normal(size=6))

    def test_concat_vectors(self):
        def mk(dtype, rng):
            b = nx.tensor(rng.normal(size=3), dtype=dtype)
            return lambda t: nx.sum_all(nx.tanh(nx.concat([t, b])))
        _check_both_precisions(mk, lambda rng: rng.normal(size=4))

    def test_concat_matrices_both_axes(self):
        for axis in (0, 1):
            def mk(dtype, rng, axis=axis):
                b = nx.tensor(rng.normal(size=(3, 3)), dtype=dtype)
                return lambda t: nx.sum_all(nx.tanh(nx.concat([t, b], axis=axis)))
            _check_both_precisions(mk, lambda rng: rng.normal(size=(3, 3)))

    def test_stack_rows(self):
        def mk(dtype, rng):
            other = nx.tensor(rng.normal(size=4), dtype=dtype)
            return lambda t: nx.sum_all(nx.tanh(nx.stack_rows([t, other, t])))
        _check_both_precisions(mk, lambda rng: rng.normal(size=4))

    def test_maxpool_time_distinct_maxima(self):
        def mk(dtype, rng):
            return lambda t: nx.sum_all(nx.maxpool_time(t))
        # spread values so column maxima are unique and FD steps cannot flip them
        _check_both_precisions(
            mk, lambda rng: rng.permuted(np.linspace(-3, 3, 15).reshape(5, 3), axis=0))

    def test_sum_axis_both(self):
        for axis in (0, 1):
            def mk(dtype, rng, axis=axis):
                return lambda t: nx.sum_all(nx.tanh(nx.sum_axis(t, axis)))
            _check_both_precisions(mk, lambda rng: rng.normal(size=(4, 3)) * 0.3)

    def test_transpose(self):
        def mk(dtype, rng):
            b = nx.tensor(rng.normal(size=(3, 4)), dtype=dtype)
            return lambda t: nx.sum_all(nx.matmul(nx.transpose(t), b))
        _check_both_precisions(mk, lambda rng: rng.normal(size=(3, 4)))

    def _affine2_parts(self, dtype, rng, batched):
        x = nx.tensor(rng.normal(size=(2, 4) if batched else 4), dtype=dtype)
        w = nx.tensor(rng.normal(size=(4, 3)), dtype=dtype)
        h = nx.tensor(rng.normal(size=(2, 3) if batched else 3), dtype=dtype)
        u = nx.tensor(rng.normal(size=(3, 3)), dtype=dtype)
        b = nx.tensor(rng.normal(size=3), dtype=dtype)
        return x, w, h, u, b

    def test_affine2_equals_composition(self):
        for batched in (False, True):
            rng = np.random.default_rng(8)
            x, w, h, u, b = self._affine2_parts(np.float64, rng, batched)
            fused = nx.affine2(x, w, h, u, b)
            composed = nx.add(nx.add(nx.matmul(x, w), nx.matmul(h, u)), b)
            np.testing.assert_array_equal(fused.values, composed.values)

    @pytest.mark.parametrize("slot", range(5))
    @pytest.mark.parametrize("batched", [False, True])
    def test_affine2_gradients(self, slot, batched):
        def mk(dtype, rng):
            parts = list(self._affine2_parts(dtype, rng, batched))
            def f(t):
                args = list(parts)
                args[slot] = t
                return nx.sum_all(nx.tanh(nx.affine2(*args)))
            return f
        def mk_x(rng):
            parts = self._affine2_parts(np.float64, rng, batched)
            return parts[slot].values
        _check_both_precisions(mk, mk_x)

    def test_sum_squares_value(self):
        a = nx.tensor(np.array([1.0, 2.0]))
        b = nx.tensor(np.array([[3.0], [4.0]]))
        out = nx.sum_squares([a, b])
        assert out.ndim == 0
        assert out.item() == pytest.approx(1 + 4 + 9 + 16)

    def test_sum_squares_gradients(self):
        def mk(dtype, rng):
            other = nx.tensor(rng.normal(size=(2, 3)), dtype=dtype)
            return lambda t: nx.sum_squares([t, other])
        _check_both_precisions(mk, lambda rng: rng.normal(size=(3, 2)))

    def test_sum_squares_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            nx.sum_squares([])

    def test_affine2_shape_errors(self):
        rng = np.random.default_rng(0)
        x, w, h, u, b = self._affine2_parts(np.float64, rng, True)
        bad_w = nx.tensor(rng.normal(size=(5, 3)))
        with pytest.raises(nx.ShapeError, match="inner dims"):
            nx.affine2(x, bad_w, h, u, b)
        with pytest.raises(nx.ShapeError, match="both be vectors or matrices"):
            nx.affine2(x, w, nx.tensor(rng.normal(size=3)), u, b)
        with pytest.raises(nx.ShapeError, match="output widths"):
            nx.affine2(x, w, h, u, nx.tensor(rng.normal(size=4)))
        with pytest.raises(nx.ShapeError, match="batch sizes"):
            nx.affine2(x, w, nx.tensor(rng.normal(size=(3, 3))), u, b)

    def _blend_parts(self, dtype, rng, batched):
        shape = (2, 4) if batched else 4
        z = nx.tensor(expit(rng.normal(size=shape)), dtype=dtype)
        a = nx.tensor(rng.normal(size=shape), dtype=dtype)
        b = nx.tensor(rng.normal(size=shape), dtype=dtype)
        return z, a, b

    def test_blend_equals_composition_bitwise(self):
        # forward values and all three gradients must match the unfused
        # sub/hadamard/hadamard/add graph exactly, at both precisions
        for dtype in (np.float32, np.float64):
            for batched in (False, True):
                rng = np.random.default_rng(12)
                z, a, b = self._blend_parts(dtype, rng, batched)
                with nx.GradTape() as tape:
                    tape.watch(z, a, b)
                    fused = nx.blend(z, a, b)
                    loss_f = nx.sum_all(nx.tanh(fused))
                gf = tape.gradient(loss_f)
                one = nx.tensor(np.ones(z.shape), dtype=dtype)
                with nx.GradTape() as tape:
                    tape.watch(z, a, b)
                    composed = nx.add(nx.hadamard(nx.sub(one, z), a), nx.hadamard(z, b))
                    loss_c = nx.sum_all(nx.tanh(composed))
                gc = tape.gradient(loss_c)
                np.testing.assert_array_equal(fused.values, composed.values)
                for t in (z, a, b):
                    np.testing.assert_array_equal(gf[t], gc[t])

    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("batched", [False, True])
    def test_blend_gradients(self, slot, batched):
        def mk(dtype, rng):
            parts = list(self._blend_parts(dtype, rng, batched))
            def f(t):
                args = list(parts)
                args[slot] = t
                return nx.sum_all(nx.tanh(nx.blend(*args)))
            return f
        def mk_x(rng):
            return self._blend_parts(np.float64, rng, batched)[slot].values
        _check_both_precisions(mk, mk_x)

    def test_blend_shape_errors(self):
        z = nx.tensor([0.5, 0.5])
        with pytest.raises(nx.ShapeError, match="do not conform"):
            nx.blend(z, nx.tensor([1.0, 2.0, 3.0]), nx.tensor([1.0, 2.0]))
        with pytest.raises(nx.ShapeError, match="do not conform"):
            nx.blend(z, nx.tensor([1.0, 2.0]), nx.tensor([[1.0, 2.0]]))
        with pytest.raises(TypeError, match="expected Tensor"):
            nx.blend(z, np.array([1.0, 2.0]), nx.tensor([1.0, 2.0]))


class TestTieRouting:
    def test_maxpool_gradient_goes_to_earliest_max_row(self):
        with nx.GradTape() as tape:
            m = nx.tensor([[1.0, 5.0], [1.0, 5.0], [0.0, 2.0]])
            tape.watch(m)
            loss = nx.sum_all(nx.maxpool_time(m))
        g = tape.gradient(loss)[m]
        expected = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        np.testing.assert_array_equal(g, expected)

    def test_maximum_tie_routes_to_first_operand(self):
        with nx.GradTape() as tape:
            a = nx.tensor([2.0, 3.0])
            b = nx.tensor([2.0, 1.0])
            tape.watch(a, b)
            loss = nx.sum_all(nx.maximum(a, b))
        grads = tape.gradient(loss)
        np.testing.assert_array_equal(grads[a], [1.0, 1.0])
        np.testing.assert_array_equal(grads[b], [0.0, 0.0])

    def test_maxpool_forward_values(self):
        m = nx.tensor([[1.0, -2.0], [3.0, -1.0], [2.0, -3.0]])
        np.testing.assert_array_equal(nx.maxpool_time(m).values, [3.0, -1.0])


class TestRecurrentCellChain:
    """Gradient of a full gated recurrent step through every op family at
    once: two sigmoid gates, a tanh candidate, convex state blend."""

    @staticmethod
    def _cell(params, x, h_prev):
        Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh = params
        z = nx.sigmoid(nx.add(nx.add(nx.matmul(Wz, x), nx.matmul(Uz, h_prev)), bz))
        r = nx.sigmoid(nx.add(nx.add(nx.matmul(Wr, x), nx.matmul(Ur, h_prev)), br))
        hc = nx.tanh(nx.add(nx.add(nx.matmul(Wh, x), nx.matmul(Uh, nx.hadamard(r, h_prev))), bh))
        one = nx.tensor(np.ones(z.shape[0]), dtype=z.dtype)
        return nx.add(nx.hadamard(nx.sub(one, z), h_prev), nx.hadamard(z, hc))

    def _make_f(self, dtype, rng, which):
        n, h = 3, 4
        shapes = [(h, n), (h, h), (h,)] * 3
        raw = [rng.normal(size=s) * 0.5 for s in shapes]
        xs = [rng.normal(size=n) * 0.5 for _ in range(3)]

        def f(t):
            params = [t if i == which else nx.tensor(raw[i], dtype=t.dtype)
                      for i in range(9)]
            state = nx.tensor(np.zeros(h), dtype=t.dtype)
            for xv in xs:
                state = self._cell(params, nx.tensor(xv, dtype=t.dtype), state)
            pooled = nx.maxpool_time(nx.stack_rows([state, nx.scale(state, 0.5)]))
            return nx.sum_all(nx.hadamard(pooled, pooled))

        return f, raw[which]

    @pytest.mark.parametrize("which", range(9))
    def test_unrolled_chain_gradient(self, which):
        for dtype, tol in ((np.float32, F32_TOL), (np.float64, F64_TOL)):
            rng = np.random.default_rng(11)
            f, x0 = self._make_f(dtype, rng, which)
            err = nx.finite_difference_check(f, nx.tensor(x0, dtype=dtype))
            assert err < tol, f"param {which} dtype {dtype.__name__} err={err}"


class TestTapeContract:
    def test_single_use(self):
        tape = nx.GradTape()
        with tape:
            x = nx.tensor([1.0, 2.0])
            tape.watch(x)
            loss = nx.sum_all(x)
        tape.gradient(loss)
        with pytest.raises(nx.TapeError):
            tape.gradient(loss)

    def test_reenter_consumed_tape(self):
        tape = nx.GradTape()
        with tape:
            x = nx.tensor([1.0])
            tape.watch(x)
            loss = nx.sum_all(x)
        tape.gradient(loss)
        with pytest.raises(nx.TapeError):
            with tape:
                pass

    def test_nonscalar_loss_rejected(self):
        with nx.GradTape() as tape:
            x = nx.tensor([1.0, 2.0])
            tape.watch(x)
            y = nx.tanh(x)
        with pytest.raises(ValueError):
            tape.gradient(y)

    def test_unused_watched_tensor_gets_zeros(self):
        with nx.GradTape() as tape:
            x = nx.tensor([1.0, 2.0])
            unused = nx.tensor(np.zeros((2, 2)))
            tape.watch(x, unused)
            loss = nx.sum_all(x)
        grads = tape.gradient(loss)
        np.testing.assert_array_equal(grads[unused], np.zeros((2, 2)))
        np.testing.assert_array_equal(grads[x], [1.0, 1.0])

    def test_watch_rejects_non_tensor(self):
        with nx.GradTape() as tape:
            with pytest.raises(TypeError):
                tape.watch(np.zeros(3))

    def test_gradient_dtype_matches_watched_tensor(self):
        with nx.GradTape() as tape:
            x = nx.tensor([1.0, 2.0], dtype=np.float64)
            tape.watch(x)
            loss = nx.sum_all(nx.hadamard(x, x))
        assert tape.gradient(loss)[x].dtype == np.float64

    def test_fan_out_accumulates(self):
        """A tensor consumed by two ops receives the sum of both paths'
        gradients: d/dx of (x.x + sum(x)) = 2x + 1."""
        with nx.GradTape() as tape:
            x = nx.tensor([1.0, -2.0, 3.0], dtype=np.float64)
            tape.watch(x)
            loss = nx.add(nx.matmul(x, x), nx.sum_all(x))
        g = tape.gradient(loss)[x]
        np.testing.assert_allclose(g, 2.0 * x.values + 1.0, rtol=1e-12)

    def test_ops_without_tape_do_not_record(self):
        y = nx.tanh(nx.tensor([0.5]))
        assert isinstance(y, nx.Tensor)

    def test_threads_have_independent_tapes(self):
        """A tape entered on one thread must not capture ops run on another."""
        results = {}

        def worker():
            # no tape active on this thread
            y = nx.sum_all(nx.tensor([1.0, 2.0]))
            results["worker"] = y.item()

        with nx.GradTape() as tape:
            x = nx.tensor([3.0])
            tape.watch(x)
            th = threading.Thread(target=worker)
            th.start()
            th.join()
            loss = nx.sum_all(x)
        assert results["worker"] == 3.0
        assert len(tape._nodes) == 1  # only this thread's op was recorded
        tape.gradient(loss)


class TestShapeAndDispatchErrors:
    def test_matmul_misaligned(self):
        with pytest.raises(nx.ShapeError):
            nx.matmul(nx.tensor(np.zeros((2, 3))), nx.tensor(np.zeros((4, 2))))

    def test_matmul_scalar_operand(self):
        with pytest.raises(nx.ShapeError):
            nx.matmul(nx.tensor(1.0), nx.tensor([1.0]))

    def test_add_nonconforming(self):
        with pytest.raises(nx.ShapeError):
            nx.add(nx.tensor(np.zeros((2, 3))), nx.tensor(np.zeros(2)))

    def test_hadamard_requires_same_shape(self):
        with pytest.raises(nx.ShapeError):
            nx.hadamard(nx.tensor(np.zeros((2, 3))), nx.tensor(np.zeros(3)))

    def test_concat_rank_mismatch(self):
        with pytest.raises(nx.ShapeError):
            nx.concat([nx.tensor([1.0]), nx.tensor(np.zeros((1, 1)))])

    def test_concat_axis_out_of_range(self):
        with pytest.raises(nx.ShapeError):
            nx.concat([nx.tensor([1.0]), nx.tensor([2.0])], axis=1)

    def test_stack_rows_unequal_lengths(self):
        with pytest.raises(nx.ShapeError):
            nx.stack_rows([nx.tensor([1.0, 2.0]), nx.tensor([1.0])])

    def test_maxpool_requires_matrix(self):
        with pytest.raises(nx.ShapeError):
            nx.maxpool_time(nx.tensor([1.0, 2.0]))

    def test_sqrt_negative_rejected(self):
        with pytest.raises(ValueError):
            nx.sqrt(nx.tensor([-1.0]))

    def test_transpose_requires_matrix(self):
        with pytest.raises(nx.ShapeError):
            nx.transpose(nx.tensor([1.0, 2.0]))

    def test_op_outputs_are_immutable(self):
        y = nx.add(nx.tensor([1.0]), nx.tensor([2.0]))
        with pytest.raises(ValueError):
            y.values[0] = 0.0
