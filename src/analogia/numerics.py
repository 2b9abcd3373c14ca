"""Dense rank-0..2 tensors with a minimal reverse-mode gradient tape.

Ops compute eagerly on numpy arrays.  While a :class:`GradTape` is active on
the current thread, every op appends a node carrying a closure that maps the
output gradient to per-input gradients; ``GradTape.gradient`` replays the
node list in exact reverse execution order.  Tapes are single-use and
first-order only.

Tensors are immutable (the backing array is marked read-only), so they are
safe to share across threads; a tape is confined to the thread that entered
it, and independent tapes on different threads do not interact.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested op."""


class TapeError(RuntimeError):
    """Gradient tape misuse: reuse after gradient() or a non-entered tape."""


class Tensor:
    """Immutable dense array of rank 0, 1 or 2.

    Construction copies the input and freezes it.  Rank 0 is used only for
    scalars (losses, dot products); all positive-rank dims must be nonzero.
    """

    __slots__ = ("_data",)

    def __init__(self, data, dtype=None):
        if dtype is not None:
            arr = np.array(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and np.issubdtype(data.dtype, np.floating):
            arr = np.array(data)
        else:
            arr = np.array(data, dtype=DEFAULT_DTYPE)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are rank <= 2, got shape {arr.shape}")
        if arr.size == 0:
            raise ShapeError(f"zero-size tensor not allowed, got shape {arr.shape}")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for op outputs: takes ownership, no copy.
        out = object.__new__(cls)
        arr.setflags(write=False)
        out._data = arr
        return out

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the backing array."""
        return self._data

    @property
    def shape(self) -> tuple:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def item(self) -> float:
        return float(self._data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


def tensor(data, dtype=None) -> Tensor:
    """Construct a Tensor; lists default to float32, float arrays keep dtype."""
    return Tensor(data, dtype=dtype)


def zeros(shape, dtype=None) -> Tensor:
    return Tensor._wrap(np.zeros(shape, dtype=dtype or DEFAULT_DTYPE))


# ---------------------------------------------------------------------------
# Gradient tape
# ---------------------------------------------------------------------------

_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


class _Node:
    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs, output, backward):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class GradTape:
    """Records ops executed while entered; replays them backward once.

    Usage::

        with GradTape() as tape:
            tape.watch(w)
            loss = ...ops...
        grads = tape.gradient(loss)   # {w: ndarray}

    A tape belongs to the thread that entered it.  ``gradient`` may be
    called after exiting the ``with`` block, but only once.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._watched: list[Tensor] = []
        self._consumed = False
        self._entered = False

    def __enter__(self) -> "GradTape":
        if self._consumed or self._entered:
            raise TapeError("a GradTape is single-use; create a fresh one")
        self._entered = True
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape stack corrupted: exiting a tape that is not innermost")
        stack.pop()
        return False

    def watch(self, *tensors: Tensor) -> None:
        """Register tensors whose gradients gradient() must report."""
        for t in tensors:
            if not isinstance(t, Tensor):
                raise TypeError(f"can only watch Tensor, got {type(t).__name__}")
            self._watched.append(t)

    def gradient(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """d(loss)/d(t) for every watched tensor t; zeros if t is unused.

        ``loss`` must be a rank-0 tensor produced while this tape was active.
        Consumes the tape.
        """
        if self._consumed:
            raise TapeError("tape already consumed by a previous gradient() call")
        self._consumed = True
        if not isinstance(loss, Tensor):
            raise TypeError("loss must be a Tensor")
        if loss.ndim != 0:
            raise ValueError(f"loss must be scalar (rank 0), got shape {loss.shape}")

        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
        # Reverse execution order.  Each tensor is produced by exactly one
        # node, so by the time we reach its producer every consumer has
        # already deposited its contribution and the entry can be popped.
        for node in reversed(self._nodes):
            out_grad = grads.pop(id(node.output), None)
            if out_grad is None:
                continue
            for inp, g in zip(node.inputs, node.backward(out_grad)):
                if g is None:
                    continue
                acc = grads.get(id(inp))
                grads[id(inp)] = g if acc is None else acc + g
        result: dict[Tensor, np.ndarray] = {}
        for t in self._watched:
            g = grads.get(id(t))
            result[t] = np.zeros(t.shape, dtype=t.dtype) if g is None else np.asarray(g, dtype=t.dtype)
        return result


def _emit(output_arr: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    out = Tensor._wrap(output_arr)
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        stack[-1]._nodes.append(_Node(inputs, out, backward_fn))
    return out


def _check_tensor(op: str, *ts):
    for t in ts:
        if not isinstance(t, Tensor):
            raise TypeError(f"{op}: expected Tensor operands, got {type(t).__name__}")


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product: 2x2, 2x1, 1x2 or 1x1 (dot) rank combinations."""
    _check_tensor("matmul", a, b)
    av, bv = a.values, b.values
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError(f"matmul: rank-0 operand, shapes {a.shape} and {b.shape}")
    inner_a = av.shape[-1]
    inner_b = bv.shape[0]
    if inner_a != inner_b:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} not aligned")
    out = av @ bv

    def back(g):
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T, av.T @ g
        if av.ndim == 2 and bv.ndim == 1:
            return np.outer(g, bv), av.T @ g
        if av.ndim == 1 and bv.ndim == 2:
            return bv @ g, np.outer(av, g)
        return g * bv, g * av  # vector . vector -> scalar

    return _emit(out, (a, b), back)


def _elementwise_pair(op: str, av: np.ndarray, bv: np.ndarray):
    """Validate shapes for add/sub: equal, or matrix op row-vector broadcast."""
    if av.shape == bv.shape:
        return "same"
    if av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        return "row_b"
    if av.ndim == 1 and bv.ndim == 2 and bv.shape[1] == av.shape[0]:
        return "row_a"
    raise ShapeError(f"{op}: shapes {av.shape} and {bv.shape} do not conform")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a (B,n) matrix accepts a length-n vector broadcast over rows."""
    _check_tensor("add", a, b)
    av, bv = a.values, b.values
    kind = _elementwise_pair("add", av, bv)
    out = av + bv

    def back(g):
        ga = g.sum(axis=0) if kind == "row_a" else g
        gb = g.sum(axis=0) if kind == "row_b" else g
        return ga, gb

    return _emit(out, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference, same broadcast rules as add."""
    _check_tensor("sub", a, b)
    av, bv = a.values, b.values
    kind = _elementwise_pair("sub", av, bv)
    out = av - bv

    def back(g):
        ga = g.sum(axis=0) if kind == "row_a" else g
        gb = -(g.sum(axis=0)) if kind == "row_b" else -g
        return ga, gb

    return _emit(out, (a, b), back)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    _check_tensor("hadamard", a, b)
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ShapeError(f"hadamard: shapes {av.shape} and {bv.shape} do not conform")
    out = av * bv
    return _emit(out, (a, b), lambda g: (g * bv, g * av))


def square(a: Tensor) -> Tensor:
    """x*x, recorded as a hadamard with itself."""
    return hadamard(a, a)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function as (1 + tanh(x/2)) / 2, which cannot overflow."""
    _check_tensor("sigmoid", a)
    out = np.tanh(a.values * 0.5)
    out += 1.0
    out *= 0.5
    return _emit(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    _check_tensor("tanh", a)
    out = np.tanh(a.values)
    return _emit(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    """max(x, 0); subgradient 0 at exactly 0."""
    _check_tensor("relu", a)
    av = a.values
    out = np.maximum(av, 0.0).astype(a.dtype, copy=False)
    mask = av > 0
    return _emit(out, (a,), lambda g: (g * mask,))


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; negative entries are a domain error."""
    _check_tensor("sqrt", a)
    if np.any(a.values < 0):
        raise ValueError("sqrt: negative entries")
    out = np.sqrt(a.values)
    return _emit(out, (a,), lambda g: (g * 0.5 / out,))


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient of same-shape tensors."""
    _check_tensor("div", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} do not conform")
    av, bv = a.values, b.values
    out = av / bv
    return _emit(out, (a, b), lambda g: (g / bv, -g * av / (bv * bv)))


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar constant."""
    _check_tensor("scale", a)
    c = float(factor)
    out = a.values * np.asarray(c, dtype=a.dtype)
    return _emit(out, (a,), lambda g: (g * c,))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient routes to the first operand."""
    _check_tensor("maximum", a, b)
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ShapeError(f"maximum: shapes {av.shape} and {bv.shape} do not conform")
    mask = av >= bv
    out = np.where(mask, av, bv)
    return _emit(out, (a, b), lambda g: (g * mask, g * ~mask))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate vectors (axis 0) or matrices (axis 0 or 1)."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat: no inputs")
    _check_tensor("concat", *parts)
    ndim = parts[0].ndim
    if ndim == 0 or any(p.ndim != ndim for p in parts):
        raise ShapeError(f"concat: mixed or rank-0 shapes {[p.shape for p in parts]}")
    if axis not in (0, 1) or axis >= ndim:
        raise ShapeError(f"concat: axis {axis} invalid for rank {ndim}")
    other = 1 - axis
    if ndim == 2 and any(p.shape[other] != parts[0].shape[other] for p in parts):
        raise ShapeError(f"concat: shapes {[p.shape for p in parts]} do not conform on axis {axis}")
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        if ndim == 1:
            return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))
        if axis == 0:
            return tuple(g[offsets[i]:offsets[i + 1], :] for i in range(len(parts)))
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _emit(out, parts, back)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack T equal-length vectors into a (T, d) matrix."""
    rows = tuple(rows)
    if not rows:
        raise ShapeError("stack_rows: no inputs")
    _check_tensor("stack_rows", *rows)
    if any(r.ndim != 1 for r in rows) or any(r.shape != rows[0].shape for r in rows):
        raise ShapeError(f"stack_rows: need equal-length vectors, got {[r.shape for r in rows]}")
    out = np.stack([r.values for r in rows], axis=0)
    return _emit(out, rows, lambda g: tuple(g[i] for i in range(len(rows))))


def maxpool_time(m: Tensor) -> Tensor:
    """Columnwise max of a (T, d) matrix -> length-d vector.

    The backward pass routes each column's gradient to its argmax row only;
    ties go to the earliest time index.
    """
    _check_tensor("maxpool_time", m)
    if m.ndim != 2:
        raise ShapeError(f"maxpool_time: need a (T, d) matrix, got shape {m.shape}")
    mv = m.values
    if mv.shape[0] < 1:
        raise ValueError("maxpool_time: empty time axis")
    arg = np.argmax(mv, axis=0)  # first occurrence wins ties
    out = mv[arg, np.arange(mv.shape[1])]

    def back(g):
        z = np.zeros_like(mv)
        z[arg, np.arange(mv.shape[1])] = g
        return (z,)

    return _emit(out, (m,), back)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries -> rank-0 tensor."""
    _check_tensor("sum_all", a)
    out = np.asarray(a.values.sum(), dtype=a.dtype)
    return _emit(out, (a,), lambda g: (np.full(a.shape, g, dtype=a.dtype),))


def sum_axis(a: Tensor, axis: int) -> Tensor:
    """Row (axis=1) or column (axis=0) sums of a matrix -> vector."""
    _check_tensor("sum_axis", a)
    if a.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"sum_axis: need a matrix and axis in (0, 1), got shape {a.shape}, axis {axis}")
    out = a.values.sum(axis=axis)

    def back(g):
        if axis == 0:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(g[:, None], a.shape).copy(),)

    return _emit(out, (a,), back)


def transpose(a: Tensor) -> Tensor:
    _check_tensor("transpose", a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: need a matrix, got shape {a.shape}")
    out = np.ascontiguousarray(a.values.T)
    return _emit(out, (a,), lambda g: (g.T,))


def sum_squares(tensors) -> Tensor:
    """Sum of squares of every coordinate of every input, as one rank-0
    node; this is the whole L2 penalty in a single op."""
    ts = tuple(tensors)
    if not ts:
        raise ValueError("sum_squares needs at least one tensor")
    _check_tensor("sum_squares", *ts)
    out = np.square(ts[0].values).sum()
    for t in ts[1:]:
        out = out + np.square(t.values).sum()

    def back(g):
        return tuple(g * 2.0 * t.values for t in ts)

    return _emit(np.asarray(out), ts, back)


def affine2(x: Tensor, w: Tensor, h: Tensor, u: Tensor, b: Tensor) -> Tensor:
    """x @ w + h @ u + b as a single node (recurrent gate pre-activation).

    x is (n,) or (B, n) with h of matching rank; w is (n, k), u is (k0, k),
    b is (k,).  The float evaluation order is (x@w + h@u) + b, identical to
    composing matmul/add/add, so fusing never changes values.
    """
    _check_tensor("affine2", x, w, h, u, b)
    xv, wv, hv, uv, bv = x.values, w.values, h.values, u.values, b.values
    if wv.ndim != 2 or uv.ndim != 2 or bv.ndim != 1:
        raise ShapeError(
            f"affine2: w, u must be matrices and b a vector, got {wv.shape}, {uv.shape}, {bv.shape}")
    if xv.ndim not in (1, 2) or hv.ndim != xv.ndim:
        raise ShapeError(f"affine2: x and h must both be vectors or matrices, got {xv.shape}, {hv.shape}")
    if xv.shape[-1] != wv.shape[0] or hv.shape[-1] != uv.shape[0]:
        raise ShapeError(f"affine2: inner dims do not conform: {xv.shape}@{wv.shape}, {hv.shape}@{uv.shape}")
    if wv.shape[1] != uv.shape[1] or bv.shape[0] != wv.shape[1]:
        raise ShapeError(f"affine2: output widths differ: {wv.shape}, {uv.shape}, {bv.shape}")
    if xv.ndim == 2 and xv.shape[0] != hv.shape[0]:
        raise ShapeError(f"affine2: batch sizes differ: {xv.shape} vs {hv.shape}")
    out = (xv @ wv + hv @ uv) + bv

    if xv.ndim == 1:
        def back(g):
            return (g @ wv.T, np.outer(xv, g), g @ uv.T, np.outer(hv, g), g)
    else:
        def back(g):
            return (g @ wv.T, xv.T @ g, g @ uv.T, hv.T @ g, g.sum(axis=0))

    return _emit(out, (x, w, h, u, b), back)


def blend(z: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """(1 - z) * a + z * b as a single node (recurrent state update).

    All three operands must share a shape.  Forward evaluates the same
    float expression as the sub/hadamard/hadamard/add composition, and the
    z gradient (g * b) + (-(g * a)) adds its two terms in the order that
    composition would accumulate them, so fusing never changes values.
    """
    _check_tensor("blend", z, a, b)
    zv, av, bv = z.values, a.values, b.values
    if zv.shape != av.shape or zv.shape != bv.shape:
        raise ShapeError(f"blend: shapes {zv.shape}, {av.shape} and {bv.shape} do not conform")
    omz = 1.0 - zv
    out = omz * av + zv * bv
    return _emit(out, (z, a, b), lambda g: ((g * bv) + (-(g * av)), g * omz, g * zv))


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def finite_difference_check(f: Callable, x: Tensor, eps: float = 1e-4,
                            batch_f: Callable | None = None) -> float:
    """Max relative error between tape gradients of f at x and central
    differences.

    The analytic side runs at x's own dtype; the numeric side always runs in
    float64, since float32 differencing cannot resolve the tolerances this
    check is used to assert.  It evaluates f at 2N perturbed points of x's
    N coordinates, a float64 array of shape (2N,) + x.shape: point k adds
    eps to coordinate k, counting in C order, point N + k subtracts it, and
    every other coordinate stays at x.  Without ``batch_f``, f is called at
    each point in turn; ``batch_f`` takes the whole array in one call and
    returns the 2N values of f, computed in float64.

    Error per coordinate is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    with GradTape() as tape:
        tape.watch(x)
        y = f(x)
    if not isinstance(y, Tensor) or y.ndim != 0:
        raise ValueError("f must return a rank-0 Tensor")
    if not np.isfinite(y.values):
        raise ValueError("f evaluated to a non-finite value at x")
    analytic = tape.gradient(y)[x].astype(np.float64).ravel()

    base = x.values.astype(np.float64)
    n = base.size
    points = np.repeat(base.reshape(1, -1), 2 * n, axis=0)
    k = np.arange(n)
    points[k, k] += eps
    points[n + k, k] -= eps
    points = points.reshape((2 * n,) + base.shape)
    if batch_f is None:
        values = np.array([f(Tensor(point, dtype=np.float64)).item() for point in points])
    else:
        values = np.asarray(batch_f(points), dtype=np.float64)
        if values.shape != (2 * n,):
            raise ValueError(f"batch_f must return {2 * n} values, got shape {values.shape}")
    bad = np.flatnonzero(~np.isfinite(values.reshape(2, n)).all(axis=0))
    if bad.size:
        where = tuple(int(j) for j in np.unravel_index(bad[0], base.shape))
        raise ValueError(f"{'f' if batch_f is None else 'batch_f'} evaluated to a non-finite value "
                         f"near coordinate {where}")

    numeric = (values[:n] - values[n:]) / (2.0 * eps)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
