"""Minimal reverse-mode automatic differentiation over numpy arrays.

A deliberately bounded op set: what the ranking model needs and nothing
more.  The ops are ``add``, ``mul``, ``scale``, ``matmul``, ``affine``,
``reshape``, ``concat``, ``slice_``, ``sigmoid``, ``tanh``, ``relu``,
``sin``, ``softmax``, ``softmax_nll``, ``embedding_lookup``,
``multi_head_attention`` and ``sliding_window_concat``.  Ops executed
while a ComputationRecord is active append entries in execution order,
so replaying the entry list backwards visits every node exactly once
with all adjoints already accumulated.  Ops executed with no active
record are plain forward evaluation (used for scoring).

``add`` broadcasts as numpy does, and so do the leading (batch) axes of
``matmul``; each sums an adjoint back to its operand's shape over the
axes broadcasting added or stretched.  ``matmul`` and ``affine`` run a
stack of matrices times one matrix as one product of all the stack's
rows.  That 2-D product, when it is above OpenBLAS's small-matrix
bound and one of its outer sides has only a few rows or columns, runs in
blocks under the bound (``_product``): above it, OpenBLAS packs the
operands on every call.  ``slice_`` and ``concat`` take stacks along
their first two axes, and ``reshape``, the one layout op, permutes by its
``axes`` first, so a transpose or a merge of heads is one entry.  Every
other op requires exact shape agreement and raises ShapeError otherwise.
``softmax_nll`` is a training instance's whole loss in one op: -log
softmax over (1, 1) scores, with the stabilising shift by their largest
taken inside the op.  Each thread (or asyncio task) has its own active
record, so concurrent callers record separate graphs.  Training runs in
float32; float64 exists for gradient checking.

The record keeps only what backward reads.  An op's output is marked
with its node number (``Tensor.node``), and an entry names each input by
that number, by the leaf itself for a ``requires_grad`` input, or by None
for a constant; it holds no other tensor.  Each gradient formula closes
over just the arrays it reads (``mul`` its two operands, ``relu`` its
output) and otherwise only shapes and dtypes, so an ``add``'s operands or
a ``reshape``'s input die with their last forward use.  ``backward``
releases each entry as it replays it.

Every adjoint and every leaf ``grad`` is a plain array of its tensor's
shape.  A leaf the loss does not reach keeps ``grad`` None and its
``grad_buffer`` untouched, as a leaf no op recorded does.  A leaf's
adjoints are added into its ``grad`` in place, each as it arrives, so no
leaf adjoint outlives the formula that made it, and the backward passes
of several graphs sum into one gradient per leaf.  A leaf's first
adjoint is copied into the leaf's ``grad_buffer`` when it has one
(``training.Adam`` gives each parameter its view into one flat gradient
store), else into a fresh array; no adjoint array is ever adopted as a
``grad``.

A gradient formula is called as ``backward_fn(g, owned)`` and returns
arrays it made or views of ``g``, never an array it keeps.  ``owned``
says whether backward owns ``g``, that is, whether no one else holds
its memory.  An adjoint is owned when it is a sum backward made itself,
or when a formula returned it as an array (or a view of one) that the
formula made, or that it was handed as an owned ``g``, and handed it to
exactly one input.  One array handed to two inputs (``add``'s ``g, g``),
or views of one array (``concat``'s parts), is owned by neither.  The
formulas of ``relu``, ``scale``, ``mul``, ``sigmoid`` and ``softmax``
write their result into an owned ``g``, and the first sum into a
tensor's adjoint goes into whichever addend is owned; each write gives
the bits a new array would.  Ownership lives in the locals of one
``backward`` call, never in module state, so concurrent callers stay
apart.
"""

from __future__ import annotations

import contextvars
import itertools
import math

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    pass


class NotRecordedError(ValueError):
    """``backward`` was given a loss its record did not produce, or replays a record twice."""


class Tensor:
    """A numpy array plus an optional gradient accumulator.

    ``grad_buffer`` (None, or an array of the tensor's shape) is where a
    backward pass writes the tensor's gradient when ``grad`` is None.
    ``node`` is None, or (record marker, entry index) for the output of a
    recorded op.
    """

    __slots__ = ("data", "grad", "grad_buffer", "requires_grad", "name", "node")

    def __init__(self, data, requires_grad=False, name=None, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.grad_buffer = None
        self.requires_grad = requires_grad
        self.name = name
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, dtype={self.data.dtype})"


def parameter(data, name=None, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name, dtype=dtype)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


class _Entry:
    """One recorded op: its name, a key per input and its gradient formula.

    An input's key is the index of the entry that produced it on this
    record, the input itself when it is a leaf (``requires_grad``), or None
    for a constant.  So no entry holds a non-leaf tensor, and an op's
    output lives on only in what a later formula reads.
    """

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


_ACTIVE_RECORD = contextvars.ContextVar("active_record", default=None)


class ComputationRecord:
    """Ordered log of executed ops; context manager activates it for this context."""

    def __init__(self):
        self.entries: list[_Entry | None] = []  # None once replayed
        self._marker = object()  # first half of the ``node`` of every output recorded here
        self._token = None

    @staticmethod
    def active() -> ComputationRecord | None:
        """The record active in this thread or task, or None."""
        return _ACTIVE_RECORD.get()

    def __enter__(self):
        if _ACTIVE_RECORD.get() is not None:
            raise RuntimeError("a ComputationRecord is already active")
        self._token = _ACTIVE_RECORD.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_RECORD.reset(self._token)
        self._token = None
        return False

    def _key(self, t: Tensor):
        """``t``'s entry index on this record, ``t`` itself for a leaf, else None."""
        node = t.node
        if node is not None and node[0] is self._marker:
            return node[1]
        return t if t.requires_grad else None

    def _append(self, op, inputs, out, backward_fn):
        keys = tuple(map(self._key, inputs))
        if all(key is None for key in keys):
            return
        out.node = (self._marker, len(self.entries))
        self.entries.append(_Entry(op, keys, backward_fn))

    def backward(self, loss: Tensor):
        """Add the loss's gradient into ``grad`` of every leaf it reaches.

        ``loss`` must be a scalar output of an op recorded here, and a
        record replays once: anything else raises NotRecordedError.
        Adjoints are keyed by the index of the entry that produced their
        tensor, so a tensor that died during the forward pass takes nothing
        with it.  Each entry is set to None as it is replayed, which frees
        what its formula kept, so the graph shrinks as the pass goes.

        A leaf's adjoint is added into its ``grad`` in place as soon as a
        formula returns it, so no leaf adjoint is held or summed apart.
        Gradients accumulate into existing ``grad`` arrays (callers zero
        them between batches); a leaf the loss does not reach is left as
        it is.  A ``grad`` this sets is the leaf's ``grad_buffer`` or a
        fresh array, never an adjoint, so it shares memory with no other
        leaf and several backward passes (one per graph of a batch) sum
        into it.

        Each formula is told whether its adjoint is owned (module
        docstring), and a sum goes into an owned addend of its dtype, so
        the pass makes no array for a result that can overwrite one.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if loss.node is None or loss.node[0] is not self._marker:
            raise NotRecordedError("backward: the loss was not recorded on this record")
        if self.entries[loss.node[1]] is None:
            raise NotRecordedError("backward: this record was already replayed")
        adjoint = {loss.node[1]: np.ones_like(loss.data)}
        owned = {loss.node[1]}  # keys whose adjoint no one else holds (module docstring)
        for n in range(len(self.entries) - 1, -1, -1):
            entry, self.entries[n] = self.entries[n], None
            g = adjoint.pop(n, None)
            if g is None:
                continue
            mine = n in owned
            owned.discard(n)
            grads = entry.backward_fn(g, mine)
            # The memory each adjoint lies in; one held twice is owned by neither key.
            roots = [id(_root(gt)) for gt in grads if gt is not None]
            for key, gt in zip(entry.inputs, grads):
                if key is None or gt is None:
                    continue
                if isinstance(key, Tensor):
                    _accumulate(key, gt)
                    continue
                root = _root(gt)
                sole = roots.count(id(root)) == 1 and (mine or root is not _root(g))
                if (prev := adjoint.get(key)) is None:
                    adjoint[key] = gt
                    if sole:
                        owned.add(key)
                    continue
                # A sum lands in an owned operand when that keeps prev + gt's dtype.
                if key in owned and prev.dtype == gt.dtype:
                    prev += gt
                elif sole and gt.dtype == prev.dtype:
                    gt += prev
                    adjoint[key] = gt
                else:
                    adjoint[key] = prev + gt
                owned.add(key)
            del grads  # so the formula's leaf adjoints die before the next formula runs


def _root(x: np.ndarray) -> np.ndarray:
    """The array whose memory ``x`` lies in: ``x`` itself, or the array it is a view of."""
    return x if x.base is None else x.base


def _accumulate(leaf: Tensor, g: np.ndarray):
    """Add the adjoint ``g`` into ``leaf.grad`` in place.

    Only an adjoint that reached the leaf comes here, so an unreached
    leaf keeps ``grad`` None.  A leaf with no ``grad`` yet gets a copy of
    ``g`` in its ``grad_buffer`` (a fresh array when it has none), so
    later in-place adds touch this leaf alone.
    """
    if leaf.grad is not None:
        leaf.grad += g
        return
    grad = leaf.grad_buffer if leaf.grad_buffer is not None else np.empty_like(leaf.data)
    np.copyto(grad, g)
    leaf.grad = grad


def _record(op, inputs, out_data, backward_fn):
    out = Tensor(out_data)
    rec = _ACTIVE_RECORD.get()
    if rec is not None:
        rec._append(op, inputs, out, backward_fn)
    return out


def _need_2d(op, *tensors, stacked=False):
    """ShapeError unless every tensor is 2-D (or, with ``stacked``, has 2 or more axes)."""
    for t in tensors:
        if t.data.ndim != 2 and not (stacked and t.data.ndim > 2):
            raise ShapeError(f"{op}: expected {'2-D or stacked' if stacked else '2-D'} "
                             f"operand, got shape {t.data.shape}")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add, broadcasting as numpy does (a bias row, a stack of rows)."""
    shape_a, shape_b = a.data.shape, b.data.shape
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {shape_a} and {shape_b}") from None
    if shape_a == shape_b:
        return _record("add", (a, b), out, _both)
    return _record("add", (a, b), out,
                   _Unbroadcast(None if shape_a == out.shape else shape_a,
                                None if shape_b == out.shape else shape_b))


def _both(g, owned):
    """The gradient formula of an add of equal shapes: ``g`` for each operand."""
    return g, g


class _Unbroadcast:
    """The gradient formula of a broadcasting add: ``g`` summed to each operand's shape.

    A record keeps one formula per add, so this one is small: two slots
    with the operand shapes, None for a shape that is the output's (that
    adjoint is ``g`` itself), where a closure over both shapes would hold
    a function, its cells and both shape tuples.
    """

    __slots__ = ("shape_a", "shape_b")

    def __init__(self, shape_a, shape_b):
        self.shape_a, self.shape_b = shape_a, shape_b

    def __call__(self, g, owned):
        a, b = self.shape_a, self.shape_b
        return (g if a is None else _unbroadcast(g, a)), (g if b is None else _unbroadcast(g, b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    x, y = a.data, b.data

    def backward_fn(g, owned):
        gb = g * x  # before an owned g is overwritten
        return np.multiply(g, y, out=g if owned else None), gb

    return _record("mul", (a, b), x * y, backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)
    return _record("scale", (a,), a.data * c,
                   lambda g, owned: (np.multiply(g, c, out=g if owned else None),))


# numpy's bundled OpenBLAS (scipy-openblas 0.3.31) runs a float32 or
# float64 product on its small-matrix kernels, which read the operands in
# place, only while M*N*K <= _SMALL_GEMM.  Above that it packs both
# operands on every call, and with a few rows (or columns) the packing
# costs more than the arithmetic.  On one thread of an AVX-512 Xeon:
#   (10,288)@(288,347) takes 17 us and (10,288)@(288,348) 31 us;
#   the key product (1152,288)@(288,10) 116 us whole, 80 us in row blocks;
#   the filter bank (10,864)@(864,288) 79 us whole, 50 us in column blocks.
# Per product, blocks gain at 5 and 10 rows, break even at 20 and lose at
# 28.  One rank operation (in process, median of 7) took 195.4 ms with no
# blocks, and 191.4, 183.4 and 181.5-182.0 ms with _SKINNY at 8, 16 and
# anywhere in 20-64.  ``tools/gemm_bound.py`` times these shapes again on
# another BLAS or CPU.
_SMALL_GEMM = 1_000_000
_SKINNY = 32


def _block_plan(m: int, k: int, n: int) -> tuple[int, list[int]]:
    """How ``_product`` cuts an (m, k) @ (k, n) product: (axis, cut points).

    Axis 0 cuts the output's rows, axis 1 its columns; the cut points run
    from 0 to that side's length.  A product above ``_SMALL_GEMM`` whose
    smaller outer side is below ``_SKINNY`` is cut along its larger outer
    side into balanced blocks that each stay within the bound.  Every
    other product, and one whose every row (or column) alone exceeds the
    bound, is one block of rows.
    """
    skinny = min(m, n)
    if m * k * n <= _SMALL_GEMM or skinny >= _SKINNY or skinny * k > _SMALL_GEMM:
        return 0, [0, m]
    axis, length = (0, m) if m >= n else (1, n)
    blocks = -(-length // (_SMALL_GEMM // (skinny * k)))
    # A list, not tuple() of a generator: that builds a tuple of a guessed
    # length and resizes it, so each call would leave one more block on
    # CPython's tuple free list, which tracemalloc (and peak_mb) counts.
    return axis, [length * i // blocks for i in range(blocks + 1)]


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` of 2-D arrays, in the blocks of ``_block_plan`` written into one output."""
    m, k = x.shape
    n = y.shape[1]
    # The plan's first two tests, inline: a product they make one call
    # (every one of the full-size train workload's) skips the plan's
    # function call, which cost a train operation 0.1-0.2% in process.
    if m * k * n <= _SMALL_GEMM or min(m, n) >= _SKINNY:
        return x @ y
    axis, cuts = _block_plan(m, k, n)
    out = np.empty((m, n), np.result_type(x, y))
    for lo, hi in zip(cuts, cuts[1:]):
        if axis == 0:
            np.matmul(x[lo:hi], y, out=out[lo:hi])
        else:
            np.matmul(x, y[:, lo:hi], out=out[:, lo:hi])
    return out


def _rows(x: np.ndarray) -> np.ndarray:
    """A 2-D array itself, or a stack of matrices as the matrix of all their rows."""
    return x if x.ndim == 2 else x.reshape(-1, x.shape[-1])


def _stacked(rows: np.ndarray, lead) -> np.ndarray:
    """The inverse of ``_rows``: ``rows`` with its leading axis split back into ``lead``."""
    return rows if len(lead) == 1 else rows.reshape(lead + rows.shape[1:])


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` over the axes that broadcasting added or stretched.

    Each sum is one new array of its result's shape (no view onto it), and
    no sum runs when there are no axes to sum.
    """
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    stretched = [i for i, (n, m) in enumerate(zip(shape, g.shape)) if n == 1 and m != 1]
    return g.sum(axis=tuple(stretched), keepdims=True) if stretched else g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in numpy.

    A stack of matrices times one matrix is one product of all the
    stack's rows, where numpy would run one product per matrix; a skinny
    one above the small-matrix bound runs in blocks (``_product``).
    """
    x, y = a.data, b.data
    if x.ndim < 2 or y.ndim < 2 or x.shape[-1] != y.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {x.shape} and {y.shape}")
    if y.ndim == 2:
        rows = _rows(x)

        def backward_fn(g, owned):
            g_rows = _rows(g)
            return _stacked(g_rows @ y.T, g.shape[:-1]), rows.T @ g_rows

        return _record("matmul", (a, b), _stacked(_product(rows, y), x.shape[:-1]), backward_fn)
    try:
        out = x @ y
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {x.shape} and {y.shape}") from None

    return _record("matmul", (a, b), out,
                   lambda g, owned: (_unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape),
                                     _unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape)))


def reshape(a: Tensor, shape, axes=None) -> Tensor:
    """``a`` with its axes permuted by ``axes``, then reshaped to ``shape``.

    With ``axes`` the output is always a C-contiguous copy, the layout a
    product reads fastest, and its adjoint a view of ``g``; without, it is
    a view of ``a`` where numpy can make one.
    """
    x = a.data
    if axes is not None:
        if sorted(axes) != list(range(x.ndim)):
            raise ShapeError(f"reshape: {axes} is not a permutation of {x.ndim} axes")
        inverse = tuple(np.argsort(axes).tolist())  # before the copy, so not beside it at peak
        x = np.ascontiguousarray(x.transpose(axes))
    try:
        out = x.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: {exc}") from None
    shape_x = x.shape
    if axes is None:
        return _record("reshape", (a,), out, lambda g, owned: (g.reshape(shape_x),))
    return _record("reshape", (a,), out,
                   lambda g, owned: (g.reshape(shape_x).transpose(inverse),))


def concat(parts, axis: int) -> Tensor:
    """Join 2-D or stacked tensors along their first (0) or second (1) axis."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: no operands")
    _need_2d("concat", *parts, stacked=True)
    if axis not in (0, 1):
        raise ShapeError(f"concat: axis must be 0 or 1, got {axis}")

    offsets = list(itertools.accumulate((p.data.shape[axis] for p in parts), initial=0))

    def backward_fn(g, owned):
        return tuple(
            g[offsets[i]:offsets[i + 1]] if axis == 0 else g[:, offsets[i]:offsets[i + 1]]
            for i in range(len(offsets) - 1))

    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from None
    return _record("concat", tuple(parts), out, backward_fn)


def slice_(a: Tensor, rows=slice(None), cols=slice(None)) -> Tensor:
    """Basic rectangular slicing of the first two axes of a 2-D or stacked tensor."""
    _need_2d("slice", a, stacked=True)
    key = (rows, cols)
    shape, dtype = a.data.shape, a.data.dtype

    def backward_fn(g, owned):
        ga = np.zeros(shape, dtype)
        ga[key] = g
        return (ga,)

    return _record("slice", (a,), a.data[key].copy(), backward_fn)


def _unary(op, a, out_data, dfn):
    return _record(op, (a,), out_data, lambda g, owned: (dfn(g, owned),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)

    def dfn(g, owned):
        gx = np.multiply(g, y, out=g if owned else None)
        gx *= 1.0 - y
        return gx

    return _unary("sigmoid", a, y, dfn)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _unary("tanh", a, y, lambda g, owned: g * (1.0 - y * y))


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0)
    return _unary("relu", a, y, lambda g, owned: np.multiply(g, y > 0, out=g if owned else None))


def sin(a: Tensor) -> Tensor:
    x = a.data
    return _unary("sin", a, np.sin(x), lambda g, owned: g * np.cos(x))


def softmax(a: Tensor, axis: int, mask: np.ndarray | None = None) -> Tensor:
    """Softmax along ``axis`` with optional boolean keep-mask.

    Masked positions get exactly zero weight and zero gradient.  The
    stabilizing max subtraction is treated as a constant shift, which is
    exact for softmax.  A fully masked row is an error: callers decide
    what an empty distribution means.
    """
    x = a.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask.any(axis=axis).all():
            raise ShapeError("softmax: a row has no unmasked entries")
        y = np.where(mask, x, x.dtype.type(-np.inf))
        y -= y.max(axis=axis, keepdims=True)
    else:
        y = x - x.max(axis=axis, keepdims=True)
    # In place from here on: one array of the input's size.
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward_fn(g, owned):
        inner = (g * y).sum(axis=axis, keepdims=True)
        gx = np.subtract(g, inner, out=g if owned else None)
        gx *= y
        return (gx,)

    return _record("softmax", (a,), y, backward_fn)


def softmax_nll(parts, target: int) -> Tensor:
    """-log of part ``target``'s softmax probability among (1, 1) ``parts``, as (1, 1).

    Computed as log(sum_j exp(x_j - shift)) + shift - x_target with shift
    the largest part, so it stays finite for any finite parts even when
    the probability underflows to zero.  The shift cancels in the
    gradient: part j gets p_j, and the target p_target - 1, times the
    incoming adjoint.
    """
    parts = list(parts)
    for p in parts:
        if p.data.shape != (1, 1):
            raise ShapeError(f"softmax_nll: expected (1, 1) parts, got shape {p.data.shape}")
    if not 0 <= target < len(parts):
        raise IndexError(f"softmax_nll: target {target} outside [0, {len(parts)})")
    x = np.concatenate([p.data for p in parts], axis=1)
    shift = x.max()
    e = np.exp(x - shift)
    z = e.sum(dtype=x.dtype).reshape(1, 1)
    out = (np.log(z) + shift) + -x[:, target:target + 1]

    def backward_fn(g, owned):
        ge = e * (g / z)
        grads = [ge[:, j:j + 1] for j in range(len(parts))]
        grads[target] = -g + grads[target]
        return tuple(grads)

    return _record("softmax_nll", tuple(parts), out, backward_fn)


class _RowScatter:
    """Sums gradient rows gathered by ``ids`` back into the rows they came from.

    When every id is distinct there is nothing to sum, and the rows are
    assigned.  Otherwise a stable sort lines each id's positions up in
    their original order and ``np.add.reduceat`` sums each run.  Built
    once per ids array, so every ``write`` over the same ids shares the sort.
    """

    def __init__(self, ids: np.ndarray):
        self.ids = ids
        self.order = np.argsort(ids, kind="stable")
        sorted_ids = ids[self.order]
        self.starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        self.rows = sorted_ids[self.starts]

    def write(self, out: np.ndarray, g: np.ndarray):
        """Set the rows of ``out`` (R, w) that ids name to their summed ``g`` (n, w) rows.

        Rows no id names are left as they are.
        """
        if len(self.rows) == len(self.ids):
            out[self.ids] = g
        else:
            out[self.rows] = np.add.reduceat(g[self.order], self.starts, axis=0)


def _check_ids(op, ids: np.ndarray, n_rows: int):
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise IndexError(f"{op}: id outside [0, {n_rows})")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table``; gradient scatter-adds into the looked-up rows."""
    _need_2d("embedding_lookup", table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding_lookup: ids must be 1-D, got shape {ids.shape}")
    _check_ids("embedding_lookup", ids, table.data.shape[0])
    shape, dtype = table.data.shape, table.data.dtype

    def backward_fn(g, owned):
        gt = np.zeros(shape, dtype)
        _RowScatter(ids).write(gt, g)
        return (gt,)

    return _record("embedding_lookup", (table,), table.data[ids], backward_fn)


def _fold_last(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced over the last axis (kept, as length 1), one slice at a time.

    Much faster than ``ufunc.reduce`` along a short last axis, which pays
    a fixed cost per row.
    """
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        ufunc(out, x[..., j], out=out)
    return out[..., None]


def multi_head_attention(table: Tensor, ids, mask, n_heads: int) -> Tensor:
    """Masked multi-head self-attention within each of N sequences of L positions.

    Row r of ``table`` (R, 3 d) holds a query, a key and a value side by
    side, each split into ``n_heads`` heads of d / n_heads columns; position
    (i, j) reads row ``ids[i, j]``.  ``mask`` (N, L) marks the real
    positions, and a position attends to the real positions of its own
    sequence by softmax(q . k) over them.  Returns the (N*L, d) per-position
    outputs, heads side by side.  While a record tracks ``table``, the
    backward keeps the attention weights and ``table``'s own (R, 3 d)
    array, and gathers each position's query, key or value from it again
    when it needs one: a title's tokens are few, its positions many.
    Per-position queries, keys and values are dropped once used.
    """
    _need_2d("multi_head_attention", table)
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if ids.ndim != 2 or mask.shape != ids.shape or table.data.shape[1] % (3 * n_heads):
        raise ShapeError(f"multi_head_attention: ids {ids.shape} and mask {mask.shape} do not "
                         f"index a table {table.data.shape} of 3 x {n_heads} heads")
    _check_ids("multi_head_attention", ids, table.data.shape[0])
    if not mask.any(axis=1).all():
        raise ShapeError("multi_head_attention: a sequence has no unmasked position")
    n, length = ids.shape
    d = table.data.shape[1] // 3
    d_head = d // n_heads
    table_shape, table_dtype = table.data.shape, table.data.dtype
    # (3, heads, R, d_head): part i (query, key, value) of every row, per head.
    parts = table.data.reshape(-1, 3, n_heads, d_head).transpose(1, 2, 0, 3)

    # Everything per position is laid out (heads, N, L, .).
    attn = parts[0][:, ids] @ parts[1][:, ids].swapaxes(2, 3)
    np.copyto(attn, table.data.dtype.type(-np.inf), where=~mask[None, :, None, :])
    attn -= _fold_last(np.maximum, attn)
    np.exp(attn, out=attn)
    attn /= _fold_last(np.add, attn)
    out = (attn @ parts[2][:, ids]).transpose(1, 2, 0, 3).reshape(n * length, d)

    def backward_fn(g, owned):
        g = g.reshape(n, length, n_heads, d_head).transpose(2, 0, 1, 3)
        d_scores = g @ parts[2][:, ids].swapaxes(2, 3)  # d attn, then d scores in place
        d_scores -= _fold_last(np.add, d_scores * attn)
        d_scores *= attn
        # One part at a time: the per-position query, key or value
        # gradients, scattered into that part's columns of every row.
        scatter = _RowScatter(ids.reshape(-1))
        gt = np.zeros(table_shape, table_dtype)
        per_position = np.empty((n, length, n_heads, d_head), dtype=g.dtype)
        for i, (x, source) in enumerate(((d_scores, 1), (d_scores.swapaxes(2, 3), 0),
                                         (attn.swapaxes(2, 3), None))):
            y = g if source is None else parts[source][:, ids]
            np.matmul(x, y, out=per_position.transpose(2, 0, 1, 3))
            del y
            scatter.write(gt[:, i * d:(i + 1) * d], per_position.reshape(n * length, d))
        return (gt,)

    return _record("multi_head_attention", (table,), out, backward_fn)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer x @ w + b over the last axis of x, with b of shape (out,).

    A stacked x is one product of all its rows, in blocks when skinny, as
    in ``matmul``; b is added once, to the whole product.
    """
    _need_2d("affine", x, stacked=True)
    _need_2d("affine", w)
    if b.data.ndim != 1 or x.data.shape[-1] != w.data.shape[0] or b.data.shape[0] != w.data.shape[1]:
        raise ShapeError(
            f"affine: incompatible shapes x{x.data.shape} w{w.data.shape} b{b.data.shape}")
    rows, wd = _rows(x.data), w.data
    out = _product(rows, wd)
    out += b.data

    def backward_fn(g, owned):
        g_rows = _rows(g)
        return _stacked(g_rows @ wd.T, g.shape[:-1]), rows.T @ g_rows, g_rows.sum(axis=0)

    return _record("affine", (x, w, b), _stacked(out, x.data.shape[:-1]), backward_fn)


def sliding_window_concat(a: Tensor, h: int) -> Tensor:
    """Per row i, concatenate rows i-h .. i+h (zeros beyond the ends).

    Turns an (m, d) matrix into (m, (2h+1)*d); window 0 is the identity.
    """
    _need_2d("sliding_window_concat", a)
    if h < 0:
        raise ShapeError(f"sliding_window_concat: window half-width {h} < 0")
    m, d = a.data.shape
    dtype = a.data.dtype
    padded = np.zeros((m + 2 * h, d), dtype=dtype)
    padded[h:h + m] = a.data
    out = np.concatenate([padded[k:k + m] for k in range(2 * h + 1)], axis=1)

    def backward_fn(g, owned):
        gp = np.zeros((m + 2 * h, d), dtype)
        for k in range(2 * h + 1):
            gp[k:k + m] += g[:, k * d:(k + 1) * d]
        return (gp[h:h + m],)

    return _record("sliding_window_concat", (a,), out, backward_fn)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(fn, params, eps=1e-5, max_coords_per_param=64, seed=0) -> float:
    """Max error between analytic and central-difference gradients, per parameter scale.

    ``fn`` rebuilds the forward pass from the current parameter data and
    returns a scalar Tensor.  A parameter's error is its largest
    |analytic - numeric| over the sampled coordinates, divided by
    max |analytic| + max |numeric| + 1e-8 over the same coordinates; the
    worst parameter's error is returned.  A coordinate whose gradient is
    far below its parameter's scale is thus not judged on finite-difference
    noise alone, and the error never exceeds the per-coordinate
    |analytic - numeric| / (|analytic| + |numeric| + 1e-8).
    """
    params = list(params)
    for p in params:
        p.grad = None
    with ComputationRecord() as rec:
        loss = fn()
    rec.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        if not len(coords):
            continue
        # Differences are taken in the loss's dtype, so a loss computed in
        # extended precision keeps its extra digits.
        numeric = np.empty(len(coords), dtype=np.promote_types(loss.data.dtype, np.float64))
        for k, idx in enumerate(coords):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = fn().data.reshape(())
            flat[idx] = orig - eps
            f_minus = fn().data.reshape(())
            flat[idx] = orig
            numeric[k] = f_plus - f_minus
        numeric /= 2.0 * eps
        a = ga.reshape(-1)[coords]
        scale = np.abs(a).max() + np.abs(numeric).max() + 1e-8
        worst = max(worst, float(np.abs(a - numeric).max() / scale))
    for p in params:
        p.grad = None
    return worst


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=None):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(
        dtype if dtype is not None else DEFAULT_DTYPE)
