import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avoidrec.autodiff as ad
from conftest import Traced, total

F64 = np.float64


def p64(arr):
    return ad.parameter(np.asarray(arr, dtype=F64))


def c64(arr):
    return ad.constant(np.asarray(arr, dtype=F64))


class TestForward:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(c64([[0.0]])).data[0, 0] == 0.5

    def test_sigmoid_extremes_stay_finite(self):
        out = ad.sigmoid(c64([[-1000.0, 1000.0]])).data
        assert np.isfinite(out).all()
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_softmax_of_constant_vector_is_uniform(self):
        out = ad.softmax(c64([[3.0] * 7]), axis=1).data
        assert np.allclose(out, 1.0 / 7, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = c64(rng.normal(size=(5, 9)) * 10)
        out = ad.softmax(x, axis=1).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_softmax_mask_zeroes_entries(self):
        mask = np.array([[True, False, True]])
        out = ad.softmax(c64([[1.0, 100.0, 2.0]]), axis=1, mask=mask).data
        assert out[0, 1] == 0.0
        assert np.isclose(out.sum(), 1.0)

    def test_softmax_all_masked_row_is_error(self):
        with pytest.raises(ad.ShapeError):
            ad.softmax(c64([[1.0, 2.0]]), axis=1, mask=np.array([[False, False]]))

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        a = ad.softmax(c64(x), axis=1).data
        b = ad.softmax(c64(x + 123.456), axis=1).data
        assert np.allclose(a, b, atol=1e-12)

    def test_matmul_identity(self):
        x = np.arange(6, dtype=F64).reshape(2, 3)
        out = ad.matmul(c64(np.eye(2)), c64(x)).data
        assert np.array_equal(out, x)

    def test_shape_errors_name_the_op(self):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(c64(np.zeros((2, 3))), c64(np.zeros((2, 3))))
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(c64(np.zeros((2, 3))), c64(np.zeros((3, 2))))
        with pytest.raises(ad.ShapeError, match="mul"):
            ad.mul(c64(np.zeros((2, 3))), c64(np.zeros((2, 2))))

    def test_sliding_window_concat_values(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.sliding_window_concat(c64(x), 1).data
        assert out.shape == (3, 6)
        assert np.array_equal(out[0], [0, 0, 1, 2, 3, 4])        # left pad
        assert np.array_equal(out[1], [1, 2, 3, 4, 5, 6])
        assert np.array_equal(out[2], [3, 4, 5, 6, 0, 0])        # right pad

    def test_sliding_window_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(ad.sliding_window_concat(c64(x), 0).data, x)

    def test_concat_slice_round_trip(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
        joined = ad.concat([c64(a), c64(b)], axis=1)
        assert np.array_equal(ad.slice_(joined, cols=slice(0, 2)).data, a)
        assert np.array_equal(ad.slice_(joined, cols=slice(2, 6)).data, b)

    @pytest.mark.parametrize("seed", [0, 2**20])
    def test_multi_head_attention_matches_composed_ops(self, seed):
        # Forward and table gradient against gathers, slices, matmuls and a
        # masked softmax, with repeated ids, on two independent draws.
        rng = np.random.default_rng(seed)
        n, length, heads, d_head = 3, 5, 2, 4
        d = heads * d_head
        ids = rng.integers(0, 6, size=(n, length))
        mask = rng.random((n, length)) < 0.6
        mask[:, 0] = True
        weights = c64(rng.normal(size=(n * length, d)))
        fused_table, composed_table = (p64(rng.normal(size=(6, 3 * d))) for _ in range(2))
        composed_table.data = fused_table.data.copy()

        with ad.ComputationRecord() as rec:
            fused = ad.multi_head_attention(fused_table, ids, mask, heads)
            loss = total(ad.mul(fused, weights))
        rec.backward(loss)
        with ad.ComputationRecord() as rec:
            rows = ad.embedding_lookup(composed_table, ids.reshape(-1))
            q, k, v = (ad.reshape(ad.reshape(ad.slice_(rows, cols=slice(i * d, (i + 1) * d)),
                                             (n, length, heads, d_head)),
                                  (n, heads, length, d_head), (0, 2, 1, 3)) for i in range(3))
            attn = ad.softmax(ad.matmul(q, ad.reshape(k, (n, heads, d_head, length), (0, 1, 3, 2))),
                              axis=3, mask=mask[:, None, None, :])
            heads_out = ad.matmul(attn, v)
            composed = ad.reshape(heads_out, (n * length, d), (0, 2, 1, 3))
            loss = total(ad.mul(composed, weights))
        rec.backward(loss)
        assert np.allclose(fused.data, composed.data, rtol=0, atol=1e-12)
        assert np.allclose(fused_table.grad, composed_table.grad, rtol=0, atol=1e-12)

    def test_multi_head_attention_rejects_bad_inputs(self):
        table = c64(np.ones((3, 6)))
        ids = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ad.ShapeError):  # a sequence with no real position
            ad.multi_head_attention(table, ids, np.array([[1, 1], [0, 0]], dtype=bool), 1)
        with pytest.raises(ad.ShapeError):  # mask and ids disagree
            ad.multi_head_attention(table, ids, np.ones((3, 2), dtype=bool), 1)
        with pytest.raises(ad.ShapeError):  # 6 columns do not split into 3 x 4 heads
            ad.multi_head_attention(table, ids, np.ones((2, 2), dtype=bool), 4)
        with pytest.raises(IndexError):
            ad.multi_head_attention(table, ids + 3, np.ones((2, 2), dtype=bool), 1)

    def test_embedding_lookup_bounds(self):
        table = p64(np.zeros((4, 2)))
        with pytest.raises(IndexError):
            ad.embedding_lookup(table, [4])

    def test_batched_matmul_matches_per_slice_products(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
        shared = rng.normal(size=(4, 5))
        assert np.allclose(ad.matmul(c64(a), c64(b)).data,
                           np.stack([a[i] @ b[i] for i in range(3)]), atol=1e-12)
        # a 2-D operand broadcasts over the other's leading axis, either side
        assert np.allclose(ad.matmul(c64(a), c64(shared)).data,
                           np.stack([a[i] @ shared for i in range(3)]), atol=1e-12)
        assert np.allclose(ad.matmul(c64(a[0]), c64(b)).data,
                           np.stack([a[0] @ b[i] for i in range(3)]), atol=1e-12)

    def test_batched_matmul_shape_errors(self):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(c64(np.zeros((2, 2, 3))), c64(np.zeros((3, 3, 2))))
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(c64(np.zeros(3)), c64(np.zeros((3, 2))))

    def test_permute_then_reshape(self):
        x = np.arange(24, dtype=F64).reshape(2, 3, 4)
        out = ad.reshape(c64(x), (3, 8), (1, 0, 2)).data
        assert np.array_equal(out, x.transpose(1, 0, 2).reshape(3, 8))
        assert np.array_equal(ad.reshape(c64(x), (6, 4)).data, x.reshape(6, 4))
        with pytest.raises(ad.ShapeError, match="reshape"):
            ad.reshape(c64(x), (5, 5))
        with pytest.raises(ad.ShapeError, match="reshape"):
            ad.reshape(c64(x), (5, 5), (2, 1, 0))
        with pytest.raises(ad.ShapeError, match="reshape"):
            ad.reshape(c64(x), (2, 3, 4), (0, 0, 1))

    @pytest.mark.parametrize("shape, axes, new", [
        ((4, 6), (1, 0), (6, 4)),                    # a matrix transposed
        ((3, 1, 5), (0, 2, 1), (3, 5, 1)),           # a length-1 axis moved: a view in numpy
        ((2, 3, 4), (1, 0, 2), (3, 1, 8)),           # heads merged into a (R, 1, .) stack
        ((2, 3, 4, 5), (0, 2, 1, 3), (2, 4, 15)),
    ])
    def test_permuted_reshape_is_a_contiguous_copy(self, shape, axes, new):
        x = np.arange(np.prod(shape), dtype=F64).reshape(shape)
        out = ad.reshape(c64(x), new, axes).data
        assert np.array_equal(out, x.transpose(axes).reshape(new))
        assert out.flags.c_contiguous

    def test_a_head_merge_records_one_entry(self):
        per_head = p64(np.ones((4, 3, 5)))   # (heads, R, M)
        with ad.ComputationRecord() as rec:
            merged = ad.reshape(per_head, (3, 1, 20), (1, 0, 2))
        assert merged.shape == (3, 1, 20)
        assert [entry.op for entry in rec.entries] == ["reshape"]


class TestBackward:
    def test_sigmoid_chain_quarter_rule(self):
        w = p64([[0.0]])
        c = c64([[3.0]])
        with ad.ComputationRecord() as rec:
            loss = ad.mul(ad.sigmoid(w), c)
        rec.backward(loss)
        assert np.allclose(w.grad, 0.25 * 3.0)

    def test_unreached_leaf_keeps_no_grad(self):
        # A leaf recorded off the loss's path is left as an unrecorded one
        # is: no grad, and its buffer untouched, over two backwards.
        used = p64([[1.0]])
        unused = p64([[2.0]])
        buffer = np.full((1, 1), np.nan)
        unused.grad_buffer = buffer
        for _ in range(2):
            with ad.ComputationRecord() as rec:
                dead_branch = ad.scale(unused, 2.0)  # recorded, not on loss path
                loss = total(ad.scale(used, 3.0))
            rec.backward(loss)
            assert unused.grad is None and dead_branch.grad is None
        assert np.isnan(buffer).all() and unused.grad_buffer is buffer
        assert np.array_equal(used.grad, [[6.0]])

    def test_non_scalar_loss_rejected(self):
        x = p64(np.ones((2, 2)))
        with ad.ComputationRecord() as rec:
            y = ad.scale(x, 2.0)
        with pytest.raises(ad.ShapeError):
            rec.backward(y)

    def test_shared_subgraph_accumulates(self):
        x = p64([[2.0]])
        with ad.ComputationRecord() as rec:
            y = ad.mul(x, x)  # d/dx x^2 = 2x
        rec.backward(y)
        assert np.allclose(x.grad, 4.0)

    def test_grad_accumulates_across_backwards(self):
        x = p64([[1.0]])
        for _ in range(2):
            with ad.ComputationRecord() as rec:
                loss = ad.scale(x, 3.0)
            rec.backward(loss)
        assert np.allclose(x.grad, 6.0)

    @pytest.mark.parametrize("shared", ["same array", "view"])
    def test_leaves_given_one_adjoint_accumulate_separately(self, shared):
        # add hands both operands the same adjoint, and a reshape hands its
        # operand a view of it; in-place accumulation must not leak between them.
        a = p64(np.ones((2, 3)))
        b = p64(np.ones((2, 3)) if shared == "same array" else np.ones(6))
        for _ in range(2):
            with ad.ComputationRecord() as rec:
                b_rows = b if shared == "same array" else ad.reshape(b, (2, 3))
                loss = total(ad.add(a, b_rows))
            rec.backward(loss)
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))
        assert np.array_equal(b.grad, np.full(b.shape, 2.0))
        assert not np.shares_memory(a.grad, b.grad)

    def test_first_adjoint_is_copied_into_the_grad_buffer(self):
        # Both leaves' buffers are filled in place, each with its own first
        # adjoint; a second backward adds into the same arrays.
        a, b = p64(np.ones((2, 3))), p64([[2.0]])
        buffers = [np.full((2, 3), np.nan), np.full((1, 1), np.nan)]
        a.grad_buffer, b.grad_buffer = buffers
        for _ in range(2):
            with ad.ComputationRecord() as rec:
                loss = ad.add(total(ad.scale(a, 3.0)), ad.scale(b, 2.0))
            rec.backward(loss)
        assert a.grad is buffers[0] and b.grad is buffers[1]
        assert np.array_equal(buffers[0], np.full((2, 3), 6.0))
        assert np.array_equal(buffers[1], [[4.0]])

    def test_multi_use_adjoint_sums_every_use(self):
        x = p64([[1.0, 2.0]])
        with ad.ComputationRecord() as rec:
            y = ad.scale(x, 1.0)
            loss = total(ad.add(ad.add(y, y), ad.mul(y, y)))  # 2y + y^2
        rec.backward(loss)
        assert np.allclose(x.grad, 2.0 + 2.0 * x.data, rtol=0, atol=1e-15)

    def test_embedding_grad_is_row_sparse(self):
        table = p64(np.random.default_rng(0).normal(size=(6, 3)))
        with ad.ComputationRecord() as rec:
            loss = total(ad.embedding_lookup(table, [1, 4, 1]))
        rec.backward(loss)
        expected = np.zeros((6, 3))
        expected[1] = 2.0   # looked up twice
        expected[4] = 1.0
        assert np.array_equal(table.grad, expected)

    @pytest.mark.parametrize("seed", [0, 2**20])
    @pytest.mark.parametrize("ids", [[3, 0, 3, 5, 0, 3], [5, 4, 2, 1], [2], []])
    def test_embedding_grad_matches_one_hot_matmul(self, ids, seed):
        # Repeated, unsorted and empty ids, on two independent draws of table
        # and weights: the scatter equals the gradient of one_hot(ids) @ table.
        rng = np.random.default_rng(seed)
        table = p64(rng.normal(size=(7, 4)))
        weights = c64(rng.normal(size=(len(ids), 4)))
        with ad.ComputationRecord() as rec:
            loss = total(ad.mul(ad.embedding_lookup(table, ids), weights))
        rec.backward(loss)
        one_hot = np.eye(7)[np.asarray(ids, dtype=np.int64)].reshape(len(ids), 7)
        assert table.grad.shape == (7, 4)
        assert np.allclose(table.grad, one_hot.T @ weights.data, rtol=0, atol=1e-12)

    def test_loss_of_another_record_rejected(self):
        w = p64([[1.0]])
        with ad.ComputationRecord() as r1:
            l1 = total(ad.scale(w, 2.0))
        with ad.ComputationRecord() as r2:
            total(ad.scale(w, 3.0))
        with pytest.raises(ad.NotRecordedError):
            r2.backward(l1)
        assert w.grad is None
        r1.backward(l1)
        assert np.array_equal(w.grad, [[2.0]])

    def test_unrecorded_loss_rejected(self):
        # No input is tracked, so the sum is plain forward evaluation.
        with ad.ComputationRecord() as rec:
            loss = total(c64([[1.0, 2.0]]))
        assert rec.entries == []
        with pytest.raises(ad.NotRecordedError):
            rec.backward(loss)

    def test_record_replays_once(self):
        w = p64([[1.0]])
        with ad.ComputationRecord() as rec:
            loss = total(ad.scale(w, 2.0))
        rec.backward(loss)
        with pytest.raises(ad.NotRecordedError):
            rec.backward(loss)
        assert np.array_equal(w.grad, [[2.0]])
        assert rec.entries == [None, None, None]  # the op count stays readable

    def test_nested_record_rejected(self):
        with ad.ComputationRecord():
            with pytest.raises(RuntimeError):
                with ad.ComputationRecord():
                    pass

    def test_threads_record_their_own_graphs(self):
        # Each thread has its own active record; none sees another's ops.
        errors = []

        def work(seed):
            try:
                w = p64(np.random.default_rng(seed).normal(size=(2, 2)))
                for _ in range(200):
                    w.grad = None
                    with ad.ComputationRecord() as rec:
                        loss = total(ad.mul(w, w))
                    rec.backward(loss)
                    assert len(rec.entries) == 3
                    assert np.allclose(w.grad, 2.0 * w.data)
            except Exception as exc:  # surfaced in the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestGraphMemory:
    """The record keeps what the gradient formulas read, and backward frees it."""

    SHAPE = (128, 1024)  # 1 MiB of float64

    def test_chain_of_adds_keeps_no_intermediate(self):
        # add's formula reads neither operand nor its output, so each
        # intermediate dies as soon as the chain moves past it.
        x, c = p64(np.zeros(self.SHAPE)), c64(np.ones(self.SHAPE))
        nbytes = x.data.nbytes
        with Traced() as mem:
            with ad.ComputationRecord() as rec:
                y = x
                for _ in range(10):
                    y = ad.add(y, c)
            kept = mem.kept()
        assert len(rec.entries) == 10
        assert kept < 2 * nbytes, f"{kept / nbytes:.2f} arrays kept"

    def test_backward_frees_the_graph_while_the_record_lives(self):
        x = p64(np.full(self.SHAPE, 0.5))
        nbytes = x.data.nbytes
        with Traced() as mem:
            with ad.ComputationRecord() as rec:
                y = x
                for _ in range(10):
                    y = ad.sigmoid(y)  # each formula keeps its output
                loss = total(y)
            del y
            recorded = mem.kept()
            rec.backward(loss)
            kept = mem.kept()
        assert recorded > 10 * nbytes
        assert kept < 2 * nbytes, f"{kept / nbytes:.2f} arrays kept"  # x.grad
        assert len(rec.entries) == 12

    def test_attention_keeps_no_per_position_queries_keys_or_values(self):
        # Many positions read few table rows, so the per-position queries,
        # keys and values (6 MiB here) dwarf the table (24 KiB) and the
        # attention weights (1 MiB), which is what the backward may keep.
        rng = np.random.default_rng(0)
        n, length, heads, d = 64, 32, 2, 128
        table = p64(rng.normal(size=(8, 3 * d)))
        ids = rng.integers(0, 8, size=(n, length))
        mask = np.ones((n, length), dtype=bool)
        attn_bytes = heads * n * length * length * 8
        with Traced() as mem:
            with ad.ComputationRecord() as rec:
                out = ad.multi_head_attention(table, ids, mask, heads)
            del out
            kept = mem.kept()
        assert len(rec.entries) == 1
        assert kept < table.data.nbytes + attn_bytes, f"{kept / attn_bytes:.2f} attention sizes"


    def test_leaf_adjoints_go_straight_into_the_grad_buffer(self):
        # Eight affine ops read one weight; each of its adjoints is added
        # into the preset buffer as it arrives, so the backward holds about
        # one weight-sized array at a time, never a running sum beside it.
        rng = np.random.default_rng(0)
        w = p64(rng.normal(size=(256, 256)))
        w.grad_buffer = np.empty_like(w.data)
        b = c64(np.zeros(256))
        with ad.ComputationRecord() as rec:
            outs = [ad.affine(c64(rng.normal(size=(2, 256))), w, b) for _ in range(8)]
            loss = total(ad.concat(outs, axis=0))
        del outs
        with Traced() as mem:
            rec.backward(loss)
            peak = mem.peak()
        assert w.grad is w.grad_buffer
        assert peak <= 1.5 * w.data.nbytes, f"{peak / w.data.nbytes:.2f} weights at peak"


def copied_backward(rec, loss):
    """``rec.backward(loss)`` with every formula given its own copy of the adjoint.

    No formula then owns (and so may write) an adjoint another key holds:
    the reference that in-place backward must equal bit for bit.
    """
    for entry in rec.entries:
        entry.backward_fn = lambda g, owned, fn=entry.backward_fn: fn(g.copy(), False)
    rec.backward(loss)


def grads_of(build, params, backward):
    """Each param's gradient after ``backward`` of a fresh record of ``build()``."""
    for p in params:
        p.grad = None
    with ad.ComputationRecord() as rec:
        loss = build()
    backward(rec, loss)
    return [p.grad.copy() for p in params]


class TestOwnedAdjoints:
    """Formulas write only into adjoints that backward owns, and match a copy-based backward."""

    def test_an_adjoint_shared_by_two_keys_is_never_written(self):
        # t is read by two relus and an add.  Each add hands one array to
        # both its operands, so neither may write it: the outer add's
        # adjoint is held by t and by the inner add, and the inner add's by
        # the first relu and the scale, whose formula runs first and would
        # scale the relu's adjoint if it wrote its own.
        rng = np.random.default_rng(0)
        x, w = p64(rng.normal(size=(4, 6))), p64(rng.normal(size=(6, 6)))

        def build():
            t = ad.matmul(x, w)
            u = ad.add(ad.add(ad.relu(t), ad.scale(ad.relu(t), -2.0)), t)
            return total(ad.mul(u, u))

        in_place = grads_of(build, [x, w], ad.ComputationRecord.backward)
        reference = grads_of(build, [x, w], copied_backward)
        assert all(np.array_equal(a, b) for a, b in zip(in_place, reference))
        # The same gradients, computed directly: u = relu(t) - 2 relu(t) + t.
        t = x.data @ w.data
        u = t - np.maximum(t, 0)
        d_t = 2 * u * (1 - (t > 0))
        assert np.allclose(in_place[0], d_t @ w.data.T, rtol=1e-12, atol=0)
        assert np.allclose(in_place[1], x.data.T @ d_t, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("op", [
        ad.relu, ad.sigmoid, lambda t: ad.scale(t, -2.0), lambda t: ad.mul(t, t),
        lambda t: ad.softmax(t, axis=-1)], ids=["relu", "sigmoid", "scale", "mul", "softmax"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_formulas_equal_a_copy_based_backward(self, op, dtype):
        # op's first use gets an adjoint shared with t, its second one an
        # adjoint of its own; mul's formula gets one of its own, too.
        rng = np.random.default_rng(1)
        x = ad.parameter(rng.normal(size=(3, 2, 5)), dtype=dtype)
        w = ad.parameter(rng.normal(size=(5, 5)), dtype=dtype)

        def build():
            t = ad.matmul(x, w)
            return total(ad.mul(ad.add(op(t), t), op(t)))

        in_place = grads_of(build, [x, w], ad.ComputationRecord.backward)
        reference = grads_of(build, [x, w], copied_backward)
        assert all(np.array_equal(a, b) for a, b in zip(in_place, reference))

    def test_backward_of_a_chunk_chain_sums_and_masks_in_place(self):
        # The pooling end of a training chunk on (C, M, d_aug) blocks:
        # relu(affine(local) + att) is read twice, so its adjoint is a sum,
        # and both the sum and the relu's mask go into the array backward
        # owns.  The backward then peaks at 2.8 blocks; with a new array for
        # the sum and for the mask it peaked at 3.8.
        rng = np.random.default_rng(0)
        c, m, d = 10, 50, 32
        block = c * m * d * 4
        local = ad.constant(rng.normal(size=(c, m, d)), dtype=np.float32)
        att = ad.constant(rng.normal(size=(c, m, d)), dtype=np.float32)
        w = ad.parameter(rng.normal(size=(d, d)) / d, dtype=np.float32)
        b = ad.parameter(np.zeros(d), dtype=np.float32)
        pool = ad.parameter(rng.normal(size=(d, 1)), dtype=np.float32)
        with ad.ComputationRecord() as rec:
            merged = ad.relu(ad.add(ad.affine(local, w, b), att))
            alpha = ad.softmax(ad.matmul(merged, pool), axis=-2)
            loss = total(ad.matmul(ad.reshape(alpha, (c, 1, m)), merged))
        del merged, alpha
        with Traced() as mem:
            rec.backward(loss)
            peak = mem.peak() / block
        assert peak < 3.3, f"{peak:.2f} blocks at peak"


class TestGradCheck:
    def test_quadratic(self):
        rng = np.random.default_rng(0)
        w = p64(rng.normal(size=(4, 4)))
        x = c64(rng.normal(size=(1, 4)))

        def fn():
            y = ad.matmul(ad.matmul(x, w), ad.reshape(x, (4, 1), (1, 0)))
            return ad.mul(y, y)

        assert ad.grad_check(fn, [w], eps=1e-5) < 1e-6

    def test_relu_away_from_kink(self):
        w = p64([[0.7, -0.3], [0.2, 0.9]])
        x = c64([[1.0, 2.0]])

        def fn():
            return total(ad.relu(ad.matmul(x, w)))

        assert ad.grad_check(fn, [w], eps=1e-5) < 1e-4

    @pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh, ad.sin])
    def test_elementwise_ops(self, op):
        rng = np.random.default_rng(3)
        w = p64(rng.normal(size=(2, 3)))

        def fn():
            return total(op(w))

        assert ad.grad_check(fn, [w], eps=1e-6) < 1e-7

    def test_softmax_affine_window_chain(self):
        rng = np.random.default_rng(4)
        x = c64(rng.normal(size=(4, 3)))
        w = p64(rng.normal(size=(9 + 3, 5)))
        b = p64(np.zeros(5))
        cand = p64(rng.normal(size=(1, 3)))
        mask = np.array([True, True, True, False])

        def fn():
            windows = ad.sliding_window_concat(x, 1)
            stacked = ad.concat([windows, ad.concat([cand] * 4, axis=0)], axis=1)
            z = ad.affine(stacked, w, b)
            alpha = ad.softmax(z, axis=0, mask=mask[:, None])
            return total(ad.mul(alpha, z))

        assert ad.grad_check(fn, [w, b, cand], eps=1e-5) < 1e-6

    def test_bias_add_forms(self):
        rng = np.random.default_rng(5)
        a = p64(rng.normal(size=(3, 4)))
        bias_1d = p64(rng.normal(size=4))
        bias_row = p64(rng.normal(size=(1, 4)))

        def fn():
            return total(ad.add(ad.add(a, bias_1d), bias_row))

        assert ad.grad_check(fn, [a, bias_1d, bias_row], eps=1e-6) < 1e-8

    def test_stacked_affine_slice_and_concat(self):
        # A stack of matrices through the ops that take one: affine over
        # the last axis, slices and a concat of the first axis.
        rng = np.random.default_rng(9)
        x = p64(rng.normal(size=(3, 4, 5)))
        w, b = p64(rng.normal(size=(5, 2))), p64(rng.normal(size=2))
        weights = c64(rng.normal(size=(3, 4, 2)))
        out = ad.affine(x, w, b)
        assert np.allclose(out.data, x.data @ w.data + b.data, rtol=0, atol=1e-12)

        def fn():
            y = ad.affine(x, w, b)
            y = ad.concat([ad.slice_(y, rows=slice(1, 3)), ad.slice_(y, rows=slice(0, 1))], axis=0)
            return total(ad.mul(y, weights))

        assert ad.grad_check(fn, [x, w, b], eps=1e-6) < 1e-8

    def test_add_broadcasts_a_stack_of_rows(self):
        # (M, n) + (k, 1, n) -> (k, M, n), as a chunk of candidate terms is
        # added to the history's terms: each operand's adjoint is summed
        # back over the axis it was stretched along.
        rng = np.random.default_rng(8)
        history = p64(rng.normal(size=(4, 5)))
        chunk = p64(rng.normal(size=(3, 1, 5)))
        weights = c64(rng.normal(size=(3, 4, 5)))
        out = ad.add(history, chunk)
        assert out.shape == (3, 4, 5)
        assert np.array_equal(out.data, history.data + chunk.data)

        def fn():
            return total(ad.mul(ad.relu(ad.add(history, chunk)), weights))

        assert ad.grad_check(fn, [history, chunk], eps=1e-6) < 1e-8

    @pytest.mark.parametrize("a, b", [((4, 5), (3, 2, 5)), ((4, 5), (3, 1, 4)), ((3,), (2, 2))])
    def test_add_rejects_shapes_numpy_cannot_broadcast(self, a, b):
        with pytest.raises(ad.ShapeError, match="add: incompatible shapes"):
            ad.add(c64(np.zeros(a)), c64(np.zeros(b)))


    def test_batched_matmul_broadcast_grads(self):
        rng = np.random.default_rng(6)
        a = p64(rng.normal(size=(2, 3, 4)))
        shared = p64(rng.normal(size=(4, 5)))       # broadcast over a's leading axis
        stretched = p64(rng.normal(size=(1, 5, 3)))  # leading axis 1 stretched to 2
        left = p64(rng.normal(size=(2, 3)))          # 2-D on the left of a 3-D operand
        weights = c64(rng.normal(size=(2, 3, 2)))

        def fn():
            y = ad.matmul(ad.matmul(a, shared), stretched)    # (2, 3, 3)
            y = ad.matmul(left, y)                            # (2, 2, 3)
            return total(ad.reshape(ad.matmul(y, weights), (2, 4)))

        assert ad.grad_check(fn, [a, shared, stretched, left], eps=1e-5) < 1e-6

    def test_multi_head_attention(self):
        rng = np.random.default_rng(8)
        table = p64(rng.normal(size=(5, 3 * 6)))  # 2 heads of 3
        ids = np.array([[1, 4, 1, 0], [2, 0, 0, 0], [3, 3, 4, 2]])  # 3 sequences of 4
        mask = np.array([[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]], dtype=bool)
        weights = c64(rng.normal(size=(12, 6)))

        def fn():
            return total(ad.mul(ad.multi_head_attention(table, ids, mask, 2), weights))

        assert ad.grad_check(fn, [table], eps=1e-6) < 1e-7

    @pytest.mark.parametrize("shape, axes, new", [
        ((4, 6), (1, 0), (6, 4)),
        ((3, 1, 5), (0, 2, 1), (3, 5, 1)),
        ((2, 3, 4), (1, 0, 2), (3, 1, 8)),
    ])
    def test_permuted_reshape(self, shape, axes, new):
        rng = np.random.default_rng(3)
        x = p64(rng.normal(size=shape))
        weights = c64(rng.normal(size=new))

        def fn():
            return total(ad.mul(ad.reshape(x, new, axes), weights))

        assert ad.grad_check(fn, [x], eps=1e-6) < 1e-7

    def test_reshape_split_and_merge_heads(self):
        rng = np.random.default_rng(7)
        x = p64(rng.normal(size=(6, 4)))   # 2 items x 3 positions, 2 heads of width 2
        weights = c64(rng.normal(size=(6, 4)))

        def fn():
            split = ad.reshape(x, (2, 3, 2, 2))
            q = ad.reshape(split, (2, 2, 3, 2), (0, 2, 1, 3))
            k_t = ad.reshape(split, (2, 2, 2, 3), (0, 2, 3, 1))
            heads = ad.matmul(ad.softmax(ad.matmul(q, k_t), axis=3), q)
            merged = ad.reshape(heads, (6, 4), (0, 2, 1, 3))
            return total(ad.mul(merged, weights))

        assert ad.grad_check(fn, [x], eps=1e-6) < 1e-7

    def test_error_is_relative_to_each_parameters_gradient_scale(self):
        # Finite-difference noise of about 1e-8 (one ulp of a loss near 1e3
        # over 2 eps) on a coordinate whose gradient is 1e-9 is no error when
        # the parameter's gradient scale is 1.
        w = p64([[1.0, 2.0]])
        weights = c64([[1.0, 1e-9]])

        def fn():
            return ad.add(total(ad.mul(w, weights)), c64([[1e3]]))

        assert ad.grad_check(fn, [w], eps=1e-6) < 1e-6

    def test_wrong_gradient_is_reported(self):
        w = p64([[0.5, -1.0, 2.0]])

        def fn():  # forward 2w, backward 3g: |3 - 2| / (3 + 2)
            return total(ad._record("double", (w,), w.data * 2.0, lambda g, owned: (g * 3.0,)))

        assert ad.grad_check(fn, [w], eps=1e-6) == pytest.approx(0.2)

    def test_extended_precision_loss_keeps_its_digits(self):
        # A gradient of 1e-12 on a loss near 1 is below float64 finite-
        # difference noise, but not below long double's.
        assert np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
        w = ad.parameter(np.array([[0.25]], dtype=np.longdouble))
        weights = ad.constant(np.array([[1e-12]], dtype=np.longdouble))
        one = ad.constant(np.array([[1.0]], dtype=np.longdouble))

        def fn():
            return ad.add(total(ad.mul(w, weights)), one)

        assert ad.grad_check(fn, [w], eps=1e-4) < 1e-4


class TestBlockedProduct:
    """A skinny product above the small-matrix bound runs in blocks under it."""

    # Above the bound with a skinny side: the model's key product, its
    # filter bank and click queries at 10 and 28 clicks, one column past
    # the bound, and a product that needs 20 blocks.
    SPLIT = [(1152, 288, 10), (10, 864, 288), (10, 288, 348), (28, 288, 288),
             (1152, 288, 28), (5, 288, 695), (1, 50_000, 400)]

    @pytest.mark.parametrize("m, k, n", SPLIT)
    def test_blocks_tile_the_output_under_the_bound(self, m, k, n):
        axis, cuts = ad._block_plan(m, k, n)
        assert axis == (0 if m >= n else 1)
        length, other = (m, n) if axis == 0 else (n, m)
        sizes = np.diff(cuts)
        assert cuts[0] == 0 and cuts[-1] == length and len(sizes) > 1
        assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1  # balanced
        assert all(size * other * k <= ad._SMALL_GEMM for size in sizes)

    @pytest.mark.parametrize("m, k, n", [
        (10, 288, 347), (347, 288, 10),     # at the bound
        (10, 288, 288), (0, 288, 10_000),   # under it
        (32, 288, 288), (288, 288, 32),     # a skinny side at the limit
        (50, 864, 288), (1152, 288, 50),
        (10, 200_000, 10),                  # one row of blocks already above the bound
    ])
    def test_other_products_are_one_block(self, m, k, n):
        assert ad._block_plan(m, k, n) == (0, [0, m])

    @pytest.mark.parametrize("m, k, n", [
        (347, 288, 10), (348, 288, 10), (1152, 288, 10),   # rows: at, past, far past the bound
        (10, 288, 347), (10, 288, 348), (10, 864, 288),    # columns
    ])
    def test_matmul_and_affine_match_a_float64_reference(self, m, k, n):
        rng = np.random.default_rng(m * n)
        x, w = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        b = rng.normal(size=n)
        x32, w32, b32 = (ad.constant(a, dtype=np.float32) for a in (x, w, b))
        product = ad.matmul(x32, w32).data
        dense = ad.affine(x32, w32, b32).data
        assert product.dtype == dense.dtype == np.float32
        # A k-term dot product of unit normals errs by about k * eps; allow sqrt(k) times that.
        tol = k * np.finfo(np.float32).eps * np.sqrt(k)
        assert np.allclose(product, x @ w, rtol=0, atol=tol)
        assert np.allclose(dense, x @ w + b, rtol=0, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
    @pytest.mark.parametrize("m, k, n", [
        (10, 288, 348), (1152, 288, 10),  # column and row blocks
        (10, 288, 40),                    # under the bound
        (2, 510_000, 2),                  # one block, as every row alone exceeds the bound
    ])
    def test_keeps_the_dtype_shape_and_layout_of_one_product(self, dtype, m, k, n):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(m, k)).astype(dtype), rng.normal(size=(k, n)).astype(dtype)
        out, whole = ad._product(x, y), x @ y
        assert out.dtype == whole.dtype and out.shape == whole.shape
        assert out.flags.c_contiguous
        assert np.allclose(out, whole, rtol=0, atol=k * np.finfo(dtype).eps * np.sqrt(k))

    def test_a_permuted_view_a_stack_and_a_bias_added_once(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 5, 288))              # ten rows, as a stack
        w_t = rng.normal(size=(348, 288))
        b = np.full(348, 3.0)
        # (288, 348) as a permuted view: not contiguous.
        w = ad.constant(w_t.T, dtype=F64)
        assert not w.data.flags.c_contiguous
        assert len(ad._block_plan(10, 288, 348)[1]) > 2
        reference = np.stack([x[i] @ w_t.T for i in range(2)])
        product = ad.matmul(c64(x), w).data
        dense = ad.affine(c64(x), w, c64(b)).data
        assert product.shape == dense.shape == (2, 5, 348)
        assert np.allclose(product, reference, rtol=0, atol=1e-10)
        assert np.allclose(dense, reference + b, rtol=0, atol=1e-10)


def eight_op_chain(scores, target):
    """Oracle: the loss and part gradients of the former 8-op chain, in float32 numpy.

    concat, add_scalar(-shift), exp, sum_, log, add_scalar(shift), then
    the scaled target added in, with shift the largest score as a float.
    """
    f32 = np.float32
    x = np.asarray(scores, dtype=f32).reshape(1, -1)
    shift = float(x.max())
    e = np.exp(x + f32(-shift))
    z = e.sum(dtype=f32).reshape(1, 1)
    loss = (np.log(z) + f32(shift)) + x[:, target:target + 1] * f32(-1.0)
    g = np.ones_like(loss)
    ge = np.full(x.shape, (g / z)[0, 0], f32) * e  # sum_, then exp, of log's g / z
    grads = [ge[:, j:j + 1] for j in range(x.shape[1])]
    grads[target] = g * f32(-1.0) + grads[target]
    return loss, grads


class TestSoftmaxNll:
    def parts(self, scores, dtype):
        return [ad.parameter(np.array([[s]], dtype=dtype)) for s in scores]

    @pytest.mark.parametrize("scores, target", [
        ([0.3, 0.1, -0.4, 0.2, 0.05], 0),
        ([1.3, 1.3], 0),
        ([-2.7, 5.1, 0.25, 5.1], 3),
        ([1e-3, -7.5, 12.25, 3.0, -0.125], 2),
        ([-1e4, 1e4], 0),
    ])
    def test_float32_equals_the_eight_op_chain_bit_for_bit(self, scores, target):
        parts = self.parts(scores, np.float32)
        with ad.ComputationRecord() as rec:
            loss = ad.softmax_nll(parts, target)
        assert len(rec.entries) == 1
        rec.backward(loss)
        expected, grads = eight_op_chain(scores, target)
        assert loss.data.dtype == np.float32
        assert np.array_equal(loss.data, expected)
        for p, g in zip(parts, grads):
            assert np.array_equal(p.grad, g)

    def test_float64_grad_check(self):
        parts = self.parts([0.3, -1.1, 0.7, 0.2], F64)
        assert ad.grad_check(lambda: ad.softmax_nll(parts, 2), parts, eps=1e-6) < 1e-8

    def test_finite_loss_and_gradient_at_extreme_scores(self):
        for scores in ([-1e4, 1e4], [1e4, -1e4]):
            parts = self.parts(scores, np.float32)
            with ad.ComputationRecord() as rec:
                loss = ad.softmax_nll(parts, 0)
            rec.backward(loss)
            assert np.isfinite(loss.data).all()
            assert loss.data[0, 0] == pytest.approx(2e4 if scores[0] < 0 else 0.0)
            assert all(np.isfinite(p.grad).all() for p in parts)

    def test_longdouble_keeps_its_dtype_and_digits(self):
        # The shift is taken in the parts' own dtype, so an extended
        # precision loss is not rounded through float64.
        parts = self.parts([0.25, -0.5, 1.0], np.longdouble)
        assert ad.softmax_nll(parts, 1).data.dtype == np.longdouble
        assert ad.grad_check(lambda: ad.softmax_nll(parts, 1), parts, eps=1e-6) < 1e-10

    def test_rejects_a_part_that_is_not_one_by_one(self):
        with pytest.raises(ad.ShapeError, match="softmax_nll"):
            ad.softmax_nll([c64([[0.5]]), c64([[0.5, 1.0]])], 0)
        with pytest.raises(IndexError, match="softmax_nll"):
            ad.softmax_nll([c64([[0.5]]), c64([[1.0]])], 2)


class TestDeterminism:
    def _build_and_run(self, seed):
        rng = np.random.default_rng(seed)
        w1 = p64(rng.normal(size=(3, 4)))
        w2 = p64(rng.normal(size=(4, 2)))
        x = c64(rng.normal(size=(1, 3)))
        with ad.ComputationRecord() as rec:
            h = ad.tanh(ad.matmul(x, w1))
            loss = total(ad.sigmoid(ad.matmul(h, w2)))
        rec.backward(loss)
        return loss.data.copy(), w1.grad.copy(), w2.grad.copy()

    def test_same_seed_bit_identical(self):
        a = self._build_and_run(11)
        b = self._build_and_run(11)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_softmax_distributions_always_normalized(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = c64(rng.normal(size=(rows, cols)) * 50)
    for axis in (0, 1):
        out = ad.softmax(x, axis=axis).data
        assert np.allclose(out.sum(axis=axis), 1.0, atol=1e-6)


@given(st.lists(st.integers(0, 5), max_size=12), st.integers(0, 2), st.integers(0, 2**31 - 1))
@example(ids=[], part=0, seed=0)
@example(ids=[4], part=1, seed=0)
@example(ids=[3, 0, 3, 5, 0, 3], part=2, seed=0)
@settings(max_examples=60, deadline=None)
def test_row_scatter_matches_add_at(ids, part, seed):
    # The gather's backward against np.add.at, written into one column block
    # of a wider table as attention writes a part; rows and columns that no
    # id names keep their values.
    rng = np.random.default_rng(seed)
    ids = np.asarray(ids, dtype=np.int64)
    w = 3
    g = rng.normal(size=(len(ids), w))
    table = rng.normal(size=(6, 3 * w))
    expected = table.copy()
    block = expected[:, part * w:(part + 1) * w]
    block[ids] = 0
    np.add.at(block, ids, g)
    ad._RowScatter(ids).write(table[:, part * w:(part + 1) * w], g)
    assert np.allclose(table, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ids", [np.random.default_rng(1).permutation(82),
                                 np.random.default_rng(2).integers(0, 20, size=440),
                                 np.zeros(0, dtype=np.int64)],
                         ids=["distinct", "repeated", "empty"])
def test_row_scatter_write_is_exact(ids):
    # float32 rows at the train workload's widths.  Rows no id names keep
    # their value.  Integer-valued rows sum exactly in any order, so they
    # equal np.add.at bit for bit; random rows equal the sort-and-reduceat
    # sum bit for bit (runs of 8 or more are summed pairwise, not in
    # np.add.at's order), and are assigned unchanged when ids are distinct.
    rng = np.random.default_rng(3)
    sentinel = np.float32(7.5)
    for g, integral in ((rng.integers(-8, 8, size=(len(ids), 256)).astype(np.float32), True),
                        (rng.normal(size=(len(ids), 256)).astype(np.float32), False)):
        out = np.full((90, 256), sentinel, dtype=np.float32)
        ad._RowScatter(ids).write(out, g)
        named = np.zeros(90, dtype=bool)
        named[ids] = True
        assert (out[~named] == sentinel).all()
        expected = np.zeros_like(out)
        np.add.at(expected, ids, g)
        if integral:
            assert np.array_equal(out[named], expected[named])
        order = np.argsort(ids, kind="stable")
        starts = np.flatnonzero(np.diff(ids[order], prepend=-1))
        if len(ids):
            assert np.array_equal(out[ids[order][starts]],
                                  np.add.reduceat(g[order], starts, axis=0))
        assert np.allclose(out[named], expected[named], rtol=1e-5, atol=1e-5)
