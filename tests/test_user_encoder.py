import weakref
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest

import avoidrec.autodiff as ad
from avoidrec.model import AvoidanceAwareRanker, ModelConfig, VocabSizes
from avoidrec.user_encoder import UserEncoder
from conftest import Traced, make_articles, make_features, tiny_config, total

MAX_HISTORY = ModelConfig().max_history  # chunks of 50 // M candidates: all of them, here


def make_encoder(seed=0, d_news=4, dim_ue=2, n_heads=2, cnn_window=1, max_history=MAX_HISTORY):
    """A user encoder of ``n_heads`` heads; the news encoder's heads are unused here."""
    config = tiny_config(d_news=d_news, dim_ue=dim_ue, n_heads=1, user_heads=n_heads,
                         cnn_window=cnn_window, max_history=max_history)
    return UserEncoder(config, np.random.default_rng(seed))


def rand_items(n, d_news=4, dim_ue=2, seed=1):
    rng = np.random.default_rng(seed)
    vecs = [ad.constant(rng.normal(size=(1, d_news)), dtype=np.float64) for _ in range(n)]
    ues = [ad.constant(rng.normal(size=(1, dim_ue)), dtype=np.float64) for _ in range(n)]
    return vecs, ues


def augment(enc, vecs, ues, cand_vec, cand_ue):
    """The history and candidate terms, and the augmented candidate rows."""
    cands = ad.concat([cand_vec, cand_ue], axis=1)
    return enc.augment_history(ad.concat(vecs, axis=0), ad.concat(ues, axis=0), cands), cands


def rows_of(vecs, ues):
    """The augmented history matrix, built directly."""
    return np.concatenate([np.concatenate([v.data, u.data], axis=1)
                           for v, u in zip(vecs, ues)])


def unsplit(enc):
    """The filter bank and the merge as the single matrices their row blocks were cut from."""
    return (np.concatenate([enc.cnn_window_w.data, enc.cnn_cand_w.data]),
            np.concatenate([enc.merge_local_w.data, enc.merge_att_w.data]))


def head_keys(enc, rows):
    """The (heads, d_q, M) keys of the augmented history ``rows``: rel_w_h @ rows.T per head."""
    return np.stack([rel_w @ rows.T for rel_w in enc.rel_heads.data])


def cand_scores(enc, rows, cand):
    """The candidates' (C, heads*M) half of the scores, built directly, heads side by side."""
    query = cand.data @ enc.q_cand.data
    return ad.constant(np.concatenate([query @ keys for keys in head_keys(enc, rows)], axis=1),
                       dtype=np.float64)


def cand_local(enc, cand):
    """The candidate's (1, d_aug) filter-bank term: its block of the filter bank, built directly."""
    return ad.constant(cand.data @ enc.cnn_cand_w.data, dtype=np.float64)


def per_head_attention(enc, rows, cand):
    """Oracle: heads side by side, softmax(q W_h H^T + q_c W_h H^T) H O_h per head."""
    q, q_c = rows @ enc.q_hist.data, cand @ enc.q_cand.data
    out = []
    for rel_w, out_w in zip(enc.rel_heads.data, enc.out_w.data):
        s = q @ rel_w @ rows.T + q_c @ rel_w @ rows.T
        gamma = np.exp(s - s.max(axis=1, keepdims=True))
        gamma /= gamma.sum(axis=1, keepdims=True)
        out.append(gamma @ rows @ out_w)
    return np.concatenate(out, axis=1)


def merged_oracle(enc, rows, cand, local):
    """Oracle: relu([local | per-head attention] . merge_w + merge_b) with the unsplit merge_w."""
    stacked = np.concatenate([local, per_head_attention(enc, rows, cand)], axis=1)
    return np.maximum(stacked @ unsplit(enc)[1] + enc.merge_b.data, 0)


def score(enc, history, cands, relevance=0.3):
    rel = ad.constant(np.full((cands.shape[0], 1), relevance), dtype=np.float64)
    return enc.interest_score(cands, enc.user_vectors(history), rel)


class TestAugment:
    def test_width_and_shared_terms(self):
        enc = make_encoder()
        vecs, ues = rand_items(2)
        history, cand = augment(enc, vecs, ues, vecs[0], ues[0])
        assert cand.data.shape == (1, 6)
        assert history.scores.data.shape == (2, 4)       # (M, heads*M)
        assert history.values.data.shape == (4, 6)       # (heads*M, d_aug)
        assert history.local.data.shape == (2, 6)
        assert history.cand_scores.data.shape == (1, 1, 4)  # (C, 1, heads*M)
        assert history.cand_local.data.shape == (1, 6)   # (C, d_aug)
        assert "keys" not in history._fields  # the (heads, d_q, M) block stays inside
        assert enc.pool_w.data.shape == (6, 1)  # merged_j . pool_w; no candidate rows, no bias

    def test_concat_round_trip(self):
        # Every shared term is built from the [news | engagement] rows; the
        # keys are one (d_q, M) block per head, and column (row) h*M + j of
        # the scores (values) belongs to head h and click j.
        enc = make_encoder()
        vecs, ues = rand_items(3)
        history, _ = augment(enc, vecs, ues, vecs[0], ues[0])
        rows = rows_of(vecs, ues)
        att_w = np.split(enc.merge_att_w.data, enc.n_heads)
        values = np.concatenate([rows @ out_w @ w for out_w, w in zip(enc.out_w.data, att_w)])
        windows = ad.sliding_window_concat(ad.constant(rows), enc.cnn_window).data
        assert np.allclose(history.scores.data,
                           np.concatenate([rows @ enc.q_hist.data @ k
                                           for k in head_keys(enc, rows)], axis=1),
                           atol=1e-12)
        assert np.allclose(history.values.data, values, atol=1e-12)
        assert np.allclose(history.local.data,
                           windows @ enc.cnn_window_w.data + enc.cnn_b.data, atol=1e-12)

    def test_candidate_terms_are_row_wise_projections(self):
        # Candidate terms: the (C, 1, .) candidate half of the scores and
        # the (C, .) candidate block of the filter bank, row by row.
        enc = make_encoder()
        vecs, ues = rand_items(4)
        cv, cu = rand_items(3, seed=6)
        history, cands = augment(enc, vecs, ues, ad.concat(cv, axis=0), ad.concat(cu, axis=0))
        scores, local = history.cand_scores, history.cand_local
        assert scores.data.shape == (3, 1, 8)
        assert np.allclose(scores.data[:, 0], cand_scores(enc, rows_of(vecs, ues), cands).data,
                           atol=1e-12)
        assert np.allclose(local.data, cand_local(enc, cands).data, atol=1e-12)

    def test_truncates_to_most_recent(self):
        # The ranker keeps the last max_history clicks; older ones cannot matter.
        model = AvoidanceAwareRanker(tiny_config(max_history=2), VocabSizes(12, 3, 5), seed=1)
        articles = make_articles(7)
        ids = sorted(articles)
        feats = make_features(ids)
        history = [articles[i] for i in ids[:5]]
        candidates = [articles[i] for i in ids[5:]]
        full = model.score_impression(history, candidates, feats)
        recent = model.score_impression(history[-2:], candidates, feats)
        assert [s.data[0, 0] for s in full] == [s.data[0, 0] for s in recent]

    def test_zero_max_history_scores_as_a_cold_user(self):
        # max_history=0 keeps no click: a 4-click history scores exactly as
        # an empty one, by the relevance branch alone.
        model = AvoidanceAwareRanker(tiny_config(max_history=0), VocabSizes(12, 3, 5), seed=1)
        articles = make_articles(7)
        ids = sorted(articles)
        feats = make_features(ids)
        history = [articles[i] for i in ids[:4]]
        candidates = [articles[i] for i in ids[4:]]
        for mode in ("full", "only_rel", "only_avoid"):
            cold = model.score_impression([], candidates, feats, mode=mode)
            got = model.score_impression(history, candidates, feats, mode=mode)
            assert [s.data[0, 0] for s in got] == [s.data[0, 0] for s in cold], mode


class TestSelfAttention:
    def test_single_item_is_projected_row(self):
        enc = make_encoder()
        vecs, ues = rand_items(1)
        history, cand = augment(enc, vecs, ues, vecs[0], ues[0])
        rows = rows_of(vecs, ues)
        out = enc.candidate_aware_self_attention(history, cand_scores(enc, rows, cand))
        heads = np.concatenate([rows @ w for w in enc.out_w.data], axis=1)
        assert np.allclose(out.data, heads @ enc.merge_att_w.data, atol=1e-12)

    def test_two_item_scores_match_brute_force(self):
        # Brute-force oracle over 3-dim augmented vectors, one identity head,
        # and identity attention rows of the merge.
        enc = make_encoder(d_news=2, dim_ue=1, n_heads=1)
        eye = np.eye(3)
        enc.q_hist.data[:] = eye
        enc.q_cand.data[:] = eye
        enc.rel_heads.data[0] = eye
        enc.out_w.data[0] = eye
        enc.merge_att_w.data[:] = eye
        h = np.array([[1.0, 0.5, -0.5], [0.2, -1.0, 0.3]])
        c = np.array([[0.7, 0.1, 0.4]])
        cand = ad.constant(c, dtype=np.float64)
        history = enc.augment_history(ad.constant(h[:, :2], dtype=np.float64),
                                      ad.constant(h[:, 2:], dtype=np.float64), cand)
        out = enc.candidate_aware_self_attention(history, cand_scores(enc, h, cand))

        scores = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                scores[i, j] = h[i] @ h[j] + c[0] @ h[j]
        expected = np.empty((2, 3))
        for i in range(2):
            weights = np.exp(scores[i] - scores[i].max())
            weights /= weights.sum()
            expected[i] = weights @ h
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_fused_heads_match_per_head_oracle(self):
        # The per-head formula, heads side by side, then the attention rows
        # of the unsplit merge matrix.
        enc = make_encoder(n_heads=3)
        vecs, ues = rand_items(4)
        cv, cu = rand_items(1, seed=8)
        history, cand = augment(enc, vecs, ues, cv[0], cu[0])
        rows = rows_of(vecs, ues)
        expected = per_head_attention(enc, rows, cand.data)
        out = enc.candidate_aware_self_attention(history, cand_scores(enc, rows, cand))
        assert np.allclose(out.data, expected @ unsplit(enc)[1][enc.d_aug:], atol=1e-12)

    def test_attention_rows_sum_to_one_per_head(self):
        enc = make_encoder()
        vecs, ues = rand_items(3)
        history, cand = augment(enc, vecs, ues, vecs[0], ues[0])
        scores = ad.add(history.scores, cand_scores(enc, rows_of(vecs, ues), cand))
        gamma = ad.softmax(ad.reshape(scores, (3, 2, 3)), axis=2).data
        assert np.allclose(gamma.sum(axis=2), 1.0, atol=1e-12)

    def test_all_masked_history_rejected(self):
        enc = make_encoder()
        with pytest.raises(ValueError, match="cold-user"):
            enc.augment_history(ad.constant(np.zeros((0, 4)), dtype=np.float64),
                                ad.constant(np.zeros((0, 2)), dtype=np.float64),
                                ad.constant(np.zeros((1, 6)), dtype=np.float64))


class TestLocalContext:
    def test_zero_window_uses_only_own_row(self):
        enc = make_encoder(cnn_window=0)
        vecs, ues = rand_items(3)
        history, cand = augment(enc, vecs, ues, vecs[0], ues[0])
        base = enc.candidate_aware_cnn(history, cand_local(enc, cand)).data
        # changing row 2 must not affect row 0 when the window is 0
        vecs2, ues2 = rand_items(3, seed=9)
        history2, _ = augment(enc, [vecs[0], vecs[1], vecs2[2]],
                              [ues[0], ues[1], ues2[2]], vecs[0], ues[0])
        other = enc.candidate_aware_cnn(history2, cand_local(enc, cand)).data
        assert np.allclose(base[0], other[0], atol=1e-12)
        assert not np.allclose(base[2], other[2])

    def test_boundary_uses_zero_padding(self):
        enc = make_encoder()
        vecs, ues = rand_items(2)
        history, cand = augment(enc, vecs, ues, vecs[0], ues[0])
        rows = rows_of(vecs, ues)
        # left neighbor of position 0 is the zero vector
        window = np.concatenate([np.zeros(enc.d_aug), rows[0], rows[1], cand.data[0]])
        expected = np.maximum(window @ unsplit(enc)[0] + enc.cnn_b.data, 0)
        local = enc.candidate_aware_cnn(history, cand_local(enc, cand))
        assert np.allclose(local.data[0], expected, atol=1e-12)

    def test_split_filter_bank_matches_direct_concat(self):
        # Shared window term plus the candidate row of the batched candidate
        # terms == relu([windows, cand] W + b), for every candidate.
        enc = make_encoder()
        vecs, ues = rand_items(4)
        cv, cu = rand_items(3, seed=4)
        history, cands = augment(enc, vecs, ues, ad.concat(cv, axis=0), ad.concat(cu, axis=0))
        local = history.cand_local
        windows = ad.sliding_window_concat(ad.constant(rows_of(vecs, ues)), enc.cnn_window).data
        for i in range(3):
            stacked = np.concatenate([windows, np.repeat(cands.data[i:i + 1], 4, axis=0)], axis=1)
            expected = np.maximum(stacked @ unsplit(enc)[0] + enc.cnn_b.data, 0)
            got = enc.candidate_aware_cnn(history, ad.slice_(local, rows=slice(i, i + 1)))
            assert np.allclose(got.data, expected, atol=1e-12)

    def test_translation_shifts_interior_rows(self):
        # Oracle: recompute directly after shifting history by one slot;
        # rows whose window stays clear of the ends must move with it.
        enc = make_encoder()
        vecs, ues = rand_items(4)
        hist_a, cand = augment(enc, vecs, ues, vecs[0], ues[0])
        shifted_vecs = [vecs[1], vecs[2], vecs[3], vecs[0]]
        shifted_ues = [ues[1], ues[2], ues[3], ues[0]]
        hist_b, _ = augment(enc, shifted_vecs, shifted_ues, vecs[0], ues[0])
        a = enc.candidate_aware_cnn(hist_a, cand_local(enc, cand)).data
        b = enc.candidate_aware_cnn(hist_b, cand_local(enc, cand)).data
        # shifted row 1 sees (v1, v2, v3), exactly original row 2's window
        assert np.allclose(b[1], a[2], atol=1e-12)
        # boundary rows see the zero padding instead and must differ
        assert not np.allclose(b[0], a[1])


class TestUserEmbeddingAndScore:
    def _full(self, enc, vecs, ues, cand_vec, cand_ue):
        """The pooled user vector and the merged per-click vectors, from the oracle."""
        history, cand = augment(enc, vecs, ues, cand_vec, cand_ue)
        rows = rows_of(vecs, ues)
        att = enc.candidate_aware_self_attention(history, cand_scores(enc, rows, cand))
        loc = enc.candidate_aware_cnn(history, cand_local(enc, cand))
        u = enc.user_embedding(att, loc)
        assert np.allclose(enc.user_vectors(history).data, u.data, atol=1e-12)
        return u, cand, history, merged_oracle(enc, rows, cand.data, loc.data)

    def test_folded_merge_matches_direct_concat(self):
        # Every candidate's merged vectors, pooled, equal the unfolded model:
        # relu([local | per-head attention] . merge_w + merge_b) with the
        # unsplit matrices, then the softmax pooling over clicks.
        enc = make_encoder(n_heads=3, d_news=7, dim_ue=2)
        vecs, ues = rand_items(5, d_news=7)
        cv, cu = rand_items(4, d_news=7, seed=21)
        history, cands = augment(enc, vecs, ues, ad.concat(cv, axis=0), ad.concat(cu, axis=0))
        users = enc.user_vectors(history).data
        rows = rows_of(vecs, ues)
        windows = ad.sliding_window_concat(ad.constant(rows), enc.cnn_window).data
        cnn_w, _ = unsplit(enc)
        for i in range(4):
            cand = cands.data[i:i + 1]
            stacked = np.concatenate([windows, np.repeat(cand, 5, axis=0)], axis=1)
            local = np.maximum(stacked @ cnn_w + enc.cnn_b.data, 0)
            merged = merged_oracle(enc, rows, cand, local)
            scores = merged @ enc.pool_w.data
            alpha = np.exp(scores - scores.max())
            alpha /= alpha.sum()
            assert np.allclose(users[i], (alpha.T @ merged)[0], rtol=0, atol=1e-12)

    def test_single_item_user_is_its_merged_vector(self):
        enc = make_encoder()
        vecs, ues = rand_items(1)
        u, _, _, merged = self._full(enc, vecs, ues, vecs[0], ues[0])
        assert np.allclose(u.data, merged[0:1], atol=1e-12)

    def test_pool_weights_sum_to_one(self):
        enc = make_encoder()
        vecs, ues = rand_items(3)
        _, _, history, merged = self._full(enc, vecs, ues, vecs[0], ues[0])
        alpha = ad.softmax(ad.matmul(ad.constant(merged), enc.pool_w), axis=0).data
        assert alpha.shape == (3, 1)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-6)

    def test_duplicated_rows_tie_and_match_brute_force(self):
        # Duplicated history rows produce identical merged vectors, so
        # their pooling scores tie and alpha splits evenly between them;
        # the pooled sum must equal a direct numpy recomputation.
        enc = make_encoder(cnn_window=0)
        vecs, ues = rand_items(2)
        dup_vecs = [vecs[0], vecs[1], vecs[1]]
        dup_ues = [ues[0], ues[1], ues[1]]
        u, _, _, merged = self._full(enc, dup_vecs, dup_ues, vecs[0], ues[0])

        assert np.allclose(merged[1], merged[2], atol=1e-12)
        scores = (merged @ enc.pool_w.data).ravel()
        assert scores[1] == pytest.approx(scores[2], abs=1e-12)
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        assert weights[1] == pytest.approx(weights[2], rel=1e-12)
        assert np.allclose(u.data, (weights[None, :] @ merged), atol=1e-12)

    def test_history_window_cannot_change_scores(self):
        # A history shorter than max_history is never padded: the window
        # size must not reach any score.
        articles = make_articles(6)
        ids = sorted(articles)
        feats = make_features(ids)
        history = [articles[i] for i in ids[:2]]
        candidates = [articles[i] for i in ids[2:]]
        by_window = []
        for max_history in (2, 3, 50):
            model = AvoidanceAwareRanker(tiny_config(max_history=max_history),
                                         VocabSizes(12, 3, 5), seed=7)
            by_window.append([s.data[0, 0] for mode in ("full", "only_rel", "only_avoid")
                              for s in model.score_impression(history, candidates, feats,
                                                              mode=mode)])
        assert by_window[0] == by_window[1] == by_window[2]

    def test_interest_is_convex_combination(self):
        # One batch of 10 candidates, each with its own relevance score.
        enc = make_encoder()
        vecs, ues = rand_items(3)
        cv, cu = rand_items(10, seed=100)
        history, cands = augment(enc, vecs, ues, ad.concat(cv, axis=0), ad.concat(cu, axis=0))
        users = enc.user_vectors(history)
        r_aw = np.linspace(-0.5, 0.9, 10)[:, None]
        score = enc.interest_score(cands, users, ad.constant(r_aw, dtype=np.float64)).data
        raw = enc.preliminary_interest(cands, users).data
        assert score.shape == raw.shape == (10, 1)
        assert np.allclose(raw[:, 0], (cands.data * users.data).sum(axis=1), atol=1e-12)
        lo, hi = np.minimum(r_aw, raw), np.maximum(r_aw, raw)
        assert (lo - 1e-12 <= score).all() and (score <= hi + 1e-12).all()

    def test_zero_gate_weights_average(self):
        enc = make_encoder()
        enc.gate_w.data[:] = 0.0
        enc.gate_b.data[:] = 0.0
        vecs, ues = rand_items(2)
        u, cand, *_ = self._full(enc, vecs, ues, vecs[0], ues[0])
        raw = enc.preliminary_interest(cand, u).data[0, 0]
        score = enc.interest_score(cand, u, ad.constant([[0.2]], dtype=np.float64))
        assert score.data[0, 0] == pytest.approx((raw + 0.2) / 2.0, rel=1e-12)

    def test_end_to_end_grad_check(self):
        enc = make_encoder()
        vecs, ues = rand_items(3)
        cv, cu = rand_items(3, seed=50)
        cand_vecs, cand_ues = ad.concat(cv, axis=0), ad.concat(cu, axis=0)

        def fn():
            return total(score(enc, *augment(enc, vecs, ues, cand_vecs, cand_ues)))

        params = list(enc.parameters().values())
        assert ad.grad_check(fn, params, eps=1e-5, max_coords_per_param=10) < 1e-3

    def test_stacked_heads_and_row_blocks_keep_init_order(self):
        # Stacked head tensors hold the same xavier draws, in the same
        # order, as one parameter per head did; the filter bank's and the
        # merge's row blocks are cut from one draw each.
        enc = make_encoder(n_heads=2)
        rng = np.random.default_rng(0)
        for _ in range(2):  # q_hist, q_cand
            ad.xavier_uniform(rng, 6, 6, dtype=np.float64)
        rel = [ad.xavier_uniform(rng, 6, 6, dtype=np.float64) for _ in range(2)]
        out = [ad.xavier_uniform(rng, 6, 3, dtype=np.float64) for _ in range(2)]
        cnn_w = ad.xavier_uniform(rng, 4 * 6, 6, dtype=np.float64)
        merge_w = ad.xavier_uniform(rng, 2 * 6, 6, dtype=np.float64)
        assert np.array_equal(enc.rel_heads.data, np.stack(rel))
        assert np.array_equal(enc.out_w.data, np.stack(out))
        assert np.array_equal(enc.cnn_window_w.data, cnn_w[:18])
        assert np.array_equal(enc.cnn_cand_w.data, cnn_w[18:])
        assert np.array_equal(enc.merge_local_w.data, merge_w[:6])
        assert np.array_equal(enc.merge_att_w.data, merge_w[6:])
        # The pooling keeps the click half of its [merged | cand] draw.
        assert np.array_equal(enc.pool_w.data, ad.xavier_uniform(rng, 12, 1, dtype=np.float64)[:6])
        assert np.array_equal(enc.gate_w.data, ad.xavier_uniform(rng, 6, 1, dtype=np.float64))


def user_parameter_reads(n_candidates, max_history, monkeypatch, recorded=False):
    """(op, user-encoder parameters read) -> count over one score_impression of 3 clicks.

    Every op is counted as it runs, through ``autodiff._record``, so an
    inference call (``recorded=False``) is counted as a recorded one is.
    """
    model = AvoidanceAwareRanker(tiny_config(max_history=max_history), VocabSizes(12, 3, 5),
                                 seed=4)
    articles = make_articles(9)
    ids = sorted(articles)
    a = [articles[i] for i in ids]
    user = {id(p): p for p in model.user.parameters().values()}
    reads, record = Counter(), ad._record

    def counted(op, inputs, out_data, backward_fn):
        names = tuple(sorted(user[id(t)].name for t in inputs if id(t) in user))
        if names:
            reads[op, names] += 1
        return record(op, inputs, out_data, backward_fn)

    with monkeypatch.context() as patch, ad.ComputationRecord() if recorded else nullcontext():
        patch.setattr(ad, "_record", counted)
        model.score_impression(a[:3], a[3:3 + n_candidates], make_features(ids))
    return reads, model


def test_candidate_loop_reads_only_merge_local_w(monkeypatch):
    # 3 clicks and max_history 6: inference chunks of 2 candidates.  Each
    # added chunk adds exactly two ops that read a user-encoder parameter:
    # the local half of the merge and the (d_aug, 1) pooling column.  No
    # op of the chunk loop reads a weight wider than d_aug rows (the
    # unsplit filter bank and merge were).
    two, _ = user_parameter_reads(2, 6, monkeypatch)   # one chunk
    five, _ = user_parameter_reads(5, 6, monkeypatch)  # three, the last of one candidate
    six, model = user_parameter_reads(6, 6, monkeypatch)
    assert five == six
    assert sum(six.values()) - sum(two.values()) == 4
    grown = six - two
    assert grown == Counter({("affine", ("user.merge_b", "user.merge_local_w")): 2,
                             ("matmul", ("user.pool_w",)): 2})
    params = model.user.parameters()
    assert all(params[name].shape[0] <= model.user.d_aug for _, names in grown for name in names)
    # At max_history 3 a chunk is one candidate, and the same ops grow per candidate.
    two, _ = user_parameter_reads(2, 3, monkeypatch)
    six, _ = user_parameter_reads(6, 3, monkeypatch)
    assert six - two == Counter({key: 2 * n for key, n in grown.items()})
    # While recording there are at most two chunks: 2 candidates are one
    # chunk at max_history 6, 5 and 6 candidates two, and the second
    # chunk adds the same two ops once.
    two, _ = user_parameter_reads(2, 6, monkeypatch, recorded=True)
    five, _ = user_parameter_reads(5, 6, monkeypatch, recorded=True)
    six, _ = user_parameter_reads(6, 6, monkeypatch, recorded=True)
    assert five == six
    assert six - two == Counter({key: n // 2 for key, n in grown.items()})
    # At max_history 3, 2 candidates are already two chunks, and so are 6.
    two, _ = user_parameter_reads(2, 3, monkeypatch, recorded=True)
    six, _ = user_parameter_reads(6, 3, monkeypatch, recorded=True)
    assert six == two


def paper_size_impression(m=28, c=10):
    """A paper-size model, an impression of M clicks and C candidates, and a filled news cache."""
    model = AvoidanceAwareRanker(ModelConfig(), VocabSizes(12, 3, 5), seed=0)
    articles = make_articles(m + c)
    ids = sorted(articles)
    history, candidates = [articles[i] for i in ids[:m]], [articles[i] for i in ids[m:]]
    feats, cache = make_features(ids), {}
    model.score_impression(history, candidates, feats, news_cache=cache)
    return model, history, candidates, feats, cache


def watch_key_block(user, refs):
    """Make ``user`` add weak references to each key block that its score halves read."""
    head_scores = user._head_scores

    def watched(queries, keys, lead):
        # The (heads, d_q, M) block and the product it is a view of.
        refs.extend(weakref.ref(block) for block in (keys.data, keys.data.base)
                    if block is not None)
        return head_scores(queries, keys, lead)

    user._head_scores = watched


def watch_first_attention(user, refs, alive):
    """Make ``user`` note, at each chunk's attention, which of ``refs`` are alive."""
    attention = user.candidate_aware_self_attention

    def watched(history, cand_scores):
        alive.append([ref() is not None for ref in refs])
        return attention(history, cand_scores)

    user.candidate_aware_self_attention = watched


def test_key_block_and_news_batch_die_before_the_candidate_loop():
    # In an inference score_impression the (heads, d_q, M) keys are read
    # only by the two score halves inside augment_history, and the
    # (N, d_news) article batch only by the row gathers: the attention of
    # the first chunk of candidates finds neither alive.  10 clicks: two
    # chunks of 5 candidates.
    model, history, candidates, feats, cache = paper_size_impression(m=10)
    refs, alive = [], []
    news_vectors = model._news_vectors

    def watched_news(*args):
        batch = news_vectors(*args)
        refs.append(weakref.ref(batch.data))
        return batch

    model._news_vectors = watched_news
    watch_key_block(model.user, refs)
    watch_first_attention(model.user, refs, alive)
    model.score_impression(history, candidates, feats, news_cache=cache)
    assert len(refs) >= 3 and len(alive) == 2  # the batch, and the keys read twice
    assert not any(alive[0])


def test_a_named_history_holds_no_key_block():
    # A caller that keeps the History by name through the chunk loop keeps
    # no key block alive with it: the block never leaves augment_history.
    # 3 clicks and max_history 6: two chunks of the 3 candidates.
    enc = make_encoder(max_history=6)
    vecs, ues = rand_items(3)
    cv, cu = rand_items(3, seed=12)
    refs, alive = [], []
    watch_key_block(enc, refs)
    watch_first_attention(enc, refs, alive)
    history, cands = augment(enc, vecs, ues, ad.concat(cv, axis=0), ad.concat(cu, axis=0))
    users = enc.user_vectors(history)
    assert users.shape == (3, enc.d_aug)
    assert len(refs) >= 2 and len(alive) == 2
    assert not any(alive[0])


def test_chunk_contexts_die_before_the_pooling(monkeypatch):
    # In inference a chunk's local context dies once the merge's local
    # half has read it, and its attention context once it is added in: the
    # pooling product of each chunk finds neither context alive.
    model, history, candidates, feats, cache = paper_size_impression(m=10)
    user, refs, alive = model.user, [], []
    matmul = ad.matmul

    def watched(context):
        def call(*args):
            out = context(*args)
            refs.extend(weakref.ref(a) for a in (out.data, out.data.base) if a is not None)
            return out
        return call

    def watched_matmul(a, b):
        if b is user.pool_w:
            alive.append([ref() is not None for ref in refs])
        return matmul(a, b)

    user.candidate_aware_self_attention = watched(user.candidate_aware_self_attention)
    user.candidate_aware_cnn = watched(user.candidate_aware_cnn)
    monkeypatch.setattr(ad, "matmul", watched_matmul)
    model.score_impression(history, candidates, feats, news_cache=cache)
    assert len(alive) == 2 and len(refs) >= 4
    assert not any(alive[0] + alive[1])


def test_inference_working_set_at_the_longest_rank_history():
    # M=28 clicks and C=10 candidates with every title cached: the longest
    # history of the rank benchmark, chunks of one candidate.  Holding the
    # key block, the transposed key copy, the click windows and the news
    # batch to the end took 573 KiB; 432 KiB since.
    model, history, candidates, feats, cache = paper_size_impression()
    with Traced() as traced:
        scores = model.score_impression(history, candidates, feats, news_cache=cache)
        del scores
        assert traced.peak() < 500 * 1024


def test_inference_working_set_of_a_short_history_in_chunks():
    # M=10 clicks and C=10 candidates: chunks of 5 candidates, whose
    # (5, 10, d_aug) contexts hold 50 rows, as one candidate at the 50-click
    # cap would.  Each context is released once read, so the impression
    # stays under the longest rank history's 432 KiB.
    model, history, candidates, feats, cache = paper_size_impression(m=10)
    with Traced() as traced:
        scores = model.score_impression(history, candidates, feats, news_cache=cache)
        del scores
        assert traced.peak() < 432 * 1024


@pytest.mark.parametrize("m, max_history", [(3, 3), (2, 5), (1, 50)],
                         ids=["k=1", "k=2 ragged", "k>=C"])
def test_chunked_scores_match_one_candidate_at_a_time(m, max_history):
    # Chunks of max_history // M of the 5 candidates: one, two (the last
    # chunk holds one) or all of them.  Every mode scores each candidate as
    # an impression of that candidate alone does.
    model = AvoidanceAwareRanker(tiny_config(max_history=max_history), VocabSizes(12, 3, 5),
                                 seed=2)
    articles = make_articles(m + 5)
    ids = sorted(articles)
    feats = make_features(ids)
    history, candidates = [articles[i] for i in ids[:m]], [articles[i] for i in ids[m:]]
    for mode in ("full", "only_rel", "only_avoid"):
        batch = model.score_impression(history, candidates, feats, mode=mode)
        alone = [model.score_impression(history, [c], feats, mode=mode)[0] for c in candidates]
        assert [s.data[0, 0] for s in batch] == pytest.approx(
            [s.data[0, 0] for s in alone], rel=0, abs=1e-12), mode


def test_grad_check_through_ragged_chunks():
    # 2 clicks and max_history 4: the 3 candidates are a chunk of 2 and a
    # chunk of 1; gradients flow back through both into every parameter.
    enc = make_encoder(max_history=4)
    vecs, ues = rand_items(2)
    cv, cu = rand_items(3, seed=51)
    cand_vecs, cand_ues = ad.concat(cv, axis=0), ad.concat(cu, axis=0)

    def fn():
        history, cands = augment(enc, vecs, ues, cand_vecs, cand_ues)
        users = enc.user_vectors(history)
        rel = ad.constant(np.full((3, 1), 0.3), dtype=np.float64)
        return total(enc.interest_score(cands, users, rel))

    params = list(enc.parameters().values())
    assert ad.grad_check(fn, params, eps=1e-5, max_coords_per_param=10) < 1e-3


def test_grad_check_through_training_chunks():
    # 6 clicks at max_history 6: inference scores the 5 candidates one
    # at a time, while a record is active they are a chunk of 3 and one of
    # 2.  The analytic gradients come from the training chunks, the
    # finite differences from the inference ones.
    enc = make_encoder(max_history=6)
    vecs, ues = rand_items(6)
    cv, cu = rand_items(5, seed=52)
    cand_vecs, cand_ues = ad.concat(cv, axis=0), ad.concat(cu, axis=0)
    chunks = []
    attention = enc.candidate_aware_self_attention

    def counted(history, cand_scores):
        chunks.append((ad.ComputationRecord.active() is not None, cand_scores.shape[0]))
        return attention(history, cand_scores)

    enc.candidate_aware_self_attention = counted

    def fn():
        history, cands = augment(enc, vecs, ues, cand_vecs, cand_ues)
        users = enc.user_vectors(history)
        rel = ad.constant(np.full((5, 1), 0.3), dtype=np.float64)
        return total(enc.interest_score(cands, users, rel))

    params = list(enc.parameters().values())
    assert ad.grad_check(fn, params, eps=1e-5, max_coords_per_param=10) < 1e-3
    assert chunks[:2] == [(True, 3), (True, 2)]
    assert set(chunks[2:]) == {(False, 1)}


@pytest.mark.parametrize("m, inference_chunks", [(28, 10), (10, 2), (50, 10)])
def test_recorded_scores_equal_inference_scores(m, inference_chunks):
    # A paper-size float32 model: a record scores the 10 candidates in two
    # chunks of 5, inference in chunks of 50 // M; every score agrees
    # within float32 rounding.
    model, history, candidates, feats, cache = paper_size_impression(m=m)
    chunks = []
    attention = model.user.candidate_aware_self_attention

    def counted(history, cand_scores):
        chunks.append(cand_scores.shape[0])
        return attention(history, cand_scores)

    model.user.candidate_aware_self_attention = counted
    alone = [s.data[0, 0] for s in model.score_impression(history, candidates, feats)]
    assert len(chunks) == inference_chunks
    del chunks[:]
    with ad.ComputationRecord():
        recorded = [s.data[0, 0] for s in model.score_impression(history, candidates, feats)]
    assert chunks == [5, 5]
    assert recorded == pytest.approx(alone, rel=1e-5, abs=1e-6)
