"""Candidate-aware user modeling over engagement-augmented click history.

Every history item and the candidate are widened by their engagement-cell
embedding.  Two context paths run over the augmented history, both
conditioned on the candidate: multi-head self-attention whose scores
carry an additive candidate term, and a windowed filter bank over
adjacent clicks.  A per-click merge plus attentive pooling yields the
user vector, whose dot product with the augmented candidate is gated
against the standalone relevance score to produce the final interest
score.

History rows are real clicks only, never padding.  The filter bank and
the merge are stored as row blocks (``cnn_window_w``/``cnn_cand_w``,
``merge_local_w``/``merge_att_w``), so every product that does not
depend on a click-candidate pair is built once per impression by
``augment_history``: the window half of the filter bank, the values
already taken through the attention rows of the merge, the click-query
half of the scores (M, heads*M), and the C candidates' score halves
(C, 1, heads*M) and filter-bank terms (C, d_aug).  The keys of every head
are one (heads*d_q, M) product, kept as its (heads, d_q, M) view; each
score half is a per-head product with it, merged by one ``reshape``, and
it dies when ``augment_history`` returns (unless a record keeps it for
backward), so no later pass holds it.

The candidates' terms are then a (C, 1, .) stack, scored in chunks of
k candidates, one pass per chunk: the chunk's (k, 1, .) terms broadcast
against the (M, .) history terms, so its contexts are (k, M, d_aug) and
every product with a weight is one product of all k*M rows.  With no
record active (ranking, ``evaluate``), k = max(1, max_history // M)
(``max_history`` is the model's history cap), so a chunk never holds
more rows than one candidate at the longest history the model accepts;
at the cap it is one candidate.  While a record is active (training),
the record keeps every chunk's activations until backward, so smaller
chunks save no memory and only add ops: k = max(that k, ceil(C / 2)),
at most two chunks.  One chunk of all C would raise the training peak by
its forward temporaries (three (C, M, d_aug) blocks at the merge's add);
two chunks halve them.  Each pass reads only
history-sized tensors and ``merge_local_w``: a score add, a per-head
softmax, one product with the folded values, the filter-bank relu, the
local half of the merge and the pooling.  The local context is released
once the merge's local half has read it, and the attention context once
it is added in.

The pooling is candidate-aware only through ``merged``: its score is
``merged_j . pool_w``.  A candidate term or a bias would add the same
amount to every click j and cancel in the softmax, so the model has
neither.  CAUM puts a tanh before the pooling query, which would make a
candidate term matter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import autodiff as ad

if TYPE_CHECKING:
    from .model import ModelConfig


class History(NamedTuple):
    """Terms of one augmented history of M clicks and the C candidates scored against it."""

    scores: ad.Tensor  # (M, heads*M) click-query half of every head's scores
    values: ad.Tensor  # (heads*M, d_aug), row h*M + j is row j times out_w_h times merge_att_w_h
    local: ad.Tensor   # (M, d_aug) filter-bank pre-activation of the click windows
    cand_scores: ad.Tensor  # (C, 1, heads*M) candidate half of every head's scores
    cand_local: ad.Tensor   # (C, d_aug) filter-bank terms of the candidate rows


class UserEncoder:
    def __init__(self, config: ModelConfig, rng):
        self.d_aug = config.d_news + config.dim_ue
        self.n_heads = n_heads = config.user_heads
        self.d_head = self.d_aug // n_heads
        self.cnn_window = cnn_window = config.cnn_window
        self.max_history = config.max_history
        self.dtype = config.numpy_dtype()

        def xav(fan_in, fan_out):
            return ad.xavier_uniform(rng, fan_in, fan_out, dtype=self.dtype)

        def row_blocks(w, cut, *names):  # one xavier draw, cut into two parameters
            return [ad.parameter(np.ascontiguousarray(part), name=name)
                    for part, name in zip((w[:cut], w[cut:]), names)]

        d_aug = d_q = self.d_aug
        self.q_hist = ad.parameter(xav(d_aug, d_q), name="user.q_hist")
        self.q_cand = ad.parameter(xav(d_aug, d_q), name="user.q_cand")
        # One xavier draw per head, in head order, stacked along axis 0.
        self.rel_heads = ad.parameter(np.stack([xav(d_q, d_aug) for _ in range(n_heads)]),
                                      name="user.rel_heads")
        self.out_w = ad.parameter(np.stack([xav(d_aug, self.d_head) for _ in range(n_heads)]),
                                  name="user.out_w")
        win = (2 * cnn_window + 1) * d_aug
        self.cnn_window_w, self.cnn_cand_w = row_blocks(
            xav(win + d_aug, d_aug), win, "user.cnn_window_w", "user.cnn_cand_w")
        self.cnn_b = ad.parameter(np.zeros(d_aug, dtype=self.dtype), name="user.cnn_b")
        self.merge_local_w, self.merge_att_w = row_blocks(
            xav(2 * d_aug, d_aug), d_aug, "user.merge_local_w", "user.merge_att_w")
        self.merge_b = ad.parameter(np.zeros(d_aug, dtype=self.dtype), name="user.merge_b")
        # The top half of a [merged | cand] draw, so later draws stay the same.
        self.pool_w = ad.parameter(xav(2 * d_aug, 1)[:d_aug].copy(), name="user.pool_w")
        self.gate_w = ad.parameter(xav(d_aug, 1), name="user.gate_w")
        self.gate_b = ad.parameter(np.zeros(1, dtype=self.dtype), name="user.gate_b")

    def parameters(self):
        return {p.name: p for p in (self.q_hist, self.q_cand, self.cnn_window_w, self.cnn_cand_w,
                                    self.cnn_b, self.merge_local_w, self.merge_att_w,
                                    self.merge_b, self.pool_w, self.gate_w,
                                    self.gate_b, self.rel_heads, self.out_w)}

    # -- representation assembly ------------------------------------------

    def augment_history(self, news_vecs: ad.Tensor, ues: ad.Tensor,
                        cands: ad.Tensor) -> History:
        """Terms of (M, d_news) clicks widened by their (M, dim_ue) cells and (C, d_aug) ``cands``.

        The terms are built one after another, so that each temporary
        (the click windows, the values' head outputs) dies before the next
        one is made; the key product, read by both score halves, dies on
        return.
        """
        if not len(news_vecs.data):
            raise ValueError("empty history; apply the cold-user fallback instead")
        rows = ad.concat([news_vecs, ues], axis=1)
        m, heads = rows.shape[0], self.n_heads
        local = ad.affine(ad.sliding_window_concat(rows, self.cnn_window),
                          self.cnn_window_w, self.cnn_b)
        att_w = ad.reshape(self.merge_att_w, (heads, self.d_head, self.d_aug))
        values = ad.matmul(ad.matmul(rows, self.out_w), att_w)           # (heads, M, d_aug)
        values = ad.reshape(values, (heads * m, self.d_aug))
        # The heads stacked along rows make one (heads*d_q, M) product,
        # read per head as its (heads, d_q, M) view.
        rel = ad.reshape(self.rel_heads, (heads * self.d_aug, self.d_aug))
        keys = ad.matmul(rel, ad.reshape(rows, (self.d_aug, m), (1, 0)))
        keys = ad.reshape(keys, (heads, self.d_aug, m))
        scores = self._head_scores(ad.matmul(rows, self.q_hist), keys, (m,))
        cand_scores = self._head_scores(ad.matmul(cands, self.q_cand), keys, (len(cands.data), 1))
        return History(scores, values, local, cand_scores, ad.matmul(cands, self.cnn_cand_w))

    def _head_scores(self, queries: ad.Tensor, keys: ad.Tensor, lead) -> ad.Tensor:
        """Scores of (R, d_q) ``queries`` against every head's keys, shaped ``lead + (heads*M,)``.

        ``lead`` holds R rows: (R,) or (R, 1).  Column h*M + j is head h
        and click j.
        """
        per_head = ad.matmul(queries, keys)                                 # (heads, R, M)
        return ad.reshape(per_head, lead + (self.n_heads * keys.shape[2],), (1, 0, 2))

    def user_vectors(self, history: History) -> ad.Tensor:
        """(C, d_aug) user vectors, one per candidate of ``history``.

        The candidates are a (C, 1, .) stack scored in chunks of
        k = max(1, max_history // M), so a chunk's (k, M, .) tensors hold
        no more rows than one candidate at the longest history the model
        accepts.  While a record is active there are at most two chunks,
        k = max(that k, ceil(C / 2)) (module docstring).
        """
        c, m = history.cand_scores.shape[0], history.scores.shape[0]
        k = max(1, self.max_history // m)
        if ad.ComputationRecord.active() is not None:
            k = max(k, -(-c // 2))
        scores, local = history.cand_scores, ad.reshape(history.cand_local, (c, 1, self.d_aug))
        users = ad.concat([self.user_embedding(
            self.candidate_aware_self_attention(history, ad.slice_(scores, rows=chunk)),
            self.candidate_aware_cnn(history, ad.slice_(local, rows=chunk)))
            for chunk in (slice(i, i + k) for i in range(0, c, k))], axis=0)
        return ad.reshape(users, (c, self.d_aug))

    # -- context paths ------------------------------------------------------

    def candidate_aware_self_attention(self, history: History,
                                       cand_scores: ad.Tensor) -> ad.Tensor:
        """Per-click long-range context (k, M, d_aug), already through the merge's attention rows.

        Head scores between clicks i and j are q_i^T W h_j plus a shared
        candidate term q_c^T W h_j, softmax-normalized over j;
        ``cand_scores`` holds the candidate terms of a chunk of k
        candidates, (k, 1, heads*M).  A single (1, heads*M) row gives (M, d_aug).
        """
        m = history.scores.shape[0]
        scores = ad.add(history.scores, cand_scores)                        # (k, M, heads*M)
        shape = scores.shape
        gamma = ad.softmax(ad.reshape(scores, shape[:-1] + (self.n_heads, m)), axis=-1)
        del scores
        return ad.matmul(ad.reshape(gamma, shape), history.values)

    def candidate_aware_cnn(self, history: History, cand_local: ad.Tensor) -> ad.Tensor:
        """Per-click local context (k, M, d_aug) of 2h+1 click windows plus the candidate term.

        ``cand_local`` holds the (k, 1, d_aug) filter-bank terms of a chunk
        of k candidates; a single (1, d_aug) row gives (M, d_aug).
        """
        return ad.relu(ad.add(history.local, cand_local))

    # -- pooling and scoring -------------------------------------------------

    def user_embedding(self, attention_ctx: ad.Tensor, local_ctx: ad.Tensor) -> ad.Tensor:
        """Attentive pooling of merged per-click vectors, (k, M, d_aug) into (k, 1, d_aug).

        ``attention_ctx`` has already passed the attention rows of the merge,
        so only its local rows remain: relu(local . W_local + b + att . W_att).
        Each context is released once read.  An (M, d_aug) pair gives (1, d_aug).
        """
        merged = ad.affine(local_ctx, self.merge_local_w, self.merge_b)
        del local_ctx
        merged = ad.add(merged, attention_ctx)
        del attention_ctx
        merged = ad.relu(merged)
        alpha = ad.softmax(ad.matmul(merged, self.pool_w), axis=-2)        # (k, M, 1)
        return ad.matmul(ad.reshape(alpha, alpha.shape[:-2] + (1, alpha.shape[-2])), merged)

    def interest_score(self, cands: ad.Tensor, users: ad.Tensor,
                       relevance_score: ad.Tensor) -> ad.Tensor:
        """(C, 1) convex mix of each user-candidate dot product and its relevance score.

        eta.raw + (1 - eta).rel is computed as rel + eta.(raw - rel).
        """
        raw = self.preliminary_interest(cands, users)
        eta = ad.sigmoid(ad.affine(users, self.gate_w, self.gate_b))
        return ad.add(relevance_score,
                      ad.mul(eta, ad.add(raw, ad.scale(relevance_score, -1.0))))

    def preliminary_interest(self, cands: ad.Tensor, users: ad.Tensor) -> ad.Tensor:
        """(C, 1) ungated dot products of candidate row i with user row i."""
        ones = ad.constant(np.ones((self.d_aug, 1)), dtype=self.dtype)
        return ad.matmul(ad.mul(cands, users), ones)
