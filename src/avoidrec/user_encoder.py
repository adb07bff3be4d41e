"""Candidate-aware user modeling over engagement-augmented click history.

Every history item and the candidate are widened by their engagement-cell
embedding.  Two context paths run over the augmented history, both
conditioned on the candidate: multi-head self-attention whose scores
carry an additive candidate term, and a windowed filter bank over
adjacent clicks.  A per-click merge plus candidate-aware pooling yields
the user vector, whose dot product with the augmented candidate is gated
against the standalone relevance score to produce the final interest
score.

History rows are real clicks only, never padding.  What does not depend
on the candidate (the query projection, every head's keys and values as
one stacked tensor each, the window half of the filter bank) is built
once per history by ``augment_history`` and shared by every candidate.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad


class History(NamedTuple):
    """Candidate-independent terms of one augmented history of M clicks."""

    query: ad.Tensor    # (M, d_q) click queries
    keys: ad.Tensor     # (heads, d_q, M), rel_w of each head times rows^T
    values: ad.Tensor   # (heads, M, d_head), rows times out_w of each head
    local: ad.Tensor    # (M, d_aug) filter-bank pre-activation of the click windows


class UserEncoder:
    def __init__(self, rng, d_news=256, dim_ue=32, n_heads=4, cnn_window=1,
                 dtype=None):
        self.d_aug = d_news + dim_ue
        if self.d_aug % n_heads:
            raise ValueError(f"augmented width {self.d_aug} not divisible by n_heads={n_heads}")
        self.n_heads = n_heads
        self.d_head = self.d_aug // n_heads
        self.cnn_window = cnn_window
        self.dtype = dtype if dtype is not None else ad.DEFAULT_DTYPE

        def xav(fan_in, fan_out):
            return ad.xavier_uniform(rng, fan_in, fan_out, dtype=self.dtype)

        d_aug = d_q = self.d_aug
        self.q_hist = ad.parameter(xav(d_aug, d_q), name="user.q_hist")
        self.q_cand = ad.parameter(xav(d_aug, d_q), name="user.q_cand")
        # One xavier draw per head, in head order, stacked along axis 0.
        self.rel_heads = ad.parameter(np.stack([xav(d_q, d_aug) for _ in range(n_heads)]),
                                      name="user.rel_heads")
        self.out_w = ad.parameter(np.stack([xav(d_aug, self.d_head) for _ in range(n_heads)]),
                                  name="user.out_w")
        win_in = (2 * cnn_window + 1) * d_aug + d_aug
        self.cnn_w = ad.parameter(xav(win_in, d_aug), name="user.cnn_w")
        self.cnn_b = ad.parameter(np.zeros(d_aug, dtype=self.dtype), name="user.cnn_b")
        self.merge_w = ad.parameter(xav(2 * d_aug, d_aug), name="user.merge_w")
        self.merge_b = ad.parameter(np.zeros(d_aug, dtype=self.dtype), name="user.merge_b")
        self.pool_w = ad.parameter(xav(2 * d_aug, 1), name="user.pool_w")
        self.pool_b = ad.parameter(np.zeros(1, dtype=self.dtype), name="user.pool_b")
        self.gate_w = ad.parameter(xav(d_aug, 1), name="user.gate_w")
        self.gate_b = ad.parameter(np.zeros(1, dtype=self.dtype), name="user.gate_b")

    def parameters(self):
        return {
            "user.q_hist": self.q_hist, "user.q_cand": self.q_cand,
            "user.cnn_w": self.cnn_w, "user.cnn_b": self.cnn_b,
            "user.merge_w": self.merge_w, "user.merge_b": self.merge_b,
            "user.pool_w": self.pool_w, "user.pool_b": self.pool_b,
            "user.gate_w": self.gate_w, "user.gate_b": self.gate_b,
            "user.rel_heads": self.rel_heads, "user.out_w": self.out_w,
        }

    # -- representation assembly ------------------------------------------

    def augment_history(self, news_vecs: ad.Tensor, ues: ad.Tensor) -> History:
        """Candidate-independent terms of (M, d_news) clicks widened by their (M, dim_ue) cells."""
        if not len(news_vecs.data):
            raise ValueError("empty history; apply the cold-user fallback instead")
        rows = ad.concat([news_vecs, ues], axis=1)
        # The filter bank reads [windows, candidate]: the candidate block of
        # cnn_w meets zeros here, the window blocks meet zeros per candidate.
        windows = ad.concat([ad.sliding_window_concat(rows, self.cnn_window),
                             ad.constant(np.zeros(rows.shape), dtype=self.dtype)], axis=1)
        return History(ad.matmul(rows, self.q_hist), ad.matmul(self.rel_heads, ad.transpose(rows)),
                       ad.matmul(rows, self.out_w), ad.affine(windows, self.cnn_w, self.cnn_b))

    # -- context paths ------------------------------------------------------

    def candidate_aware_self_attention(self, history: History, cand: ad.Tensor) -> ad.Tensor:
        """Per-click long-range context (M, d_aug).

        Head scores between clicks i and j are q_i^T W h_j plus a shared
        candidate term q_c^T W h_j, i.e. (q_i + q_c)^T W h_j, softmax-
        normalized over j.
        """
        queries = ad.add(history.query, ad.matmul(cand, self.q_cand))
        gamma = ad.softmax(ad.matmul(queries, history.keys), axis=2)
        heads = ad.matmul(gamma, history.values)
        return ad.reshape(ad.reshape(heads, heads.shape, (1, 0, 2)), (heads.shape[1], self.d_aug))

    def candidate_aware_cnn(self, history: History, cand: ad.Tensor) -> ad.Tensor:
        """Per-click local context (M, d_aug) from a 2h+1 click window, zeros past the ends."""
        zeros = ad.constant(np.zeros((1, self.cnn_w.shape[0] - self.d_aug)), dtype=self.dtype)
        cand_part = ad.matmul(ad.concat([zeros, cand], axis=1), self.cnn_w)
        return ad.relu(ad.add(history.local, cand_part))

    # -- pooling and scoring -------------------------------------------------

    def user_embedding(self, attention_ctx: ad.Tensor, local_ctx: ad.Tensor,
                       cand: ad.Tensor) -> ad.Tensor:
        """Candidate-aware pooling of merged per-click vectors into (1, d_aug)."""
        merged = ad.relu(ad.affine(ad.concat([local_ctx, attention_ctx], axis=1),
                                   self.merge_w, self.merge_b))
        scores = ad.affine(ad.concat([merged, ad.repeat_rows(cand, merged.shape[0])], axis=1),
                           self.pool_w, self.pool_b)
        alpha = ad.softmax(scores, axis=0)
        return ad.matmul(ad.transpose(alpha), merged)

    def interest_score(self, cand: ad.Tensor, user_vec: ad.Tensor,
                       relevance_score: ad.Tensor) -> ad.Tensor:
        """Convex mix of the user-candidate dot product and the relevance score."""
        raw = self.preliminary_interest(cand, user_vec)
        eta = ad.sigmoid(ad.affine(user_vec, self.gate_w, self.gate_b))
        return ad.add(ad.mul(eta, raw),
                      ad.mul(ad.add_scalar(ad.scale(eta, -1.0), 1.0), relevance_score))

    def preliminary_interest(self, cand: ad.Tensor, user_vec: ad.Tensor) -> ad.Tensor:
        """The ungated user-candidate dot product."""
        return ad.matmul(cand, ad.transpose(user_vec))
