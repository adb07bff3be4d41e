"""Title/category/entity news encoder.

A list of articles is encoded as one batch.  Titles arrive unpadded (a
parsed article holds at most ``max_title_len`` token ids); the batch pads
them here into a masked (N, L) token matrix, L the longest title of the
batch, and all heads run in one pass.  Title tokens are embedded,
contextualized with multi-head self-attention over token positions, and
pooled with additive attention; padding positions are masked out of both
attention stages.  The pooled title vector is concatenated with a
category embedding and a mean of entity embeddings (zeros when entities
are disabled or absent) and mixed by a final dense layer into the news
vector.

The query, key and value projections are one matrix ``wqkv`` of shape
(d_word, 3 d_news).  A token's projection does not depend on its position,
so each distinct token of the batch (pad included) is embedded and
projected once: a batch of 53 titles holds about 80 distinct ids across
its 424 positions.  One ``autodiff.multi_head_attention`` op runs every
head's masked attention, reading each position's query, key and value
row from that small table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .corpus import PAD_INDEX

if TYPE_CHECKING:
    from .model import ModelConfig, VocabSizes


class NewsEncoder:
    def __init__(self, config: ModelConfig, sizes: VocabSizes, rng, word_init=None):
        d_word, d_news, d_att = config.d_word, config.d_news, config.d_att
        d_cat, d_ent = config.d_cat, config.d_ent
        self.d_news = d_news
        self.n_heads = config.n_heads
        self.d_ent = d_ent
        self.use_entities = config.use_entities and sizes.n_entities > 0
        self.dtype = config.numpy_dtype()

        def xav(fan_in, fan_out):
            return ad.xavier_uniform(rng, fan_in, fan_out, dtype=self.dtype)

        if word_init is None:
            word_init = rng.uniform(-0.1, 0.1, size=(sizes.n_words, d_word))
            word_init[PAD_INDEX] = 0.0
        elif word_init.shape != (sizes.n_words, d_word):
            raise ValueError(f"word_init shape {word_init.shape} != {(sizes.n_words, d_word)}")
        # A copy: loading a state writes the table in place, never into word_init.
        self.word_emb = ad.Tensor(np.array(word_init, dtype=self.dtype),
                                  requires_grad=config.word_trainable, name="news.word_emb")
        # The query, key and value draws, in that order, side by side.
        self.wqkv = ad.parameter(np.concatenate([xav(d_word, d_news) for _ in range(3)], axis=1),
                                 name="news.wqkv")
        self.att_w = ad.parameter(xav(d_news, d_att), name="news.att_w")
        self.att_b = ad.parameter(np.zeros(d_att, dtype=self.dtype), name="news.att_b")
        self.att_q = ad.parameter(xav(d_att, 1), name="news.att_q")
        self.cat_emb = ad.parameter(
            rng.uniform(-0.1, 0.1, size=(sizes.n_categories, d_cat)),
            name="news.cat_emb", dtype=self.dtype)
        if self.use_entities:
            self.ent_emb = ad.parameter(
                rng.uniform(-0.1, 0.1, size=(sizes.n_entities, d_ent)),
                name="news.ent_emb", dtype=self.dtype)
        else:
            self.ent_emb = None
        self.combine_w = ad.parameter(xav(d_news + d_cat + d_ent, d_news), name="news.combine_w")
        self.combine_b = ad.parameter(np.zeros(d_news, dtype=self.dtype), name="news.combine_b")

    def parameters(self):
        return {p.name: p for p in (self.word_emb, self.wqkv, self.att_w, self.att_b, self.att_q,
                                    self.cat_emb, self.combine_w, self.combine_b, self.ent_emb)
                if p is not None}

    def _contextualize(self, tokens, mask):
        """Self-attention of all heads over each title's positions, as (N*L, d_news)."""
        distinct, position = np.unique(tokens, return_inverse=True)
        qkv = ad.matmul(ad.embedding_lookup(self.word_emb, distinct), self.wqkv)
        return ad.multi_head_attention(qkv, position.reshape(tokens.shape), mask, self.n_heads)

    def _pool(self, contextual, mask):
        """Additive attention pooling of each title over its unmasked positions."""
        n, length = mask.shape
        hidden = ad.tanh(ad.affine(contextual, self.att_w, self.att_b))
        scores = ad.reshape(ad.matmul(hidden, self.att_q), (n, 1, length))
        alpha = ad.softmax(scores, axis=2, mask=mask[:, None, :])
        pooled = ad.matmul(alpha, ad.reshape(contextual, (n, length, self.d_news)))
        return ad.reshape(pooled, (n, self.d_news))

    def encode_titles(self, titles) -> ad.Tensor:
        """Title vectors (N, d_news) of unpadded token sequences; empty titles yield zeros.

        Trailing padding ids in a title change nothing: the batch is cut
        to its longest real title.
        """
        pad = PAD_INDEX
        tokens = np.full((len(titles), max(map(len, titles), default=0)), pad, dtype=np.int64)
        for row, title in zip(tokens, titles):
            row[:len(title)] = title
        mask = tokens != pad
        real = mask.any(axis=1)
        if not real.any():
            return ad.constant(np.zeros((len(titles), self.d_news)), dtype=self.dtype)
        length = np.flatnonzero(mask.any(axis=0))[-1] + 1
        tokens, mask = tokens[real, :length], mask[real, :length]
        pooled = self._pool(self._contextualize(tokens, mask), mask)
        if real.all():
            return pooled
        # Empty titles gather the zero row appended after the encoded ones.
        zero = ad.constant(np.zeros((1, self.d_news)), dtype=self.dtype)
        rows = np.where(real, np.cumsum(real) - 1, real.sum())
        return ad.embedding_lookup(ad.concat([pooled, zero], axis=0), rows)

    def _entity_channel(self, entity_lists) -> ad.Tensor:
        """Mean entity embedding per article (N, d_ent); zeros when it has none."""
        ids = [e for entities in entity_lists for e in entities] if self.use_entities else []
        if not ids:
            return ad.constant(np.zeros((len(entity_lists), self.d_ent)), dtype=self.dtype)
        counts = np.array([len(entities) for entities in entity_lists])
        # Row i averages the columns of article i's entities.
        weights = np.repeat(np.eye(len(counts)) / np.maximum(counts, 1)[:, None], counts, axis=1)
        return ad.matmul(ad.constant(weights, dtype=self.dtype),
                         ad.embedding_lookup(self.ent_emb, ids))

    def encode_news(self, articles) -> ad.Tensor:
        """News vectors (N, d_news) of a list of articles, encoded as one batch."""
        articles = list(articles)
        for article in articles:
            if not 0 <= article.category_id < self.cat_emb.data.shape[0]:
                raise IndexError(
                    f"unknown category id {article.category_id} for article {article.news_id!r}")
        n_t = self.encode_titles([a.title_tokens for a in articles])
        n_cat = ad.embedding_lookup(self.cat_emb, [a.category_id for a in articles])
        n_ent = self._entity_channel([a.entity_ids for a in articles])
        return ad.affine(ad.concat([n_t, n_cat, n_ent], axis=1),
                         self.combine_w, self.combine_b)
