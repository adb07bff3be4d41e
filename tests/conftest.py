import tracemalloc

import numpy as np
import pytest

import avoidrec.autodiff as ad
from avoidrec.corpus import NewsArticle
from avoidrec.features import ArticleFeatures
from avoidrec.model import AvoidanceAwareRanker, ModelConfig, VocabSizes


def tiny_config(dtype="float64", **overrides):
    base = dict(d_word=8, d_news=8, n_heads=2, d_att=6, d_cat=4, d_ent=4,
                dim_ue=4, grid_d=5, d_time=4, user_heads=4, cnn_window=1,
                max_history=3, max_title_len=6, dtype=dtype)
    base.update(overrides)
    return ModelConfig(**base)


def make_articles(n, seed=3, n_words=12, n_categories=3, n_entities=5, title_len=6):
    rng = np.random.default_rng(seed)
    articles = {}
    for i in range(n):
        nid = f"N{i:03d}"
        n_real = int(rng.integers(1, title_len))
        toks = [int(t) for t in rng.integers(2, n_words, size=n_real)]
        toks += [0] * (title_len - n_real)
        articles[nid] = NewsArticle(
            nid, int(rng.integers(0, n_categories)), toks,
            entity_ids=[int(rng.integers(0, n_entities))])
    return articles


def make_features(article_ids, seed=5, grid_d=5):
    rng = np.random.default_rng(seed)
    return {nid: ArticleFeatures(cell=int(rng.integers(0, grid_d * grid_d)),
                                 clicks_norm=float(rng.random()),
                                 age_hours=float(rng.random() * 30))
            for nid in article_ids}


def total(t):
    """The sum of every entry of ``t`` as a (1, 1) tensor of its dtype, whose gradient is ones.

    Built from autodiff's own ops: ``t`` as one row, times a column of ones.
    """
    n = t.data.size
    return ad.matmul(ad.reshape(t, (1, n)), ad.constant(np.ones((n, 1)), dtype=t.dtype))


def clear_grads(model):
    for p in model.parameters().values():
        p.grad = None


@pytest.fixture
def tiny_model():
    config = tiny_config()
    return AvoidanceAwareRanker(config, VocabSizes(12, 3, 5), seed=7)


@pytest.fixture
def tiny_instance(tiny_model):
    articles = make_articles(5)
    ids = sorted(articles)
    feats = make_features(ids)
    history = [articles[ids[0]], articles[ids[1]]]
    candidates = [articles[ids[2]], articles[ids[3]], articles[ids[4]]]
    return tiny_model, history, candidates, feats


class Traced:
    """tracemalloc over a block, in bytes allocated since entry.

    ``kept()`` counts those still alive; ``peak()`` the most alive at once.
    """

    def __enter__(self):
        self.started = not tracemalloc.is_tracing()
        if self.started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self.base = tracemalloc.get_traced_memory()[0]
        return self

    def kept(self):
        return tracemalloc.get_traced_memory()[0] - self.base

    def peak(self):
        return tracemalloc.get_traced_memory()[1] - self.base

    def __exit__(self, *exc):
        if self.started:
            tracemalloc.stop()
        return False
