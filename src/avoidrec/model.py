"""Composition of the encoders into one candidate scorer.

``AvoidanceAwareRanker`` owns every trainable tensor (news encoder, user
encoder, relevance predictor, engagement table) and scores the candidates
of one impression given pre-impression article features.  Three scoring
modes support component ablations:

* ``full``        -- gated mix of relevance score and user-candidate match;
* ``only_rel``    -- engagement vectors zeroed inside the user encoder
                     (the relevance branch keeps them);
* ``only_avoid``  -- the user-candidate match alone, relevance bypassed.

Users with an empty history skip the user encoder entirely and are scored
by the relevance branch in every mode.  An impression's articles are encoded
in one batch (``evaluate`` caches them per call), its history terms are built
once, the candidate-only layers run once over all C candidates, and the
candidate-aware user encoder runs once per chunk of candidates: chunks
whose rows fit the ``max_history`` cap in inference, and at most two
chunks while a record is active (training), whose record keeps every
chunk's activations anyway.  What the chunk loop does not read is released
before it starts: the article batch here, the history's key block inside
``UserEncoder.augment_history``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import DTYPES
from .features import ArticleFeatures
from .grid import EngagementEmbeddingTable
from .news_encoder import NewsEncoder
from .relevance import RelevancePredictor
from .user_encoder import UserEncoder

MODES = ("full", "only_rel", "only_avoid")


def check_integer(name: str, value, floor: int):
    """ValueError naming ``name`` unless ``value`` is an int, not a bool, in [floor, sys.maxsize].

    The cap keeps a size far beyond any array from reaching numpy, whose
    error would name no field.
    """
    if not isinstance(value, int) or isinstance(value, bool) or not floor <= value <= sys.maxsize:
        raise ValueError(f"{name} must be an integer from {floor} to {sys.maxsize}, got {value!r}")


def json_fields(cls, what: str, d=None, path=None) -> dict:
    """``d``, or the JSON of the UTF-8 file at ``path``, as an object of dataclass ``cls``'s fields.

    Each ValueError names the file, if any; ``what`` names the object.
    """
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
        except ValueError as exc:  # invalid UTF-8 or invalid JSON
            raise ValueError(f"{path}: not a UTF-8 JSON file: {exc}") from None
        what = f"{path}: {what}"
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"{what} has unknown fields: {sorted(unknown)}")
    return d


@dataclass
class ModelConfig:
    d_word: int = 300
    d_news: int = 256
    n_heads: int = 8
    d_att: int = 128
    d_cat: int = 64
    d_ent: int = 64
    use_entities: bool = True
    word_trainable: bool = True
    max_title_len: int = 30
    dim_ue: int = 32
    grid_d: int = 5
    d_time: int = 16
    user_heads: int = 4
    cnn_window: int = 1
    max_history: int = 50
    dtype: str = "float32"

    def __post_init__(self):
        positive = ("d_word", "d_news", "n_heads", "d_att", "d_cat", "d_ent", "max_title_len",
                    "dim_ue", "grid_d", "d_time", "user_heads")
        for name in positive + ("cnn_window", "max_history"):
            check_integer(name, getattr(self, name), 1 if name in positive else 0)
        for name in ("use_entities", "word_trainable"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.d_news % self.n_heads:
            raise ValueError(f"n_heads={self.n_heads} must divide d_news={self.d_news}")
        if (self.d_news + self.dim_ue) % self.user_heads:
            raise ValueError(f"user_heads={self.user_heads} must divide "
                             f"d_news + dim_ue = {self.d_news + self.dim_ue}")
        if self.dtype not in DTYPES:  # what a checkpoint can hold
            raise ValueError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")

    def numpy_dtype(self):
        return np.dtype(self.dtype)

    def to_dict(self):
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d):
        return cls(**json_fields(cls, "model", d))


def recent_history(items, max_history: int) -> list:
    """The last ``max_history`` of ``items``, oldest first; none when it is 0."""
    items = list(items)
    return items[max(len(items) - max_history, 0):]


@dataclass
class VocabSizes:
    n_words: int
    n_categories: int
    n_entities: int = 0

    @classmethod
    def from_corpus(cls, catalog, vocab):
        return cls(n_words=len(vocab), n_categories=max(len(catalog.categories), 1),
                   n_entities=len(catalog.entities))


class AvoidanceAwareRanker:
    def __init__(self, config: ModelConfig, sizes: VocabSizes, seed: int = 0,
                 word_init: np.ndarray | None = None):
        self.config = config
        rng = np.random.default_rng(seed)
        self.news = NewsEncoder(config, sizes, rng, word_init=word_init)
        self.engagement = EngagementEmbeddingTable(
            config.grid_d, config.dim_ue, rng, dtype=config.numpy_dtype())
        self.relevance = RelevancePredictor(config, rng)
        self.user = UserEncoder(config, rng)

    # -- parameter access ----------------------------------------------------

    def parameters(self) -> dict[str, ad.Tensor]:
        tensors = [*self.news.parameters().values(), self.engagement.table,
                   *self.relevance.parameters().values(), *self.user.parameters().values()]
        return {p.name: p for p in tensors}

    def trainable_parameters(self) -> dict[str, ad.Tensor]:
        return {k: v for k, v in self.parameters().items() if v.requires_grad}

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        params = self.parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ValueError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        arrays = {}
        for name, t in params.items():
            arrays[name] = np.asarray(state[name], dtype=t.data.dtype)
            if arrays[name].shape != t.data.shape:
                raise ValueError(f"{name}: shape {arrays[name].shape} != {t.data.shape}")
        # Nothing is written before every entry has passed, and then in place,
        # so an optimizer's store that holds the parameters keeps holding them.
        for name, t in params.items():
            t.data[...] = arrays[name]

    # -- scoring ---------------------------------------------------------------

    def _news_vectors(self, articles, news_cache) -> ad.Tensor:
        """(N, d_news) vectors of ``articles``; cached ones are not re-encoded."""
        if news_cache is None:
            return self.news.encode_news(articles)
        missing = {a.news_id: a for a in articles if a.news_id not in news_cache}
        if missing:
            news_cache.update(zip(missing, self.news.encode_news(missing.values()).data))
        return ad.constant(np.stack([news_cache[a.news_id] for a in articles]))

    def score_impression(self, history_articles, candidate_articles,
                         feats: dict[str, ArticleFeatures], mode: str = "full",
                         news_cache: dict | None = None):
        """Interest scores (list of (1,1) tensors) for each candidate.

        A candidate scored alone gets its row of the batch.  ``feats`` must
        cover every history and candidate article; history items beyond the
        model's window are dropped from the old end.  ``news_cache`` (news
        id -> vector) is read and filled; it is valid only while the
        parameters stay unchanged.

        The user encoder scores the candidates as one (C, 1, .) stack, in
        chunks of max(1, max_history // M) for M clicks, so a chunk holds
        no more rows than one candidate at the history cap; while a record
        is active, in at most two chunks (``UserEncoder.user_vectors``).
        A chunk's scores equal those of its candidates scored one at a
        time up to float rounding.

        The (N, d_news) batch of the impression's distinct articles lives
        only until the candidate and click rows are gathered from it, and
        the history's key block only inside ``augment_history``, so neither
        is alive in the chunk loop.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        history = recent_history(history_articles, self.config.max_history)
        candidates = list(candidate_articles)
        if not candidates:
            return []
        distinct = list({a.news_id: a for a in history + candidates}.values())
        row = {a.news_id: i for i, a in enumerate(distinct)}
        news = self._news_vectors(distinct, news_cache)
        vecs = ad.embedding_lookup(news, [row[a.news_id] for a in candidates])
        if history:
            clicks = ad.embedding_lookup(news, [row[a.news_id] for a in history])
        del news  # only the gathered rows are read from here on

        def user_ue(ue):  # only_rel keeps engagement out of the user encoder
            return ad.scale(ue, 0.0) if mode == "only_rel" else ue

        cand_feats = [feats[a.news_id] for a in candidates]
        ues = self.engagement.lookup([f.cell for f in cand_feats])
        if not history or mode != "only_avoid":
            relevance = self.relevance.relevance(
                vecs, ues, self.relevance.time2vec([f.age_hours for f in cand_feats]),
                [f.clicks_norm for f in cand_feats])
        if not history:  # a cold user: the relevance branch is the only signal
            scores = relevance
        else:
            click_ues = user_ue(self.engagement.lookup([feats[a.news_id].cell for a in history]))
            cands = ad.concat([vecs, user_ue(ues)], axis=1)  # the augmented candidates
            terms = self.user.augment_history(clicks, click_ues, cands)
            users = self.user.user_vectors(terms)
            scores = (self.user.preliminary_interest(cands, users) if mode == "only_avoid"
                      else self.user.interest_score(cands, users, relevance))
        return [ad.slice_(scores, rows=slice(i, i + 1)) for i in range(len(candidates))]
