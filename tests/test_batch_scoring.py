"""The scorer is row-wise in the candidates of an impression.

``score_impression`` runs the candidate-only layers once over all C
candidates, so a candidate's score must not depend on which other
candidates share its batch: scored alone it gets its row of the batch,
and permuting the candidates permutes the scores.
"""

import numpy as np
import pytest

import avoidrec.autodiff as ad
from avoidrec.model import MODES, AvoidanceAwareRanker, VocabSizes
from avoidrec.training import instance_loss
from conftest import make_articles, make_features, tiny_config


@pytest.fixture(scope="module")
def setup():
    model = AvoidanceAwareRanker(tiny_config(), VocabSizes(12, 3, 5), seed=7)
    articles = make_articles(11)
    ids = sorted(articles)
    return model, [articles[i] for i in ids], make_features(ids)


def _histories(a):
    # max_history is 3: "short" fits, "long" is cut from the old end.
    return {"empty": [], "short": a[:2], "long": a[:6]}


def _scores(model, history, candidates, feats, mode):
    return [float(s.data[0, 0])
            for s in model.score_impression(history, candidates, feats, mode=mode)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("history", ["empty", "short", "long"])
def test_candidate_alone_scores_its_batch_row(setup, mode, history):
    model, a, feats = setup
    hist = _histories(a)[history]
    candidates = [a[6], a[7], a[8], a[1], a[9], a[10]]
    batch = _scores(model, hist, candidates, feats, mode)
    for cand, expected in zip(candidates, batch):
        assert _scores(model, hist, [cand], feats, mode) == pytest.approx([expected], abs=1e-12)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("history", ["empty", "short", "long"])
def test_permuting_candidates_permutes_scores(setup, mode, history):
    model, a, feats = setup
    hist = _histories(a)[history]
    candidates = [a[6], a[7], a[8], a[1], a[9], a[10]]
    batch = _scores(model, hist, candidates, feats, mode)
    perm = np.random.default_rng(3).permutation(len(candidates))
    permuted = _scores(model, hist, [candidates[i] for i in perm], feats, mode)
    assert permuted == pytest.approx([batch[i] for i in perm], abs=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_no_candidates_no_scores(setup, mode):
    model, a, feats = setup
    for hist in _histories(a).values():
        assert model.score_impression(hist, [], feats, mode=mode) == []


def test_batched_loss_grad_check():
    # Every parameter, the news encoder included.  Its gradients here are
    # 1e-10 to 1e-8, and float64 finite differences carry noise of about
    # 1e-12 (one ulp of the loss over 2 eps), so the model runs in long
    # double, where that noise is 2000 times smaller.  A model is built
    # only in a dtype a checkpoint holds, so the parameters of a float64
    # one are cast; the float64 constants of the forward pass promote.
    assert np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    model = AvoidanceAwareRanker(tiny_config(), VocabSizes(12, 3, 5), seed=2)
    for p in model.parameters().values():
        p.data = p.data.astype(np.longdouble)
    articles = make_articles(9)
    ids = sorted(articles)
    feats = make_features(ids)
    a = [articles[i] for i in ids]

    def fn():
        scores = model.score_impression(a[:5], [a[5], a[6], a[7], a[8]], feats)
        return instance_loss(scores[1], [scores[0]] + scores[2:])

    assert fn().data.dtype == np.longdouble
    params = list(model.trainable_parameters().values())
    assert any(p.name.startswith("news.") for p in params)
    assert ad.grad_check(fn, params, eps=1e-4, max_coords_per_param=8) < 1e-4
