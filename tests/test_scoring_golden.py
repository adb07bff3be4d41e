"""Pinned outputs of the full scorer on a small seeded float64 model.

The values were recorded from the per-candidate, padded-history scorer
and must survive any restructuring of the scoring path: every mode, an
empty history, a short (padded) one and one longer than ``max_history``,
plus one training loss with its gradient norms per module.
"""

import math

import numpy as np
import pytest

import avoidrec.autodiff as ad
from avoidrec.model import AvoidanceAwareRanker, VocabSizes
from avoidrec.training import instance_loss
from conftest import clear_grads, make_articles, make_features, tiny_config

TOL = 1e-6

SCORES = {
    ("full", "empty"): [0.6673648428813198, 0.5802523353998751, 0.8190916094070457,
                        0.48947015734433363],
    ("full", "short"): [0.34340956182125104, 0.2882930000220453, 0.4086325386763402,
                        0.24657515482960146],
    ("full", "long"): [0.3428884680379995, 0.2937550633806437, 0.4122384292966181,
                       0.24644107470007565],
    ("only_rel", "empty"): [0.6673648428813198, 0.5802523353998751, 0.8190916094070457,
                            0.48947015734433363],
    ("only_rel", "short"): [0.33962222407713694, 0.2925906071012413, 0.4116747093226458,
                            0.2483079104652375],
    ("only_rel", "long"): [0.3370036441251237, 0.2928708602962356, 0.4116410411879927,
                           0.2476972812751838],
    ("only_avoid", "empty"): [0.6673648428813198, 0.5802523353998751, 0.8190916094070457,
                              0.48947015734433363],
    ("only_avoid", "short"): [0.011353828063270018, -0.004478763937178729,
                              -0.0039620122447123944, -0.0005939423465186155],
    ("only_avoid", "long"): [0.009347348634560102, 0.0005704392565013839,
                             -0.002459894877528858, 0.0017926695754856422],
}

LOSS = 1.593609542839521
GRAD_NORMS = {
    "": 1.0196987805366444,
    "news.": 0.13326041336522626,
    "user.": 0.11963688423829133,
    "rel.": 0.9998321731340346,
    "engagement.": 0.0897212725805636,
}


@pytest.fixture(scope="module")
def setup():
    model = AvoidanceAwareRanker(tiny_config(), VocabSizes(12, 3, 5), seed=7)
    articles = make_articles(9)
    ids = sorted(articles)
    feats = make_features(ids)
    return model, [articles[i] for i in ids], feats


def _histories(a):
    # max_history is 3: "short" is padded, "long" is cut from the old end.
    return {"empty": [], "short": a[:2], "long": a[:6]}


@pytest.mark.parametrize("mode,history", sorted(SCORES))
def test_scores_match_pinned_values(setup, mode, history):
    model, a, feats = setup
    candidates = [a[6], a[7], a[8], a[1]]
    scores = model.score_impression(_histories(a)[history], candidates, feats, mode=mode)
    assert all(s.data.shape == (1, 1) for s in scores)
    got = [float(s.data[0, 0]) for s in scores]
    assert got == pytest.approx(SCORES[(mode, history)], abs=TOL)


def test_instance_loss_and_gradient_norms_match_pinned_values(setup):
    model, a, feats = setup
    clear_grads(model)
    with ad.ComputationRecord() as rec:
        scores = model.score_impression(a[:6], [a[6], a[7], a[8], a[2], a[3]], feats)
        loss = instance_loss(scores[0], scores[1:])
    rec.backward(loss)
    assert float(loss.data[0, 0]) == pytest.approx(LOSS, abs=TOL)
    for prefix, expected in GRAD_NORMS.items():
        norm = math.sqrt(sum(float((p.grad ** 2).sum())
                             for name, p in model.parameters().items()
                             if p.grad is not None and name.startswith(prefix)))
        assert norm == pytest.approx(expected, abs=TOL), prefix
    clear_grads(model)
