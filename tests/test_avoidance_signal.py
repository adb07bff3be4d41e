"""The paper's premise as a regression check: avoidance carries preference signal.

A tiny float32 model is trained on a synthetic corpus twice.  In the
planted corpus users click articles in high-avoidance cells (avoidance
rows 3 and 4 of the 5 x 5 grid) seven times as often, so a working stack
must rank held-out clicks above chance.  In the flat corpus clicks ignore
the grid, so held-out AUC must stay near 0.5: a leak of an impression's
own clicks into its features (``clicks_norm`` or the cell) would lift it,
which makes this half an end-to-end leakage check.

Thresholds come from model seeds 0-9 of this exact set-up (the test runs
seed 0): planted AUC read 0.605-0.652 and flat 0.472-0.550.  Flat with
features read from the snapshot one bucket later, so that the impression's
own bucket and clicks leak in, read 0.606-0.647 and fails the flat half.
"""

from avoidrec.metrics import evaluate
from avoidrec.stats import build_timeline
from avoidrec.synthetic import SyntheticSpec, generate, write_mind_files
from avoidrec.training import TrainConfig, load_corpus, train

from conftest import tiny_config

PLANTED_MIN_AUC = 0.58
FLAT_AUC_BAND = (0.42, 0.58)


def held_out_auc(tmp_path, affinity, seed=0):
    spec = SyntheticSpec(n_users=40, n_articles=80, n_buckets=12, impressions_per_bucket=30,
                         n_shown=6, base_click_rate=0.2, seed=3, affinity=affinity)
    news, behaviors = write_mind_files(generate(spec), tmp_path)
    config = TrainConfig(news_path=str(news), behaviors_path=str(behaviors),
                         val_fraction=0.0, test_fraction=0.4, learning_rate=0.01,
                         negatives=2, batch_size=8, max_steps=150, max_epochs=1000,
                         seed=seed, model=tiny_config(dtype="float32", max_title_len=10))
    corpus = load_corpus(config)
    timeline = build_timeline(corpus.all_records(), config.bucket_width)
    model = train(config, corpus, timeline).model
    return evaluate(model, corpus.test, timeline, corpus.catalog).metrics["auc"]


def test_planted_avoidance_signal_is_learned(tmp_path):
    planted = [[7.0 if av_idx >= 3 else 1.0] * 5 for av_idx in range(5)]
    assert held_out_auc(tmp_path, planted) > PLANTED_MIN_AUC


def test_flat_corpus_stays_at_chance(tmp_path):
    low, high = FLAT_AUC_BAND
    assert low < held_out_auc(tmp_path, []) < high

