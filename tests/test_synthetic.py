import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoidrec.corpus import parse_behaviors_file, parse_news_file
from avoidrec.features import impression_features
from avoidrec.stats import StatsSnapshot, build_timeline
from avoidrec.synthetic import (_CATEGORIES, _FILLER_WORDS, SyntheticSpec, _BoundedIntegers,
                                _choice_without_replacement, _make_articles, generate,
                                write_mind_files)


def high_avoidance_affinity(d=5, high=4.0, low=0.25):
    # strong preference for the top two avoidance rows
    return [[high if av >= d - 2 else low for _ in range(d)] for av in range(d)]


class TestSpecValidation:
    def test_all_zero_propensities_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            SyntheticSpec(affinity=[[0.0] * 5 for _ in range(5)])

    def test_negative_propensity_rejected(self):
        bad = [[1.0] * 5 for _ in range(5)]
        bad[2][3] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            SyntheticSpec(affinity=bad)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="5x5"):
            SyntheticSpec(affinity=[[1.0] * 4 for _ in range(4)], grid_d=5)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("n_users", 0), ("n_articles", 0), ("n_buckets", 0),
        ("grid_d", 0), ("bucket_width", 0), ("impressions_per_bucket", 0), ("n_shown", 0),
        ("n_shown", True), ("n_users", "8"), ("origin", "2019"), ("origin", -1),
        ("grid_d", 10**30), ("n_articles", sys.maxsize + 1), ("seed", 2**64)])
    def test_bad_integer_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{field: value})

    def test_the_largest_index_sized_integer_is_accepted(self):
        assert SyntheticSpec(seed=sys.maxsize, origin=sys.maxsize).origin == sys.maxsize

    @pytest.mark.parametrize("field, value", [
        ("freshness_halflife_buckets", 0), ("freshness_halflife_buckets", -1.0),
        ("freshness_halflife_buckets", float("nan")), ("freshness_halflife_buckets", "2"),
        ("freshness_boost", -0.5), ("freshness_boost", float("nan")),
        ("freshness_boost", float("inf")), ("freshness_boost", None),
        ("base_click_rate", "0.1"), ("base_click_rate", 1.0),
        ("affinity_user_fraction", "0.5"), ("affinity_user_fraction", float("nan"))])
    def test_bad_real_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_propensity_rejected(self, value):
        bad = [[1.0] * 5 for _ in range(5)]
        bad[1][4] = value
        with pytest.raises(ValueError, match="affinity"):
            SyntheticSpec(affinity=bad)

    def test_freshness_boundaries_accepted(self):
        spec = SyntheticSpec(n_users=4, n_articles=5, n_buckets=2, impressions_per_bucket=3,
                             freshness_boost=0, freshness_halflife_buckets=1e-3)
        assert generate(spec).records

    def test_default_affinity_is_uniform(self):
        base = dict(n_users=12, n_articles=10, n_buckets=4, impressions_per_bucket=8, seed=5,
                    grid_d=3, affinity_user_fraction=0.5, freshness_boost=2.0)
        default = generate(SyntheticSpec(**base))
        ones = generate(SyntheticSpec(affinity=[[1.0] * 3 for _ in range(3)], **base))
        assert default.records == ones.records
        assert default.shown_probs == ones.shown_probs

    def test_default_affinity_builds_no_matrix(self):
        # A D x D list of 3000 x 3000 floats would trace about 146 MB.
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            spec = SyntheticSpec(grid_d=3000)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 1_000_000, f"{peak} bytes traced"
        assert spec.affinity == []


class TestGenerate:
    def test_seeded_output_byte_identical(self, tmp_path):
        spec = SyntheticSpec(n_users=12, n_articles=10, n_buckets=4,
                             impressions_per_bucket=8, seed=9)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_mind_files(generate(spec), a_dir)
        write_mind_files(generate(SyntheticSpec(**spec.to_dict())), b_dir)
        for name in ("news.tsv", "behaviors.tsv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        base = dict(n_users=12, n_articles=10, n_buckets=4, impressions_per_bucket=8)
        a = generate(SyntheticSpec(seed=1, **base))
        b = generate(SyntheticSpec(seed=2, **base))
        assert [r.shown for r in a.records] != [r.shown for r in b.records]

    def test_round_trips_through_parsers(self, tmp_path):
        spec = SyntheticSpec(n_users=15, n_articles=12, n_buckets=5,
                             impressions_per_bucket=10, seed=4)
        dataset = generate(spec)
        news_path, behaviors_path = write_mind_files(dataset, tmp_path)
        catalog, vocab = parse_news_file(news_path, max_title_len=12)
        assert len(catalog) == spec.n_articles
        log = parse_behaviors_file(behaviors_path)
        assert not log.issues
        assert log.records == dataset.records

    def test_history_grows_from_prior_clicks_only(self):
        spec = SyntheticSpec(n_users=6, n_articles=10, n_buckets=6,
                             impressions_per_bucket=12, base_click_rate=0.5, seed=2)
        dataset = generate(spec)
        seen_clicks = {}
        for rec in dataset.records:
            assert rec.history == seen_clicks.get(rec.user_id, [])
            for news_id, label in rec.shown:
                if label:
                    seen_clicks.setdefault(rec.user_id, []).append(news_id)
        # at least one user accumulated history
        assert any(rec.history for rec in dataset.records)

    def test_click_probability_is_capped(self):
        spec = SyntheticSpec(n_users=10, n_articles=8, n_buckets=4, impressions_per_bucket=10,
                             base_click_rate=0.4, freshness_boost=3.0, seed=1,
                             affinity=high_avoidance_affinity(), affinity_user_fraction=0.5)
        dataset = generate(spec)
        for follows in (True, False):
            probs = [p for rec, slots in zip(dataset.records, dataset.shown_probs)
                     if (rec.user_id in dataset.affinity_users) == follows for _, p in slots]
            assert max(probs) == 0.95 and min(probs) < 0.95

    def test_generator_cells_match_model_features(self, tmp_path):
        # The cell the generator used for each shown slot must equal the
        # cell the feature extractor computes from the emitted log.
        spec = SyntheticSpec(n_users=20, n_articles=15, n_buckets=6,
                             impressions_per_bucket=12, seed=11,
                             affinity=high_avoidance_affinity())
        dataset = generate(spec)
        _, behaviors_path = write_mind_files(dataset, tmp_path)
        log = parse_behaviors_file(behaviors_path)
        timeline = build_timeline(log, spec.bucket_width)
        for rec, slots in zip(dataset.records, dataset.shown_probs):
            ids = [news_id for news_id, _ in rec.shown]
            feats = impression_features(timeline, rec.time, ids, spec.grid_d)
            for (news_id, _), (cell, _) in zip(rec.shown, slots):
                assert feats[news_id].cell == cell

    def test_click_rates_track_cell_propensities(self):
        # Frequency check against the generator's own probabilities:
        # within each cell, observed clicks ~ Binomial(sum p, ...).
        spec = SyntheticSpec(n_users=60, n_articles=40, n_buckets=12,
                             impressions_per_bucket=60, seed=5,
                             base_click_rate=0.12,
                             affinity=high_avoidance_affinity())
        dataset = generate(spec)
        observed = {}
        expected = {}
        variance = {}
        for rec, slots in zip(dataset.records, dataset.shown_probs):
            for (news_id, label), (cell, p) in zip(rec.shown, slots):
                observed[cell] = observed.get(cell, 0) + label
                expected[cell] = expected.get(cell, 0.0) + p
                variance[cell] = variance.get(cell, 0.0) + p * (1 - p)
        checked = 0
        for cell, exp_clicks in expected.items():
            if exp_clicks < 20:
                continue
            z = (observed[cell] - exp_clicks) / np.sqrt(variance[cell])
            assert abs(z) < 4.5, f"cell {cell}: z={z:.2f}"
            checked += 1
        assert checked >= 2

    def test_affinity_users_click_more_in_high_avoidance_cells(self):
        spec = SyntheticSpec(n_users=80, n_articles=40, n_buckets=10,
                             impressions_per_bucket=80, seed=6,
                             base_click_rate=0.12,
                             affinity=high_avoidance_affinity(),
                             affinity_user_fraction=0.5)
        dataset = generate(spec)
        d = spec.grid_d
        rates = {True: [0, 0], False: [0, 0]}  # affine? -> [clicks, shows]
        for rec, slots in zip(dataset.records, dataset.shown_probs):
            affine = rec.user_id in dataset.affinity_users
            for (news_id, label), (cell, _) in zip(rec.shown, slots):
                av_idx = cell % d
                if av_idx >= d - 2:
                    rates[affine][0] += label
                    rates[affine][1] += 1
        affine_rate = rates[True][0] / rates[True][1]
        other_rate = rates[False][0] / rates[False][1]
        assert affine_rate > 1.5 * other_rate

    def test_epi_drifts_as_exposure_schedules_decay(self):
        spec = SyntheticSpec(n_users=30, n_articles=20, n_buckets=12,
                             impressions_per_bucket=40, seed=8)
        dataset = generate(spec)
        from avoidrec.corpus import ImpressionLog
        timeline = build_timeline(ImpressionLog(dataset.records), spec.bucket_width)
        # at least one article's exposure-per-impression rises then falls
        drifted = 0
        snaps = [StatsSnapshot(timeline, b) for b in timeline.boundaries()]
        for article in dataset.articles:
            series = [s.exposures(article.news_id) / s.n_impressions for s in snaps]
            peak = max(range(len(series)), key=lambda i: series[i])
            if 0 < peak < len(series) - 1 and series[-1] < series[peak] * 0.9:
                drifted += 1
        assert drifted >= 3


# sha256 of behaviors.tsv and of repr(shown_probs), recorded while the
# generator still kept its own copies of the counters, so reading cells
# from the shared timeline is pinned byte for byte, not just to tolerance.
GOLDEN = [
    (dict(n_users=20, n_articles=15, n_buckets=6, impressions_per_bucket=12, seed=11),
     "fcb8a42769a43ecb44b36ebdc68ba4bb49099ec4636b39f6bd4d50322b541bb2",
     "17a3df9132045a4fe3f39200516fc40d64a113f0a828ccf0e9501bc040092ef2"),
    (dict(n_users=30, n_articles=25, n_buckets=8, impressions_per_bucket=15, seed=3,
          freshness_boost=2.5, freshness_halflife_buckets=1.5, base_click_rate=0.2),
     "fe434fbe1b72ef242cb899e1e5477041ad805f665e9a7341911eae4d81538d4a",
     "5908d18fb961ed7d9cbf096490628d4af74dd9d0c51881491809c47044ad8b01"),
    (dict(n_users=40, n_articles=30, n_buckets=10, impressions_per_bucket=20, seed=6,
          affinity=high_avoidance_affinity(), affinity_user_fraction=0.5,
          base_click_rate=0.12),
     "704568301a42e6e7305ddec6501b74428751b1ed12a2436fda7bffe2fbf2827d",
     "46b8785874d3111efbcd7f98af60e71acc8d161be8fd81d27065476761ac0dda"),
    # A wide pool: most impressions draw 10 distinct articles in the first round.
    (dict(n_articles=400, n_buckets=12, impressions_per_bucket=20, n_shown=10, seed=5),
     "1314c45aea3b132b9527ae9cd685ab42e7c76aa058e21ae0fceb2529f3dcb593",
     "1ed0aeca5f4ee06e7f8e852eda45306f9df7807b22c5cdecac29536984bf5232"),
]


@pytest.mark.parametrize("spec_kwargs, behaviors_sha, probs_sha", GOLDEN)
def test_generator_output_is_pinned(spec_kwargs, behaviors_sha, probs_sha, tmp_path):
    dataset = generate(SyntheticSpec(**spec_kwargs))
    _, behaviors_path = write_mind_files(dataset, tmp_path)
    assert hashlib.sha256(behaviors_path.read_bytes()).hexdigest() == behaviors_sha
    assert hashlib.sha256(repr(dataset.shown_probs).encode()).hexdigest() == probs_sha


# The benchmark's full train and rank corpora (perfbench/workloads.py):
# sha256 of news.tsv, of behaviors.tsv and of repr(shown_probs), recorded
# while the articles were still drawn by one scalar rng.integers call each
# and the cells still read through StatsSnapshot and grid.snapshot_cell.
BENCHMARK_GOLDEN = [
    (dict(n_users=60, n_articles=3000, n_buckets=40, impressions_per_bucket=60, n_shown=10,
          base_click_rate=0.3, seed=2),
     "8b7db51ca8670fe5d07dfcbf35c431bc76171f401bdb45537d2cf8bc1c5c6d4d",
     "f4e5634bf0185c711dde24dcf5f6060b40fc0e29a7427175c301aecd9b6c5fbf",
     "c4ea722f0eed5ea9220d4a795ac93f359b171d7ca829499e1e8cbea03e15430b"),
    (dict(n_users=200, n_articles=300, n_buckets=24, impressions_per_bucket=60, n_shown=10,
          seed=1),
     "933cc78368149c795a84dab3f18b66858925a83bce34dd5817ba573ac4eb49e4",
     "0e73518d37fe9fb0cb93d3bdcbfd7f35174143a8a9769bbf1a41440a2a6f029d",
     "737eeea18e8c2f9d7613d4ef8965da7804eab704f0e078ca489902e7040c838c"),
]


@pytest.mark.parametrize("spec_kwargs, news_sha, behaviors_sha, probs_sha", BENCHMARK_GOLDEN,
                         ids=["train", "rank"])
def test_benchmark_corpora_are_pinned(spec_kwargs, news_sha, behaviors_sha, probs_sha,
                                      tmp_path):
    dataset = generate(SyntheticSpec(**spec_kwargs))
    news_path, behaviors_path = write_mind_files(dataset, tmp_path)
    assert hashlib.sha256(news_path.read_bytes()).hexdigest() == news_sha
    assert hashlib.sha256(behaviors_path.read_bytes()).hexdigest() == behaviors_sha
    assert hashlib.sha256(repr(dataset.shown_probs).encode()).hexdigest() == probs_sha


def _assert_replay_like_scalar_integers(seed, bounds, size):
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = _BoundedIntegers(ours, size)
    values = [draws.below(n) for n in bounds]
    draws.close()
    assert values == [int(numpys.integers(0, n)) for n in bounds]
    assert ours.random() == numpys.random()  # the stream is still in step
    return draws


# Bounds just above 2**31 reject about half of all words, so the redraw
# loop and the drawing of more words both run.
bounds = st.one_of(st.integers(2, 2**32), st.integers(2**31 + 1, 2**31 + 2**20),
                   st.sampled_from([4, 6, 20, 1000]))


@given(seed=st.integers(0, 2**32 - 1), bounds=st.lists(bounds, max_size=40),
       size=st.integers(1, 48))
@settings(max_examples=300, deadline=None)
def test_bounded_replay_matches_scalar_integers(seed, bounds, size):
    _assert_replay_like_scalar_integers(seed, bounds, size)


@pytest.mark.parametrize("seed", range(3))
def test_bounded_replay_redraws_rejected_words(seed):
    # (2**32 - n) % n is 2**31 - 1 here: a word is rejected with probability ~1/2.
    draws = _assert_replay_like_scalar_integers(seed, [2**31 + 1] * 64, 64)
    assert draws._used > 64


@pytest.mark.parametrize("seed", range(5))
def test_make_articles_draws_like_scalar_integers(seed):
    spec = SyntheticSpec(n_articles=200, seed=seed)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = []
    for _ in range(spec.n_articles):
        words = [_CATEGORIES[int(numpys.integers(0, len(_CATEGORIES)))]]
        words += [_FILLER_WORDS[int(numpys.integers(0, len(_FILLER_WORDS)))]
                  for _ in range(int(numpys.integers(3, 7)))]
        expected.append(" ".join(words) + f" w{int(numpys.integers(0, 1000)):03d}")
    assert [article.title for article in _make_articles(spec, ours)] == expected
    assert ours.bit_generator.state == numpys.bit_generator.state


def _assert_draws_like_generator_choice(seed, probs, size):
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    picks = _choice_without_replacement(ours, probs, cdf, size)
    assert picks == numpys.choice(len(probs), size=size, replace=False, p=probs).tolist()
    assert ours.random() == numpys.random()  # the stream is still in step


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), skew=st.floats(0.0, 6.0),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_sampler_matches_generator_choice_on_small_skewed_pools(seed, n, skew, data):
    # Lognormal weights: at a large skew a few entries hold most of the mass,
    # so the first round repeats and the zero-and-redraw loop runs.
    size = data.draw(st.integers(1, n))
    weights = np.exp(skew * np.random.default_rng(seed + 1).standard_normal(n))
    _assert_draws_like_generator_choice(seed, weights / weights.sum(), size)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sampler_matches_generator_choice_on_a_wide_pool(seed):
    rng = np.random.default_rng(seed + 1)
    weights = np.maximum(np.exp(-rng.uniform(0, 10, size=2000) / rng.uniform(1.5, 4.0)), 1e-6)
    _assert_draws_like_generator_choice(seed, weights / weights.sum(), 10)


@pytest.mark.parametrize("seed", range(5))
def test_sampler_matches_generator_choice_when_the_first_round_repeats(seed):
    probs = np.array([0.9, 0.04, 0.03, 0.02, 0.01])
    first = np.cumsum(probs).searchsorted(np.random.default_rng(seed).random(5), side="right")
    assert len(set(first.tolist())) < 5
    _assert_draws_like_generator_choice(seed, probs, 5)
