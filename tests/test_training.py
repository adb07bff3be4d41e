import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import avoidrec.autodiff as ad
import avoidrec.training as training
from avoidrec.corpus import ImpressionLog, ImpressionRecord, parse_behaviors_file, parse_news_file
from avoidrec.metrics import evaluate
from avoidrec.model import MODES, AvoidanceAwareRanker, ModelConfig, VocabSizes
from avoidrec.stats import build_timeline
from avoidrec.synthetic import SyntheticSpec, generate, write_mind_files
from avoidrec.training import (Adam, Corpus, OptimizerReleased, TrainConfig, TrainingDiverged,
                               TrainingInstance, _group_score_inputs,
                               build_training_instances, group_loss, impression_groups,
                               instance_loss, load_corpus, sample_negatives, train)
from conftest import Traced, clear_grads, make_articles, tiny_config, total


def positive(instance):
    return instance.candidates[instance.target]


def negatives(instance):
    """The instance's candidates other than its positive, in their shuffled order."""
    return [c for j, c in enumerate(instance.candidates) if j != instance.target]


def record(i=1, shown=(("P", 1), ("A", 0), ("B", 0), ("C", 0), ("D", 0))):
    return ImpressionRecord(str(i), "U1", 1000, ["H1"], list(shown))


class TestSampleNegatives:
    def test_exact_pool_when_k_matches(self):
        instances = sample_negatives(record(), 4, np.random.default_rng(0), 0)
        assert len(instances) == 1
        assert sorted(negatives(instances[0])) == ["A", "B", "C", "D"]
        assert positive(instances[0]) == "P"
        assert sorted(instances[0].candidates) == ["A", "B", "C", "D", "P"]

    def test_two_positives_share_the_pool(self):
        rec = record(shown=(("P1", 1), ("P2", 1), ("A", 0), ("B", 0)))
        instances = sample_negatives(rec, 2, np.random.default_rng(0), 0)
        assert [positive(i) for i in instances] == ["P1", "P2"]
        for inst in instances:
            assert set(negatives(inst)) <= {"A", "B"}

    def test_small_pool_sampled_with_replacement(self):
        rec = record(shown=(("P", 1), ("A", 0)))
        instances = sample_negatives(rec, 3, np.random.default_rng(0), 0)
        assert negatives(instances[0]) == ["A", "A", "A"]

    def test_zero_negatives_skipped_and_counted(self):
        rec = record(shown=(("P", 1),))
        assert sample_negatives(rec, 2, np.random.default_rng(0), 0) == []
        log = ImpressionLog([rec])
        instances, skipped = build_training_instances(log, 2, np.random.default_rng(0))
        assert instances == [] and skipped == 1

    def test_fixed_seed_reproducible(self):
        rec = record(shown=tuple((f"N{i}", int(i % 3 == 0)) for i in range(10)))
        a = sample_negatives(rec, 4, np.random.default_rng(42), 0)
        b = sample_negatives(rec, 4, np.random.default_rng(42), 0)
        assert a == b


class TestInstanceLoss:
    def c(self, v):
        return ad.constant([[float(v)]], dtype=np.float64)

    def prob(self, loss):
        """The positive's softmax probability, exp(-loss)."""
        return math.exp(-float(loss.data[0, 0]))

    def test_symmetric_pair(self):
        loss = instance_loss(self.c(1.3), [self.c(1.3)])
        assert self.prob(loss) == pytest.approx(0.5)
        assert loss.data[0, 0] == pytest.approx(math.log(2.0))

    def test_dominant_positive(self):
        loss = instance_loss(self.c(50.0), [self.c(0.0), self.c(-3.0)])
        assert self.prob(loss) == pytest.approx(1.0)
        assert loss.data[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        scores = [0.4, -1.2, 0.9]
        p1 = self.prob(instance_loss(self.c(scores[0]), [self.c(s) for s in scores[1:]]))
        p2 = self.prob(instance_loss(self.c(scores[0] + 100),
                                     [self.c(s + 100) for s in scores[1:]]))
        assert p1 == pytest.approx(p2, rel=1e-12)
        direct = np.exp(scores[0]) / np.exp(scores).sum()
        assert p1 == pytest.approx(direct, rel=1e-12)

    def test_finite_for_extreme_scores(self):
        loss = instance_loss(self.c(-1e4), [self.c(1e4)])
        assert np.isfinite(loss.data).all()

    def test_gradient_matches_finite_differences(self):
        pos = ad.parameter(np.array([[0.3]]), dtype=np.float64)
        negs = [ad.parameter(np.array([[v]]), dtype=np.float64) for v in (0.1, -0.4)]

        def fn():
            return instance_loss(pos, negs)

        assert ad.grad_check(fn, [pos] + negs, eps=1e-6) < 1e-8


def make_tiny_corpus(tmp_path, n_users=10, n_articles=12, n_buckets=4,
                     impressions_per_bucket=6, seed=3, **spec_kw):
    spec = SyntheticSpec(n_users=n_users, n_articles=n_articles, n_buckets=n_buckets,
                         impressions_per_bucket=impressions_per_bucket,
                         base_click_rate=0.35, n_shown=4, seed=seed, **spec_kw)
    dataset = generate(spec)
    news_path, behaviors_path = write_mind_files(dataset, tmp_path)
    return spec, news_path, behaviors_path


def make_train_config(news_path, behaviors_path, **kw):
    model = kw.pop("model", tiny_config(dtype="float32", max_title_len=10))
    defaults = dict(news_path=str(news_path), behaviors_path=str(behaviors_path),
                    val_fraction=0.2, test_fraction=0.2, bucket_width=3600,
                    learning_rate=0.01, negatives=2, max_epochs=2, patience=1,
                    batch_size=8, seed=0, model=model)
    defaults.update(kw)
    return TrainConfig(**defaults)


def prepare(config):
    corpus = load_corpus(config)
    timeline = build_timeline(corpus.all_records(), config.bucket_width)
    return corpus, timeline


class TestLoadCorpus:
    def _split_files(self, tmp_path):
        """The tiny corpus' behaviors rows cut in time order into files of 10, 7 and 7."""
        _, news, behaviors = make_tiny_corpus(tmp_path)
        rows = behaviors.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(rows) == 24
        paths = []
        for name, part in (("train", rows[:10]), ("val", rows[10:17]), ("test", rows[17:])):
            paths.append(tmp_path / f"{name}.tsv")
            paths[-1].write_text("".join(part), encoding="utf-8")
        return news, behaviors, paths

    def test_three_behaviors_files_are_the_three_splits(self, tmp_path):
        news, behaviors, (train_path, val_path, test_path) = self._split_files(tmp_path)
        config = TrainConfig(news_path=str(news), train_behaviors_path=str(train_path),
                             val_behaviors_path=str(val_path),
                             test_behaviors_path=str(test_path))
        corpus = load_corpus(config)
        whole = parse_behaviors_file(behaviors).records
        assert corpus.train.records == whole[:10]
        assert corpus.validation.records == whole[10:17]
        assert corpus.test.records == whole[17:]
        assert corpus.all_records().records == whole
        assert len(corpus.catalog) == 12 and corpus.issues == []

    def test_absent_validation_and_test_files_give_empty_logs(self, tmp_path):
        news, behaviors, (train_path, _, _) = self._split_files(tmp_path)
        # The fractions split a single log only; they do not cut the training file.
        config = TrainConfig(news_path=str(news), train_behaviors_path=str(train_path),
                             val_fraction=0.5, test_fraction=0.4)
        corpus = load_corpus(config)
        assert corpus.train.records == parse_behaviors_file(behaviors).records[:10]
        assert len(corpus.validation) == 0 and len(corpus.test) == 0

    def test_issues_hold_the_skipped_rows_of_every_file(self, tmp_path):
        news, _, paths = self._split_files(tmp_path)
        with open(news, "a", encoding="utf-8") as fh:
            fh.write("N-bad\ttoo few columns\n")
        for path in paths[1:]:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("not a behaviors row\n")
        corpus = load_corpus(TrainConfig(news_path=str(news), train_behaviors_path=str(paths[0]),
                                         val_behaviors_path=str(paths[1]),
                                         test_behaviors_path=str(paths[2])))
        assert [issue.line_no for issue in corpus.issues] == [13, 8, 8]
        assert len(corpus.validation) == len(corpus.test) == 7

    def test_a_corpus_built_by_hand_has_no_issues(self):
        catalog, vocab = object(), object()
        corpus = Corpus(catalog, vocab, ImpressionLog([]), ImpressionLog([]), ImpressionLog([]))
        assert corpus.issues == [] and corpus.word_init is None


class TestTrainLoop:
    def test_loss_decreases_on_small_set(self, tmp_path):
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, max_steps=200, max_epochs=50,
                                   learning_rate=0.02)
        corpus, timeline = prepare(config)
        result = train(config, corpus, timeline)
        first, last = result.history[0].train_loss, result.history[-1].train_loss
        assert last < first

    def test_zero_learning_rate_freezes_parameters(self, tmp_path):
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, learning_rate=0.0,
                                   max_steps=5, max_epochs=1)
        corpus, timeline = prepare(config)
        sizes = VocabSizes.from_corpus(corpus.catalog, corpus.vocab)
        reference = AvoidanceAwareRanker(config.model, sizes, seed=config.seed)
        result = train(config, corpus, timeline)
        for name, tensor in result.model.parameters().items():
            assert np.array_equal(tensor.data, reference.parameters()[name].data), name

    def test_same_seed_identical_loss_curves(self, tmp_path):
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, max_epochs=2)
        corpus, timeline = prepare(config)
        a = train(config, corpus, timeline)
        b = train(config, corpus, timeline)
        assert [h.train_loss for h in a.history] == [h.train_loss for h in b.history]
        assert [h.val_auc for h in a.history] == [h.val_auc for h in b.history]

    def test_checkpoint_round_trip_preserves_val_auc(self, tmp_path):
        from avoidrec.checkpoint import load_checkpoint, save_checkpoint
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, max_epochs=2)
        corpus, timeline = prepare(config)
        result = train(config, corpus, timeline)
        before = evaluate(result.model, corpus.validation, timeline,
                          corpus.catalog, mode=config.mode).metrics["auc"]
        path = tmp_path / "ckpt.ntck"
        save_checkpoint(path, result.model.state_dict(), meta={"mode": config.mode})
        state, meta = load_checkpoint(path)
        sizes = VocabSizes.from_corpus(corpus.catalog, corpus.vocab)
        fresh = AvoidanceAwareRanker(config.model, sizes, seed=999)
        fresh.load_state_dict(state)
        after = evaluate(fresh, corpus.validation, timeline,
                         corpus.catalog, mode=meta["mode"]).metrics["auc"]
        assert after == before

    def test_unknown_ids_are_counted(self, tmp_path):
        # One instance names a candidate missing from the catalog: it is never
        # scored and counted once.  Another keeps two unknown history ids.
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, max_steps=1, max_epochs=1, val_fraction=0.0)
        corpus, timeline = prepare(config)
        base = train(config, corpus, timeline)
        assert base.n_unknown_candidate_instances == 0 and base.n_missing_history == 0
        known = sorted(corpus.catalog.articles)
        t = corpus.train.records[-1].time
        extra = [ImpressionRecord("x1", "U1", t, ["GONE_H"], [("GONE", 1), (known[0], 0)]),
                 ImpressionRecord("x2", "U1", t, [known[2], "GONE_H", "GONE_H2"],
                                  [(known[0], 1), (known[1], 0)])]
        corpus.train = ImpressionLog(list(corpus.train) + extra)
        result = train(config, corpus, timeline)
        assert result.n_instances == base.n_instances + 2
        assert result.n_unknown_candidate_instances == 1
        assert result.n_missing_history == 2

    def test_a_split_with_no_scorable_instance_raises_before_a_step(self, tmp_path,
                                                                    monkeypatch):
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, max_epochs=2, val_fraction=0.0)
        corpus, timeline = prepare(config)
        known = sorted(corpus.catalog.articles)
        t = corpus.train.records[-1].time
        corpus.train = ImpressionLog([
            ImpressionRecord("x1", "U1", t, [known[0]], [("GONE", 1), (known[1], 0)]),
            ImpressionRecord("x2", "U1", t, [], [(known[2], 1), ("GONE", 0)])])
        monkeypatch.setattr(Adam, "step", lambda self: pytest.fail("stepped"))
        with pytest.raises(ValueError, match=r"none of the 2 training instances can be scored"
                                             r".*missing from the catalog \(12 articles\)"):
            train(config, corpus, timeline)

    def test_an_unscorable_instance_leaves_every_step_a_full_batch(self, tmp_path,
                                                                   monkeypatch):
        # The one instance with an unknown candidate is left out before the
        # batches are drawn, so each step but an epoch's last scores
        # batch_size instances and divides by that.
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, max_epochs=2, batch_size=4,
                                   val_fraction=0.0)
        corpus, timeline = prepare(config)
        known = sorted(corpus.catalog.articles)
        t = corpus.train.records[-1].time
        corpus.train = ImpressionLog(list(corpus.train) + [
            ImpressionRecord("x1", "U1", t, [], [("GONE", 1), (known[0], 0)])])
        scored = [0]
        real_group_loss, real_step = training.group_loss, Adam.step

        def counting_group_loss(model, history, candidates, feats, slots, mode):
            scored[-1] += len(slots)
            return real_group_loss(model, history, candidates, feats, slots, mode)

        def recording_step(self):
            scored.append(0)
            real_step(self)
        monkeypatch.setattr(training, "group_loss", counting_group_loss)
        monkeypatch.setattr(Adam, "step", recording_step)
        result = train(config, corpus, timeline)
        assert result.n_unknown_candidate_instances == 1
        n = result.n_instances - 1
        per_epoch = [config.batch_size] * (n // config.batch_size)
        per_epoch += [n % config.batch_size] if n % config.batch_size else []
        assert scored == per_epoch * config.max_epochs + [0]

    @pytest.mark.parametrize("kw", [dict(max_steps=2, max_epochs=1, val_fraction=0.0),
                                    dict(max_epochs=2)])
    def test_result_keeps_one_copy_of_the_parameters(self, tmp_path, kw):
        # The returned model's parameters: the optimizer's gradient and
        # moment stores are freed, and so is early stopping's snapshot.
        _, news, behaviors = make_tiny_corpus(tmp_path)
        # Paper-size widths, so the parameters dwarf what numpy caches.
        config = make_train_config(news, behaviors, model=ModelConfig(dtype="float32"), **kw)
        corpus, timeline = prepare(config)
        train(config, corpus, timeline)  # first calls may cache small objects
        with Traced() as mem:
            result = train(config, corpus, timeline)
            kept = mem.kept()
        params = result.model.parameters().values()
        nbytes = sum(p.data.nbytes for p in params)
        assert kept < 1.1 * nbytes, f"{kept / nbytes:.2f} copies of the parameters kept"
        assert all(p.grad is None and p.grad_buffer is None for p in params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostics(self, tmp_path):
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, learning_rate=1e18,
                                   max_steps=60, max_epochs=10)
        corpus, timeline = prepare(config)
        with pytest.raises(TrainingDiverged, match="step"):
            train(config, corpus, timeline)

    def test_one_step_matches_a_hand_written_step(self, tmp_path):
        # The one batch holds every instance, over several impressions, some
        # with more than one instance.  train()'s step must be the mean of
        # one backward per instance, fed to Adam.
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, model=tiny_config(max_title_len=10),
                                   max_steps=1, max_epochs=1, batch_size=32, val_fraction=0.0)
        corpus, timeline = prepare(config)
        result = train(config, corpus, timeline)

        rng = np.random.default_rng(config.seed)
        instances, _ = build_training_instances(corpus.train, config.negatives, rng)
        batch = [instances[i] for i in rng.permutation(len(instances))[:config.batch_size]]
        sizes = [len(g) for g in impression_groups(batch)]
        assert len(sizes) >= 2 and max(sizes) >= 2
        model = AvoidanceAwareRanker(config.model, VocabSizes.from_corpus(
            corpus.catalog, corpus.vocab), seed=config.seed)
        initial = {name: p.data.copy() for name, p in model.parameters().items()}
        params = model.trainable_parameters()
        total = {}
        for instance in batch:
            clear_grads(model)
            prepared = _group_score_inputs(corpus.train.records[instance.impression], [instance],
                                           corpus.catalog, timeline, model.config)
            with ad.ComputationRecord() as rec:
                loss, _ = group_loss(model, *prepared, mode=config.mode)
            rec.backward(loss)
            for name, p in params.items():
                if p.grad is not None:
                    total[name] = total.get(name, 0.0) + p.grad
        for name, p in params.items():
            p.grad = total[name] / len(batch) if name in total else None
        Adam(params, lr=config.learning_rate).step()

        trained = result.model.parameters()
        assert trained.keys() == initial.keys()
        for name, p in model.parameters().items():
            assert trained[name].dtype == np.float64
            assert np.allclose(trained[name].data, p.data, rtol=0, atol=1e-10), name
        assert all(not np.array_equal(p.data, initial[n]) for n, p in params.items())

    def test_early_stopping_restores_the_best_epoch(self, tmp_path):
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, max_epochs=6, patience=2,
                                   learning_rate=0.05)
        corpus, timeline = prepare(config)
        result = train(config, corpus, timeline)
        aucs = [h.val_auc for h in result.history]
        assert aucs.index(result.best_val_auc) < len(aucs) - 1  # a later epoch was worse
        restored = evaluate(result.model, corpus.validation, timeline, corpus.catalog,
                            mode=config.mode).metrics["auc"]
        assert restored == result.best_val_auc

    def test_early_stopping_respects_patience(self, tmp_path):
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, max_epochs=10, patience=2,
                                   learning_rate=0.0)
        corpus, timeline = prepare(config)
        result = train(config, corpus, timeline)
        # frozen parameters: validation never improves after epoch 1
        assert len(result.history) == 3

    def test_a_budget_spent_on_an_epoch_s_last_batch_ends_training(self, tmp_path):
        _, news, behaviors = make_tiny_corpus(tmp_path)
        config = make_train_config(news, behaviors, max_epochs=5)
        corpus, timeline = prepare(config)
        instances, _ = build_training_instances(corpus.train, config.negatives,
                                                np.random.default_rng(0))
        batches = -(-len(instances) // config.batch_size)  # one step each: all are scorable
        assert batches >= 2
        for max_steps, epochs in ((batches, 1), (batches + 1, 2)):
            result = train(replace(config, max_steps=max_steps), corpus, timeline)
            assert result.n_unknown_candidate_instances == 0
            assert len(result.history) == epochs, max_steps


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", 2.0), ("max_epochs", 0), ("bucket_width", 0),
        ("bucket_width", True), ("max_steps", 0), ("negatives", 0), ("patience", 0),
        ("learning_rate", -1e-3), ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("learning_rate", "0.1"), ("seed", -1), ("mode", "bogus"),
        ("val_fraction", "0.1"), ("val_fraction", math.nan), ("val_fraction", -0.1),
        ("val_fraction", True), ("val_fraction", 1.0), ("test_fraction", math.inf),
        ("test_fraction", None), ("test_fraction", -1), ("test_fraction", 0.95),
        *[("news_path", value) for value in (True, 1.5, [], {}, 0, None)],
        *[(path, value) for path in ("behaviors_path", "train_behaviors_path",
                                     "val_behaviors_path", "test_behaviors_path",
                                     "word_vectors_path")
          for value in (True, 1.5, [], {}, 0)],
    ])
    def test_bad_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 1), ("max_epochs", 1), ("bucket_width", 1), ("max_steps", None),
        ("max_steps", 1), ("learning_rate", 0.0), ("learning_rate", 0), ("seed", 0),
        ("val_fraction", 0.0), ("val_fraction", 0.89), ("test_fraction", 0),
        ("news_path", ""), ("behaviors_path", None), ("word_vectors_path", "vectors.txt")])
    def test_boundary_values_accepted(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value


class TestModes:
    def test_modes_produce_different_scores(self, tiny_instance):
        model, history, candidates, feats = tiny_instance
        by_mode = {mode: [s.data[0, 0] for s in
                          model.score_impression(history, candidates, feats, mode=mode)]
                   for mode in ("full", "only_rel", "only_avoid")}
        assert by_mode["full"] != by_mode["only_rel"]
        assert by_mode["full"] != by_mode["only_avoid"]

    def test_unknown_mode_rejected(self, tiny_instance):
        model, history, candidates, feats = tiny_instance
        with pytest.raises(ValueError, match="mode"):
            model.score_impression(history, candidates, feats, mode="bogus")

    def test_cold_user_scores_by_relevance_only(self, tiny_instance):
        model, _, candidates, feats = tiny_instance
        for mode in ("full", "only_rel", "only_avoid"):
            scores = model.score_impression([], candidates, feats, mode=mode)
            for s, article in zip(scores, candidates):
                feat = feats[article.news_id]
                ue = model.engagement.lookup(feat.cell)
                t_el = model.relevance.time2vec(feat.age_hours)
                expected = model.relevance.relevance(
                    model.news.encode_news([article]), ue, t_el, feat.clicks_norm)
                assert np.array_equal(s.data, expected.data)

    def test_only_rel_ignores_engagement_table_in_user_encoder(self, tiny_instance):
        model, history, candidates, feats = tiny_instance
        base = [s.data[0, 0] for s in
                model.score_impression(history, candidates, feats, mode="only_avoid")]
        model.engagement.table.data[:] += 0.5
        moved = [s.data[0, 0] for s in
                 model.score_impression(history, candidates, feats, mode="only_avoid")]
        assert base != moved  # only_avoid does depend on the table
        zeroed = [s.data[0, 0] for s in
                  model.score_impression(history, candidates, feats, mode="only_rel")]
        model.engagement.table.data[:] -= 123.0
        zeroed_again = [s.data[0, 0] for s in
                        model.score_impression(history, candidates, feats, mode="only_rel")]
        # only_rel keeps the table out of the user encoder; it still feeds
        # the relevance branch, so scores shift only through that branch
        assert zeroed != zeroed_again


class TestAdam:
    def test_zero_grad_rows_stay_put(self):
        p = ad.parameter(np.ones((4, 2)), dtype=np.float64)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros((4, 2))
        p.grad[1] = 3.0
        opt.step()
        assert np.array_equal(p.data[0], [1.0, 1.0])
        assert not np.array_equal(p.data[1], [1.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_match_the_textbook_update_bitwise(self, dtype):
        rng = np.random.default_rng(3)
        shapes = {"a": (4, 3), "b": (5,), "c": (2, 2, 2)}
        params = {k: ad.parameter(rng.normal(size=s), dtype=dtype) for k, s in shapes.items()}
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(x) for k, x in ref.items()}
        opt = Adam(params, lr=0.01)
        for t in range(1, 4):
            grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
            for k, p in params.items():
                p.grad = grads[k]
            opt.step()
            b1t, b2t = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for k in ref:
                m[k] = m[k] * 0.9 + (1.0 - 0.9) * grads[k]
                v[k] = v[k] * 0.999 + (1.0 - 0.999) * (grads[k] * grads[k])
                update = (m[k] / b1t) / (np.sqrt(v[k] / b2t) + 1e-8)
                ref[k] = ref[k] - dtype(0.01) * update
                assert np.array_equal(params[k].data, ref[k]), (t, k)

    def test_step_direction_is_negative_gradient(self):
        p = ad.parameter(np.zeros((1, 3)), dtype=np.float64)
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([[1.0, -2.0, 0.5]])
        opt.step()
        assert (np.sign(p.data) == [[-1.0, 1.0, -1.0]]).all()


    @staticmethod
    def textbook(x, m, v, g, t, lr=0.01):
        """One textbook Adam update of copies of ``x``, ``m`` and ``v``."""
        m = m * 0.9 + (1.0 - 0.9) * g
        v = v * 0.999 + (1.0 - 0.999) * (g * g)
        update = (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        return x - x.dtype.type(lr) * update, m, v

    def test_parameters_live_in_one_store(self):
        rng = np.random.default_rng(0)
        params = {k: ad.parameter(rng.normal(size=s), dtype=np.float32)
                  for k, s in {"a": (3, 4), "b": (5,)}.items()}
        before = {k: p.data.copy() for k, p in params.items()}
        opt = Adam(params, lr=0.01)
        for name, p in params.items():
            assert np.array_equal(p.data, before[name])
            assert np.shares_memory(p.data, opt.values)
            assert np.shares_memory(p.grad_buffer, opt.grads)
        with ad.ComputationRecord() as rec:
            loss = total(ad.matmul(params["a"], ad.constant(np.ones((4, 1)))))
        rec.backward(loss)
        assert params["a"].grad is params["a"].grad_buffer and params["b"].grad is None
        assert np.array_equal(opt.grads[opt.slices["a"]], np.ones(12))

    def test_parameter_without_gradient_keeps_data_and_moments(self):
        # "b" sits between two parameters that span several chunks; it skips
        # step 2 bit for bit while they step, and steps normally at step 3.
        rng = np.random.default_rng(1)
        shapes = {"a": (Adam.CHUNK + 7,), "b": (3, 5), "c": (2, Adam.CHUNK + 1)}
        params = {k: ad.parameter(rng.normal(size=s), dtype=np.float32)
                  for k, s in shapes.items()}
        ref = {k: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for k, p in params.items()}
        opt = Adam(params, lr=0.01)
        for t, with_grad in ((1, "abc"), (2, "ac"), (3, "abc")):
            opt.zero_grads()
            kept = {k: (p.data.copy(), opt.m[opt.slices[k]].copy(), opt.v[opt.slices[k]].copy())
                    for k, p in params.items()}
            for k in with_grad:
                g = rng.normal(size=shapes[k]).astype(np.float32)
                params[k].grad = g
                ref[k] = self.textbook(*ref[k], g, t)
            opt.step()
            for k, p in params.items():
                m, v = opt.m[opt.slices[k]], opt.v[opt.slices[k]]
                x_ref, m_ref, v_ref = ref[k] if k in with_grad else kept[k]
                assert np.array_equal(p.data, x_ref), (t, k)
                assert np.array_equal(m, m_ref.reshape(-1)), (t, k)
                assert np.array_equal(v, v_ref.reshape(-1)), (t, k)

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_step_after_release_is_refused(self, with_grad):
        p = ad.parameter(np.ones((2, 2)), dtype=np.float32)
        opt = Adam({"p": p}, lr=0.1)
        opt.release()
        if with_grad:
            p.grad = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(OptimizerReleased, match="release"):
            opt.step()
        assert opt.t == 0
        assert np.array_equal(p.data, np.ones((2, 2)))

    def test_one_tensor_under_two_names_is_refused(self):
        p = ad.parameter(np.zeros(3))
        with pytest.raises(ValueError, match="two names"):
            Adam({"p": p, "q": p}, lr=0.1)

    def test_mixed_dtypes_are_refused(self):
        with pytest.raises(ValueError, match="dtype"):
            Adam({"a": ad.parameter(np.zeros(3), dtype=np.float32),
                  "b": ad.parameter(np.zeros(3), dtype=np.float64)}, lr=0.1)

    def test_step_allocates_no_more_than_its_chunk_scratch(self):
        import tracemalloc

        rng = np.random.default_rng(2)
        params = {k: ad.parameter(rng.normal(size=(4, Adam.CHUNK)), dtype=np.float32)
                  for k in "abc"}
        opt = Adam(params, lr=0.01)
        for p in params.values():
            p.grad_buffer[...] = rng.normal(size=p.shape)
            p.grad = p.grad_buffer
        opt.step()  # numpy's first calls may cache small objects of their own
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < Adam.CHUNK * 4  # one chunk of float32; the store is 12 chunks


def test_threaded_evaluate_matches_the_serial_run_bitwise(tmp_path):
    # Four threads evaluate one model at once; each must read exactly the
    # serial report.
    _, news, behaviors = make_tiny_corpus(tmp_path)
    config = make_train_config(news, behaviors)
    corpus, timeline = prepare(config)
    sizes = VocabSizes.from_corpus(corpus.catalog, corpus.vocab)
    model = AvoidanceAwareRanker(config.model, sizes, seed=0)
    log = ImpressionLog(corpus.all_records())

    def run():
        return evaluate(model, log, timeline, corpus.catalog, mode=config.mode)

    serial = run()
    assert serial.n_scored > 0 and not math.isnan(serial.metrics["auc"])
    barrier = threading.Barrier(4)
    reports, errors = [None] * 4, []

    def work(i):
        try:
            barrier.wait(timeout=60)
            reports[i] = run()
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for report in reports:
        assert report.to_json() == serial.to_json()
        assert report.per_impression == serial.per_impression


def test_instance_features_cover_only_the_kept_history():
    # The model keeps the last max_history known clicks; the others get no
    # features (unknown ones are counted by train, from the record).
    articles = make_articles(9)
    ids = sorted(articles)

    rec = ImpressionRecord("i", "U1", 1000, ids[:5] + ["GONE"], [])
    instance = TrainingInstance(impression=0, candidates=[ids[7], ids[5], ids[6], ids[8]],
                                target=1)
    timeline = build_timeline(ImpressionLog([]), 3600)
    hist, candidates, feats, slots = _group_score_inputs(
        rec, [instance], articles, timeline, tiny_config(max_history=3))
    assert [a.news_id for a in hist] == ids[2:5]
    assert sorted(feats) == ids[2:5] + ids[5:]
    assert [a.news_id for a in candidates] == [ids[7], ids[5], ids[6], ids[8]]
    assert slots == [([0, 1, 2, 3], 1)]


class TestImpressionGroups:
    def setup_batch(self):
        """A tiny float64 model, its catalog, log and a batch over two impressions.

        Impression 0 has one negative for K=2, so both its instances hold
        that negative twice (sampled with replacement).
        """
        articles = make_articles(12)
        ids = sorted(articles)
        model = AvoidanceAwareRanker(tiny_config(max_history=4), VocabSizes(12, 3, 5), seed=5)
        log = ImpressionLog([
            ImpressionRecord("a", "U1", 5000, ids[:5],
                             [(ids[5], 1), (ids[6], 0), (ids[7], 1)]),
            ImpressionRecord("b", "U2", 6000, ids[2:4],
                             [(ids[8], 0), (ids[9], 1), (ids[10], 0), (ids[11], 0),
                              (ids[6], 1)]),
        ])
        instances, skipped = build_training_instances(log, 2, np.random.default_rng(4))
        assert skipped == 0 and [i.impression for i in instances] == [0, 0, 1, 1]
        assert negatives(instances[0]) == negatives(instances[1]) == [ids[6], ids[6]]
        batch = [instances[i] for i in (2, 0, 3, 1)]
        timeline = build_timeline(log, 3600)
        return model, articles, log, timeline, batch

    def test_groups_follow_the_impression_tag(self):
        _, _, _, _, batch = self.setup_batch()
        assert [[i.impression for i in g] for g in impression_groups(batch)] == [[1, 1], [0, 0]]

    @pytest.mark.parametrize("mode", MODES)
    def test_grouped_step_matches_per_instance_backwards(self, mode):
        # One backward per group of the summed losses gives the batch loss
        # and the gradients of one backward per instance.
        model, articles, log, timeline, batch = self.setup_batch()
        params = model.trainable_parameters()

        def step(groups):
            clear_grads(model)
            total = 0.0
            for group in groups:
                prepared = _group_score_inputs(log.records[group[0].impression], group,
                                               articles, timeline, model.config)
                with ad.ComputationRecord() as rec:
                    loss, values = group_loss(model, *prepared, mode=mode)
                rec.backward(loss)
                assert float(loss.data[0, 0]) == pytest.approx(sum(values), abs=1e-12)
                total += sum(values)
            return total, {name: p.grad.copy() for name, p in params.items()
                           if p.grad is not None}

        grouped_loss, grouped = step(impression_groups(batch))
        single_loss, single = step([[i] for i in batch])
        assert grouped_loss == pytest.approx(single_loss, rel=0, abs=1e-10)
        assert grouped.keys() == single.keys()
        for name, grad in single.items():
            assert np.allclose(grouped[name], grad, rtol=0, atol=1e-10), name

    def test_group_scores_each_distinct_candidate_once(self):
        model, articles, log, timeline, batch = self.setup_batch()
        group = impression_groups(batch)[1]  # impression 0: P1, P2 and one negative
        _, candidates, _, slots = _group_score_inputs(log.records[0], group, articles,
                                                      timeline, model.config)
        assert len(candidates) == 3
        for instance, (rows, pos_slot) in zip(group, slots):
            ids = [candidates[r].news_id for r in rows]
            assert ids == instance.candidates and pos_slot == instance.target

    @pytest.mark.parametrize("mode", MODES)
    def test_leaf_gradients_share_no_memory(self, mode):
        # The step divides every gradient in place, so no two leaves may
        # hold views of one array.
        model, articles, log, timeline, batch = self.setup_batch()
        clear_grads(model)
        group = impression_groups(batch)[0]
        prepared = _group_score_inputs(log.records[group[0].impression], group, articles,
                                       timeline, model.config)
        with ad.ComputationRecord() as rec:
            loss, _ = group_loss(model, *prepared, mode=mode)
        rec.backward(loss)
        params = model.parameters()
        grads = [(n, p.grad) for n, p in params.items() if p.grad is not None]
        assert len(grads) > 10
        for i, (name, grad) in enumerate(grads):
            assert type(grad) is np.ndarray and grad.shape == params[name].shape, name
            for other, other_grad in grads[i + 1:]:
                assert not np.shares_memory(grad, other_grad), (name, other)
