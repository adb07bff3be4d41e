"""The benchmark's three workloads: ``rank``, ``train`` and ``ingest``.

Each workload is driven as a closed loop from one thread: the next
operation starts only when the previous one has returned.  All calls go
through the public functions of ``avoidrec`` modules, looked up on the
module at call time so that the traced run can wrap them.

``rank``
    One operation is ``metrics.evaluate`` of a paper-size model
    (``ModelConfig()``) over the last 10% of impressions, by time, of a
    300-article synthetic corpus; each impression is one request.  Titles
    recur across impressions and histories are short (mean about 10 of 50
    slots, none empty), so re-encoding titles and scoring padded history
    rows are both visible waste.  Stresses the news encoder, the user
    encoder, relevance, grid lookups and the rank metrics; skips backward
    replay and the optimizer.  Counts candidates per second.
``train``
    One operation is a ``training.train`` call: K=4 negatives, two Adam
    steps of two instances, on a 3k-article catalog.  The training split
    is the latest few impressions whose clicks give those four instances,
    all with histories at the 50-item cap, so the call's fixed costs
    (model init, instance sampling) stay small next to the steps.
    Parameters change every step, so nothing can be cached across steps;
    backward replay and ``Adam.step`` run here and nowhere else.  Counts
    training instances per second.
``ingest``
    No model.  One operation parses ``news.tsv``/``behaviors.tsv``, runs
    ``stats.build_timeline`` and ``features.impression_features`` for every
    impression (one request each), over a 20k-article log spread across
    two weeks of hourly buckets.  The stats layer does all the work, and
    timeline memory grows as buckets x articles.  Counts log records per
    second.

``--seed`` picks one of ``N_SLOTS`` fixed input seeds (model init for
``rank``, model init, negatives and batch order for ``train``, the whole
log for ``ingest``); ``references.json`` holds the expected outputs of each.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from avoidrec import corpus, features, metrics, stats, synthetic, training
from avoidrec.model import AvoidanceAwareRanker, ModelConfig, VocabSizes

import mindgen

N_SLOTS = 8
REFERENCES_PATH = Path(__file__).with_name("references.json")
RANK_METRIC_ATOL = 1e-5
TRAIN_LOSS_RTOL = 1e-4
INGEST_SUM_RTOL = 1e-9


@dataclass
class OpResult:
    """One closed-loop operation.

    ``latencies_s`` holds one entry per request inside the operation, in
    the same order on every operation of a run; together with ``phases_s``
    (bulk work not split into requests) they tile ``seconds``.
    """

    seconds: float
    items: int          # work counted by items_per_s
    attempted: int
    failed: int
    latencies_s: list[float]
    output: dict = field(default_factory=dict)  # what the correctness gate compares
    phases_s: list[float] = field(default_factory=list)


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, rel=0.0, abs_=0.0) -> bool:
    return math.isfinite(a) and math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _report_failure(workload: str):
    print(f"{workload}: operation raised\n{traceback.format_exc()}", file=sys.stderr)


def _synthetic_corpus(spec, workdir):
    """Generate, write, parse and bucket a synthetic corpus, as a user would."""
    dataset = synthetic.generate(spec)
    news_path, behaviors_path = synthetic.write_mind_files(dataset, workdir)
    catalog, vocab = corpus.parse_news_file(news_path, ModelConfig().max_title_len)
    log = corpus.parse_behaviors_file(behaviors_path)
    return catalog, vocab, log, stats.build_timeline(log, spec.bucket_width)


class Workload:
    name = ""
    unit = ""            # what one attempted request is
    setup_repeats = 3

    def __init__(self, slot: int, smoke: bool, workdir: Path, reference: dict | None):
        self.slot = slot
        self.smoke = smoke
        self.workdir = Path(workdir)
        self.reference = reference

    def matches(self, output: dict) -> bool:
        raise NotImplementedError


# -- rank ---------------------------------------------------------------------

class _StampedLog(corpus.ImpressionLog):
    """Impression log that stamps the moment each record is handed out.

    ``evaluate`` asks for the next record only after it has scored the
    previous one, so consecutive stamps bound one impression's latency.
    """

    def __init__(self, records):
        super().__init__(list(records))
        self.stamps: list[float] = []

    def __iter__(self):
        for record in self.records:
            self.stamps.append(perf_counter())
            yield record

    def latencies(self, start: float, end: float) -> list[float]:
        if len(self.stamps) != len(self.records):
            return []
        bounds = self.stamps[1:] + [end]
        lat = [b - a for a, b in zip(self.stamps, bounds)]
        if lat:
            lat[0] += self.stamps[0] - start  # work done before the first record
        return lat


class _FiniteScores:
    """Model proxy that counts impressions with a non-finite candidate score."""

    def __init__(self, model):
        self._model = model
        self.nonfinite = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def score_impression(self, *args, **kwargs):
        scores = self._model.score_impression(*args, **kwargs)
        if not all(np.isfinite(t.data).all() for t in scores):
            self.nonfinite += 1
        return scores


@dataclass
class RankState:
    catalog: object
    timeline: object
    log: object
    test: list
    model: AvoidanceAwareRanker


class Rank(Workload):
    name = "rank"
    unit = "impression"
    setup_repeats = 9

    @property
    def spec(self):
        if self.smoke:
            return synthetic.SyntheticSpec(n_users=200, n_articles=300, n_buckets=8,
                                           impressions_per_bucket=15, n_shown=10, seed=1)
        return synthetic.SyntheticSpec(n_users=200, n_articles=300, n_buckets=24,
                                       impressions_per_bucket=60, n_shown=10, seed=1)

    def setup(self) -> RankState:
        catalog, vocab, log, timeline = _synthetic_corpus(self.spec, self.workdir)
        _, _, test = corpus.split_log_by_time(log, 0.0, 0.1)
        model = AvoidanceAwareRanker(ModelConfig(), VocabSizes.from_corpus(catalog, vocab),
                                     seed=self.slot)
        return RankState(catalog, timeline, log, test.records, model)

    def _evaluate(self, state: RankState, records):
        log = _StampedLog(records)
        checked = _FiniteScores(state.model)
        start = perf_counter()
        report = metrics.evaluate(checked, log, state.timeline, state.catalog)
        end = perf_counter()
        return report, checked.nonfinite, log.latencies(start, end), end - start

    def run_op(self, state: RankState) -> OpResult:
        n = len(state.test)
        try:
            report, nonfinite, latencies, seconds = self._evaluate(state, state.test)
        except Exception:
            _report_failure(self.name)
            return OpResult(0.0, 0, n, n, [])
        n_candidates = sum(len(r.shown) for r in state.test)
        output = dict(report.metrics)
        failed = n - report.n_scored + nonfinite
        if not self.matches(output):
            failed = n
        return OpResult(seconds, n_candidates, n, failed, latencies, output)

    def matches(self, output: dict) -> bool:
        ref = self.reference
        return ref is not None and all(
            _close(output[k], ref[k], abs_=RANK_METRIC_ATOL) for k in ref)

    def timeline_input(self, state: RankState):
        return state.log, self.spec.bucket_width


# -- train --------------------------------------------------------------------

@dataclass
class TrainState:
    corpus: training.Corpus
    timeline: object
    log: object


class Train(Workload):
    name = "train"
    unit = "instance"
    setup_repeats = 5

    @property
    def spec(self):
        if self.smoke:
            return synthetic.SyntheticSpec(n_users=30, n_articles=600, n_buckets=8,
                                           impressions_per_bucket=30, n_shown=10,
                                           base_click_rate=0.3, seed=2)
        return synthetic.SyntheticSpec(n_users=60, n_articles=3000, n_buckets=40,
                                       impressions_per_bucket=60, n_shown=10,
                                       base_click_rate=0.3, seed=2)

    # Two steps, so the second batch's loss already depends on Adam's update.
    steps = 2
    batch_size = 2

    def setup(self) -> TrainState:
        catalog, vocab, log, timeline = _synthetic_corpus(self.spec, self.workdir)
        latest, clicks = [], 0
        for record in reversed(log.records):
            if clicks >= self.steps * self.batch_size:
                break
            latest.append(record)
            clicks += sum(label for _, label in record.shown)
        train_split = corpus.ImpressionLog(latest[::-1])
        empty = corpus.ImpressionLog([])
        return TrainState(training.Corpus(catalog, vocab, train_split, empty, empty),
                          timeline, log)

    def _train(self, state: TrainState):
        config = training.TrainConfig(negatives=4, max_steps=self.steps,
                                      batch_size=self.batch_size, learning_rate=1e-3,
                                      seed=self.slot)
        start = perf_counter()
        result = training.train(config, state.corpus, state.timeline)
        return result, perf_counter() - start

    def run_op(self, state: TrainState) -> OpResult:
        n = self.steps * self.batch_size
        try:
            result, seconds = self._train(state)
        except Exception:
            _report_failure(self.name)
            return OpResult(0.0, 0, n, n, [])
        output = {"loss": float(result.history[-1].train_loss)}
        failed = 0 if self.matches(output) else n
        return OpResult(seconds, n, n, failed, [seconds], output)

    def matches(self, output: dict) -> bool:
        ref = self.reference
        return ref is not None and _close(output["loss"], ref["loss"], rel=TRAIN_LOSS_RTOL)

    def timeline_input(self, state: TrainState):
        return state.log, self.spec.bucket_width


# -- ingest -------------------------------------------------------------------

@dataclass
class IngestState:
    news_path: Path
    behaviors_path: Path
    n_records: int


class Ingest(Workload):
    name = "ingest"
    unit = "record"
    setup_repeats = 5

    @property
    def shape(self):
        if self.smoke:
            return mindgen.LogShape(n_articles=1000, n_buckets=48,
                                    impressions_per_bucket=10, n_users=200)
        return mindgen.LogShape(n_articles=20_000, n_buckets=336,
                                impressions_per_bucket=30, n_users=5000)

    def setup(self) -> IngestState:
        return IngestState(*mindgen.write_mind_tsvs(self.workdir, self.shape, seed=self.slot))

    def _ingest(self, state: IngestState):
        """Raw TSV to per-impression features; returns a feature checksum."""
        grid_d = ModelConfig().grid_d
        stamps = []
        n_features = cell_sum = 0
        clicks_sum = age_sum = 0.0
        start = perf_counter()
        catalog, _ = corpus.parse_news_file(state.news_path, ModelConfig().max_title_len)
        parsed_news = perf_counter()
        log = corpus.parse_behaviors_file(state.behaviors_path)
        parsed_log = perf_counter()
        timeline = stats.build_timeline(log, mindgen.BUCKET_SECONDS)
        for record in log:
            stamps.append(perf_counter())
            ids = record.history + [news_id for news_id, _ in record.shown]
            feats = features.impression_features(timeline, record.time, ids, grid_d, catalog)
            for feat in feats.values():
                cell_sum += feat.cell
                clicks_sum += feat.clicks_norm
                age_sum += feat.age_hours
            n_features += len(feats)
        end = perf_counter()
        stamps.append(end)
        latencies = [b - a for a, b in zip(stamps, stamps[1:])]
        output = {"records": len(log), "issues": len(catalog.issues) + len(log.issues),
                  "features": n_features, "cell_sum": cell_sum,
                  "clicks_norm_sum": clicks_sum, "age_hours_sum": age_sum}
        phases = [parsed_news - start, parsed_log - parsed_news, stamps[0] - parsed_log]
        return output, latencies, phases, end - start

    def run_op(self, state: IngestState) -> OpResult:
        n = state.n_records
        try:
            output, latencies, phases, seconds = self._ingest(state)
        except Exception:
            _report_failure(self.name)
            return OpResult(0.0, 0, n, n, [])
        failed = 0 if self.matches(output) else n
        return OpResult(seconds, output["records"], n, failed, latencies, output, phases)

    def matches(self, output: dict) -> bool:
        ref = self.reference
        if ref is None or output["issues"]:
            return False
        exact = ("records", "features", "cell_sum")
        return (all(output[k] == ref[k] for k in exact)
                and all(_close(output[k], ref[k], rel=INGEST_SUM_RTOL)
                        for k in ("clicks_norm_sum", "age_hours_sum")))

    def timeline_input(self, state: IngestState):
        return corpus.parse_behaviors_file(state.behaviors_path), mindgen.BUCKET_SECONDS


WORKLOADS = {cls.name: cls for cls in (Rank, Train, Ingest)}
