"""Negative-sampling training loop with Adam and early stopping.

Each clicked candidate becomes one training instance holding that
positive plus K non-clicked candidates drawn from the same impression
(with replacement only when the impression has fewer than K negatives).
The instance's K+1 scores feed a softmax; the loss is the negative log
probability of the positive.  Validation AUC drives early stopping and
best-checkpoint retention.

An instance holds the index of its source impression in the training
log, which alone holds the impression's history and time.  Within a
batch, the instances of one impression form a group that shares its
history, its time and its candidates: the group's features are computed
once, one ``score_impression`` call scores the union of its candidates,
and each instance takes its K+1 scores from those rows.  The group's
losses are summed and replayed by one backward pass, so only one group's
graph is alive at a time.  Across a batch's groups, each parameter's
dense gradient accumulates in place; the batch gradient is the mean over
instances.  ``Adam`` holds the only copy of the parameters, in one flat
``values`` array, and their gradients and its moments, as the rows of one
``(3, n)`` block; it steps both in place.  Once the last step is taken,
``train`` releases the block, leaving every parameter's ``grad`` and
``grad_buffer`` None; the returned model's parameters, views into
``values``, are the one copy kept, into which early stopping restores its
snapshot of the best epoch.  Instances with a candidate missing from the
catalog are left out once, before batches are drawn, so every batch but
an epoch's last scores ``batch_size`` instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .corpus import (ImpressionLog, ImpressionRecord, ParseIssue, load_word_vectors,
                     parse_behaviors_file, parse_news_file, split_log_by_time)
from .features import impression_features
from .metrics import config_fingerprint, evaluate
from .model import (MODES, AvoidanceAwareRanker, ModelConfig, VocabSizes, check_integer,
                    json_fields, recent_history)
from .stats import build_timeline


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    news_path: str = ""
    behaviors_path: str | None = None
    train_behaviors_path: str | None = None
    val_behaviors_path: str | None = None
    test_behaviors_path: str | None = None
    word_vectors_path: str | None = None
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    bucket_width: int = 3600
    learning_rate: float = 1e-3
    negatives: int = 4
    max_epochs: int = 10
    patience: int = 3
    batch_size: int = 32
    max_steps: int | None = None
    seed: int = 0
    mode: str = "full"
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if not isinstance(self.news_path, str):
            raise ValueError(f"news_path must be a string, got {self.news_path!r}")
        for name in ("behaviors_path", "train_behaviors_path", "val_behaviors_path",
                     "test_behaviors_path", "word_vectors_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string or null, got {value!r}")
        positive = ("bucket_width", "negatives", "max_epochs", "patience", "batch_size")
        positive += () if self.max_steps is None else ("max_steps",)
        for name in positive + ("seed",):
            check_integer(name, getattr(self, name), 1 if name in positive else 0)
        for name in ("learning_rate", "val_fraction", "test_fraction"):
            value = getattr(self, name)
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not math.isfinite(value) or value < 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.val_fraction + self.test_fraction >= 1:
            raise ValueError(f"val_fraction + test_fraction must be < 1, got "
                             f"{self.val_fraction} + {self.test_fraction}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def to_dict(self):
        d = dict(self.__dict__)
        d["model"] = self.model.to_dict()
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(json_fields(cls, "a train config", d))
        model = d.pop("model", {})
        if not isinstance(model, ModelConfig):
            model = ModelConfig.from_dict(model)
        return cls(model=model, **d)

    @classmethod
    def from_json_file(cls, path):
        return cls.from_dict(json_fields(cls, "a train config", path=path))


@dataclass
class Corpus:
    catalog: object
    vocab: object
    train: ImpressionLog
    validation: ImpressionLog
    test: ImpressionLog
    word_init: np.ndarray | None = None
    issues: list[ParseIssue] = field(default_factory=list)  # the skipped rows of every file read

    def all_records(self):
        records = list(self.train) + list(self.validation) + list(self.test)
        records.sort(key=lambda r: r.time)
        return ImpressionLog(records)


def load_corpus(config: TrainConfig) -> Corpus:
    """Parse catalog and behaviors per the config's split settings."""
    catalog, vocab = parse_news_file(config.news_path, config.model.max_title_len)
    if config.train_behaviors_path:
        train = parse_behaviors_file(config.train_behaviors_path)
        val = (parse_behaviors_file(config.val_behaviors_path)
               if config.val_behaviors_path else ImpressionLog([]))
        test = (parse_behaviors_file(config.test_behaviors_path)
                if config.test_behaviors_path else ImpressionLog([]))
        issues = train.issues + val.issues + test.issues
    elif config.behaviors_path:
        log = parse_behaviors_file(config.behaviors_path)
        train, val, test = split_log_by_time(log, config.val_fraction, config.test_fraction)
        issues = log.issues
    else:
        raise ValueError("config needs behaviors_path or train_behaviors_path")
    word_init = None
    if config.word_vectors_path:
        word_init = load_word_vectors(config.word_vectors_path, vocab,
                                      config.model.d_word, seed=config.seed)
    return Corpus(catalog, vocab, train, val, test, word_init, catalog.issues + issues)


@dataclass
class TrainingInstance:
    impression: int  # index of the source impression in the training log
    candidates: list[str]  # the positive and its K negatives, shuffled
    target: int  # the positive's index in ``candidates``


def sample_negatives(impression: ImpressionRecord, k: int, rng: np.random.Generator,
                     index: int) -> list[TrainingInstance]:
    """One instance per clicked candidate, sharing the impression's negative pool.

    Pools smaller than K are sampled with replacement; impressions with no
    negatives yield no instances (the caller counts the skips).  ``index``
    is the impression's position in its log.
    """
    positives = [news_id for news_id, label in impression.shown if label == 1]
    pool = [news_id for news_id, label in impression.shown if label == 0]
    instances = []
    for pos in positives:
        if not pool:
            continue
        if len(pool) >= k:
            negs = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
        else:
            negs = [pool[i] for i in rng.integers(0, len(pool), size=k)]
        order = rng.permutation(k + 1)
        drawn = [pos] + negs
        instances.append(TrainingInstance(impression=index,
                                          candidates=[drawn[j] for j in order],
                                          target=int(np.argmin(order))))
    return instances


def build_training_instances(log: ImpressionLog, k: int, rng) -> tuple[list[TrainingInstance], int]:
    """All instances of a log plus the count of skipped zero-negative positives."""
    instances = []
    skipped = 0
    for index, record in enumerate(log):
        n_pos = sum(label for _, label in record.shown)
        got = sample_negatives(record, k, rng, index)
        skipped += n_pos - len(got)
        instances.extend(got)
    return instances, skipped


def instance_loss(pos_score: ad.Tensor, neg_scores) -> ad.Tensor:
    """-log of the positive's softmax probability among K+1 scores, as (1, 1).

    One ``softmax_nll`` op, which stays finite for any finite scores even
    when the probability itself underflows to zero; the probability is
    exp(-loss).
    """
    return ad.softmax_nll([pos_score] + list(neg_scores), 0)


class OptimizerReleased(RuntimeError):
    """``Adam.step`` was called after ``Adam.release``."""


class Adam:
    """Adaptive-moment optimizer with bias correction, stepping in place.

    The parameters are packed into one contiguous array: each ``p.data``
    becomes a view into ``values``, which is filled parameter by parameter,
    so each old array can go as soon as it is copied.  ``grads``, ``m`` and
    ``v`` are the rows of one ``(3, n)`` block in the same layout, and
    ``p.grad_buffer`` is a view into ``grads``, which backward passes write
    into; ``slices`` names each parameter's span.  ``release`` frees the
    block and leaves ``values`` to the parameters; ``step`` then raises
    OptimizerReleased.  A step covers each run of adjacent parameters that
    have a gradient in one pass, ``CHUNK`` elements at a time through two
    chunk-sized scratch arrays, with the same float ops per element as the
    textbook update.  A parameter whose ``grad`` is None keeps its data,
    ``m`` and ``v`` unchanged; a ``grad`` set from outside is copied into
    the store first.
    """

    CHUNK = 1 << 15
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, ad.Tensor], lr):
        self.params = dict(params)
        tensors = list(self.params.values())
        if len({id(p) for p in tensors}) != len(tensors):
            raise ValueError("Adam was given one tensor under two names")
        dtypes = {p.data.dtype for p in tensors}
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(ad.DEFAULT_DTYPE)
        self.lr = lr
        self.t = 0
        self.slices = {}
        start = 0
        for name, p in self.params.items():
            self.slices[name] = slice(start, start + p.data.size)
            start += p.data.size
        # Each parameter's old array goes as soon as it is copied, and the
        # gradient and moment block comes only after the last one went, so
        # neither the copy nor the block ever sits beside the whole model.
        self.values = np.empty(start, dtype)
        for name, p in self.params.items():
            span = self.slices[name]
            self.values[span] = p.data.reshape(-1)
            p.data = self.values[span].reshape(p.data.shape)
        self.grads, self.m, self.v = np.zeros((3, start), dtype)
        for name, p in self.params.items():
            p.grad_buffer = self.grads[self.slices[name]].reshape(p.data.shape)
        self._scratch = np.empty((2, min(start, self.CHUNK)), dtype)

    def _runs(self):
        """(start, stop) of each run of adjacent parameters that have a gradient.

        A gradient set from outside is copied into the store on the way.
        """
        runs = []
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if p.grad is not p.grad_buffer:
                np.copyto(p.grad_buffer, p.grad)
                p.grad = p.grad_buffer
            span = self.slices[name]
            if runs and runs[-1][1] == span.start:
                runs[-1][1] = span.stop
            else:
                runs.append([span.start, span.stop])
        return runs

    def step(self):
        if self.grads is None:
            raise OptimizerReleased("Adam.step after Adam.release(): the gradient and "
                                    "moment stores are gone")
        self.t += 1
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        lr = self.values.dtype.type(self.lr)
        for start, stop in self._runs():
            for lo in range(start, stop, self.CHUNK):
                hi = min(lo + self.CHUNK, stop)
                g, m, v = self.grads[lo:hi], self.m[lo:hi], self.v[lo:hi]
                a, b = self._scratch[:, :hi - lo]
                m *= self.BETA1
                np.multiply(g, 1.0 - self.BETA1, out=a)
                m += a
                v *= self.BETA2
                np.multiply(g, g, out=a)
                a *= 1.0 - self.BETA2
                v += a
                np.divide(v, b2t, out=a)  # a: the denominator
                np.sqrt(a, out=a)
                a += self.EPS
                np.divide(m, b1t, out=b)  # b: the update
                b /= a
                b *= lr
                self.values[lo:hi] -= b

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    def release(self):
        """Free the gradient and moment stores; the parameters keep ``values``.

        Every parameter's ``grad`` and ``grad_buffer`` become None, and the
        optimizer cannot step again.
        """
        for p in self.params.values():
            p.grad = p.grad_buffer = None
        self.grads = self.m = self.v = self._scratch = None


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_auc: float
    wall_seconds: float


@dataclass
class TrainResult:
    """What ``train`` returns: the model, holding the one kept copy of its
    best epoch's parameters, with the per-epoch log and instance counts."""

    model: AvoidanceAwareRanker
    best_val_auc: float
    history: list[EpochStats]
    n_instances: int
    n_skipped_instances: int            # positives with no negative to pair with
    n_unknown_candidate_instances: int  # never scored: a candidate is not in the catalog
    n_missing_history: int              # history ids not in the catalog, over scored instances

    def write_log_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("epoch,train_loss,val_auc,wall_seconds\n")
            for row in self.history:
                fh.write(f"{row.epoch},{row.train_loss!r},{row.val_auc!r},"
                         f"{row.wall_seconds:.3f}\n")


def impression_groups(batch) -> list[list[TrainingInstance]]:
    """The batch's instances grouped by impression, groups and members in batch order."""
    groups = {}
    for instance in batch:
        groups.setdefault(instance.impression, []).append(instance)
    return list(groups.values())


def _group_score_inputs(record, group, catalog, timeline, model_config):
    """What one ``score_impression`` call needs to score a group.

    ``record`` is the group's impression, and every candidate of the
    group's instances is in the catalog.  Returns the kept history, the
    union of the instances' candidates (each once, in order of first use),
    their features, and per instance the union rows of its candidates and
    its ``target``.
    """
    union = list(dict.fromkeys(cid for i in group for cid in i.candidates))
    row = {cid: r for r, cid in enumerate(union)}
    # Only the known clicks the model keeps need features.
    history = recent_history([a for a in map(catalog.get, record.history) if a is not None],
                             model_config.max_history)
    feats = impression_features(timeline, record.time, [a.news_id for a in history] + union,
                                model_config.grid_d, catalog)
    slots = [([row[cid] for cid in i.candidates], i.target) for i in group]
    return history, [catalog.get(cid) for cid in union], feats, slots


def group_loss(model, history, candidates, feats, slots, mode="full"):
    """Summed (1, 1) loss of one group's instances, and each instance's loss value.

    One ``score_impression`` call scores the group's candidates; each
    instance's K+1 scores are its ``slots`` rows, in its candidate order.
    """
    scores = model.score_impression(history, candidates, feats, mode=mode)
    losses = []
    for rows, pos_slot in slots:
        ranked = [scores[r] for r in rows]
        losses.append(instance_loss(ranked[pos_slot], ranked[:pos_slot] + ranked[pos_slot + 1:]))
    total = losses[0]
    for loss in losses[1:]:
        total = ad.add(total, loss)
    return total, [float(loss.data.reshape(())) for loss in losses]


def train(config: TrainConfig, corpus: Corpus, timeline) -> TrainResult:
    """Optimize a fresh model on the corpus' training split.

    Returns the model, holding its best-validation parameters, with the
    per-epoch log; its parameters' ``grad`` and ``grad_buffer`` are None.
    Raises ValueError before the first step when no instance has all its
    candidates in the catalog, and TrainingDiverged on a non-finite loss.
    With ``config.max_steps`` set, training stops after that many optimizer
    steps (or earlier, after ``max_epochs``) and early stopping is skipped
    (small-scale experiments).
    """
    rng = np.random.default_rng(config.seed)
    sizes = VocabSizes.from_corpus(corpus.catalog, corpus.vocab)
    model = AvoidanceAwareRanker(config.model, sizes, seed=config.seed,
                                 word_init=corpus.word_init)
    instances, skipped = build_training_instances(corpus.train, config.negatives, rng)
    if not instances:
        raise ValueError("no training instances; is the training split empty?")
    scorable = [i for i in instances if all(c in corpus.catalog for c in i.candidates)]
    if not scorable:
        raise ValueError(f"none of the {len(instances)} training instances can be scored: "
                         f"each names a candidate missing from the catalog "
                         f"({len(corpus.catalog)} articles)")
    records = corpus.train.records
    n_missing_history = sum(h not in corpus.catalog
                            for i in scorable for h in records[i.impression].history)

    optimizer = Adam(model.trainable_parameters(), lr=config.learning_rate)
    best_val = -math.inf
    best_state, best_epoch = None, 0  # None: the model as it stands is the best
    history = []
    step = 0

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(scorable))
        loss_sum = 0.0
        loss_count = 0
        for start in range(0, len(order), config.batch_size):
            batch = [scorable[i] for i in order[start:start + config.batch_size]]
            optimizer.zero_grads()
            for group in impression_groups(batch):
                prepared = _group_score_inputs(records[group[0].impression], group,
                                               corpus.catalog, timeline, config.model)
                with ad.ComputationRecord() as record:
                    loss, loss_values = group_loss(model, *prepared, mode=config.mode)
                if not all(map(math.isfinite, loss_values)):
                    raise TrainingDiverged(
                        f"non-finite loss at step {step}, lr={config.learning_rate}")
                record.backward(loss)
                del record  # one group's graph alive at a time
                loss_sum = sum(loss_values, loss_sum)
            loss_count += len(batch)
            if len(batch) > 1:
                for p in optimizer.params.values():
                    if p.grad is not None:
                        p.grad /= len(batch)
            optimizer.step()
            step += 1
            if step == config.max_steps:
                break

        val_auc = math.nan
        if len(corpus.validation):
            report = evaluate(model, corpus.validation, timeline, corpus.catalog,
                              mode=config.mode, config_dict=config.to_dict())
            val_auc = report.metrics["auc"]
        history.append(EpochStats(epoch=epoch, train_loss=loss_sum / loss_count,
                                  val_auc=val_auc, wall_seconds=time.perf_counter() - t0))

        if config.max_steps is None and not math.isnan(val_auc):
            if val_auc > best_val:
                best_val, best_epoch = val_auc, epoch
                best_state = None  # the old copy goes before the new one is taken
                best_state = model.state_dict()
            elif epoch - best_epoch >= config.patience:
                break
        else:
            best_val, best_epoch, best_state = val_auc, epoch, None
        if step == config.max_steps:  # the budget is spent
            break

    optimizer.release()
    del optimizer
    if best_epoch < len(history):
        model.load_state_dict(best_state)  # in place, into the one copy
    return TrainResult(model=model, best_val_auc=best_val, history=history,
                       n_instances=len(instances), n_skipped_instances=skipped,
                       n_unknown_candidate_instances=len(instances) - len(scorable),
                       n_missing_history=n_missing_history)


def checkpoint_meta(config: TrainConfig, result: TrainResult) -> dict:
    return {
        "config_fingerprint": config_fingerprint(config.to_dict()),
        "mode": config.mode,
        "seed": config.seed,
        "best_val_auc": None if math.isnan(result.best_val_auc)
        or math.isinf(result.best_val_auc) else result.best_val_auc,
        "model": config.model.to_dict(),
        "bucket_width": config.bucket_width,
    }
