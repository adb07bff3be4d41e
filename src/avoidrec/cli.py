"""Command-line entry points.

Subcommands:

* ``stats`` (alias ``plot-data``): per-bucket exposure/avoidance CSVs plus
  grid-cell occupancy CSVs from a behaviors log.
* ``synth``: generate a synthetic news.tsv/behaviors.tsv corpus from a
  JSON spec.
* ``train``: train a model from a JSON config, writing a checkpoint and a
  training log.
* ``eval``: evaluate a checkpoint on a config's test (or validation) split;
  it takes the same ``--bucket-width``/``--grid-d`` overrides as ``train``.
  A checkpoint saved with a different model config or bucket width is
  refused, naming what differs.
* ``ablate``: train and evaluate the component-ablation modes and print a
  comparison table.

Every command is deterministic under a fixed seed and exits nonzero
exactly when it reports an error.  A file that cannot be read or written
(missing, a directory, an ``--out`` that is a file) or a value too large
to use is reported as ``error: ...`` with exit status 1, not a traceback.
``stats``, ``train``, ``eval`` and ``ablate`` skip malformed input rows
and print their count to stderr as ``warning: skipped N malformed rows``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .corpus import CorpusError, parse_behaviors_file
from .grid import write_grid_csv
from .metrics import METRICS, evaluate
from .model import MODES, AvoidanceAwareRanker, VocabSizes
from .stats import StatsSnapshot, build_timeline, write_snapshot_csv
from .synthetic import SyntheticSpec, generate, write_mind_files
from .training import (TrainConfig, TrainingDiverged, checkpoint_meta,
                       load_corpus, train)


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_stats(args) -> int:
    if args.grid_d < 1:
        raise ValueError(f"--grid-d must be an integer >= 1, got {args.grid_d}")
    log = parse_behaviors_file(args.behaviors)
    if not len(log):
        print("error: no parseable impression records", file=sys.stderr)
        return 1
    _warn_skipped(log.issues)
    timeline = build_timeline(log, args.bucket_width)
    out = _out_dir(args.out)
    for boundary in timeline.boundaries():
        snap = StatsSnapshot(timeline, boundary)
        write_snapshot_csv(snap, out / f"bucket_{boundary}.csv")
        write_grid_csv(snap, args.grid_d, out / f"grid_{boundary}.csv")
    print(f"wrote {timeline.n_buckets} bucket snapshots to {out} "
          f"({len(log)} records, {len(log.issues)} skipped)")
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec.from_json_file(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out = _out_dir(args.out)  # a bad --out fails before the corpus is generated
    dataset = generate(spec)
    news_path, behaviors_path = write_mind_files(dataset, out)
    n_clicks = sum(label for rec in dataset.records for _, label in rec.shown)
    print(f"wrote {news_path} ({len(dataset.articles)} articles) and "
          f"{behaviors_path} ({len(dataset.records)} impressions, {n_clicks} clicks)")
    return 0


def _load_config(args) -> TrainConfig:
    """The config file with the given command-line overrides, validated again."""
    d = TrainConfig.from_json_file(args.config).to_dict()
    for name in ("seed", "mode", "bucket_width"):
        if getattr(args, name, None) is not None:
            d[name] = getattr(args, name)
    if getattr(args, "grid_d", None) is not None:
        d["model"]["grid_d"] = args.grid_d
    return TrainConfig.from_dict(d)


def _warn_skipped(issues):
    if issues:
        print(f"warning: skipped {len(issues)} malformed rows", file=sys.stderr)


def _prepare(config: TrainConfig):
    corpus = load_corpus(config)
    _warn_skipped(corpus.issues)
    timeline = build_timeline(corpus.all_records(), config.bucket_width)
    return corpus, timeline


def cmd_train(args) -> int:
    config = _load_config(args)
    out = _out_dir(args.out)  # a bad --out fails before the model is trained
    corpus, timeline = _prepare(config)
    result = train(config, corpus, timeline)
    save_checkpoint(out / "checkpoint.ntck", result.model.state_dict(),
                    meta=checkpoint_meta(config, result))
    result.write_log_csv(out / "training_log.csv")
    last = result.history[-1]
    print(f"trained {len(result.history)} epochs "
          f"({result.n_instances} instances, {result.n_skipped_instances} skipped, "
          f"{result.n_unknown_candidate_instances} with unknown candidates, "
          f"{result.n_missing_history} unknown history ids); "
          f"final train_loss={last.train_loss:.4f} best val_auc={result.best_val_auc:.4f}")
    print(f"checkpoint: {out / 'checkpoint.ntck'}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    state, meta = load_checkpoint(args.checkpoint)
    saved, current = meta.get("model"), config.model.to_dict()
    if saved is not None and saved != current:
        differ = ", ".join(f"{key} (checkpoint {saved.get(key)!r}, config {current.get(key)!r})"
                           for key in sorted(saved.keys() | current.keys())
                           if saved.get(key) != current.get(key))
        print(f"error: {args.checkpoint} was trained with another model config; "
              f"differing fields: {differ}", file=sys.stderr)
        return 1
    width = meta.get("bucket_width")
    if width is not None and width != config.bucket_width:
        print(f"error: {args.checkpoint} was trained on features bucketed every {width} s, "
              f"the config buckets every {config.bucket_width} s (see --bucket-width)",
              file=sys.stderr)
        return 1
    corpus, timeline = _prepare(config)
    mode = args.mode or meta.get("mode", config.mode)
    sizes = VocabSizes.from_corpus(corpus.catalog, corpus.vocab)
    model = AvoidanceAwareRanker(config.model, sizes, word_init=corpus.word_init)
    model.load_state_dict(state)
    split = corpus.validation if args.split == "validation" else corpus.test
    if not len(split):
        print(f"error: {args.split} split is empty", file=sys.stderr)
        return 1
    out = _out_dir(args.out)  # a bad --out fails before the split is scored
    report = evaluate(model, split, timeline, corpus.catalog, mode=mode,
                      config_dict=config.to_dict())
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    report.write_per_impression_csv(out / "per_impression.csv")
    means = " ".join(f"{name}={report.metrics[name]:.4f}" for name in METRICS)
    print(f"{args.split} ({mode}): {means} [{report.n_scored} impressions, "
          f"{report.n_skipped_missing} skipped, {report.n_missing_history} unknown history ids]")
    return 0


def cmd_ablate(args) -> int:
    config = _load_config(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [config.seed]
    except ValueError:
        raise ValueError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    modes = [args.mode] if args.mode else ["only_rel", "only_avoid", "full"]
    # Every run's config is checked before the first one trains.
    runs = [(mode, [TrainConfig.from_dict({**config.to_dict(), "mode": mode, "seed": seed})
                    for seed in seeds]) for mode in modes]
    corpus, timeline = _prepare(config)
    if not len(corpus.test):
        print("error: test split is empty", file=sys.stderr)
        return 1
    out = _out_dir(args.out)
    rows = []
    for mode, run_configs in runs:
        per_seed = []
        for run_config in run_configs:
            result = train(run_config, corpus, timeline)
            report = evaluate(result.model, corpus.test, timeline, corpus.catalog,
                              mode=mode, config_dict=run_config.to_dict())
            per_seed.append(report.metrics)
        rows.append((mode, per_seed))

    print(f"{'mode':<12}" + "".join(f"{name:>16}" for name in METRICS))
    csv_lines = [",".join(["mode"] + [f"{name}{suffix}" for name in METRICS
                                      for suffix in ("", "_std")])]
    for mode, per_seed in rows:
        cells = []
        csv_cells = [mode]
        for name in METRICS:
            values = np.array([m[name] for m in per_seed], dtype=np.float64)
            mean = float(np.mean(values))
            std = float(np.std(values))
            cells.append(f"{100 * mean:6.2f}±{100 * std:<5.2f}" if len(values) > 1
                         else f"{100 * mean:6.2f}      ")
            csv_cells.extend([repr(mean), repr(std)])
        print(f"{mode:<12}" + "".join(f"{c:>16}" for c in cells))
        csv_lines.append(",".join(csv_cells))
    (out / "ablation.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avoidrec",
        description="Avoidance-aware news recommendation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", aliases=["plot-data"],
                             help="export per-bucket avoidance/exposure CSVs")
    p_stats.add_argument("behaviors", help="behaviors.tsv or JSONL log")
    p_stats.add_argument("--bucket-width", type=int, default=3600)
    p_stats.add_argument("--grid-d", type=int, default=5)
    p_stats.add_argument("--out", default="stats_out")
    p_stats.set_defaults(fn=cmd_stats)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("spec", help="JSON generator spec")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out", default="synth_out")
    p_synth.set_defaults(fn=cmd_synth)

    p_train = sub.add_parser("train", help="train a model from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--mode", choices=MODES, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--bucket-width", type=int, default=None)
    p_train.add_argument("--grid-d", type=int, default=None)
    p_train.add_argument("--out", default="train_out")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--mode", choices=MODES, default=None)
    p_eval.add_argument("--bucket-width", type=int, default=None)
    p_eval.add_argument("--grid-d", type=int, default=None)
    p_eval.add_argument("--split", choices=["test", "validation"], default="test")
    p_eval.add_argument("--out", default="eval_out")
    p_eval.set_defaults(fn=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="compare component-ablation modes")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--mode", choices=MODES, default=None,
                          help="run a single mode instead of all three")
    p_ablate.add_argument("--seeds", default=None,
                          help="comma-separated seeds to average over")
    p_ablate.add_argument("--out", default="ablate_out")
    p_ablate.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, OverflowError, CorpusError, CheckpointError, ValueError,
            TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
