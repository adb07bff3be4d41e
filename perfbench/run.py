"""Benchmark of the avoidrec package: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rank|train|ingest --seed N \\
        --seconds S --trace 0|1 [--smoke]

One run sets the workload up several times (``setup_s`` is the median),
warms up with one whole operation under tracemalloc (which gives
``peak_mb`` without slowing the timed phase), then runs operations back
to back on one thread until ``S`` seconds of operations have been timed
and at least ``OPS_PER_GROUP`` operations have run.  Every operation's output
goes through the correctness gate.  With ``--trace 0`` the end-to-end
metrics are reported.  With ``--trace 1`` one more set-up runs with
every layer wrapped in spans (``tracing.py``), and the timed phase
alternates untraced and traced operations; the per-layer metrics are
reported, including the tracing overhead as the median ratio of each
traced operation to its untraced twin.  ``--smoke`` shrinks every
workload to a few seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: each workload is one
# process on one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
OPS_PER_GROUP = 3

END_TO_END = {
    "setup_s": "s",
    "peak_mb": "MB",
    "items_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
}


def per_layer_units() -> dict[str, str]:
    from tracing import SPAN_NAMES
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.total_ms"] = "ms"
        units[f"{span}.self_ms"] = "ms"
    units.update({
        "news_encoder.encode_news.per_impression": "count/impression",
        "grid.lookup.per_impression": "count/impression",
        "autodiff.ops_per_instance": "count/instance",
        "features.articles_per_call": "count/call",
        "corpus.parse_records_per_s": "1/s",
        "corpus.parse_issues": "count",
        "stats.build_timeline.peak_mb": "MB",
        "trace.overhead_pct": "%",
    })
    return units


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
    }


@contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _peak_mb(fn, *args) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def timed_setups(workload):
    durations = []
    for _ in range(workload.setup_repeats):
        state = None  # free the previous set-up first
        gc.collect()
        start = perf_counter()
        state = workload.setup()
        durations.append(perf_counter() - start)
    return state, durations


def timed_ops(workload, state, seconds: float):
    """Operations back to back until ``seconds`` are timed and a group is full."""
    gc.collect()
    ops = []
    while len(ops) < OPS_PER_GROUP or sum(op.seconds for op in ops) < seconds:
        ops.append(workload.run_op(state))
        if len(ops) >= OPS_PER_GROUP and not any(op.seconds for op in ops):
            break  # every operation raises; stop instead of spinning
    return ops


def _group_timings(group) -> tuple[float, float, float]:
    """Throughput and latency percentiles of one group's per-request minima."""
    import numpy as np
    best = np.min([op.latencies_s for op in group], axis=0)
    best_s = float(best.sum())
    if group[0].phases_s:
        best_s += float(np.min([op.phases_s for op in group], axis=0).sum())
    p50, p90 = np.percentile(best, [50, 90]) * 1e3
    return group[0].items / best_s, float(p50), float(p90)


def end_to_end_metrics(setups, ops, peak_mb) -> dict[str, float]:
    """Timings are medians over groups of ``OPS_PER_GROUP`` operations.

    Every operation repeats the same requests, and other tenants of the
    machine only ever slow a request down, so within a group each
    request's best time is the steadiest estimate of what the code costs;
    throughput divides one operation's items by the sum of those minima.
    A group always holds the same number of operations, so how many
    operations fit in the run (which grows as the code gets faster) does
    not bias the minima; extra groups only narrow the median.
    Operations after the last full group are not used.
    """
    complete = [op for op in ops if op.seconds and op.latencies_s]
    n = max((len(op.latencies_s) for op in complete), default=0)
    complete = [op for op in complete if len(op.latencies_s) == n]
    groups = [complete[i:i + OPS_PER_GROUP]
              for i in range(0, len(complete) - OPS_PER_GROUP + 1, OPS_PER_GROUP)]
    timings = [_group_timings(group) for group in groups] or [(0.0, 0.0, 0.0)]
    items_per_s, p50, p90 = (statistics.median(col) for col in zip(*timings))
    return {
        "setup_s": statistics.median(setups),
        "peak_mb": peak_mb,
        "items_per_s": items_per_s,
        "latency_ms_p50": p50,
        "latency_ms_p90": p90,
    }


def traced_pairs(workload, state, seconds: float, tracer):
    """Alternate untraced and traced operations until ``seconds`` have been timed.

    Each traced operation runs right after an untraced twin, so the pair
    sees the same load from the rest of the machine.
    """
    gc.collect()
    pairs = []
    while not pairs or sum(u.seconds + t.seconds for u, t in pairs) < seconds:
        untraced = workload.run_op(state)
        with tracer.patched():
            traced = workload.run_op(state)
        pairs.append((untraced, traced))
    return pairs


def per_layer_metrics(setup_tracer, op_tracer, pairs, timeline_peak_mb) -> dict[str, float]:
    """Span totals of one traced set-up plus one traced operation.

    Operation spans are averaged over the traced operations, which all do
    the same work, so call counts stay exact.
    """
    n_ops = len(pairs)
    setup_spans, op_spans = setup_tracer.summary(), op_tracer.summary()
    out = {}
    for name in setup_spans:
        for key in ("calls", "total_ms", "self_ms"):
            out[f"{name}.{key}"] = setup_spans[name][key] + op_spans[name][key] / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    def count(name):
        return setup_tracer.counts.get(name, 0) + op_tracer.counts.get(name, 0)

    requests = sum(t.attempted for _, t in pairs)
    parse_ms = sum(spans[name]["total_ms"] for spans in (setup_spans, op_spans)
                   for name in ("corpus.parse_news_file", "corpus.parse_behaviors_file"))
    overhead = statistics.median(t.seconds / u.seconds for u, t in pairs
                                 if u.seconds and t.seconds) if n_ops else 1.0
    out.update({
        "news_encoder.encode_news.per_impression":
            ratio(op_spans["news_encoder.encode_news"]["calls"], requests),
        "grid.lookup.per_impression": ratio(op_spans["grid.lookup"]["calls"], requests),
        "autodiff.ops_per_instance":
            ratio(count("autodiff.ops"), count("autodiff.backwards")),
        "features.articles_per_call":
            ratio(count("features.articles"),
                  op_spans["features.impression_features"]["calls"]
                  + setup_spans["features.impression_features"]["calls"]),
        "corpus.parse_records_per_s": ratio(count("corpus.records"), parse_ms / 1e3),
        "corpus.parse_issues": count("corpus.issues"),
        "stats.build_timeline.peak_mb": timeline_peak_mb,
        "trace.overhead_pct": (overhead - 1.0) * 100.0,
    })
    return out


def run(args) -> dict:
    import workloads
    from tracing import Tracer

    refs = workloads.load_references()
    slot = args.seed % workloads.N_SLOTS
    size = "smoke" if args.smoke else "full"
    reference = refs.get(args.workload, {}).get(size, {}).get(str(slot))
    if reference is None:
        print(f"no reference output for {args.workload}/{size}/{slot}", file=sys.stderr)

    with scratch_dir() as workdir:
        workload = workloads.WORKLOADS[args.workload](slot, args.smoke, workdir, reference)
        state, setups = timed_setups(workload)
        peak = _peak_mb(workload.run_op, state)  # also the warm-up
        if args.trace:
            setup_tracer, op_tracer = Tracer(), Tracer()
            with setup_tracer.patched():
                workload.setup()
            pairs = traced_pairs(workload, state, args.seconds, op_tracer)
            timeline_peak = _peak_mb(workloads.stats.build_timeline,
                                     *workload.timeline_input(state))
            metrics = per_layer_metrics(setup_tracer, op_tracer, pairs, timeline_peak)
            ops = [op for pair in pairs for op in pair]
            units = per_layer_units()
        else:
            ops = timed_ops(workload, state, args.seconds)
            metrics = end_to_end_metrics(setups, ops, peak)
            units = END_TO_END

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    latencies = sum(len(op.latencies_s) for op in ops)
    print(f"{args.workload}: {len(ops)} operations, {attempted} {workload.unit}s attempted, "
          f"{failed} failed, {latencies} latency samples, setup x{len(setups)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": reference is not None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("rank", "train", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a few seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "avoidrec" / "__init__.py").is_file():
        print(f"error: no avoidrec package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    print(json.dumps({"environment": environment()}))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
