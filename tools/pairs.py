"""Compare two trees with alternating ``perfbench`` runs, pair by pair.

Usage, from the root of a checkout:

    python3 tools/pairs.py --workload rank|train|ingest [--base REV] [--aa]
        [--band PATH] [--seeds 0-9] [--seconds 20] [--trace 0|1] [--smoke]

The checkout this file is in is the change; ``--base`` (default ``HEAD``,
so an uncommitted change is measured against its last commit) is the
parent.  Both run from sibling copies under one temporary directory,
with names of one length, so neither side gains from where its tree lies
(a path's length alone can move a run's speed): the parent extracted
with ``git archive``, the change copied from the checkout as it stands
(its tracked files with their uncommitted edits, and its untracked files
that are not ignored).  Pair
i runs ``perfbench/run.py --workload W --seed S_i --seconds T --trace X``
once in each tree, one run at a time, the parent first on even pairs and
the change first on odd ones, so a drift of the machine's speed falls on
both sides alike.  ``--aa`` runs the parent against a second extraction
of itself, which shows how far identical code spreads between runs.

With ``--trace 0`` (the default) the metrics compared are the end-to-end
ones of ``BENCHMARK.json``; with ``--trace 1`` they are its per-layer
ones, ``trace.overhead_pct`` included, which only a traced run reports.
It prints one line per pair (each metric, parent / change and the
pair's change/parent ratio), then per metric the median and quartiles of
each side, the ratio of the medians, on how many pairs the change was
better (by the metric's direction in ``BENCHMARK.json``), whether the
medians differ by more than the parent's interquartile range, and the
median and quartiles of the pair ratios.  Both runs of a pair
share a seed, so a pair ratio leaves out what the seed alone moves.  On
``train`` the summary is printed again for each slot kind (the seed
modulo ``perfbench``'s 8 input slots): slots 0, 4 and 7, whose steps
each hold one impression, so that a call scores two impression groups,
and the other slots, whose calls score four.  A run that prints no
result, or reports ``correct: false`` or failed operations, ends the
comparison.

``--band PATH`` with ``--aa`` writes the A/A band to PATH as JSON: per
summary (all pairs, and on ``train`` each slot kind) and per metric, the
first quartile, median and third quartile of the pair ratios of
identical trees, and the trace mode they ran in.  Without ``--aa`` it
reads such a file (of the same workload and trace mode), and each
summary line ends by saying whether that metric's median pair ratio
lies inside or outside its A/A band, the interval from the band's first
to its third quartile.  A claim is a median pair ratio
outside the band, with the change better on at least 9 of 10 pairs.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOTS = 8  # perfbench's input slots: --seed S runs slot S % 8
TWO_GROUP_SLOTS = (0, 4, 7)  # train slots whose calls score two impression groups, not four


def parse_seeds(text: str) -> list[int]:
    """``"0-9"`` or ``"0,3,5"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def extract(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` of this checkout, written under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def copy_checkout(dest: Path) -> Path:
    """This checkout's tracked and unignored untracked files as they stand, under ``dest``.

    Tracked files deleted from the working tree are skipped.
    """
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], check=True, capture_output=True,
                           text=True).stdout.split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def metric_specs(benchmark: dict, trace: int) -> list[dict]:
    """The metrics of ``BENCHMARK.json`` that a run reports: end-to-end, or per-layer if traced."""
    return benchmark["per_layer" if trace else "end_to_end"]


def run_once(tree: Path, workload: str, seed: int, seconds: float, smoke: bool,
             trace: int) -> dict:
    """The metrics of one ``perfbench/run.py`` run in ``tree``, by name."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct") or result.get("failed"):
        raise RuntimeError(f"{tree} seed {seed}: exit {proc.returncode}, "
                           f"result {json.dumps(result)[:200]}\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ratio(base: float, change: float) -> float:
    """change / base; nan when the base is 0."""
    return change / base if base else float("nan")


def summary(name: str, better: str, base: list[float], change: list[float],
            band: list[float] | None = None) -> str:
    """One metric's summary line, marked against its A/A ``band`` (q1, median, q3) if given."""
    q1, med, q3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    r1, rmed, r3 = quartiles([ratio(b, c) for b, c in zip(base, change)])
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    beyond = abs(cmed - med) > q3 - q1
    line = (f"{name}: parent {med:.6g} [{q1:.6g}-{q3:.6g}, IQR {q3 - q1:.3g}] "
            f"change {cmed:.6g} [{c1:.6g}-{c3:.6g}]  ratio {ratio(med, cmed):.4f}  "
            f"change better on {wins} of {len(base)}  "
            f"medians differ by {'more' if beyond else 'no more'} than the parent's IQR  "
            f"pair ratios {rmed:.4f} [{r1:.4f}-{r3:.4f}]")
    if band is None:
        return line
    a1, _, a3 = band
    return line + f"  A/A band [{a1:.4f}-{a3:.4f}]: {'inside' if a1 <= rmed <= a3 else 'outside'}"


def slot_kinds(seeds: list[int]) -> dict[str, list[int]]:
    """The pair indices of train's two slot kinds, by label; a kind with no pair is left out."""
    kinds = {"slots 0, 4, 7": [], "other slots": []}
    for i, seed in enumerate(seeds):
        kinds["slots 0, 4, 7" if seed % SLOTS in TWO_GROUP_SLOTS else "other slots"].append(i)
    return {label: pairs for label, pairs in kinds.items() if pairs}


def groups(workload: str, seeds: list[int]) -> dict[str, list[int]]:
    """The pair indices of each summary by label: all pairs, then on train each slot kind."""
    found = {"all": list(range(len(seeds)))}
    if workload == "train":
        found.update(slot_kinds(seeds))
    return found


def summaries(metrics: list[dict], runs: dict, workload: str, seeds: list[int],
              band: dict | None = None) -> list[str]:
    """Each metric's summary per group, marked against the A/A ``band`` where it has one."""
    lines = []
    for label, pairs in groups(workload, seeds).items():
        limits = band["groups"].get(label, {}) if band is not None else {}
        for m in metrics:
            line = summary(m["name"], m["better"], [runs["parent"][i][m["name"]] for i in pairs],
                           [runs["change"][i][m["name"]] for i in pairs], limits.get(m["name"]))
            lines.append(line if label == "all" else f"[{label}] {line}")
    return lines


def aa_band(metrics: list[dict], runs: dict, workload: str, seeds: list[int],
            seconds: float, trace: int = 0) -> dict:
    """The pair-ratio quartiles of each metric per group, as ``--band`` writes them."""
    return {"workload": workload, "trace": trace, "seeds": seeds, "seconds": seconds, "groups": {
        label: {m["name"]: list(quartiles([ratio(runs["parent"][i][m["name"]],
                                                 runs["change"][i][m["name"]]) for i in pairs]))
                for m in metrics}
        for label, pairs in groups(workload, seeds).items()}}


def read_band(path: Path, workload: str, trace: int = 0) -> dict:
    """An A/A band written by ``--aa --band``; ValueError if of another workload or trace mode.

    A band that records no trace mode was measured untraced.
    """
    band = json.loads(path.read_text(encoding="utf-8"))
    if band.get("workload") != workload:
        raise ValueError(f"{path} is an A/A band of workload {band.get('workload')!r}, "
                         f"not {workload!r}")
    if band.get("trace", 0) != trace:
        raise ValueError(f"{path} is an A/A band of --trace {band.get('trace', 0)}, "
                         f"not --trace {trace}")
    return band


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("rank", "train", "ingest"))
    parser.add_argument("--base", default="HEAD", help="git revision of the parent tree")
    parser.add_argument("--aa", action="store_true", help="run the parent against itself")
    parser.add_argument("--band", type=Path,
                        help="with --aa, write the A/A band here; else mark the summaries by it")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"),
                        help="one pair per seed, e.g. 0-9 or 0,2,4")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs, compared on the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="the workloads' smoke sizes")
    args = parser.parse_args(argv)

    metrics = metric_specs(json.loads((ROOT / "BENCHMARK.json").read_text()), args.trace)
    band = read_band(args.band, args.workload, args.trace) if args.band and not args.aa else None
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        base = extract(args.base, Path(tmp, "parent"))
        if args.aa:
            change = extract(args.base, Path(tmp, "second"))
        else:
            change = copy_checkout(Path(tmp, "change"))
        print(f"parent {args.base} ({base}), "
              f"change {'the parent again' if args.aa else 'the checkout'} ({change}), "
              f"workload {args.workload}{', traced' if args.trace else ''}, "
              f"{args.seconds:g} s a run", flush=True)
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(base if side == "parent" else change, args.workload,
                                           seed, args.seconds, args.smoke, args.trace))
            values = [(m["name"], runs["parent"][-1][m["name"]], runs["change"][-1][m["name"]])
                      for m in metrics]
            print(f"pair {i} seed {seed} ({order[0]} first): " + ", ".join(
                f"{name} {b:.6g}/{c:.6g} ({ratio(b, c):.4f})" for name, b, c in values),
                flush=True)
    print("\n".join(summaries(metrics, runs, args.workload, args.seeds, band)))
    if args.band and args.aa:
        args.band.write_text(json.dumps(aa_band(metrics, runs, args.workload, args.seeds,
                                                args.seconds, args.trace), indent=1) + "\n",
                             encoding="utf-8")
        print(f"wrote the A/A band to {args.band}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
