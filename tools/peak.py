"""Print where one benchmark operation reaches its peak of traced memory.

Usage, from the root of a checkout:

    python3 tools/peak.py [--smoke] --workload rank|train [--seed N]

It sets up the ``rank`` or ``train`` workload of ``perfbench/`` for the
input slot of ``--seed`` (the smoke size with ``--smoke``) and runs one
operation under tracemalloc exactly as the benchmark measures ``peak_mb``.
It then runs a second operation with every public function of
``autodiff`` (its ops, found at import) and every recorded gradient
formula wrapped, and reads tracemalloc's peak at each wrapper's entry
and exit (resetting it after each read).  The span
whose peak is the highest locates the operation's peak: either inside an
op (its forward, or its gradient formula during ``backward``), or in the
code between two ops.  For each it prints the op and the frames that
called it, the frames of the op's forward call for a gradient formula.
The wrappers allocate a little themselves, so the second peak reads
slightly above the first.
"""

from __future__ import annotations

import argparse
import inspect
import linecache
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  pins BLAS threads before numpy loads

import workloads  # noqa: E402
from avoidrec import autodiff  # noqa: E402

# Every public function ``autodiff`` defines: its ops and the few helpers
# that make tensors, which an operation calls rarely or never.
OPS = tuple(name for name, fn in inspect.getmembers(autodiff, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == autodiff.__name__)
FRAMES = 6  # caller frames kept per op


def _callers():
    """(file, line, function) of the innermost ``FRAMES`` frames outside this file and ``autodiff``.

    Read from the frame objects, so no source line is loaded while tracing.
    """
    skip = (__file__, autodiff.__file__)
    frames, frame = [], sys._getframe(1)
    while frame is not None and len(frames) < FRAMES:
        code = frame.f_code
        if code.co_filename not in skip:
            frames.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return frames[::-1]


class PeakFinder:
    """Splits a run into spans at every op boundary and keeps the highest one."""

    def __init__(self):
        self.bytes = 0
        self.where = None      # what the highest span was
        self.frames = []       # the frames that called its op
        self.previous = ("the start of the operation", [])

    def mark(self, where, frames):
        """Close the span that ends here; ``frames()`` is called only if it is the highest."""
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        if peak > self.bytes:
            self.bytes, self.where, self.frames = peak, where, frames()

    def between(self, name, frames):
        """Close the span since the last op, then start one inside op ``name``."""
        last, last_frames = self.previous
        self.mark(f"between {last} and {name}", lambda: last_frames + ["..."] + frames)

    @contextmanager
    def patched(self):
        """Wrap every op in ``OPS`` and every gradient formula recorded meanwhile."""
        saved = {name: getattr(autodiff, name) for name in OPS + ("_record",)}

        def wrap(name, fn, frames_of=None):
            def wrapped(*args, **kwargs):
                frames = frames_of if frames_of is not None else _callers()
                self.between(name, frames)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.mark(f"inside {name}", lambda: frames)
                    self.previous = (name, frames)
            return wrapped

        def record(op, inputs, out_data, backward_fn):
            if autodiff._ACTIVE_RECORD.get() is not None:  # else the formula is never called
                backward_fn = wrap(f"the gradient formula of {op}", backward_fn, _callers())
            return saved["_record"](op, inputs, out_data, backward_fn)

        try:
            for name in OPS:
                setattr(autodiff, name, wrap(f"autodiff.{name}", saved[name]))
            autodiff._record = record
            yield self
        finally:
            for name, fn in saved.items():
                setattr(autodiff, name, fn)


def locate(workload, state) -> PeakFinder:
    """One operation with every op wrapped, under tracemalloc from a clean start."""
    finder = PeakFinder()
    run.gc.collect()
    tracemalloc.start()
    try:
        with finder.patched():
            workload.run_op(state)
            finder.between("the end of the operation", [])
    finally:
        tracemalloc.stop()
    return finder


def report(workload_name: str, slot: int, smoke: bool):
    with run.scratch_dir() as workdir:
        workload = workloads.WORKLOADS[workload_name](slot, smoke, workdir, None)
        state = workload.setup()
        peak_mb = run._peak_mb(workload.run_op, state)
        finder = locate(workload, state)
    yield f"{workload_name} slot {slot}: peak_mb {peak_mb:.4f} (as the benchmark reads it)"
    yield f"located peak {finder.bytes / 2**20:.4f} MB, {finder.where}, called from:"
    for frame in finder.frames:
        if frame == "...":
            yield "  ..."
        else:
            path, lineno, function = frame
            line = linecache.getline(path, lineno).strip()
            yield f"  {Path(path).name}:{lineno} in {function}: {line}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("rank", "train"))
    parser.add_argument("--seed", type=int, default=0,
                        help=f"input slot, taken modulo {workloads.N_SLOTS} (default 0)")
    parser.add_argument("--smoke", action="store_true", help="the workload's smoke size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for line in report(args.workload, args.seed % workloads.N_SLOTS, args.smoke):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
