"""Print the bits of the benchmark's train and rank outputs, one line each.

Usage, from the root of a checkout:

    python3 tools/fingerprint.py [--smoke]

For every input slot of ``perfbench/`` it sets up the ``train`` and the
``rank`` workload (their smoke sizes with ``--smoke``) and runs one
operation of each.  A ``train`` line holds the final train loss as a hex
float and, labelled ``best_state`` so that lines of older checkouts still
compare, the sha256 of the trained model's ``state_dict()``; a ``rank``
line holds each rank metric as a hex float.  Two checkouts print the same
line only when that output is bit-identical, so a diff of two runs names
the slot and the output that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  pins BLAS threads before numpy loads

import numpy as np  # noqa: E402
import workloads  # noqa: E402


def state_sha256(state: dict) -> str:
    """sha256 over every array of ``state`` by name: its dtype, shape and bytes."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def fingerprint_lines(smoke: bool):
    with run.scratch_dir() as workdir:
        for slot in range(workloads.N_SLOTS):
            train = workloads.Train(slot, smoke, workdir, None)
            result, _ = train._train(train.setup())
            yield (f"train slot {slot} loss {result.history[-1].train_loss.hex()} "
                   f"best_state {state_sha256(result.model.state_dict())}")
            rank = workloads.Rank(slot, smoke, workdir, None)
            metrics = rank.run_op(rank.setup()).output
            yield f"rank slot {slot} " + " ".join(
                f"{name} {float(metrics[name]).hex()}" for name in sorted(metrics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' smoke sizes (a few seconds a slot)")
    args = parser.parse_args(argv)
    for line in fingerprint_lines(args.smoke):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
