"""Time the model's skinny float32 products in one call and in ``autodiff``'s blocks.

Usage, from the root of a checkout:

    python3 tools/gemm_bound.py [--calls N] [--repeats R]

``autodiff`` cuts a product above its small-matrix bound (M*N*K of
``autodiff._SMALL_GEMM``) whose smaller outer side is below
``autodiff._SKINNY`` into blocks under the bound, because numpy's bundled
OpenBLAS packs the operands of every product above that bound.  This
times, on one BLAS thread as the benchmark runs, the shapes that decide
whether the bound holds on another BLAS or CPU:

- (M, 288) @ (288, N) for M = 5, 10, 20, 28 clicks, with N the widest
  product at the bound, one column more, and the 288 of a user-encoder
  weight;
- the key product (1152, 288) @ (288, M) and the filter bank
  (M, 864) @ (864, 288) at the same M.

One line per shape: the shape, its M*N*K, how many blocks
``autodiff._product`` runs it in, and the best of ``--repeats`` means over
``--calls`` calls of ``x @ y`` ("whole") and of ``autodiff._product``
("blocked"), in microseconds.  A product of one block runs the same call
both ways.  If "whole" does not jump between a product at the bound and
one column more, the bound does not hold on this machine.
"""

from __future__ import annotations

import argparse
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402,F401  pins BLAS threads before numpy loads

import numpy as np  # noqa: E402
from avoidrec import autodiff  # noqa: E402

CLICKS = (5, 10, 20, 28)
D_AUG = 288  # d_news 256 + dim_ue 32
HEADS = 4
WINDOW = 3  # 2 * cnn_window + 1


def shapes():
    """(m, k, n) of every product timed, in the order printed."""
    for m in CLICKS:
        at_bound = autodiff._SMALL_GEMM // (m * D_AUG)
        for n in (at_bound, at_bound + 1, D_AUG):
            yield m, D_AUG, n
        yield HEADS * D_AUG, D_AUG, m
        yield m, WINDOW * D_AUG, D_AUG


def best_us(fn, calls: int, repeats: int) -> float:
    return min(timeit.repeat(fn, number=calls, repeat=repeats)) / calls * 1e6


def lines(calls: int, repeats: int):
    rng = np.random.default_rng(0)
    for m, k, n in shapes():
        x = rng.standard_normal((m, k), dtype=np.float32)
        y = rng.standard_normal((k, n), dtype=np.float32)
        blocks = len(autodiff._block_plan(m, k, n)[1]) - 1
        whole = best_us(lambda: x @ y, calls, repeats)
        blocked = best_us(lambda: autodiff._product(x, y), calls, repeats)
        yield (f"({m},{k})@({k},{n}) mnk {m * k * n} blocks {blocks} "
               f"whole {whole:.1f} us blocked {blocked:.1f} us")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200, help="calls per timed repeat")
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats; the best is kept")
    args = parser.parse_args(argv)
    if args.calls < 1 or args.repeats < 1:
        parser.error("--calls and --repeats must be >= 1")
    for line in lines(args.calls, args.repeats):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
