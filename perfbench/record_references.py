"""Record the correctness gate's reference outputs into ``references.json``.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/record_references.py

For every workload, size and input slot it sets the workload up, runs one
operation and stores the operation's output, replacing the whole file.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.HERE)]
    import workloads

    refs = {}
    with run.scratch_dir() as workdir:
        for name in sorted(workloads.WORKLOADS):
            for size in ("full", "smoke"):
                for slot in range(workloads.N_SLOTS):
                    workload = workloads.WORKLOADS[name](slot, size == "smoke", workdir, None)
                    op = workload.run_op(workload.setup())
                    refs.setdefault(name, {}).setdefault(size, {})[str(slot)] = op.output
                    print(name, size, slot, op.output, flush=True)
    with open(workloads.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
