"""Seeded mutation fuzzing of every input reader, counting each outcome.

Usage, from the root of a checkout:

    python3 tools/fuzz.py [--seed 0] [--cases 2000]

Each case takes the seed file of one surface (the news TSV, the
behaviors TSV, behaviors JSONL, a checkpoint, a synthetic spec JSON and
a train-config JSON), applies one to four random byte mutations with
stdlib ``random`` under a fixed seed, and reads the result back with the
program's reader.  No case is the unmutated file.  The allowed outcomes
are:

* ``parsed``: the reader returns.  For the news and behaviors readers
  every non-blank line is a row or a counted ``ParseIssue``.  No
  checkpoint may load: its trailing sha256 covers every byte.
* ``CorpusError`` (the news and behaviors readers) or ``CheckpointError``
  (the checkpoint reader).
* ``ValueError`` from a JSON-config reader whose message names the file
  or a field of the config; a raw ``UnicodeDecodeError`` or
  ``JSONDecodeError`` does not count.

Any other outcome raises ``FuzzFailure``, naming the surface, the case
number and the mutated bytes.  ``main`` prints the count of each surface
and outcome; ``tests/test_fuzz.py`` runs 1,000 cases of each surface in
the test suite.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from avoidrec.checkpoint import CheckpointError, load_checkpoint, save_checkpoint  # noqa: E402
from avoidrec.corpus import (CorpusError, parse_behaviors_file, parse_news_file,  # noqa: E402
                             record_to_json)
from avoidrec.model import ModelConfig  # noqa: E402
from avoidrec.synthetic import SyntheticSpec, generate, write_mind_files  # noqa: E402
from avoidrec.training import TrainConfig  # noqa: E402

SURFACES = ("news_tsv", "behaviors_tsv", "behaviors_jsonl", "checkpoint", "spec_json",
            "train_config_json")
# Each JSON surface's reader and the field names its errors may give.
CONFIG_READERS = {
    "spec_json": (SyntheticSpec, set(SyntheticSpec.__dataclass_fields__)),
    "train_config_json": (TrainConfig, {*TrainConfig.__dataclass_fields__,
                                        *ModelConfig.__dataclass_fields__}),
}
# Bytes the insertions draw from: the formats' separators, digits, a
# byte that is never UTF-8 and the lead byte of a two-byte sequence.
ALPHABET = b'\t\n\r -{}[]",:.0123456789eN\xff\xc3'


class FuzzFailure(AssertionError):
    pass


def seed_files(workdir: Path) -> dict[str, bytes]:
    """Each surface's unmutated bytes, from a small synthetic corpus."""
    spec = {"n_users": 6, "n_articles": 8, "n_buckets": 2, "impressions_per_bucket": 4,
            "n_shown": 4, "grid_d": 2, "affinity": [[1.0, 0.5], [0.0, 2.0]], "seed": 1}
    news, behaviors = write_mind_files(generate(SyntheticSpec(**spec)), workdir / "corpus")
    log = parse_behaviors_file(behaviors)
    ckpt = workdir / "seed.ntck"
    rng = np.random.default_rng(0)
    save_checkpoint(ckpt, {"a.w": rng.normal(size=(2, 3)).astype(np.float32),
                           "b.bias": rng.normal(size=4)}, meta={"mode": "full", "seed": 1})
    # The reader opens neither path; fixed ones keep the bytes, and so each
    # case's outcome, independent of where the temporary directory lies.
    config = {"news_path": "news.tsv", "behaviors_path": "behaviors.tsv", "negatives": 2,
              "max_epochs": 2, "learning_rate": 0.01, "mode": "full",
              "model": {"d_word": 8, "d_news": 8, "n_heads": 2, "grid_d": 5,
                        "dtype": "float32", "use_entities": True}}
    return {
        "news_tsv": news.read_bytes(),
        "behaviors_tsv": behaviors.read_bytes(),
        "behaviors_jsonl": "".join(record_to_json(r) + "\n" for r in log).encode(),
        "checkpoint": ckpt.read_bytes(),
        "spec_json": json.dumps(spec).encode(),
        "train_config_json": json.dumps(config).encode(),
    }


def mutate(data: bytes, rnd: random.Random) -> bytes:
    """``data`` with one to four random flips, deletions, insertions, overwrites, copies or cuts.

    No mutation is a no-op: a flip, overwrite, deletion or cut acts at an
    existing byte, an overwrite writes a byte other than the one there,
    and a result equal to ``data`` (one bit flipped twice) is drawn again.
    """
    while True:
        out = bytearray(data)
        for _ in range(rnd.randint(1, 4)):
            kind = rnd.randrange(6) if out else 2  # empty bytes only grow
            pos = rnd.randrange(len(out) + (kind == 2))
            if kind == 0:
                out[pos] ^= 1 << rnd.randrange(8)
            elif kind == 1:
                del out[pos:pos + rnd.randint(1, 8)]
            elif kind == 2:
                out[pos:pos] = bytes(rnd.choice(ALPHABET) for _ in range(rnd.randint(1, 4)))
            elif kind == 3:
                out[pos] = rnd.choice(ALPHABET.replace(out[pos:pos + 1], b""))
            elif kind == 4:
                lines = bytes(out).splitlines(keepends=True)
                line = rnd.randrange(len(lines))
                lines.insert(line, lines[line])
                out = bytearray(b"".join(lines))
            else:
                del out[pos:]
        if out != data:
            return bytes(out)


def _non_blank_lines(path, whitespace_is_blank: bool) -> int:
    """Lines of ``path`` that a corpus reader does not skip, split as it splits them."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = [line.rstrip("\r\n") for line in fh]
    return sum(bool(line.strip() if whitespace_is_blank else line) for line in lines)


def _names_file_or_field(message: str, path, fields) -> bool:
    return str(path) in message or any(re.search(rf"\b{name}\b", message) for name in fields)


def _check(surface: str, path: Path) -> str:
    """The outcome of reading ``path``; FuzzFailure if it is not an allowed one."""
    if surface == "news_tsv":
        try:
            catalog, _ = parse_news_file(path)
        except CorpusError:
            return "CorpusError"
        rows, lines = len(catalog) + len(catalog.issues), _non_blank_lines(path, False)
    elif surface in ("behaviors_tsv", "behaviors_jsonl"):
        try:
            log = parse_behaviors_file(path)
        except CorpusError:
            return "CorpusError"
        rows, lines = len(log) + len(log.issues), _non_blank_lines(path, True)
    elif surface == "checkpoint":
        try:
            load_checkpoint(path)
        except CheckpointError:
            return "CheckpointError"
        raise FuzzFailure("a mutated checkpoint loaded")
    else:
        cls, fields = CONFIG_READERS[surface]
        try:
            cls.from_json_file(path)
        except ValueError as exc:
            if type(exc) in (UnicodeDecodeError, json.JSONDecodeError):
                raise FuzzFailure(f"raw {type(exc).__name__}") from exc
            if not _names_file_or_field(str(exc), path, fields):
                raise FuzzFailure("the ValueError names neither the file nor a field") from exc
            return "ValueError"
        return "parsed"
    if rows != lines:
        raise FuzzFailure(f"{lines} non-blank lines, but {rows} rows and issues")
    return "parsed"


def run(workdir: Path, seed: int, cases: int) -> Counter:
    """Counts of ``(surface, outcome)`` over ``cases`` mutations of each surface.

    Raises FuzzFailure on the first outcome that is not allowed.
    """
    files = seed_files(workdir)
    rnd = random.Random(seed)
    counts = Counter()
    for case in range(cases):
        for surface in SURFACES:
            data = mutate(files[surface], rnd)
            path = workdir / f"case_{surface}"
            path.write_bytes(data)
            try:
                outcome = _check(surface, path)
            except Exception as exc:  # every other outcome is a finding, reported with its input
                raise FuzzFailure(f"{surface} case {case} (seed {seed}): {type(exc).__name__}: "
                                  f"{exc}; input {data!r}") from exc
            counts[surface, outcome] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=2000, help="mutations of each surface")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        counts = run(Path(workdir), args.seed, args.cases)
    for surface in SURFACES:
        outcomes = sorted((o, n) for (s, o), n in counts.items() if s == surface)
        print(f"{surface}: " + ", ".join(f"{o} {n}" for o, n in outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
