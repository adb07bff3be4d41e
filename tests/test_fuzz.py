"""``tools/fuzz.py``'s seeded mutations of every input reader end in a
parse that counts every line or in a typed error (a few seconds)."""

import importlib.util
import random
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("fuzz", ROOT / "tools" / "fuzz.py")
fuzz = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fuzz)


def test_every_mutated_input_parses_or_fails_typed(tmp_path):
    counts = fuzz.run(tmp_path, seed=0, cases=1000)
    for surface in fuzz.SURFACES:
        outcomes = {o: n for (s, o), n in counts.items() if s == surface}
        assert sum(outcomes.values()) == 1000, surface
        if surface == "checkpoint":  # its sha256 covers every byte, and no case is a no-op
            assert outcomes == {"CheckpointError": 1000}
        else:  # both an accepted parse and a refusal are reached
            assert outcomes.get("parsed", 0) > 0 and len(outcomes) >= 2, (surface, outcomes)


def test_no_mutation_returns_its_input():
    # Stress the no-op draws: one byte (every flip, overwrite, deletion
    # and cut acts on it) and one line copied.
    rnd = random.Random(0)
    for data in (b"x", b"\n", b"a\nb", b"0" * 3):
        for _ in range(500):
            assert fuzz.mutate(data, rnd) != data


@pytest.mark.parametrize("error", [ValueError("bad line"), UnicodeDecodeError(
    "utf-8", b"\xff", 0, 1, "invalid start byte"), KeyError("x")])
def test_an_untyped_error_is_a_failure(tmp_path, monkeypatch, error):
    def raise_error(path):
        raise error
    monkeypatch.setattr(fuzz, "parse_news_file", raise_error)
    with pytest.raises(fuzz.FuzzFailure, match=f"news_tsv case 0 .*{type(error).__name__}"):
        fuzz.run(tmp_path, seed=0, cases=1)
