import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from avoidrec.checkpoint import (CheckpointError, load_checkpoint,
                                 save_checkpoint)


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
        "b.bias": rng.normal(size=(7,)),
        "c.table": rng.integers(0, 5, size=(2, 2)).astype(np.float64),
    }
    path = tmp_path / "model.ntck"
    save_checkpoint(path, tensors, meta={"seed": 3, "mode": "full"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 3, "mode": "full"}
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


def test_identical_tensors_identical_bytes(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w": rng.normal(size=(5, 5))}
    p1, p2 = tmp_path / "a.ntck", tmp_path / "b.ntck"
    save_checkpoint(p1, tensors, meta={"k": 1})
    save_checkpoint(p2, {"w": tensors["w"].copy()}, meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_insertion_order_does_not_change_bytes(tmp_path):
    a = np.ones((2, 2))
    b = np.zeros(3)
    p1, p2 = tmp_path / "a.ntck", tmp_path / "b.ntck"
    save_checkpoint(p1, {"x": a, "y": b})
    save_checkpoint(p2, {"y": b, "x": a})
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.ntck"
    save_checkpoint(path, {"w": np.ones(2)})
    raw = bytearray(path.read_bytes())
    idx = raw.find(b'"format_version":3')
    raw[idx:idx + len(b'"format_version":3')] = b'"format_version":9'
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_an_older_version_fails_naming_it(tmp_path):
    # Version 1 had no digest, version 2 a payload_sha256 field in the header.
    buf = np.arange(6, dtype=np.float32).tobytes()
    entries = [{"name": "w", "dtype": "float32", "shape": [3, 2], "offset": 0,
                "nbytes": len(buf)}]
    digests = {1: {}, 2: {"payload_sha256": hashlib.sha256(buf).hexdigest()}}
    for version, digest in digests.items():
        header = json.dumps({"format_version": version, "meta": {}, "tensors": entries, **digest},
                            sort_keys=True, separators=(",", ":")).encode("utf-8")
        path = tmp_path / f"v{version}.ntck"
        path.write_bytes(b"NTCK" + len(header).to_bytes(4, "little") + header + buf)
        with pytest.raises(CheckpointError, match=rf"v{version}\.ntck: unsupported format "
                                                  rf"version {version}, expected 3"):
            load_checkpoint(path)


def test_truncated_file_raises_checkpoint_error(tmp_path):
    path = tmp_path / "model.ntck"
    save_checkpoint(path, {"w": np.ones((3, 2), dtype=np.float32)})
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CheckpointError, match="past the end"):
        load_checkpoint(path)


def test_unlisted_dtype_is_refused_both_ways(tmp_path):
    path = tmp_path / "model.ntck"
    with pytest.raises(CheckpointError, match="dtype"):
        save_checkpoint(path, {"w": np.ones(2, dtype=np.complex64)})
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float64)})
    raw = path.read_bytes().replace(b'"dtype":"float64"', b'"dtype":"complex"')
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="dtype"):
        load_checkpoint(path)


_TENSORS = st.dictionaries(
    st.text("abcxyz._", min_size=1, max_size=6),
    st.tuples(st.sampled_from(["float32", "float64"]),
              st.lists(st.integers(0, 3), max_size=3)),
    min_size=1, max_size=3)


def _saved_bytes(tmp_path, spec) -> bytes:
    rng = np.random.default_rng(0)
    tensors = {name: (rng.normal(size=shape) * 10).astype(dtype)
               for name, (dtype, shape) in spec.items()}
    path = tmp_path / "fuzz.ntck"
    save_checkpoint(path, tensors, meta={"seed": 1})
    return path.read_bytes()


@given(spec=_TENSORS, cut=st.integers(1, 10_000))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_truncation_raises_checkpoint_error(tmp_path, spec, cut):
    raw = _saved_bytes(tmp_path, spec)
    path = tmp_path / "cut.ntck"
    path.write_bytes(raw[:max(0, len(raw) - cut)])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@given(spec=_TENSORS, data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bit_flips_load_or_raise_checkpoint_error(tmp_path, spec, data):
    # Every flip raises: the trailing sha256 covers the header, meta included, and the payload.
    raw = bytearray(_saved_bytes(tmp_path, spec))
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    path = tmp_path / "flip.ntck"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_every_single_bit_flip_of_a_small_file_raises(tmp_path):
    path = tmp_path / "model.ntck"
    save_checkpoint(path, {"w": np.arange(3, dtype=np.float32)}, meta={"mode": "full", "lr": 1e-05})
    raw = path.read_bytes()
    loaded = []
    for position in range(len(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[position] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                loaded.append((position, bit, load_checkpoint(path)[1]))
            except CheckpointError:
                pass
    assert loaded == []
