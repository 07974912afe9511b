import os

import numpy as np
import pytest

from psn.checkpoint import load_checkpoint, save_checkpoint
from psn.errors import ContractError, ParseError


@pytest.fixture
def arrays():
    rng = np.random.default_rng(60)
    return {
        "layer0.weight": rng.standard_normal((3, 4)).astype(np.float32),
        "layer0.bias": rng.standard_normal(4).astype(np.float32),
        "scale": np.float32(2.5).reshape(()),
    }


def test_roundtrip_is_bit_exact(tmp_path, arrays):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_scalar_entry_roundtrip(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, {"v": np.asarray(1.5, dtype=np.float32)})
    out = load_checkpoint(path)
    assert out["v"].shape == ()
    assert out["v"] == np.float32(1.5)


def test_non_float32_rejected(tmp_path):
    with pytest.raises(ContractError):
        save_checkpoint(tmp_path / "x.ckpt", {"w": np.zeros(3)})  # float64


def test_bad_name_rejected(tmp_path):
    with pytest.raises(ContractError):
        save_checkpoint(tmp_path / "x.ckpt",
                        {"has space": np.zeros(1, dtype=np.float32)})


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT\n" + b"\x00" * 32)
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert err.value.offset == 0


def test_truncated_payload_names_offset(tmp_path, arrays):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert err.value.offset is not None
    assert "offset" in str(err.value)


def test_truncated_header(tmp_path):
    path = tmp_path / "h.ckpt"
    path.write_bytes(b"PSNCKPT v1\ncount 2\n")
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_failed_save_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.ckpt"
    bad = {"ok": np.zeros(2, dtype=np.float32), "bad": np.zeros(2)}
    with pytest.raises(ContractError):
        save_checkpoint(target, bad)
    assert not target.exists()
    # No orphaned temp files either.
    assert os.listdir(tmp_path) == []


def test_overwrite_replaces_atomically(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.ones(2, dtype=np.float32)})
    save_checkpoint(path, {"a": np.full(2, 7.0, dtype=np.float32)})
    np.testing.assert_array_equal(load_checkpoint(path)["a"], [7.0, 7.0])


def test_order_is_preserved(tmp_path):
    names = [f"p{i}" for i in range(6)]
    arrays = {n: np.full(1, i, dtype=np.float32)
              for i, n in enumerate(names)}
    path = tmp_path / "o.ckpt"
    save_checkpoint(path, arrays)
    assert list(load_checkpoint(path)) == names


def _write_raw(path, entry_lines, payload_bytes=32):
    header = (b"PSNCKPT v1\ncount %d\n" % len(entry_lines)
              + b"".join(line.encode() + b"\n" for line in entry_lines)
              + b"end\n")
    path.write_bytes(header + np.arange(payload_bytes // 4,
                                        dtype="<f4").tobytes())


# Each case changes one field of the well-formed header ("a 2 0 8",
# "b 3 8 12"); the payload is long enough that none of them would fail for
# running out of bytes.
@pytest.mark.parametrize("entry_lines", [
    pytest.param(["a 2 -8 8", "b 3 8 12"], id="negative-offset"),
    pytest.param(["a -2 0 8", "b 3 8 12"], id="negative-dim"),
    pytest.param(["a 2 0 -8", "b 3 8 12"], id="negative-length"),
    pytest.param(["a -1 0 -4", "b 3 -4 12"], id="negative-dim-and-length"),
    pytest.param(["a 2 0 8", "a 3 8 12"], id="duplicate-name"),
    pytest.param(["a 2 0 8", "b 3 4 12"], id="overlapping-offset"),
    pytest.param(["a 2 0 8", "b 3 12 12"], id="gap-between-offsets"),
    pytest.param(["a 2 4 8", "b 3 12 12"], id="gap-before-first"),
    # 2^64 elements: an int64 product wraps to 0 and passes a length of 0.
    pytest.param(["a 4294967296,4294967296 0 0", "b 3 0 12"],
                 id="overflowing-shape"),
])
def test_malformed_header_field_is_rejected(tmp_path, entry_lines):
    path = tmp_path / "m.ckpt"
    _write_raw(path, ["a 2 0 8", "b 3 8 12"])
    assert [a.shape for a in load_checkpoint(path).values()] == [(2,), (3,)]
    _write_raw(path, entry_lines)
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert err.value.offset is not None
