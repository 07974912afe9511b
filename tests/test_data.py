"""Column-sequence conversion, the synthetic task, and IDX ingestion."""

import struct

import numpy as np
import pytest

from psn.data import (SequenceBatch, _class_geometry, _toy_images, columnize,
                      load_csv_labels, load_idx_images, load_idx_labels,
                      load_idx_pair, synth_toy_dataset)
from psn.errors import ContractError, ParseError
from psn.tensor import Tensor


def _write_idx_images(path, images):
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    path.write_bytes(struct.pack(">IIII", 0x803, n, h, w)
                     + images.tobytes())


def _write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">II", 0x801, labels.shape[0])
                     + labels.tobytes())


# -------------------------------------------------------------- columnize

# Mean 0 and std 1 leave every float32 as it is, so the permutation shows.
_IDENTITY = (0.0, 1.0)


def test_columnize_reads_out_columns():
    img = np.array([[[1.0, 2.0],
                     [3.0, 4.0]]])
    batch = columnize(img, [0], stats=_IDENTITY)
    assert batch.inputs.data.shape == (2, 1, 2)
    # Step 0 is the left column top-to-bottom, step 1 the right column.
    np.testing.assert_array_equal(batch.inputs.data[0, 0], [1.0, 3.0])
    np.testing.assert_array_equal(batch.inputs.data[1, 0], [2.0, 4.0])
    # N, H and W all differ, so any axis mix-up changes the shape or values.
    imgs = np.random.default_rng(70).standard_normal((4, 6, 9))
    imgs = imgs.astype(np.float32)
    seq = columnize(imgs, np.zeros(4), stats=_IDENTITY).inputs.data
    assert seq.shape == (9, 4, 6)
    assert seq.tobytes() == np.ascontiguousarray(
        imgs.transpose(2, 0, 1)).tobytes()


def test_columnize_constant_image_is_constant_sequence():
    batch = columnize(np.full((2, 3, 5), 0.25), [0, 1], stats=_IDENTITY)
    assert np.all(batch.inputs.data == np.float32(0.25))
    assert batch.num_steps == 5 and batch.num_channels == 3


def test_columnize_rejects_empty_or_wrong_rank():
    with pytest.raises(ContractError):
        columnize(np.zeros((0, 4, 4)), [])
    with pytest.raises(ContractError):
        columnize(np.zeros((4, 4)), np.zeros(4))


def test_columnize_normalization_uses_given_stats():
    imgs = np.full((2, 2, 2), 3.0)
    batch = columnize(imgs, [0, 1], stats=(1.0, 2.0))
    np.testing.assert_allclose(batch.inputs.data, 1.0)


def test_columnize_self_stats_standardize():
    rng = np.random.default_rng(71)
    batch = columnize(rng.standard_normal((3, 4, 4)) * 5 + 2, [0, 1, 2])
    assert abs(float(batch.inputs.data.mean())) < 1e-5
    assert abs(float(batch.inputs.data.std()) - 1.0) < 1e-5


def test_degenerate_std_rejected():
    with pytest.raises(ContractError):
        columnize(np.zeros((2, 2, 2)), [0, 1])


def test_labels_shape_checked():
    with pytest.raises(ContractError):
        columnize(np.ones((3, 2, 2)), [0, 1], stats=_IDENTITY)
    with pytest.raises(ContractError):
        SequenceBatch(Tensor(np.zeros((2, 3, 2))), np.zeros(4))


# ------------------------------------------------------------ toy dataset


def test_synth_is_deterministic():
    a_train, a_test = synth_toy_dataset(4, 20, seed=9)
    b_train, b_test = synth_toy_dataset(4, 20, seed=9)
    assert a_train.inputs.data.tobytes() == b_train.inputs.data.tobytes()
    assert a_test.inputs.data.tobytes() == b_test.inputs.data.tobytes()
    np.testing.assert_array_equal(a_train.labels, b_train.labels)


def test_synth_seed_changes_content():
    a, _ = synth_toy_dataset(4, 20, seed=9)
    b, _ = synth_toy_dataset(4, 20, seed=10)
    assert a.inputs.data.tobytes() != b.inputs.data.tobytes()


def test_synth_shapes_and_balance():
    train, test = synth_toy_dataset(5, 40, seed=0)
    assert train.inputs.data.shape == (16, 200, 16)
    assert test.inputs.data.shape == (16, 50, 16)
    np.testing.assert_array_equal(np.bincount(train.labels), [40] * 5)
    np.testing.assert_array_equal(np.bincount(test.labels), [10] * 5)


def test_synth_splits_are_disjoint_draws():
    train, test = synth_toy_dataset(3, 16, seed=1)
    # Different child streams: no shared images between the splits.
    tr = {row.tobytes() for row in
          np.moveaxis(train.inputs.data, 1, 0).reshape(len(train), -1)}
    te = {row.tobytes() for row in
          np.moveaxis(test.inputs.data, 1, 0).reshape(len(test), -1)}
    assert not tr & te


def test_normalization_comes_from_train_split():
    train, test = synth_toy_dataset(4, 50, seed=2)
    # The raw images of each split, drawn as synth_toy_dataset draws them.
    raw = [_toy_images(4, per_class, np.random.default_rng(s)) for
           per_class, s in zip((50, 12), np.random.SeedSequence(2).spawn(2))]
    stats = (float(raw[0][0].mean()), float(raw[0][0].std()))
    for batch, (images, labels) in zip((train, test), raw):
        want = columnize(images, labels, stats=stats)
        assert batch.inputs.data.tobytes() == want.inputs.data.tobytes()
        np.testing.assert_array_equal(batch.labels, labels)
    assert abs(float(train.inputs.data.mean())) < 1e-4
    # The test split uses train stats, so it need not be exactly centered.
    assert abs(float(test.inputs.data.mean())) < 0.12
    self_stats = columnize(*raw[1]).inputs.data
    assert test.inputs.data.tobytes() != self_stats.tobytes()


def test_geometry_fits_in_frame_for_all_class_counts():
    for c in range(2, 11):
        starts, widths, amps = _class_geometry(c)
        assert np.all(starts >= 1)
        assert np.all(starts + widths <= 16)
        # Equal expected energy: amplitude * width constant across classes.
        np.testing.assert_allclose(amps * widths, amps[0] * widths[0])


def test_class_count_bounds():
    for c in (1, 11, 0):
        with pytest.raises(ContractError):
            synth_toy_dataset(c, 10, seed=0)
    with pytest.raises(ContractError):
        synth_toy_dataset(4, 0, seed=0)


def test_tiny_sample_count_still_yields_test_split():
    train, test = synth_toy_dataset(2, 1, seed=0)
    assert len(train) == 2 and len(test) == 2


# -------------------------------------------------------------------- IDX


def test_idx_image_roundtrip(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(1, 3, 4)
    path = tmp_path / "images.idx"
    _write_idx_images(path, img)
    out = load_idx_images(path)
    assert out.shape == (1, 3, 4)
    np.testing.assert_allclose(out, img / 255.0)


def test_idx_label_roundtrip(tmp_path):
    path = tmp_path / "labels.idx"
    _write_idx_labels(path, [3, 1, 4])
    out = load_idx_labels(path)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, [3, 1, 4])


def test_idx_bad_magic_offset_zero(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0xdead, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(ParseError) as err:
        load_idx_images(path)
    assert err.value.offset == 0
    assert "magic" in str(err.value)


def test_idx_truncated_payload_names_offset(tmp_path):
    path = tmp_path / "short.idx"
    _write_idx_images(path, np.zeros((2, 3, 3), dtype=np.uint8))
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ParseError) as err:
        load_idx_images(path)
    assert err.value.offset == len(blob) - 5
    assert "offset" in str(err.value)


def test_idx_truncated_header(tmp_path):
    path = tmp_path / "hdr.idx"
    path.write_bytes(struct.pack(">I", 0x803) + b"\x00\x00")
    with pytest.raises(ParseError):
        load_idx_images(path)


def test_idx_pair_and_count_mismatch(tmp_path):
    imgs = tmp_path / "images.idx"
    labs = tmp_path / "labels.idx"
    pixels = np.arange(3 * 2 * 5, dtype=np.uint8).reshape(3, 2, 5) * 8
    _write_idx_images(imgs, pixels)
    _write_idx_labels(labs, [0, 1, 2])
    batch = load_idx_pair(imgs, labs)
    assert len(batch) == 3 and batch.num_steps == 5
    np.testing.assert_array_equal(batch.labels, [0, 1, 2])
    # Standardized with the statistics of its own columns.
    seq = np.ascontiguousarray(
        (pixels.astype(np.float32) / 255.0).transpose(2, 0, 1))
    want = (seq - np.float32(seq.mean())) / np.float32(seq.std())
    assert batch.inputs.data.tobytes() == want.tobytes()
    assert abs(float(batch.inputs.data.mean())) < 1e-6

    _write_idx_labels(labs, [0, 1])
    with pytest.raises(ContractError) as err:
        load_idx_pair(imgs, labs)
    assert "2 labels for 3 images" in str(err.value)


def test_csv_labels(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("2\n0\n\n1\n")
    np.testing.assert_array_equal(load_csv_labels(path), [2, 0, 1])


def test_csv_labels_reject_non_integers(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("1\ncat\n")
    with pytest.raises(ParseError) as err:
        load_csv_labels(path)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("text, line", [
    ("1\n-1\n", 2),                # a negative label
    ("0\n" + "9" * 19 + "\n", 2),  # past int64
    ("1_0\n", 1),                   # int() syntax, not a label
])
def test_csv_labels_reject_what_is_not_a_class_index(tmp_path, text, line):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_csv_labels(path)
    assert f"line {line}" in str(err.value)


@pytest.mark.parametrize("blob", [b"1\n\xe4\n",
                                  b"1\n\"" + b"0" * (1 << 18) + b"\"\n"])
def test_csv_labels_reject_bytes_that_are_not_csv_text(tmp_path, blob):
    # Not UTF-8, and a field past the csv module's size limit.
    path = tmp_path / "labels.csv"
    path.write_bytes(blob)
    with pytest.raises(ParseError):
        load_csv_labels(path)


def test_idx_pair_csv_fallback(tmp_path):
    imgs = tmp_path / "images.idx"
    labs = tmp_path / "labels.csv"
    _write_idx_images(imgs, [[[0, 64], [128, 255]], [[1, 2], [3, 4]]])
    labs.write_text("1\n0\n")
    batch = load_idx_pair(imgs, labs)
    np.testing.assert_array_equal(batch.labels, [1, 0])
