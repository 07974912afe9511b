"""Seeded mutation fuzz of every file the command line reads.

A real training run's checkpoint and manifest, and the IDX image and label
files and the CSV label file it was trained on, are each mutated from a
fixed seed: truncated, overwritten at 1-3 bytes, or grown by 1-7 inserted
bytes. Every mutation goes through ``psn eval`` in process. A malformed
input must end in exit 2 (a clean ``ParseError``/``ContractError``/
``OSError``) or load and exit 0; any other exception escaping ``main`` is a
bug in the reader, and exit 1 is reserved for a failed verify suite.
"""

import json
import os
import struct

import numpy as np
import pytest

from psn import checkpoint, cli
from psn.cli import EXIT_OK, EXIT_USAGE, main
from psn.training import loop


def _mutate(blob, rng):
    """One truncation, 1-3 overwritten bytes, or 1-7 inserted bytes."""
    op = rng.integers(3)
    if op == 0:
        return blob[:rng.integers(len(blob))]
    if op == 1:
        out = bytearray(blob)
        for at in rng.integers(len(blob), size=rng.integers(1, 4)):
            out[at] = rng.integers(256)
        return bytes(out)
    at = rng.integers(len(blob) + 1)
    extra = rng.integers(256, size=rng.integers(1, 8), dtype=np.uint8)
    return blob[:at] + extra.tobytes() + blob[at:]


_FILES = ("manifest.json", "model.ckpt", "images.idx", "labels.idx",
          "labels.csv")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two run directories of one tiny LIF training run on IDX images.

    Each holds its manifest, the checkpoint and all three data files. The
    manifest names the data relative to the run directory: ``idx`` reads
    images.idx and labels.idx, ``csv`` the same labels from labels.csv.
    """
    root = tmp_path_factory.mktemp("fuzz")
    idx_run, csv_run = root / "idx", root / "csv"
    idx_run.mkdir()
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(8, 4, 4), dtype=np.uint8)
    labels = np.tile([0, 1], 4).astype(np.uint8)
    (idx_run / "images.idx").write_bytes(
        struct.pack(">IIII", 0x803, 8, 4, 4) + images.tobytes())
    (idx_run / "labels.idx").write_bytes(
        struct.pack(">II", 0x801, 8) + labels.tobytes())
    (idx_run / "labels.csv").write_text(
        "".join(f"{label}\n" for label in labels))
    assert main(["train", "--data", f"idx:{idx_run}", "--neuron", "lif",
                 "--epochs", "1", "--hidden", "4", "--batch-size", "8",
                 "--seed", "3", "--out-dir", str(idx_run)]) == EXIT_OK

    manifest = json.loads((idx_run / "manifest.json").read_text())
    csv_run.mkdir()
    for name in _FILES:
        os.link(idx_run / name, csv_run / name)
    for run, data in ((idx_run, "idx:."),
                      (csv_run, "idx:images.idx,labels.csv")):
        manifest["config"]["data"] = data
        (run / "manifest.json").unlink()
        (run / "manifest.json").write_text(json.dumps(manifest))
    return root


# (file to mutate, run whose files it is, mutations, seed)
_TARGETS = [
    ("model.ckpt", "idx", 200, 11),
    ("manifest.json", "idx", 200, 12),
    ("images.idx", "idx", 100, 13),
    ("labels.idx", "idx", 100, 14),
    ("labels.csv", "csv", 100, 15),
]


# A v1 checkpoint has no checksum, so a mutated payload byte loads as a
# different weight, and an inf or NaN weight then warns in the arithmetic.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("target, run, count, seed", _TARGETS,
                         ids=[t[0] for t in _TARGETS])
def test_mutated_inputs_exit_0_or_2(runs, target, run, count, seed, capsys,
                                   monkeypatch):
    source = runs / run
    original = (source / target).read_bytes()
    # Every mutation gets a fresh directory: the mutated file is new and the
    # others are hard links. Eval's own manifest stays in memory. Rewriting,
    # renaming over or deleting a file with data can wait on a disk flush
    # that costs tens of ms per call.
    monkeypatch.setattr(cli, "write_atomic", {}.__setitem__)
    rng = np.random.default_rng(seed)
    codes = []
    for i in range(count + 1):
        work = runs / f"{run}-{target}-{i}"
        work.mkdir()
        for name in _FILES:
            if name != target:
                os.link(source / name, work / name)
        (work / target).write_bytes(_mutate(original, rng) if i else original)
        monkeypatch.chdir(work)
        codes.append(main(["eval", "."]))
    capsys.readouterr()
    assert codes[0] == EXIT_OK, "the unmutated run must evaluate"
    assert set(codes) <= {EXIT_OK, EXIT_USAGE}, codes
    assert EXIT_USAGE in codes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mutated_manifests_replay_with_exit_0_or_2(runs, capsys,
                                                   monkeypatch):
    """The manifest mutations of the eval fuzz, through ``psn train
    --from-manifest``: one epoch of the tiny run, or a clean exit 2."""
    source = runs / "idx"
    original = (source / "manifest.json").read_bytes()
    # Manifests, history and checkpoint all stay in memory.
    for module in (cli, loop, checkpoint):
        monkeypatch.setattr(module, "write_atomic", {}.__setitem__)
    monkeypatch.chdir(source)
    work = runs / "replay"
    work.mkdir()
    rng = np.random.default_rng(12)
    codes = []
    for i in range(200 + 1):
        path = work / f"manifest-{i}.json"
        path.write_bytes(_mutate(original, rng) if i else original)
        codes.append(main(["train", "--from-manifest", str(path),
                           "--out-dir", str(work / "out")]))
    capsys.readouterr()
    assert codes[0] == EXIT_OK, "the unmutated manifest must replay"
    assert set(codes) <= {EXIT_OK, EXIT_USAGE}, codes
    assert EXIT_USAGE in codes
