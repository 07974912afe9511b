"""Seeded mutation fuzz of every file and flag the command line reads.

A real training run's checkpoint and manifest, and the IDX image and label
files and the CSV label file it was trained on, are each mutated from a
fixed seed: truncated, overwritten at 1-3 bytes, or grown by 1-7 inserted
bytes. Every mutation goes through ``psn eval`` in process. A malformed
input must end in exit 2 (a clean ``ParseError``/``ContractError``/
``OSError``) or load and exit 0; any other exception escaping ``main`` is a
bug in the reader, and exit 1 is reserved for a failed verify suite.

The argv fuzz swaps the flag values of tiny ``train``, ``eval``, ``bench``
and ``verify`` runs for edge tokens, an existing directory among them, or
repeats a flag with one. Each must end in exit 0, 2 or 3, and an exit 2
must have written no manifest.
"""

import json
import os
import random
import struct

import numpy as np
import pytest

from psn import checkpoint, cli
from psn.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE, main
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


# ------------------------------------------------------------- argv fuzz

# Negative, zero, past every numpy dimension, not a number, infinite,
# empty, non-ASCII, a negative zero and an existing directory (made in the
# working directory by the test).
_DIR_TOKEN = "isdir"
_EDGE_TOKENS = ("-1", "0", str(2 ** 64), "nan", "inf", "", "\u00e9", "-0",
                _DIR_TOKEN)
# A large valid iteration or thread count would run for ever or start that
# many threads, so these flags get only invalid tokens and small values.
_COUNT_FLAGS = ("--epochs", "--iters", "--warmup", "--threads")
_COUNT_TOKENS = ("-1", "0", "nan", "inf", "", "\u00e9", "1", "2")


def _base_argvs(run_dir):
    """{command: [(flag, value)]} of tiny runs; a positional's flag is
    None."""
    return {
        "train": [("--neuron", "spsn"), ("--order", "2"), ("--epochs", "1"),
                  ("--seed", "0"), ("--data", "toy"), ("--classes", "2"),
                  ("--samples-per-class", "2"), ("--hidden", "2"),
                  ("--head", "per-step"), ("--loss", "tet"),
                  ("--optimizer", "sgd"), ("--lr", "0.01"),
                  ("--batch-size", "2"), ("--out-dir", "train"),
                  ("--threads", "1")],
        "eval": [(None, str(run_dir)), ("--split", "train"),
                 ("--threads", "1")],
        "bench": [("--mode", "training"), ("--kinds", "lif,spsn"),
                  ("--n-values", "4"), ("--t-values", "2,3"),
                  ("--warmup", "0"), ("--iters", "3"), ("--seed", "0"),
                  ("--out", "b.csv"), ("--out-dir", "bench"),
                  ("--threads", "1")],
        "verify": [("--suite", "mask-causality"), ("--out-dir", "verify"),
                   ("--threads", "1")],
    }


def _argv(command, pairs):
    argv = [command]
    for flag, value in pairs:
        argv += [value] if flag is None else [flag, value]
    return argv


def _fuzzed(pairs, rng):
    """The base pairs with one flag value swapped or one flag repeated."""
    pairs = list(pairs)
    i = rng.randrange(len(pairs))
    flag = pairs[i][0]
    token = rng.choice(_COUNT_TOKENS if flag in _COUNT_FLAGS
                       else _EDGE_TOKENS)
    if flag is not None and rng.random() < 0.25:
        pairs.append((flag, token))
    else:
        pairs[i] = (flag, token)
    return pairs


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's and the int lists' usage errors
        return exc.code
    except Exception as err:
        raise AssertionError(f"{argv} raised {err!r}") from err


# Cases per command; a verify case that keeps its suite runs it (~0.6 s).
_ARGV_CASES = {"train": 200, "eval": 60, "bench": 150, "verify": 4}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzzed_flags_exit_0_2_or_3(tmp_path, capsys, monkeypatch):
    run_dir = tmp_path / "run"
    assert main(["train", "--epochs", "1", "--classes", "2",
                 "--samples-per-class", "2", "--hidden", "2",
                 "--out-dir", str(run_dir)]) == EXIT_OK
    # Every later file stays in memory, in ``written``; relative paths land
    # in tmp_path.
    written = {}
    for module in (cli, loop, checkpoint):
        monkeypatch.setattr(module, "write_atomic", written.__setitem__)
    monkeypatch.chdir(tmp_path)
    (tmp_path / _DIR_TOKEN).mkdir()
    rng = random.Random(18)
    codes = {}
    for command, pairs in _base_argvs(run_dir).items():
        for i in range(_ARGV_CASES[command] + 1):
            argv = _argv(command, _fuzzed(pairs, rng) if i else pairs)
            written.clear()
            with monkeypatch.context() as env:
                # Recorded now, so leaving the context undoes what
                # ``--threads`` writes into the environment.
                for var in cli._THREAD_ENV_VARS:
                    env.setenv(var, os.environ.get(var, ""))
                code = _exit_code(argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGENCE), argv
            if code == EXIT_USAGE:
                manifests = [path for path in written
                             if str(path).endswith("manifest.json")]
                assert not manifests, (argv, manifests)
            if not i:
                assert code == EXIT_OK, argv
            codes.setdefault(command, set()).add(code)
    capsys.readouterr()
    assert all(EXIT_USAGE in c for c in codes.values()), codes
