"""End-to-end command-line coverage.

Most cases drive ``main()`` in process for speed; true process exit codes
(argparse usage errors, the module entry point) get one subprocess each.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from psn.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main


def _run(argv):
    return main(list(argv))


def _read_json(path):
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------------ bench


def test_bench_tiny_grid_writes_csv_and_manifest(tmp_path):
    out_dir = tmp_path / "bench"
    code = _run(["bench", "--kinds", "lif,psn", "--n-values", "32",
                 "--t-values", "2,4", "--warmup", "0", "--iters", "3",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    csv_text = (out_dir / "bench.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("neuron_kind,")
    assert len(lines) == 1 + 2 * 2
    manifest = _read_json(out_dir / "bench-manifest.json")
    assert manifest["command"] == "bench"
    assert manifest["end_time"] is not None
    assert manifest["outputs"]
    _assert_blas_fields(manifest)
    # Every cell carries the page faults its measured steps took.
    faults = manifest["results"]["minor_faults"]
    assert sorted((c["neuron_kind"], c["T"]) for c in faults) == [
        ("lif", 2), ("lif", 4), ("psn", 2), ("psn", 4)]
    for cell in faults:
        assert cell["N"] == 32
        assert type(cell["minor_faults"]) is int and cell["minor_faults"] >= 0


def _assert_blas_fields(manifest):
    threads = manifest["blas_threads_effective"]
    build = manifest["blas_build"]
    if threads is None:
        assert build is None
    else:
        assert type(threads) is int and threads >= 1
        assert isinstance(build, str) and "OpenBLAS" in build


def test_blas_fields_are_null_without_a_bundled_openblas(monkeypatch):
    import glob

    from psn import cli

    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    assert cli._openblas() == (None, None)


def test_bench_memory_writes_real_peaks_beside_tracked_bytes(tmp_path):
    code = _run(["bench", "--kinds", "lif", "--n-values", "32",
                 "--t-values", "2", "--iters", "3", "--memory",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    memory = _read_json(tmp_path / "bench-manifest.json")["results"]["memory"]
    names = ("no_neuron", "if_neuron", "psn")
    assert set(memory) == {*names, "ratio", "tracemalloc_peak"}
    for name in names:
        assert memory["tracemalloc_peak"][name] >= memory[name] > 0


def test_bench_lif_only_ratios_are_unity(tmp_path):
    out = tmp_path / "b.csv"
    code = _run(["bench", "--kinds", "lif", "--n-values", "32",
                 "--t-values", "2", "--warmup", "0", "--iters", "3",
                 "--out", str(out), "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = out.read_text().strip().split("\n")[1:]
    assert all(float(r.split(",")[5]) == 1.0 for r in rows)


def test_bench_rejects_bad_grid(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["bench", "--kinds", "lif", "--n-values", "banana",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    for flag in ("--t-values=0", "--t-values=-2", "--n-values=0"):
        out_dir = tmp_path / flag.strip("-")
        assert _run(["bench", "--kinds", "lif", flag, "--iters", "3",
                     "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert ">= 1" in capsys.readouterr().err
        assert not (out_dir / "bench-manifest.json").exists()


# ------------------------------------------------------------------ train


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("runs") / "psn-tiny"
    code = main(["train", "--neuron", "psn", "--epochs", "2",
                 "--classes", "2", "--samples-per-class", "12",
                 "--hidden", "12", "--seed", "4", "--batch-size", "16",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    return out_dir


def test_train_writes_the_run_directory(train_run):
    names = sorted(os.listdir(train_run))
    assert names == ["history.txt", "manifest.json", "model.ckpt"]
    manifest = _read_json(train_run / "manifest.json")
    assert manifest["command"] == "train"
    assert manifest["config"]["neuron"] == "psn"
    assert manifest["config"]["epochs"] == 2
    _assert_blas_fields(manifest)
    assert 0.0 <= manifest["results"]["final_test_accuracy"] <= 1.0
    seconds = manifest["results"]["epoch_seconds"]
    assert len(seconds) == 2 and all(s > 0 for s in seconds)
    history = (train_run / "history.txt").read_text()
    assert history.count("\ttrain\tloss\t") == 2


def test_finished_train_manifest_records_its_resources(train_run):
    resources = _read_json(train_run / "manifest.json")["resources"]
    assert set(resources) == {"peak_rss_mb", "minor_faults"}
    assert type(resources["peak_rss_mb"]) is float
    assert resources["peak_rss_mb"] > 0
    assert type(resources["minor_faults"]) is int
    assert resources["minor_faults"] >= 0


def test_manifest_replay_is_bit_identical(train_run, tmp_path):
    rerun = tmp_path / "rerun"
    code = _run(["train", "--from-manifest",
                 str(train_run / "manifest.json"),
                 "--out-dir", str(rerun)])
    assert code == EXIT_OK
    assert (rerun / "history.txt").read_bytes() == \
        (train_run / "history.txt").read_bytes()
    assert (rerun / "model.ckpt").read_bytes() == \
        (train_run / "model.ckpt").read_bytes()


_DIGESTS = os.path.join(os.path.dirname(__file__), "train_digests.json")


def test_training_writes_the_committed_digests(tmp_path):
    """``psn train --seed 3 --epochs 3`` of every kind, and of the PSN with
    the per-step head, writes the bytes of history.txt and model.ckpt
    recorded in train_digests.json under this numpy version and BLAS build.
    A change that alters them on purpose updates that table."""
    from psn.cli import _NEURON_CHOICES, _openblas
    from psn.neurons import ORDER_KINDS

    key = f"numpy {np.__version__} | {_openblas()[1]}"
    table = _read_json(_DIGESTS)
    if key not in table:
        pytest.skip(f"no training digests recorded for {key!r}")
    runs = [(kind, ["--neuron", kind,
                    *(["--order", "2"] if kind in ORDER_KINDS else [])])
            for kind in _NEURON_CHOICES]
    runs.append(("psn-per-step", ["--neuron", "psn", "--head", "per-step",
                                  "--loss", "tet", "--optimizer", "sgd"]))
    got = {}
    for name, flags in runs:
        out_dir = tmp_path / name
        assert _run(["train", *flags, "--seed", "3", "--epochs", "3",
                     "--out-dir", str(out_dir)]) == EXIT_OK
        got[name] = {f: hashlib.sha256((out_dir / f).read_bytes())
                     .hexdigest() for f in ("history.txt", "model.ckpt")}
    assert got == table[key]


def test_eval_reproduces_training_accuracy(train_run, capsys):
    code = _run(["eval", str(train_run)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    manifest = _read_json(train_run / "manifest.json")
    expect = manifest["results"]["final_test_accuracy"]
    assert f"{expect:.4f}" in out
    eval_manifest = _read_json(train_run / "eval-manifest.json")
    assert eval_manifest["command"] == "eval"
    assert eval_manifest["results"]["accuracy"] == expect


def test_eval_train_split(train_run, capsys):
    code = _run(["eval", str(train_run), "--split", "train"])
    assert code == EXIT_OK
    manifest = _read_json(train_run / "manifest.json")
    assert f"{manifest['results']['final_train_accuracy']:.4f}" \
        in capsys.readouterr().out


def test_eval_rejects_a_non_run_directory(tmp_path):
    assert _run(["eval", str(tmp_path)]) == EXIT_USAGE


def test_eval_rejects_a_malformed_checkpoint(train_run, tmp_path, capsys):
    import shutil
    run = tmp_path / "run"
    shutil.copytree(train_run, run)
    ckpt = run / "model.ckpt"
    blob = ckpt.read_bytes()
    # Point the first entry's payload offset before the payload.
    first = blob.index(b"\n", blob.index(b"count")) + 1
    line_end = blob.index(b"\n", first)
    name, shape, _, length = blob[first:line_end].split()
    ckpt.write_bytes(blob[:first] + b" ".join([name, shape, b"-8", length])
                     + blob[line_end:])
    assert _run(["eval", str(run)]) == EXIT_USAGE
    assert "offset" in capsys.readouterr().err


def test_eval_rejects_a_non_ascii_shape_in_a_checkpoint(train_run, tmp_path,
                                                        capsys):
    import shutil
    run = tmp_path / "run"
    shutil.copytree(train_run, run)
    ckpt = run / "model.ckpt"
    blob = ckpt.read_bytes()
    # Put a byte that is not UTF-8 into the first entry's shape field.
    first = blob.index(b"\n", blob.index(b"count")) + 1
    shape_at = blob.index(b" ", first) + 1
    ckpt.write_bytes(blob[:shape_at] + b"\xff" + blob[shape_at:])
    assert _run(["eval", str(run)]) == EXIT_USAGE
    assert "malformed header entry" in capsys.readouterr().err


def test_train_masked_records_lambda(tmp_path):
    out_dir = tmp_path / "masked"
    code = _run(["train", "--neuron", "masked-psn", "--order", "2",
                 "--epochs", "2", "--classes", "2", "--samples-per-class",
                 "8", "--hidden", "8", "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    manifest = _read_json(out_dir / "manifest.json")
    assert manifest["results"]["final_lambda"] == 1.0
    assert "\ttrain\tlambda\t" in (out_dir / "history.txt").read_text()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_3_and_records(tmp_path):
    out_dir = tmp_path / "diverged"
    code = _run(["train", "--neuron", "psn", "--epochs", "2",
                 "--classes", "2", "--samples-per-class", "8",
                 "--optimizer", "sgd", "--lr", "1e39",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_DIVERGENCE
    # Manifest exists (written before work) and carries the failure.
    manifest = _read_json(out_dir / "manifest.json")
    assert "error" in manifest["results"]
    assert "layer0.output" in manifest["results"]["error"]


def test_train_records_thread_pinning(tmp_path, monkeypatch):
    monkeypatch.setenv("PSN_THREADS", "1")
    out_dir = tmp_path / "pinned"
    code = _run(["train", "--neuron", "lif", "--epochs", "1",
                 "--classes", "2", "--samples-per-class", "4",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    assert _read_json(out_dir / "manifest.json")["threads"] == 1


def _faulty_runs(train_run, tmp_path):
    """Run directories whose manifest is broken one way each."""
    good = _read_json(train_run / "manifest.json")
    missing = json.loads(json.dumps(good))
    del missing["config"]["neuron"]
    unknown = json.loads(json.dumps(good))
    unknown["config"]["neuron"] = "hodgkin-huxley"
    runs = {}
    for label, text in (("not-json", '{"command": "train", "con'),
                        ("missing-neuron", json.dumps(missing)),
                        ("unknown-neuron", json.dumps(unknown))):
        run = tmp_path / label
        run.mkdir()
        (run / "model.ckpt").write_bytes(
            (train_run / "model.ckpt").read_bytes())
        (run / "manifest.json").write_text(text)
        runs[label] = run
    return runs


def test_train_rejects_bad_config_before_writing_a_manifest(
        tmp_path, train_run, capsys):
    cases = [["--epochs", "0"],
             ["--neuron", "spsn", "--order", "0"],
             ["--neuron", "masked-psn", "--order", "99"],
             ["--samples-per-class", "0"],
             ["--hidden", "0"],
             ["--hidden=-1"]]
    cases += [["--from-manifest", str(run / "manifest.json")]
              for run in _faulty_runs(train_run, tmp_path).values()]
    for i, argv in enumerate(cases):
        out_dir = tmp_path / f"bad{i}"
        code = _run(["train", "--epochs", "1", "--classes", "2",
                     "--samples-per-class", "8", *argv,
                     "--out-dir", str(out_dir)])
        assert code == EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith("error: "), argv
        assert not (out_dir / "manifest.json").exists(), argv


def _assert_rejected_before_training(argv, out_dir, capsys, wanted):
    assert _run(["train", "--epochs", "1", "--classes", "2",
                 "--samples-per-class", "8", *argv,
                 "--out-dir", str(out_dir)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and wanted in err, err
    assert not (out_dir / "manifest.json").exists()


def test_train_negative_seed_exits_2(tmp_path, capsys):
    _assert_rejected_before_training(["--seed", "-1"], tmp_path / "run",
                                     capsys, "seed must be >= 0")


def test_bench_negative_seed_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    assert _run(["bench", "--seed", "-1", "--n-values", "4", "--t-values",
                 "2", "--iters", "3", "--out-dir", str(out_dir)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0" in err
    assert not (out_dir / "bench-manifest.json").exists()


def test_bench_out_into_a_missing_directory(tmp_path):
    out_dir, csv_path = tmp_path / "bench", tmp_path / "new" / "sub" / "b.csv"
    assert _run(["bench", "--n-values", "4", "--t-values", "2", "--iters",
                 "3", "--out", str(csv_path),
                 "--out-dir", str(out_dir)]) == EXIT_OK
    assert csv_path.read_text().startswith("neuron_kind,")
    manifest = _read_json(out_dir / "bench-manifest.json")
    assert manifest["results"]["records"] == 2
    assert manifest["outputs"]["csv"] == str(csv_path)


def test_bench_out_that_is_a_directory_exits_2_before_a_manifest(tmp_path):
    out_dir, taken = tmp_path / "bench", tmp_path / "isdir"
    taken.mkdir()
    assert _run(["bench", "--n-values", "4", "--t-values", "2", "--iters",
                 "3", "--out", str(taken),
                 "--out-dir", str(out_dir)]) == EXIT_USAGE
    assert not (out_dir / "bench-manifest.json").exists()
    assert os.listdir(taken) == []


def test_train_replay_of_a_negative_seed_exits_2(train_run, tmp_path,
                                                  capsys):
    run = _mistyped_run(train_run, tmp_path, 0, "config.seed", -1)
    _assert_rejected_before_training(
        ["--from-manifest", str(run / "manifest.json")], tmp_path / "rerun",
        capsys, "seed must be >= 0")


def test_eval_of_a_negative_seed_exits_2(train_run, tmp_path, capsys):
    run = _mistyped_run(train_run, tmp_path, 0, "config.seed", -1)
    assert _run(["eval", str(run)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config.seed must be >= 0" in err
    assert not (run / "eval-manifest.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_refuses_to_save_non_finite_parameters(tmp_path, capsys):
    # One batch per epoch, so the loss is computed before the only update,
    # and a rate of 1e308 takes the float32 weights past the largest float.
    out_dir = tmp_path / "overflowed"
    code = _run(["train", "--epochs", "1", "--classes", "2",
                 "--samples-per-class", "8", "--batch-size", "64",
                 "--lr", "1e308", "--out-dir", str(out_dir)])
    assert code == EXIT_DIVERGENCE
    assert "refusing to save 'layer0.weight'" in capsys.readouterr().err
    assert sorted(os.listdir(out_dir)) == ["manifest.json"]
    manifest = _read_json(out_dir / "manifest.json")
    assert "layer0.weight" in manifest["results"]["error"]


def test_train_order_on_a_kind_without_one_exits_2(tmp_path, capsys):
    for kind in ("psn", "lif", "lif-no-reset"):
        _assert_rejected_before_training(
            ["--neuron", kind, "--order", "2"], tmp_path / kind, capsys,
            "--order applies only to masked-psn/spsn")


def test_train_without_order_records_the_default(tmp_path):
    # Manifests keep carrying order 2 for every kind, as before --order
    # was rejected for kinds without one, so replay reads them unchanged.
    out_dir = tmp_path / "lif"
    assert _run(["train", "--neuron", "lif", "--epochs", "1",
                 "--classes", "2", "--samples-per-class", "4",
                 "--out-dir", str(out_dir)]) == EXIT_OK
    assert _read_json(out_dir / "manifest.json")["config"]["order"] == 2


def test_train_infinite_learning_rate_exits_2(tmp_path, capsys):
    _assert_rejected_before_training(["--lr", "inf"], tmp_path / "run",
                                     capsys, "learning rate must be finite")


def test_train_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 16 x 1e14 float64 weights: numpy refuses the 11 PiB at once.
    out_dir = tmp_path / "huge"
    code = _run(["train", "--hidden", "100000000000000", "--epochs", "1",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert not (out_dir / "manifest.json").exists()


_UNINDEXABLE = 2 ** 64  # past every numpy dimension and size


@pytest.mark.parametrize("case", [
    "--hidden", "--samples-per-class", "--order", "eval", "--from-manifest",
    "--n-values", "--t-values"])
def test_sizes_numpy_cannot_index_are_out_of_memory(case, train_run,
                                                    tmp_path, capsys):
    out_dir = tmp_path / "out"
    big = str(_UNINDEXABLE)
    if case in ("--n-values", "--t-values"):
        other = "--t-values" if case == "--n-values" else "--n-values"
        assert _run(["bench", case, big, other, "2", "--iters", "3",
                     "--out-dir", str(out_dir)]) == EXIT_OK
        rows = (out_dir / "bench.csv").read_text().split()[1:]
        assert len(rows) == 2 and all(r.endswith(",skipped") for r in rows)
        return
    if case in ("eval", "--from-manifest"):
        run = _mistyped_run(train_run, tmp_path, 0, "config.hidden",
                            _UNINDEXABLE)
        if case == "eval":
            argv, written = ["eval", str(run)], run / "eval-manifest.json"
        else:
            argv = ["train", case, str(run / "manifest.json"),
                    "--out-dir", str(out_dir)]
            written = out_dir / "manifest.json"
    else:
        neuron = ["--neuron", "spsn"] if case == "--order" else []
        argv = ["train", "--epochs", "1", *neuron, case, big,
                "--out-dir", str(out_dir)]
        written = out_dir / "manifest.json"
    assert _run(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert not written.exists()


def test_other_value_errors_are_not_out_of_memory():
    from psn.errors import ContractError, oversize_as_memory_error
    for err in (ValueError("negative dimensions are not allowed"),
                ContractError("Maximum allowed dimension exceeded")):
        with pytest.raises(type(err)), oversize_as_memory_error():
            raise err


def test_eval_rejects_a_faulty_manifest(train_run, tmp_path, capsys):
    for label, run in _faulty_runs(train_run, tmp_path).items():
        assert _run(["eval", str(run)]) == EXIT_USAGE, label
        err = capsys.readouterr().err
        assert err.startswith("error: "), label
        if label == "missing-neuron":
            assert "config.neuron" in err
        assert not (run / "eval-manifest.json").exists(), label


# One field of a real manifest changed at a time: (dotted key, bad value).
# The last two have the right type but name no loss or optimizer.
_MISTYPED_FIELDS = [
    ("config.hidden", "32"), ("config.hidden", 32.0),
    ("config.order", None), ("config.epochs", True),
    ("config.seed", "4"), ("config.classes", [2]),
    ("config.samples_per_class", 12.5), ("config.batch_size", "16"),
    ("config.lr", "0.1"), ("config.lr", None), ("config.lr", False),
    ("config.neuron", 3), ("config.data", None), ("config.head", 1),
    ("config.loss", ["ce"]), ("config.optimizer", {}),
    ("config.out_dir", 7), ("results", "x"), ("results", [1]),
    ("results.final_lambda", "1.0"),
    ("config.loss", "mse"), ("config.optimizer", "rmsprop"),
]


def _mistyped_run(train_run, tmp_path, i, key, value):
    manifest = _read_json(train_run / "manifest.json")
    *parents, leaf = key.split(".")
    node = manifest
    for part in parents:
        node = node[part]
    node[leaf] = value
    run = tmp_path / f"mistyped{i}"
    run.mkdir()
    (run / "model.ckpt").write_bytes((train_run / "model.ckpt").read_bytes())
    (run / "manifest.json").write_text(json.dumps(manifest))
    return run


@pytest.mark.parametrize("command", ["eval", "train"])
def test_mistyped_manifest_values_exit_2(train_run, tmp_path, capsys,
                                         command):
    for i, (key, value) in enumerate(_MISTYPED_FIELDS):
        run = _mistyped_run(train_run, tmp_path, i, key, value)
        if command == "eval":
            argv, written = ["eval", str(run)], run / "eval-manifest.json"
        else:
            written = tmp_path / f"rerun{i}" / "manifest.json"
            argv = ["train", "--from-manifest", str(run / "manifest.json"),
                    "--out-dir", str(written.parent)]
        assert _run(argv) == EXIT_USAGE, (key, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, (key, value, err)
        assert not written.exists(), (key, value)


def test_manifest_number_fields_accept_json_ints(train_run, tmp_path):
    # JSON has no separate float: an lr written as 1 is still a number.
    run = _mistyped_run(train_run, tmp_path, 0, "config.lr", 1)
    assert _run(["eval", str(run)]) == EXIT_OK


def test_train_rejects_bad_data_spec(tmp_path):
    code = _run(["train", "--data", "idx:/nonexistent/images.idx",
                 "--epochs", "1", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_USAGE


def _idx_dir(tmp_path, labels):
    """A directory of 8x8 IDX images with the given labels."""
    import struct
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    n = len(labels)
    imgs = np.random.default_rng(0).integers(0, 255, size=(n, 8, 8),
                                             dtype=np.uint8)
    (data_dir / "images.idx").write_bytes(
        struct.pack(">IIII", 0x803, n, 8, 8) + imgs.tobytes())
    (data_dir / "labels.idx").write_bytes(
        struct.pack(">II", 0x801, n) + np.uint8(labels).tobytes())
    return data_dir


def test_train_on_idx_directory(tmp_path):
    data_dir = _idx_dir(tmp_path, np.tile([0, 1], 12))
    out_dir = tmp_path / "idx-run"
    code = _run(["train", "--data", f"idx:{data_dir}", "--neuron", "lif",
                 "--epochs", "1", "--classes", "2", "--hidden", "8",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "history.txt").exists()


def test_train_on_one_class_exits_2_before_a_manifest(tmp_path, capsys):
    data_dir = _idx_dir(tmp_path, np.zeros(8))
    _assert_rejected_before_training(["--data", f"idx:{data_dir}"],
                                     tmp_path / "run", capsys,
                                     "at least 2 classes")


# ------------------------------------------------------- mirrored literals


def test_cli_choices_mirror_the_library():
    from psn import cli, neurons, training, verify
    assert cli._NEURON_CHOICES == neurons.KINDS
    assert cli._SUITE_CHOICES == tuple(verify.SUITES)
    assert cli._HEAD_CHOICES == training.HEADS


# ----------------------------------------------------------------- verify


def test_verify_single_suite_passes(tmp_path, capsys):
    code = _run(["verify", "--suite", "mask-causality",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS mask-causality" in out
    manifest = _read_json(tmp_path / "verify-manifest.json")
    assert manifest["results"]["mask-causality"]["passed"] is True
    assert manifest["results"]["mask-causality"]["failures"] == []


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    import psn.verify as verify_mod
    from psn.verify import SuiteResult

    def broken():
        return SuiteResult(name="mask-causality", passed=False, cases=1,
                           failures=["(T=2, k=1, seed=0)"],
                           wall_time_seconds=0.0)

    monkeypatch.setitem(verify_mod.SUITES, "mask-causality", broken)
    code = _run(["verify", "--suite", "mask-causality",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_VERIFY_FAIL
    assert "FAIL mask-causality" in capsys.readouterr().out


def test_verify_unknown_suite_is_usage_error(tmp_path):
    # argparse rejects it outright: choices are the registry names.
    with pytest.raises(SystemExit) as exc:
        _run(["verify", "--suite", "everything", "--out-dir",
              str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


# ------------------------------------------------------------ process edge


def test_argparse_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "psn.cli", "bench", "--mode", "sideways"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "psn.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("bench", "train", "eval", "verify"):
        assert sub in proc.stdout


def test_package_root_imports_without_numpy():
    # Thread pinning depends on the root staying numpy-free until a
    # subcommand actually needs arrays.
    code = ("import sys, psn; "
            "sys.exit(1 if 'numpy' in sys.modules else 0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0
