"""The ``psn`` command: bench, train, eval, and verify.

Exit codes are part of the interface and stay stable: 0 success, 1 a
verification suite failed, 2 a usage or input error (a size too large to
allocate included), 3 training diverged.

Every run checks its inputs, writes a JSON manifest before the main work,
then rewrites it on completion with the end timestamp and summary results;
an input error (exit 2) leaves no manifest behind. A training run can be
replayed bit-exactly (history file included, timing excluded) with
``psn train --from-manifest <path>``, which takes every setting from the
manifest rather than the flags.

Only the standard library is imported at module scope: ``--threads`` (or the
PSN_THREADS env var) has to land in the BLAS environment variables before
numpy first loads, so all numeric imports happen inside the command bodies.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from .atomic import write_atomic

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3

# Mirrored literals: argparse choices must be known before the numeric
# modules may be imported. The library validates again downstream.
_NEURON_CHOICES = ("psn", "masked-psn", "spsn", "if", "lif",
                   "if-no-reset", "lif-no-reset")
_SUITE_CHOICES = ("serial-parallel", "psn-subsumption", "mask-causality",
                  "conv-vs-matmul", "grad")
_HEAD_CHOICES = ("time-averaged", "per-step")
_LOSS_CHOICES = ("ce", "tet")
_OPTIMIZER_CHOICES = ("adam", "sgd")

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _openblas():
    """(effective thread count, build string) of numpy's bundled OpenBLAS.

    Read through ctypes from the 64-bit-integer scipy-openblas library that
    numpy wheels ship in ``numpy.libs``; (None, None) when there is none.
    The count is what the library runs with, whatever ``--threads`` asked.
    """
    import ctypes
    import glob

    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    paths = sorted(glob.glob(os.path.join(site, "numpy.libs",
                                          "*openblas*.so*")))
    if not paths:
        return None, None
    try:
        lib = ctypes.CDLL(paths[0])
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_config = lib.scipy_openblas_get_config64_
    except (OSError, AttributeError):
        return None, None
    get_threads.argtypes = get_config.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config.restype = ctypes.c_char_p
    return int(get_threads()), get_config().decode()


class Manifest:
    """Run description written before work starts, completed afterwards.

    ``threads`` echoes the requested cap; ``blas_threads_effective`` and
    ``blas_build`` record what numpy's OpenBLAS actually runs with.
    """

    def __init__(self, path, command, config, seed, threads):
        from . import __version__

        blas_threads, blas_build = _openblas()
        self.path = path
        self.body = {
            "command": command,
            "version": __version__,
            "seed": seed,
            "threads": threads,
            "blas_threads_effective": blas_threads,
            "blas_build": blas_build,
            "config": config,
            "start_time": _now(),
            "end_time": None,
            "outputs": {},
            "results": None,
        }

    def write(self):
        write_atomic(self.path,
                     json.dumps(self.body, indent=2, sort_keys=True) + "\n")

    def finish(self, results=None):
        self.body["end_time"] = _now()
        if results is not None:
            self.body["results"] = results
        self.write()


def _parse_int_list(text, flag):
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise SystemExit(_usage_error(f"{flag} expects comma-separated "
                                      f"integers, got {text!r}"))


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psn",
        description="Spiking-neuron kernels: benchmarks, toy training, "
                    "and self-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument("--threads", type=int, default=None,
                       help="cap kernel-internal threads (default: "
                            "PSN_THREADS env var, else leave unset)")

    b = sub.add_parser("bench", help="time neuron kinds over an (N, T) grid")
    b.add_argument("--mode", choices=("inference", "training"),
                   default="inference")
    b.add_argument("--kinds", default="lif,psn",
                   help="comma-separated neuron kinds (default lif,psn)")
    b.add_argument("--n-values", default="256,4096,65536,1048576")
    b.add_argument("--t-values", default="2,4,8,16,32,64")
    b.add_argument("--warmup", type=int, default=1)
    b.add_argument("--iters", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--memory", action="store_true",
                   help="also run the tracked-allocation probe")
    b.add_argument("--out", default=None,
                   help="CSV path (default <out-dir>/bench.csv)")
    b.add_argument("--out-dir", default=".")
    add_threads(b)
    b.set_defaults(func=cmd_bench)

    t = sub.add_parser("train", help="train a sequence classifier")
    t.add_argument("--neuron", choices=_NEURON_CHOICES, default="psn")
    t.add_argument("--order", type=int, default=None,
                   help="history window for masked-psn / spsn (default "
                        "2); an error for any other kind")
    t.add_argument("--epochs", type=int, default=50)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--data", default="toy",
                   help="'toy', or idx:<images>,<labels> files, or "
                        "idx:<dir> containing images.idx and labels.idx")
    t.add_argument("--classes", type=int, default=4,
                   help="toy data only")
    t.add_argument("--samples-per-class", type=int, default=500,
                   help="toy data only")
    t.add_argument("--hidden", type=int, default=32)
    t.add_argument("--head", choices=_HEAD_CHOICES, default="time-averaged")
    t.add_argument("--loss", choices=_LOSS_CHOICES, default="ce")
    t.add_argument("--optimizer", choices=_OPTIMIZER_CHOICES, default="adam")
    t.add_argument("--lr", type=float, default=2e-3)
    t.add_argument("--batch-size", type=int, default=64)
    t.add_argument("--out-dir", default=None,
                   help="default runs/train-<neuron>-s<seed>")
    t.add_argument("--from-manifest", default=None,
                   help="replay a previous run's manifest bit-exactly")
    add_threads(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a finished training run")
    e.add_argument("run_dir")
    e.add_argument("--split", choices=("test", "train"), default="test")
    add_threads(e)
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run the self-check suites")
    v.add_argument("--suite", action="append", choices=_SUITE_CHOICES,
                   default=None,
                   help="run one suite (repeatable; default: all)")
    v.add_argument("--out-dir", default=".")
    add_threads(v)
    v.set_defaults(func=cmd_verify)

    return parser


# -- bench -----------------------------------------------------------------

def cmd_bench(args):
    from .bench import (BenchConfig, grid_table, measure_memory,
                        memory_summary, run_bench, to_csv)

    cfg = BenchConfig(
        neuron_kinds=tuple(args.kinds.split(",")),
        n_values=_parse_int_list(args.n_values, "--n-values"),
        t_values=_parse_int_list(args.t_values, "--t-values"),
        mode=args.mode,
        warmup_iters=args.warmup,
        measured_iters=args.iters,
        seed=args.seed,
        threads=args.resolved_threads)

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = args.out or os.path.join(args.out_dir, "bench.csv")
    manifest = Manifest(
        os.path.join(args.out_dir, "bench-manifest.json"), "bench",
        config={"mode": cfg.mode, "kinds": list(cfg.neuron_kinds),
                "n_values": list(cfg.n_values),
                "t_values": list(cfg.t_values),
                "warmup_iters": cfg.warmup_iters,
                "measured_iters": cfg.measured_iters,
                "memory": args.memory},
        seed=cfg.seed, threads=cfg.threads)
    manifest.body["outputs"]["csv"] = os.path.abspath(csv_path)
    manifest.write()

    records = run_bench(cfg)
    write_atomic(csv_path, to_csv(records))
    print(grid_table(records))
    print(f"wrote {len(records)} records to {csv_path}")

    results = {"records": len(records),
               "skipped": sum(r.status == "skipped" for r in records),
               "minor_faults": [
                   {"neuron_kind": r.neuron_kind, "N": r.N, "T": r.T,
                    "minor_faults": r.minor_faults} for r in records]}
    if args.memory:
        probes = measure_memory()
        m_no, m_if, m_psn, ratio = memory_summary(probes)
        real = {r.configuration: r.peak_tracemalloc_bytes for r in probes}
        print(f"tracked peak bytes: no_neuron={m_no} if_neuron={m_if} "
              f"psn={m_psn}  excess ratio={ratio:.2f}")
        print("tracemalloc peak bytes: " + " ".join(
            f"{name}={peak}" for name, peak in real.items()))
        results["memory"] = {"no_neuron": m_no, "if_neuron": m_if,
                             "psn": m_psn, "ratio": ratio,
                             "tracemalloc_peak": real}
    manifest.finish(results)
    return EXIT_OK


# -- train -----------------------------------------------------------------

def _load_data(config):
    """(train_batch, test_batch, num_classes) for a config's data field."""
    from .data import load_idx_pair, synth_toy_dataset
    from .errors import ContractError

    source = config["data"]
    if source == "toy":
        train, test = synth_toy_dataset(config["classes"],
                                        config["samples_per_class"],
                                        config["seed"])
        return train, test, config["classes"]
    if source.startswith("idx:"):
        rest = source[len("idx:"):]
        if "," in rest:
            image_path, label_path = rest.split(",", 1)
        elif os.path.isdir(rest):
            image_path = os.path.join(rest, "images.idx")
            label_path = os.path.join(rest, "labels.idx")
        else:
            raise ContractError(
                f"--data idx: expects '<images>,<labels>' or a directory, "
                f"got {rest!r}")
        batch = load_idx_pair(image_path, label_path)
        # No held-out split is defined for external files; metrics labeled
        # "test" are then on the training data.
        return batch, batch, int(batch.labels.max()) + 1
    raise ContractError(f"unknown data source {source!r}")


def _build_model(config, data_batch, num_classes):
    from .neurons import ORDER_KINDS
    from .training import Model, ModelSpec

    kind = config["neuron"]
    opts = {"order": config["order"]} if kind in ORDER_KINDS else {}
    spec = ModelSpec(
        layers=(("linear", data_batch.num_channels, config["hidden"]),
                ("neuron", kind, opts),
                ("linear", config["hidden"], num_classes)),
        head=config["head"],
        seed=config["seed"],
        num_steps=data_batch.num_steps)
    return Model(spec, num_channels=data_batch.num_channels)


# Every config value a training manifest carries, with the JSON type it
# must have: reading one back must fail as a bad input, not deep in a
# constructor.
_TRAIN_CONFIG_TYPES = {
    "neuron": str, "order": int, "epochs": int, "seed": int, "data": str,
    "classes": int, "samples_per_class": int, "hidden": int, "head": str,
    "loss": str, "optimizer": str, "lr": float, "batch_size": int,
}
_TRAIN_CONFIG_KEYS = tuple(_TRAIN_CONFIG_TYPES)
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


def _json_is(value, kind):
    """Whether a decoded JSON value is a ``kind``; a number may be an int."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _read_train_manifest(path):
    """A training run's (config, results), every value's type checked."""
    from .errors import ContractError, ParseError

    with open(path) as f:
        try:
            run = json.load(f)
        except ValueError as err:
            raise ParseError(f"{path} is not a JSON manifest: {err}")
    if not isinstance(run, dict) or run.get("command") != "train":
        raise ContractError(f"{path} does not describe a training run")
    config = run.get("config")
    if not isinstance(config, dict):
        raise ContractError(f"{path} has no config object")
    for key, kind in (*_TRAIN_CONFIG_TYPES.items(), ("out_dir", str)):
        if key not in config:
            raise ContractError(f"{path} is missing config.{key}")
        if not _json_is(config[key], kind):
            raise ContractError(
                f"{path}: config.{key} must be {_TYPE_NAMES[kind]}, got "
                f"{config[key]!r}")
    if config["seed"] < 0:
        raise ContractError(f"{path}: config.seed must be >= 0, got "
                            f"{config['seed']}")
    # cmd_train maps these two through dicts; the library checks the rest.
    for key, choices in (("loss", _LOSS_CHOICES),
                         ("optimizer", _OPTIMIZER_CHOICES)):
        if config[key] not in choices:
            raise ContractError(f"{path}: config.{key} must be one of "
                                f"{choices}, got {config[key]!r}")
    results = run.get("results")
    if results is None:
        results = {}
    if not isinstance(results, dict):
        raise ContractError(f"{path}: results must be an object, got "
                            f"{results!r}")
    lam = results.get("final_lambda")
    if lam is not None and not _json_is(lam, float):
        raise ContractError(f"{path}: results.final_lambda must be a "
                            f"number, got {lam!r}")
    return config, results


def _train_config_from_args(args):
    from .errors import ContractError
    from .neurons import ORDER_KINDS

    if args.from_manifest:
        source, _ = _read_train_manifest(args.from_manifest)
        config = {key: source[key] for key in _TRAIN_CONFIG_KEYS}
        out_dir = args.out_dir or source["out_dir"] + "-rerun"
    else:
        config = {key: getattr(args, key) for key in _TRAIN_CONFIG_KEYS}
        if config["order"] is None:
            config["order"] = 2
        elif args.neuron not in ORDER_KINDS:
            raise ContractError(f"--order applies only to "
                                f"{'/'.join(ORDER_KINDS)}, not {args.neuron}")
        out_dir = args.out_dir or os.path.join(
            "runs", f"train-{args.neuron}-s{args.seed}")
    config["out_dir"] = out_dir
    return config


def cmd_train(args):
    from .checkpoint import save_checkpoint
    from .errors import DivergenceError
    from .training import TrainConfig, train

    config = _train_config_from_args(args)
    # Validate, load and build before anything is written, so a rejected
    # config leaves no half-finished manifest behind.
    cfg = TrainConfig(
        epochs=config["epochs"],
        batch_size=config["batch_size"],
        learning_rate=config["lr"],
        optimizer_kind={"adam": "adam_like",
                        "sgd": "sgd_momentum"}[config["optimizer"]],
        loss_kind={"ce": "ce_mean_output", "tet": "tet"}[config["loss"]],
        seed=config["seed"])
    train_batch, test_batch, num_classes = _load_data(config)
    model = _build_model(config, train_batch, num_classes)
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    history_path = os.path.join(out_dir, "history.txt")
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    manifest = Manifest(os.path.join(out_dir, "manifest.json"), "train",
                        config=config, seed=config["seed"],
                        threads=args.resolved_threads)
    manifest.body["outputs"] = {"history": os.path.abspath(history_path),
                                "checkpoint": os.path.abspath(ckpt_path)}
    manifest.write()

    try:
        history = train(model, train_batch, test_batch, cfg)
        save_checkpoint(ckpt_path, model.state_dict())
    except DivergenceError as err:
        manifest.finish({"error": str(err)})
        raise
    history.write(history_path)

    def last(split, metric):
        series = history.series(split, metric)
        return series[-1][1] if series else None

    results = {
        "final_train_accuracy": last("train", "accuracy"),
        "final_test_accuracy": last("test", "accuracy"),
        "final_lambda": model.masked_lambda(),
        "epochs": config["epochs"],
        "epoch_seconds": history.epoch_seconds,
    }
    manifest.finish(results)
    print(f"train accuracy {results['final_train_accuracy']:.4f}  "
          f"test accuracy {results['final_test_accuracy']:.4f}")
    print(f"run written to {out_dir}")
    return EXIT_OK


# -- eval ------------------------------------------------------------------

def cmd_eval(args):
    from .checkpoint import load_checkpoint
    from .training import evaluate

    config, results = _read_train_manifest(
        os.path.join(args.run_dir, "manifest.json"))
    train_batch, test_batch, num_classes = _load_data(config)
    model = _build_model(config, train_batch, num_classes)
    model.load_state_dict(
        load_checkpoint(os.path.join(args.run_dir, "model.ckpt")))
    if results.get("final_lambda") is not None:
        model.set_masked_lambda(results["final_lambda"])

    eval_manifest = Manifest(
        os.path.join(args.run_dir, "eval-manifest.json"), "eval",
        config={"run_dir": os.path.abspath(args.run_dir),
                "split": args.split},
        seed=config["seed"], threads=args.resolved_threads)
    eval_manifest.write()

    batch = test_batch if args.split == "test" else train_batch
    accuracy, rates = evaluate(model, batch)
    print(f"{args.split} accuracy {accuracy:.4f} over {len(batch)} samples")
    for i, rate in enumerate(rates):
        print(f"neuron layer {i} firing rate {rate:.4f}")
    eval_manifest.finish({"accuracy": accuracy, "firing_rates": rates,
                          "samples": len(batch)})
    return EXIT_OK


# -- verify ----------------------------------------------------------------

def cmd_verify(args):
    from .verify import run_suites

    names = args.suite
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = Manifest(
        os.path.join(args.out_dir, "verify-manifest.json"), "verify",
        config={"suites": list(names) if names else list(_SUITE_CHOICES)},
        seed=None, threads=args.resolved_threads)
    manifest.write()

    results = run_suites(names)
    for result in results:
        print(result.line())
    manifest.finish({r.name: {"passed": r.passed, "cases": r.cases,
                              "failures": r.failures}
                     for r in results})
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def _resolve_threads(args):
    if args.threads is not None:
        if args.threads < 1:
            raise SystemExit(_usage_error("--threads must be >= 1"))
        return args.threads
    env = os.environ.get("PSN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SystemExit(_usage_error(
                f"PSN_THREADS must be an integer, got {env!r}"))
    return None


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.resolved_threads = _resolve_threads(args)
    if args.resolved_threads is not None:
        # Must precede the first numpy import anywhere in the process.
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.resolved_threads)

    from .errors import (ContractError, DivergenceError, ParseError,
                         oversize_as_memory_error)
    try:
        with oversize_as_memory_error():
            return args.func(args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ContractError, ParseError) as err:
        return _usage_error(str(err))
    except OSError as err:
        return _usage_error(str(err))
    except MemoryError as err:
        return _usage_error(f"out of memory: {err}")


if __name__ == "__main__":
    sys.exit(main())
