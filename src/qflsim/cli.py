"""Command-line driver for dataset generation and the training experiments.

Commands:
    gen-data        write a federated dataset file
    train           one federated training run on an existing dataset
    sweep-clients   client-count series (1 centralized, 6, 12, 18, 24, 30)
    sweep-datasize  per-client dataset-size series, federated vs centralized
    compare-iid     same run on an IID and a half-truncated-normal dataset
    error-bars      repeat one run across seeds, report spread

Every command appends line-delimited JSON rows to its --out file (see
qflsim.metrics) and is fully determined by its flags and seeds, apart
from wall_time. Every row of a training run carries the run's settings
(optimizer, lr, train_clients, test_clients, rounds, epochs, batch_size)
next to the values of its command's series. Every command checks its
whole series before its first run, so a bad flag value exits 2 without
writing a row. Exit codes: 0 success, 2 configuration error, 3 I/O or
dataset-format error, 4 training error.
"""

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from . import metrics
from .datagen import GenConfig, generate_federated_dataset
from .errors import ConfigError, DatasetFormatError, QflError
from .federated import OPTIMIZER_KINDS, OptimizerConfig, TrainConfig, run_training
from .model import ArchitectureSpec, build_architecture
from .store import read_dataset, write_dataset

CLIENT_SWEEP_SPLITS = ((6, 4, 2), (12, 9, 3), (18, 14, 4), (24, 19, 5),
                       (30, 25, 5))
DEFAULT_DATASIZES = (40, 80, 160, 320)

# Seed-derivation namespace for per-sweep-point datasets.
_DERIVE_NS = 2


def _derived_seed(base_seed: int, *keys: int) -> int:
    ss = np.random.SeedSequence([int(base_seed), _DERIVE_NS, *map(int, keys)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _int_list(minimum: int):
    """argparse type of a comma-joined list of distinct integers >=
    ``minimum``; a repeated value would run the same experiment twice."""
    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(item) for item in text.split(","))
        except ValueError:
            values = ()
        if not values or min(values) < minimum or len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(
                f"expected comma-joined distinct integers >= {minimum}, got {text!r}")
        return values
    return parse


def _add_gen_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--clients", type=int, default=30)
    parser.add_argument("--samples-per-client", type=int, default=GenConfig.samples_per_client)
    parser.add_argument("--qubits", type=int, default=GenConfig.n_qubits)
    parser.add_argument("--sigma", type=float,
                        default=GenConfig.trunc_normal_sigma,
                        help="truncated-normal sigma in radians")
    parser.add_argument("--threshold", type=float,
                        default=GenConfig.excitation_threshold,
                        help="excitation threshold in radians")


def _add_split_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--train-clients", type=int, default=25)
    parser.add_argument("--test-clients", type=int, default=5)


def add_local_training_flags(parser: argparse.ArgumentParser):
    """Client optimizer and batching flags, shared by the experiment
    commands and ``qflsim.worker``; train_config turns them into a
    TrainConfig."""
    parser.add_argument("--optimizer", default=OptimizerConfig.kind, choices=OPTIMIZER_KINDS)
    parser.add_argument("--lr", type=float, default=OptimizerConfig.learning_rate)
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    parser.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)


def _add_train_flags(parser: argparse.ArgumentParser):
    add_local_training_flags(parser)
    parser.add_argument("--rounds", type=int, default=30)


def add_architecture_flags(parser: argparse.ArgumentParser):
    """Model architecture flags, shared by ``train`` and ``qflsim.worker``;
    architecture_from_flags turns them into an ArchitectureSpec."""
    parser.add_argument("--stages", type=int, default=None)
    parser.add_argument("--readout-qubit", type=int, default=None)
    parser.add_argument("--fc", action="store_true",
                        help="append the 3-parameter fully connected layer")


def architecture_from_flags(args, n_qubits: int) -> ArchitectureSpec:
    """The architecture the flags of add_architecture_flags select."""
    return build_architecture(n_qubits, args.stages, args.readout_qubit,
                              include_fc=args.fc)


def _gen_config(args, samples=None, seed=None) -> GenConfig:
    return GenConfig(
        n_clients=args.clients,
        n_qubits=args.qubits,
        samples_per_client=samples if samples is not None else args.samples_per_client,
        trunc_normal_sigma=args.sigma,
        excitation_threshold=args.threshold,
        seed=seed if seed is not None else args.seed,
    )


def train_config(args, rounds: int, train_ids, test_ids, seed: int,
                 **extra) -> TrainConfig:
    """A TrainConfig with the local-training flags of ``args`` (see
    add_local_training_flags); ``extra`` sets further TrainConfig fields."""
    return TrainConfig(
        rounds=rounds, train_clients=train_ids, test_clients=test_ids,
        epochs=args.epochs, batch_size=args.batch_size,
        opt=OptimizerConfig(kind=args.optimizer, learning_rate=args.lr),
        seed=seed, **extra,
    )


def _split_ids(ids, n_train: int, n_test: int) -> tuple[tuple, tuple]:
    """The first ``n_train`` and the last ``n_test`` of the client ids ``ids``."""
    if n_train < 1 or n_test < 1:
        raise ConfigError("need at least one training and one testing client")
    if n_train + n_test > len(ids):
        raise ConfigError(
            f"split {n_train}/{n_test} needs more clients than the dataset "
            f"has ({len(ids)})"
        )
    return ids[:n_train], ids[len(ids) - n_test:]


def _settings(cfg: TrainConfig) -> dict:
    """The settings of a run that every one of its rows carries."""
    return {"optimizer": cfg.opt.kind, "lr": cfg.opt.learning_rate,
            "train_clients": len(cfg.train_clients),
            "test_clients": len(cfg.test_clients), "rounds": cfg.rounds,
            "epochs": cfg.epochs, "batch_size": cfg.batch_size}


def _run_experiment(dataset, cfg: TrainConfig, out_path, experiment: str, /,
                    mse_x100: bool = False, **series):
    """One training run: a round row per record, then a summary row, each
    with the run's settings and the ``series`` values that place it in its
    command's series (the leading parameters are positional-only, so a
    series field may be named ``dataset``). Returns the final record."""
    context = {**_settings(cfg), **series}
    t0 = time.perf_counter()

    def on_round(record, _server):
        row = {
            "kind": "round",
            "experiment": experiment,
            "seed": cfg.seed,
            "round": record.round,
            "test_accuracy": record.test_accuracy,
            "test_mse": record.test_mse,
            "wall_time": time.perf_counter() - t0,
        }
        if record.train_accuracy is not None:
            row["train_accuracy"] = record.train_accuracy
            row["train_mse"] = record.train_mse
        metrics.append_rows(out_path, [{**row, **context}])

    final = run_training(dataset, cfg, on_round=on_round)[-1]
    row = {
        "kind": "summary", "experiment": experiment, "seed": cfg.seed,
        "final_test_accuracy": final.test_accuracy,
        "final_test_mse": final.test_mse,
    }
    if mse_x100:
        row["final_test_mse_x100"] = 100.0 * final.test_mse
    row["wall_time"] = time.perf_counter() - t0
    metrics.append_rows(out_path, [{**row, **context}])
    return final


def cmd_gen_data(args) -> int:
    config = _gen_config(args)
    dataset = generate_federated_dataset(config, args.non_iid_fraction)
    info = write_dataset(dataset, args.out)
    n_samples = sum(info.sample_counts)
    n_excited = sum(
        s.label for client in dataset.clients for s in client.samples
    )
    balance = n_excited / n_samples if n_samples else 0.0
    print(f"wrote {args.out}: {info.n_clients} clients x "
          f"{config.samples_per_client} samples, "
          f"label balance {balance:.3f}, checksum {info.checksum}")
    return 0


def cmd_train(args) -> int:
    dataset = read_dataset(args.dataset)
    train_ids, test_ids = _split_ids(dataset.client_ids(), args.train_clients,
                                     args.test_clients)
    arch = architecture_from_flags(args, dataset.gen_config.n_qubits)
    cfg = train_config(args, args.rounds, train_ids, test_ids, args.seed, arch=arch)
    experiment = (f"train-seed{args.seed}-{args.optimizer}-lr{args.lr:g}"
                  f"-r{args.rounds}")
    final = _run_experiment(dataset, cfg, args.out, experiment)
    print(f"final round={final.round} test_accuracy={final.test_accuracy:.4f} "
          f"test_mse={final.test_mse:.6f}")
    return 0


def cmd_sweep_clients(args) -> int:
    dataset = read_dataset(args.dataset)
    ids = dataset.client_ids()
    # Client count k trains the first clients and tests clients k - n_test
    # to k - 1. The centralized point (k = 1) trains the largest split's
    # first training client on that split's test clients.
    points = {total: _split_ids(ids[:total], n_train, n_test)
              for total, n_train, n_test in CLIENT_SWEEP_SPLITS}
    train_ids, test_ids = points[max(points)]
    points = {1: (train_ids[:1], test_ids), **points}
    experiment = f"sweep-clients-seed{args.seed}-{args.optimizer}-lr{args.lr:g}"
    for total, (train_ids, test_ids) in points.items():
        cfg = train_config(args, args.rounds, train_ids, test_ids, args.seed)
        final = _run_experiment(dataset, cfg, args.out, experiment,
                                n_clients=total, centralized=total == 1)
        print(f"clients={total:2d} train={len(train_ids):2d} "
              f"test={len(test_ids)} final_accuracy={final.test_accuracy:.4f}")
    return 0


def cmd_sweep_datasize(args) -> int:
    # GenConfig checks the base seed before each size's seed derives from it.
    configs = {size: _gen_config(args, samples=size) for size in args.sizes}
    configs = {size: replace(config, seed=_derived_seed(config.seed, size))
               for size, config in configs.items()}
    experiment = f"sweep-datasize-seed{args.seed}-{args.optimizer}-lr{args.lr:g}"
    for size, config in configs.items():
        dataset = generate_federated_dataset(config)
        train_ids, test_ids = _split_ids(dataset.client_ids(),
                                         args.train_clients, args.test_clients)
        for centralized in (False, True):
            cfg = train_config(args, args.rounds,
                               train_ids[:1] if centralized else train_ids,
                               test_ids, config.seed)
            final = _run_experiment(dataset, cfg, args.out, experiment,
                                    samples_per_client=size,
                                    centralized=centralized)
            mode = "centralized" if centralized else "federated"
            print(f"size={size:4d} {mode:11s} "
                  f"final_accuracy={final.test_accuracy:.4f}")
    return 0


def cmd_compare_iid(args) -> int:
    config = _gen_config(args)
    datasets = {tag: (fraction, generate_federated_dataset(config, fraction))
                for tag, fraction in (("iid", 0.0),
                                      ("non_iid", args.non_iid_fraction))}
    experiment = f"compare-iid-seed{args.seed}-{args.optimizer}-lr{args.lr:g}"
    for tag, (fraction, dataset) in datasets.items():
        train_ids, test_ids = _split_ids(dataset.client_ids(),
                                         args.train_clients, args.test_clients)
        cfg = train_config(args, args.rounds, train_ids, test_ids, args.seed)
        final = _run_experiment(dataset, cfg, args.out, experiment,
                                mse_x100=True, dataset=tag,
                                non_iid_fraction=fraction)
        print(f"{tag:8s} accuracy={final.test_accuracy:.4f} "
              f"mse={final.test_mse:.6f} mse_x100={100 * final.test_mse:.3f}")
    return 0


def cmd_error_bars(args) -> int:
    if len(args.seeds) < 3:
        raise ConfigError(f"need at least 3 seeds, got {len(args.seeds)}")
    experiment = f"error-bars-{args.optimizer}-lr{args.lr:g}"
    finals = []
    t0 = time.perf_counter()
    for seed in args.seeds:
        dataset = generate_federated_dataset(_gen_config(args, seed=seed))
        train_ids, test_ids = _split_ids(dataset.client_ids(),
                                         args.train_clients, args.test_clients)
        cfg = train_config(args, args.rounds, train_ids, test_ids, seed,
                           eval_train=True)
        final = _run_experiment(dataset, cfg, args.out, experiment)
        finals.append(final)
        print(f"seed={seed} test_accuracy={final.test_accuracy:.4f} "
              f"train_accuracy={final.train_accuracy:.4f}")
    aggregate = {"kind": "summary", "experiment": experiment,
                 "wall_time": time.perf_counter() - t0, **_settings(cfg)}
    for name, (field, statistic) in metrics.AGGREGATES.items():
        aggregate[name] = float(statistic([getattr(r, field) for r in finals]))
    metrics.append_rows(args.out, [aggregate])
    print(f"test_accuracy spread={aggregate['test_accuracy_spread']:.4f} "
          f"(mean {aggregate['test_accuracy_mean']:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qflsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a federated dataset file")
    _add_gen_flags(p)
    p.add_argument("--non-iid-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="dataset.qfd")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="one federated training run")
    p.add_argument("--dataset", required=True)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=42)
    _add_split_flags(p)
    add_architecture_flags(p)
    p.add_argument("--out", default="train_metrics.jsonl")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep-clients", help="client-count series")
    p.add_argument("--dataset", required=True)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="sweep_clients_metrics.jsonl")
    p.set_defaults(func=cmd_sweep_clients)

    p = sub.add_parser("sweep-datasize", help="dataset-size series")
    _add_gen_flags(p)
    _add_train_flags(p)
    p.add_argument("--sizes", type=_int_list(1), default=DEFAULT_DATASIZES)
    p.add_argument("--seed", type=int, default=42)
    _add_split_flags(p)
    p.add_argument("--out", default="sweep_datasize_metrics.jsonl")
    p.set_defaults(func=cmd_sweep_datasize)

    p = sub.add_parser("compare-iid", help="IID vs non-IID comparison")
    _add_gen_flags(p)
    _add_train_flags(p)
    p.add_argument("--non-iid-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=42)
    _add_split_flags(p)
    p.add_argument("--out", default="compare_iid_metrics.jsonl")
    p.set_defaults(func=cmd_compare_iid)

    p = sub.add_parser("error-bars", help="repeat one run across seeds")
    _add_gen_flags(p)
    _add_train_flags(p)
    p.add_argument("--seeds", type=_int_list(0), default=(1, 2, 3, 4, 5))
    _add_split_flags(p)
    p.add_argument("--out", default="error_bars_metrics.jsonl")
    p.set_defaults(func=cmd_error_bars)

    return parser


def run_command(func, args) -> int:
    """``func(args)``, with a package or I/O error reported on stderr and
    mapped to its exit code: 2 configuration, 3 I/O or dataset format,
    4 training."""
    try:
        return func(args)
    except (QflError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return 2
        if isinstance(exc, (DatasetFormatError, OSError)):
            return 3
        return 4


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run_command(args.func, args)


if __name__ == "__main__":
    raise SystemExit(main())
