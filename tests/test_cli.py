"""End-to-end command-line coverage on tiny datasets."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from qflsim import cli, metrics
from qflsim.cli import main
from qflsim.datagen import GenConfig
from qflsim.federated import OptimizerConfig, TrainConfig, run_training
from qflsim.metrics import MetricsSchemaError, read_metrics, validate_row
from qflsim.store import checksum_bytes, read_dataset

TINY = ["--clients", "6", "--samples-per-client", "8", "--qubits", "2"]
FAST_TRAIN = ["--rounds", "1", "--batch-size", "4", "--epochs", "1"]
# Run settings unlike every default, and the row values they should give.
SETTINGS = ["--optimizer", "rmsprop", "--lr", "0.05", "--rounds", "2",
            "--epochs", "2", "--batch-size", "4"]
SETTING_VALUES = {"optimizer": "rmsprop", "lr": 0.05, "rounds": 2, "epochs": 2,
                  "batch_size": 4}
SPLIT = ["--train-clients", "3", "--test-clients", "2"]


def _gen(tmp_path, name="data.qfd", extra=()):
    path = tmp_path / name
    assert main(["gen-data", *TINY, "--seed", "5", "--out", str(path),
                 *extra]) == 0
    return path


class TestGenData:
    def test_writes_dataset_and_summary(self, tmp_path, capsys):
        path = _gen(tmp_path)
        out = capsys.readouterr().out
        ds = read_dataset(path)
        assert len(ds.clients) == 6
        labels = [s.label for c in ds.clients for s in c.samples]
        assert "6 clients" in out
        assert f"label balance {sum(labels) / len(labels):.3f}," in out

    def test_same_seed_same_bytes(self, tmp_path):
        a = _gen(tmp_path, "a.qfd")
        b = _gen(tmp_path, "b.qfd")
        assert a.read_bytes() == b.read_bytes()

    def test_non_iid_fraction(self, tmp_path):
        path = _gen(tmp_path, extra=("--non-iid-fraction", "0.5"))
        ds = read_dataset(path)
        tags = [c.distribution_tag.value for c in ds.clients]
        assert tags[:3] == ["truncated_normal"] * 3

    def test_defaults_are_gen_configs(self, tmp_path):
        # Without --qubits, --samples-per-client, --sigma or --threshold
        # the file's gen_config line holds GenConfig's own defaults; a
        # train run on it without the local-training flags runs with
        # those of OptimizerConfig and TrainConfig.
        path = tmp_path / "data.qfd"
        assert main(["gen-data", "--clients", "2", "--out", str(path)]) == 0
        defaults = {f.name: f.default for f in dataclasses.fields(GenConfig)}
        header = next(line for line in path.read_text().splitlines()
                      if line.startswith("gen_config "))
        values = dict(token.split("=") for token in header.split()[1:])
        for name in ("n_qubits", "samples_per_client", "trunc_normal_sigma",
                     "excitation_threshold"):
            assert type(defaults[name])(values[name]) == defaults[name]
        out = tmp_path / "m.jsonl"
        assert main(["train", "--dataset", str(path), "--rounds", "0",
                     "--train-clients", "1", "--test-clients", "1",
                     "--out", str(out)]) == 0
        opt = {f.name: f.default for f in dataclasses.fields(OptimizerConfig)}
        run = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        for row in read_metrics(out):
            assert (row["optimizer"], row["lr"], row["epochs"], row["batch_size"]) == \
                (opt["kind"], opt["learning_rate"], run["epochs"], run["batch_size"])

    def test_bad_sample_count_exits_2(self, tmp_path, capsys):
        # Also a non-finite sigma, which would keep the truncated-normal
        # draw from ever accepting, and a bad client or qubit count.
        sigma = "trunc_normal_sigma must be positive and finite"
        for bad, message in (
                (["--samples-per-client", "7"],
                 "samples_per_client (7) must be divisible by n_qubits (2)"),
                (["--samples-per-client", "-8"],
                 "samples_per_client must be >= 0, got -8"),
                (["--samples-per-client", "8", "--sigma", "nan",
                  "--non-iid-fraction", "1"], sigma),
                (["--samples-per-client", "8", "--sigma", "inf",
                  "--non-iid-fraction", "1"], sigma),
                (["--clients", "-1"], "n_clients must be >= 0, got -1"),
                (["--qubits", "1"], "n_qubits must be >= 2, got 1")):
            code = main(["gen-data", "--clients", "2", "--qubits", "2", *bad,
                         "--out", str(tmp_path / "x.qfd")])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "x.qfd").exists()


class TestDefaults:
    # The paper's setting, which README's commands spell out: 30 clients,
    # 25 of them training and 5 testing, 30 rounds, seed 42, the sizes
    # 40-320 and the seeds 1-5.
    DATASET = ("--dataset", "d.qfd")
    EXPECTED = {
        "gen-data": {"clients": 30, "seed": 42, "non_iid_fraction": 0.0},
        "train": {"rounds": 30, "seed": 42, "train_clients": 25, "test_clients": 5},
        "sweep-clients": {"rounds": 30, "seed": 42},
        "sweep-datasize": {"clients": 30, "rounds": 30, "seed": 42,
                           "sizes": (40, 80, 160, 320), "train_clients": 25,
                           "test_clients": 5},
        "compare-iid": {"clients": 30, "rounds": 30, "seed": 42,
                        "non_iid_fraction": 0.5},
        "error-bars": {"clients": 30, "rounds": 30, "seeds": (1, 2, 3, 4, 5),
                       "train_clients": 25, "test_clients": 5},
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_documented_defaults(self, command):
        extra = self.DATASET if command in ("train", "sweep-clients") else ()
        args = vars(cli.build_parser().parse_args([command, *extra]))
        assert {key: args[key] for key in self.EXPECTED[command]} == \
            self.EXPECTED[command]

    def test_lists_take_their_lower_bound(self):
        # Seed 0 is a seed; a size must be at least 1, and the refusal
        # names that bound.
        parser = cli.build_parser()
        assert parser.parse_args(["error-bars", "--seeds", "0,1,2"]).seeds == (0, 1, 2)
        assert parser.parse_args(["sweep-datasize", "--sizes", "1"]).sizes == (1,)
        with pytest.raises(argparse.ArgumentTypeError, match=">= 1, got '0'"):
            cli._int_list(1)("0")

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out


class TestTrain:
    def test_metrics_rows_and_summary(self, tmp_path, capsys):
        data = _gen(tmp_path)
        out = tmp_path / "m.jsonl"
        code = main(["train", "--dataset", str(data), *FAST_TRAIN,
                     "--train-clients", "4", "--test-clients", "2",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert "final round=1" in capsys.readouterr().out
        rows = read_metrics(out)
        kinds = [r["kind"] for r in rows]
        assert kinds == ["round", "round", "summary"]
        assert rows[0]["round"] == 0 and rows[1]["round"] == 1
        assert 0.0 <= rows[-1]["final_test_accuracy"] <= 1.0

    def test_zero_rounds_single_row(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "m.jsonl"
        assert main(["train", "--dataset", str(data), "--rounds", "0",
                     "--batch-size", "4", "--train-clients", "4",
                     "--test-clients", "2", "--out", str(out)]) == 0
        rows = read_metrics(out)
        assert [r["kind"] for r in rows] == ["round", "summary"]

    def test_bad_split_exits_2(self, tmp_path, capsys):
        # Also a negative seed or round count, an empty batch and a
        # learning rate that is not a positive finite number; none of them
        # may write a metrics row. A negative count would slice the client
        # list from its end.
        data = _gen(tmp_path)
        lr = "learning_rate must be positive and finite"
        for bad, message in (
                (["--train-clients", "5"],
                 "split 5/2 needs more clients than the dataset has (6)"),
                (["--seed", "-1"], "seed must be a nonnegative integer"),
                (["--lr", "nan"], lr), (["--lr", "inf"], lr), (["--lr", "0"], lr),
                (["--train-clients", "-3", "--test-clients", "1"],
                 "need at least one training and one testing client"),
                (["--rounds", "-1"], "rounds must be >= 0"),
                (["--batch-size", "0"], "batch_size must be >= 1")):
            args = ["--train-clients", "4", "--test-clients", "2", *bad]
            assert main(["train", "--dataset", str(data), *FAST_TRAIN, *args,
                         "--out", str(tmp_path / "m.jsonl")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "m.jsonl").exists()

    def test_diverged_training_exits_4_without_nan_rows(self, tmp_path, capsys):
        # A finite but huge learning rate overflows local training; the run
        # stops in round 1 and names a client, and no row holds a NaN.
        data = tmp_path / "d.qfd"
        assert main(["gen-data", "--clients", "4", "--samples-per-client", "4",
                     "--qubits", "2", "--out", str(data)]) == 0
        out = tmp_path / "m.jsonl"
        with np.errstate(all="ignore"):
            code = main(["train", "--dataset", str(data), "--optimizer", "adam",
                         "--lr", "1e308", "--epochs", "3", "--batch-size", "2",
                         "--rounds", "2", "--train-clients", "3",
                         "--test-clients", "1", "--out", str(out)])
        assert code == 4
        assert re.search(r"error: client client_\d+ failed in round 1: .*diverged",
                         capsys.readouterr().err)
        assert "NaN" not in out.read_text()
        assert [r["round"] for r in read_metrics(out)] == [0]

    def test_fc_layer_changes_the_model(self, tmp_path):
        data = _gen(tmp_path)
        rows = {}
        for arch_flags in ([], ["--fc"]):
            out = tmp_path / f"m{len(arch_flags)}.jsonl"
            assert main(["train", "--dataset", str(data), *FAST_TRAIN,
                         "--train-clients", "4", "--test-clients", "2",
                         "--seed", "3", *arch_flags, "--out", str(out)]) == 0
            rows[tuple(arch_flags)] = read_metrics(out)
        plain, fc = rows[()], rows[("--fc",)]
        assert [r["kind"] for r in fc] == ["round", "round", "summary"]
        assert [r["test_mse"] for r in fc[:2]] != [r["test_mse"] for r in plain[:2]]

    def test_bad_stage_count_exits_2(self, tmp_path, capsys):
        # A 2-qubit model has exactly one stage.
        data = _gen(tmp_path)
        for stages in ("2", "0"):
            assert main(["train", "--dataset", str(data), *FAST_TRAIN,
                         "--train-clients", "4", "--test-clients", "2",
                         "--stages", stages, "--out", str(tmp_path / "m.jsonl")]) == 2
            assert capsys.readouterr().err == \
                "error: n_stages must be in [1, 1] for 2 qubits\n"
            assert not (tmp_path / "m.jsonl").exists()

    def test_missing_dataset_exits_3(self, tmp_path):
        assert main(["train", "--dataset", str(tmp_path / "nope.qfd"),
                     *FAST_TRAIN, "--out", str(tmp_path / "m.jsonl")]) == 3

    def test_malformed_dataset_header_exits_3(self, tmp_path, capsys):
        # A bad header field, then a sample circuit with a symbol.
        for old, new in ((b"format_version=1", b"format_version=x"),
                         (b";RX 0 ", b";RX 0 $t;RX 0 ")):
            data = _gen(tmp_path)
            magic, _checksum, body = data.read_bytes().split(b"\n", 2)
            body = body.replace(old, new, 1)
            data.write_bytes(magic + b"\nchecksum=" + checksum_bytes(body).encode()
                             + b"\n" + body)
            assert main(["train", "--dataset", str(data), *FAST_TRAIN,
                         "--out", str(tmp_path / "m.jsonl")]) == 3
            assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        assert main(["train", "--no-such-flag"]) == 2

    def test_append_only(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "m.jsonl"
        args = ["train", "--dataset", str(data), *FAST_TRAIN,
                "--train-clients", "4", "--test-clients", "2",
                "--out", str(out)]
        assert main(args) == 0
        first = len(read_metrics(out))
        assert main(args) == 0
        assert len(read_metrics(out)) == 2 * first

    def test_wall_time_is_the_time_since_the_run_began(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "m.jsonl"
        start = time.perf_counter()
        assert main(["train", "--dataset", str(data), *FAST_TRAIN,
                     "--train-clients", "4", "--test-clients", "2",
                     "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        times = [row["wall_time"] for row in read_metrics(out)]
        assert 0.0 <= times[0] <= times[1] <= times[2] <= elapsed

    def test_reproducible_apart_from_wall_time(self, tmp_path):
        data = _gen(tmp_path)
        rows = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main(["train", "--dataset", str(data), *FAST_TRAIN,
                         "--train-clients", "4", "--test-clients", "2",
                         "--seed", "11", "--out", str(out)]) == 0
            stripped = []
            for row in read_metrics(out):
                row.pop("wall_time")
                stripped.append(row)
            rows.append(stripped)
        assert rows[0] == rows[1]


class TestSweepClients:
    def test_requires_thirty_clients(self, tmp_path):
        # 20 clients allow the 6-, 12- and 18-client points, but the sweep
        # must stop before its first run.
        data = tmp_path / "twenty.qfd"
        assert main(["gen-data", "--clients", "20", "--samples-per-client", "4",
                     "--qubits", "2", "--out", str(data)]) == 0
        out = tmp_path / "m.jsonl"
        assert main(["sweep-clients", "--dataset", str(data), *FAST_TRAIN,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_each_point_trains_and_tests_its_clients(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "big.qfd"
        assert main(["gen-data", "--clients", "30", "--samples-per-client", "4",
                     "--qubits", "2", "--seed", "2", "--out", str(path)]) == 0
        configs = []

        def recording(dataset, cfg, **kwargs):
            configs.append(cfg)
            return run_training(dataset, cfg, **kwargs)

        monkeypatch.setattr(cli, "run_training", recording)
        assert main(["sweep-clients", "--dataset", str(path), *FAST_TRAIN,
                     "--out", str(tmp_path / "m.jsonl")]) == 0

        def ids(first, stop):
            return tuple(f"client_{k:03d}" for k in range(first, stop))

        central, *federated = configs
        assert central.train_clients == ids(0, 1)
        assert central.test_clients == ids(25, 30)
        splits = ((6, 4, 2), (12, 9, 3), (18, 14, 4), (24, 19, 5), (30, 25, 5))
        assert len(federated) == len(splits)
        for cfg, (k, n_train, n_test) in zip(federated, splits):
            assert cfg.train_clients == ids(0, n_train)
            assert cfg.test_clients == ids(k - n_test, k)

    def test_all_sweep_points_present(self, tmp_path):
        path = tmp_path / "big.qfd"
        assert main(["gen-data", "--clients", "30", "--samples-per-client", "4",
                     "--qubits", "2", "--seed", "2", "--out", str(path)]) == 0
        out = tmp_path / "m.jsonl"
        assert main(["sweep-clients", "--dataset", str(path), "--rounds", "1",
                     "--batch-size", "4", "--out", str(out)]) == 0
        rows = read_metrics(out)
        summaries = [r for r in rows if r["kind"] == "summary"]
        assert [r["n_clients"] for r in summaries] == [1, 6, 12, 18, 24, 30]
        assert summaries[0]["centralized"] is True
        assert all(r["centralized"] is False for r in summaries[1:])


class TestSweepDatasize:
    def test_federated_and_centralized_rows(self, tmp_path):
        out = tmp_path / "m.jsonl"
        assert main(["sweep-datasize", "--clients", "6", "--qubits", "2",
                     "--sizes", "4,8", "--rounds", "1", "--batch-size", "4",
                     "--train-clients", "4", "--test-clients", "2",
                     "--seed", "9", "--out", str(out)]) == 0
        summaries = [r for r in read_metrics(out) if r["kind"] == "summary"]
        assert len(summaries) == 4
        got = {(r["samples_per_client"], r["centralized"]) for r in summaries}
        assert got == {(4, False), (4, True), (8, False), (8, True)}

    def test_each_size_runs_on_its_pinned_derived_seed(self, tmp_path):
        # Each size's dataset and runs take a seed derived from the base
        # seed and the size; these values are what --seed 9 reproduces.
        out = tmp_path / "m.jsonl"
        assert main(["sweep-datasize", "--clients", "6", "--qubits", "2",
                     "--sizes", "4,8", "--rounds", "0", "--train-clients", "4",
                     "--test-clients", "2", "--seed", "9", "--out", str(out)]) == 0
        seeds = {(r["samples_per_client"], r["seed"]) for r in read_metrics(out)}
        assert seeds == {(4, 7832042947134182661), (8, 16540695545387017071)}

    def test_indivisible_size_exits_2(self, tmp_path, capsys):
        # Also a non-integer or nonpositive size, which the flag rejects
        # before anything runs.
        for sizes in ("7", "4,x", "-8", "0"):
            assert main(["sweep-datasize", "--clients", "6", "--qubits", "2",
                         "--sizes", sizes, "--rounds", "1",
                         "--out", str(tmp_path / "m.jsonl")]) == 2
            assert "error:" in capsys.readouterr().err
            assert not (tmp_path / "m.jsonl").exists()

    def test_repeated_size_rejected(self, tmp_path, capsys):
        assert main(["sweep-datasize", "--clients", "6", "--qubits", "2",
                     "--sizes", "4,4", "--rounds", "1",
                     "--train-clients", "4", "--test-clients", "2",
                     "--out", str(tmp_path / "m.jsonl")]) == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "m.jsonl").exists()

    def test_bad_size_fails_before_any_run(self, tmp_path, capsys):
        # With a split the 6 clients allow, size 4 could train; the bad
        # size 7 after it must still stop the sweep before its first run.
        out = tmp_path / "m.jsonl"
        assert main(["sweep-datasize", "--clients", "6", "--qubits", "2",
                     "--sizes", "4,7", "--rounds", "1",
                     "--train-clients", "4", "--test-clients", "2",
                     "--out", str(out)]) == 2
        assert "samples_per_client (7)" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # Each size's seed derives from the base seed, so GenConfig checks
        # the base seed first.
        out = tmp_path / "m.jsonl"
        assert main(["sweep-datasize", "--clients", "6", "--qubits", "2",
                     "--sizes", "4", "--rounds", "1",
                     "--train-clients", "4", "--test-clients", "2",
                     "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()


class TestCompareIid:
    def test_two_summary_rows_with_scaled_mse(self, tmp_path):
        out = tmp_path / "m.jsonl"
        assert main(["compare-iid", *TINY, *FAST_TRAIN,
                     "--train-clients", "4", "--test-clients", "2",
                     "--seed", "4", "--out", str(out)]) == 0
        summaries = [r for r in read_metrics(out) if r["kind"] == "summary"]
        assert [r["dataset"] for r in summaries] == ["iid", "non_iid"]
        for row in summaries:
            assert row["final_test_mse_x100"] == pytest.approx(
                100 * row["final_test_mse"])

    def test_printed_mse_x100_is_the_rows(self, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        assert main(["compare-iid", *TINY, *FAST_TRAIN,
                     "--train-clients", "4", "--test-clients", "2",
                     "--seed", "4", "--out", str(out)]) == 0
        printed = re.findall(r"mse_x100=(\S+)", capsys.readouterr().out)
        summaries = [r for r in read_metrics(out) if r["kind"] == "summary"]
        assert printed == [f"{r['final_test_mse_x100']:.3f}" for r in summaries]

    def test_bad_fraction_fails_before_any_run(self, tmp_path, capsys):
        # The IID run could train; the bad non-IID fraction must still stop
        # the comparison before it.
        out = tmp_path / "m.jsonl"
        assert main(["compare-iid", *TINY, *FAST_TRAIN,
                     "--train-clients", "4", "--test-clients", "2",
                     "--non-iid-fraction", "1.5", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestErrorBars:
    def test_requires_three_seeds(self, tmp_path, capsys):
        # Also a non-integer or negative seed, which the flag rejects
        # before anything runs.
        for seeds in ("1,2", "1,2,x", "1,2,-1"):
            assert main(["error-bars", *TINY, *FAST_TRAIN, "--seeds", seeds,
                         "--train-clients", "4", "--test-clients", "2",
                         "--out", str(tmp_path / "m.jsonl")]) == 2
            assert "error:" in capsys.readouterr().err
            assert not (tmp_path / "m.jsonl").exists()

    def test_repeated_seed_rejected(self, tmp_path, capsys):
        # A repeated seed would run twice and count twice in the mean and
        # spread; "1,1,2" would also pass the three-seed rule.
        for seeds in ("1,1,2", "3,3,3"):
            assert main(["error-bars", *TINY, *FAST_TRAIN, "--seeds", seeds,
                         "--train-clients", "4", "--test-clients", "2",
                         "--out", str(tmp_path / "m.jsonl")]) == 2
            assert "distinct" in capsys.readouterr().err
            assert not (tmp_path / "m.jsonl").exists()

    def test_piped_output_appears_once(self, tmp_path):
        # Block-buffered stdout must be flushed before helpers fork, or a
        # helper would print the parent's pending lines again. 4 x 256
        # training samples a round are enough to share between 2 cores.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-m", "qflsim.cli", "error-bars", "--clients", "6",
             "--samples-per-client", "256", "--qubits", "2", "--rounds", "1",
             "--batch-size", "64", "--seeds", "1,2,3", "--train-clients", "4",
             "--test-clients", "2", "--out", str(tmp_path / "m.jsonl")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
            env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == [
            "seed=1", "seed=2", "seed=3", "test_accuracy"]

    def test_distinct_seeds_aggregate(self, tmp_path):
        out = tmp_path / "m.jsonl"
        start = time.perf_counter()
        assert main(["error-bars", *TINY, *FAST_TRAIN, "--seeds", "1,2,3",
                     "--train-clients", "4", "--test-clients", "2",
                     "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        rows = read_metrics(out)
        agg = rows[-1]
        finals = [r for r in rows
                  if r["kind"] == "round" and r["round"] == r["rounds"]]
        assert len(finals) == 3
        assert len(metrics.AGGREGATES) == 16 and set(metrics.AGGREGATES) <= set(agg)
        fields = {field for field, _stat in metrics.AGGREGATES.values()}
        assert len(fields) == 4
        for field in fields:
            vals = [r[field] for r in finals]
            lo, mean, hi, spread = (agg[f"{field}_{stat}"]
                                    for stat in ("min", "mean", "max", "spread"))
            assert (lo, hi) == (min(vals), max(vals))
            assert mean == pytest.approx(sum(vals) / len(vals))
            assert lo <= mean <= hi
            assert spread == hi - lo
        per_seed = [r for r in rows if r["kind"] == "round"]
        assert {r["seed"] for r in per_seed} == {1, 2, 3}
        assert all("train_accuracy" in r for r in per_seed)
        # The aggregate row's wall_time covers every seed's run.
        summaries = [r for r in rows if r["kind"] == "summary"]
        assert len(summaries) == 4
        assert elapsed >= agg["wall_time"] >= sum(r["wall_time"] for r in summaries[:-1])


class TestRunSettings:
    # (train, test) clients of each sweep-clients point, by client count.
    SWEEP_SPLITS = {1: (1, 5), 6: (4, 2), 12: (9, 3), 18: (14, 4), 24: (19, 5),
                    30: (25, 5)}

    @pytest.mark.parametrize("command", ["train", "sweep-clients",
                                         "sweep-datasize", "compare-iid",
                                         "error-bars"])
    def test_every_row_carries_its_settings(self, tmp_path, command):
        if command == "train":
            args = ["--dataset", str(_gen(tmp_path)), *SPLIT]
        elif command == "sweep-clients":
            path = tmp_path / "big.qfd"
            assert main(["gen-data", "--clients", "30", "--samples-per-client",
                         "4", "--qubits", "2", "--out", str(path)]) == 0
            args = ["--dataset", str(path)]
        elif command == "sweep-datasize":
            args = [*TINY, "--sizes", "4,8", *SPLIT]
        elif command == "compare-iid":
            args = [*TINY, *SPLIT]
        else:
            args = [*TINY, "--seeds", "1,2,3", *SPLIT]
        out = tmp_path / "m.jsonl"
        assert main([command, *args, *SETTINGS, "--out", str(out)]) == 0
        rows = read_metrics(out)
        assert {r["kind"] for r in rows} == {"round", "summary"}
        for row in rows:
            if "n_clients" in row:
                split = self.SWEEP_SPLITS[row["n_clients"]]
            else:
                split = (1, 2) if row.get("centralized") else (3, 2)
            assert (row["train_clients"], row["test_clients"]) == split
            assert {k: row[k] for k in SETTING_VALUES} == SETTING_VALUES


class TestMetricsSchema:
    def test_every_command_output_validates(self, tmp_path):
        # read_metrics already validates; this asserts rejection too.
        with pytest.raises(MetricsSchemaError):
            validate_row({"kind": "round"})
        with pytest.raises(MetricsSchemaError):
            validate_row({"kind": "nope", "experiment": "x", "wall_time": 0.0})
        with pytest.raises(MetricsSchemaError):
            validate_row({"kind": "round", "experiment": "x", "seed": 1,
                          "round": 0, "test_accuracy": 1.5, "test_mse": 0.1,
                          "wall_time": 0.0})
        with pytest.raises(MetricsSchemaError):
            validate_row({"kind": "summary", "experiment": "x",
                          "wall_time": 0.0, "mystery_field": 3})

    def test_number_fields_refuse_bools_and_int_fields_fractions(self):
        # JSON true is a Python bool, which is an int; neither kind of
        # number field takes it, and an int field takes no float at all.
        row = {"kind": "round", "experiment": "x", "seed": 1, "round": 1,
               "test_accuracy": 0.5, "test_mse": 0.1, "wall_time": 0.0}
        validate_row({**row, "test_mse": 0, "lr": 1, "n_clients": 6})
        for key, bad in (("seed", True), ("seed", 1.5), ("round", 1.0),
                         ("n_clients", False), ("test_mse", True)):
            with pytest.raises(MetricsSchemaError, match=f"field '{key}' expects"):
                validate_row({**row, key: bad})

    def test_accuracy_bounds_are_inclusive(self):
        row = {"kind": "round", "experiment": "x", "seed": 1, "round": 1,
               "test_accuracy": 0.5, "test_mse": 0.1, "wall_time": 0.0}
        for key in ("test_accuracy", "train_accuracy", "final_test_accuracy"):
            for value in (0.0, 1.0):
                validate_row({**row, key: value})
            for value in (-0.01, 1.01):
                with pytest.raises(MetricsSchemaError, match=f"{key} out of"):
                    validate_row({**row, key: value})

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "round"\n')
        with pytest.raises(MetricsSchemaError):
            read_metrics(path)

    def test_non_utf8_file_names_its_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'\xff\xfe{"kind":"round"}\n')
        with pytest.raises(MetricsSchemaError,
                           match=f"^{re.escape(str(path))}:1: .*utf-8"):
            read_metrics(path)

    def test_schema_error_names_its_line(self, tmp_path):
        # Blank lines are skipped, and still counted.
        row = {"kind": "round", "experiment": "x", "seed": 1, "round": 1,
               "test_accuracy": 0.5, "test_mse": 0.1, "wall_time": 0.0}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n\n  \n" + json.dumps(row) + "\n")
        assert read_metrics(path) == [row, row]
        for bad, message in (({**row, "mystery": 3}, "unknown metrics field 'mystery'"),
                             ([1], "row must be an object, got list"),
                             ({**row, "round": -1}, "round must be >= 0")):
            path.write_text(json.dumps(row) + "\n\n" + json.dumps(bad) + "\n")
            with pytest.raises(MetricsSchemaError, match=(
                    f"^{re.escape(str(path))}:3: {re.escape(message)}$")):
                read_metrics(path)

    def test_a_bad_row_writes_none_of_its_batch(self, tmp_path):
        row = {"kind": "round", "experiment": "x", "seed": 1, "round": 1,
               "test_accuracy": 0.5, "test_mse": 0.1, "wall_time": 0.0}
        path = tmp_path / "m.jsonl"
        metrics.append_rows(path, [row])
        written = path.read_text()
        with pytest.raises(MetricsSchemaError, match="unknown row kind 'nope'"):
            metrics.append_rows(path, [row, {"kind": "nope"}])
        assert path.read_text() == written
        with pytest.raises(MetricsSchemaError):
            metrics.append_rows(tmp_path / "new" / "m.jsonl", [row, {"kind": "nope"}])
        assert not (tmp_path / "new").exists()

    def test_non_finite_numbers_never_written_or_read(self, tmp_path):
        row = {"kind": "round", "experiment": "x", "seed": 1, "round": 1,
               "test_accuracy": 0.5, "test_mse": 0.1, "wall_time": 0.0}
        path = tmp_path / "m.jsonl"
        metrics.append_rows(path, [row])
        written = path.read_text()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(MetricsSchemaError, match="test_mse"):
                metrics.append_rows(path, [{**row, "test_mse": bad}])
        assert path.read_text() == written
        for text in ("NaN", "Infinity", "-Infinity", "1e999"):
            path.write_text(json.dumps(row).replace('"test_mse": 0.1',
                                                    f'"test_mse": {text}') + "\n")
            with pytest.raises(MetricsSchemaError, match="test_mse"):
                read_metrics(path)


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "cli.qfd"
        proc = subprocess.run(
            [sys.executable, "-m", "qflsim.cli", "gen-data", *TINY,
             "--seed", "1", "--out", str(path)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert path.exists()
