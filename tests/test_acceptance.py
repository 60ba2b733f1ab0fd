"""The paper's claims as tests: federated training of the QCNN on
cluster-state excitation data learns, comes within a bound of training
on the pooled data, and skewed (non-IID) client data does not train
better than IID data.

The run is the paper-scale default: 30 clients of 160 samples, the first
25 training and the last 5 testing, 30 rounds of one local epoch, Adam at
0.02, batch 16.

The floor was set from other seeds before this test's seed was checked.
Seeds 1 to 8 of the same run reach round-30 test accuracies of 0.77875,
0.965, 0.865, 0.97, 0.975, 0.86375, 0.82875 and 0.8375. That is a mean of
0.8855 with a sample standard deviation of 0.0749. The floor is the mean
less three standard deviations, rounded down to two decimals.
"""

import os

import numpy as np
import pytest

from qflsim.datagen import (
    ClientDataset,
    FederatedDataset,
    GenConfig,
    generate_federated_dataset,
)
from qflsim.federated import OptimizerConfig, TrainConfig, run_training

SEED = 42
ACCURACY_FLOOR = 0.66

# The data-skew claim. Each tested seed trains twice on the same run seed,
# so on the same initial parameters: once on IID data and once with the
# first half of the clients (15 of 30, all training clients) drawing
# their angles from the truncated normal, as `qflsim compare-iid` does.
# The 5 test clients are the same in both arms. The statistic is the
# mean, over the tested seeds, of the round-30 test-accuracy gap IID less
# non-IID. Its bound was fixed as a rule before any seed was run: the
# mean gap of seeds 1 to 8 less three standard errors of a mean of
# len(SKEW_SEEDS) gaps (their sample standard deviation over
# sqrt(len(SKEW_SEEDS))), rounded down to two decimals. Seeds 1 to 8 gave
# gaps of 0.02, 0.01375, 0.09, 0.03, 0.0225, 0.0475, 0.02375 and 0.03875:
# a mean of 0.0358 and a standard deviation of 0.0244, so
# 0.0358 - 3 * 0.0244 / sqrt(3) = -0.0065, and the bound is -0.01. IID
# led at every one of those seeds, but the spread does not let three
# seeds demand a positive gap: the test fails if non-IID data trains
# better, not if it trains as well.
SKEW_SEEDS = (42, 43, 44)
SKEW_GAP_BOUND = -0.01

# The federated-versus-centralized claim. Each tested seed trains the
# paper-scale federated run and a centralized run: one client holding
# the 25 training clients' samples merged, in client order, with the same
# 5 test clients and run seed, so the same initial parameters; each of
# its 30 rounds is one epoch of 250 batches. The statistic is the mean,
# over the tested seeds, of the round-30 test-accuracy gap centralized
# less federated. Its bound delta was fixed as a rule before any tested
# seed was run: the mean gap of seeds 1 to 8 plus three standard errors
# of a mean of len(CENTRAL_SEEDS) gaps, rounded up to two decimals.
# Seeds 1 to 8 gave centralized accuracies of 0.98125, 0.96125, 0.92625,
# 0.98, 0.96, 0.99, 0.94125 and 0.915, so gaps of 0.2025, -0.00375,
# 0.06125, 0.01, -0.015, 0.12625, 0.1125 and 0.0775: a mean of 0.0714
# and a standard deviation of 0.0746, so
# 0.0714 + 3 * 0.0746 / sqrt(3) = 0.2005, and delta is 0.21. The test
# fails if federated training falls further behind the pooled data.
CENTRAL_SEEDS = (42, 43, 44)
CENTRAL_GAP_DELTA = 0.21
ACCEPTANCE = os.environ.get("QFLSIM_ACCEPTANCE") == "1"


def _paper_run(seed: int, non_iid_fraction: float = 0.0,
               centralized: bool = False) -> list:
    """The records of the paper-scale run of ``seed``; ``centralized``
    merges the training clients into one."""
    dataset = generate_federated_dataset(GenConfig(n_clients=30, seed=seed),
                                         non_iid_fraction)
    train, test = dataset.clients[:25], dataset.clients[25:]
    if centralized:
        pooled = ClientDataset("pooled", [s for c in train for s in c.samples],
                               train[0].distribution_tag)
        train = (pooled,)
        dataset = FederatedDataset(train + test, dataset.gen_config)
    cfg = TrainConfig(rounds=30, train_clients=[c.client_id for c in train],
                      test_clients=[c.client_id for c in test], batch_size=16,
                      opt=OptimizerConfig("adam", 0.02), seed=seed)
    return run_training(dataset, cfg)


def test_federated_training_learns():
    records = _paper_run(SEED)
    assert [r.round for r in records] == list(range(31))
    start, end = records[0].test_accuracy, records[-1].test_accuracy
    assert end > start, (start, end)
    assert end > ACCURACY_FLOOR, end


@pytest.mark.skipif(not ACCEPTANCE, reason="set QFLSIM_ACCEPTANCE=1 (about 20 s)")
def test_iid_data_trains_no_worse_than_non_iid():
    gaps = [_paper_run(seed)[-1].test_accuracy
            - _paper_run(seed, 0.5)[-1].test_accuracy
            for seed in SKEW_SEEDS]
    assert np.mean(gaps) > SKEW_GAP_BOUND, gaps


@pytest.mark.skipif(not ACCEPTANCE, reason="set QFLSIM_ACCEPTANCE=1 (about 40 s)")
def test_federated_training_comes_within_delta_of_centralized():
    gaps = [_paper_run(seed, centralized=True)[-1].test_accuracy
            - _paper_run(seed)[-1].test_accuracy
            for seed in CENTRAL_SEEDS]
    assert np.mean(gaps) <= CENTRAL_GAP_DELTA, gaps
