"""The paper's learning claim as a test: federated training of the QCNN
on cluster-state excitation data learns.

The run is the paper-scale default: 30 clients of 160 samples, the first
25 training and the last 5 testing, 30 rounds of one local epoch, Adam at
0.02, batch 16.

The floor was set from other seeds before this test's seed was checked.
Seeds 1 to 8 of the same run reach round-30 test accuracies of 0.77875,
0.965, 0.865, 0.97, 0.975, 0.86375, 0.82875 and 0.8375. That is a mean of
0.8855 with a sample standard deviation of 0.0749. The floor is the mean
less three standard deviations, rounded down to two decimals.
"""

from qflsim.datagen import GenConfig, generate_federated_dataset
from qflsim.federated import OptimizerConfig, TrainConfig, run_training

SEED = 42
ACCURACY_FLOOR = 0.66


def test_federated_training_learns():
    dataset = generate_federated_dataset(GenConfig(n_clients=30, seed=SEED))
    ids = dataset.client_ids()
    cfg = TrainConfig(rounds=30, train_clients=ids[:25], test_clients=ids[25:],
                      batch_size=16, opt=OptimizerConfig("adam", 0.02), seed=SEED)
    records = run_training(dataset, cfg)
    assert [r.round for r in records] == list(range(31))
    start, end = records[0].test_accuracy, records[-1].test_accuracy
    assert end > start, (start, end)
    assert end > ACCURACY_FLOOR, end
