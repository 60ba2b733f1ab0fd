"""Desk-scale simulator of federated training of quantum convolutional
classifiers on locally generated cluster-state excitation data."""

import os

# qflsim parallelises by processes (one LocalTransport helper per core,
# one socket worker per client) and its matrix products are 8x8 blocks, so
# an OpenBLAS thread pool in each process only competes for the same cores.
# Starting that pool made `import numpy` cost 156 ms instead of 95 ms on a
# 2-core machine, the largest share of a socket worker's start-up. This
# must run before the first import that loads numpy; a value the caller
# set is kept, and a program that loaded numpy first keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .datagen import (
    AngleDistribution,
    ClientDataset,
    FederatedDataset,
    GenConfig,
    cluster_state_circuit,
    generate_federated_dataset,
)
from .federated import (
    ClientState,
    ClientUpdate,
    OptimizerConfig,
    RoundRecord,
    ServerState,
    TrainConfig,
    evaluate,
    federated_average,
    local_train,
    optimizer_step,
    prepare_clients,
    run_round,
    run_training,
)
from .model import (
    ArchitectureSpec,
    Model,
    ParamVector,
    Sample,
    build_architecture,
    build_model,
    build_model_circuit,
    conv_unit,
    default_architecture,
    init_params,
    parameter_names,
    pool_unit,
)
from .sim import (
    Circuit,
    GateOp,
    StateVector,
    apply_circuit,
    gate_matrix,
    new_zero_state,
)
from .store import parse_circuit, read_dataset, serialize_circuit, write_dataset

__version__ = "0.1.0"
