"""Subprocess entry point for a wire-protocol client.

Reads its own client from a dataset file, connects to the given server
and trains whenever a round is broadcast:

    python -m qflsim.worker --host 127.0.0.1 --port 5000 \
        --dataset data.qfd --client-id client_003 --seed 7

The architecture flags (--stages, --readout-qubit, --fc) are those of
``qflsim train`` and must match the server's. Exit codes are those of
the ``qflsim`` command: --port must lie in 1-65535, and any other port
exits 2 before the dataset is read.
"""

import argparse
import os
import sys

from .cli import (add_architecture_flags, add_local_training_flags,
                  architecture_from_flags, run_command, train_config)
from .errors import ConfigError
from .federated import build_clients
from .store import read_dataset
from .transport import run_socket_client


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qflsim-worker", description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--client-id", required=True)
    parser.add_argument("--seed", type=int, default=0)
    add_local_training_flags(parser)
    add_architecture_flags(parser)
    return parser


def serve(args) -> int:
    if not 1 <= args.port <= 65535:
        raise ConfigError(f"--port must be in 1-65535, got {args.port}")
    dataset = read_dataset(args.dataset, clients=(args.client_id,))
    arch = architecture_from_flags(args, dataset.gen_config.n_qubits)
    cfg = train_config(args, 0, (args.client_id,), (), args.seed, arch=arch)
    _evaluator, _params0, (client,) = build_clients(dataset, cfg, cfg.train_clients)
    run_socket_client(args.host, args.port, client)
    return 0


def main(argv=None) -> int:
    return run_command(serve, build_parser().parse_args(argv))


if __name__ == "__main__":
    # Skip interpreter teardown (tens of ms with numpy loaded), which the
    # server waits out at the end of every socket run; main() still returns.
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
