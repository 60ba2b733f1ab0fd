"""Per-client generation of cluster-state excitation datasets.

Each sample prepares a ring cluster state (Hadamard on every qubit, CZ
between ring neighbors) and applies one RX excitation to a single qubit,
cycling the target across samples. The sample is labeled 1 (excited) when
the rotation magnitude exceeds the threshold, else 0.
"""

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError
from .model import Sample
from .sim import Circuit, GateOp, cz, h, rx


class AngleDistribution(str, Enum):
    UNIFORM_PI = "uniform_pi"
    TRUNCATED_NORMAL = "truncated_normal"


@dataclass(frozen=True)
class GenConfig:
    n_clients: int
    n_qubits: int = 8
    samples_per_client: int = 160
    angle_distribution: AngleDistribution = AngleDistribution.UNIFORM_PI
    trunc_normal_sigma: float = math.pi / 2
    excitation_threshold: float = math.pi / 2
    seed: int = 0

    def __post_init__(self):
        if self.n_clients < 0:
            raise ConfigError(f"n_clients must be >= 0, got {self.n_clients}")
        if self.n_qubits < 2:
            raise ConfigError(f"n_qubits must be >= 2, got {self.n_qubits}")
        if self.samples_per_client % self.n_qubits != 0:
            raise ConfigError(
                f"samples_per_client ({self.samples_per_client}) must be "
                f"divisible by n_qubits ({self.n_qubits})"
            )
        if not 0.0 < self.excitation_threshold < math.pi:
            raise ConfigError("excitation_threshold must be in (0, pi)")
        if not 0 < self.trunc_normal_sigma < math.inf:
            raise ConfigError("trunc_normal_sigma must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        object.__setattr__(
            self, "angle_distribution", AngleDistribution(self.angle_distribution)
        )


@dataclass(frozen=True)
class ClientDataset:
    client_id: str
    samples: tuple[Sample, ...]
    distribution_tag: AngleDistribution

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        sizes = {s.prep_circuit.n_qubits for s in self.samples}
        if len(sizes) > 1:
            raise ConfigError("all samples of a client must share a qubit count")


@dataclass(frozen=True)
class FederatedDataset:
    clients: tuple[ClientDataset, ...]
    gen_config: GenConfig

    def __post_init__(self):
        object.__setattr__(self, "clients", tuple(self.clients))
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ConfigError("client ids must be unique")

    def client_ids(self) -> tuple[str, ...]:
        return tuple(c.client_id for c in self.clients)


@functools.cache
def cluster_state_circuit(n_qubits: int) -> Circuit:
    """Hadamard on every qubit, then CZ around the ring.

    The wraparound pair (n-1, 0) duplicates (0, 1) for n = 2, so the
    degenerate ring keeps a single CZ. Built once per qubit count: every
    sample shares these frozen ops.
    """
    if n_qubits < 2:
        raise ConfigError(f"cluster state needs >= 2 qubits, got {n_qubits}")
    ops: list[GateOp] = [h(q) for q in range(n_qubits)]
    ops += [cz(q, q + 1) for q in range(n_qubits - 1)]
    if n_qubits > 2:
        ops.append(cz(n_qubits - 1, 0))
    return Circuit(n_qubits, tuple(ops))


def draw_angle(rng: np.random.Generator, config: GenConfig) -> float:
    """One excitation angle in [-pi, pi] from the configured distribution."""
    if config.angle_distribution is AngleDistribution.UNIFORM_PI:
        return float(rng.uniform(-math.pi, math.pi))
    while True:
        x = float(rng.normal(0.0, config.trunc_normal_sigma))
        if -math.pi <= x <= math.pi:
            return x


def label_rule(angle: float, threshold: float) -> int:
    """1 (excited) iff |angle| strictly exceeds the threshold."""
    return int(abs(angle) > threshold)


def _excited_sample(config: GenConfig, target_qubit: int, angle: float) -> Sample:
    """Cluster state plus one RX(``angle``) on ``target_qubit``, labeled."""
    prep = cluster_state_circuit(config.n_qubits).then(rx(target_qubit, angle))
    return Sample(prep, label_rule(angle, config.excitation_threshold))


def client_rng(seed: int, client_index: int) -> np.random.Generator:
    """Independent per-client generator derived from (seed, client index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(client_index)]))


def generate_client_dataset(config: GenConfig, client_index: int) -> ClientDataset:
    """Client ``client_index``'s samples, with angles drawn from
    ``config.angle_distribution``."""
    dist = config.angle_distribution
    rng = client_rng(config.seed, client_index)
    m = config.samples_per_client
    if dist is AngleDistribution.UNIFORM_PI:
        # One call draws the same stream as m calls of draw_angle.
        angles = rng.uniform(-math.pi, math.pi, m).tolist()
    else:
        angles = [draw_angle(rng, config) for _ in range(m)]
    samples = tuple(
        _excited_sample(config, k % config.n_qubits, angle)
        for k, angle in enumerate(angles)
    )
    return ClientDataset(f"client_{client_index:03d}", samples, dist)


def generate_federated_dataset(config: GenConfig,
                               non_iid_fraction: float = 0.0) -> FederatedDataset:
    """K per-client datasets; the first ceil(fraction * K) clients draw
    excitation angles from the truncated normal, the rest from
    ``config.angle_distribution``."""
    if config.n_clients < 1:
        raise ConfigError("dataset generation needs at least one client")
    if not 0.0 <= non_iid_fraction <= 1.0:
        raise ConfigError("non_iid_fraction must be in [0, 1]")
    n_trunc = math.ceil(non_iid_fraction * config.n_clients)
    skewed = replace(config, angle_distribution=AngleDistribution.TRUNCATED_NORMAL)
    clients = [generate_client_dataset(skewed if k < n_trunc else config, k)
               for k in range(config.n_clients)]
    return FederatedDataset(tuple(clients), config)
