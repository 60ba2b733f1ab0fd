"""Exception types shared across the package."""


class QflError(Exception):
    """Base class for all package errors."""


class ConfigError(QflError):
    """Invalid configuration or violated precondition."""


class SimulationError(QflError):
    """A state vector whose length does not match the circuit's qubits."""


class UnresolvedParameterError(QflError):
    """A symbolic gate angle was evaluated without a binding for its symbol."""


class DatasetFormatError(QflError):
    """Malformed dataset container or circuit text."""


class DatasetVersionError(DatasetFormatError):
    """Dataset container declares an unsupported format version."""


class DatasetCorruptionError(DatasetFormatError):
    """Dataset container bytes do not match the recorded checksum."""


class CircuitParseError(DatasetFormatError):
    """Circuit text could not be parsed; message carries the line number."""


class ProtocolError(QflError):
    """Malformed or out-of-sequence wire message."""


class TrainingError(QflError):
    """A training round could not be completed."""


class MetricsSchemaError(QflError):
    """A metrics row does not conform to the output schema."""
