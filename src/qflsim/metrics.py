"""Append-only metrics files: one JSON object per line.

Two row kinds share a file. "round" rows carry per-round test metrics of
one run; "summary" rows carry end-of-run or aggregate statistics. Rows
are reproducible given the experiment config and seeds, except for the
wall_time field. Every number is finite, so each row is strict JSON.
"""

import json
import math
from pathlib import Path

import numpy as np

from .errors import MetricsSchemaError

ROW_KINDS = ("round", "summary")

# The aggregate fields of error-bars' last summary row: each statistic,
# over the seeds, of each per-seed field, named "<field>_<statistic>".
AGGREGATES = {
    f"{field}_{stat}": (field, statistic)
    for field in ("test_accuracy", "test_mse", "train_accuracy", "train_mse")
    for stat, statistic in (("mean", np.mean), ("min", np.min),
                            ("max", np.max), ("spread", np.ptp))
}

_REQUIRED = {
    "round": {
        "kind": str,
        "experiment": str,
        "seed": int,
        "round": int,
        "test_accuracy": float,
        "test_mse": float,
        "wall_time": float,
    },
    "summary": {
        "kind": str,
        "experiment": str,
        "wall_time": float,
    },
}

_OPTIONAL_TYPES = {
    "seed": int,
    "train_accuracy": float,
    "train_mse": float,
    "final_test_accuracy": float,
    "final_test_mse": float,
    "final_test_mse_x100": float,
    "n_clients": int,
    "train_clients": int,
    "test_clients": int,
    "samples_per_client": int,
    "optimizer": str,
    "lr": float,
    "rounds": int,
    "epochs": int,
    "batch_size": int,
    "non_iid_fraction": float,
    "dataset": str,
    "centralized": bool,
    **dict.fromkeys(AGGREGATES, float),
}


def validate_row(row: dict) -> None:
    if not isinstance(row, dict):
        raise MetricsSchemaError(f"row must be an object, got {type(row).__name__}")
    kind = row.get("kind")
    if kind not in ROW_KINDS:
        raise MetricsSchemaError(f"unknown row kind {kind!r}")
    for key, expected in _REQUIRED[kind].items():
        if key not in row:
            raise MetricsSchemaError(f"{kind} row missing {key!r}")
    for key, value in row.items():
        expected = _REQUIRED[kind].get(key) or _OPTIONAL_TYPES.get(key)
        if expected is None:
            raise MetricsSchemaError(f"unknown metrics field {key!r}")
        if expected is float:
            ok = (isinstance(value, int) and not isinstance(value, bool)
                  or isinstance(value, float) and math.isfinite(value))
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected)
        if not ok:
            raise MetricsSchemaError(
                f"field {key!r} expects {expected.__name__}, got {value!r}"
            )
    if kind == "round" and row["round"] < 0:
        raise MetricsSchemaError("round must be >= 0")
    for key in ("test_accuracy", "train_accuracy", "final_test_accuracy"):
        if key in row and not 0.0 <= row[key] <= 1.0:
            raise MetricsSchemaError(f"{key} out of [0, 1]: {row[key]}")


def append_rows(path, rows) -> None:
    """Append each row to ``path`` as one JSON line. Every row is validated
    before the file is opened, so a bad row leaves the file as it was."""
    lines = []
    for row in rows:
        validate_row(row)
        lines.append(json.dumps(row, sort_keys=True) + "\n")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.writelines(lines)


def read_metrics(path) -> list[dict]:
    """Every row of a metrics file, validated; a line that is not UTF-8,
    not JSON or not a valid row raises MetricsSchemaError naming
    ``path:line``."""
    rows = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line.decode("utf-8"))
            validate_row(row)
        except (UnicodeDecodeError, json.JSONDecodeError,
                MetricsSchemaError) as exc:
            raise MetricsSchemaError(f"{path}:{lineno}: {exc}") from None
        rows.append(row)
    return rows
