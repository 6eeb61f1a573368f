"""CSV report emission and model persistence.

CSV numbers are scientific notation with 6 significant digits; model files
are JSON with every float written at 17 significant digits, which
round-trips IEEE doubles exactly, so load -> save is byte-identical.
"""

from __future__ import annotations

import csv
import json
import json.encoder
import math
from dataclasses import asdict, is_dataclass

from .mlp import MlpParams
from .model import Model, model_from_dict, model_to_dict

SAL_COLUMNS = ["grade", "tau", "epsilon", "iterations", "train_time_s", "rse_train", "rse_test"]
SSG_COLUMNS = ["structure", "alpha", "epsilon", "epoch", "train_time_s", "rse_train", "rse_test"]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.5e}"
    return str(value)


def write_csv(rows, path, columns: list[str] | None = None) -> None:
    """Write dataclass/dict rows with a fixed header; empty rows -> header only."""
    dict_rows = [asdict(r) if is_dataclass(r) else dict(r) for r in rows]
    if columns is None:
        if not dict_rows:
            raise ValueError("cannot infer columns from an empty row list")
        columns = list(dict_rows[0].keys())
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in dict_rows:
                writer.writerow([format_cell(row.get(c)) for c in columns])
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc


def sal_report_rows(report) -> list[dict]:
    """Grade rows plus the final total_time row."""
    rows = [asdict(r) for r in report.records]
    rows.append(
        {
            "grade": "total_time",
            "tau": None,
            "epsilon": None,
            "iterations": None,
            "train_time_s": report.total_time_s,
            "rse_train": None,
            "rse_test": None,
        }
    )
    return rows


def _float_17g(f: float) -> str:
    if f != f or f in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in model document")
    return format(f, ".17g")


class _PrecisionEncoder(json.JSONEncoder):
    """json's C encoder hardwires repr(float); the pure-python path accepts a
    custom formatter, so route through it with a 17-significant-digit one."""

    def iterencode(self, o, _one_shot=False):
        return json.encoder._make_iterencode(
            {} if self.check_circular else None,
            self.default,
            json.encoder.encode_basestring_ascii,
            self.indent,
            _float_17g,
            self.key_separator,
            self.item_separator,
            self.sort_keys,
            self.skipkeys,
            _one_shot,
        )(o, 0)


def model_json(model: Model) -> str:
    return json.dumps(model_to_dict(model), cls=_PrecisionEncoder, indent=1)


def _write(text: str, path) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write model {path}: {exc}") from exc


def save_model(model: Model, path) -> None:
    _write(model_json(model), path)


def save_mlp(params: MlpParams, path) -> None:
    """Write a baseline MLP; the "kind" key tells load_model it is not a cascade."""
    doc = {"format_version": 1, "kind": "mlp", **params.to_dict()}
    _write(json.dumps(doc, cls=_PrecisionEncoder, indent=1), path)


def _all_finite(node) -> bool:
    """Whether every float in a parsed JSON document is finite; json reads
    NaN, Infinity and an overflowing literal such as 1e999 as non-finite."""
    if isinstance(node, dict):
        return all(map(_all_finite, node.values()))
    if isinstance(node, list):
        return all(map(_all_finite, node))
    return not isinstance(node, float) or math.isfinite(node)


def load_model(path) -> Model | MlpParams:
    """Load a superposition model, or a baseline MLP written by save_mlp.

    Raises OSError when the file cannot be read and ValueError when it is
    not a model document or holds a number that is not finite, which
    save_model never writes.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read model {path}: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"cannot parse model {path}: {exc}") from exc
    try:
        if not _all_finite(doc):
            raise ValueError("a number is not finite")
        if isinstance(doc, dict) and doc.get("kind") == "mlp":
            return MlpParams.from_dict(doc)
        return model_from_dict(doc)
    except (AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model {path}: {exc!r}") from exc
