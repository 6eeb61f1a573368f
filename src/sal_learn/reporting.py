"""CSV report emission and model files.

Every model file is read and written here: a superposition model (its
grades, and its hybrid head when it has one) or a baseline MLP, which the
"kind" key marks.  CSV numbers are scientific notation with 6 significant
digits; model files are JSON with every float written at 17 significant
digits, which round-trips IEEE doubles exactly, so load -> save is
byte-identical.
"""

from __future__ import annotations

import csv
import json
import json.encoder
import math
from dataclasses import asdict, is_dataclass
from typing import Any

import numpy as np

from . import smoothing
from .mlp import MlpParams
from .model import Activation, Grade, Model, Pooling, combination

FORMAT_VERSION = 1

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


# --- model documents --------------------------------------------------------


def _activation_to_dict(a: Activation) -> dict:
    if a.kind == "leaky_relu":
        return {"kind": a.kind, "params": {"slope": a.slope}}
    if a.kind == "combination":
        return {
            "kind": a.kind,
            "params": {
                "weights": list(a.weights),
                "basis": [_activation_to_dict(b) for b in a.basis],
            },
        }
    return {"kind": a.kind, "params": {}}


def _smoothing_to_dict(s: smoothing.Smoother | None) -> dict:
    if s is None:
        return {"tau": 0.0}
    doc = {"tau": s.tau, "window_mode": smoothing.window_to_dict(s.window), "M": s.quad_points}
    if s.renormalize:
        doc["renormalize"] = True
    return doc


def _layers_to_dict(params: MlpParams) -> dict:
    return {
        "layers": [
            {
                "weight": w.tolist(),
                "bias": b.tolist(),
                "activation": _activation_to_dict(a),
            }
            for w, b, a in zip(params.weights, params.biases, params.activations)
        ]
    }


def model_to_dict(model: Model | MlpParams) -> dict:
    """The document of a model file; a baseline MLP's is marked "kind": "mlp"."""
    if isinstance(model, MlpParams):
        return {"format_version": FORMAT_VERSION, "kind": "mlp", **_layers_to_dict(model)}
    doc = {
        "format_version": FORMAT_VERSION,
        "input_dim": model.input_dim,
        "output_dim": model.output_dim,
        "grades": [
            {
                "weight": g.weight.tolist(),
                "bias": g.bias.tolist(),
                "mu": g.pooling.mu,
                "activation": _activation_to_dict(g.activation),
                "smoothing": _smoothing_to_dict(g.smoother),
            }
            for g in model.grades
        ],
    }
    if model.head is not None:
        doc["hybrid_head"] = _layers_to_dict(model.head)
    return doc


def _json_int(value: Any, name: str) -> int:
    """A model file's integer field: a JSON integer, not a float or a bool."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def _json_number(value: Any, name: str) -> float:
    """A model file's real field: a JSON number, not a string or a bool."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return float(value)


def _all_numbers(node: Any) -> bool:
    return all(map(_all_numbers, node)) if isinstance(node, list) else type(node) in (int, float)


def _json_array(value: Any, name: str) -> np.ndarray:
    """A model file's weight or bias: (nested) lists of JSON numbers."""
    if not _all_numbers(value):
        raise ValueError(f"{name} must hold only numbers")
    return np.asarray(value, dtype=float)


def _activation_from_dict(d: dict) -> Activation:
    kind = d["kind"]
    params = d.get("params", {})
    if kind == "leaky_relu":
        return Activation(kind, slope=_json_number(params["slope"], "slope"))
    if kind == "combination":
        return combination(
            [_json_number(w, "combination weight") for w in params["weights"]],
            [_activation_from_dict(b) for b in params["basis"]],
        )
    return Activation(kind)


def _smoothing_from_dict(d: dict) -> smoothing.Smoother | None:
    tau = _json_number(d.get("tau", 0.0), "tau")
    if tau == 0.0:
        return None
    doc = d["window_mode"]
    window = smoothing.window_from_dict(doc)
    for key in smoothing.WINDOW_FIELDS[doc["mode"]]:
        (_json_int if key == "count" else _json_number)(doc[key], key)
    renormalize = d.get("renormalize", False)
    if not isinstance(renormalize, bool):
        raise ValueError(f"renormalize must be true or false, not {renormalize!r}")
    return smoothing.Smoother(tau, window, _json_int(d["M"], "M"), renormalize)


def _layers_from_dict(doc: dict) -> MlpParams:
    layers = doc["layers"]
    return MlpParams(
        weights=[_json_array(l["weight"], "weight") for l in layers],
        biases=[_json_array(l["bias"], "bias") for l in layers],
        activations=[_activation_from_dict(l["activation"]) for l in layers],
    )


def model_from_dict(doc: dict) -> Model | MlpParams:
    """The model of a model file's document: a baseline MLP when it is marked
    "kind": "mlp", a superposition model when it has no "kind".

    Raises ValueError (or the KeyError, TypeError ... of a missing or
    mistyped entry) when the document is not a model of this format_version,
    or when a width does not follow from the one before it.  Widths against
    input_dim are left to the caller, which can name both dims.
    """
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version: {version!r}")
    if "kind" in doc:
        if doc["kind"] != "mlp":
            raise ValueError(f"unknown model kind: {doc['kind']!r}")
        return _layers_from_dict(doc)
    t = _json_int(doc["output_dim"], "output_dim")
    head = None
    width = None  # the width of the features the next grade reads, when known
    if "hybrid_head" in doc:
        head = _layers_from_dict(doc["hybrid_head"])
        if head.output_dim != t:
            raise ValueError(f"hybrid head has {head.output_dim} outputs, output_dim is {t}")
        width = head.weights[-1].shape[1]
    grades = []
    for gd in doc["grades"]:
        g = Grade(
            weight=_json_array(gd["weight"], "weight"),
            bias=_json_array(gd["bias"], "bias"),
            pooling=Pooling(out_dim=t, mu=_json_int(gd["mu"], "mu")),
            activation=_activation_from_dict(gd["activation"]),
            smoother=_smoothing_from_dict(gd.get("smoothing", {"tau": 0.0})),
        )
        if width is not None and g.weight.shape[1] != width:
            raise ValueError(
                f"grade {len(grades) + 1} takes {g.weight.shape[1]} inputs, the features before it {width}"
            )
        grades.append(g)
        width = g.width
    if not grades and head is None:
        raise ValueError("model has no grades and no head")
    return Model(_json_int(doc["input_dim"], "input_dim"), t, grades, head)


def model_json(model: Model | MlpParams) -> str:
    return json.dumps(model_to_dict(model), cls=_PrecisionEncoder, indent=1)


def _write(text: str, path) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write model {path}: {exc}") from exc


def save_model(model: Model | MlpParams, path) -> None:
    _write(model_json(model), path)


def _all_finite(node) -> bool:
    """Whether every float in a parsed JSON document is finite; json reads
    NaN, Infinity and an overflowing literal such as 1e999 as non-finite."""
    if isinstance(node, dict):
        return all(map(_all_finite, node.values()))
    if isinstance(node, list):
        return all(map(_all_finite, node))
    return not isinstance(node, float) or math.isfinite(node)


def load_model(path) -> Model | MlpParams:
    """Load a superposition model or a baseline MLP.

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
        return model_from_dict(doc)
    except (AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model {path}: {exc!r}") from exc
