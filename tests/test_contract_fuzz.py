"""Fixed-value fuzz of the CLI contract on model files and configs.

Every key path of a model file (a smoothed two-grade cascade, a cascade on
a hybrid head, a baseline MLP) and of a config with every section is set,
in turn, to each of VALUES.  `eval` must then exit 0, or 2 with one
`model error:` line on stderr and nothing on stdout; `parse_config` must
return or raise ConfigError.  Nothing else may escape, not even a warning,
which the CLI would print to stderr beside that line.  The sizes stay
beyond the address space (10**15), so an allocation that cannot succeed
fails at once instead of taking gigabytes first.
"""

import copy
import json
import math
import warnings

import pytest

from sal_learn import cli
from sal_learn.cli import ConfigError, parse_config

VALUES = [None, True, "x", "x" * 5000, [], {}, 0, -1, math.nan, math.inf, 1e300, 10**15, 2.5, [[1.0, 2.0]]]

RELU = {"kind": "relu", "params": {}}
IDENTITY = {"kind": "identity", "params": {}}
MLP_LAYERS = [
    {"weight": [[1.0], [-1.0]], "bias": [0.0, 0.5], "activation": RELU},
    {"weight": [[0.5, 0.5]], "bias": [0.1], "activation": IDENTITY},
]
MODELS = {
    "cascade": {
        "format_version": 1,
        "input_dim": 1,
        "output_dim": 1,
        "grades": [
            {
                "weight": [[1.0], [0.5]],
                "bias": [0.0, 0.1],
                "mu": 1,
                "activation": RELU,
                "smoothing": {
                    "tau": 0.05,
                    "window_mode": {"mode": "grid_steps", "count": 4, "step": 0.01},
                    "M": 5,
                    "renormalize": True,
                },
            },
            {
                "weight": [[1.0, -1.0], [0.5, 0.5]],
                "bias": [0.0, 0.1],
                "mu": 1,
                "activation": {"kind": "leaky_relu", "params": {"slope": 0.1}},
                "smoothing": {"tau": 0.05, "window_mode": {"mode": "tau_multiples", "factor": 3.0}, "M": 5},
            },
        ],
    },
    "hybrid": {
        "format_version": 1,
        "input_dim": 1,
        "output_dim": 1,
        "grades": [
            {
                "weight": [[1.0, -1.0]],
                "bias": [0.0],
                "mu": 0,
                "activation": {
                    "kind": "combination",
                    "params": {"weights": [0.5, 0.5], "basis": [RELU, IDENTITY]},
                },
                "smoothing": {"tau": 0.0},
            }
        ],
        "hybrid_head": {"layers": MLP_LAYERS},
    },
    "mlp": {"format_version": 1, "kind": "mlp", "layers": MLP_LAYERS},
}

CONFIG = {
    "data": {"target": "nondiff", "a": -1.0, "b": 1.0, "delta": 0.1, "m": 21, "m_test": 5, "seed": 3},
    "sal": {
        "solver": {"method": "nesterov", "epsilon": 1e-7, "max_iters": 50, "ridge": 0.0,
                   "lipschitz_safety": 1.0, "init": "he", "init_seed": 2, "init_scale": 1.0},
        "grades": [
            {"width": 4, "activation": ["relu", {"kind": "leaky_relu", "slope": 0.1}], "method": "direct"},
            {"width": 4, "activation": "tanh", "tau": 0.01, "quad_points": 11, "smoothing_target": "component",
             "window": {"mode": "grid_steps", "count": 4, "step": 0.01}},
            {"width": 4, "tau": 0.01, "window": {"mode": "tau_multiples", "factor": 3.0}},
        ],
        "hybrid": {"widths": [4], "activations": ["relu"], "epochs": 5},
        "record_test_metrics": False,
    },
    "ssg": {"widths": [4, 4], "activations": ["sincos_half", "relu"], "alpha": 1e-3, "epochs": 5,
            "epsilon": 1e-7, "seed": 1, "checkpoints": [2]},
    "compare": {"thresholds": [1e-2, 1e-3]},
    "output": {"dir": "out", "csv": "r.csv", "model_path": "m.json"},
}


def key_paths(node, prefix=()):
    """Every path of keys and indices to an entry below node, outer first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def mutants(doc):
    """(path, value, text) for doc with the entry at path set to value."""
    for path in key_paths(doc):
        for value in VALUES:
            mutant = copy.deepcopy(doc)
            node = mutant
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield path, value, json.dumps(mutant)


@pytest.mark.parametrize("kind", list(MODELS))
def test_eval_of_a_mutated_model_exits_0_or_with_one_model_error_line(tmp_path, capsys, kind):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"data": CONFIG["data"]}))
    model_path = tmp_path / "model.json"
    args = ["eval", "--model", str(model_path), "--config", str(cfg_path)]
    model_path.write_text(json.dumps(MODELS[kind]))
    assert cli.main(args) == 0
    capsys.readouterr()
    failures = []
    for path, value, text in mutants(MODELS[kind]):
        model_path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(args)
            except Exception as exc:  # reported with its case below
                capsys.readouterr()
                failures.append((path, repr(value)[:20], f"raised {exc!r}"[:200]))
                continue
        out, err = capsys.readouterr()
        if caught:
            failures.append((path, repr(value)[:20], f"warned {caught[0].message}"[:200]))
        if code == 0:
            continue
        if code != 2 or out or not err.startswith("model error: ") or err.count("\n") != 1:
            failures.append((path, repr(value)[:20], f"exit {code}, stdout {out[:80]!r}, stderr {err[:200]!r}"))
    assert not failures


def test_parse_config_of_a_mutated_config_returns_or_raises_config_error(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    parse_config(cfg_path)
    failures = []
    for path, value, text in mutants(CONFIG):
        cfg_path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                parse_config(cfg_path)
            except ConfigError:
                pass
            except Exception as exc:  # reported with its case below
                failures.append((path, repr(value)[:20], repr(exc)[:200]))
        if caught:
            failures.append((path, repr(value)[:20], f"warned {caught[0].message}"[:200]))
    assert not failures
