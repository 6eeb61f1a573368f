"""Command-line interface: train-sal, train-ssg, compare, eval.

One JSON config drives every command so both training methods always see
identical datasets.  Commands write their outputs (CSV report, model file,
resolved-config echo, run log) into the output directory; everything except
wall-time fields is deterministic given the config.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as bench
from . import mlp, qp, train
from .model import Activation, Model
from .records import TrainReport
from .reporting import (
    SAL_COLUMNS,
    SSG_COLUMNS,
    format_cell,
    load_model,
    sal_report_rows,
    save_mlp,
    save_model,
    write_csv,
)
from .smoothing import WINDOW_FIELDS, window_from_dict, window_to_dict


class ConfigError(ValueError):
    pass


# --- config parsing ---------------------------------------------------------

_TOP_KEYS = {"data", "sal", "ssg", "compare", "output"}
_DATA_KEYS = {"target", "a", "b", "delta", "m", "m_test", "seed", "coeff_file", "custom_file"}
_SAL_KEYS = {"solver", "grades", "hybrid", "record_test_metrics"}
_SOLVER_KEYS = {
    "method",
    "epsilon",
    "max_iters",
    "ridge",
    "lipschitz_safety",
    "init",
    "init_seed",
    "init_scale",
}
_GRADE_KEYS = {"width", "activation", "tau", "window", "quad_points", "smoothing_target"} | _SOLVER_KEYS
_SSG_KEYS = {"widths", "activations", "alpha", "epochs", "epsilon", "seed", "checkpoints"}
_HYBRID_KEYS = _SSG_KEYS
_COMPARE_KEYS = {"thresholds"}
_OUTPUT_KEYS = {"dir", "csv", "model_path"}


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key: {key!r}")
        out[key] = value
    return out


def _check_keys(obj, allowed: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in obj:
        where = f"{path}.{key}" if path else key
        if key not in allowed:
            raise ConfigError(f"unknown key: {where}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"missing required key: {path}.{key}" if path else key)
    return obj[key]


def _number(kind, value, path: str):
    """kind(value) for kind int or float, as the config reads every number
    (so 2001.0 and true are accepted); a value it cannot convert is a
    ConfigError naming its path."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _numbers(value, kind, path: str) -> list:
    """Every item of a list of numbers, each converted by _number."""
    try:
        items = list(value)
    except TypeError:
        raise ConfigError(f"{path} must be a list") from None
    return [_number(kind, v, f"{path}[{i}]") for i, v in enumerate(items)]


def _activation_one(spec, path: str) -> Activation:
    if isinstance(spec, str):
        kind, extra = spec, {}
    elif isinstance(spec, dict):
        kind = _require(spec, "kind", path)
        unknown = set(spec) - {"kind", "slope"}
        if unknown:
            raise ConfigError(f"unknown key: {path}.{sorted(unknown)[0]}")
        extra = {"slope": _number(float, spec["slope"], f"{path}.slope")} if "slope" in spec else {}
    else:
        raise ConfigError(f"{path} must be an activation name, object, or list")
    try:
        return Activation(kind, **extra)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _activation_field(spec, path: str):
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{path} must not be an empty list")
        return [_activation_one(s, f"{path}[{i}]") for i, s in enumerate(spec)]
    return _activation_one(spec, path)


def _window(spec, path: str):
    _check_keys(spec, {"mode"}.union(*WINDOW_FIELDS.values()), path)
    mode = _require(spec, "mode", path)
    if not isinstance(mode, str) or mode not in WINDOW_FIELDS:
        raise ConfigError(f"{path}.mode must be 'grid_steps' or 'tau_multiples'")
    _check_keys(spec, {"mode", *WINDOW_FIELDS[mode]}, path)
    for key in WINDOW_FIELDS[mode]:
        _require(spec, key, path)
    try:
        return window_from_dict(spec)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _solver(doc: dict, defaults: qp.SolverConfig, path: str) -> qp.SolverConfig:
    numbers = {
        key: _number(kind, doc.get(key, getattr(defaults, key)), f"{path}.{key}")
        for key, kind in [
            ("epsilon", float),
            ("max_iters", int),
            ("ridge", float),
            ("lipschitz_safety", float),
            ("init_seed", int),
            ("init_scale", float),
        ]
    }
    try:
        return qp.SolverConfig(
            method=doc.get("method", defaults.method), init=doc.get("init", defaults.init), **numbers
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _grade(doc: dict, defaults: qp.SolverConfig, path: str) -> train.GradeConfig:
    _check_keys(doc, _GRADE_KEYS, path)
    width = _number(int, _require(doc, "width", path), f"{path}.width")
    activation = _activation_field(doc.get("activation", "relu"), f"{path}.activation")
    tau = _number(float, doc.get("tau", 0.0), f"{path}.tau")
    window = _window(doc["window"], f"{path}.window") if "window" in doc else None
    quad_points = _number(int, doc.get("quad_points", 200), f"{path}.quad_points")
    solver = _solver(doc, defaults, path)
    try:
        return train.GradeConfig(
            width=width,
            activation=activation,
            tau=tau,
            window=window,
            quad_points=quad_points,
            smoothing_target=doc.get("smoothing_target", "component"),
            solver=solver,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _mlp_config(doc: dict, path: str, allowed: set) -> mlp.MlpTrainConfig:
    _check_keys(doc, allowed, path)
    widths = _numbers(_require(doc, "widths", path), int, f"{path}.widths")
    activations = None
    if "activations" in doc:
        acts = doc["activations"]
        if not isinstance(acts, list) or len(acts) != len(widths):
            raise ConfigError(f"{path}.activations must list one activation per hidden layer")
        activations = [_activation_one(a, f"{path}.activations[{i}]") for i, a in enumerate(acts)]
    checkpoints = None
    if "checkpoints" in doc:
        checkpoints = _numbers(doc["checkpoints"], int, f"{path}.checkpoints")
    return mlp.MlpTrainConfig(
        widths=widths,
        activations=activations,
        alpha=_number(float, doc.get("alpha", 1e-3), f"{path}.alpha"),
        epochs=_number(int, doc.get("epochs", 5000), f"{path}.epochs"),
        epsilon=_number(float, doc.get("epsilon", 1e-7), f"{path}.epsilon"),
        seed=_number(int, doc.get("seed", 1), f"{path}.seed"),
        checkpoints=checkpoints,
    )


@dataclass
class RunConfig:
    data: dict
    sal: train.TrainConfig | None
    ssg: mlp.MlpTrainConfig | None
    thresholds: list[float]
    out_dir: Path
    csv_name: str | None
    model_name: str | None
    echo: dict = field(default_factory=dict)


def parse_config(
    path, out_override: str | None = None, seed_override: int | None = None
) -> RunConfig:
    """Load, validate, and resolve a config file; unknown keys are rejected
    with their path named, duplicates and JSON syntax errors are reported
    with position info."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "")

    data_doc = _require(doc, "data", "")
    _check_keys(data_doc, _DATA_KEYS, "data")
    _require(data_doc, "target", "data")
    _require(data_doc, "m", "data")
    resolved_data = {
        "target": data_doc["target"],
        "a": _number(float, data_doc.get("a", -1.0), "data.a"),
        "b": _number(float, data_doc.get("b", 1.0), "data.b"),
        "delta": _number(float, data_doc.get("delta", 0.0), "data.delta"),
        "m": _number(int, data_doc["m"], "data.m"),
        "m_test": _number(int, data_doc.get("m_test", 0), "data.m_test"),
        "seed": _number(
            int, seed_override if seed_override is not None else data_doc.get("seed", 1), "data.seed"
        ),
    }
    for key in ("coeff_file", "custom_file"):
        if key in data_doc:
            resolved_data[key] = data_doc[key]
    if resolved_data["target"] not in ("nondiff", "oscillatory", "custom"):
        raise ConfigError("data.target must be 'nondiff', 'oscillatory', or 'custom'")
    if resolved_data["m"] < 2:
        raise ConfigError("data.m must be >= 2 (the train grid's two ends)")

    sal_cfg = None
    if "sal" in doc:
        sal_doc = doc["sal"]
        _check_keys(sal_doc, _SAL_KEYS, "sal")
        if "solver" in sal_doc:
            _check_keys(sal_doc["solver"], _SOLVER_KEYS, "sal.solver")
        defaults = _solver(sal_doc.get("solver", {}), qp.SolverConfig(), "sal.solver")
        try:
            grade_docs = list(sal_doc.get("grades", []))
        except TypeError:
            raise ConfigError("sal.grades must be a list") from None
        grades = [_grade(g, defaults, f"sal.grades[{i}]") for i, g in enumerate(grade_docs)]
        if seed_override is not None:
            for g in grades:
                g.solver.init_seed = seed_override
        head = None
        if "hybrid" in sal_doc:
            head = _mlp_config(sal_doc["hybrid"], "sal.hybrid", _HYBRID_KEYS)
            if seed_override is not None:
                head.seed = seed_override
        try:
            sal_cfg = train.TrainConfig(
                grades=grades,
                head=head,
                record_test_metrics=bool(sal_doc.get("record_test_metrics", True)),
            )
        except ValueError as exc:
            raise ConfigError(f"sal: {exc}") from None

    ssg_cfg = None
    if "ssg" in doc:
        ssg_cfg = _mlp_config(doc["ssg"], "ssg", _SSG_KEYS)
        if seed_override is not None:
            ssg_cfg.seed = seed_override

    thresholds = [1e-2, 1e-3, 1e-4]
    if "compare" in doc:
        _check_keys(doc["compare"], _COMPARE_KEYS, "compare")
        if "thresholds" in doc["compare"]:
            thresholds = _numbers(doc["compare"]["thresholds"], float, "compare.thresholds")

    out_doc = doc.get("output", {})
    _check_keys(out_doc, _OUTPUT_KEYS, "output")
    if out_override is None and not isinstance(out_doc.get("dir", "."), str):
        raise ConfigError("output.dir must be a string")
    out_dir = Path(out_override) if out_override is not None else Path(out_doc.get("dir", "."))

    echo = {
        "data": resolved_data,
        "output": {"dir": str(out_dir)},
        "compare": {"thresholds": thresholds},
    }
    if "sal" in doc:
        echo["sal"] = _echo_sal(sal_cfg)
    if "ssg" in doc:
        echo["ssg"] = _echo_mlp(ssg_cfg)

    return RunConfig(
        data=resolved_data,
        sal=sal_cfg,
        ssg=ssg_cfg,
        thresholds=thresholds,
        out_dir=out_dir,
        csv_name=out_doc.get("csv"),
        model_name=out_doc.get("model_path"),
        echo=echo,
    )


def _echo_activation(a) -> object:
    if isinstance(a, list):
        return [_echo_activation(x) for x in a]
    if a.kind == "leaky_relu":
        return {"kind": a.kind, "slope": a.slope}
    return a.kind


def _echo_sal(cfg: train.TrainConfig) -> dict:
    grades = []
    for g in cfg.grades:
        entry = {
            "width": g.width,
            "activation": _echo_activation(g.activation),
            "tau": g.tau,
            "quad_points": g.quad_points,
            "smoothing_target": g.smoothing_target,
            "method": g.solver.method,
            "epsilon": g.solver.epsilon,
            "max_iters": g.solver.max_iters,
            "ridge": g.solver.ridge,
            "lipschitz_safety": g.solver.lipschitz_safety,
            "init": g.solver.init,
            "init_seed": g.solver.init_seed,
            "init_scale": g.solver.init_scale,
        }
        if g.window is not None:
            entry["window"] = window_to_dict(g.window)
        grades.append(entry)
    out = {"grades": grades, "record_test_metrics": cfg.record_test_metrics}
    if cfg.head is not None:
        out["hybrid"] = _echo_mlp(cfg.head)
    return out


def _echo_mlp(cfg: mlp.MlpTrainConfig) -> dict:
    return {
        "widths": cfg.widths,
        "activations": None if cfg.activations is None else [_echo_activation(a) for a in cfg.activations],
        "alpha": cfg.alpha,
        "epochs": cfg.epochs,
        "epsilon": cfg.epsilon,
        "seed": cfg.seed,
        "checkpoints": cfg.checkpoints,
    }


# --- command bodies ---------------------------------------------------------


def _build_datasets(cfg: RunConfig):
    """The train and test sets; None (after one `data error` line) when the
    target's file cannot be read or holds no valid target, or the sets do
    not fit in memory."""
    d = cfg.data
    path = d.get("custom_file" if d["target"] == "custom" else "coeff_file")
    try:
        target = bench.get_target(
            d["target"], coeff_path=d.get("coeff_file"), custom_path=d.get("custom_file")
        )
    except OSError as exc:
        print(f"data error: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"data error: {path + ': ' if path else ''}{exc}", file=sys.stderr)
        return None
    try:
        train_set = bench.make_train(target, d["a"], d["b"], d["delta"], d["m"])
        test_set = None
        if d["m_test"] > 0:
            test_set = bench.make_test(target, d["a"], d["b"], d["m_test"], d["seed"])
    except MemoryError as exc:
        print(f"data error: cannot build the data sets: {exc or 'out of memory'}", file=sys.stderr)
        return None
    return train_set, test_set


def _prepare_out(cfg: RunConfig) -> Path | None:
    """Create the output directory and echo the config there; None (after one
    `output error` line) when that fails."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        with open(cfg.out_dir / "config_echo.json", "w") as fh:
            json.dump(cfg.echo, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return None
    return cfg.out_dir


def _log(out_dir: Path, lines: list[str]) -> None:
    with open(out_dir / "run.log", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _grade_lines(report: TrainReport) -> list[str]:
    """One run.log line per grade: iterations, rse_train and the solver's
    outcome, with the final objective and the Lipschitz estimate of a
    Nesterov solve."""
    lines = []
    for rec in report.records:
        line = (
            f"grade {rec.grade}: iterations={rec.iterations} rse_train={rec.rse_train:.5e}"
            f" stop={rec.stop_reason}"
        )
        if rec.lipschitz is not None:
            line += f" objective={rec.objective:.6e} lipschitz={rec.lipschitz:.6e}"
        lines.append(line + (f" note={rec.note}" if rec.note else ""))
    return lines


def cmd_train_sal(cfg: RunConfig) -> int:
    if cfg.sal is None:
        print("error: config has no sal section", file=sys.stderr)
        return 2
    datasets = _build_datasets(cfg)
    out_dir = _prepare_out(cfg) if datasets is not None else None
    if out_dir is None:
        return 2
    train_set, test_set = datasets
    csv_path = out_dir / (cfg.csv_name or "sal_report.csv")
    model_path = out_dir / (cfg.model_name or "sal_model.json")
    log = [f"command: train-sal", f"train points: {train_set.inputs.shape[0]}"]
    try:
        model, report = train.train_sal(train_set, cfg.sal, test=test_set)
    except train.TrainError as exc:
        partial = exc.report or TrainReport()
        write_csv(sal_report_rows(partial), csv_path, SAL_COLUMNS)
        _log(out_dir, log + _grade_lines(partial) + [f"FAILED: {exc}"])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_csv(sal_report_rows(report), csv_path, SAL_COLUMNS)
    save_model(model, model_path)
    log += _grade_lines(report)
    log.append(f"total_time_s: {report.total_time_s:.3f}")
    _log(out_dir, log)
    print(f"wrote {csv_path} and {model_path}")
    return 0


def cmd_train_ssg(cfg: RunConfig) -> int:
    if cfg.ssg is None:
        print("error: config has no ssg section", file=sys.stderr)
        return 2
    datasets = _build_datasets(cfg)
    out_dir = _prepare_out(cfg) if datasets is not None else None
    if out_dir is None:
        return 2
    train_set, test_set = datasets
    csv_path = out_dir / (cfg.csv_name or "ssg_report.csv")
    model_path = out_dir / (cfg.model_name or "ssg_model.json")
    try:
        params, report = mlp.train_ssg(train_set, cfg.ssg, test=test_set)
    except RuntimeError as exc:
        _log(out_dir, [f"command: train-ssg", f"FAILED: {exc}"])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_csv(report.records, csv_path, SSG_COLUMNS)
    save_mlp(params, model_path)
    _log(
        out_dir,
        [f"command: train-ssg", f"metadata: {report.metadata}", f"total_time_s: {report.total_time_s:.3f}"],
    )
    print(f"wrote {csv_path} and {model_path}")
    return 0


def _sal_time_to(report: TrainReport, threshold: float) -> tuple[float, str] | None:
    elapsed = 0.0
    for rec in report.records:
        elapsed += rec.train_time_s
        if rec.rse_train <= threshold:
            return elapsed, f"grade {rec.grade}"
    return None


def _ssg_time_to(report: TrainReport, threshold: float) -> tuple[float, str] | None:
    for steps, elapsed, rse_val in report.trace or []:
        if rse_val <= threshold:
            return elapsed, f"epoch {steps}"
    return None


def cmd_compare(cfg: RunConfig) -> int:
    if cfg.sal is None:
        print("error: compare needs a sal section", file=sys.stderr)
        return 2
    if cfg.ssg is None:
        print("error: compare needs an ssg section", file=sys.stderr)
        return 2
    datasets = _build_datasets(cfg)
    out_dir = _prepare_out(cfg) if datasets is not None else None
    if out_dir is None:
        return 2
    train_set, test_set = datasets
    csv_path = out_dir / (cfg.csv_name or "compare.csv")

    sal_report = ssg_report = None
    sal_err = ssg_err = None
    try:
        _, sal_report = train.train_sal(train_set, cfg.sal, test=test_set)
    except train.TrainError as exc:
        sal_err = str(exc)
    try:
        _, ssg_report = mlp.train_ssg(train_set, cfg.ssg, test=test_set)
    except RuntimeError as exc:
        ssg_err = str(exc)

    rows = []
    if sal_report is not None:
        cum = 0.0
        for rec in sal_report.records:
            cum += rec.train_time_s
            rows.append(
                {
                    "method": "sal",
                    "stage": f"grade {rec.grade}",
                    "cumulative_time_s": cum,
                    "rse_train": rec.rse_train,
                    "rse_test": rec.rse_test,
                }
            )
    if ssg_report is not None:
        for rec in ssg_report.records:
            rows.append(
                {
                    "method": "ssg",
                    "stage": f"epoch {rec.epoch}",
                    "cumulative_time_s": rec.train_time_s,
                    "rse_train": rec.rse_train,
                    "rse_test": rec.rse_test,
                }
            )
    write_csv(rows, csv_path, ["method", "stage", "cumulative_time_s", "rse_train", "rse_test"])

    lines = []
    if sal_err:
        lines.append(f"sal FAILED: {sal_err}")
    if ssg_err:
        lines.append(f"ssg FAILED: {ssg_err}")
    for thr in cfg.thresholds:
        sal_hit = _sal_time_to(sal_report, thr) if sal_report else None
        ssg_hit = _ssg_time_to(ssg_report, thr) if ssg_report else None
        sal_txt = f"{sal_hit[0]:.3f} s ({sal_hit[1]})" if sal_hit else "not reached"
        ssg_txt = f"{ssg_hit[0]:.3f} s ({ssg_hit[1]})" if ssg_hit else "not reached"
        if sal_hit and (not ssg_hit or sal_hit[0] < ssg_hit[0]):
            first = "sal"
        elif ssg_hit:
            first = "ssg"
        else:
            first = "neither"
        line = f"rse <= {format_cell(thr)}: sal {sal_txt}; ssg {ssg_txt}; first to reach: {first}"
        if sal_hit and ssg_hit and sal_hit[0] > 0:
            line += f"; time ratio ssg/sal = {ssg_hit[0] / sal_hit[0]:.2f}"
        lines.append(line)
    summary = "\n".join(lines)
    with open(out_dir / "compare_summary.txt", "w") as fh:
        fh.write(summary + "\n")
    print(summary)
    grade_lines = _grade_lines(sal_report) if sal_report is not None else []
    _log(out_dir, ["command: compare"] + grade_lines + lines)
    return 0 if sal_err is None and ssg_err is None else 1


def cmd_eval(model_path, cfg: RunConfig) -> int:
    try:
        model = load_model(model_path)
    except (OSError, ValueError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2
    datasets = _build_datasets(cfg)
    if datasets is None:
        return 2
    train_set, test_set = datasets
    data_dims = (train_set.inputs.shape[1], train_set.targets.shape[1])
    if (model.input_dim, model.output_dim) != data_dims:
        print(
            f"model error: model maps {model.input_dim} -> {model.output_dim} dims,"
            f" the config's data {data_dims[0]} -> {data_dims[1]}",
            file=sys.stderr,
        )
        return 2
    pred = model.predict(train_set.inputs)
    print(f"rse(train) = {train.rse(pred, train_set.targets):.5e}")
    if test_set is not None:
        pred_test = model.predict(test_set.inputs)
        print(f"rse(test) = {train.rse(pred_test, test_set.targets):.5e}")
    return 0


# --- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sal-learn",
        description="Grade-by-grade affine least-squares training and its MLP baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train-sal", "train-ssg", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int, default=None, help="override config seeds")
    p_eval = sub.add_parser("eval")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, getattr(args, "out", None), args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "train-sal":
        return cmd_train_sal(cfg)
    if args.command == "train-ssg":
        return cmd_train_ssg(cfg)
    if args.command == "compare":
        return cmd_compare(cfg)
    return cmd_eval(args.model, cfg)


if __name__ == "__main__":
    sys.exit(main())
