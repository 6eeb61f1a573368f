"""CLI tests: config validation, command flows, output determinism.

Everything runs through ``cli.main`` or ``cli.parse_config`` directly; no
subprocesses, so failures show up as ordinary assertion errors.
"""

import json
import re
from pathlib import Path

import pytest

from sal_learn import cli, mlp
from sal_learn.cli import ConfigError, main, parse_config
from sal_learn.model import Model
from sal_learn.reporting import load_model
from sal_learn.smoothing import WINDOW_FIELDS


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1) if isinstance(doc, dict) else doc)
    return str(path)


def sal_doc(**extra):
    """A small two-grade run on the kinked target; direct solves keep it fast."""
    doc = {
        "data": {"target": "nondiff", "m": 41, "m_test": 17},
        "sal": {
            "grades": [
                {"width": 6, "activation": "relu", "method": "direct"},
                {"width": 6, "activation": "sincos_half", "method": "direct"},
            ]
        },
    }
    doc.update(extra)
    return doc


def failing_sal_doc():
    """Grade 1 trains; grade 2 (4 features pooled to the 20 oscillatory
    outputs) fails."""
    return {
        "data": {"target": "oscillatory", "a": 0.0, "b": 1.0, "m": 51, "m_test": 13},
        "sal": {
            "grades": [
                {"width": 24, "method": "direct"},
                {"width": 4, "method": "direct"},
            ]
        },
    }


def accepted_keys():
    """Every key parse_config accepts, at any depth."""
    return (
        cli._TOP_KEYS | cli._DATA_KEYS | cli._SAL_KEYS | cli._GRADE_KEYS | cli._SSG_KEYS
        | cli._COMPARE_KEYS | cli._OUTPUT_KEYS
        | {"mode", *(k for ks in WINDOW_FIELDS.values() for k in ks)}  # window
        | {"kind", "slope"}  # activation object
    )


def keys_in(doc):
    if isinstance(doc, dict):
        return set(doc).union(*(keys_in(v) for v in doc.values()))
    if isinstance(doc, list):
        return set().union(*(keys_in(v) for v in doc))
    return set()


# --- config validation -------------------------------------------------


def test_missing_sections_are_named(tmp_path):
    with pytest.raises(ConfigError, match="data"):
        parse_config(write_config(tmp_path, {"output": {}}))
    with pytest.raises(ConfigError, match="missing required key: data.target"):
        parse_config(write_config(tmp_path, {"data": {"m": 5}}))
    with pytest.raises(ConfigError, match="missing required key: data.m"):
        parse_config(write_config(tmp_path, {"data": {"target": "nondiff"}}))


def test_duplicate_key_rejected(tmp_path):
    text = '{"data": {"target": "nondiff", "m": 5, "m": 7}}'
    with pytest.raises(ConfigError, match="duplicate key: 'm'"):
        parse_config(write_config(tmp_path, text))


def test_unknown_keys_reported_with_path(tmp_path):
    with pytest.raises(ConfigError, match="unknown key: frobnicate"):
        parse_config(write_config(tmp_path, {"frobnicate": 1, "data": {"target": "nondiff", "m": 5}}))
    doc = sal_doc()
    doc["sal"]["grades"][0]["kernel"] = "rbf"
    with pytest.raises(ConfigError, match=r"unknown key: sal.grades\[0\].kernel"):
        parse_config(write_config(tmp_path, doc))
    doc = sal_doc()
    doc["data"]["points"] = 10
    with pytest.raises(ConfigError, match="unknown key: data.points"):
        parse_config(write_config(tmp_path, doc))


def test_parse_error_reports_position(tmp_path):
    with pytest.raises(ConfigError, match="parse error at line 2, column"):
        parse_config(write_config(tmp_path, '{\n "data": }\n'))


def test_top_level_must_be_object(tmp_path):
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        parse_config(write_config(tmp_path, "[1, 2, 3]"))


def test_target_name_checked(tmp_path):
    doc = {"data": {"target": "cubic", "m": 5}}
    with pytest.raises(ConfigError, match="data.target must be 'nondiff', 'oscillatory', or 'custom'"):
        parse_config(write_config(tmp_path, doc))
    with pytest.raises(ConfigError, match="data.m must be >= 2"):
        parse_config(write_config(tmp_path, {"data": {"target": "nondiff", "m": 1}}))


def test_window_validation(tmp_path):
    doc = sal_doc()
    doc["sal"]["grades"][0].update({"tau": 1e-3, "window": {"mode": "boxcar"}})
    with pytest.raises(ConfigError, match="must be 'grid_steps' or 'tau_multiples'"):
        parse_config(write_config(tmp_path, doc))
    doc["sal"]["grades"][0]["window"] = {"mode": "tau_multiples", "step": 0.1}
    with pytest.raises(ConfigError, match=r"unknown key: sal.grades\[0\].window.step"):
        parse_config(write_config(tmp_path, doc))
    doc["sal"]["grades"][0]["window"] = {"mode": "tau_multiples"}
    with pytest.raises(ConfigError, match=r"missing required key: sal.grades\[0\].window.factor"):
        parse_config(write_config(tmp_path, doc))


def test_ssg_activation_count_must_match(tmp_path):
    doc = {
        "data": {"target": "nondiff", "m": 5},
        "ssg": {"widths": [4, 4], "activations": ["relu"]},
    }
    with pytest.raises(ConfigError, match="one activation per hidden layer"):
        parse_config(write_config(tmp_path, doc))


def test_unreadable_config(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(tmp_path / "nope.json"))


def test_bad_solver_value_carries_path(tmp_path):
    doc = sal_doc()
    doc["sal"]["grades"][1]["init_scale"] = 0.0
    with pytest.raises(ConfigError, match=r"sal.grades\[1\]: init_scale must be positive"):
        parse_config(write_config(tmp_path, doc))


def test_data_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"data": {"target": "nondiff", "m": 9}}))
    assert cfg.data == {
        "target": "nondiff",
        "a": -1.0,
        "b": 1.0,
        "delta": 0.0,
        "m": 9,
        "m_test": 0,
        "seed": 1,
    }
    assert cfg.thresholds == [1e-2, 1e-3, 1e-4]
    assert cfg.sal is None and cfg.ssg is None


def test_solver_defaults_merge_into_grades(tmp_path):
    doc = sal_doc()
    doc["sal"]["solver"] = {"method": "direct", "init_scale": 3.0, "epsilon": 1e-9}
    doc["sal"]["grades"] = [
        {"width": 4},
        {"width": 4, "method": "nesterov", "init_scale": 1.5},
    ]
    cfg = parse_config(write_config(tmp_path, doc))
    g1, g2 = cfg.sal.grades
    assert g1.solver.method == "direct"
    assert g1.solver.init_scale == 3.0
    assert g1.solver.epsilon == 1e-9
    assert g2.solver.method == "nesterov"
    assert g2.solver.init_scale == 1.5
    assert g2.solver.epsilon == 1e-9  # run-level default still applies


def test_seed_override_reaches_every_consumer(tmp_path):
    doc = sal_doc()
    doc["data"]["seed"] = 11
    doc["sal"]["grades"][0]["init_seed"] = 11
    doc["ssg"] = {"widths": [4], "seed": 11}
    cfg = parse_config(write_config(tmp_path, doc), seed_override=7)
    assert cfg.data["seed"] == 7
    assert all(g.solver.init_seed == 7 for g in cfg.sal.grades)
    assert cfg.ssg.seed == 7


def test_echo_holds_resolved_values(tmp_path):
    doc = sal_doc()
    doc["sal"]["grades"][1].update(
        {"tau": 2e-3, "window": {"mode": "grid_steps", "count": 5, "step": 0.01}}
    )
    cfg = parse_config(write_config(tmp_path, doc), out_override=str(tmp_path / "out"))
    grades = cfg.echo["sal"]["grades"]
    assert grades[0]["method"] == "direct"
    assert grades[0]["init_scale"] == 1.0
    assert grades[1]["window"] == {"mode": "grid_steps", "count": 5, "step": 0.01}
    assert cfg.echo["data"]["m"] == 41
    assert cfg.echo["output"]["dir"].endswith("out")
    assert cfg.echo["compare"]["thresholds"] == [1e-2, 1e-3, 1e-4]


_EVERY_KEY = {
    "data": {
        "target": "custom",
        "a": -0.5,
        "b": 2,
        "delta": 0.125,
        "m": 33,
        "m_test": 9,
        "seed": 4,
        "coeff_file": "coeffs.txt",
        "custom_file": "table.csv",
    },
    "sal": {
        "solver": {
            "method": "direct",
            "epsilon": 1e-9,
            "max_iters": 700,
            "ridge": 0.5,
            "lipschitz_safety": 1.25,
            "init": "he",
            "init_seed": 3,
            "init_scale": 2,
        },
        "grades": [
            {
                "width": 5,
                "activation": ["relu", {"kind": "leaky_relu", "slope": 0.3}, "sincos_half"],
                "tau": 0.01,
                "window": {"mode": "grid_steps", "count": 7, "step": 0.002},
                "quad_points": 31,
                "smoothing_target": "residual",
                "method": "nesterov",
                "epsilon": 1e-6,
                "max_iters": 40,
                "ridge": 0,
                "lipschitz_safety": 1,
                "init": "randn",
                "init_seed": 8,
                "init_scale": 0.5,
            },
            {
                "width": 6,
                "activation": {"kind": "leaky_relu", "slope": 0.2},
                "tau": 0.02,
                "window": {"mode": "tau_multiples", "factor": 4},
            },
            {"width": 7, "activation": "tanh", "max_iters": 9},
        ],
        "hybrid": {
            "widths": [4, 3],
            "activations": ["tanh", {"kind": "leaky_relu", "slope": 0.1}],
            "alpha": 0.01,
            "epochs": 12,
            "epsilon": 1e-8,
            "seed": 5,
            "checkpoints": [3, 6],
        },
        "record_test_metrics": False,
    },
    "ssg": {
        "widths": [8],
        "activations": ["sincos_half"],
        "alpha": 0.002,
        "epochs": 25,
        "epsilon": 1e-9,
        "seed": 6,
        "checkpoints": [5, 10, 20],
    },
    "compare": {"thresholds": [0.5, 1e-3]},
    "output": {"dir": "runs/every_key", "csv": "report.csv", "model_path": "model.json"},
}

# the echo of _EVERY_KEY, frozen: config_echo.json keeps these keys, their
# order and their values
_EVERY_KEY_ECHO = (
    '{"data": {"target": "custom", "a": -0.5, "b": 2.0, "delta": 0.125, "m": 33, "m_test": 9, '
    '"seed": 4, "coeff_file": "coeffs.txt", "custom_file": "table.csv"}, '
    '"output": {"dir": "runs/every_key"}, "compare": {"thresholds": [0.5, 0.001]}, '
    '"sal": {"grades": [{"width": 5, "activation": ["relu", {"kind": "leaky_relu", '
    '"slope": 0.3}, "sincos_half"], "tau": 0.01, "quad_points": 31, '
    '"smoothing_target": "residual", "method": "nesterov", "epsilon": 1e-06, "max_iters": 40, '
    '"ridge": 0.0, "lipschitz_safety": 1.0, "init": "randn", "init_seed": 8, '
    '"init_scale": 0.5, "window": {"mode": "grid_steps", "count": 7, "step": 0.002}}, '
    '{"width": 6, "activation": {"kind": "leaky_relu", "slope": 0.2}, "tau": 0.02, '
    '"quad_points": 200, "smoothing_target": "component", "method": "direct", '
    '"epsilon": 1e-09, "max_iters": 700, "ridge": 0.5, "lipschitz_safety": 1.25, "init": "he", '
    '"init_seed": 3, "init_scale": 2.0, "window": {"mode": "tau_multiples", "factor": 4.0}}, '
    '{"width": 7, "activation": "tanh", "tau": 0.0, "quad_points": 200, '
    '"smoothing_target": "component", "method": "direct", "epsilon": 1e-09, "max_iters": 9, '
    '"ridge": 0.5, "lipschitz_safety": 1.25, "init": "he", "init_seed": 3, '
    '"init_scale": 2.0}], "record_test_metrics": false, "hybrid": {"widths": [4, 3], '
    '"activations": ["tanh", {"kind": "leaky_relu", "slope": 0.1}], "alpha": 0.01, '
    '"epochs": 12, "epsilon": 1e-08, "seed": 5, "checkpoints": [3, 6]}}, '
    '"ssg": {"widths": [8], "activations": ["sincos_half"], "alpha": 0.002, "epochs": 25, '
    '"epsilon": 1e-09, "seed": 6, "checkpoints": [5, 10, 20]}}'
)


def test_config_setting_every_key_echoes_as_frozen(tmp_path):
    assert keys_in(_EVERY_KEY) == accepted_keys()
    cfg = parse_config(write_config(tmp_path, _EVERY_KEY))
    assert json.dumps(cfg.echo) == _EVERY_KEY_ECHO


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`+([^`]+)`+", cli_section))))
    assert sorted(accepted_keys() - named) == []


_WRONG_TYPES = [
    (lambda d: d["data"].update(m="abc"), "data.m"),
    (lambda d: d["data"].update(m=float("inf")), "data.m"),
    (lambda d: d["data"].update(seed=None), "data.seed"),
    (lambda d: d["sal"]["grades"][0].update(width="x"), "sal.grades[0].width"),
    (lambda d: d["sal"]["grades"][1].update(tau=[0.1]), "sal.grades[1].tau"),
    (lambda d: d["sal"]["grades"][0].update(epsilon="x"), "sal.grades[0].epsilon"),
    (lambda d: d["sal"]["grades"][0].update(max_iters=[5]), "sal.grades[0].max_iters"),
    (
        lambda d: d["sal"]["grades"][0].update(activation={"kind": "leaky_relu", "slope": {}}),
        "sal.grades[0].activation.slope",
    ),
    (
        lambda d: d["sal"]["grades"][0].update(tau=0.1, window={"mode": ["grid_steps"]}),
        "sal.grades[0].window.mode",
    ),
    (
        lambda d: d["sal"]["grades"][0].update(
            tau=0.1, window={"mode": "tau_multiples", "factor": None}
        ),
        "sal.grades[0].window",
    ),
    (lambda d: d["sal"].update(grades=5), "sal.grades"),
    (lambda d: d["sal"].update(solver=[1]), "sal.solver"),
    (lambda d: d["sal"].update(solver={"init_scale": None}), "sal.solver.init_scale"),
    (lambda d: d.update(ssg={"widths": [4, None]}), "ssg.widths[1]"),
    (lambda d: d.update(ssg={"widths": [4], "epochs": "many"}), "ssg.epochs"),
    (lambda d: d.update(compare={"thresholds": 0.1}), "compare.thresholds"),
    (lambda d: d.update(output={"dir": 7}), "output.dir"),
    (lambda d: d["sal"].update(record_test_metrics="false"), "sal.record_test_metrics"),
    (lambda d: d["sal"].update(record_test_metrics=0), "sal.record_test_metrics"),
    (lambda d: d["sal"].update(record_test_metrics=None), "sal.record_test_metrics"),
    (lambda d: d.update(output={"csv": 7}), "output.csv"),
    (lambda d: d.update(output={"model_path": ["m.json"]}), "output.model_path"),
]


@pytest.mark.parametrize(
    "edit, where", _WRONG_TYPES, ids=[f"{where}-{i}" for i, (_, where) in enumerate(_WRONG_TYPES)]
)
def test_wrong_typed_value_exits_with_2_naming_its_path_once(tmp_path, capsys, edit, where):
    doc = sal_doc()
    edit(doc)
    out = tmp_path / "out"
    args = ["train-sal", "--config", write_config(tmp_path, doc)]
    if where != "output.dir":  # --out would stand in for output.dir
        args += ["--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.err.count(where) == 1
    assert captured.err.count(where.split(".")[0]) == 1
    assert not out.exists() and sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_numbers_are_read_as_before(tmp_path):
    # integral floats, booleans and numeric strings keep parsing to the same config
    plain, loose = sal_doc(), sal_doc()
    plain["data"].update(a=-1.0, b=1.0, seed=1)
    loose["data"].update(a=-1, b=True, m=41.0, m_test="17", seed=True)
    for doc in (plain, loose):
        doc["sal"]["grades"][1].update(tau=0.5, window={"mode": "grid_steps", "count": 2, "step": 1})
        doc["compare"] = {"thresholds": [1]}
    plain["sal"]["grades"][0].update(width=6, max_iters=1, epsilon=1.0)
    loose["sal"]["grades"][0].update(width=6.0, max_iters=True, epsilon=1)
    plain["sal"]["grades"][1]["window"]["step"] = 1.0
    loose["sal"]["grades"][1]["window"]["count"] = 2.0
    got = [
        parse_config(write_config(tmp_path, doc, f"{name}.json"), out_override="o")
        for name, doc in [("plain", plain), ("loose", loose)]
    ]
    assert json.dumps(got[0].echo) == json.dumps(got[1].echo)
    assert got[0].data == got[1].data and got[0].sal == got[1].sal
    assert got[1].data["m"] == 41 and got[1].data["seed"] == 1 and got[1].thresholds == [1.0]


def test_window_modes_echo_their_fields(tmp_path):
    doc = sal_doc()
    doc["sal"]["grades"][0].update(tau=1e-3, window={"mode": "grid_steps", "count": 4, "step": 0.01})
    doc["sal"]["grades"][1].update(tau=1e-3, window={"mode": "tau_multiples", "factor": 6})
    cfg = parse_config(write_config(tmp_path, doc))
    echoed = [json.dumps(g["window"]) for g in cfg.echo["sal"]["grades"]]
    assert echoed == [
        '{"mode": "grid_steps", "count": 4, "step": 0.01}',
        '{"mode": "tau_multiples", "factor": 6.0}',
    ]


@pytest.mark.parametrize("command", ["train-sal", "compare"])
def test_data_too_large_for_memory_exits_with_2_before_writing(tmp_path, capsys, command):
    # 10**15 grid points need 8 PB, beyond any address space, so the
    # allocation fails at once
    doc = sal_doc(ssg={"widths": [4], "epochs": 5})
    doc["data"]["m"] = 10**15
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-sal", "train-ssg", "compare"])
@pytest.mark.parametrize("key, value", [("csv", 3), ("csv", False), ("model_path", {"a": 1})])
def test_non_string_output_name_exits_with_2_before_writing(tmp_path, capsys, command, key, value):
    doc = sal_doc(ssg={"widths": [4], "epochs": 5}, output={key: value})
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: output.{key} must be a string\n"
    assert not out.exists()


def test_output_names_and_test_tracking_echo_as_before(tmp_path):
    doc = sal_doc(output={"csv": "r.csv", "model_path": None})
    doc["sal"]["record_test_metrics"] = False
    cfg = parse_config(write_config(tmp_path, doc), out_override="o")
    assert (cfg.csv_name, cfg.model_name) == ("r.csv", None)
    assert cfg.sal.record_test_metrics is False
    assert json.dumps(cfg.echo["sal"]).endswith('"record_test_metrics": false}')
    cfg = parse_config(write_config(tmp_path, sal_doc()), out_override="o")
    assert cfg.sal.record_test_metrics is True


def test_test_set_too_large_for_memory_exits_with_2_before_writing(tmp_path, capsys):
    # 10**15 test points: the draw allocates at once and fails, instead of
    # drawing points one by one
    doc = sal_doc()
    doc["data"]["m_test"] = 10**15
    out = tmp_path / "out"
    assert main(["train-sal", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and captured.err.count("\n") == 1
    assert not out.exists()


# --- command flows -----------------------------------------------------


def read_csv_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    return [line.split(",") for line in lines]


def test_train_sal_end_to_end(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sal_doc())
    out = tmp_path / "run1"
    assert main(["train-sal", "--config", cfg_path, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out

    rows = read_csv_rows(out / "sal_report.csv")
    assert rows[0] == ["grade", "tau", "epsilon", "iterations", "train_time_s", "rse_train", "rse_test"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "total_time"]
    # both grades report a test-set error and errors never grow
    rse = [float(r[5]) for r in rows[1:3]]
    assert rse[1] <= rse[0] + 1e-12
    assert rows[1][6] != "" and rows[2][6] != ""

    model = load_model(out / "sal_model.json")
    assert isinstance(model, Model)
    assert len(model.grades) == 2

    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["data"]["target"] == "nondiff"
    assert echo["sal"]["grades"][0]["init_scale"] == 1.0

    log = (out / "run.log").read_text()
    assert "command: train-sal" in log
    assert "grade 1:" in log and "total_time_s:" in log


def test_run_log_names_each_grade_solver_outcome(tmp_path):
    doc = sal_doc()
    doc["sal"]["grades"][0].update(
        {"method": "nesterov", "init": "randn", "epsilon": 1e-15, "max_iters": 5}
    )
    out = tmp_path / "out"
    assert main(["train-sal", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "run.log").read_text().splitlines()
    grade_lines = [line for line in lines if line.startswith("grade ")]
    assert grade_lines[0].startswith("grade 1: iterations=5 ")
    number = r"\d\.\d{6}e[+-]\d\d"
    assert re.search(f" stop=max_iters objective={number} lipschitz={number}$", grade_lines[0])
    assert " stop=direct" in grade_lines[1]
    assert "objective=" not in grade_lines[1] and "lipschitz=" not in grade_lines[1]
    for line in grade_lines:
        assert re.search(r" rse_train=\S+ pythagoras_defect=\S+ energy_share=\d\.\d{5}e[+-]\d\d stop=", line)
    # the direct grade is an exact projection
    assert abs(float(re.search(r"pythagoras_defect=(\S+)", grade_lines[1]).group(1))) < 1e-12
    header = read_csv_rows(out / "sal_report.csv")[0]
    assert "stop_reason" not in header and "note" not in header
    assert "objective" not in header and "lipschitz" not in header
    assert "pythagoras_defect" not in header and "energy_share" not in header


def test_run_log_gives_units_and_orthogonality_defect(tmp_path):
    # a direct grade at t = 1 has one unit: every row of lift(M^T) is equal
    doc = sal_doc()
    doc["sal"]["grades"].append({"width": 5, "activation": "tanh", "init": "randn", "max_iters": 5})
    out = tmp_path / "out"
    assert main(["train-sal", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "run.log").read_text().splitlines()
    grade_lines = [line for line in lines if line.startswith("grade ")]
    assert [re.search(r" units=(\S+)", line)[1] for line in grade_lines[:2]] == ["1/6", "1/6"]
    assert " units=" not in grade_lines[2]  # a random start keeps its rows distinct
    for line in grade_lines:
        assert re.search(r" orthogonality_defect=\d\.\d{3}e[+-]\d\d rse_train=", line)
    # the first grade is an exact, uncut least squares on [x 1]
    assert float(re.search(r"orthogonality_defect=(\S+)", grade_lines[0])[1]) < 1e-9


def masked_report(path):
    """CSV rows with the wall-time column blanked out."""
    rows = read_csv_rows(path)
    idx = rows[0].index("train_time_s")
    for row in rows[1:]:
        row[idx] = "masked"
    return rows


def test_train_sal_deterministic_across_runs(tmp_path):
    doc = sal_doc()
    doc["sal"]["grades"][0].update(
        {"method": "nesterov", "init": "randn", "init_seed": 3, "max_iters": 60}
    )
    cfg_path = write_config(tmp_path, doc)
    for out in ("a", "b"):
        assert main(["train-sal", "--config", cfg_path, "--out", str(tmp_path / out)]) == 0
    assert masked_report(tmp_path / "a" / "sal_report.csv") == masked_report(
        tmp_path / "b" / "sal_report.csv"
    )
    bytes_a = (tmp_path / "a" / "sal_model.json").read_bytes()
    bytes_b = (tmp_path / "b" / "sal_model.json").read_bytes()
    assert bytes_a == bytes_b


def test_seed_flag_changes_the_fit(tmp_path):
    doc = sal_doc()
    doc["sal"]["grades"][0].update(
        {"method": "nesterov", "init": "randn", "max_iters": 40}
    )
    cfg_path = write_config(tmp_path, doc)
    assert main(["train-sal", "--config", cfg_path, "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
    assert main(["train-sal", "--config", cfg_path, "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
    m1 = (tmp_path / "s1" / "sal_model.json").read_bytes()
    m2 = (tmp_path / "s2" / "sal_model.json").read_bytes()
    assert m1 != m2
    assert json.loads((tmp_path / "s2" / "config_echo.json").read_text())["data"]["seed"] == 2


def test_train_sal_failure_leaves_partial_report(tmp_path, capsys):
    doc = failing_sal_doc()
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "fail"
    assert main(["train-sal", "--config", cfg_path, "--out", str(out)]) == 1
    assert "grade 2 failed" in capsys.readouterr().err
    rows = read_csv_rows(out / "sal_report.csv")
    assert [r[0] for r in rows[1:]] == ["1", "total_time"]  # grade 1 survived
    log = (out / "run.log").read_text()
    assert "grade 1: iterations=" in log and " stop=direct" in log  # the grade that survived
    assert "FAILED:" in log
    assert not (out / "sal_model.json").exists()
    # grade 1's test error is reported as a run of grade 1 alone reports it
    doc["sal"]["grades"].pop()
    alone = tmp_path / "alone"
    assert main(["train-sal", "--config", write_config(tmp_path, doc), "--out", str(alone)]) == 0
    assert rows[1][6] != "" and rows[1][6] == read_csv_rows(alone / "sal_report.csv")[1][6]


def test_commands_demand_their_section(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"data": {"target": "nondiff", "m": 9}})
    assert main(["train-sal", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert main(["train-ssg", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "no sal section" in err and "no ssg section" in err


def test_config_errors_exit_with_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, '{"data": }')
    assert main(["train-sal", "--config", cfg_path]) == 2
    assert "config error:" in capsys.readouterr().err


def test_train_ssg_end_to_end(tmp_path):
    doc = {
        "data": {"target": "nondiff", "m": 41, "m_test": 17},
        "ssg": {"widths": [6], "alpha": 1e-2, "epochs": 40, "checkpoints": [10], "seed": 2},
    }
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "ssg"
    assert main(["train-ssg", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_csv_rows(out / "ssg_report.csv")
    assert rows[0][:4] == ["structure", "alpha", "epsilon", "epoch"]
    assert [r[3] for r in rows[1:]] == ["10", "40"]
    assert rows[1][0] == "6x1"
    params = load_model(out / "ssg_model.json")
    assert isinstance(params, mlp.MlpParams)
    doc_json = json.loads((out / "ssg_model.json").read_text())
    assert doc_json["kind"] == "mlp" and doc_json["format_version"] == 1


def test_compare_end_to_end(tmp_path, capsys):
    doc = {
        "data": {"target": "nondiff", "m": 41, "m_test": 17},
        "sal": {"grades": [{"width": 8, "method": "direct"}]},
        "ssg": {"widths": [4], "alpha": 1e-2, "epochs": 30, "seed": 2},
        "compare": {"thresholds": [0.9]},
    }
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 0

    rows = read_csv_rows(out / "compare.csv")
    assert rows[0] == ["method", "stage", "cumulative_time_s", "rse_train", "rse_test"]
    methods = {r[0] for r in rows[1:]}
    assert methods == {"sal", "ssg"}
    sal_stage = [r[1] for r in rows[1:] if r[0] == "sal"]
    assert sal_stage == ["grade 1"]

    summary = (out / "compare_summary.txt").read_text()
    assert "rse <= 9.00000e-01" in summary
    assert "first to reach" in summary
    assert summary.strip() in capsys.readouterr().out
    assert "grade 1: iterations=" in (out / "run.log").read_text()


def test_compare_failure_keeps_the_grades_that_trained(tmp_path, capsys):
    doc = failing_sal_doc()
    doc["ssg"] = {"widths": [4], "epochs": 5}
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 1
    assert main(["train-sal", "--config", cfg_path, "--out", str(tmp_path / "sal")]) == 1
    capsys.readouterr()
    partial = read_csv_rows(tmp_path / "sal" / "sal_report.csv")[1]
    sal_rows = [r for r in read_csv_rows(out / "compare.csv")[1:] if r[0] == "sal"]
    assert [r[1] for r in sal_rows] == ["grade 1"]
    assert sal_rows[0][4] != "" and sal_rows[0][4] == partial[6]
    log = (out / "run.log").read_text()
    assert "grade 1: iterations=" in log and "sal FAILED: " in log
    assert (out / "compare_summary.txt").exists()


def test_eval_matches_training_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sal_doc())
    out = tmp_path / "run"
    assert main(["train-sal", "--config", cfg_path, "--out", str(out)]) == 0
    reported = float(read_csv_rows(out / "sal_report.csv")[2][5])
    capsys.readouterr()

    model_path = str(out / "sal_model.json")
    assert main(["eval", "--model", model_path, "--config", cfg_path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("rse(train) = ")
    assert lines[1].startswith("rse(test) = ")
    assert float(lines[0].split("=")[1]) == pytest.approx(reported, rel=1e-9)


def test_eval_missing_model_exits_with_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sal_doc())
    missing = str(tmp_path / "absent.json")
    assert main(["eval", "--model", missing, "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and "absent.json" in err
    assert err.count("\n") == 1


def _smoothed_model_text(**fields):
    """A one-grade smoothed model file, with `fields` overriding the
    grade's mu or its smoothing block's M and renormalize."""
    smoothing = {"tau": 0.05, "window_mode": {"mode": "tau_multiples", "factor": 3.0}, "M": 21}
    grade = {
        "weight": [[1.0], [0.5], [-0.5]],
        "bias": [0.0, 0.1, 0.2],
        "mu": fields.pop("mu", 2),
        "activation": {"kind": "relu", "params": {}},
        "smoothing": {**smoothing, **fields},
    }
    return json.dumps({"format_version": 1, "input_dim": 1, "output_dim": 1, "grades": [grade]})


def _edited_model_text(path, value, text=None):
    """A model file, by default the one-grade smoothed one, with the entry at
    `path` (keys and indices) set to `value`."""
    doc = json.loads(text or _smoothed_model_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


_MLP_MODEL_TEXT = json.dumps(
    {
        "format_version": 1,
        "kind": "mlp",
        "layers": [
            {"weight": [[1.0], [-1.0]], "bias": [0.0, 0.5], "activation": {"kind": "relu", "params": {}}},
            {"weight": [[0.5, 0.5]], "bias": [0.1], "activation": {"kind": "identity", "params": {}}},
        ],
    }
)


_HYBRID_MODEL_TEXT = json.dumps(
    {
        "format_version": 1,
        "input_dim": 1,
        "output_dim": 1,
        "grades": [
            {"weight": [[1.0, -1.0]], "bias": [0.0], "mu": 0, "activation": {"kind": "relu", "params": {}}},
        ],
        "hybrid_head": {"layers": json.loads(_MLP_MODEL_TEXT)["layers"]},
    }
)


def test_eval_malformed_model_exits_with_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sal_doc())
    grade = ["grades", 0]
    grid_steps = {"mode": "grid_steps", "count": 4, "step": 0.01}
    leaky = {"kind": "leaky_relu", "params": {"slope": 0.1}}
    slope_string = {"kind": "leaky_relu", "params": {"slope": "0.1"}}
    basis = [{"kind": "relu"}, {"kind": "tanh"}]
    mixed = {"kind": "combination", "params": {"weights": [0.5, 1], "basis": basis}}
    mix_bool = {"kind": "combination", "params": {"weights": [0.5, True], "basis": basis}}
    smoothed = json.loads(_smoothed_model_text())["grades"][0]
    # a second grade reads the first's 3 features; 2 inputs fit neither that nor input_dim 1
    two_grades = _edited_model_text(["grades"], [smoothed, {**smoothed, "weight": [[1.0, 2.0, 3.0]] * 3}])
    two_inputs = {**smoothed, "weight": [[1.0, 2.0]] * 3}
    head_out2 = {"weight": [[0.5, 0.5]] * 2, "bias": [0.1, 0.1], "activation": {"kind": "identity"}}
    well_formed = (
        _smoothed_model_text(renormalize=True),
        _smoothed_model_text(window_mode=grid_steps),
        _edited_model_text(grade + ["activation"], leaky),
        _edited_model_text(grade + ["activation"], mixed),
        _MLP_MODEL_TEXT,
        _HYBRID_MODEL_TEXT,
        two_grades,
    )
    for i, text in enumerate(well_formed):
        good = tmp_path / f"good{i}.json"
        good.write_text(text)
        assert main(["eval", "--model", str(good), "--config", cfg_path]) == 0
    capsys.readouterr()
    cases = (
        ("truncated.json", '{"grades": ['),
        ("version.json", '{"format_version": 7, "grades": []}'),
        ("keys.json", '{"format_version": 1, "input_dim": 1, "output_dim": 1, "grades": [{}]}'),
        # nested deeper than the recursion limit, when parsed and when checked
        ("deep.json", "[" * 100_000 + "]" * 100_000),
        ("nested.json", "[" * 900 + "]" * 900),
        # renormalize is a JSON boolean, M and mu are JSON integers
        ("renormalize_string.json", _smoothed_model_text(renormalize="false")),
        ("renormalize_int.json", _smoothed_model_text(renormalize=0)),
        ("m_fraction.json", _smoothed_model_text(M=20.9)),
        ("m_float.json", _smoothed_model_text(M=21.0)),
        ("m_bool.json", _smoothed_model_text(M=True)),
        ("mu_fraction.json", _smoothed_model_text(mu=2.5)),
        ("mu_bool.json", _smoothed_model_text(mu=True)),
        # every other number is a JSON number, and a count or dim an integer
        ("count_fraction.json", _smoothed_model_text(window_mode={**grid_steps, "count": 4.7})),
        ("count_bool.json", _smoothed_model_text(window_mode={**grid_steps, "count": True})),
        ("step_string.json", _smoothed_model_text(window_mode={**grid_steps, "step": "0.01"})),
        ("factor_bool.json", _smoothed_model_text(window_mode={"mode": "tau_multiples", "factor": True})),
        ("tau_string.json", _smoothed_model_text(tau="0.05")),
        ("tau_bool.json", _smoothed_model_text(tau=False)),
        # renormalized weights that underflow to a zero sum (nodes at -6..10, tau 0.05)
        ("zero_weights.json", _smoothed_model_text(
            renormalize=True, window_mode={**grid_steps, "step": 2.5}, M=5)),
        ("input_dim_string.json", _edited_model_text(["input_dim"], "1")),
        ("output_dim_fraction.json", _edited_model_text(["output_dim"], 1.5)),
        ("weight_string.json", _edited_model_text(grade + ["weight", 0, 0], "1.0")),
        ("weight_bool.json", _edited_model_text(grade + ["weight", 0, 0], True)),
        ("bias_string.json", _edited_model_text(grade + ["bias", 1], "0.1")),
        ("slope_string.json", _edited_model_text(grade + ["activation"], slope_string)),
        ("mix_bool.json", _edited_model_text(grade + ["activation"], mix_bool)),
        ("mlp_weight_string.json", _edited_model_text(["layers", 0, "weight", 1, 0], "-1.0", _MLP_MODEL_TEXT)),
        ("mlp_bias_bool.json", _edited_model_text(["layers", 1, "bias", 0], True, _MLP_MODEL_TEXT)),
        # one format_version and two kinds, for cascades and MLPs alike
        ("mlp_version.json", _edited_model_text(["format_version"], 7, _MLP_MODEL_TEXT)),
        ("kind.json", _edited_model_text(["kind"], "cascade")),
        # widths and dims that do not follow from the layer before
        ("no_grades.json", _edited_model_text(["grades"], [])),
        ("grade_width.json", _edited_model_text(["grades", 1], two_inputs, two_grades)),
        ("first_width.json", _edited_model_text(grade + ["weight"], two_inputs["weight"])),
        ("head_outputs.json", _edited_model_text(["hybrid_head", "layers", 1], head_out2, _HYBRID_MODEL_TEXT)),
        ("head_inputs.json", _edited_model_text(["hybrid_head", "layers", 0, "weight"], [[1.0, 1.0]] * 2,
                                                _HYBRID_MODEL_TEXT)),
    )
    for name, text in cases:
        path = tmp_path / name
        path.write_text(text)
        assert main(["eval", "--model", str(path), "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("model error: ") and name in err
        assert err.count("\n") == 1


def test_eval_model_of_other_dims_exits_with_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sal_doc())
    out = tmp_path / "run"
    assert main(["train-sal", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    model_path = str(out / "sal_model.json")
    doc = json.loads((out / "sal_model.json").read_text())
    doc["input_dim"] = 2
    wide_input = tmp_path / "wide_input.json"
    wide_input.write_text(json.dumps(doc))
    # the oscillatory target has 20 outputs; rse would broadcast (n, 1) against them
    osc_cfg = write_config(
        tmp_path, {"data": {"target": "oscillatory", "a": 0.0, "b": 1.0, "m": 41}}, "osc.json"
    )
    for model, cfg, dims in [
        (str(wide_input), cfg_path, ("2 -> 1", "1 -> 1")),
        (model_path, osc_cfg, ("1 -> 1", "1 -> 20")),
    ]:
        assert main(["eval", "--model", model, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("model error: ") and captured.err.count("\n") == 1
        assert f"model maps {dims[0]} dims, the config's data {dims[1]}" in captured.err
    assert main(["eval", "--model", model_path, "--config", cfg_path]) == 0


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """A cascade, a cascade on a hybrid head and a baseline MLP: for each, the
    config that trained it, its model file and the path to its first weight."""
    root = tmp_path_factory.mktemp("trained")
    hybrid = sal_doc()
    hybrid["sal"]["hybrid"] = {"widths": [4], "epochs": 5}
    mlp_doc = {"data": sal_doc()["data"], "ssg": {"widths": [4], "epochs": 5}}
    runs = {
        "cascade": ("train-sal", sal_doc(), "sal_model.json", ["grades", 0]),
        "hybrid": ("train-sal", hybrid, "sal_model.json", ["hybrid_head", "layers", 0]),
        "mlp": ("train-ssg", mlp_doc, "ssg_model.json", ["layers", 0]),
    }
    models = {}
    for name, (command, doc, model_name, where) in runs.items():
        cfg_path = write_config(root, doc, f"{name}.json")
        assert main([command, "--config", cfg_path, "--out", str(root / name)]) == 0
        models[name] = (cfg_path, root / name / model_name, where + ["weight", 0, 0])
    return models


@pytest.mark.parametrize("kind", ["cascade", "hybrid", "mlp"])
@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "1e999", "-1e999", "401-digit-int"],
)
def test_eval_refuses_a_model_holding_a_non_finite_number(tmp_path, capsys, trained_models, kind, literal):
    cfg_path, model_path, where = trained_models[kind]
    assert main(["eval", "--model", str(model_path), "--config", cfg_path]) == 0
    capsys.readouterr()
    doc = json.loads(model_path.read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"@"', literal))
    assert main(["eval", "--model", str(bad), "--config", cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("model error: ") and captured.err.count("\n") == 1
    assert str(bad) in captured.err


@pytest.mark.parametrize("quad_points", [10**15, 10**400], ids=["1e15", "1e400"])
def test_eval_model_too_large_to_evaluate_exits_with_2(tmp_path, capsys, quad_points):
    doc = sal_doc()
    doc["sal"]["grades"][1].update(tau=0.01, window={"mode": "tau_multiples", "factor": 3}, quad_points=11)
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["train-sal", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    model = json.loads((out / "sal_model.json").read_text())
    # 10**15 quadrature points are beyond any address space, so evaluating
    # the smoothed grade fails its allocation at once; 10**400 is beyond a double
    model["grades"][1]["smoothing"]["M"] = quad_points
    big = tmp_path / "big.json"
    big.write_text(json.dumps(model))
    assert main(["eval", "--model", str(big), "--config", cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("model error: cannot evaluate the model: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["train-sal", "train-ssg", "compare"])
def test_uncreatable_output_dir_exits_with_2(tmp_path, capsys, command):
    doc = sal_doc(ssg={"widths": [4], "epochs": 5})
    cfg_path = write_config(tmp_path, doc)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([command, "--config", cfg_path, "--out", str(blocker / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(blocker) in err



@pytest.mark.parametrize("command", ["train-sal", "train-ssg", "compare", "eval"])
@pytest.mark.parametrize(
    "target, key, text",
    [
        ("oscillatory", "coeff_file", None),
        ("custom", "custom_file", None),
        ("oscillatory", "coeff_file", "1 2.0 3.0\n"),
        ("custom", "custom_file", "0.0,x\n1.0,2.0\n"),
    ],
)
def test_bad_data_file_exits_with_2_before_writing(tmp_path, capsys, command, target, key, text):
    path = tmp_path / "absent" / "table.txt"
    if text is not None:
        path = tmp_path / "table.txt"
        path.write_text(text)
    doc = sal_doc(ssg={"widths": [4], "epochs": 5})
    doc["data"].update({"target": target, key: str(path)})
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    if command == "eval":
        trained = tmp_path / "trained"
        assert main(["train-sal", "--config", write_config(tmp_path, sal_doc(), "ok.json"),
                     "--out", str(trained)]) == 0
        capsys.readouterr()
        args = ["eval", "--model", str(trained / "sal_model.json"), "--config", cfg_path]
    else:
        args = [command, "--config", cfg_path, "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err
    assert not out.exists()

def test_command_is_required():
    with pytest.raises(SystemExit):
        main([])
