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
    header = read_csv_rows(out / "sal_report.csv")[0]
    assert "stop_reason" not in header and "note" not in header
    assert "objective" not in header and "lipschitz" not in header


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
    doc = {
        "data": {"target": "oscillatory", "a": 0.0, "b": 1.0, "m": 51},
        "sal": {
            "grades": [
                {"width": 24, "method": "direct"},
                {"width": 4, "method": "direct"},
            ]
        },
    }
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


def test_eval_malformed_model_exits_with_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sal_doc())
    cases = (
        ("truncated.json", '{"grades": ['),
        ("version.json", '{"format_version": 7, "grades": []}'),
        ("keys.json", '{"format_version": 1, "input_dim": 1, "output_dim": 1, "grades": [{}]}'),
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
