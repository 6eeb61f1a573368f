import json

import numpy as np
import pytest

from sal_learn import mlp, qp, reporting
from sal_learn.data import make_train, target_nondiff
from sal_learn.records import GradeRecord, TrainReport
from sal_learn.train import GradeConfig, TrainConfig, train_sal


def test_format_cell_six_significant_digits():
    assert reporting.format_cell(0.0001234567) == "1.23457e-04"
    assert reporting.format_cell(1.0) == "1.00000e+00"
    assert reporting.format_cell(None) == ""
    assert reporting.format_cell(7) == "7"
    assert reporting.format_cell("total_time") == "total_time"
    assert reporting.format_cell(True) == "True"


def test_write_csv_fixed_header_and_empty(tmp_path):
    path = tmp_path / "r.csv"
    rows = [
        GradeRecord(grade=1, tau=0.0, epsilon=1e-7, iterations=12,
                    train_time_s=0.5, rse_train=0.25, rse_test=None),
    ]
    reporting.write_csv(rows, path, columns=reporting.SAL_COLUMNS)
    lines = path.read_text().splitlines()
    assert lines[0] == "grade,tau,epsilon,iterations,train_time_s,rse_train,rse_test"
    assert lines[1] == "1,0.00000e+00,1.00000e-07,12,5.00000e-01,2.50000e-01,"
    reporting.write_csv([], path, columns=["a", "b"])
    assert path.read_text().splitlines() == ["a,b"]
    with pytest.raises(ValueError):
        reporting.write_csv([], path)


def test_sal_report_rows_append_total_time():
    report = TrainReport(
        records=[
            GradeRecord(grade=1, tau=0.0, epsilon=1e-7, iterations=3,
                        train_time_s=0.1, rse_train=0.5)
        ],
        total_time_s=1.25,
    )
    rows = reporting.sal_report_rows(report)
    assert rows[-1]["grade"] == "total_time"
    assert rows[-1]["train_time_s"] == 1.25
    assert rows[-1]["rse_train"] is None


def trained_model():
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 40)
    cfg = TrainConfig(
        grades=[GradeConfig(width=4, solver=qp.SolverConfig(method="direct"))] * 2
    )
    model, _ = train_sal(ds, cfg)
    return model, ds


def test_model_json_17_digit_roundtrip(tmp_path):
    model, ds = trained_model()
    path = tmp_path / "model.json"
    reporting.save_model(model, path)
    clone = reporting.load_model(path)
    # bit-exact parameters, hence bit-exact predictions
    for g1, g2 in zip(model.grades, clone.grades):
        assert np.array_equal(g1.weight, g2.weight)
        assert np.array_equal(g1.bias, g2.bias)
    assert np.array_equal(model.predict(ds.inputs), clone.predict(ds.inputs))


def test_model_save_is_idempotent_bytes(tmp_path):
    model, _ = trained_model()
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    reporting.save_model(model, p1)
    reporting.save_model(reporting.load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mlp_save_load_dispatch_and_idempotent_bytes(tmp_path):
    ds = make_train(target_nondiff(), -1.0, 1.0, 0.0, 30)
    params, _ = mlp.train_ssg(ds, mlp.MlpTrainConfig(widths=[4], epochs=5, seed=2))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    reporting.save_model(params, p1)
    clone = reporting.load_model(p1)
    assert isinstance(clone, mlp.MlpParams)
    assert np.array_equal(clone.predict(ds.inputs), params.predict(ds.inputs))
    reporting.save_model(clone, p2)
    assert p1.read_bytes() == p2.read_bytes()


# Model files as the format writes them: a cascade with a renormalized
# smoothed grade and a leaky_relu grade, a combination grade on a hybrid
# head, and a baseline MLP.
GOLDEN_CASCADE = """\
{
 "format_version": 1,
 "input_dim": 1,
 "output_dim": 1,
 "grades": [
  {
   "weight": [
    [
     0.33333333333333331
    ]
   ],
   "bias": [
    0.10000000000000001
   ],
   "mu": 0,
   "activation": {
    "kind": "relu",
    "params": {}
   },
   "smoothing": {
    "tau": 0.050000000000000003,
    "window_mode": {
     "mode": "grid_steps",
     "count": 4,
     "step": 0.01
    },
    "M": 5,
    "renormalize": true
   }
  },
  {
   "weight": [
    [
     -2
    ],
    [
     2.0000000000000001e-300
    ]
   ],
   "bias": [
    0,
    -0.10000000000000001
   ],
   "mu": 1,
   "activation": {
    "kind": "leaky_relu",
    "params": {
     "slope": 0.20000000000000001
    }
   },
   "smoothing": {
    "tau": 0
   }
  }
 ]
}
"""

GOLDEN_HYBRID = """\
{
 "format_version": 1,
 "input_dim": 1,
 "output_dim": 1,
 "grades": [
  {
   "weight": [
    [
     0.33333333333333331
    ]
   ],
   "bias": [
    0.20000000000000001
   ],
   "mu": 0,
   "activation": {
    "kind": "combination",
    "params": {
     "weights": [
      0.5,
      0.25
     ],
     "basis": [
      {
       "kind": "relu",
       "params": {}
      },
      {
       "kind": "tanh",
       "params": {}
      }
     ]
    }
   },
   "smoothing": {
    "tau": 0
   }
  }
 ],
 "hybrid_head": {
  "layers": [
   {
    "weight": [
     [
      -0.33333333333333331
     ]
    ],
    "bias": [
     0.10000000000000001
    ],
    "activation": {
     "kind": "relu",
     "params": {}
    }
   },
   {
    "weight": [
     [
      0.5
     ]
    ],
    "bias": [
     -1
    ],
    "activation": {
     "kind": "identity",
     "params": {}
    }
   }
  ]
 }
}
"""

GOLDEN_MLP = """\
{
 "format_version": 1,
 "kind": "mlp",
 "layers": [
  {
   "weight": [
    [
     0.33333333333333331,
     -0.10000000000000001
    ]
   ],
   "bias": [
    0
   ],
   "activation": {
    "kind": "tanh",
    "params": {}
   }
  },
  {
   "weight": [
    [
     1
    ]
   ],
   "bias": [
    0.001
   ],
   "activation": {
    "kind": "identity",
    "params": {}
   }
  }
 ]
}
"""


@pytest.mark.parametrize("text", [GOLDEN_CASCADE, GOLDEN_HYBRID, GOLDEN_MLP], ids=["cascade", "hybrid", "mlp"])
def test_model_file_bytes_are_pinned(tmp_path, text):
    src = tmp_path / "golden.json"
    src.write_text(text)
    out = tmp_path / "resaved.json"
    reporting.save_model(reporting.load_model(src), out)
    assert out.read_text() == text


def test_model_json_rejects_non_finite():
    model, _ = trained_model()
    model.grades[0].weight[0, 0] = float("nan")
    with pytest.raises(ValueError):
        reporting.model_json(model)


def test_float_formatting_is_shortest_exact():
    # 17 significant digits must re-read to the identical double
    for v in (1 / 3, 0.1, 2e-300, 123456.789):
        s = reporting._float_17g(v)
        assert float(s) == v


def test_write_errors_are_reported(tmp_path):
    model, _ = trained_model()
    with pytest.raises(OSError):
        reporting.save_model(model, tmp_path / "missing_dir" / "m.json")
    with pytest.raises(OSError):
        reporting.load_model(tmp_path / "nope.json")
    with pytest.raises(OSError):
        reporting.write_csv([], tmp_path / "missing_dir" / "r.csv", columns=["a"])
