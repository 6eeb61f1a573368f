"""One pass of a benchmark workload, in a fresh process.

Run by run.py, never by hand.  The pass makes the same public calls as
`sal-learn compare` followed by `sal-learn eval`:

  setup  import sal_learn, cli.parse_config, data.make_train / make_test
  sal    train.train_sal with per-grade test tracking
  ssg    mlp.train_ssg on the same data, when the config has an ssg section;
         traced passes only, since its time is a per-layer metric
  eval   reporting.load_model of the saved cascade, Model.predict on the
         test points, train.rse

Each phase is timed from outside with time.perf_counter.  The pass prints
one JSON object as its last stdout line: the raw times and outputs that
run.py checks and aggregates.  The moment the datasets are ready is given
on the system-wide monotonic clock, so run.py can time set-up from before
it started this process.

Modes: "setup" stops after set-up, "full" runs every phase.  With
--trace 1 the Tracer wraps the layers first and the result carries the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


ROUNDTRIP_POINTS = 25


def _error() -> str:
    return traceback.format_exc(limit=4)


def _env() -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    try:
        import numpy as np

        env["numpy"] = np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (ImportError, TypeError, KeyError, AttributeError):
        pass
    return env


def run_pass(args) -> dict:
    root = Path(args.root)
    out: dict = {"mode": args.mode, "trace": args.trace, "errors": {}}
    sys.path.insert(0, str(root / "src"))
    tracer = None
    try:
        import numpy as np

        import sal_learn
        from sal_learn import cli, data, mlp, reporting, train

        src = Path(sal_learn.__file__).resolve().parent
        if src != (root / "src" / "sal_learn").resolve():
            raise ImportError(f"imported sal_learn from {src}, not from the checkout")
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
        cfg = cli.parse_config(args.config, seed_override=args.seed)
        d = cfg.data
        target = data.get_target(
            d["target"], coeff_path=d.get("coeff_file"), custom_path=d.get("custom_file")
        )
        train_set = data.make_train(target, d["a"], d["b"], d["delta"], d["m"])
        test_set = data.make_test(target, d["a"], d["b"], d["m_test"], d["seed"])
        out["ready_at"] = time.monotonic()
    except Exception:
        out["errors"]["setup"] = _error()
        return out
    if args.mode == "setup":
        return out

    model = None
    try:
        spans0 = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        model, report = train.train_sal(train_set, cfg.sal, test=test_set)
        out["sal_train_s"] = time.perf_counter() - t0
        if tracer:
            out["sal_spans"] = len(tracer.spans) - spans0
        out["rse_train"] = [r.rse_train for r in report.records]
        out["rse_test"] = [r.rse_test for r in report.records]
        out["iterations"] = [r.iterations for r in report.records]
    except Exception:
        out["errors"]["sal"] = _error()

    if tracer is not None and cfg.ssg is not None:
        try:
            t0 = time.perf_counter()
            _, ssg_report = mlp.train_ssg(train_set, cfg.ssg, test=test_set)
            out["ssg_train_s"] = time.perf_counter() - t0
            out["ssg_rse_test"] = ssg_report.records[-1].rse_test
            out["epochs_run"] = ssg_report.metadata["epochs_run"]
        except Exception:
            out["errors"]["ssg"] = _error()

    loaded = None
    if model is None:
        out["errors"]["eval"] = "no trained cascade to evaluate"
    else:
        try:
            model_path = Path(args.model_out)
            reporting.save_model(model, model_path)
            blob = model_path.read_bytes()
            out["model_bytes"] = len(blob)
            out["model_sha256"] = hashlib.sha256(blob).hexdigest()
            t0 = time.perf_counter()
            loaded = reporting.load_model(model_path)
            pred = loaded.predict(test_set.inputs)
            out["eval_rse"] = train.rse(pred, test_set.targets)
            out["eval_s"] = time.perf_counter() - t0
            out["eval_finite"] = bool(np.all(np.isfinite(pred)))
        except Exception:
            out["errors"]["eval"] = _error()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.restore()
        out["layers"] = tracer.metrics()
        out["layers"]["trace.overhead_s"] = out.get("sal_spans", 0) * tracer.span_cost()
        tracer.write(args.spans_out)
    if loaded is not None and "eval" not in out["errors"]:
        # Round trip, outside every timed phase and after the tracer is
        # removed: on the first ROUNDTRIP_POINTS test points the reloaded
        # cascade must predict exactly what the trained one does.  A subset
        # keeps the check at a few percent of an eval.
        try:
            sub = test_set.inputs[:ROUNDTRIP_POINTS]
            out["roundtrip_exact"] = bool(np.array_equal(loaded.predict(sub), model.predict(sub)))
        except Exception:
            out["errors"]["eval"] = _error()
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "full"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-id", default="")
    p.add_argument("--model-out")
    p.add_argument("--spans-out")
    out = run_pass(p.parse_args())
    out["env"] = _env()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
