"""Benchmark of the sal_learn grade cascade.

    python3 benchmarks/run.py --workload kinked --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is taken from the `src/` directory next to
this one.  Workloads and their checks are in benchmarks/spec.json, and the
sal-learn config of each workload in benchmarks/workloads/.

--trace 0 measures the end-to-end metrics, every one in a fresh process
with tracing off:
  * set-up: SETUP_PROBES processes that only import, parse the config and
    build the datasets, plus the set-up of each measured pass; median.
  * passes: fresh worker processes (worker.py) that train, save and
    evaluate, repeated until --seconds have passed (at least one); each
    metric is the median over the passes.
--trace 1 makes one traced pass and reports the per-layer metrics.
trace.overhead_s is the number of spans recorded during train_sal times
the cost of one span, measured in the same process on a wrapped no-op.

Every pass is checked; a failed check counts its operation as failed.  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full record of the run (environment, every pass,
every check) goes to .bench_out/results/ and the spans of a traced pass to
.bench_out/spans/, both under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BLAS threads are pinned: model bytes and rse differ between thread counts
# (summation order), so results repeat only at a fixed count.  2 is the
# thread count the repository's desk numbers were measured with.
BLAS_THREADS = "2"
SETUP_PROBES = 5
# A run must end within 180 s; no new process starts after this budget.
RUN_BUDGET_S = 170.0


def _median(values):
    return statistics.median(values) if values else None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    ref_file = root / ".git" / name
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    pkg = root / "src" / "sal_learn"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(pkg)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Starts worker processes for one workload and seed, within the run budget."""

    def __init__(self, workload: str, config: Path, seed: int, out_dir: Path):
        self.workload = workload
        self.config = config
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def worker(self, mode: str, trace: int = 0) -> dict:
        """One worker process; its output plus the set-up time seen from here."""
        self.count += 1
        run_id = f"{self.workload}-s{self.seed}-{self.count}"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--root", str(ROOT),
            "--config", str(self.config),
            "--seed", str(self.seed),
            "--mode", mode,
            "--trace", str(trace),
            "--run-id", run_id,
            "--model-out", str(self.out_dir / "models" / f"{self.workload}-s{self.seed}.json"),
            "--spans-out", str(self.out_dir / "spans" / f"{self.workload}-s{self.seed}.jsonl"),
        ]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=max(self.remaining(), 1.0)
            )
        except subprocess.TimeoutExpired:
            return {"mode": mode, "run_id": run_id, "errors": {"process": "timed out"}}
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"mode": mode, "errors": {}}
            res["errors"]["process"] = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        res["run_id"] = run_id
        res["wall_s"] = time.monotonic() - spawned
        if "ready_at" in res:
            res["setup_s"] = res["ready_at"] - spawned
        return res


def check(res: dict, ceilings: dict) -> dict:
    """Pass/fail of each operation the pass attempted, with the reasons."""
    errors = res.get("errors", {})
    broken = errors.get("process") or errors.get("setup")
    ops: dict = {"setup": [broken] if broken else []}
    if res["mode"] == "setup":
        return ops
    sal = [errors["sal"]] if "sal" in errors else []
    if broken:
        sal.append("no result")
    elif not sal:
        tr, te = res["rse_train"], res["rse_test"]
        if not all(math.isfinite(v) for v in tr + te):
            sal.append("non-finite rse")
        elif tr[-1] > tr[0]:
            sal.append(f"final rse_train {tr[-1]:.6e} above grade 1's {tr[0]:.6e}")
        elif te[-1] > ceilings["sal_rse_test"]:
            sal.append(f"final rse_test {te[-1]:.6e} above ceiling {ceilings['sal_rse_test']}")
    ops["sal"] = sal
    if res.get("trace") and "ssg_rse_test" in ceilings:
        ssg = [errors["ssg"]] if "ssg" in errors else []
        if broken:
            ssg.append("no result")
        elif not ssg:
            v = res["ssg_rse_test"]
            if not math.isfinite(v):
                ssg.append("non-finite rse")
            elif v > ceilings["ssg_rse_test"]:
                ssg.append(f"final rse_test {v:.6e} above ceiling {ceilings['ssg_rse_test']}")
        ops["ssg"] = ssg
    ev = [errors["eval"]] if "eval" in errors else []
    if broken:
        ev.append("no result")
    elif not ev:
        if not res.get("eval_finite"):
            ev.append("non-finite prediction")
        if not res.get("roundtrip_exact"):
            ev.append("reloaded model predicts differently from the trained one")
    ops["eval"] = ev
    return ops


def _declared_metrics(key: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


def _rse_rises(rse_train: list[float]) -> int:
    return sum(b > a for a, b in zip(rse_train, rse_train[1:]))


def measure(runner: Runner, seconds: float, trace: int):
    """Run the passes; return (passes, metric values)."""
    passes = []
    if trace:
        full = runner.worker("full", trace=1)
        passes.append(full)
        values = dict(full.get("layers", {}))
        values["train.rse_rises"] = _rse_rises(full.get("rse_train", []))
        values["reporting.model_bytes"] = full.get("model_bytes")
        values["sal_rse_test"] = full.get("eval_rse")
        values["eval_s"] = full.get("eval_s")
        # 0 on a workload without the Adam baseline, like an uncalled function
        values["ssg_train_s"] = full.get("ssg_train_s", 0.0)
        values["ssg_rse_test"] = full.get("ssg_rse_test", 0.0)
        values["mlp.epochs_run"] = full.get("epochs_run", 0)
        return passes, values

    start = time.monotonic()
    for _ in range(SETUP_PROBES):
        passes.append(runner.worker("setup"))
    last = 0.0
    while True:
        if runner.remaining() < 1.5 * last:
            break
        t0 = time.monotonic()
        passes.append(runner.worker("full"))
        last = time.monotonic() - t0
        if time.monotonic() - start >= seconds:
            break
    full = [p for p in passes if p["mode"] == "full"]
    values = {"setup_s": _median([p["setup_s"] for p in passes if "setup_s" in p])}
    for key in ("sal_train_s", "peak_rss_mb"):
        values[key] = _median([p[key] for p in full if key in p])
    return passes, values


def main(argv=None) -> int:
    if not (ROOT / "src" / "sal_learn" / "__init__.py").is_file():
        print(f"error: no sal_learn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    p = argparse.ArgumentParser(description="Benchmark of the sal_learn grade cascade.")
    p.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    wl = spec["workloads"][args.workload]
    out_dir = ROOT / ".bench_out"
    for sub in ("models", "spans", "results"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, HERE / wl["config"], args.seed, out_dir)
    passes, values = measure(runner, args.seconds, args.trace)

    checks = [check(res, wl["ceilings"]) for res in passes]
    attempted = sum(len(ops) for ops in checks)
    failed = sum(bool(reasons) for ops in checks for reasons in ops.values())
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if values.get(m["name"]) is not None
    }
    if len(metrics) < len(declared):
        failed += 1  # a metric with no measurement is a failed run
    attempted = max(attempted, failed, 1)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_sha256(ROOT),
        "env": next((r["env"] for r in passes if "env" in r), None),
        "model_sha256": next((r["model_sha256"] for r in passes if "model_sha256" in r), None),
        "passes": passes,
        "checks": checks,
        "metrics": metrics,
    }
    result_path = out_dir / "results" / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for op in checks:
        for name, reasons in op.items():
            for reason in reasons:
                print(f"FAILED {name}: {reason.strip().splitlines()[-1]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
