"""Spans around the public functions of each sal_learn layer.

The tracer replaces named functions on their module or class with wrappers
that record one span per call: name, start, end, parent span, run id and
grade index.  Spans stay in memory until the pass ends.  `restore` puts the
original functions back.  A target that no longer exists is skipped, so its
metrics read as 0 calls instead of failing the benchmark.

Some wrappers also read counts off their arguments or return values
(feature rows, quadrature nodes, solver iterations, capped solves and
fallbacks); those are the only places the benchmark looks inside a layer.
A hook that no longer fits its function's signature is counted in
`trace.hook_errors` instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict


HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _feature_rows(fn, args, kwargs, result, counters):
    a = _bound(fn, args, kwargs)
    upto = a["upto"] if a["upto"] is not None else len(a["self"].grades)
    counters["model.Model.features.rows"] += len(a["x"]) * upto


def _quad_nodes(fn, args, kwargs, result, counters):
    a = _bound(fn, args, kwargs)
    counters["smoothing.smooth_fn_grid.nodes"] += len(a["xs"]) * a["sm"].quad_points


def _nesterov_stats(fn, args, kwargs, result, counters):
    stats = result[2]
    counters["qp.nesterov_solve.iterations"] += stats.iterations
    counters["qp.nesterov_solve.capped"] += stats.stop_reason == "max_iters"


def _direct_stats(fn, args, kwargs, result, counters):
    stats = result[2]
    counters["qp.direct_solve.iterations"] += stats.iterations
    counters["qp.direct_solve.fallbacks"] += bool(stats.note)


def _training_grade(fn, args, kwargs):
    return len(_bound(fn, args, kwargs)["model"].grades) + 1


def _component_grade(fn, args, kwargs):
    return _bound(fn, args, kwargs)["k"] + 1


# (module, attribute path, count hook, grade hook).  Names in the metrics are
# "<module>.<attribute path>", e.g. "model.Pooling.adjoint".
TARGETS = [
    ("cli", "parse_config", None, None),
    ("data", "make_train", None, None),
    ("data", "make_test", None, None),
    ("train", "train_sal", None, None),
    ("train", "train_grade", None, _training_grade),
    ("qp", "assemble", None, None),
    ("qp", "solve", None, None),
    ("qp", "nesterov_solve", _nesterov_stats, None),
    ("qp", "direct_solve", _direct_stats, None),
    ("qp", "lipschitz_bound", None, None),
    ("qp", "gradient", None, None),
    ("qp", "objective", None, None),
    ("model", "Pooling.apply", None, None),
    ("model", "Pooling.adjoint", None, None),
    ("model", "Model.features", _feature_rows, None),
    ("model", "Model.component_values", None, _component_grade),
    ("model", "Model.predict", None, None),
    ("smoothing", "smooth_fn_grid", _quad_nodes, None),
    ("mlp", "train_ssg", None, None),
    ("mlp", "loss_and_grads", None, None),
    ("mlp", "adam_step", None, None),
    ("reporting", "save_model", None, None),
    ("reporting", "load_model", None, None),
]

COUNTERS = [
    "trace.hook_errors",
    "model.Model.features.rows",
    "smoothing.smooth_fn_grid.nodes",
    "qp.nesterov_solve.iterations",
    "qp.nesterov_solve.capped",
    "qp.direct_solve.iterations",
    "qp.direct_solve.fallbacks",
]


class Tracer:
    """Records spans of the TARGETS functions of the imported sal_learn."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, run_id, grade]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, path, count, grade_of in TARGETS:
            try:
                owner = importlib.import_module(f"sal_learn.{module_name}")
            except ImportError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            original = inspect.getattr_static(owner, attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{module_name}.{path}", original, count, grade_of)
            setattr(owner, attr, wrapper)
            self._originals.append((owner, attr, original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, count, grade_of):
        spans, stack, counters, run_id = self.spans, self._stack, self.counters, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            grade = spans[parent][5] if parent is not None else None
            if grade_of is not None:
                try:
                    grade = grade_of(fn, args, kwargs)
                except HOOK_ERRORS:
                    counters["trace.hook_errors"] += 1
            span = [name, 0.0, 0.0, parent, run_id, grade]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    count(fn, args, kwargs, result, counters)
                except HOOK_ERRORS:
                    counters["trace.hook_errors"] += 1
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """calls, inclusive s and self_s per target, plus the counters.

        Inclusive time skips calls nested inside a call of the same function,
        so recursion is not counted twice.  Self time is a span's duration
        minus the durations of its direct child spans.
        """
        out: dict[str, float] = {}
        for module_name, path, _, _ in TARGETS:
            name = f"{module_name}.{path}"
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for key in COUNTERS:
            out[key] = 0
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_s[i]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                out[f"{name}.s"] += end - start
        for key, value in self.counters.items():
            out[key] = value
        iters = out["qp.nesterov_solve.iterations"]
        out["qp.nesterov_solve.ms_per_iter"] = (
            1000.0 * out["qp.nesterov_solve.s"] / iters if iters else 0.0
        )
        return out

    def span_cost(self, n: int = 20000) -> float:
        """Seconds one span adds to a call: a wrapped no-op against a bare one."""

        def noop():
            return None

        probe = Tracer("span-cost")
        wrapped = probe._wrap("noop", noop, None, None)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        return max(time.perf_counter() - t0 - bare, 0.0) / n

    def write(self, path) -> None:
        """One JSON object per span, in start order; ids are line numbers from 0."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id, grade) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                            "grade": grade,
                        }
                    )
                )
                fh.write("\n")
