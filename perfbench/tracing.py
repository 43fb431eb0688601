"""Per-layer spans and counters, taken by wrapping driftbench's public
functions from outside the package.

A wrapper is installed under every name a function is looked up by (the
defining module, each module that imported it, the package namespace), so
calls made from inside the package are seen too.  Spans are recorded only
while an op is open; calls the harness makes to check an op's output are
passed straight through.  Nothing is installed during untraced runs, and
``uninstall`` restores the original objects.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

WRAPPER_MARK = "__perfbench_wrapper__"

# (module, attribute path, layer metric prefix)
TARGETS = (
    ("series", "poisson_bracket", "series.poisson_bracket"),
    ("series", "FourierTaylorSeries.product", "series.product"),
    ("series", "FourierTaylorSeries.evaluate_grid", "series.evaluate_grid"),
    ("normalform", "composed_normal_form", "normalform.composed_normal_form"),
    ("normalform", "periodic_averaging", "normalform.periodic_averaging"),
    ("normalform", "lie_transform", "normalform.lie_transform"),
    ("normalform", "homological_solve", "normalform.homological_solve"),
    ("normalform", "local_normal_form", "normalform.local_normal_form"),
    ("dynamics", "integrate", "dynamics.integrate"),
    ("dynamics", "drift_time", "dynamics.drift_time"),
    ("restrain", "try_restrain", "restrain.try_restrain"),
    ("diophantine", "dirichlet_candidates", "diophantine.dirichlet_candidates"),
    ("diophantine", "resonance_module", "diophantine.resonance_module"),
    ("steepness", "check_morse", "steepness.check_morse"),
    ("steepness", "subspace_margins", "steepness.subspace_margins"),
    ("steepness", "steepness_escape", "steepness.steepness_escape"),
    ("systems", "SeriesHamiltonian.hess", "systems.SeriesHamiltonian.hess"),
    ("experiments", "run_scaling", "experiments.run_scaling"),
    ("experiments", "run_row", "experiments.run_row"),
)

# counters derived from arguments and results at the same boundaries
EXTRA_METRICS = (
    ("series.poisson_bracket.pairs", "count", "lower"),
    ("series.poisson_bracket.terms_out", "count", "lower"),
    ("normalform.averaging_steps", "count", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.split.us_per_step", "us", "lower"),
    ("dynamics.midpoint.us_per_step", "us", "lower"),
    ("dynamics.energy_dev_max", "1", "lower"),
    ("restrain.certificates", "count", "higher"),
    ("restrain.certificate_ratio", "1", "higher"),
    ("diophantine.candidates_examined", "count", "lower"),
    ("diophantine.feasible_ratio", "1", "higher"),
    ("steepness.subspaces_tested", "count", "lower"),
    ("experiments.rows", "count", "higher"),
    ("experiments.censored_rows", "count", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for _, _, prefix in TARGETS:
        out += [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower"),
                (f"{prefix}.errors", "count", "lower")]
    return out + list(EXTRA_METRICS)


def _count_bracket(tracer, args, result, seconds):
    F, G = args[0], args[1]
    tracer.counters["series.poisson_bracket.pairs"] += len(F) * len(G)
    tracer.counters["series.poisson_bracket.terms_out"] += len(result)


def _count_averaging(tracer, args, result, seconds):
    tracer.counters["normalform.averaging_steps"] += len(result.steps)


def _count_integrate(tracer, args, result, seconds):
    meta = result.metadata
    steps = int(round(abs(float(result.times[-1])) / meta["step"]))
    tracer.counters["dynamics.steps"] += steps
    tracer.counters[f"dynamics.{meta['scheme']}.steps"] += steps
    tracer.counters[f"dynamics.{meta['scheme']}.seconds"] += seconds
    tracer.counters["dynamics.energy_dev_max"] = max(
        tracer.counters["dynamics.energy_dev_max"], float(meta["energy_deviation"])
    )


def _count_restrain(tracer, args, result, seconds):
    tracer.counters["restrain.certificates"] += bool(result.restrained)


def _count_dirichlet(tracer, args, result, seconds):
    if result:
        tracer.counters["diophantine.candidates_examined"] += result[0].candidates_examined
    tracer.counters["diophantine.feasible"] += len(result)


def _count_margins(tracer, args, result, seconds):
    tracer.counters["steepness.subspaces_tested"] += len(result)


def _count_row(tracer, args, result, seconds):
    tracer.counters["experiments.rows"] += 1
    tracer.counters["experiments.censored_rows"] += bool(result.censored)


COUNTERS = {
    "series.poisson_bracket": _count_bracket,
    "normalform.periodic_averaging": _count_averaging,
    "dynamics.integrate": _count_integrate,
    "restrain.try_restrain": _count_restrain,
    "diophantine.dirichlet_candidates": _count_dirichlet,
    "steepness.subspace_margins": _count_margins,
    "experiments.run_row": _count_row,
}


class Tracer:
    """Spans kept in memory as parallel arrays; counters in a dict."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.errors: defaultdict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        idx = self.name_ids.get(name)
        if idx is None:
            idx = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open_span(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int, kind: str) -> int:
        self.op_id = op_id
        return self.open_span(self._intern(f"op.{kind}"))

    def end_op(self, idx: int) -> None:
        self.close_span(idx)
        self.op_id = None

    # -- installation -----------------------------------------------------------

    def _wrap(self, fn, prefix: str):
        tracer = self
        name_id = self._intern(prefix)
        count = COUNTERS.get(prefix)

        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            idx = tracer.open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[prefix] += 1
                raise
            finally:
                tracer.close_span(idx)
            if count is not None:
                count(tracer, args, result, tracer.end[idx] - tracer.start[idx])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        setattr(wrapper, WRAPPER_MARK, prefix)
        return wrapper

    def install(self, lib) -> None:
        """Wrap every target under every name it is looked up by."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "driftbench" or name.startswith("driftbench.")]
        for module_name, attr, prefix in TARGETS:
            owner = getattr(lib, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._installed.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, prefix))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, prefix)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        self._installed.append((module, name, orig))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._installed):
            setattr(holder, name, orig)
        self._installed.clear()

    # -- results ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        n = len(self.start)
        children: defaultdict[int, list[int]] = defaultdict(list)
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]].append(i)
        out = [self.end[i] - self.start[i] for i in range(n)]
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            ivs = sorted((max(self.start[k], lo), min(self.end[k], hi)) for k in kids)
            covered = 0.0
            cur_a, cur_b = None, None
            for a, b in ivs:
                if b <= a:
                    continue
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            out[p] -= covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and errors per wrapped function, plus the counters."""
        selfs = self.self_times()
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += selfs[i]
        out: dict[str, float] = {}
        for _, _, prefix in TARGETS:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = self_s[prefix]
            out[f"{prefix}.errors"] = self.errors[prefix]
        c = self.counters
        for name in ("series.poisson_bracket.pairs", "series.poisson_bracket.terms_out",
                     "normalform.averaging_steps", "dynamics.steps", "dynamics.energy_dev_max",
                     "restrain.certificates", "diophantine.candidates_examined",
                     "steepness.subspaces_tested", "experiments.rows",
                     "experiments.censored_rows"):
            out[name] = c[name]
        for scheme in ("split", "midpoint"):
            steps = c[f"dynamics.{scheme}.steps"]
            out[f"dynamics.{scheme}.us_per_step"] = (
                1e6 * c[f"dynamics.{scheme}.seconds"] / steps if steps else 0.0
            )
        tries = calls["restrain.try_restrain"]
        out["restrain.certificate_ratio"] = c["restrain.certificates"] / tries if tries else 0.0
        examined = c["diophantine.candidates_examined"]
        out["diophantine.feasible_ratio"] = c["diophantine.feasible"] / examined if examined else 0.0
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "span": i, "name": self.names[self.name_id[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "op": self.op[i],
                }) + "\n")
