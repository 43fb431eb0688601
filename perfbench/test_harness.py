"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads


def _tracer_with(spans):
    """A tracer holding synthetic spans given as (name, start, end, parent)."""
    t = tracing.Tracer()
    for name, start, end, parent in spans:
        t.name_id.append(t._intern(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.op.append(0)
    return t


def test_self_time_subtracts_nested_children():
    t = _tracer_with([
        ("op.x", 0.0, 10.0, -1),
        ("series.poisson_bracket", 1.0, 4.0, 0),
        ("normalform.lie_transform", 5.0, 9.0, 0),
        ("series.poisson_bracket", 6.0, 7.0, 2),
    ])
    assert t.self_times() == pytest.approx([3.0, 3.0, 3.0, 1.0])
    m = t.layer_metrics()
    assert m["series.poisson_bracket.calls"] == 2
    assert m["series.poisson_bracket.self_s"] == pytest.approx(4.0)
    assert m["normalform.lie_transform.self_s"] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    t = _tracer_with([
        ("op.x", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),      # overlaps a: [1, 6] is covered once
        ("c", 8.0, 12.0, 0),     # runs past the parent: only [8, 10] counts
    ])
    assert t.self_times()[0] == pytest.approx(10.0 - 5.0 - 2.0)


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.OUT / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _load():
    lib, _ = workloads.load_driftbench()
    return lib


def _small(cls, monkeypatch):
    """Shrink the input pools so a smoke run sets up in well under a second."""
    for part in cls.parts:
        monkeypatch.setattr(part, "POOL", {k: min(v, 8) for k, v in part.POOL.items()})


def _wrapper_code():
    return tracing.Tracer()._wrap(lambda: None, "x").__code__


def test_untraced_ops_call_no_wrapper(workdir, monkeypatch):
    _small(workloads.NormalFormCertify, monkeypatch)
    lib = _load()
    wl = workloads.NormalFormCertify(lib, 1, workdir)
    tracer = tracing.Tracer()
    tracer.install(lib)
    tracer.uninstall()
    for module_name, attr, _ in tracing.TARGETS:
        owner = getattr(lib, module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, tracing.WRAPPER_MARK), attr

    code = _wrapper_code()
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(frame.f_code)

    def profiled_op(tracer=None):
        sys.setprofile(profile)
        try:
            return run.run_op(wl, 0, "dense", wl.op_input("dense", 0), tracer)
        finally:
            sys.setprofile(None)

    assert profiled_op()[2]
    assert seen == []
    # the same probe does see the wrappers once they are installed
    tracer.install(lib)
    try:
        assert profiled_op(tracer)[2]
    finally:
        tracer.uninstall()
    assert seen


def test_traced_op_records_inner_calls(workdir, monkeypatch):
    _small(workloads.NormalFormCertify, monkeypatch)
    lib = _load()
    wl = workloads.NormalFormCertify(lib, 1, workdir)
    tracer = tracing.Tracer()
    monkeypatch.setattr(wl, "traced_ops", 3)
    plain, traced = run.measure_traced(wl, lib, tracer)
    assert len(plain) == len(traced) == 3 and all(r[2] for r in plain + traced)
    m = tracer.layer_metrics()
    # poisson_bracket is called from inside normalform, under its own name there
    assert m["series.poisson_bracket.calls"] > 0
    assert m["normalform.periodic_averaging.calls"] >= 2
    assert m["series.poisson_bracket.pairs"] > 0
    assert set(m) | {"trace.overhead_ratio"} == {n for n, _, _ in tracing.metric_specs()}
    # checks made between ops leave no spans behind
    assert set(tracer.op) == {0, 1, 2}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_every_check(name, workdir, monkeypatch):
    cls = workloads.WORKLOADS[name]
    _small(cls, monkeypatch)
    lib = _load()
    wl = cls(lib, 1, workdir)
    wl.check(-1, wl.warmup_kind, wl.warmup_input(), wl.run(wl.warmup_kind, wl.warmup_input()))
    kinds = list(dict.fromkeys(wl.schedule))
    # every kind once, then again on further inputs until a certificate
    # exercises the exclusion check (about half of the restrain runs certify)
    records = [run.run_op(wl, i, kind, wl.op_input(kind, 0)) for i, kind in enumerate(kinds)]
    extra = 1
    while wl.final_problems() and extra < 8:
        for kind in kinds:
            records.append(run.run_op(wl, len(records), kind, wl.op_input(kind, extra)))
        extra += 1
    assert wl.checks.failures == []
    assert wl.final_problems() == []
    assert all(r[2] for r in records)


def test_result_line_follows_the_contract(monkeypatch):
    _small(workloads.NormalFormCertify, monkeypatch)
    monkeypatch.setattr(workloads.NormalFormCertify, "traced_ops", 8)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    specs = {n: u for n, u, _ in tracing.metric_specs()}
    for trace, expected in ((0, dict(run.END_TO_END)), (1, specs)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run.run_one("normal_form_certify", 1, 1.0, bool(trace)) == 0
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert {m: v["unit"] for m, v in result["metrics"].items()} == expected


def test_benchmark_json_matches_the_harness():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [c.why for c in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.metric_specs()


def test_refuses_to_run_without_the_program(workdir):
    # a directory holding only the benchmark: no src/driftbench next to it
    shutil.copytree(Path(run.__file__).parent, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(workdir / "perfbench" / "run.py"), "--workload", "normal_form_certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=workdir,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
