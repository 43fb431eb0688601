#!/usr/bin/env python3
"""driftbench benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload normal_form_certify --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 50          # every workload, both modes

One client runs a closed loop: the next op starts when the previous one has
finished, and no threads or processes are added.  With ``--trace 0`` the
run sets up the workload several times (median reported as ``setup_s``),
then loops over ops for ``--seconds`` seconds and reports the end-to-end
metrics.  With ``--trace 1`` it runs a fixed list of ops twice, untraced
and then traced, and reports per-layer metrics and the tracing overhead;
the fixed list makes every count repeat exactly for a given seed.

Every op's output is checked outside its timed interval.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Without a ``--workload``, each workload and mode runs in its own process,
one after another, and a summary table is printed.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

OUT = workloads.ROOT / ".perfbench_out"
SETUP_REPS = 5
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)


# -- provenance ---------------------------------------------------------------------


def _git_commit() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> str:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def provenance(seed: int) -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (workloads.SRC / "driftbench").rglob("*.py")
    )
    return {
        "seed": seed, "commit": _git_commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": _blas_threads(), "src_lines": src_lines,
    }


# -- one workload in this process ----------------------------------------------------


def setup(cls, seed: int, workdir: Path):
    """import driftbench + generate the seeded inputs + one untimed warm-up op."""
    lib, seconds = workloads.load_driftbench()
    t0 = perf_counter()
    wl = cls(lib, seed, workdir)
    kind = wl.warmup_kind
    item = wl.warmup_input()
    result = wl.run(kind, item)
    seconds += perf_counter() - t0
    wl.check(-1, kind, item, result)
    return lib, wl, seconds


def schedule(wl):
    """(op_id, kind, input) in schedule order; each kind walks its own pool."""
    index = dict.fromkeys(wl.schedule, 0)
    op_id = 0
    while True:
        kind = wl.schedule[op_id % len(wl.schedule)]
        yield op_id, kind, wl.op_input(kind, index[kind])
        index[kind] += 1
        op_id += 1


def run_op(wl, op_id, kind, item, tracer=None):
    """One timed op, checked afterwards outside the timer and any span.

    Returns (kind, latency_s, ok); an op that raises counts as failed.
    """
    span = tracer.begin_op(op_id, kind) if tracer is not None else None
    t0 = perf_counter()
    try:
        result = wl.run(kind, item)
        error = None
    except Exception as exc:  # recorded with its traceback; the loop goes on
        error = exc
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.end_op(span)
    if error is not None:
        wl.checks.failures.append(
            f"op {op_id}: {kind} raised {type(error).__name__}: {error}\n"
            + "".join(traceback.format_exception(error))
        )
        return kind, latency, False
    return kind, latency, wl.check(op_id, kind, item, result)


def measure(wl, ops, seconds: float):
    """Closed loop over the next ops of the schedule until `seconds` have passed."""
    deadline = perf_counter() + seconds
    records = []
    while perf_counter() < deadline:
        records.append(run_op(wl, *next(ops)))
    return records


def measure_traced(wl, lib, tracer):
    """The first `traced_ops` ops, each run untraced and traced back to back.

    Alternating which of the pair goes first keeps slow phases of a shared
    machine and warm caches from favouring either side of the overhead.
    """
    plain, traced = [], []
    for op_id, kind, item in itertools.islice(schedule(wl), wl.traced_ops):
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(run_op(wl, op_id, kind, item))
                continue
            tracer.install(lib)
            try:
                traced.append(run_op(wl, op_id, kind, item, tracer))
            finally:
                tracer.uninstall()
    return plain, traced


def end_to_end(wl, records, setup_times) -> tuple[dict, dict]:
    lat = np.array([r[1] for r in records])
    verified = sum(1 for r in records if r[2])
    tail = float(np.percentile(lat, wl.tail_pct))
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": verified / float(lat.sum()),
        "op_p50_ms": 1e3 * float(np.median(lat)),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "ops": len(records), "fail_ratio": (len(records) - verified) / len(records),
        "tail_pct": wl.tail_pct, "tail_beyond": int(np.sum(lat > tail)),
        "setup_runs": len(setup_times),
        "ops_by_kind": {k: sum(1 for r in records if r[0] == k) for k in dict.fromkeys(wl.schedule)},
        "kind_p50_ms": {k: round(1e3 * float(np.median([r[1] for r in records if r[0] == k])), 3)
                        for k in dict.fromkeys(r[0] for r in records)},
        "setup_runs_s": [round(s, 4) for s in setup_times],
    }
    return values, info


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cls = workloads.WORKLOADS[name]
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prov = provenance(seed)
        print(f"# driftbench {name} seed={seed} trace={int(trace)}")
        print("# provenance " + json.dumps(prov))
        if not trace:
            # the set-ups are spread over the run, so that setup_s sees the
            # same phases of a shared machine as the ops; the later ones
            # only take their time, the ops keep using the first workload
            _, wl, secs = setup(cls, seed, workdir)
            setup_times = [secs]
            ops = schedule(wl)
            records = measure(wl, ops, seconds / SETUP_REPS)
            for _ in range(SETUP_REPS - 1):
                _, again, secs = setup(cls, seed, workdir)
                setup_times.append(secs)
                wl.checks.failures += again.checks.failures
                records += measure(wl, ops, seconds / SETUP_REPS)
            values, info = end_to_end(wl, records, setup_times)
            units = dict(END_TO_END)
        else:
            lib, wl, _ = setup(cls, seed, workdir)
            tracer = tracing.Tracer()
            plain, records = measure_traced(wl, lib, tracer)
            values = tracer.layer_metrics()
            values["trace.overhead_ratio"] = (
                sum(r[1] for r in records) / sum(r[1] for r in plain)
            )
            units = {m: u for m, u, _ in tracing.metric_specs()}
            info = {"ops": len(records), "spans": len(tracer.start),
                    "untraced_ops_per_s": len(plain) / sum(r[1] for r in plain),
                    "traced_ops_per_s": len(records) / sum(r[1] for r in records)}
            records = plain + records
            tracer.write_jsonl(OUT / f"trace-{name}-{seed}.jsonl")
        problems = wl.checks.failures + wl.final_problems()
        failed = sum(1 for r in records if not r[2])
        for line in problems:
            print(f"# FAIL {name}: {line}")
        for metric, value in values.items():
            print(f"{name:<14} {metric:<44} {value:>16.6f} {units[metric]}")
        print(f"{name:<14} {'fail_ratio':<44} {failed / len(records):>16.6f} 1"
              f"  ({failed} of {len(records)} ops failed)")
        if not trace:
            print(f"{name:<14} op_tail_ms is p{wl.tail_pct:g} of {info['ops']} ops, "
                  f"{info['tail_beyond']} beyond it")
        else:
            busy = sum(r[1] for r in records[len(plain):])
            ranked = sorted(((values[f"{p}.self_s"], p) for _, _, p in tracing.TARGETS),
                            reverse=True)
            for self_s, prefix in ranked[:4]:
                print(f"{name:<14} self time {prefix:<36} {self_s:9.3f} s "
                      f"({100 * self_s / busy:5.1f}% of traced op time)")
        print(f"{name:<14} info {json.dumps(info)}")
        result = {
            "correct": failed == 0 and not problems, "attempted": len(records),
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        }
        (OUT / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(json.dumps(
            {"workload": name, "provenance": prov, "info": info, "problems": problems,
             **result}, indent=1))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- every workload, one process each --------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            results[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nworkload       " + "".join(f"{m + ' [' + u + ']':>20}" for m, u in END_TO_END)
          + f"{'fail_ratio':>12}{'trace overhead':>16}")
    for name in workloads.WORKLOADS:
        e2e, lay = results[(name, 0)], results[(name, 1)]
        row = "".join(f"{e2e['metrics'][m]['value']:>20.4f}" for m, _ in END_TO_END)
        print(f"{name:<15}{row}{e2e['failed'] / e2e['attempted']:>12.4f}"
              f"{lay['metrics']['trace.overhead_ratio']['value']:>16.3f}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for (name, trace), r in results.items()
                    for m, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads.require_program()
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
