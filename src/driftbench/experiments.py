"""Scaling-study orchestration: drift times across an epsilon ladder.

Each (epsilon, initial condition) pair yields one record: integrate to the
time budget or to the drift threshold, log the crossing time or a sentinel,
and optionally run the restrain monitor.  Fits of the stability-time trend
are descriptive only: at desk scale the theoretical horizons and thresholds
are far outside reach for honest epsilons, so rows record censoring
explicitly and the fit is reported with residuals, never asserted.

Determinism contract: a fixed seed makes every record, and therefore the
CSV data section, byte-identical across runs.  Rows are written as complete
lines and flushed, and finished (epsilon, ic) pairs are skipped on resume.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .dynamics import IntegratorConfig, drift_time
from .restrain import exponents, time_budget, try_restrain
from .series import Gevrey, open_new
from .steepness import MorseParams
from .systems import System, make_system


@dataclass(frozen=True)
class ExperimentConfig:
    """Scaling run parameters; every field lands in the CSV provenance header."""

    system: str = "quasiconvex"
    eps_ladder: tuple[float, ...] = (1e-2, 1e-3)
    num_ic: int = 2
    seed: int = 0
    tau: float = 2.0
    step: float = 0.05
    sample_stride: int = 20
    m_multiplier: float = 1.0
    t_cap: float = 100.0
    wall_cap_s: float = 60.0
    threshold_mode: str = "theorem"    # theorem: (n+1)^2 eps^b | sqrt: eps^0.5
    threshold_scale: float = 1.0
    run_restrain: bool = False
    mu0: float = 0.05
    gamma: float = 0.9

    def __post_init__(self) -> None:
        if not self.eps_ladder:
            raise ValueError("eps_ladder must hold at least one epsilon")
        if self.num_ic < 1:
            raise ValueError(f"num_ic must be >= 1, got {self.num_ic}")
        if not (math.isfinite(self.tau) and self.tau >= 2):
            raise ValueError(f"tau must be finite and >= 2, got {self.tau}")
        if any(not 0 < e < 1 for e in self.eps_ladder):
            raise ValueError("epsilon values must lie in (0, 1)")
        if list(self.eps_ladder) != sorted(self.eps_ladder, reverse=True):
            raise ValueError("epsilon ladder must be sorted descending")
        if not (math.isfinite(self.t_cap) and self.t_cap > 0):
            raise ValueError(f"t_cap must be finite and positive, got {self.t_cap}")
        if not (math.isfinite(self.m_multiplier) and self.m_multiplier > 0):
            raise ValueError(
                f"m_multiplier must be finite and positive, got {self.m_multiplier}"
            )
        if self.threshold_mode not in ("theorem", "sqrt"):
            raise ValueError("threshold_mode must be 'theorem' or 'sqrt'")
        if not (math.isfinite(self.threshold_scale) and self.threshold_scale > 0):
            raise ValueError(
                f"threshold_scale must be finite and positive, got {self.threshold_scale}"
            )


@dataclass(frozen=True)
class ScalingRecord:
    eps: float
    ic_index: int
    seed: int
    threshold: float
    drift_time: float            # +inf sentinel if no crossing
    drift_at_budget: float
    tau_m: float
    m: int
    certificate: str             # none | restrained | failed:<condition>
    censored: bool               # wall-clock cap hit before budget
    runtime_s: float
    config_hash: str

    # runtime_s is volatile and sits in the last column; data_section() strips
    # it, so the determinism contract covers every other column
    CSV_FIELDS = (
        "eps", "ic_index", "seed", "threshold", "drift_time", "drift_at_budget",
        "tau_m", "m", "certificate", "censored", "config_hash", "runtime_s",
    )

    def csv_row(self) -> list[str]:
        def fmt(x):
            if isinstance(x, float):
                return format(x, ".17g")
            return str(x)

        return [
            fmt(self.eps), str(self.ic_index), str(self.seed), fmt(self.threshold),
            fmt(self.drift_time), fmt(self.drift_at_budget), fmt(self.tau_m),
            str(self.m), self.certificate, str(int(self.censored)),
            self.config_hash, format(self.runtime_s, ".3f"),
        ]

    @classmethod
    def from_csv_row(cls, parts: Sequence[str]) -> "ScalingRecord":
        row = dict(zip(cls.CSV_FIELDS, parts))
        return cls(
            eps=float(row["eps"]), ic_index=int(row["ic_index"]), seed=int(row["seed"]),
            threshold=float(row["threshold"]), drift_time=float(row["drift_time"]),
            drift_at_budget=float(row["drift_at_budget"]), tau_m=float(row["tau_m"]),
            m=int(row["m"]), certificate=row["certificate"],
            censored=bool(int(row["censored"])), runtime_s=float(row["runtime_s"]),
            config_hash=row["config_hash"],
        )


def initial_condition(
    system: System, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded start point: theta uniform on the torus, then the action uniform
    in the cube of half-width R/2 around the center of h."""
    n = system.domain.n
    theta = rng.uniform(0.0, 1.0, size=n)
    half = system.domain.R / 2
    action = rng.uniform(-half, half, size=n) + np.asarray(system.hamiltonian.integrable.center)
    return theta, action


def run_row(
    cfg: ExperimentConfig, eps_index: int, ic_index: int
) -> ScalingRecord:
    eps = cfg.eps_ladder[eps_index]
    system = make_system(cfg.system, eps)
    n = system.domain.n
    exps = exponents(n, Fraction(cfg.tau))
    budget = time_budget(eps, system.hamiltonian.regularity, exps, cfg.m_multiplier)
    tau_m = min(budget.tau_m, cfg.t_cap)
    if cfg.threshold_mode == "theorem":
        threshold = cfg.threshold_scale * (n + 1) ** 2 * eps ** float(exps.b)
    else:
        threshold = cfg.threshold_scale * math.sqrt(eps)
    threshold = min(threshold, system.domain.R)  # stay measurable in B_R
    theta0, I0 = initial_condition(
        system, np.random.default_rng([cfg.seed, eps_index, ic_index])
    )
    icfg = IntegratorConfig(step=cfg.step, sample_stride=cfg.sample_stride)
    t0 = time.monotonic()
    deadline = t0 + cfg.wall_cap_s
    censored = False

    def over_wall(t: float, action: list[float]) -> bool:
        nonlocal censored
        if time.monotonic() > deadline:
            censored = True
            return True
        return False

    dt = drift_time(system, (theta0, I0), threshold, tau_m, icfg, stop_when=over_wall)
    traj = dt.trajectory
    runtime = time.monotonic() - t0
    cert_status = "none"
    if cfg.run_restrain:
        res = try_restrain(
            system, traj, cfg.mu0, budget, MorseParams(cfg.gamma, cfg.tau),
            exps=exps,
        )
        cert_status = (
            "restrained" if res.restrained else f"failed:{res.failure.condition}"
        )
    drift_at_budget = float(np.max(np.abs(traj.actions[-1] - traj.actions[0])))
    return ScalingRecord(
        eps=eps, ic_index=ic_index, seed=cfg.seed, threshold=threshold,
        drift_time=dt.time, drift_at_budget=drift_at_budget, tau_m=tau_m,
        m=budget.m, certificate=cert_status, censored=censored,
        runtime_s=runtime, config_hash=icfg.digest(),
    )


@dataclass(frozen=True)
class FitSummary:
    """Descriptive least-squares fit of the measured crossing times."""

    kind: str                  # gevrey | ck | empty
    slope: float
    intercept: float
    residual_rms: float
    points: int

    def describe(self) -> str:
        if self.kind == "empty":
            return f"fit needs >= 2 finite crossing times, got {self.points}"
        return (
            f"fit[{self.kind}]: log T* ~ {self.intercept:.4g} + "
            f"{self.slope:.4g} * x, rms residual {self.residual_rms:.3g} "
            f"({self.points} rows); descriptive only"
        )


def fit_scaling(
    records: Sequence[ScalingRecord], regularity, exps
) -> FitSummary:
    """Fit log T* against eps^(-a/alpha) (Gevrey) or k* a log(1/eps) (C^k)."""
    rows = [r for r in records if math.isfinite(r.drift_time) and r.drift_time > 0]
    if len(rows) < 2:
        return FitSummary("empty", math.nan, math.nan, math.nan, len(rows))
    a = float(exps.a)
    if isinstance(regularity, Gevrey):
        xs = np.array([r.eps ** (-a / regularity.alpha) for r in rows])
        kind = "gevrey"
    else:
        xs = np.array([regularity.k_star * a * math.log(1 / r.eps) for r in rows])
        kind = "ck"
    ys = np.log(np.array([r.drift_time for r in rows]))
    coeffs, residuals, *_ = np.polyfit(xs, ys, 1, full=True)
    rms = float(np.sqrt(residuals[0] / len(rows))) if len(residuals) else 0.0
    return FitSummary(kind, float(coeffs[0]), float(coeffs[1]), rms, len(rows))


def run_scaling(
    cfg: ExperimentConfig, out_path, resume: bool = True,
) -> tuple[list[ScalingRecord], FitSummary]:
    """Run the ladder; stream rows to the CSV; return records and the fit.

    The CSV data section (everything outside '#' comment lines) is a pure
    function of the config and seed.  Rows are computed by ``run_row`` in this
    process, in canonical order, and each is written and flushed as soon as
    it is done, so an interrupted run keeps its finished rows.  Every line
    ends in ``"\n"``; the fit line comes last.  On resume, rows already in
    the file are read back (with either line ending), so the records and the
    fit cover the whole ladder, and the file is first rewritten without its
    fit line: to ``<name>.tmp``, then the old file is unlinked and the
    ``.tmp`` renamed into place; a crash between the two steps leaves only
    the complete ``.tmp``, which the next resume renames into place.  A file
    whose ``# config:`` line differs from ``cfg`` is refused.  Files are
    written as new inodes (``series.open_new``); a symlinked ``out_path``
    keeps its link.
    """
    out_path = Path(os.path.realpath(out_path))
    tmp = out_path.with_name(out_path.name + ".tmp")
    pairs = [
        (ei, ii)
        for ei in range(len(cfg.eps_ladder))
        for ii in range(cfg.num_ic)
    ]
    done: dict[tuple[str, str], ScalingRecord] = {}
    if resume and not out_path.exists() and tmp.exists():
        os.rename(tmp, out_path)
    if resume and out_path.exists():
        with open(out_path) as fh:
            lines = fh.read().splitlines()
        config = next((ln for ln in lines if ln.startswith("# config: ")), None)
        if config != f"# config: {cfg}":
            raise ValueError(f"cannot resume {out_path}: its config line {config!r} "
                             f"differs from {cfg}")
        for parts in csv.reader(ln for ln in lines if not ln.startswith("#")):
            if len(parts) == len(ScalingRecord.CSV_FIELDS) and parts[0] != "eps":
                done[(parts[0], parts[1])] = ScalingRecord.from_csv_row(parts)
        with open_new(tmp) as fh:
            fh.writelines(ln + "\n" for ln in lines if not ln.startswith("# fit"))
        os.unlink(out_path)
        os.rename(tmp, out_path)

    def key(ei: int, ii: int) -> tuple[str, str]:
        return format(cfg.eps_ladder[ei], ".17g"), str(ii)

    todo = [(ei, ii) for ei, ii in pairs if key(ei, ii) not in done]
    fresh = not (resume and out_path.exists())
    with open_new(out_path) if fresh else open(out_path, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fresh:
            fh.write(f"# driftbench scaling run; local time {time.ctime()}\n")
            fh.write(f"# config: {cfg}\n")
            writer.writerow(ScalingRecord.CSV_FIELDS)
            fh.flush()
        for ei, ii in todo:
            rec = run_row(cfg, ei, ii)
            done[key(ei, ii)] = rec
            writer.writerow(rec.csv_row())
            fh.flush()
        records = [done[key(*p)] for p in pairs]
        system = make_system(cfg.system, cfg.eps_ladder[0])
        exps = exponents(system.domain.n, Fraction(cfg.tau))
        fit = fit_scaling(records, system.hamiltonian.regularity, exps)
        fh.write(f"# {fit.describe()}\n")
    return records, fit


def data_section(path) -> str:
    """The determinism-relevant part of a results CSV.

    Comment lines (timestamps, fit summaries) and the volatile runtime column
    are excluded; everything else is a pure function of config and seed.
    """
    out = []
    with open(path) as fh:
        for ln in fh:
            if ln.startswith("#"):
                continue
            parts = ln.rstrip("\n").split(",")
            out.append(",".join(parts[:-1]))  # drop the trailing runtime column
    return "\n".join(out) + "\n"
