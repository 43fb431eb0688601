"""Seeded workloads of the driftbench benchmark.

A part is one family of op kinds: it turns a seed into a pool of inputs
per kind, runs one op (the program call a user makes for one verified
result) and checks its output.  A workload runs the kinds of two parts in
one fixed schedule.  The program is imported from this checkout's
``src/`` and only ever receives the generated inputs; the seed never
reaches it except as data (initial conditions, coefficients, scaling-row
seeds).

Op kinds run in a fixed cyclic schedule, so any prefix of a run has the
same mix of kinds.  Kinds are sized so that the median latency and the
tail latency each fall inside one group of ops of the same kind; that
keeps both percentiles steady across seeds.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "series", "diophantine", "dynamics", "normalform", "restrain",
    "steepness", "systems", "experiments",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no driftbench sources to benchmark."""


def require_program() -> None:
    if not (SRC / "driftbench" / "__init__.py").is_file():
        raise ProgramMissing(f"no driftbench package under {SRC}")


def load_driftbench() -> tuple[SimpleNamespace, float]:
    """Import driftbench from ``src/``, re-executing every module.

    Returns the submodules as a namespace and the import time in seconds.
    Modules imported earlier in this process are dropped first, so that
    every call pays the same cost (numpy stays loaded).
    """
    require_program()
    for name in [m for m in sys.modules if m == "driftbench" or m.startswith("driftbench.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    pkg = importlib.import_module("driftbench")
    lib = SimpleNamespace(**{m: importlib.import_module(f"driftbench.{m}") for m in MODULES})
    elapsed = perf_counter() - t0
    if Path(pkg.__file__).resolve().parent != (SRC / "driftbench").resolve():
        raise ProgramMissing(f"driftbench was imported from {pkg.__file__}, not {SRC}")
    return lib, elapsed


class Checks:
    """Per-check counts of runs and failures, plus the failing ops' reasons."""

    def __init__(self, names: tuple[str, ...]) -> None:
        self.runs = {name: 0 for name in names}
        self.failed = {name: 0 for name in names}
        self.failures: list[str] = []

    def record(self, op_id: int, name: str, ok: bool, reason: str = "") -> bool:
        self.runs[name] += 1
        if not ok:
            self.failed[name] += 1
            self.failures.append(f"op {op_id}: check {name} failed: {reason}")
        return ok

    def vacuous(self) -> list[str]:
        """Checks that never ran: a gate that tested nothing is a failure."""
        return [name for name, runs in self.runs.items() if runs == 0]


def _random_periodic(lib, rng, n, max_num, max_den):
    while True:
        comps = tuple(
            Fraction(int(rng.integers(-max_num, max_num + 1)), int(rng.integers(1, max_den + 1)))
            for _ in range(n)
        )
        if any(comps):
            return lib.diophantine.period_of(comps)


def _two_frame(lib, rng, n):
    """An independent 2-frame with omega_2 = omega_1 + a small rational offset,
    drawn the way acceptance criterion 2 draws its frames."""
    dio = lib.diophantine
    while True:
        w1 = _random_periodic(lib, rng, n, 2, 3)
        delta = tuple(Fraction(int(rng.integers(-3, 4)), 1000) for _ in range(n))
        omega2 = tuple(a + b for a, b in zip(w1.omega, delta))
        if any(omega2) and dio.rational_rank([w1.omega, omega2]) == 2:
            return dio.ResonanceFrame.build([w1, dio.period_of(omega2)])


def _conjugate_pairs(lib, rng, n, keys, scale):
    """Reality-symmetric series with one random coefficient per (k, l) in keys."""
    coeffs = {}
    for k, l in keys:
        neg = tuple(-x for x in k)
        if not any(k):
            coeffs[(k, l)] = complex(rng.normal() * scale, 0.0)
            continue
        c = complex(rng.normal(), rng.normal()) * scale
        coeffs[(k, l)] = c
        coeffs[(neg, l)] = c.conjugate()
    return lib.series.FourierTaylorSeries(lib.series.Domain(n, 1.0), coeffs, 3, 2)


def _sparse_keys(rng, n, pairs):
    """`pairs` distinct (k, l) with k != 0, |k| <= 3, |l| <= 2, no two conjugate."""
    keys: list[tuple] = []
    while len(keys) < pairs:
        k = tuple(int(x) for x in rng.integers(-3, 4, n))
        if not any(k):
            continue
        l = [0] * n
        for _ in range(int(rng.integers(0, 3))):
            l[int(rng.integers(0, n))] += 1
        l = tuple(l)
        neg = tuple(-x for x in k)
        if (k, l) in keys or (neg, l) in keys:
            continue
        keys.append((k, l))
    return keys


def _dense_keys(n):
    """Every |k| <= 1 mode with l of degree <= 1, one per conjugate pair."""
    keys = []
    seen = set()
    ls = [l for l in itertools.product(range(2), repeat=n) if sum(l) <= 1]
    for k in itertools.product(range(-1, 2), repeat=n):
        neg = tuple(-x for x in k)
        for l in ls:
            if (neg, l) in seen:
                continue
            seen.add((k, l))
            keys.append((k, l))
    return keys


def _stratified_actions(rng, count, side, half_width):
    """Action points in [-half_width, half_width]^2, one in each cell of a
    side x side grid per consecutive block of side^2 points.

    Stratified sampling keeps the uniform distribution but makes any whole
    number of blocks cover the square evenly, which steadies per-run figures.
    """
    out = []
    while len(out) < count:
        for cell in rng.permutation(side * side):
            i, j = divmod(int(cell), side)
            u = (np.array([i, j]) + rng.uniform(0, 1, 2)) / side
            out.append(half_width * (2 * u - 1))
    return out[:count]


def _finite(series) -> bool:
    return all(math.isfinite(c.real) and math.isfinite(c.imag) for _, c in series.items())


class Part:
    """One family of op kinds: seeded input pools, the ops and their checks."""

    check_names: tuple[str, ...] = ()
    POOL: dict[str, int] = {}

    def __init__(self, lib, rng, workdir: Path, checks: Checks) -> None:
        self.lib = lib
        self.rng = rng
        self.workdir = workdir
        self.checks = checks
        self.pools: dict[str, list] = {}
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def run(self, kind: str, item):
        raise NotImplementedError

    def check(self, op_id: int, kind: str, item, result) -> bool:
        raise NotImplementedError


class NormalForm(Part):
    """Lie-series normal forms.  s2/s3: criterion-2 frames with two conjugate
    pairs (a few ms each); local: the CLI normalform path (~20-30 ms); dense:
    27-term f on n=2 frames (0.2-0.3 s)."""

    check_names = ("symmetry_checked", "verify_resonant_symmetry", "remainder_finite")
    POOL = {"s2": 400, "s3": 400, "local": 160, "dense": 80}

    def generate(self) -> None:
        lib, rng = self.lib, self.rng
        nf = lib.normalform
        self.cfg = nf.NormalFormConfig(m=2, lie_order=3)
        self.local_cfg = nf.NormalFormConfig(m=3, lie_order=5)
        self.quasi = lib.systems.quasi_convex(1e-8).hamiltonian
        dense_keys = _dense_keys(2)
        for kind, count in self.POOL.items():
            pool = []
            for _ in range(count):
                if kind == "local":
                    while True:
                        center = tuple(Fraction(int(p), 10) for p in rng.integers(-4, 5, 2))
                        if any(center):
                            break
                    frame = lib.diophantine.ResonanceFrame.build(
                        [lib.diophantine.period_of(center)]
                    )
                    pool.append((tuple(float(c) for c in center), frame))
                    continue
                n = 3 if kind == "s3" else 2
                frame = _two_frame(lib, rng, n)
                keys = dense_keys if kind == "dense" else _sparse_keys(rng, n, 2)
                f = _conjugate_pairs(lib, rng, n, keys, 1e-8)
                w2 = frame.vectors[-1]
                H = lib.series.FourierTaylorSeries.linear(
                    f.domain, [float(x) for x in w2.omega], k_max=f.k_max, d_max=f.d_max
                ) + f
                pool.append((H, frame))
            self.pools[kind] = pool

    def run(self, kind, item):
        nf = self.lib.normalform
        if kind == "local":
            center, frame = item
            return nf.local_normal_form(self.quasi, center, frame, [0.02], self.local_cfg)
        H, frame = item
        return nf.composed_normal_form(H, frame, self.cfg)

    def check(self, op_id, kind, item, result):
        frame = item[1]
        c = self.checks
        ok = c.record(op_id, "symmetry_checked", result.symmetry_checked,
                      f"{kind} frame {[str(v) for v in frame.vectors]}")
        ok &= c.record(op_id, "verify_resonant_symmetry",
                       self.lib.normalform.verify_resonant_symmetry(result.g, frame),
                       f"{kind} g breaks the frame symmetry")
        ok &= c.record(op_id, "remainder_finite", _finite(result.remainder),
                       f"{kind} remainder has non-finite coefficients")
        return ok


class _Restrain:
    """integrate + try_restrain on one initial condition, with the
    drift-exclusion check of acceptance criterion 11 on every certificate."""

    def restrain_op(self, start):
        lib = self.lib
        traj = lib.dynamics.integrate(self.system, start, self.t_max, self.icfg)
        res = lib.restrain.try_restrain(
            self.system, traj, self.mu0, self.budget, self.morse,
            exps=self.exps, multipliers=self.multipliers,
        )
        return traj, res

    def check_restrain(self, op_id, start, result):
        traj, res = result
        c = self.checks
        ok = c.record(op_id, "energy_ok", bool(traj.metadata["energy_ok"]),
                      f"energy deviation {traj.metadata['energy_deviation']:.3g}")
        if res.restrained:
            n = self.system.domain.n
            threshold = (n + 1) ** 2 * self.mu0
            horizon = min(res.certificate.budget.tau_m, float(traj.times[-1]))
            dt = self.lib.dynamics.drift_time(self.system, start, threshold, horizon, self.icfg)
            ok &= c.record(op_id, "exclusion", not dt.crossed,
                           f"certified run drifted past {threshold} at t={dt.time}")
        return ok


class DriftLong(Part, _Restrain):
    """Long split-Strang trajectories.  row: one scaling-study row, 40000
    pendulum steps (~0.25 s); c11: criterion 11's integrate + try_restrain,
    40000 steps at n=2 (~0.35 s)."""

    check_names = ("energy_ok", "not_censored", "deterministic")
    LADDER = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    POOL = {"c11": 64, "row": 128}

    def generate(self) -> None:
        lib, rng = self.lib, self.rng
        self.system = lib.systems.quasi_convex(1e-4)
        self.t_max = 2e3
        self.icfg = lib.dynamics.IntegratorConfig(step=0.05, sample_stride=40)
        self.budget = lib.dynamics.TimeBudget.for_m(10, lib.series.Gevrey(1.0, 0.5))
        self.mu0 = 0.045
        self.morse = lib.steepness.MorseParams(0.9, 2.0)
        self.exps = None
        self.multipliers = {"c_mu": 1.2, "smallness": 3.0, "length": 4.0}
        self.pools["c11"] = [
            (rng.uniform(0, 1, 2), rng.uniform(-0.5, 0.5, 2)) for _ in range(self.POOL["c11"])
        ]
        # the scaling study script's pendulum ladder and settings, at half its
        # t_cap so that a run holds enough rows for a tail percentile
        self.pools["row"] = [
            lib.experiments.ExperimentConfig(
                system="pendulum", eps_ladder=(self.LADDER[i % len(self.LADDER)],),
                num_ic=1, seed=int(rng.integers(0, 2 ** 31)), step=0.005,
                sample_stride=20, m_multiplier=6.0, t_cap=200.0,
                threshold_mode="sqrt", threshold_scale=0.5,
            )
            for i in range(self.POOL["row"])
        ]
        self.csv_path = self.workdir / "drift-row.csv"
        self.repeat_path = self.workdir / "drift-repeat.csv"

    def run(self, kind, item):
        if kind == "c11":
            return self.restrain_op(item)
        records, _ = self.lib.experiments.run_scaling(item, self.csv_path, resume=False)
        return records

    def check(self, op_id, kind, item, result):
        if kind == "c11":
            return self.check_restrain(op_id, item, result)
        exp = self.lib.experiments
        c = self.checks
        ok = c.record(op_id, "not_censored", len(result) == 1 and not result[0].censored,
                      f"row eps={item.eps_ladder[0]} seed={item.seed} hit the wall cap")
        if c.runs["deterministic"] == 0:
            # once per run: the same row again must give the same data section
            exp.run_scaling(item, self.repeat_path, resume=False)
            ok &= c.record(op_id, "deterministic",
                           exp.data_section(self.csv_path) == exp.data_section(self.repeat_path),
                           f"row eps={item.eps_ladder[0]} seed={item.seed} data section changed")
        return ok


class CertifyShort(Part, _Restrain):
    """The README restrain regime (eps 1e-6, tau_m = e): ic is a short
    integrate + try_restrain, with Dirichlet witness searches and local
    normal forms (10-170 ms)."""

    check_names = ("energy_ok", "exclusion")
    POOL = {"ic": 512}

    def generate(self) -> None:
        lib, rng = self.lib, self.rng
        eps = 1e-6
        self.system = lib.systems.quasi_convex(eps)
        self.exps = lib.restrain.exponents(2, Fraction(2))
        self.budget = lib.restrain.time_budget(
            eps, self.system.hamiltonian.regularity, self.exps, 1.0
        )
        self.t_max = min(self.budget.tau_m, 8.0)
        self.icfg = lib.dynamics.IntegratorConfig(step=0.05, sample_stride=20)
        self.mu0 = 0.05
        self.morse = lib.steepness.MorseParams(0.9, 2.0)
        self.multipliers = {"c_mu": 1.2, "smallness": 3.0, "length": 4.0}
        actions = _stratified_actions(rng, self.POOL["ic"], 16, 0.5)
        self.pools["ic"] = [(rng.uniform(0, 1, 2), I0) for I0 in actions]

    def run(self, kind, item):
        return self.restrain_op(item)

    def check(self, op_id, kind, item, result):
        return self.check_restrain(op_id, item, result)


class SeriesEval(Part):
    """Per-point series reads.  mid: 100 implicit-midpoint steps of a seeded
    non-separable H read back from its series file (~45 ms); morse_*_33/65:
    check_morse on SeriesHamiltonians at grid 33 (~0.25 s) and 65 (~1 s)."""

    check_names = ("energy_ok", "midpoint_scheme", "series_roundtrip",
                   "morse_degenerate_fails_e2", "morse_generated_passes")
    POOL = {"mid": 96}
    STEPS = 100

    def generate(self) -> None:
        lib, rng = self.lib, self.rng
        S = lib.series
        d = S.Domain(2, 1.0)
        K, D = 2, 3
        self.icfg = lib.dynamics.IntegratorConfig(step=0.05, sample_stride=10)
        self.morse = lib.steepness.MorseParams(0.9, 2.0)
        self.degenerate = lib.systems.degenerate_steep(1e-3).h_action
        mids = []
        for i in range(self.POOL["mid"]):
            # h = |I|^2/2 + a I1^3 + b I2^3 with |a|, |b| <= 0.002 keeps the
            # Hessian above 0.9 on B_1; f couples angle and action.
            a, b = rng.uniform(-0.002, 0.002, 2)
            mode = tuple(int(x) for x in rng.integers(-1, 2, 2))
            if not any(mode):
                mode = (1, 1)
            eps = float(rng.uniform(2e-5, 6e-5))
            h = (S.FourierTaylorSeries.monomial(d, (2, 0), 0.5, K, D)
                 + S.FourierTaylorSeries.monomial(d, (0, 2), 0.5, K, D)
                 + S.FourierTaylorSeries.monomial(d, (3, 0), float(a), K, D)
                 + S.FourierTaylorSeries.monomial(d, (0, 3), float(b), K, D))
            one = S.FourierTaylorSeries.constant(d, 1.0, K, D)
            i1 = S.FourierTaylorSeries.action_coordinate(d, 0, K, D)
            H = h + S.FourierTaylorSeries.cosine(d, mode, eps, K, D).product(one + i1)
            path = self.workdir / f"series-{i}.series"
            S.save_series(path, H, S.Gevrey(1.0, 0.5))
            start = (rng.uniform(0, 1, 2), rng.uniform(-0.5, 0.5, 2))
            mids.append((path, H, eps, start))
        self.pools["mid"] = mids
        # the generated files' average parts, read back the way --series does
        gens = []
        for path, _, _, _ in mids[:8]:
            s, _ = S.load_series(path)
            avg, _ = S.split_by_modes(s)
            gens.append(lib.systems.SeriesHamiltonian(avg))
        self.pools["morse_gen_33"] = self.pools["morse_gen_65"] = gens
        self.pools["morse_deg_33"] = self.pools["morse_deg_65"] = [self.degenerate]

    def run(self, kind, item):
        lib = self.lib
        if kind == "mid":
            path, _, eps, start = item
            s, reg = lib.series.load_series(path)
            h, f = lib.series.split_by_modes(s)
            system = lib.series.HamiltonianSystem(h, f, eps, reg)
            traj = lib.dynamics.integrate(
                system, start, self.STEPS * self.icfg.step, self.icfg
            )
            return s, traj
        grid = int(kind.rsplit("_", 1)[1])
        return lib.steepness.check_morse(item, self.morse, 3, 2, grid_res=grid)

    def check(self, op_id, kind, item, result):
        c = self.checks
        if kind == "mid":
            loaded, traj = result
            ok = c.record(op_id, "series_roundtrip",
                          dict(loaded.items()) == dict(item[1].items()),
                          f"{item[0].name} did not read back coefficient-exact")
            ok &= c.record(op_id, "energy_ok", bool(traj.metadata["energy_ok"]),
                           f"energy deviation {traj.metadata['energy_deviation']:.3g}")
            ok &= c.record(op_id, "midpoint_scheme", traj.metadata["scheme"] == "midpoint",
                           f"scheme {traj.metadata['scheme']} instead of midpoint")
            return ok
        if kind.startswith("morse_deg"):
            keys = {f.subspace.lattice_key() for f in result.failures}
            return c.record(op_id, "morse_degenerate_fails_e2",
                            not result.passed and ((0, 1),) in keys,
                            f"degenerate verdict passed={result.passed} failures={sorted(keys)}")
        return c.record(op_id, "morse_generated_passes", result.passed,
                        f"generated average failed on {len(result.failures)} subspaces")


class Workload:
    """A fixed cyclic schedule over the op kinds of a few parts.

    Each part draws its inputs from its own stream of the seed and runs and
    checks its own kinds; all of them record into the workload's one set of
    checks.
    """

    name = ""
    why = ""
    parts: tuple[type[Part], ...] = ()
    schedule: tuple[str, ...] = ()
    warmup_kind = ""
    tail_pct = 90.0
    traced_ops = 0

    def __init__(self, lib, seed: int, workdir: Path) -> None:
        self.checks = Checks(tuple(dict.fromkeys(
            name for part in self.parts for name in part.check_names)))
        self.owner: dict[str, Part] = {}
        for i, cls in enumerate(self.parts):
            part = cls(lib, np.random.default_rng([seed, i]), workdir, self.checks)
            self.owner.update(dict.fromkeys(part.pools, part))

    def warmup_input(self):
        """Input of the untimed warm-up op in set-up."""
        return self.op_input(self.warmup_kind, 0)

    def op_input(self, kind: str, index: int):
        pool = self.owner[kind].pools[kind]
        return pool[index % len(pool)]

    def run(self, kind: str, item):
        return self.owner[kind].run(kind, item)

    def check(self, op_id: int, kind: str, item, result) -> bool:
        return self.owner[kind].check(op_id, kind, item, result)

    def final_problems(self) -> list[str]:
        return [f"check {name} never ran" for name in self.checks.vacuous()]


class NormalFormCertify(Workload):
    name = "normal_form_certify"
    why = ("normal forms of seeded 2-frames (tiny n=2,3 frames set p50, dense n=2 frames the "
           "p98 tail), local normal forms and README-regime restrain certificates")
    # 24 ops: 18 tiny frames (3/4) hold p50 near the middle of their own
    # spread of costs, where a shared host's slow phases move it least; 4
    # restrain runs and a local normal form sit above most of them; the dense
    # frame is the top 1/24, so p98 falls in the middle of that group.
    parts = (NormalForm, CertifyShort)
    schedule = ("s2", "s3", "ic", "s2", "s3", "s2", "s3", "ic", "s2", "s3", "local", "s2",
                "s3", "ic", "s2", "s3", "s2", "s3", "ic", "s2", "s3", "s2", "s3", "dense")
    warmup_kind = "s2"
    tail_pct = 98.0
    traced_ops = 240


class DriftSeriesEval(Workload):
    name = "drift_series_eval"
    why = ("split-Strang scaling rows and criterion-11 runs, midpoint runs of seeded "
           "non-separable H read from series files (p50), Morse checks; tail p92 in c11 runs")
    # 130 ops: 88 midpoint runs (2/3) hold p50.  Above them the grid-33
    # Morse checks and the rows, then the 16 c11 runs, which hold p92, then
    # the two grid-65 Morse checks.
    parts = (DriftLong, SeriesEval)
    _a = (("mid",) * 3 + ("row",) + ("mid",) * 2 + ("c11",) + ("mid",) * 2 + ("morse_deg_33",)
          + ("mid",) * 2 + ("row",) + ("mid",) * 2 + ("c11",))
    _b = tuple("morse_gen_33" if k == "morse_deg_33" else k for k in _a)
    schedule = (("morse_deg_65",) + (_a + _b) * 2 + ("morse_gen_65",) + (_a + _b) * 2)
    warmup_kind = "mid"
    tail_pct = 92.0
    traced_ops = 66


WORKLOADS = {w.name: w for w in (NormalFormCertify, DriftSeriesEval)}
