"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Stated runtime budgets are asserted where the criterion gives one.

Criterion 8 runs on a perturbation with angle-action coupling,
f = mu*cos(2*pi*theta_1)*(1 + I_1).  A purely angle-dependent mode would be
normalized *exactly* by the first averaging step (every Poisson bracket of
angle-only series vanishes), leaving a zero remainder and no decay to
measure; see notes/decisions.md.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from conftest import action_h
from driftbench.diophantine import (
    PeriodicVector,
    ResonanceFrame,
    dirichlet_approx,
    period_of,
    rational_rank,
    resonance_module,
)
from driftbench.dynamics import (
    SENTINEL,
    IntegratorConfig,
    TimeBudget,
    drift_time,
    integrate,
    transverse_drift,
)
from driftbench.experiments import ExperimentConfig, data_section, run_scaling
from driftbench.normalform import (
    NormalFormConfig,
    composed_normal_form,
    homological_solve,
    periodic_averaging,
    resonant_split,
    verify_resonant_symmetry,
)
from driftbench.restrain import exponents, try_restrain
from driftbench.series import Domain, FourierTaylorSeries, Gevrey, poisson_bracket
from driftbench.steepness import MorseParams, best_gamma, check_morse, subspace_margins
from driftbench.systems import GOLDEN, pendulum, quasi_convex


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {num:2d}: {status} -- {description}{suffix}")


def random_series(rng, n, k_max=8, d_max=3, terms=6, scale=1.0) -> FourierTaylorSeries:
    domain = Domain(n, 1.0)
    coeffs: dict = {}
    for _ in range(terms):
        k = tuple(int(x) for x in rng.integers(-k_max, k_max + 1, n))
        lesum = int(rng.integers(0, d_max + 1))
        l = [0] * n
        for _ in range(lesum):
            l[int(rng.integers(0, n))] += 1
        l = tuple(l)
        c = complex(rng.normal(), 0.0 if not any(k) else rng.normal()) * scale
        neg = tuple(-x for x in k)
        coeffs[(k, l)] = coeffs.get((k, l), 0j) + c
        if neg != k:
            coeffs[(neg, l)] = coeffs.get((neg, l), 0j) + c.conjugate()
        else:
            coeffs[(k, l)] = coeffs[(k, l)].real + 0j
    return FourierTaylorSeries(domain, coeffs, k_max, d_max)


def random_periodic(rng, n, max_num=3, max_den=4) -> PeriodicVector:
    while True:
        comps = tuple(
            F(int(rng.integers(-max_num, max_num + 1)), int(rng.integers(1, max_den + 1)))
            for _ in range(n)
        )
        if any(comps):
            return period_of(comps)


def test_criterion_01_homological_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    cases = 0
    worst = 0.0
    while cases < 200:
        n = int(rng.integers(1, 4))
        f = random_series(rng, n)
        w = random_periodic(rng, n)
        assert float(w.period) <= 20
        chi = homological_solve(f, w)
        l_w = FourierTaylorSeries.linear(
            f.domain, [float(x) for x in w.omega], k_max=f.k_max,
            d_max=max(f.d_max, 1),
        )
        lhs = poisson_bracket(chi, l_w, k_max=f.k_max, d_max=f.d_max) + resonant_split(f, w)[0]
        defect = (lhs - f).coefficient_norm() / max(f.coefficient_norm(), 1e-300)
        worst = max(worst, defect)
        cases += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, "homological identity on 200 random series", ok,
           f"worst relative defect {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_02_normal_form_symmetry():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    checked = 0
    for n in (2, 3):
        for _ in range(25):
            # frames satisfying the closeness the averaging scheme needs:
            # omega_2 = omega_1 + small rational offset, independent
            while True:
                w1 = random_periodic(rng, n, max_num=2, max_den=3)
                delta = tuple(
                    F(int(rng.integers(-3, 4)), 1000) for _ in range(n)
                )
                omega2 = tuple(a + b for a, b in zip(w1.omega, delta))
                if any(omega2) and rational_rank([w1.omega, omega2]) == 2:
                    w2 = period_of(omega2)
                    break
            frame = ResonanceFrame.build([w1, w2])
            f = random_series(rng, n, k_max=3, d_max=2, terms=4, scale=1e-8)
            H = FourierTaylorSeries.linear(
                f.domain, [float(x) for x in w2.omega], k_max=f.k_max, d_max=f.d_max
            ) + f
            res = composed_normal_form(H, frame, NormalFormConfig(m=2, lie_order=3))
            assert res.symmetry_checked, f"symmetry failed for frame {frame.vectors}"
            assert verify_resonant_symmetry(res.g, frame)
            checked += 1
    elapsed = time.monotonic() - t0
    ok = checked >= 50 and elapsed < 60.0
    report(2, "composed normal-form resonant symmetry on 50 random 2-frames",
           ok, f"{checked} frames, {elapsed:.1f}s")
    assert checked >= 50
    assert elapsed < 60.0


def test_criterion_03_symmetry_propagation():
    rng = np.random.default_rng(303)
    cases = 0
    while cases < 100:
        n = int(rng.integers(2, 4))
        w2 = random_periodic(rng, n)
        w1 = random_periodic(rng, n)
        if rational_rank([w1.omega, w2.omega]) != 2:
            continue
        # f supported on modes annihilating omega_2
        kernel = resonance_module([w2])
        if not kernel:
            continue
        domain = Domain(n, 1.0)
        d_max = 2
        coeffs: dict = {}
        for _ in range(4):
            combo = [int(x) for x in rng.integers(-2, 3, len(kernel))]
            k = tuple(sum(c * row[i] for c, row in zip(combo, kernel)) for i in range(n))
            if max(abs(x) for x in k) > 8:
                continue
            lsum = int(rng.integers(0, d_max + 1))
            l = [0] * n
            for _ in range(lsum):
                l[int(rng.integers(0, n))] += 1
            l = tuple(l)
            c = complex(rng.normal(), 0.0 if not any(k) else rng.normal())
            neg = tuple(-x for x in k)
            coeffs[(k, l)] = coeffs.get((k, l), 0j) + c
            if neg != k:
                coeffs[(neg, l)] = coeffs.get((neg, l), 0j) + c.conjugate()
            else:
                coeffs[(k, l)] = coeffs[(k, l)].real + 0j
        if not coeffs:
            continue
        f = FourierTaylorSeries(domain, coeffs, 8, d_max)

        def annihilates(series) -> bool:
            return all(
                sum(F(x) * o for x, o in zip(k, w2.omega)) == 0
                for (k, _), _ in series.items()
            )

        assert annihilates(f)
        assert annihilates(resonant_split(f, w1)[0])
        assert annihilates(homological_solve(f, w1))
        cases += 1
    report(3, "averaging along omega_1 preserves the omega_2 mode condition",
           True, f"{cases} coefficient-exact cases")


def test_criterion_04_dirichlet_property():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    failures = 0
    for i in range(1000):
        n = 2 if i % 2 == 0 else 3
        v = rng.uniform(-1, 1, n)
        if np.max(np.abs(v)) < 0.1:
            v[int(rng.integers(0, n))] = float(rng.uniform(0.1, 1.0))
        Q = float(rng.uniform(5, 50))
        r = dirichlet_approx(v, Q)
        vf = [F(float(x)) for x in v]
        T = r.vector.period
        err = max(abs(a - b) for a, b in zip(vf, r.vector.omega))
        vnorm = max(abs(x) for x in vf)
        if (err * T) ** (n - 1) * F(Q) > 1 or not (1 <= T * vnorm <= F(Q)):
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 30.0
    report(4, "Dirichlet approximation inequalities on 1000 random inputs",
           ok, f"{failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_05_resonance_module_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    frames = 0
    while frames < 100:
        n = int(rng.integers(2, 4))
        j = int(rng.integers(1, n))
        vecs: list[PeriodicVector] = []
        tries = 0
        while len(vecs) < j and tries < 50:
            tries += 1
            cand = random_periodic(rng, n, max_num=2, max_den=3)
            if rational_rank([pv.omega for pv in vecs] + [cand.omega]) == len(vecs) + 1:
                vecs.append(cand)
        if len(vecs) < j:
            continue
        basis = resonance_module(vecs)
        # brute-force integer kernel membership on the |k|_1 <= 20 window
        scaled = []
        for pv in vecs:
            lcm = math.lcm(*(x.denominator for x in pv.omega))
            scaled.append([int(x * lcm) for x in pv.omega])
        A = np.array(scaled, dtype=np.int64)
        rng_axis = np.arange(-20, 21)
        grids = np.meshgrid(*([rng_axis] * n), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        pts = pts[np.sum(np.abs(pts), axis=1) <= 20]
        in_kernel = np.all(pts @ A.T == 0, axis=1)
        # membership in the basis lattice, vectorized HNF staircase reduction
        v = pts.astype(np.int64).copy()
        in_lattice = np.ones(len(pts), dtype=bool)
        for row in basis:
            row = np.array(row, dtype=np.int64)
            pivot = int(np.nonzero(row)[0][0])
            in_lattice &= v[:, pivot] % row[pivot] == 0
            q = v[:, pivot] // row[pivot]
            v = v - q[:, None] * row[None, :]
        in_lattice &= np.all(v == 0, axis=1)
        # oracle equivalence pointwise on the window: the module lattice and
        # the exact kernel agree
        assert np.array_equal(in_kernel, in_lattice), (
            f"lattice/kernel disagree for frame {[str(p) for p in vecs]}"
        )
        frames += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 30.0
    report(5, "resonance modules match brute-force kernels on 100 frames",
           ok, f"{elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_06_exponent_exactness():
    exps = exponents(2, 2)
    ok = (
        exps.a_list == (F(1, 144), F(1, 12))
        and exps.a == F(1, 432)
        and exps.b == F(1, 432)
    )
    report(6, "exponents(2,2) = (1/144, 1/12, 1/432, 1/432) exactly", ok)
    assert ok


def test_criterion_07_transverse_drift_invariance():
    t0 = time.monotonic()
    d = Domain(2, 1.0)
    h = FourierTaylorSeries.linear(d, (1.0, 0.0), k_max=1, d_max=1)
    g = FourierTaylorSeries.cosine(d, (0, 1), 1.0, k_max=1, d_max=1)
    from driftbench.series import HamiltonianSystem

    sys = HamiltonianSystem(h, g, 1.0, Gevrey(1.0, 0.5))
    traj = integrate(sys, ((0.0, 0.0), (0.2, 0.1)), 1e4,
                     IntegratorConfig(step=0.05, sample_stride=50))
    frame = ResonanceFrame.build([period_of((1, 0))])
    td = transverse_drift(traj, frame)
    elapsed = time.monotonic() - t0
    ok = td.max_drift <= 1e-9 and elapsed < 60.0
    report(7, "transverse drift with frame-resonant g and zero remainder",
           ok, f"max drift {td.max_drift:.2e} over t<=1e4, {elapsed:.1f}s")
    assert td.max_drift <= 1e-9
    assert elapsed < 60.0


def test_criterion_08_remainder_decay():
    # The coupled toy of scripts/run_remainder_decay.py: the bracket terms of
    # the Lie series do not vanish, so each averaging step leaves a smaller,
    # nonzero non-resonant remainder (contraction ~ mu^2/2 per step).
    d = Domain(2, 1.0)
    mu = 1e-3
    k_max, d_max = 16, 3
    one = FourierTaylorSeries.constant(d, 1.0, k_max, d_max)
    i1 = FourierTaylorSeries.action_coordinate(d, 0, k_max, d_max)
    f = FourierTaylorSeries.cosine(d, (1, 0), mu, k_max, d_max).product(one + i1)
    H = FourierTaylorSeries.linear(d, (1.0, 0.0), k_max, d_max) + f
    w = period_of((1, 0))
    assert w.period == 1
    norms = []
    for m in range(1, 9):
        out = periodic_averaging(H, w, NormalFormConfig(m=m, lie_order=6))
        # the decay comes from m full averaging steps in the T*mu << 1
        # regime, not from an early exit or from mass dropped by truncation
        assert len(out.steps) == m
        assert out.smallness.satisfied, out.smallness.entries
        assert out.remainder.trunc_loss.is_zero
        norms.append(out.remainder.coefficient_norm())
    strictly_decreasing = all(a > b for a, b in zip(norms, norms[1:]))
    ratio_ok = norms[0] > 0 and norms[-1] / norms[0] < 1e-6
    ok = strictly_decreasing and ratio_ok
    report(8, "remainder decay on the coupled toy mu*cos(2 pi theta_1)*(1+I_1)",
           ok, f"remainder norms {['%.1e' % x for x in norms]}")
    assert strictly_decreasing, (
        "remainder norms are not strictly decreasing on the coupled toy; "
        "see notes/decisions.md for the expected contraction"
    )
    assert ratio_ok


def test_criterion_09_integrator_health():
    sys = pendulum(1e-2)
    cfg = IntegratorConfig(step=1e-3, sample_stride=100)
    traj = integrate(sys, ((0.1,), (0.0,)), 100.0, cfg)   # 1e5 steps
    energy_dev = traj.energy_deviation()
    back = integrate(sys, ((traj.thetas[-1][0],), (traj.actions[-1][0],)), -100.0, cfg)
    rev = max(
        abs((back.thetas[-1][0] - 0.1 + 0.5) % 1.0 - 0.5),
        abs(back.actions[-1][0] - 0.0),
    )
    ok = energy_dev < 1e-6 and rev < 1e-8
    report(9, "pendulum energy and reversibility over 1e5 steps", ok,
           f"energy dev {energy_dev:.2e}, reversibility {rev:.2e}")
    assert energy_dev < 1e-6
    assert rev < 1e-8


def test_criterion_10_morse_checker_verdicts():
    identity = action_h(np.eye(2))
    degenerate = action_h(np.diag([1.0, 0.0]))
    golden = action_h(omega=[1.0, GOLDEN])
    margins = subspace_margins(golden, 5, 33)
    measured_gamma = best_gamma(margins, 2.0)
    assert measured_gamma is not None
    verdicts = {}
    for res in (33, 65):
        a = check_morse(identity, MorseParams(0.9, 2.0), 3, 2, grid_res=res)
        b = check_morse(degenerate, MorseParams(0.9, 2.0), 3, 2, grid_res=res)
        c = check_morse(golden, MorseParams(measured_gamma, 2.0), 5, 2, grid_res=res)
        keys = {f_.subspace.lattice_key() for f_ in b.failures}
        verdicts[res] = (a.passed, b.passed, ((0, 1),) in keys, c.passed)
    ok = all(v == (True, False, True, True) for v in verdicts.values())
    report(10, "Morse verdicts (pass / fail naming span{e2} / golden passes) "
               "stable across grid 33 -> 65", ok,
           f"measured gamma {measured_gamma}")
    assert ok


def test_criterion_11_restrain_drift_exclusion():
    eps = 1e-4
    sysq = quasi_convex(eps)
    budget = TimeBudget.for_m(10, Gevrey(1.0, 0.5))   # tau_m ~ 2.2e4, capped below
    t_cap = 1e4
    cfg = IntegratorConfig(step=0.05, sample_stride=40)
    mult = {"c_mu": 1.2, "smallness": 3.0, "length": 4.0}
    mu0 = 0.045
    rng = np.random.default_rng(1111)
    certificates = 0
    crossings = 0
    both = 0
    for run in range(20):
        theta0 = rng.uniform(0, 1, 2)
        I0 = rng.uniform(-0.5, 0.5, 2)
        traj = integrate(sysq, (theta0, I0), t_cap, cfg)
        res = try_restrain(sysq, traj, mu0, budget, MorseParams(0.9, 2.0),
                           multipliers=mult)
        threshold = (2 + 1) ** 2 * mu0
        if res.restrained:
            certificates += 1
            dt = drift_time(sysq, (theta0, I0), threshold, t_cap, cfg)
            crossed = dt.time != SENTINEL
            if crossed:
                both += 1
            assert dt.time == SENTINEL, (
                f"run {run}: certificate issued but drift crossed at {dt.time}"
            )
    ok = both == 0
    report(11, "restrain/drift exclusion on 20 desk-scale runs", ok,
           f"{certificates} certificates, {both} contradictions")
    assert both == 0


def test_criterion_12_scaling_determinism(tmp_path):
    cfg = ExperimentConfig(
        system="pendulum", eps_ladder=(1e-2, 1e-3), num_ic=2, seed=5,
        step=0.01, sample_stride=10, t_cap=10.0,
        threshold_mode="sqrt", threshold_scale=2.0,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scaling(cfg, a, resume=False)
    run_scaling(cfg, b, resume=False)
    ok = data_section(a) == data_section(b)
    report(12, "repeated scaling runs are byte-identical in the data section", ok)
    assert ok
