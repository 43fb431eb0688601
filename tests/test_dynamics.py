import functools
import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench import dynamics
from driftbench.diophantine import ResonanceFrame, period_of
from driftbench.dynamics import (
    SENTINEL,
    IntegratorConfig,
    TimeBudget,
    TrajectoryRecord,
    drift_time,
    integrate,
    tau_m_value,
    transverse_drift,
)
from driftbench.series import (
    TWO_PI,
    Domain,
    FiniteDiff,
    FourierTaylorSeries,
    Gevrey,
    HamiltonianSystem,
)
from driftbench.systems import degenerate_steep, linear_diophantine, pendulum, quasi_convex


def synthetic_record(times, actions):
    times = np.asarray(times, dtype=float)
    actions = np.asarray(actions, dtype=float)
    return TrajectoryRecord(
        times, np.zeros_like(actions), actions, np.zeros_like(times), False, {}
    )


class TestIntegrate:
    def test_integrable_actions_constant(self):
        sys = quasi_convex(0.0)
        traj = integrate(sys, ((0.0, 0.0), (0.3, 0.4)), 10.0,
                         IntegratorConfig(step=0.01, sample_stride=10))
        assert np.max(np.abs(traj.actions - traj.actions[0])) == 0.0

    def test_linear_flow_angles(self):
        d = Domain(2, 1.0)
        h = FourierTaylorSeries.linear(d, (0.25, 0.125), k_max=1)
        sys = HamiltonianSystem(h, FourierTaylorSeries.zero(d, 1, 1), 0.0, Gevrey(1.0, 0.5))
        traj = integrate(sys, ((0.1, 0.9), (0.0, 0.0)), 8.0,
                         IntegratorConfig(step=0.01, sample_stride=100))
        expect = (np.array([0.1, 0.9]) + 8.0 * np.array([0.25, 0.125])) % 1.0
        assert np.max(np.abs(traj.thetas[-1] - expect)) < 1e-10

    def test_pendulum_amplitude_against_reference(self):
        # oscillation amplitude vs a reference run at step/100
        sys = pendulum(1e-2)
        start = ((0.25,), (0.0,))
        coarse = integrate(sys, start, 10.0, IntegratorConfig(step=1e-2, sample_stride=1))
        fine = integrate(sys, start, 10.0, IntegratorConfig(step=1e-4, sample_stride=100))
        amp_c = np.max(np.abs(coarse.actions))
        amp_f = np.max(np.abs(fine.actions))
        assert abs(amp_c - amp_f) < 1e-4

    def test_pendulum_amplitude_against_energy_oracle(self):
        # energy conservation fixes the libration amplitude analytically:
        # I_max = sqrt(2 eps (1 - cos(2 pi theta_0))) for a start at I = 0
        eps = 1e-2
        sys = pendulum(eps)
        theta0 = 0.25
        traj = integrate(sys, ((theta0,), (0.0,)), 10.0,
                         IntegratorConfig(step=1e-2, sample_stride=1))
        oracle = math.sqrt(2 * eps * (1 - math.cos(2 * math.pi * theta0)))
        assert abs(np.max(np.abs(traj.actions)) - oracle) < 1e-4

    def test_energy_monitoring(self):
        sys = pendulum(1e-2)
        traj = integrate(sys, ((0.1,), (0.0,)), 20.0,
                         IntegratorConfig(step=1e-3, sample_stride=100))
        assert traj.metadata["energy_ok"]
        assert traj.energy_deviation() < 1e-8

    def test_reversibility(self):
        sys = pendulum(1e-2)
        cfg = IntegratorConfig(step=1e-3, sample_stride=100)
        fwd = integrate(sys, ((0.1,), (0.05,)), 20.0, cfg)
        back = integrate(sys, ((fwd.thetas[-1][0],), (fwd.actions[-1][0],)), -20.0, cfg)
        dtheta = abs((back.thetas[-1][0] - 0.1 + 0.5) % 1.0 - 0.5)
        dI = abs(back.actions[-1][0] - 0.05)
        assert max(dtheta, dI) < 1e-10

    def test_escape_halts_early(self):
        # strong kick drives the action out of the unit ball
        d = Domain(1, 0.05)
        h = FourierTaylorSeries.monomial(d, (2,), 0.5, k_max=1, d_max=2)
        f = FourierTaylorSeries.cosine(d, (1,), 0.3, k_max=1, d_max=2)
        sys = HamiltonianSystem(h, f, 0.3, Gevrey(1.0, 0.5))
        traj = integrate(sys, ((0.13,), (0.0,)), 50.0,
                         IntegratorConfig(step=0.01, sample_stride=5))
        assert traj.escaped
        assert traj.times[-1] < 50.0

    def test_midpoint_fallback_on_nonseparable(self):
        d = Domain(1, 2.0)
        h = FourierTaylorSeries.monomial(d, (2,), 0.5, k_max=1, d_max=2)
        i1 = FourierTaylorSeries.action_coordinate(d, 0, k_max=1, d_max=2)
        f = FourierTaylorSeries.cosine(d, (1,), 1e-2, k_max=1, d_max=2).product(
            FourierTaylorSeries.constant(d, 1.0, 1, 2) + i1
        )
        sys = HamiltonianSystem(h, f, 1e-2, Gevrey(1.0, 0.5))
        traj = integrate(sys, ((0.1,), (0.3,)), 5.0,
                         IntegratorConfig(step=1e-3, sample_stride=100))
        assert traj.metadata["scheme"] == "midpoint"
        assert traj.energy_deviation() < 1e-7

    def test_split_and_midpoint_agree_on_separable(self, monkeypatch):
        # two independent schemes, both second order: trajectories agree to
        # their shared truncation order on a short run
        sys = pendulum(1e-2)
        start = ((0.2,), (0.1,))
        cfg = IntegratorConfig(step=1e-3, sample_stride=1000)
        a = integrate(sys, start, 5.0, cfg)
        choose = dynamics._choose_scheme
        monkeypatch.setattr(dynamics, "_choose_scheme",
                            lambda H: ("midpoint",) + choose(H)[1:])
        b = integrate(sys, start, 5.0, cfg)
        assert (a.metadata["scheme"], b.metadata["scheme"]) == ("split", "midpoint")
        assert np.max(np.abs(a.actions - b.actions)) < 1e-5
        assert np.max(np.abs(a.thetas - b.thetas)) < 1e-5

    def test_escape_measured_from_series_center(self):
        # a series centered at 3.0 with R = 0.5: a start at I = 3.1 is inside
        # the ball, and a strong kick off that center still escapes it
        d = Domain(1, 0.5)
        h = FourierTaylorSeries.monomial(d, (2,), 0.5, k_max=1, d_max=2, center=(3.0,))
        f = FourierTaylorSeries.cosine(d, (1,), 1e-3, k_max=1, d_max=2, center=(3.0,))
        quiet = HamiltonianSystem(h, f, 1e-3, Gevrey(1.0, 0.5))
        traj = integrate(quiet, ((0.2,), (3.1,)), 10.0,
                         IntegratorConfig(step=0.01, sample_stride=10))
        assert not traj.escaped
        assert traj.times[-1] == pytest.approx(10.0)
        d = Domain(1, 0.05)
        h = FourierTaylorSeries.monomial(d, (2,), 0.5, k_max=1, d_max=2, center=(3.0,))
        f = FourierTaylorSeries.cosine(d, (1,), 0.3, k_max=1, d_max=2, center=(3.0,))
        kicked = HamiltonianSystem(h, f, 0.3, Gevrey(1.0, 0.5))
        traj = integrate(kicked, ((0.13,), (3.0,)), 50.0,
                         IntegratorConfig(step=0.01, sample_stride=5))
        assert traj.escaped
        dist = np.abs(traj.actions[:, 0] - 3.0)
        assert dist[-1] > 0.05 and np.all(dist[:-1] <= 0.05)

    def test_stop_when_reads_each_sample_as_a_list(self):
        seen = []
        rec = integrate(pendulum(1e-2), ((0.25,), (0.05,)), 1.0,
                        IntegratorConfig(step=0.01, sample_stride=10),
                        stop_when=lambda t, I: seen.append((t, I)) or t >= 0.5)
        assert [t for t, _ in seen] == rec.times[1:].tolist() and rec.times[-1] == 0.5
        assert all(type(I) is list for _, I in seen)
        assert [I for _, I in seen] == rec.actions[1:].tolist()

    def test_midpoint_nonconvergence_raises_with_time_and_update(self, monkeypatch):
        sys = HamiltonianSystem(*_nonseparable(2, seed=3), 1e-3, Gevrey(1.0, 0.5))
        cfg = IntegratorConfig(step=0.05)
        monkeypatch.setattr(dynamics, "MIDPOINT_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match=r"from t=0: last update [\d.e+-]+ >= tol 1e-13"):
            integrate(sys, ((0.1, 0.2), (0.1, -0.2)), 1.0, cfg)


def _nonseparable(n, seed, center=None):
    """Seeded H = h(I) + f(theta, I): twist plus small cubic terms, and
    angle modes whose amplitudes depend on the actions."""
    rng = np.random.default_rng(seed)
    d = Domain(n, 0.5)
    c = center if center is not None else (0.0,) * n
    h = FourierTaylorSeries.zero(d, 1, 3, c)
    f = FourierTaylorSeries.zero(d, 1, 3, c)
    for j in range(n):
        e2 = tuple(2 if i == j else 0 for i in range(n))
        e3 = tuple(3 if i == j else 0 for i in range(n))
        h = h + FourierTaylorSeries.monomial(d, e2, 0.5, 1, 3, c)
        h = h + FourierTaylorSeries.monomial(d, e3, float(rng.uniform(-0.1, 0.1)), 1, 3, c)
        mode = tuple(int(x) for x in rng.integers(-1, 2, n))
        mode = mode if any(mode) else tuple(1 if i == j else 0 for i in range(n))
        amp = FourierTaylorSeries.constant(d, 1.0, 1, 3, c) + (
            FourierTaylorSeries.action_coordinate(d, j, 1, 3, c).scaled(float(rng.uniform(0.5, 2)))
        )
        f = f + FourierTaylorSeries.cosine(d, mode, 1e-3, 1, 3, c).product(amp)
        f = f + FourierTaylorSeries.sine(d, mode, 5e-4, 1, 3, c)
    return h, f


def _reference_midpoint(H, theta, action, dt, nsteps, tol=1e-13, max_iter=50):
    """The per-derivative fixed-point midpoint loop: 2n separate series
    evaluations per iteration, angles and actions tested separately."""
    n = H.domain.n
    dtheta = [H.partial_theta(j) for j in range(n)]
    daction = [H.partial_action(j) for j in range(n)]
    theta, action = np.array(theta, dtype=float), np.array(action, dtype=float)
    thetas, actions = [theta % 1.0], [action]
    for _ in range(nsteps):
        th_mid, ac_mid = theta.copy(), action.copy()
        for _ in range(max_iter):
            dth = np.array([g.evaluate(th_mid, ac_mid) for g in daction])
            dac = -np.array([g.evaluate(th_mid, ac_mid) for g in dtheta])
            th_new = theta + 0.5 * dt * dth
            ac_new = action + 0.5 * dt * dac
            delta = max(np.max(np.abs(th_new - th_mid)), np.max(np.abs(ac_new - ac_mid)))
            th_mid, ac_mid = th_new, ac_new
            if delta < tol:
                break
        else:
            raise RuntimeError("reference midpoint failed to converge")
        theta, action = 2 * th_mid - theta, 2 * ac_mid - action
        thetas.append(theta % 1.0)
        actions.append(action)
    return np.array(thetas), np.array(actions)


@pytest.mark.parametrize("n, seed, center", [
    (2, 11, None),
    (3, 12, None),
    (2, 13, (3.0, -1.5)),
])
def test_midpoint_matches_reference_loop(n, seed, center):
    h, f = _nonseparable(n, seed, center)
    sys = HamiltonianSystem(h, f, 1e-3, Gevrey(1.0, 0.5))
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(0, 1, n)
    action0 = np.asarray(h.center) + rng.uniform(-0.2, 0.2, n)
    traj = integrate(sys, (theta0, action0), 200 * 0.05,
                     IntegratorConfig(step=0.05, sample_stride=1))
    assert traj.metadata["scheme"] == "midpoint" and not traj.escaped
    ref_th, ref_ac = _reference_midpoint(sys.total(), theta0, action0, 0.05, 200)
    assert traj.actions.shape == ref_ac.shape
    assert np.max(np.abs(traj.actions - ref_ac)) <= 1e-12
    dth = (traj.thetas - ref_th + 0.5) % 1.0 - 0.5
    assert np.max(np.abs(dth)) <= 1e-12


def _reference_run(run_block, H, theta, action, dt, n_steps, stride, stop_when=None):
    """The Python sample loop that drove one ``run_block(theta, action, dt,
    nsteps, time)`` call per block of ``stride`` steps, returning what the
    generated ``run`` returns: ``(times, thetas, actions, escaped)``.  After
    each block it rejects a non-finite state, records the sample, ends the
    run escaped when the action leaves H's ball, and asks ``stop_when``."""
    th, ac = list(theta), list(action)
    times, thetas, actions = [0.0], [th], [ac]
    k = 0
    while k < n_steps:
        block = min(stride, n_steps - k)
        th, ac = run_block(th, ac, dt, block, k * dt)
        k += block
        t = k * dt
        if not all(map(math.isfinite, th + ac)):
            raise FloatingPointError(f"non-finite state at t={t}")
        times.append(t)
        thetas.append(th)
        actions.append(ac)
        if not H.domain.contains_action(ac, H.center):
            return times, thetas, actions, True
        if stop_when is not None and stop_when(t, ac):
            break
    return times, thetas, actions, False


def _crossed(reach, stop_when):
    """``drift_time``'s ``crossed`` closure as it was before the crossing
    moved into the generated sample check: true once the sup-norm distance
    from ``reach.I0`` reaches ``reach.threshold``, else what ``stop_when``
    says.  With no reach, ``stop_when`` itself."""
    if reach is None:
        return stop_when

    def crossed(t, action):
        if max(map(abs, map(operator.sub, action, reach.I0))) >= reach.threshold:
            return True
        return stop_when(t, action) if stop_when is not None else False

    return crossed


class _InterpretedMidpointFlow:
    """``_interpreted_midpoint`` blocks driven by the reference sample loop,
    which ``reach`` stops through ``_crossed``."""

    def __init__(self, H, reach=None):
        block = functools.partial(_interpreted_midpoint, H)
        self.run = lambda theta, action, dt, n_steps, stride, stop_when: _reference_run(
            block, H, theta, action, dt, n_steps, stride, _crossed(reach, stop_when))


def _interpreted_midpoint(H, theta, action, dt, nsteps, time=0.0):
    """The generated midpoint's arithmetic, one term at a time: every term
    of the field rows (dH/dI_j, then -dH/dtheta_j, in ``items()`` order)
    reads its own cos/sin and powers, (Re c cos y - Im c sin y) times the
    left-to-right product of (I_i - c_i) ** float(e_i), and each row sums its
    terms left to right.  An update that is NaN never converges, and an
    overflow or domain error is a NaN update."""
    n = H.domain.n
    rows = [H.partial_action(j) for j in range(n)] + [-H.partial_theta(j) for j in range(n)]
    rows = [list(row.items()) for row in rows]
    z, half = list(theta) + list(action), 0.5 * dt
    for i in range(nsteps):
        m = list(z)
        try:
            for _ in range(dynamics.MIDPOINT_MAX_ITER):
                diff = [a - c for a, c in zip(m[n:], H.center)]
                field = []
                for row in rows:
                    v = None
                    for (k, l), c in row:
                        term = c.real
                        if any(k):
                            y = None
                            for kj, tj in zip(k, m):
                                if kj:
                                    y = kj * tj if y is None else y + kj * tj
                            y = TWO_PI * y
                            term = c.real * math.cos(y) - c.imag * math.sin(y)
                        prod = None
                        for d, e in zip(diff, l):
                            if e:
                                p = d ** float(e)
                                prod = p if prod is None else prod * p
                        term = term if prod is None else term * prod
                        v = term if v is None else v + term
                    field.append(0.0 if v is None else v)
                w = [a + half * v for a, v in zip(z, field)]
                updates = [abs(a - b) for a, b in zip(w, m)]
                m = w
                delta = math.nan if any(map(math.isnan, updates)) else max(updates)
                if delta < dynamics.MIDPOINT_TOL:
                    break
        except (OverflowError, ValueError):
            delta = math.nan
        if not delta < dynamics.MIDPOINT_TOL:
            raise RuntimeError(
                f"implicit midpoint did not converge in the step from t={time + i * dt:.17g}: "
                f"last update {delta:.3g} >= tol {dynamics.MIDPOINT_TOL:.3g} "
                f"after {dynamics.MIDPOINT_MAX_ITER} iterations")
        z = [2.0 * a - b for a, b in zip(m, z)]
    return z[:n], z[n:]


@st.composite
def _midpoint_case(draw):
    """A real H: an optional twist 0.5 I_j^2 per action plus up to six modes,
    each with its -k partner and a cosine, sine or mixed amplitude; on or
    off the origin.  Actions or angles that no term reads leave field rows
    with no terms.  Steps up to 0.3 make each update large against the
    state, so that a last-bit change in a field row shows in the states;
    some of those steps do not converge."""
    n = draw(st.integers(1, 3))
    center = draw(st.sampled_from([(0.0,) * n, (0.3, -1.2, 2.5)[:n]]))
    d = Domain(n, 1.0)
    coeffs = {}
    for j, twist in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        if twist:
            coeffs[((0,) * n, tuple(2 if i == j else 0 for i in range(n)))] = 0.5
    part = st.sampled_from([0.0, 0.0, 0.05]) | st.floats(-0.1, 0.1)
    amp = st.builds(complex, part, part).map(lambda c: c or 0.05)
    ks = st.tuples(*[st.integers(-2, 2)] * n)
    ls = st.tuples(*[st.integers(0, 3)] * n).map(
        lambda l: l if sum(l) <= 3 else tuple(min(e, 1) for e in l))
    for k, l, c in draw(st.lists(st.tuples(ks, ls, amp), max_size=6)):
        c = c if any(k) else complex(c.real or 0.05)
        coeffs[(k, l)] = c
        coeffs[(tuple(-x for x in k), l)] = c.conjugate()
    H = FourierTaylorSeries(d, coeffs, 2, 3, center)
    theta = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    offset = draw(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n))
    action = [c + o for c, o in zip(center, offset)]
    dt = draw(st.floats(1e-3, 0.3)) * draw(st.sampled_from([1.0, -1.0]))
    blocks = draw(st.lists(st.sampled_from([1, 2, 7]), min_size=1, max_size=3))
    return H, theta, action, dt, blocks


def _outcome(run, *args):
    """What ``run`` returns, or the type and message of its error."""
    try:
        return run(*args)
    except (RuntimeError, FloatingPointError) as err:
        return type(err), str(err)


@given(_midpoint_case())
@settings(max_examples=150, deadline=None)
def test_midpoint_block_matches_interpreted_arithmetic(case):
    # each block length as the stride of one run over all the blocks' steps
    H, theta, action, dt, blocks = case
    flow, ref = dynamics._MidpointFlow(H), _InterpretedMidpointFlow(H)
    for stride in blocks:
        args = (list(theta), list(action), dt, sum(blocks), stride, None)
        assert _bits(_outcome(flow.run, *args)) == _bits(_outcome(ref.run, *args))


@pytest.mark.parametrize("step", [1e6, 1e200])
def test_midpoint_divergent_step_raises_nonconvergence(step):
    # the field overflows or reads sin/cos of an infinite angle; the step
    # still ends in the non-convergence error with a NaN update
    sys = HamiltonianSystem(*_nonseparable(2, seed=3), 1e-3, Gevrey(1.0, 0.5))
    with pytest.raises(RuntimeError, match=(
            r"^implicit midpoint did not converge in the step from t=0: "
            r"last update nan >= tol 1e-13 after 50 iterations$")):
        integrate(sys, ((0.1, 0.2), (0.1, -0.2)), 3 * step, IntegratorConfig(step=step))


@pytest.mark.parametrize("start", [
    ((0.1, 0.2), (0.1, math.nan)),
    ((math.nan, 0.2), (0.1, 0.1)),
], ids=["action", "angle"])
def test_midpoint_nan_update_never_converges(start):
    # NaN in some rows only: the other updates fall below the tolerance, so
    # the largest finite update alone would end the step
    d = Domain(2, 0.5)
    h = (FourierTaylorSeries.monomial(d, (2, 0), 0.5, 1, 3)
         + FourierTaylorSeries.monomial(d, (0, 2), 0.5, 1, 3))
    f = FourierTaylorSeries.cosine(d, (1, 0), 1e-3, 1, 3).product(
        FourierTaylorSeries.constant(d, 1.0, 1, 3) + FourierTaylorSeries.action_coordinate(d, 0, 1, 3))
    sys = HamiltonianSystem(h, f, 1e-3, Gevrey(1.0, 0.5))
    with pytest.raises(RuntimeError, match=r"from t=0: last update nan >= tol"):
        integrate(sys, start, 1.0, IntegratorConfig(step=0.05))


class _TwoGradientSplit:
    """Reference drift-kick-drift stepper: dA/dI is read before and after
    every kick, and each monomial loops over all of its exponents.  The
    reference sample loop runs it, stopped by ``reach`` through
    ``_crossed``."""

    def __init__(self, A, B, reach=None):
        self.A, self.reach = A, reach
        self.n = n = A.domain.n
        self.center = list(A.center)
        self.gradA = [
            [(c.real, l) for (_, l), c in A.partial_action(j).items()] for j in range(n)
        ]
        self.kick_modes = []
        seen = set()
        for (k, _), c in B.items():
            if k not in seen:
                seen.update((k, tuple(-x for x in k)))
                self.kick_modes.append((k, c.real, c.imag))

    def _grad_A(self, action):
        diff = [a - c for a, c in zip(action, self.center)]
        out = []
        for monos in self.gradA:
            total = 0.0
            for coef, exps in monos:
                term = coef
                for d, e in zip(diff, exps):
                    if e:
                        term *= d ** e
                total += term
            out.append(total)
        return out

    def run_block(self, theta, action, dt, nsteps, time):
        n = self.n
        half = 0.5 * dt
        theta, action = list(theta), list(action)
        for _ in range(nsteps):
            g = self._grad_A(action)
            for j in range(n):
                theta[j] = (theta[j] + half * g[j]) % 1.0
            for k, a, b in self.kick_modes:
                phi = 0.0
                for j in range(n):
                    phi += k[j] * theta[j]
                phi *= TWO_PI
                w = 2.0 * (-a * math.sin(phi) - b * math.cos(phi)) * TWO_PI * dt
                for j in range(n):
                    if k[j]:
                        action[j] -= w * k[j]
            g = self._grad_A(action)
            for j in range(n):
                theta[j] = (theta[j] + half * g[j]) % 1.0
        return theta, action

    def run(self, theta, action, dt, n_steps, stride, stop_when):
        return _reference_run(self.run_block, self.A, theta, action, dt, n_steps, stride,
                              _crossed(self.reach, stop_when))


@st.composite
def _split_case(draw):
    """H = A(I) + B(theta) with monomials of A up to degree 4, complex
    coefficients on up to four +-k pairs of B (possibly none), a start, a
    signed step and blocks of mixed lengths.  Centers hold +0.0, -0.0 or
    both; A's coefficients 1.0, 0.5 and 0.25 give derivative terms of
    coefficient 1.0 for exponents 1, 2 and 4; starts may put x_i - c_i at
    +0.0 or -0.0, so that a gradient sum can open with a -0.0 term."""
    n = draw(st.integers(1, 3))
    center = draw(st.sampled_from([(0.0,) * n, (-0.0,) * n, (0.0, -0.0, 0.0)[:n],
                                   (-0.0, 0.3, 0.0)[:n], (0.3, -1.2, 2.5)[:n]]))
    d = Domain(n, 1.0)
    zero = (0,) * n
    exps = st.tuples(*[st.integers(0, 4)] * n).filter(lambda l: sum(l) <= 4)
    coef = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3) | st.sampled_from(
        [1.0, 0.5, 0.25])
    a_terms = draw(st.dictionaries(exps, coef, min_size=1, max_size=6))
    # some actions may be absent from A, so that dA/dI_j vanishes identically
    free = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a_terms = {tuple(0 if f else e for e, f in zip(l, free)): c for l, c in a_terms.items()}
    A = FourierTaylorSeries(d, {(zero, l): c for l, c in a_terms.items()}, 2, 4, center)
    # one representative per +-k pair: first nonzero entry positive
    ks = st.tuples(*[st.integers(-2, 2)] * n).filter(
        lambda k: any(k) and next(x for x in k if x) > 0)
    amp = st.complex_numbers(max_magnitude=0.1, allow_nan=False,
                             allow_infinity=False).filter(lambda c: c != 0)
    b_terms = draw(st.dictionaries(ks, amp, min_size=0, max_size=4))
    B_coeffs = {}
    for k, c in b_terms.items():
        B_coeffs[(k, zero)] = c
        B_coeffs[(tuple(-x for x in k), zero)] = c.conjugate()
    B = FourierTaylorSeries(d, B_coeffs, 2, 4, center)
    theta = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, -0.0]),
                          min_size=n, max_size=n))
    offset = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    # x = c gives x - c = +0.0; x = -0.0 at c = +0.0 gives -0.0
    exact = draw(st.lists(st.sampled_from([None, None, 0.0, -0.0]), min_size=n, max_size=n))
    action = [c + o if e is None else (e if c == 0.0 else c)
              for c, o, e in zip(center, offset, exact)]
    dt = draw(st.floats(1e-3, 0.05)) * draw(st.sampled_from([1.0, -1.0]))
    blocks = draw(st.lists(st.sampled_from([1, 2, 7, 40]), min_size=1, max_size=5))
    return A, B, theta, action, dt, blocks


@given(_split_case())
@settings(max_examples=60, deadline=None)
def test_split_block_matches_two_gradient_reference(case):
    # each block length as the stride of one run over all the blocks' steps
    A, B, theta, action, dt, blocks = case
    flow, ref = dynamics._SplitFlow(A, B), _TwoGradientSplit(A, B)
    for stride in blocks:
        args = (list(theta), list(action), dt, sum(blocks), stride, None)
        assert _bits(flow.run(*args)) == _bits(ref.run(*args))


@pytest.mark.parametrize("make", [lambda: quasi_convex(1e-2).hamiltonian,
                                  lambda: _off_center_system()], ids=["origin", "off_center"])
def test_split_source_reads_the_gradient_in_prologue_and_loop(make, monkeypatch):
    # the statements of dA/dI_j (with their d_i = x_i - c_i) appear twice in
    # the generated source: once under `if n_steps:`, before the first step,
    # and once in the step loop after the kick, the same lines in order
    sources = _sources(monkeypatch)
    H = make()
    dynamics._SplitFlow(H.integrable, H.perturbation)
    (source,) = sources
    lines = source.splitlines()

    def block(opener, indent):
        start = lines.index(opener) + 1
        out = []
        for line in lines[start:]:
            if not line.startswith(" " * indent):
                break
            out.append(line[indent:])
        return out

    prologue = block("    if n_steps:", 8)
    loop = block("        for i in range(k, s):", 12)
    gradient = re.compile(r"^(?:d\d+ = |g\d+ \+?= |h\d+ = )")
    assert prologue and all(gradient.match(line) for line in prologue)
    assert [line for line in loop if gradient.match(line)] == prologue
    assert all(len(re.findall(rf"^ +{re.escape(line)}$", source, re.M)) == 2 for line in prologue)
    assert {f"h{j}" for j in range(H.integrable.domain.n)} == {
        line.split(" = ")[0] for line in prologue if line.startswith("h")}


@pytest.mark.parametrize("make", [quasi_convex, pendulum, degenerate_steep])
def test_split_source_emits_no_identity_arithmetic(make, monkeypatch):
    # d ** 1, 1 * t and w * 1 return their operand, and the kicks of these
    # systems are real cosines (b = 0), so none of them is emitted; the
    # operators match as whole tokens, so C0_1 * d1 ** 2 holds none of them.
    # Each g_j opens at its first term, a coefficient 1.0 is dropped, and
    # these centers are 0.0, so x_i is read where x_i - c_i was
    sources = _sources(monkeypatch)
    H = make(1e-2).hamiltonian
    run = dynamics._SplitFlow(H.integrable, H.perturbation).run
    (source,) = sources
    assert "sin(" in source and "cos(" not in source
    assert re.findall(r"(?<![\w.])1 \*|\*\* 1(?![\d.])|\* 1(?![\d.])", source) == []
    assert re.findall(r"g\d+ = 0\.0|x\d+ - c\d+", source) == []
    # every constant unpacked from K is read, and none is a coefficient 1.0
    names = source.splitlines()[1].strip().removesuffix(", = K").split(", ")
    consts = dict(zip(names, run.__globals__["K"], strict=True))
    assert [v for name, v in consts.items() if name.startswith("C") and v == 1.0] == []
    assert [name for name in names if len(re.findall(rf"\b{name}\b", source)) < 2] == []


def _sources(monkeypatch):
    """The list that every source compiled from now on is appended to."""
    sources = []
    compile_step = dynamics._compile.__wrapped__
    monkeypatch.setattr(dynamics, "_compile", lambda source: (
        sources.append(source), compile_step(source))[1])
    return sources


def _phased_midpoint(center=None):
    """A non-separable H whose modes (1, -1) and (1, 2) need a minus sign and
    a factor in their phases."""
    d = Domain(2, 0.5)
    h = (FourierTaylorSeries.monomial(d, (2, 0), 0.5, 2, 3, center)
         + FourierTaylorSeries.monomial(d, (0, 2), 0.5, 2, 3, center))
    amp = FourierTaylorSeries.constant(d, 1.0, 2, 3, center) + (
        FourierTaylorSeries.action_coordinate(d, 0, 2, 3, center))
    f = (FourierTaylorSeries.cosine(d, (1, -1), 1e-3, 2, 3, center).product(amp)
         + FourierTaylorSeries.sine(d, (1, 2), 5e-4, 2, 3, center))
    return h + f


@pytest.mark.parametrize("scheme", ["split", "midpoint"])
def test_run_reads_its_floats_as_locals(scheme):
    # coefficients, the center, sin and TWO_PI are unpacked from the one
    # global tuple K; the other globals are builtins.  Both schemes read a
    # center only where it is nonzero, so they run off the origin here
    if scheme == "split":
        H = _off_center_system()
        run = dynamics._SplitFlow(H.integrable, H.perturbation).run
    else:
        run = dynamics._MidpointFlow(_phased_midpoint((3.0, -1.5))).run
    assert set(run.__code__.co_names) <= {
        "K", "min", "max", "abs", "range", "append", "FloatingPointError", "OverflowError",
        "ValueError"}
    assert {"sin", "TWO_PI", "c0", "c1"} <= set(run.__code__.co_varnames)


def test_split_step_loop_holds_no_branch(monkeypatch):
    # the steps of a block run with no test between them but the angle
    # wrap's guard; the sample, ball, finiteness, reach and stop tests are
    # made after the block
    sources = _sources(monkeypatch)
    H = quasi_convex(1e-2).hamiltonian
    dynamics._SplitFlow(H.integrable, H.perturbation)
    (source,) = sources
    lines = source.splitlines()
    at = lines.index("        for i in range(k, s):")
    loop = [line.strip() for line in itertools.takewhile(
        lambda line: line.startswith(" " * 12), lines[at + 1:])]
    assert len(loop) > 10
    tests = [line for line in loop if line.split()[0] in ("if", "elif", "while", "for")]
    assert len(tests) == 4
    assert [line for line in tests
            if not re.fullmatch(r"if not 0\.0 < (t\d+) < 1\.0: \1 %= 1\.0", line)] == []
    assert not [line for line in loop
                if re.search(r"isfinite|RB|REACH|stop_when|abs\(|break|return|raise", line)]


def test_midpoint_phase_emits_no_identity_arithmetic(monkeypatch):
    # 1 * m is m, and a + -j * m is a - j * m
    sources = _sources(monkeypatch)
    dynamics._MidpointFlow(_phased_midpoint())
    (source,) = sources
    phases = [line.strip() for line in source.splitlines() if line.strip().startswith("y = ")]
    assert phases == ["y = TWO_PI * (m0 - m1)", "y = TWO_PI * (m0 + 2 * m1)"]
    for token in ("1 *", "+ -"):
        assert not [p for p in phases if token in p], token


def _symmetric_midpoint(center):
    """A twist and cos 2pi(theta_0 - theta_1) (1 + I_0 + I_1): from equal
    angles and equal actions the two angle rows stay equal, so the phase
    stays exactly 0 and every action row sums zeros."""
    d = Domain(2, 0.5)
    h = (FourierTaylorSeries.monomial(d, (2, 0), 0.5, 2, 3, center)
         + FourierTaylorSeries.monomial(d, (0, 2), 0.5, 2, 3, center))
    amp = (FourierTaylorSeries.constant(d, 1.0, 2, 3, center)
           + FourierTaylorSeries.action_coordinate(d, 0, 2, 3, center)
           + FourierTaylorSeries.action_coordinate(d, 1, 2, 3, center))
    return h + FourierTaylorSeries.cosine(d, (1, -1), 1e-3, 2, 3, center).product(amp)


@pytest.mark.parametrize("make", [_phased_midpoint, _symmetric_midpoint])
@pytest.mark.parametrize("center", [(0.0, 0.0), (-0.0, -0.0)])
@pytest.mark.parametrize("action", [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.1)])
@pytest.mark.parametrize("dt", [0.05, -0.05])
def test_midpoint_signed_zero_starts_match_interpreted_arithmetic(make, center, action, dt):
    # theta_0 = theta_1 puts the phase of mode (1, -1) at exactly 0, so the
    # sine terms and the action rows read zeros, and x - c and the products
    # left out may differ from the reference in the sign of a zero only
    H = make(center)
    flow, ref = dynamics._MidpointFlow(H), _InterpretedMidpointFlow(H)
    args = ([0.375, 0.375], list(action), dt, 12, 5, None)
    assert _bits(flow.run(*args)) == _bits(ref.run(*args))


def test_midpoint_source_reads_no_zero_part(monkeypatch):
    # at a zero center the iteration reads m_{n+i} itself, with no c_i in K;
    # every term of this H has a zero real or imaginary part, whose product
    # is left out; the updates are tested raw, and abs is called on the
    # stall path only, inside `stalled`
    sources = _sources(monkeypatch)
    run = dynamics._MidpointFlow(_phased_midpoint()).run
    (source,) = sources
    names = source.splitlines()[1].strip().removesuffix(", = K").split(", ")
    consts = dict(zip(names, run.__globals__["K"], strict=True))
    assert re.findall(r"- c\d|\bc\d+\b|\babs\b", source.split("t = s * dt")[0]) == []
    parts = {name: v for name, v in consts.items() if re.fullmatch(r"[ab]\d+_\d+", name)}
    assert len(parts) > 10 and [name for name, v in parts.items() if v == 0.0] == []
    assert re.findall(r"\* C\d+ [-+]", source) == []
    assert [name for name in names if len(re.findall(rf"\b{name}\b", source)) < 2] == []
    assert re.search(r"^ +if NTOL < e0 < TOL and NTOL < e1 < TOL and .*:$", source, re.M)
    assert "stalled(k * dt + (i - k) * dt, MAX_ITER, e0, e1, e2, e3)" in source


def test_split_flows_of_one_shape_share_one_compile():
    # the source holds only structure: another epsilon is another tuple K
    dynamics._compile.cache_clear()
    runs = []
    for eps in (1e-2, 1e-3):
        H = pendulum(eps).hamiltonian
        runs.append(dynamics._SplitFlow(H.integrable, H.perturbation).run(
            [0.25], [0.0], 0.01, 100, 10, None))
    info = dynamics._compile.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert runs[0] != runs[1]


def _bits(out):
    """A run's result with every float as its hex string, so that signed
    zeros compare unequal."""
    if isinstance(out, (list, tuple)):
        return [_bits(x) for x in out]
    return out.hex() if isinstance(out, float) else out


def _prologue_case(name):
    """(A, B, theta, action) for one prologue case."""
    d = Domain(2, 1.0)
    zero = (0, 0)
    if name == "signed_zero_start":
        # x - c is +0.0 for the first action and -0.0 for the second
        A = FourierTaylorSeries(d, {(zero, (2, 0)): 0.5, (zero, (0, 3)): -0.7,
                                    (zero, (1, 1)): 0.3}, 2, 4)
        return A, FourierTaylorSeries.cosine(d, (1, -1), 1e-2, 2, 4), [0.0, 0.5], [0.0, -0.0]
    if name == "vanishing_partial":
        # dA/dI_1 is identically zero
        A = FourierTaylorSeries(d, {(zero, (2, 0)): 0.5, (zero, (3, 0)): 0.1}, 2, 4, (0.3, -1.2))
        return (A, FourierTaylorSeries.sine(d, (0, 1), 1e-2, 2, 4, (0.3, -1.2)), [0.1, 0.7],
                [0.45, -1.0])
    # dA/dI_0 and dA/dI_1 have monomials d0 d1 ** 3 and d0 ** 3 d1, whose
    # products round differently when grouped right to left at this start
    A = FourierTaylorSeries(d, {(zero, (2, 3)): 0.37, (zero, (3, 2)): -0.29, (zero, (1, 0)): 0.2,
                                (zero, (0, 3)): 0.15}, 2, 6, (0.3, -1.2))
    return (A, FourierTaylorSeries.cosine(d, (2, 1), 1e-2, 2, 6, (0.3, -1.2)), [0.6, 0.2],
            [0.83, -0.39])


@pytest.mark.parametrize("name", ["signed_zero_start", "vanishing_partial", "mixed_degrees"])
@pytest.mark.parametrize("dt", [0.05, -0.05])
def test_split_prologue_matches_two_gradient_reference(name, dt):
    # one step: the gradient read before the loop opens it, bit for bit
    A, B, theta, action = _prologue_case(name)
    flow, ref = dynamics._SplitFlow(A, B), _TwoGradientSplit(A, B)
    args = (theta, action, dt, 1, 1, None)
    assert _bits(flow.run(*args)) == _bits(ref.run(*args))


@pytest.mark.parametrize("theta, x, dt, lands", [
    (0.25, -1.0, 0.5, 0.0),
    (-0.0, 0.0, -0.5, -0.0),
    (0.75, 1.0, 0.5, 1.0),
    (0.75, -1.0, -0.5, 1.0),
    (0.75 - 2 ** -53, 1.0, 0.5, 1 - 2 ** -53),
    (0.25, -(1 + 2 ** -51), 0.5, -2 ** -53),
    (0.0, -2e-323, 0.5, -5e-324),
], ids=["zero", "negative_zero", "one", "one_backward", "one_less_ulp", "less_ulp",
        "less_subnormal"])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_split_wrap_edges_match_two_gradient_reference(theta, x, dt, lands, eps):
    # A = I^2 / 2, so h = half * x: the first drift lands on an edge of the
    # guard 0.0 < t < 1.0.  Unkicked, later drifts land on 0.0 or 1.0 too,
    # and -5e-324 % 1.0 is 1.0, an angle that the next drift wraps
    d = Domain(1, 2.0)
    A = FourierTaylorSeries.monomial(d, (2,), 0.5, 1, 2)
    B = FourierTaylorSeries.cosine(d, (1,), eps, 1, 2)
    assert (theta + 0.5 * dt * x).hex() == lands.hex()
    args = ([theta], [x], dt, 6, 1, None)
    assert _bits(dynamics._SplitFlow(A, B).run(*args)) == _bits(_TwoGradientSplit(A, B).run(*args))


def test_split_trajectory_is_pinned():
    # the end point of 4,000 split steps, as the step with two gradient
    # reads in its source gave it (sin and cos from the platform's libm)
    rec = integrate(quasi_convex(1e-2), ((0.1, 0.7), (0.2, -0.1)), 40.0,
                    IntegratorConfig(step=0.01, sample_stride=1000))
    assert rec.metadata["scheme"] == "split"
    assert [x.hex() for x in (*rec.thetas[-1], *rec.actions[-1], rec.energy[-1])] == [
        "0x1.b5dea8b9d10b3p-4", "0x1.69ef084a6d4f6p-1",
        "0x1.87566bf1e843cp-3", "-0x1.be1ff4e8fc465p-4", "0x1.cc3abb211562bp-6",
    ]


def _kicked_small_ball():
    """A strong kick in a ball of radius 0.05: the action leaves it in a few
    steps."""
    d = Domain(1, 0.05)
    h = FourierTaylorSeries.monomial(d, (2,), 0.5, k_max=1, d_max=2)
    f = FourierTaylorSeries.cosine(d, (1,), 0.3, k_max=1, d_max=2)
    return HamiltonianSystem(h, f, 0.3, Gevrey(1.0, 0.5))


_MIDPOINT = HamiltonianSystem(*_nonseparable(2, 11), 1e-3, Gevrey(1.0, 0.5))
_MIDPOINT_START = ((0.3, 0.6), (0.1, -0.2))


def _pinned_runs():
    """The records of four runs: a criterion 11 split run, a pendulum row
    that ``drift_time`` stops, an escape and a midpoint run."""
    c11 = integrate(quasi_convex(1e-4), ((0.3, 0.8), (0.1, -0.35)), 2e3,
                    IntegratorConfig(step=0.05, sample_stride=40))
    row = drift_time(pendulum(1e-2), ((0.25,), (0.0,)), 0.1, 200.0,
                     IntegratorConfig(step=0.005, sample_stride=20)).trajectory
    escape = integrate(_kicked_small_ball(), ((0.13,), (0.0,)), 50.0,
                       IntegratorConfig(step=0.01, sample_stride=1))
    mid = integrate(_MIDPOINT, _MIDPOINT_START, 20.0, IntegratorConfig(step=0.05, sample_stride=7))
    return {"c11": c11, "row": row, "escape": escape, "midpoint": mid}


def test_sample_loop_end_states_are_pinned():
    # sample counts, last times and end states as the Python sample loop
    # over per-block steps gave them
    want = {
        "c11": (1001, "0x1.f400000000000p+10", False, [
            "0x1.4fbdd312d7759p-1", "0x1.3ef74c4b76a13p-3",
            "0x1.98e4666f13967p-4", "-0x1.6693b33107e6dp-2"]),
        "row": (18, "0x1.b333333333333p+0", False, [
            "0x1.5bfa86a641cfbp-2", "0x1.a7a61d12ffa49p-4"]),
        "escape": (5, "0x1.47ae147ae147bp-5", True, [
            "0x1.0c7e59fe5ad3cp-3", "0x1.c32ae27893181p-5"]),
        "midpoint": (59, "0x1.4000000000000p+4", False, [
            "0x1.0c50785d02848p-2", "0x1.92d389cd12a70p-2",
            "0x1.8d48d4de381fcp-4", "-0x1.9f3a06726de2ep-3"]),
    }
    got = {
        name: (len(rec.times), float(rec.times[-1]).hex(), rec.escaped,
               [float(x).hex() for x in (*rec.thetas[-1], *rec.actions[-1])])
        for name, rec in _pinned_runs().items()
    }
    assert got == want


def _off_center_system():
    """A twist and two kicked modes, expanded around I = (3.0, -1.5)."""
    d, c = Domain(2, 0.5), (3.0, -1.5)
    h = (FourierTaylorSeries.monomial(d, (2, 0), 0.5, 2, 3, c)
         + FourierTaylorSeries.monomial(d, (0, 2), 0.5, 2, 3, c)
         + FourierTaylorSeries.monomial(d, (1, 2), 0.2, 2, 3, c))
    f = (FourierTaylorSeries.cosine(d, (1, -2), 1e-2, 2, 3, c)
         + FourierTaylorSeries.sine(d, (0, 1), 5e-3, 2, 3, c))
    return HamiltonianSystem(h, f, 1e-2, Gevrey(1.0, 0.5))


@pytest.mark.parametrize("system, start", [
    (quasi_convex(1e-2), ((0.1, 0.7), (0.2, -0.1))),
    (pendulum(1e-2), ((0.25,), (0.05,))),
    (degenerate_steep(1e-2), ((0.4, 0.9), (0.1, 0.3))),
    (linear_diophantine(1e-2), ((0.3, 0.6), (0.1, -0.2))),
    (quasi_convex(0.0), ((0.1, 0.7), (0.2, -0.1))),
    (_off_center_system(), ((0.2, 0.8), (3.1, -1.4))),
], ids=["quasi_convex", "pendulum", "degenerate_steep", "linear_diophantine",
        "unkicked", "off_center"])
@pytest.mark.parametrize("t_max", [30.0, -30.0])
def test_integrate_matches_two_gradient_reference(system, start, t_max, monkeypatch):
    cfg = IntegratorConfig(step=0.01, sample_stride=7)
    rec = integrate(system, start, t_max, cfg)
    monkeypatch.setattr(dynamics, "_SplitFlow", _TwoGradientSplit)
    ref = integrate(system, start, t_max, cfg)
    assert rec.metadata["scheme"] == "split"
    for field in ("times", "thetas", "actions", "energy"):
        assert np.array_equal(getattr(rec, field), getattr(ref, field)), field
    assert rec.metadata == ref.metadata


def _stop_at_sample(k):
    """A ``stop_when`` that is true at the k-th sample after the start."""
    calls = []
    return lambda t, I: calls.append(t) or len(calls) == k


def _overflowing_drift():
    """No kick and dA/dI = 1.7e308 I: at I = 2 the drift reads an infinite
    h, so the angle turns NaN while the action stays finite, inside the
    ball."""
    d = Domain(1, 3.0)
    return HamiltonianSystem(FourierTaylorSeries.monomial(d, (2,), 0.85e308, 1, 2),
                             FourierTaylorSeries.zero(d, 1, 2), 0.0, Gevrey(1.0, 0.5))


def _overflowing_kick():
    """A kick of amplitude 1e308: its first step overflows the action."""
    d = Domain(1, 1.7e308)
    return HamiltonianSystem(FourierTaylorSeries.monomial(d, (2,), 0.5, 1, 2),
                             FourierTaylorSeries.cosine(d, (1,), 1e308, 1, 2), 0.5,
                             Gevrey(1.0, 0.5))


@pytest.mark.parametrize("system, start, t_max, step, stride, stop_at, max_iter, outcome", [
    (_kicked_small_ball(), ((0.13,), (0.0,)), 50.0, 0.01, 3, None, None, "escaped"),
    (pendulum(1e-2), ((0.25,), (0.05,)), 10.0, 0.01, 7, 4, None, 5),
    (_MIDPOINT, _MIDPOINT_START, 10.0, 0.05, 3, 6, None, 7),
    (_MIDPOINT, _MIDPOINT_START, -10.0, 0.05, 7, None, None, 30),
    # |t_max| below half a step rounds to no steps: the start alone
    (pendulum(1e-2), ((0.25,), (0.05,)), 0.004, 0.01, 1, None, None, 1),
    # the overflow happens in the first step and shows at the first sample
    (_overflowing_kick(), ((0.13,), (0.0,)), 40.0, 0.1, 3, None, None,
     (FloatingPointError, "non-finite state at t=0.30000000000000004")),
    # a NaN angle with a finite action inside the ball is rejected too
    (_overflowing_drift(), ((0.1,), (2.0,)), 1.0, 0.1, 3, None, None,
     (FloatingPointError, "non-finite state at t=0.30000000000000004")),
    # step 6 stalls; it is step 1 of the block opened at step 5, so its time
    # is 5 dt + 1 dt = 1.8, where 6 dt is 1.7999999999999998
    (_MIDPOINT, _MIDPOINT_START, 12.0, 0.3, 5, None, 8,
     (RuntimeError, "implicit midpoint did not converge in the step from t=1.8: "
                    "last update 1.02e-13 >= tol 1e-13 after 8 iterations")),
], ids=["escape", "stop_when_split", "stop_when_midpoint", "backward_midpoint", "no_steps",
        "non_finite", "non_finite_angle", "stalled_midpoint"])
def test_integrate_matches_reference_sample_loop(system, start, t_max, step, stride, stop_at,
                                                 max_iter, outcome, monkeypatch):
    # integrate's one generated call against the reference sample loop over
    # the reference steppers' blocks; outcome is the sample count, "escaped",
    # or the error
    if max_iter is not None:
        monkeypatch.setattr(dynamics, "MIDPOINT_MAX_ITER", max_iter)
    cfg = IntegratorConfig(step=step, sample_stride=stride)
    runs = []
    for split, midpoint in ((dynamics._SplitFlow, dynamics._MidpointFlow),
                            (_TwoGradientSplit, _InterpretedMidpointFlow)):
        monkeypatch.setattr(dynamics, "_SplitFlow", split)
        monkeypatch.setattr(dynamics, "_MidpointFlow", midpoint)
        stop = None if stop_at is None else _stop_at_sample(stop_at)
        runs.append(_outcome(integrate, system, start, t_max, cfg, stop))
    rec, ref = runs
    if isinstance(outcome, tuple):
        assert rec == ref == outcome
        return
    for field in ("times", "thetas", "actions", "energy"):
        assert np.array_equal(getattr(rec, field), getattr(ref, field)), field
    assert rec.metadata == ref.metadata and rec.escaped == ref.escaped
    assert np.sign(rec.times[-1]) in (0.0, np.sign(t_max))
    if outcome == "escaped":
        assert rec.escaped and rec.times[-1] < t_max
    else:
        assert not rec.escaped and len(rec.times) == outcome


@pytest.mark.parametrize("system, start, threshold, step, stride, stop_at, samples, escaped", [
    # the pinned pendulum scaling row: crosses at sample 17
    (pendulum(1e-2), ((0.25,), (0.0,)), 0.1, 0.005, 20, None, 18, False),
    # n = 2 off the origin: the second action crosses
    (_off_center_system(), ((0.2, 0.8), (3.1, -1.4)), 0.02, 0.01, 7, None, 20, False),
    # a midpoint run: the first action crosses
    (_MIDPOINT, _MIDPOINT_START, 0.01, 0.05, 7, None, 5, False),
    # a caller stop_when that would end the run at the crossing sample too:
    # the crossing is tested first, so stop_when never sees that sample
    (pendulum(1e-2), ((0.25,), (0.0,)), 0.1, 0.005, 20, 17, 18, False),
    # the sample that leaves the ball is the first to cross: the run ends
    # escaped, with that sample as the crossing
    (_kicked_small_ball(), ((0.13,), (0.0,)), 0.05, 0.01, 1, None, 5, True),
], ids=["split_row", "split_off_center", "midpoint", "stop_when_same_sample",
        "escape_at_crossing"])
def test_drift_time_crossing_matches_reference_closure(system, start, threshold, step, stride,
                                                       stop_at, samples, escaped, monkeypatch):
    # the crossing compiled into the sample check against the reference
    # sample loop stopped by drift_time's old crossed closure
    cfg = IntegratorConfig(step=step, sample_stride=stride)
    runs = []
    for split, midpoint in ((dynamics._SplitFlow, dynamics._MidpointFlow),
                            (_TwoGradientSplit, _InterpretedMidpointFlow)):
        monkeypatch.setattr(dynamics, "_SplitFlow", split)
        monkeypatch.setattr(dynamics, "_MidpointFlow", midpoint)
        seen = []
        stop = None if stop_at is None else (
            lambda t, I: seen.append(t) or len(seen) == stop_at)
        runs.append((drift_time(system, start, threshold, 100.0, cfg, stop), seen))
    (res, seen), (ref, ref_seen) = runs
    rec = res.trajectory
    for field in ("times", "thetas", "actions", "energy"):
        assert np.array_equal(getattr(rec, field), getattr(ref.trajectory, field)), field
    assert rec.metadata == ref.trajectory.metadata and seen == ref_seen
    assert (res.time, res.bracket, res.crossed) == (ref.time, ref.bracket, ref.crossed)
    assert res.crossed and res.time == rec.times[-1] and len(rec.times) == samples
    assert rec.escaped == escaped
    assert seen == ([] if stop_at is None else rec.times[1:-1].tolist())


@st.composite
def _energy_case(draw):
    """A split H from ``_split_case`` or a seeded non-separable H for the
    midpoint, either centered on or off the origin, with a start, a signed
    step and a sample stride."""
    if draw(st.booleans()):
        A, B, theta, action, dt, _ = draw(_split_case())
        system = HamiltonianSystem(A, B, 1e-2, Gevrey(1.0, 0.5))
    else:
        n = draw(st.integers(1, 3))
        center = draw(st.sampled_from([None, (3.0, -1.5, 0.7)[:n]]))
        system = HamiltonianSystem(*_nonseparable(n, draw(st.integers(0, 1000)), center),
                                   1e-3, Gevrey(1.0, 0.5))
        theta = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
        offset = draw(st.lists(st.floats(-0.2, 0.2), min_size=n, max_size=n))
        action = [c + o for c, o in zip(system.integrable.center, offset)]
        dt = draw(st.floats(1e-3, 0.05)) * draw(st.sampled_from([1.0, -1.0]))
    return system, (theta, action), dt, draw(st.sampled_from([1, 3, 7]))


@given(_energy_case())
@settings(max_examples=40, deadline=None)
def test_energy_matches_pointwise_evaluate(case):
    # the stacked read after the loop against the reference evaluator at
    # every recorded sample; an escaped run's last sample lies outside the
    # ball, where ``evaluate`` refuses to read
    system, start, dt, stride = case
    rec = integrate(system, start, 40 * dt, IntegratorConfig(step=abs(dt), sample_stride=stride))
    H = system.total()
    tol = 1e-13 * max(1.0, H.coefficient_norm())
    inside = len(rec.times) - rec.escaped
    assert inside >= 1
    for th, ac, e in zip(rec.thetas[:inside], rec.actions[:inside], rec.energy):
        assert abs(e - H.evaluate(th, ac)) <= tol


def test_energy_read_once_per_block(monkeypatch):
    calls = []
    values = dynamics.SeriesStack.values

    def counting(self, theta, action):
        calls.append(np.shape(action))
        return values(self, theta, action)

    monkeypatch.setattr(dynamics.SeriesStack, "values", counting)
    system, start = pendulum(1e-2), ((0.25,), (0.05,))
    cfg = IntegratorConfig(step=0.01, sample_stride=2)
    rec = integrate(system, start, 10.0, cfg)
    assert rec.metadata["scheme"] == "split" and len(rec.times) == 501
    assert calls == [(501, 1)]
    # H has three terms and one action: a budget of 30 elements reads blocks
    # of 10 samples
    calls.clear()
    monkeypatch.setattr(dynamics, "ENERGY_BLOCK_ELEMENTS", 30)
    blocked = integrate(system, start, 10.0, cfg)
    assert calls == [(10, 1)] * 50 + [(1, 1)]
    assert np.array_equal(blocked.actions, rec.actions)
    assert np.max(np.abs(blocked.energy - rec.energy)) <= 1e-15


def test_energy_read_memory_is_bounded():
    # 2,205 terms over 1,200 samples: one unblocked read would hold
    # (samples x terms x n) and (samples x terms) temporaries of over 100 MB
    import tracemalloc

    rng = np.random.default_rng(7)
    d, zero = Domain(2, 1.0), (0, 0)
    coeffs = {}
    for k in itertools.product(range(-10, 11), repeat=2):
        for l in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1)):
            if k == zero:
                coeffs[(k, l)] = float(rng.uniform(-1, 1))
            elif k > zero:
                c = complex(*rng.uniform(-1e-3, 1e-3, 2))
                coeffs[(k, l)] = c
                coeffs[(tuple(-x for x in k), l)] = c.conjugate()
    H = FourierTaylorSeries(d, coeffs, 10, 2)
    assert len(H) >= 2000
    thetas = rng.uniform(0, 1, (1200, 2))
    actions = rng.uniform(-0.5, 0.5, (1200, 2))
    tracemalloc.start()
    try:
        energy = dynamics._energy(H, thetas, actions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    tol = 1e-13 * max(1.0, H.coefficient_norm())
    for i in (0, 599, 1199):
        assert abs(energy[i] - H.evaluate(thetas[i], actions[i])) <= tol


def test_split_with_ten_thousand_monomials_matches_reference():
    # one statement per monomial: a single expression this long would
    # exhaust the compiler's recursion limit
    rng = np.random.default_rng(5)
    d, deg = Domain(1, 1.0), 10_000
    A = FourierTaylorSeries(
        d, {((0,), (e,)): float(rng.uniform(-1, 1)) for e in range(1, deg + 1)}, 1, deg)
    assert len(A.partial_action(0)) == deg
    B = FourierTaylorSeries.cosine(d, (1,), 1e-2, 1, deg)
    flow, ref = dynamics._SplitFlow(A, B), _TwoGradientSplit(A, B)
    start = ([0.1], [0.3])
    assert flow.run(*start, 1e-3, 3, 1, None) == ref.run(*start, 1e-3, 3, 1, None)


class TestIntegratorConfig:
    @pytest.mark.parametrize("field, value", [
        ("step", math.inf), ("step", math.nan), ("step", 0.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(**{field: value})

    def test_digest_unchanged_for_accepted_configs(self):
        assert IntegratorConfig().digest() == "d482319cc3c1a43e"
        assert IntegratorConfig(step=0.05, sample_stride=40).digest() == "af83a780cbddec5d"

    @pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan])
    def test_non_finite_t_max_rejected(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            integrate(pendulum(1e-2), ((0.1,), (0.0,)), t_max)


class TestTransverseDrift:
    def test_resonant_g_blocks_transverse_motion(self):
        # H = omega.I + cos(2 pi theta_2) with omega = (1, 0): I_1 conserved
        d = Domain(2, 1.0)
        h = FourierTaylorSeries.linear(d, (1.0, 0.0), k_max=1, d_max=1)
        g = FourierTaylorSeries.cosine(d, (0, 1), 1.0, k_max=1, d_max=1)
        sys = HamiltonianSystem(h, g, 1.0, Gevrey(1.0, 0.5))
        traj = integrate(sys, ((0.0, 0.0), (0.2, 0.1)), 100.0,
                         IntegratorConfig(step=0.02, sample_stride=10))
        frame = ResonanceFrame.build([period_of((1, 0))])
        td = transverse_drift(traj, frame)
        assert td.max_drift <= 1e-9

    def test_integrable_zero_drift(self):
        sys = quasi_convex(0.0)
        traj = integrate(sys, ((0.0, 0.0), (0.3, 0.4)), 5.0, IntegratorConfig(step=0.01))
        frame = ResonanceFrame.build([period_of((1, 1))])
        assert transverse_drift(traj, frame).max_drift == 0.0

    def test_full_frame_equals_total_drift(self):
        times = np.linspace(0, 1, 11)
        actions = np.stack([0.1 * times, 0.2 * times], axis=1)
        rec = synthetic_record(times, actions)
        frame = ResonanceFrame.build([period_of((1, 0)), period_of((0, 1))])
        td = transverse_drift(rec, frame)
        total = np.max(np.abs(actions - actions[0]))
        assert td.max_drift == pytest.approx(total)

    def test_from_time_validation(self):
        rec = synthetic_record([0.0, 1.0], [[0.0, 0.0], [0.1, 0.0]])
        frame = ResonanceFrame.build([], n=2)
        with pytest.raises(ValueError):
            transverse_drift(rec, frame, from_time=5.0)


class TestDriftTime:
    def test_integrable_sentinel(self):
        sys = quasi_convex(0.0)
        res = drift_time(sys, ((0.0, 0.0), (0.2, 0.1)), 0.05, 5.0,
                         IntegratorConfig(step=0.01))
        assert res.time == SENTINEL and not res.crossed

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -0.1])
    def test_non_finite_or_non_positive_threshold_rejected(self, threshold):
        # a NaN threshold is never crossed and would read as "no drift"
        with pytest.raises(ValueError, match="threshold"):
            drift_time(pendulum(1e-3), ((0.25,), (0.0,)), threshold, 5.0)

    def test_no_steps_from_a_nan_action_is_capped(self):
        # the start is the only sample, and its distance from itself is NaN,
        # which crosses no threshold
        res = drift_time(pendulum(1e-2), ((0.2,), (math.nan,)), 0.1, 0.001)
        assert res.time == SENTINEL and not res.crossed and len(res.trajectory.times) == 1

    def test_pendulum_crossing_matches_reference(self):
        sys = pendulum(1e-2)
        start = ((0.25,), (0.0,))
        threshold = 0.05
        coarse = drift_time(sys, start, threshold, 50.0,
                            IntegratorConfig(step=1e-2, sample_stride=1))
        fine = drift_time(sys, start, threshold, 50.0,
                          IntegratorConfig(step=1e-4, sample_stride=10))
        assert coarse.crossed and fine.crossed
        assert abs(coarse.time - fine.time) < 2e-2
        lo, hi = coarse.bracket
        assert lo <= fine.time <= hi + 2e-2

    def test_threshold_above_energy_bound_sentinel(self):
        # pendulum: |I| <= sqrt(2 (E0 + eps)) for all time; a threshold above
        # that confinement bound can never be crossed
        eps = 1e-2
        sys = pendulum(eps)
        start = ((0.25,), (0.0,))
        E0 = sys.hamiltonian.total().evaluate((0.25,), (0.0,))
        bound = math.sqrt(2 * (E0 + eps))
        res = drift_time(sys, start, bound * 1.5, 20.0, IntegratorConfig(step=1e-3))
        assert res.time == SENTINEL

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            drift_time(quasi_convex(0.0), ((0, 0), (0, 0)), 0.0, 1.0)


class TestTimeBudget:
    def test_gevrey_budget(self):
        tb = TimeBudget.for_m(4, Gevrey(1.0, 0.5))
        assert tb.tau_m == pytest.approx(math.exp(4.0))

    def test_gevrey_alpha2(self):
        tb = TimeBudget.for_m(9, Gevrey(2.0, 0.5))
        assert tb.tau_m == pytest.approx(math.exp(3.0))

    def test_ck_budget(self):
        tb = TimeBudget.for_m(10, FiniteDiff(4, 3))
        assert tb.tau_m == 1000.0

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            TimeBudget(4, 100.0, Gevrey(1.0, 0.5))

    def test_tau_m_value(self):
        assert tau_m_value(1, Gevrey(1.0, 0.1)) == pytest.approx(math.e)
        assert tau_m_value(5, FiniteDiff(3, 2)) == 25.0

    def test_gevrey_overflow_is_value_error(self):
        # exp(1032) is beyond the float range
        with pytest.raises(ValueError, match=r"m=1032 for Gevrey\(alpha=1.0, L=0.5\)"):
            tau_m_value(1032, Gevrey(1.0, 0.5))

    def test_ck_overflow_is_value_error(self):
        # 2^1100 is beyond the float range
        with pytest.raises(ValueError,
                           match=r"m=2 for FiniteDiff\(k=2201, k_star=1100\)"):
            tau_m_value(2, FiniteDiff(2201, 1100))
