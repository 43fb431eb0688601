import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftbench import restrain
from driftbench.diophantine import (
    DirichletScan,
    ResonanceFrame,
    dirichlet_candidates,
    frequency_gap,
    period_of,
    rational_rank,
)
from driftbench.dynamics import SENTINEL, IntegratorConfig, TimeBudget, drift_time, integrate
from driftbench.normalform import (
    AveragingDivergenceError,
    NormalFormConfig,
    local_normal_form,
)
from driftbench.restrain import (
    ConditionParams,
    RestrainFrame,
    chain_bound,
    check_conditions,
    exponents,
    restrained_implies_stable,
    time_budget,
    try_restrain,
)
from driftbench.series import (
    Domain,
    DomainError,
    FiniteDiff,
    FourierTaylorSeries,
    Gevrey,
    HamiltonianSystem,
)
from driftbench.steepness import MorseParams
from driftbench.systems import System, quasi_convex

PHI = (1 + math.sqrt(5)) / 2


class TestExponents:
    def test_n2_tau2_exact(self):
        exps = exponents(2, 2)
        assert exps.a_list == (F(1, 144), F(1, 12))
        assert exps.a == F(1, 432) and exps.b == F(1, 432)

    def test_n1_tau2(self):
        assert exponents(1, 2).a == F(1, 24)

    def test_n3(self):
        exps = exponents(3, 2)
        base = 2 * 2 * 4
        assert exps.a_list == (F(1, base ** 3), F(1, base ** 2), F(1, base))
        assert exps.a == F(1, 3 * base ** 3)

    @given(st.integers(1, 5), st.fractions(min_value=2, max_value=10, max_denominator=4))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_properties(self, n, tau):
        exps = exponents(n, tau)
        assert all(a < b for a, b in zip(exps.a_list, exps.a_list[1:]))
        assert exps.a < exps.a_list[0]
        assert exps.a == exps.b > 0

    def test_tau_below_two_rejected(self):
        with pytest.raises(ValueError):
            exponents(2, 1)


class TestTimeBudget:
    def test_realistic_eps_needs_multiplier(self):
        exps = exponents(2, 2)
        tb = time_budget(1e-3, Gevrey(1.0, 0.5), exps, 1.0)
        assert tb.m == 1
        assert tb.tau_m == pytest.approx(math.e)

    def test_multiplier_drives_m(self):
        exps = exponents(2, 2)
        tb = time_budget(1e-3, Gevrey(1.0, 0.5), exps, 7.3)
        assert tb.m == 7

    def test_ck_horizon(self):
        exps = exponents(2, 2)
        tb = time_budget(1e-3, FiniteDiff(7, 3), exps, 10.0)
        assert tb.tau_m == tb.m ** 3

    def test_eps_edge(self):
        exps = exponents(2, 2)
        assert time_budget(0.99, Gevrey(1.0, 0.5), exps).m == 1
        with pytest.raises(ValueError):
            time_budget(1.5, Gevrey(1.0, 0.5), exps)

    @pytest.mark.parametrize("mult", [-1.0, 0.0, math.nan, math.inf])
    def test_multiplier_must_be_finite_and_positive(self, mult):
        # rejected, not clamped to m = 1
        with pytest.raises(ValueError, match="m_multiplier must be finite and positive"):
            time_budget(1e-3, Gevrey(1.0, 0.5), exponents(2, 2), mult)


class TestCheckConditions:
    def _params(self, eps=1e-12, mu0=1e-2, mult=1.0):
        # mu_j realized as T_j^{-1} eps^{a_j} exactly
        exps = exponents(2, 2)
        Ts = (2.0, 3.0)
        mus = tuple(
            float(eps) ** float(a) / T for a, T in zip(exps.a_list, Ts)
        )
        return ConditionParams(
            n=2, tau=2.0, gamma=0.9, eps=eps, m=1, mu0=mu0,
            mus=mus, Ts=Ts, Ls=(2, 3), multiplier=mult,
        )

    def test_condition_iv_positive_margin_at_small_eps(self):
        # mu_1 << mu_0^2 in log-eps units: a_1 - 2b = 1/144 - 2/432 > 0
        p = self._params(eps=1e-12, mu0=1e-12 ** float(exponents(2, 2).b))
        rep = check_conditions(p)
        entry = next(e for e in rep.entries if e.name.startswith("(iv)"))
        assert entry.ok
        assert entry.log_margin > 0

    def test_eps_close_to_one_fails(self):
        p = self._params(eps=0.5, mu0=0.9)
        rep = check_conditions(p)
        assert not rep.passed
        assert len([e for e in rep.entries if not e.ok]) >= 2

    def test_small_gamma_fails_condition_x(self):
        p = ConditionParams(
            n=2, tau=2.0, gamma=1e-6, eps=1e-12, m=1, mu0=1e-2,
            mus=(1e-5, 4e-6), Ts=(2.0, 3.0), Ls=(2, 3),
        )
        rep = check_conditions(p)
        failing = [e.name for e in rep.entries if not e.ok]
        assert any(name.startswith("(x)") for name in failing)

    def test_tau_below_two_rejected(self):
        # the info rows are read at the exponents of tau itself, never at 2
        p = dataclasses.replace(self._params(), tau=1.5)
        with pytest.raises(ValueError, match="tau must be >= 2"):
            check_conditions(p)

    def test_eleven_condition_families_present(self):
        rep = check_conditions(self._params())
        tags = {e.name.split(" ")[0] for e in rep.entries}
        assert tags == {f"({t})" for t in
                        ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi")}

    def test_length_validation(self):
        with pytest.raises(ValueError):
            check_conditions(ConditionParams(
                n=2, tau=2.0, gamma=0.9, eps=1e-6, m=1, mu0=1e-2,
                mus=(1e-3,), Ts=(2.0,), Ls=(2,),
            ))


def _certified_setup():
    eps = 1e-6
    sysq = quasi_convex(eps)
    budget = TimeBudget.for_m(2, Gevrey(1.0, 0.5))
    start = ((0.12, 0.7), (0.31, 0.31 / PHI))   # strongly nonresonant gradient
    cfg = IntegratorConfig(step=0.05, sample_stride=20)
    traj = integrate(sysq, start, 10.0, cfg)
    mult = {"c_mu": 1.2, "smallness": 3.0, "length": 4.0}
    res = try_restrain(sysq, traj, 0.05, budget, MorseParams(0.9, 2.0),
                       multipliers=mult)
    return sysq, start, cfg, budget, traj, res


class TestTryRestrain:
    def test_integrable_like_certificate_completes(self):
        sysq, start, cfg, budget, traj, res = _certified_setup()
        assert res.restrained
        cert = res.certificate
        # no escape ever happens: times pinned at the budget boundary
        assert cert.times == [budget.tau_m] * 2
        assert len(cert.frame.vectors) == 2
        assert cert.passed_conditions
        # nesting invariant enforced by construction
        radii = [cert.mu0] + cert.mus
        assert all(2 * b <= a for a, b in zip(radii, radii[1:]))

    def test_mu0_above_gamma_fails_immediately(self):
        sysq, start, cfg, budget, traj, _ = _certified_setup()
        res = try_restrain(sysq, traj, 0.95, budget, MorseParams(0.9, 2.0))
        assert not res.restrained
        assert res.failure.condition.startswith("(x)")

    def test_mu0_above_domain_sanity_fails(self):
        sysq, start, cfg, budget, traj, _ = _certified_setup()
        res = try_restrain(sysq, traj, 0.2, budget, MorseParams(0.9, 2.0),
                           multipliers={"smallness": 3.0})
        assert not res.restrained
        assert "(n+1)^2" in res.failure.condition

    def test_failure_trace_names_condition(self):
        eps = 1e-4
        sysq = quasi_convex(eps)
        budget = TimeBudget.for_m(2, Gevrey(1.0, 0.5))
        cfg = IntegratorConfig(step=0.05, sample_stride=20)
        traj = integrate(sysq, ((0.12, 0.7), (0.31, 0.17)), 10.0, cfg)
        res = try_restrain(sysq, traj, 0.02, budget, MorseParams(0.9, 2.0))
        assert not res.restrained
        assert res.failure.stage == 0
        assert res.failure.condition

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_epsilon_outside_unit_interval_rejected(self, eps):
        # the range time_budget enforces; eps = 0 used to scan the trajectory
        # and end in a ZeroDivisionError at the Dirichlet Q
        from test_dynamics import synthetic_record

        traj = synthetic_record([0.0, 1.0], [[0.1, 0.2], [0.1, 0.2]])
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            try_restrain(quasi_convex(eps), traj, 0.05,
                         TimeBudget.for_m(1, Gevrey(1.0, 0.5)), MorseParams(0.9, 2.0))

    @pytest.mark.parametrize("times, actions", [
        ([0.0], [[0.1, 0.2]]),                              # a zero horizon
        ([0.0, -4.0, -8.0], [[0.1, 0.2]] * 3),              # integrated backward
    ], ids=["one-sample", "backward"])
    def test_degenerate_horizon_rejected(self, times, actions):
        # a certificate needs a forward horizon, and the ladder searches the
        # sample times in increasing order
        from test_dynamics import synthetic_record

        traj = synthetic_record(times, actions)
        with pytest.raises(ValueError, match="two samples at increasing times"):
            try_restrain(quasi_convex(1e-6), traj, 0.05,
                         TimeBudget.for_m(2, Gevrey(1.0, 0.5)), MorseParams(0.9, 2.0))


def _exit_record(kind):
    """200 samples on [0, 2.7] that leave the unit ball before tau_1 = e
    without moving c_0 = mu_0 inside it: a jump from rest at (0.137, -0.23)
    to (1.5, 1.5) at sample 62, or a tanh ramp of I_1 from 0.9 to 1.5 around
    t = 1.5."""
    from test_dynamics import synthetic_record

    times = np.linspace(0.0, 2.7, 200)
    if kind == "jump":
        actions = np.tile([0.137, -0.23], (200, 1))
        actions[62:] = 1.5
    else:
        ramp = (1 + np.tanh((times - 1.5) / 0.01)) / 2
        actions = np.array([0.9, 0.1]) + np.outer(ramp, [0.6, 0.0])
    return synthetic_record(times, actions)


class TestBallExit:
    @pytest.mark.parametrize("kind", ["jump", "smooth"])
    def test_exit_before_tau_m_fails_at_domain(self, kind):
        # the curve clipped at its exit from B_R reaches less than c_0, so no
        # escape is searched: the jump was certified with times [e, e]
        # although it ends 1.5 from I_0, and the ramp pinned t_1 = tau_m and
        # then found an escape before it, a ValueError out of RestrainFrame
        res = try_restrain(quasi_convex(1e-6), _exit_record(kind), 0.05,
                           TimeBudget.for_m(1, Gevrey(1.0, 0.5)), MorseParams(0.9, 2.0),
                           multipliers={"c_mu": 1.2, "smallness": 3.0, "length": 4.0})
        assert not res.restrained
        assert (res.failure.condition, res.failure.detail) == (
            "domain", "curve left B_R before tau_m")

    def test_escape_scan_is_given_the_true_radius(self, monkeypatch):
        # the query widens R by its own 1e-9 margin, the same float test as
        # the ladder's clip, so the ladder passes R unwidened
        from test_dynamics import synthetic_record

        radii = []
        query = restrain.SteepnessQuery
        monkeypatch.setattr(restrain, "SteepnessQuery",
                            lambda *args, **kw: radii.append(kw["R"]) or query(*args, **kw))
        times = np.linspace(0.0, 2.7, 200)
        system = quasi_convex(1e-6)
        try_restrain(system, synthetic_record(times, np.outer(times, [0.1, 0.0])), 0.05,
                     TimeBudget.for_m(1, Gevrey(1.0, 0.5)), MorseParams(0.9, 2.0),
                     multipliers={"c_mu": 1.2, "smallness": 3.0, "length": 4.0})
        assert radii and set(radii) == {system.hamiltonian.domain.R}


def _synthetic_kind(kind):
    """200 samples on [0, 2.7] of one synthetic kind."""
    times = np.linspace(0.0, 2.7, 200)
    if kind == "linear":        # reaches 1.0 > (n+1)^2 mu_0 = 0.45
        return np.array([-0.25, 0.16]) + np.outer(times, [-0.2, 0.37])
    if kind == "walk":          # sigma 0.01 per sample, within 0.25 of the start
        steps = np.random.default_rng(0).normal(0.0, 0.01, (199, 2))
        return np.array([0.05, 0.09]) + np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    actions = np.tile([-0.17, -0.03] if kind == "step" else [-0.25, 0.16], (200, 1))
    if kind == "step":          # 0.24 at sample 72: within (n+1)^2 mu_0, beyond mu_2
        actions[72:] += [-0.06, -0.24]
    else:                       # jump out of the unit ball
        actions[150:] = 1.5
    return actions


@pytest.mark.parametrize("kind, failure", [
    ("linear", (2, "(C_2) |I^2(t) - I^2(t_2)| < mu_2")),
    ("walk", (2, "(C_2) |I^2(t) - I^2(t_2)| < mu_2")),
    ("step", (2, "(C_2) |I^2(t) - I^2(t_2)| < mu_2")),
    ("jump", (0, "domain")),
], ids=["linear", "walk", "step", "jump"])
def test_samples_after_the_last_stage_are_measured(kind, failure):
    # (C_n) reads the samples of [t_n, t_{n+1}] up to the horizon: the
    # linear, walk and step curves were certified with times [0, 0] while
    # no check read a sample after t_2, and the jump never certifies
    from test_dynamics import synthetic_record

    res = try_restrain(quasi_convex(1e-6),
                       synthetic_record(np.linspace(0.0, 2.7, 200), _synthetic_kind(kind)),
                       0.05, TimeBudget.for_m(1, Gevrey(1.0, 0.5)), MorseParams(0.9, 2.0),
                       multipliers={"c_mu": 1.2, "smallness": 3.0, "length": 4.0})
    assert not res.restrained
    assert (res.failure.stage, res.failure.condition) == failure


def _loop_witness(grad, Q, frame, scale, eps, mu_j, gap_cap):
    """Reference: the retry loop that restrain._witness replaced."""
    for _ in range(restrain.INDEPENDENCE_RETRIES):
        for cand in dirichlet_candidates(grad, Q):
            mu_c = scale / float(cand.vector.period)
            if (float(cand.error) >= mu_c or not eps < mu_c ** 2 or 2 * mu_c > mu_j
                    or frame.j and frequency_gap(cand.vector, frame.vectors[-1]) > gap_cap):
                continue
            vecs = frame.vectors + (cand.vector,)
            if rational_rank([pv.omega for pv in vecs]) == frame.j + 1:
                return cand, ResonanceFrame.build(vecs)
        Q *= 2
    return None


def _search_outcome(search, grad, Q, frame, *bounds):
    """The error message, None, or the witness (all DirichletResult fields but
    candidates_examined) with the extended frame's data."""
    try:
        found = search(np.array(grad), Q, frame, *bounds)
    except ValueError as exc:
        return str(exc)
    if found is None:
        return None
    dr, ext = found
    return (dataclasses.replace(dr, candidates_examined=0), ext.vectors, ext.module_basis,
            ext.lambda_basis.tolist(), ext.l_index)


@st.composite
def _witness_case(draw):
    """A gradient (zero, tiny enough to overflow the period bound at some Q,
    or ordinary), a Q, an empty frame or one vector near the gradient, and
    the (B) bounds scale, eps, mu_j and the frequency-gap cap."""
    n = draw(st.integers(2, 3))
    component = st.one_of(st.floats(-1, 1), st.integers(-999, 999).map(lambda i: i / 1000))
    grad = draw(st.lists(component, min_size=n, max_size=n))
    grad = [x * draw(st.sampled_from([1.0, 1.0, 1.0, 1e-307])) for x in grad]
    Q = draw(st.floats(2.0, {2: 6.0, 3: 3.0}[n]))
    if draw(st.booleans()):
        frame = ResonanceFrame.build([], n=n)
    else:
        k = draw(st.integers(1, 8))
        near = [F(round(x * k) + draw(st.integers(-1, 1)), k) for x in grad]
        frame = ResonanceFrame.build([period_of(near if any(near) else [1] + [0] * (n - 1))])
    scale = draw(st.floats(0.05, 1.0))
    eps = 10 ** draw(st.floats(-9, -3))
    mu_j = draw(st.floats(0.02, 0.5))
    gap_cap = draw(st.floats(0.01, 0.5))
    return grad, Q, frame, scale, eps, mu_j, gap_cap


class TestWitnessSearch:
    def test_dirichlet_error_ends_the_stage(self):
        # grad h = 0 has no Dirichlet approximation at any Q, and the failure
        # names the reason
        from test_dynamics import synthetic_record

        traj = synthetic_record([0.0, 1.0, 2.0], np.zeros((3, 2)))
        res = try_restrain(quasi_convex(1e-6), traj, 0.05,
                           TimeBudget.for_m(1, Gevrey(1.0, 0.5)), MorseParams(0.9, 2.0))
        assert res.failure.stage == 0
        assert res.failure.condition == "independence / (B_(j+1)) witness search"
        assert "zero vector has no period" in res.failure.detail

    def test_failed_search_reports_largest_q_searched(self):
        # mu_0 = 0.0015 <= 2 sqrt(eps) leaves stage 0 no period window at all;
        # mu_0 = 0.003 passes stage 0 and finds no witness at stage 1
        from test_dynamics import synthetic_record

        eps = 1e-6
        traj = synthetic_record([0.0, 1.0, 2.0], [[0.31, 0.31 / PHI]] * 3)
        for mu0, stage in [(0.0015, 0), (0.003, 1)]:
            res = try_restrain(quasi_convex(eps), traj, mu0,
                               TimeBudget.for_m(1, Gevrey(1.0, 0.5)), MorseParams(0.9, 2.0))
            a = float(exponents(2, 2).a_list[stage])
            Q = max(2.0, restrain.DEFAULT_MULTIPLIERS["q_safety"] * eps ** -a)
            largest = Q * 2 ** (restrain.INDEPENDENCE_RETRIES - 1)
            assert res.failure.stage == stage
            assert res.failure.condition == "independence / (B_(j+1)) witness search"
            assert res.failure.detail.endswith(f"meeting the (B) bounds up to Q={largest}")

    @given(_witness_case())
    @example(((0.0, 0.0), 2.0, ResonanceFrame.build([], n=2), 0.5, 1e-6, 0.1, 0.1))
    # the winner is at shell 8, beyond Q = 2.56 and 5.12, so the third search
    # decides; two gcd-1 roundings of smaller T pass every other test but
    # are not Dirichlet-feasible at their first search
    @example(((-0.681, 0.594), 2.56, ResonanceFrame.build([period_of((F(-3, 5), F(3, 5)))]),
              0.3, 1e-8, 0.262, 0.11))
    # the first search decides, with three such roundings of smaller T
    @example(((0.192, 0.128), 5.83, ResonanceFrame.build([], n=2), 0.69, 5.7e-07, 0.269, 0.01))
    # n = 3, the third search decides past eight such roundings
    @example(((-0.489, -0.283, 0.381), 5.37, ResonanceFrame.build([], n=3),
              0.87, 7.6e-05, 0.078, 0.04))
    # Q/|v| fits in a float for the first four searches only
    @example(((1e-307, 5e-308), 2.0, ResonanceFrame.build([], n=2), 0.5, 1e-6, 0.1, 0.1))
    @settings(max_examples=200, deadline=None)
    def test_one_pass_equals_retry_loop(self, case):
        grad, Q, frame, *bounds = case
        assert (_search_outcome(restrain._witness, grad, Q, frame, *bounds)
                == _search_outcome(_loop_witness, grad, Q, frame, *bounds))

    def test_one_scan_per_witness(self, monkeypatch):
        # T = 5 lies beyond Q = 2 and 4, so the third search, Q = 8, decides
        # and gives the witness its bounds from the one scan
        scans = []
        init = DirichletScan.__init__
        monkeypatch.setattr(DirichletScan, "__init__",
                            lambda scan, *args: scans.append(args) or init(scan, *args))
        dr, _ = restrain._witness(np.array([1.0, 0.41421356]), 2.0,
                                  ResonanceFrame.build([], n=2), 0.5, 1e-6, 0.3, 0.1)
        assert dr.vector == period_of((1, F(2, 5))) and len(scans) == 1
        assert dr.period_upper == 8.0 and dr.error_bound == 0.025

    def test_witness_before_an_overflowing_q_is_returned(self):
        # Q/|v| = 2^1021 * 2^r overflows from the fourth search on; the exact
        # T = 4 vector wins in the first search, whose 2^1020 shells the
        # retry loop could not have scanned
        grad, Q, frame = np.array([0.5, 0.25]), 2.0 ** 1020, ResonanceFrame.build([], n=2)
        dr, ext = restrain._witness(grad, Q, frame, 0.5, 1e-6, 0.3, 0.1)
        assert dr.vector == period_of((F(1, 2), F(1, 4))) and dr.error == 0
        assert dr.period_upper == float(F(Q) / F(1, 2)) and ext.vectors == (dr.vector,)
        # with T = 4 below the window, the search ends at T = scale/sqrt(eps)
        # and raises the fourth search's error
        with pytest.raises(ValueError, match="does not fit in a float"):
            restrain._witness(grad, Q, frame, 0.5, 1e-6, 0.2, 0.1)
        # here Q * 2^3 = 2^1024 itself overflows, which the fourth search
        # reports before its period bound
        with pytest.raises(ValueError, match=r"^Q and v must be finite, got Q=inf, "):
            restrain._witness(np.array([1.0, 0.5]), 2.0 ** 1021, frame, 0.5, 1e-6, 0.2, 0.1)


def _quasi_convex_at(center, eps):
    """|I - center|^2/2 + eps*cos(2*pi*(theta_1 + theta_2)) on the unit ball
    around center."""
    d = Domain(2, 1.0)
    h = (FourierTaylorSeries.monomial(d, (2, 0), 0.5, 1, 2, center)
         + FourierTaylorSeries.monomial(d, (0, 2), 0.5, 1, 2, center))
    f = FourierTaylorSeries.cosine(d, (1, 1), eps, 1, 2, center)
    return System("quasi-convex", HamiltonianSystem(h, f, eps, Gevrey(1.0, 0.5)))


class TestTransformFallback:
    """restrain falls back to the first-order displacement T*mu*mu only when
    the local normal form diverges or its domain is too tight."""

    @pytest.mark.parametrize("error", [
        AveragingDivergenceError([1e-5, 2e-5]),
        DomainError("localized ball too tight"),
    ], ids=["divergence", "domain"])
    def test_named_failures_use_first_order_bound(self, monkeypatch, error):
        # the measured displacement certifies; T_1*mu_1^2 = 0.0175 exceeds
        # mu_1 = 0.016 and fails (C_1) at the next stage
        cert = _certified_setup()[-1].certificate
        T1, mu1 = float(cert.frame.vectors[0].period), cert.mus[0]
        assert cert.displacement_budget < mu1 < T1 * mu1 * mu1

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(restrain, "_localized_form", fail)
        failure = _certified_setup()[-1].failure
        assert failure.stage == 1 and failure.condition.startswith("(C_1)")
        assert f"(+budget {T1 * mu1 * mu1})" in failure.detail

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(restrain, "_localized_form", broken)
        with pytest.raises(TypeError, match="unexpected argument"):
            _certified_setup()


def _displacement_by_full_form(system, center, frame, mus, budget):
    """``_transform_displacement`` as it was: ``displacement_sup`` read off
    the whole local normal form, with the same fallback."""
    cfg = NormalFormConfig(m=min(budget.m, 2), lie_order=3)
    try:
        nf = local_normal_form(system.hamiltonian, tuple(center), frame, mus, cfg,
                               theta_grid=6, action_grid=5)
    except (AveragingDivergenceError, DomainError):
        return float(frame.vectors[-1].period) * mus[-1] * mus[-1]
    return nf.certificates["displacement_sup"]


def _displacement_case(eps, center, omegas, mus, m=2):
    frame = ResonanceFrame.build([period_of(w) for w in omegas])
    return (quasi_convex(eps), np.array(center), frame, list(mus),
            TimeBudget.for_m(m, Gevrey(1.0, 0.5)))


@st.composite
def _displacement_inputs(draw):
    """A point of the quasi-convex system, a frame of one or two periodic
    vectors, one radius per vector (some violate epsilon < mu^2) and m."""
    comp = st.fractions(min_value=-1, max_value=1, max_denominator=20)
    omegas = [draw(st.lists(comp, min_size=2, max_size=2).filter(any))
              for _ in range(draw(st.integers(1, 2)))]
    assume(rational_rank(omegas) == len(omegas))
    mus = [draw(st.floats(0.002, 0.2))]
    mus += [mus[0] * draw(st.floats(0.1, 0.5)) for _ in omegas[1:]]
    return _displacement_case(
        draw(st.sampled_from([1e-9, 1e-7, 1e-5])),
        [draw(st.floats(-0.8, 0.8)) for _ in range(2)], omegas, mus,
        draw(st.integers(1, 3)),
    )


# (case, what local_normal_form gives): a value for a one- and a
# two-vector frame, and both errors that fall back to T*mu*mu
_DISPLACEMENT_CASES = [
    ((1e-12, (0.5, 0.0), [(F(1, 2), F(0))], [0.01]), float),
    ((1e-9, (0.5, 0.25), [(F(1, 2), F(1, 4)), (F(1, 2), F(11, 40))], [0.02, 0.01]), float),
    ((1e-5, (0.9, 0.3), [(F(9, 10), F(3, 10))], [0.05]), DomainError),
    ((1e-6, (0.3, 0.3), [(F(1, 20), F(1, 20))], [0.02]), AveragingDivergenceError),
]


class TestTransformDisplacement:
    """The restrain ladder reads only the displacement core of the local
    normal form; it must give what the whole form gives."""

    @staticmethod
    def _outcome(displacement, case):
        try:
            return displacement(*case)
        except Exception as exc:
            return type(exc)

    @pytest.mark.parametrize("args, full_form", _DISPLACEMENT_CASES,
                             ids=["j1", "j2", "domain", "divergence"])
    def test_fixed_cases(self, args, full_form):
        case = _displacement_case(*args)
        system, center, frame, mus, _ = case
        got = restrain._transform_displacement(*case)
        assert got == _displacement_by_full_form(*case)

        def full():
            return local_normal_form(system.hamiltonian, tuple(center), frame, mus,
                                     NormalFormConfig(m=2, lie_order=3))

        if full_form is float:
            assert full().certificates["displacement_sup"] > 0
            assert got > 0 and got != float(frame.vectors[-1].period) * mus[-1] ** 2
        else:
            with pytest.raises(full_form):
                full()

    def test_tau_is_not_computed(self):
        # the one difference: tau_m = 2^1100 of a C^k tag with k* = 1100
        # overflows a float in the full form's d_theta target, which the
        # displacement never read
        qc = quasi_convex(1e-12)
        system = System(qc.name, dataclasses.replace(qc.hamiltonian,
                                                     regularity=FiniteDiff(2201, 1100)))
        case = (system,) + _displacement_case(*_DISPLACEMENT_CASES[0][0])[1:]
        with pytest.raises(ValueError, match="tau_m overflows"):
            _displacement_by_full_form(*case)
        assert restrain._transform_displacement(*case) == _displacement_by_full_form(
            *_displacement_case(*_DISPLACEMENT_CASES[0][0]))

    @given(_displacement_inputs())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_full_form(self, case):
        assert (self._outcome(restrain._transform_displacement, case)
                == self._outcome(_displacement_by_full_form, case))


class TestOffOriginBall:
    def test_centered_system_restrains_like_origin_one(self):
        # the projected-curve clip and the local normal forms measure the
        # ball from the series center, so the same system moved to
        # (3.0, -1.5) gives the same verdicts
        eps = 1e-6
        exps = exponents(2, F(2))
        budget = time_budget(eps, Gevrey(1.0, 0.5), exps, 1.0)
        cfg = IntegratorConfig(step=0.05, sample_stride=20)
        mult = {"c_mu": 1.2, "smallness": 3.0, "length": 4.0}
        verdicts = []
        starts = [((0.637, 0.27), (-0.459, -0.483)), ((0.135, 0.721), (0.025, -0.19))]
        for theta0, I0 in starts:
            for center in [(0.0, 0.0), (3.0, -1.5)]:
                system = _quasi_convex_at(center, eps)
                traj = integrate(system, (theta0, np.add(I0, center)), budget.tau_m, cfg)
                assert not traj.escaped
                res = try_restrain(system, traj, 0.05, budget, MorseParams(0.9, 2.0),
                                   exps=exps, multipliers=mult)
                if res.restrained:
                    verdicts.append(res.certificate.frame.vectors)
                else:
                    assert res.failure.condition != "domain"
                    verdicts.append(res.failure.condition)
        assert "witness search" in verdicts[0] and verdicts[0] == verdicts[1]
        # the frames agree up to the rounding of actions near (3.0, -1.5)
        assert len(verdicts[2]) == len(verdicts[3]) == 2
        for a, b in zip(verdicts[2], verdicts[3]):
            assert np.allclose(a.as_floats(), b.as_floats(), rtol=0, atol=1e-12)


class TestCertificateSoundness:
    def test_reevaluated_from_raw_data(self):
        # no stale margins: every logged (B)/(C) inequality re-verifies from
        # the certificate's own raw data and the bound trajectory
        sysq, start, cfg, budget, traj, res = _certified_setup()
        cert = res.certificate
        h = sysq.h_action
        mult = cert.multipliers
        eps = sysq.hamiltonian.epsilon
        for pv, mu_i, center in zip(cert.frame.vectors, cert.mus, cert.centers):
            err = float(np.max(np.abs(h.grad(center) - pv.as_floats())))
            assert err < mu_i
            T = float(pv.period)
            assert T * mu_i <= mult["smallness"]
            assert budget.m * T * mu_i <= mult["smallness"]
            assert eps < mu_i ** 2
        radii = [cert.mu0] + cert.mus
        assert all(2 * b <= a for a, b in zip(radii, radii[1:]))
        # every interval, the last one [t_n, t_{n+1}] up to the horizon
        times = [0.0] + cert.times + [min(budget.tau_m, float(traj.times[-1]))]
        for j in range(len(cert.times) + 1):
            mask = (traj.times >= times[j]) & (traj.times <= times[j + 1])
            seg = traj.actions[mask]
            if len(seg) > 1:
                sup = float(np.max(np.abs(seg - seg[0])))
                assert sup + cert.displacement_budget < radii[j]
        assert cert.passed_conditions
        # frame independence re-verified exactly
        from driftbench.diophantine import rational_rank

        assert rational_rank(
            [pv.omega for pv in cert.frame.vectors]
        ) == len(cert.frame.vectors)


class TestStability:
    def test_certificate_implies_confinement(self):
        sysq, start, cfg, budget, traj, res = _certified_setup()
        assert res.restrained
        check = restrained_implies_stable(res.certificate, traj)
        assert check.ok
        assert check.max_displacement < 1e-3
        assert check.chain_bound < check.bound

    def test_exclusion_with_drift_time(self):
        sysq, start, cfg, budget, traj, res = _certified_setup()
        assert res.restrained
        bound = (2 + 1) ** 2 * res.certificate.mu0
        dt = drift_time(sysq, start, bound, budget.tau_m, cfg)
        assert dt.time == SENTINEL

    def test_synthetic_nesting_chain(self):
        # radii mu_j = 2^{-j} mu_0 with per-interval drifts exactly mu_j sum
        # far below (n+1)^2 mu_0
        mu0 = 0.04
        budget = TimeBudget.for_m(1, Gevrey(1.0, 0.5))
        cert = RestrainFrame(
            mu0=mu0, mus=[mu0 / 2, mu0 / 4],
            times=[1.0, 2.0],
            frame=ResonanceFrame.build([period_of((1, 0)), period_of((0, 1))]),
            centers=[np.zeros(2), np.zeros(2)],
            budget=budget, condition_log=[], multipliers={},
            displacement_budget=0.0, approximate=False,
            trajectory_hash="", config_hash="",
        )
        assert chain_bound(cert) < (2 + 1) ** 2 * mu0

    def test_violated_bound_reports_witness(self):
        from test_dynamics import synthetic_record

        mu0 = 0.01
        budget = TimeBudget.for_m(1, Gevrey(1.0, 0.5))
        cert = RestrainFrame(
            mu0=mu0, mus=[mu0 / 2, mu0 / 4], times=[0.5, 1.0],
            frame=ResonanceFrame.build([period_of((1, 0)), period_of((0, 1))]),
            centers=[np.zeros(2), np.zeros(2)],
            budget=budget, condition_log=[], multipliers={},
            displacement_budget=0.0, approximate=False,
            trajectory_hash="", config_hash="",
        )
        times = np.linspace(0, budget.tau_m, 20)
        actions = np.stack([0.2 * times, np.zeros_like(times)], axis=1)
        traj = synthetic_record(times, actions)
        check = restrained_implies_stable(cert, traj)
        assert not check.ok
        assert check.witness_time is not None

    def test_nesting_violation_rejected(self):
        budget = TimeBudget.for_m(1, Gevrey(1.0, 0.5))
        with pytest.raises(ValueError, match="nesting"):
            RestrainFrame(
                mu0=0.01, mus=[0.009], times=[1.0],
                frame=ResonanceFrame.build([period_of((1, 0))], n=2),
                centers=[np.zeros(2)], budget=budget, condition_log=[],
                multipliers={}, displacement_budget=0.0, approximate=False,
                trajectory_hash="", config_hash="",
            )
