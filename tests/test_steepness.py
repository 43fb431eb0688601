import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import action_h
from driftbench.diophantine import RationalSubspace, ResonanceFrame, period_of, projections
from driftbench.series import Domain, FourierTaylorSeries
from driftbench.steepness import (
    MorseParams,
    SteepnessQuery,
    action_ball_grid,
    adapted_coordinates,
    best_gamma,
    check_morse,
    check_morse_at,
    sample_prevalence,
    steepness_escape,
    subspace_margins,
)
from driftbench.systems import GOLDEN, SeriesHamiltonian, degenerate_steep

IDENTITY = action_h(np.eye(2))
DEGENERATE = action_h(np.diag([1.0, 0.0]))
LINEAR_GOLDEN = action_h(omega=[1.0, GOLDEN])


class TestMorseParams:
    @pytest.mark.parametrize("gamma, tau", [
        (0.9, math.nan), (0.9, math.inf), (0.9, -1.0),
        (math.nan, 2.0), (math.inf, 2.0), (0.0, 2.0),
    ])
    def test_non_finite_or_out_of_range_rejected(self, gamma, tau):
        # a NaN tau would make every threshold gamma * L^-tau with L >= 2 NaN,
        # and those subspaces could never fail
        with pytest.raises(ValueError):
            MorseParams(gamma, tau)


class TestAdaptedCoordinates:
    """E is an orthonormal basis of Lambda, the common kernel of the normals."""

    def test_axis_subspace(self):
        E = adapted_coordinates(RationalSubspace(((0, 1),), 2))   # Lambda = span{e_1}
        assert np.allclose(np.abs(E.ravel()), [1, 0])

    def test_diagonal_normal(self):
        E = adapted_coordinates(RationalSubspace(((1, 1),), 2))
        assert np.allclose(np.abs(E.ravel()), [1 / math.sqrt(2)] * 2)

    def test_full_space(self):
        assert np.array_equal(adapted_coordinates(RationalSubspace((), 3)), np.eye(3))

    def test_orthonormality(self):
        for normals, n in [
            (((0, 1),), 2), (((2, -1),), 2), (((1, 2, 0),), 3),
            (((2, 3, -1), (0, 1, 1)), 3), (((1, 0, 0, 1), (0, 1, -1, 0)), 4),
        ]:
            E = adapted_coordinates(RationalSubspace(normals, n))
            assert E.shape == (n, n - len(normals))
            assert np.allclose(E.T @ E, np.eye(E.shape[1]), atol=1e-12)
            assert np.allclose(np.array(normals) @ E, 0, atol=1e-12)


    def test_memoized_and_read_only(self):
        E = adapted_coordinates(RationalSubspace(((1, 2, 0),), 3))
        assert adapted_coordinates(RationalSubspace(((1, 2, 0),), 3)) is E
        with pytest.raises(ValueError, match="read-only"):
            E[0, 0] = 0.0


class TestCheckMorseAt:
    def test_identity_hessian_branch(self):
        s = RationalSubspace(((1, 1),), 2)
        r = check_morse_at(IDENTITY, s, (0.0, 0.0), MorseParams(0.9, 2.0), 1)
        assert r.branch == "hessian"
        assert r.sigma_min == pytest.approx(1.0, abs=1e-12)

    def test_linear_gradient_branch(self):
        s = RationalSubspace(((0, 1),), 2)
        r = check_morse_at(LINEAR_GOLDEN, s, (0.3, 0.1), MorseParams(0.5, 2.0), 1)
        assert r.branch == "gradient"

    def test_degenerate_direction_fails(self):
        s = RationalSubspace(((1, 0),), 2)   # Lambda = span{e_2}
        r = check_morse_at(DEGENERATE, s, (0.1, 0.3), MorseParams(0.9, 2.0), 1)
        assert r.branch == "fail"
        assert r.grad_norm == pytest.approx(0.0, abs=1e-14)
        assert r.sigma_min == pytest.approx(0.0, abs=1e-14)

    def test_point_outside_ball(self):
        s = RationalSubspace(((1, 0),), 2)
        with pytest.raises(ValueError):
            check_morse_at(IDENTITY, s, (2.0, 0.0), MorseParams(0.9, 2.0), 1)

    def test_ball_is_h_own_ball_around_its_center(self):
        # |I - c|^2 / 2 on the ball of radius 0.5 around c = (3, -1.5): a point
        # near c is checked, a point near the origin is outside the ball
        c = (3.0, -1.5)
        d = Domain(2, 0.5)
        h = SeriesHamiltonian(FourierTaylorSeries.monomial(d, (2, 0), 0.5, 0, 2, c)
                              + FourierTaylorSeries.monomial(d, (0, 2), 0.5, 0, 2, c))
        s = RationalSubspace(((1, 1),), 2)
        r = check_morse_at(h, s, (3.2, -1.3), MorseParams(0.9, 2.0), 1)
        assert r.branch == "hessian"
        assert r.sigma_min == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="outside the action ball"):
            check_morse_at(h, s, (0.2, 0.3), MorseParams(0.9, 2.0), 1)

    @given(st.floats(0.5, 2.0), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_scale_awareness(self, factor, seed):
        # scaling h scales both margins exactly, and the branch taken at
        # (factor * gamma) for factor*h matches the branch for h at gamma
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(2, 2))
        A = A + A.T
        h = action_h(A)
        h2 = action_h(factor * A)
        s = RationalSubspace(((1, 1),), 2)
        pt = rng.uniform(-0.5, 0.5, 2)
        r1 = check_morse_at(h, s, pt, MorseParams(0.25, 2.0), 2)
        r2 = check_morse_at(h2, s, pt, MorseParams(factor * 0.25, 2.0), 2)
        assert r2.grad_norm == pytest.approx(factor * r1.grad_norm, rel=1e-12)
        assert r2.branch == r1.branch
        if not math.isnan(r1.sigma_min):
            assert r2.sigma_min == pytest.approx(factor * r1.sigma_min, rel=1e-10)


class TestCheckMorse:
    def test_quasi_convex_passes(self):
        rep = check_morse(IDENTITY, MorseParams(0.9, 2.0), 3, 2, grid_res=17)
        assert rep.passed
        assert rep.subspace_counts == {1: 8, 2: 1}

    def test_degenerate_fails_naming_e2(self):
        rep = check_morse(DEGENERATE, MorseParams(0.9, 2.0), 3, 2, grid_res=17)
        assert not rep.passed
        keys = {f.subspace.lattice_key() for f in rep.failures}
        assert ((0, 1),) in keys   # Lambda = span{e_2}

    def test_n_must_match_h(self):
        with pytest.raises(ValueError, match="n=3"):
            check_morse(IDENTITY, MorseParams(0.9, 2.0), 3, 3, grid_res=9)

    def test_n1_edge_case(self):
        h = action_h(np.eye(1))
        rep = check_morse(h, MorseParams(0.9, 2.0), 2, 1, grid_res=17)
        assert rep.passed
        assert rep.subspace_counts == {1: 1}

    def test_linear_golden_measured_gamma(self):
        margins = subspace_margins(LINEAR_GOLDEN, 5, 17)
        g = best_gamma(margins, 2.0)
        assert g is not None and g >= 0.5
        rep = check_morse(LINEAR_GOLDEN, MorseParams(g, 2.0), 5, 2, grid_res=17)
        assert rep.passed

    def test_grid_refinement_stability(self):
        for res in (33, 65):
            assert check_morse(IDENTITY, MorseParams(0.9, 2.0), 3, 2, grid_res=res).passed
            assert not check_morse(DEGENERATE, MorseParams(0.9, 2.0), 3, 2, grid_res=res).passed

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_quadratic_eigenvalue_oracle(self, seed):
        # positive-definite Hessian: the check passes iff the smallest
        # eigenvalue of every tested section beats the threshold
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(2, 2))
        Q = B @ B.T + 0.05 * np.eye(2)
        h = action_h(Q)
        params = MorseParams(0.3, 2.0)
        rep = check_morse(h, params, 3, 2, grid_res=9)
        expected = True
        for m in rep.margins:
            E = adapted_coordinates(m.subspace)
            lam_min = np.min(np.abs(np.linalg.eigvalsh(E.T @ Q @ E)))
            if lam_min <= params.threshold(m.L_min):
                expected = False
        assert rep.passed == expected

    def test_degenerate_steep_toy_fails(self):
        class CountingHess(SeriesHamiltonian):
            calls = 0

            def hess(self, I):
                self.calls += 1
                return super().hess(I)

        h = CountingHess(degenerate_steep(0.0).hamiltonian.integrable)
        rep = check_morse(h, MorseParams(0.9, 2.0), 2, 2, grid_res=9)
        assert not rep.passed
        assert [f.subspace.lattice_key() for f in rep.failures] == [
            ((0, 1),), ((1, 0), (0, 1)), ((1, -1),), ((1, 1),)
        ]
        # the Hessians of all grid points are one stacked read per check
        assert h.calls == 1

    def test_quartic_fails_between_equal_end_hessians(self):
        # h'' = 12 I^2 is 12 at both ends of the grid and 0 at I = 0: the
        # check must read the Hessian in between, as check_morse_at does
        quartic = SeriesHamiltonian(FourierTaylorSeries.monomial(Domain(1, 1.0), (4,), 1.0))
        params = MorseParams(0.9, 2.0)
        rep = check_morse(quartic, params, 3, 1)
        assert not rep.passed and rep.margins[0].margin == 0.0
        sub = rep.margins[0].subspace
        assert check_morse_at(quartic, sub, [0.0], params, 1).branch == "fail"
        # I_1^4 + 0.05 I_1^2 + 0.5 I_2^2: sigma = 0.1 on the line I_1 = 0
        d = Domain(2, 1.0)
        h = SeriesHamiltonian(
            FourierTaylorSeries.monomial(d, (4, 0), 1.0)
            + FourierTaylorSeries.monomial(d, (2, 0), 0.05)
            + FourierTaylorSeries.monomial(d, (0, 2), 0.5)
        )
        rep = check_morse(h, params, 3, 2)
        assert [f.subspace.lattice_key() for f in rep.failures] == [
            ((1, 0),), ((1, 0), (0, 1))
        ]


class TestPrevalence:
    def test_identity_always_passes(self):
        rep = sample_prevalence(IDENTITY, 11.0, 6, 1.0, 2, L_max=2, grid_res=9, seed=1)
        assert rep.fraction == 1.0
        assert all(g is not None for g in rep.gammas)

    def test_zero_hamiltonian_recorded_not_asserted(self):
        h = action_h(np.zeros((2, 2)))
        rep = sample_prevalence(h, 11.0, 8, 1.0, 2, L_max=2, grid_res=9, seed=2)
        assert rep.fraction is not None  # recorded; value depends on draws

    def test_empty_sample_flagged(self):
        rep = sample_prevalence(IDENTITY, 11.0, 0, 1.0, 2, seed=3)
        assert rep.fraction is None

    def test_tau_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            sample_prevalence(IDENTITY, 9.0, 3, 1.0, 2)  # needs tau > 10 for n=2

    def test_n_must_match_h(self):
        # n sets both the tau hypothesis and the size of the shift xi
        with pytest.raises(ValueError, match="n=3"):
            sample_prevalence(IDENTITY, 30.0, 2, 1.0, 3, grid_res=9)

    def test_determinism(self):
        a = sample_prevalence(IDENTITY, 11.0, 5, 1.0, 2, L_max=2, grid_res=9, seed=7)
        b = sample_prevalence(IDENTITY, 11.0, 5, 1.0, 2, L_max=2, grid_res=9, seed=7)
        assert a.gammas == b.gammas


class TestSteepnessEscape:
    def _radial_query(self, c=0.25):
        frame = ResonanceFrame.build([], n=2)
        ts = np.linspace(0.0, 1.0, 101)
        pts = np.stack([0.4 * ts, np.zeros_like(ts)], axis=1)
        return SteepnessQuery(ts, pts, c, frame, R=1.0)

    def test_radial_escape(self):
        q = self._radial_query()
        r = steepness_escape(q, IDENTITY, 0.9, 2.0)
        assert r.found
        # grad h = I along the ray; escape at the first sample with
        # |I|_inf > c^2
        assert r.grad_sup > 0.25 ** 2
        idx = r.index
        assert np.max(np.abs(q.points[idx - 1])) <= 0.25 ** 2 + 1e-12

    def test_linear_immediate_escape(self):
        q = self._radial_query()
        r = steepness_escape(q, LINEAR_GOLDEN, 0.9, 2.0)
        assert r.found and r.index == 0 and r.time == 0.0

    def test_zero_length_curve_rejected(self):
        frame = ResonanceFrame.build([], n=2)
        ts = np.linspace(0.0, 1.0, 11)
        pts = np.zeros((11, 2))
        q = SteepnessQuery(ts, pts, 0.2, frame, R=1.0)
        with pytest.raises(ValueError, match="never reaches"):
            steepness_escape(q, IDENTITY, 0.9, 2.0)

    def test_length_cap_precondition(self):
        q = self._radial_query(c=0.5)
        with pytest.raises(ValueError, match="exceeds its cap"):
            # gamma L^-tau = 0.3 < c = 0.5
            steepness_escape(q, IDENTITY, 0.3, 2.0)

    def test_not_found_flagged_as_counterexample(self):
        # gradient identically zero: no escape can occur
        h = action_h(np.zeros((2, 2)))
        q = self._radial_query()
        r = steepness_escape(q, h, 0.9, 2.0)
        assert not r.found

    def test_containment_conditions_on_result(self):
        # both displayed clauses hold on the sampled curve at the returned time
        q = self._radial_query()
        r = steepness_escape(q, IDENTITY, 0.9, 2.0)
        disp = np.max(np.abs(q.points - q.points[0]), axis=1)
        assert np.all(disp[: r.index] < q.c)
        assert r.grad_sup > r.grad_threshold

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_stacked_scan_matches_per_point_scan(self, data):
        # random drifting curves through a random quadratic h, on the whole
        # plane or on the line of one periodic vector, with c a fraction of
        # the curve's reach and a threshold multiplier across four decades;
        # the per-point loop the stacked scan replaced is the reference
        entry = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
        a = data.draw(st.lists(entry, min_size=3, max_size=3))
        scale = data.draw(st.sampled_from([1.0, 0.1, 0.01]))
        h = action_h(scale * np.array([[a[0], a[1]], [a[1], a[2]]]))
        vectors = data.draw(st.sampled_from([[], [period_of((1, 0))], [period_of((1, 1))]]))
        frame = ResonanceFrame.build(vectors, n=2)
        Pi, _ = projections(frame)
        m = data.draw(st.integers(2, 40))
        step = st.floats(-0.01, 0.01)
        phi = data.draw(st.floats(0.0, 2 * math.pi))
        drift = 0.01 * np.array([math.cos(phi), math.sin(phi)])
        steps = drift + np.array(data.draw(st.lists(st.tuples(step, step), min_size=m - 1,
                                                    max_size=m - 1)))
        start = np.array(data.draw(st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1))))
        pts = start + np.vstack([np.zeros(2), np.cumsum(steps @ Pi.T, axis=0)])
        disp = np.max(np.abs(pts - pts[0]), axis=1)
        assume(disp.max() > 1e-3)
        c = data.draw(st.floats(0.2, 1.0)) * disp.max()
        q = SteepnessQuery(np.arange(m) * 0.1, pts, c, frame, R=1.0)
        mult = 10.0 ** data.draw(st.floats(-2.0, 2.0))
        r = steepness_escape(q, h, 0.9, 2.0, grad_multiplier=mult)
        ref = (False, None, None)
        for i in range(m):
            if float(np.max(np.abs(Pi @ h.grad(pts[i])))) > mult * c ** 2:
                ref = (True, i, float(q.times[i]))
                break
            if disp[i] >= c:
                break
        assert (r.found, r.index, r.time) == ref
        if r.found:
            assert np.all(disp[: r.index] < c)

    def test_ball_measured_from_center(self):
        # a curve near (3.0, -1.5) lies inside the unit ball around that
        # center, and outside the unit ball around the origin
        frame = ResonanceFrame.build([], n=2)
        ts = np.linspace(0.0, 1.0, 11)
        center = np.array([3.0, -1.5])
        pts = center + np.stack([0.4 * ts, -0.2 * ts], axis=1)
        q = SteepnessQuery(ts, pts, 0.2, frame, R=1.0, center=center)
        assert np.array_equal(q.points, pts)
        with pytest.raises(ValueError, match="leaves the action ball"):
            SteepnessQuery(ts, pts, 0.2, frame, R=1.0)
        with pytest.raises(ValueError, match="leaves the action ball"):
            SteepnessQuery(ts, pts + 1.0, 0.2, frame, R=1.0, center=center)

    def test_off_subspace_curve_rejected(self):
        frame = ResonanceFrame.build([period_of((1, 0))])   # Lambda = e_2 axis
        ts = np.linspace(0.0, 1.0, 11)
        pts = np.stack([0.3 * ts, 0.3 * ts], axis=1)        # moves along e_1 too
        with pytest.raises(ValueError, match="affine subspace"):
            SteepnessQuery(ts, pts, 0.2, frame, R=1.0)
