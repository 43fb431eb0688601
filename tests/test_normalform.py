import dataclasses
import itertools
import math
import operator
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import small_series
from driftbench import normalform
from driftbench import series as series_module
from driftbench.diophantine import ResonanceFrame, period_of, resonance_module
from driftbench.normalform import (
    AveragingDivergenceError,
    NormalFormConfig,
    composed_normal_form,
    homological_solve,
    lie_transform,
    local_normal_form,
    localize_and_scale,
    periodic_averaging,
    resonant_split,
    verify_resonant_symmetry,
)
from driftbench.series import (
    Domain,
    DomainError,
    FourierTaylorSeries,
    Gevrey,
    HamiltonianSystem,
    poisson_bracket,
)
from driftbench.systems import quasi_convex

D2 = Domain(2, 1.0)
W10 = period_of((1, 0))


@st.composite
def small_period_vector(draw, n=2, max_den=6):
    comps = [
        F(draw(st.integers(-3, 3)), draw(st.integers(1, max_den)))
        for _ in range(n)
    ]
    if not any(comps):
        comps[0] = F(1)
    return period_of(comps)


class TestResonantAverage:
    def test_nonresonant_mode_killed(self):
        f = FourierTaylorSeries.cosine(D2, (1, 0))
        assert resonant_split(f, W10)[0].is_zero

    def test_resonant_mode_kept(self):
        f = FourierTaylorSeries.cosine(D2, (0, 1))
        assert (resonant_split(f, W10)[0] - f).coefficient_norm() == 0

    def test_rational_resonance(self):
        f = FourierTaylorSeries.cosine(D2, (1, 1))
        w = period_of((1, -1))
        assert (resonant_split(f, w)[0] - f).coefficient_norm() == 0

    @given(f=small_series(n=2, k_max=3, d_max=2), w=small_period_vector())
    @settings(max_examples=25, deadline=None)
    def test_projection_idempotent(self, f, w):
        once = resonant_split(f, w)[0]
        twice = resonant_split(once, w)[0]
        assert (once - twice).coefficient_norm() == 0

    @given(f=small_series(n=2, k_max=3, d_max=2))
    @settings(max_examples=20, deadline=None)
    def test_commutes_for_commuting_frequencies(self, f):
        # linear Hamiltonians always commute; averaging along either order of
        # two frequencies agrees at the mode level
        w1, w2 = period_of((1, 0)), period_of((1, 2))
        a = resonant_split(resonant_split(f, w1)[0], w2)[0]
        b = resonant_split(resonant_split(f, w2)[0], w1)[0]
        assert (a - b).coefficient_norm() == 0


class TestHomologicalSolve:
    def test_explicit_sine_solution(self):
        f = FourierTaylorSeries.cosine(D2, (1, 0))
        chi = homological_solve(f, W10)
        expected = FourierTaylorSeries.sine(D2, (1, 0), 1 / (2 * math.pi))
        assert (chi - expected).coefficient_norm() == pytest.approx(0.0, abs=1e-16)

    def test_resonant_input_gives_zero(self):
        f = FourierTaylorSeries.cosine(D2, (0, 1))
        assert homological_solve(f, W10).is_zero

    def test_zero_input(self):
        assert homological_solve(FourierTaylorSeries.zero(D2, 1, 1), W10).is_zero

    @given(st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6, max_denominator=10 ** 9),
           st.integers(-10 ** 12, 10 ** 12).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_integer_divisor_is_the_fraction_divisor(self, T, m):
        # homological_solve forms m/T by one int true division; it and the
        # Fraction's float are both correctly rounded, so the bits agree
        assume(T > 0)
        assert (m * T.denominator / T.numerator).hex() == float(F(m) / T).hex()

    @given(f=small_series(n=2, k_max=3, d_max=2), w=small_period_vector())
    @settings(max_examples=40, deadline=None)
    def test_homological_identity(self, f, w):
        chi = homological_solve(f, w)
        l_w = FourierTaylorSeries.linear(
            D2, [float(x) for x in w.omega], k_max=f.k_max, d_max=max(f.d_max, 1)
        )
        lhs = poisson_bracket(chi, l_w, k_max=f.k_max, d_max=f.d_max)
        rhs = f - resonant_split(f, w)[0]
        defect = (lhs - rhs).coefficient_norm()
        assert defect <= 1e-12 * max(1.0, f.coefficient_norm())

    @given(f=small_series(n=2, k_max=3, d_max=1), w=small_period_vector())
    @settings(max_examples=25, deadline=None)
    def test_symmetry_propagation(self, f, w):
        # restrict f to modes annihilating a second frequency w2; the filter
        # and the division preserve that mode condition exactly
        w2 = period_of((2, 1))
        kept = {
            idx: c for idx, c in f.items()
            if sum(F(k) * o for k, o in zip(idx[0], w2.omega)) == 0
        }
        f2 = FourierTaylorSeries(D2, kept, f.k_max, f.d_max)
        for out in (resonant_split(f2, w)[0], homological_solve(f2, w)):
            for (k, _), c in out.items():
                assert sum(F(x) * o for x, o in zip(k, w2.omega)) == 0


def _k_dot_omega(k, w):
    return sum(F(ki) * wi for ki, wi in zip(k, w.omega))


@st.composite
def _fractional_period_vector(draw, n):
    # numerators sharing a factor make T = lcm(denominators)/gcd a fraction
    dens = st.sampled_from([1, 3, 5])
    comps = [F(draw(st.integers(-6, 6)), draw(dens)) for _ in range(n)]
    if not any(comps):
        comps[0] = F(2, 3)
    return period_of(comps)


class TestIntegerKDotOmega:
    """k.omega decided on k.(T omega) against the Fraction sum it replaces."""

    # (omega, a resonant mode k with k.(T omega) = 0)
    FRAMES = [
        (period_of((F(1, 3), F(2, 5))), (6, -5)),
        (period_of((F(2, 3), F(4, 3))), (2, -1)),
        (period_of((F(4, 5), F(-2, 5), F(6, 5))), (1, 2, 0)),
        (period_of((F(2, 3), 0, F(-4, 9))), (2, 5, 3)),
    ]

    def _check(self, f, w):
        res, non = resonant_split(f, w)
        want_res = [(idx, c) for idx, c in f.items() if _k_dot_omega(idx[0], w) == 0]
        want_non = [(idx, c) for idx, c in f.items() if _k_dot_omega(idx[0], w) != 0]
        assert list(res.items()) == want_res
        assert list(non.items()) == want_non
        want_chi = [
            (idx, c / (2j * math.pi * float(_k_dot_omega(idx[0], w))))
            for idx, c in want_non
        ]
        assert list(homological_solve(f, w).items()) == want_chi
        return len(want_res), len(want_non)

    def test_fixed_frames_with_fractional_periods(self):
        assert [w.period for w, _ in self.FRAMES] == [15, F(3, 2), F(5, 2), F(9, 2)]
        for w, k_res in self.FRAMES:
            d = Domain(w.n, 1.0)
            f = FourierTaylorSeries.cosine(d, k_res, 0.25, k_max=6)
            for k in [(3, -1, 2), (2, 1, -1), (1, 1, 1)]:
                f = f + FourierTaylorSeries.sine(d, k[: w.n], 0.5, k_max=6)
            n_res, n_non = self._check(f, w)
            assert n_res >= 2 and n_non >= 2

    @given(data=st.data(), n=st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_dot_product(self, data, n):
        f = data.draw(small_series(n=n, k_max=3, d_max=2, n_terms=6))
        w = data.draw(_fractional_period_vector(n))
        self._check(f, w)


class TestLieTransform:
    def test_zero_generator(self):
        H = FourierTaylorSeries.linear(D2, (1.0, 0.5), k_max=1, d_max=1)
        out = lie_transform(H, FourierTaylorSeries.zero(D2, 1, 1), 4)
        assert (out - H).coefficient_norm() == 0

    def test_first_order_cancellation(self):
        f = FourierTaylorSeries.cosine(D2, (1, 0), 1e-3, k_max=2, d_max=1)
        l = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max=2, d_max=1)
        chi = homological_solve(f, W10)
        out = lie_transform(l, chi, 1)
        # {l, chi} = -(f - [f]) = -f here
        assert ((out - l) + f).coefficient_norm() < 1e-15

    def test_order_one_linearity(self):
        chi = FourierTaylorSeries.sine(D2, (1, 0), 0.01, k_max=2, d_max=2)
        h1 = FourierTaylorSeries.cosine(D2, (0, 1), 0.5, k_max=2, d_max=2)
        h2 = FourierTaylorSeries.monomial(D2, (1, 0), 0.3, k_max=2, d_max=2)
        a = lie_transform(h1 + h2, chi, 1)
        b = lie_transform(h1, chi, 1) + lie_transform(h2, chi, 1) - (h1 + h2)
        # exp_1(h1 + h2) = h1 + h2 + {h1+h2, chi}: additivity up to the shared
        # zero-order term
        assert (a - b - (h1 + h2)).coefficient_norm() < 1e-14

    def test_energy_consistency_on_grid(self):
        # evaluating H at transformed points agrees with the transformed
        # series at the original points, to the truncation-order residual
        H = (FourierTaylorSeries.linear(D2, (1.0, 0.7), k_max=6, d_max=3)
             + FourierTaylorSeries.cosine(D2, (1, 0), 0.05, k_max=6, d_max=3))
        i1 = FourierTaylorSeries.action_coordinate(D2, 0, k_max=6, d_max=3)
        chi = FourierTaylorSeries.sine(D2, (1, 1), 0.01, k_max=6, d_max=3).product(
            FourierTaylorSeries.constant(D2, 1.0, 6, 3) + i1
        )
        order = 6
        pulled = lie_transform(H, chi, order)
        from driftbench.normalform import TransformData

        td = TransformData([chi], order)
        disp_I = td.action_displacement(6, 3)
        disp_th = td.angle_displacement(6, 3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            th = rng.uniform(0, 1, 2)
            ac = rng.uniform(-0.4, 0.4, 2)
            dth = np.array([d.evaluate(tuple(th), tuple(ac)) for d in disp_th])
            dI = np.array([d.evaluate(tuple(th), tuple(ac)) for d in disp_I])
            lhs = H.evaluate(tuple(th + dth), tuple(ac + dI))
            rhs = pulled.evaluate(tuple(th), tuple(ac))
            assert lhs == pytest.approx(rhs, abs=5e-8)

    def test_composed_transform_energy_consistency(self):
        # the composed two-generator chain transforms energies consistently too
        H = (FourierTaylorSeries.linear(D2, (1.0, 0.7), k_max=6, d_max=3)
             + FourierTaylorSeries.cosine(D2, (0, 1), 0.03, k_max=6, d_max=3))
        chi1 = FourierTaylorSeries.sine(D2, (1, 0), 0.008, k_max=6, d_max=3).product(
            FourierTaylorSeries.constant(D2, 1.0, 6, 3)
            + FourierTaylorSeries.action_coordinate(D2, 1, k_max=6, d_max=3)
        )
        chi2 = FourierTaylorSeries.sine(D2, (1, 1), 0.005, k_max=6, d_max=3)
        from driftbench.normalform import TransformData

        order = 6
        td = TransformData([chi1, chi2], order)
        pulled = lie_transform(lie_transform(H, chi1, order), chi2, order)
        disp_I = td.action_displacement(6, 3)
        disp_th = td.angle_displacement(6, 3)
        rng = np.random.default_rng(1)
        for _ in range(4):
            th = rng.uniform(0, 1, 2)
            ac = rng.uniform(-0.3, 0.3, 2)
            dth = np.array([d.evaluate(tuple(th), tuple(ac)) for d in disp_th])
            dI = np.array([d.evaluate(tuple(th), tuple(ac)) for d in disp_I])
            lhs = H.evaluate(tuple(th + dth), tuple(ac + dI))
            rhs = pulled.evaluate(tuple(th), tuple(ac))
            assert lhs == pytest.approx(rhs, abs=5e-7)


class TestSymplecticity:
    def test_canonical_pair_preserved_to_order(self):
        # the transformed pair (theta_j + dtheta_j, I_j + dI_j) stays
        # canonical up to the Lie truncation order:
        # {Theta_j, J_j} = 1 + d(dtheta_j)/dtheta_j + d(dI_j)/dI_j
        #                    + {dtheta_j, dI_j}
        from driftbench.normalform import TransformData

        k_max, d_max = 6, 3
        chi = FourierTaylorSeries.sine(D2, (1, 1), 0.01, k_max, d_max).product(
            FourierTaylorSeries.constant(D2, 1.0, k_max, d_max)
            + FourierTaylorSeries.action_coordinate(D2, 0, k_max, d_max)
        )
        td = TransformData([chi], 6)
        dth = td.angle_displacement(k_max, d_max)
        dI = td.action_displacement(k_max, d_max)
        for j in range(2):
            residual = (
                dth[j].partial_theta(j)
                + dI[j].partial_action(j)
                + poisson_bracket(dth[j], dI[j], k_max=k_max, d_max=d_max)
            )
            # chi ~ 1e-2: the defect is O(chi^2) truncation-in-k residue
            assert residual.coefficient_norm() < 1e-5


class TestPeriodicAveraging:
    def test_resonant_input_one_step(self):
        f = FourierTaylorSeries.cosine(D2, (0, 1), 0.01, k_max=1, d_max=1)
        H = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max=1, d_max=1) + f
        out = periodic_averaging(H, W10, NormalFormConfig(m=3))
        assert (out.g - f).coefficient_norm() == 0
        assert out.remainder.is_zero

    def test_zero_perturbation(self):
        H = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max=1, d_max=1)
        out = periodic_averaging(H, W10, NormalFormConfig(m=2))
        assert out.g.is_zero and out.remainder.is_zero

    def test_angle_only_mode_normalizes_exactly(self):
        # a single purely angle-dependent mode is eliminated in one step:
        # the remainder is exactly zero afterwards (brackets of angle-only
        # series vanish identically)
        f = FourierTaylorSeries.cosine(D2, (1, 0), 1e-3, k_max=1, d_max=1)
        H = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max=1, d_max=1) + f
        out = periodic_averaging(H, W10, NormalFormConfig(m=5))
        assert out.remainder_trace[0] == pytest.approx(1e-3)
        assert out.remainder.coefficient_norm() == 0.0

    def test_coupled_mode_decays_monotonically(self):
        k_max, d_max = 12, 3
        one = FourierTaylorSeries.constant(D2, 1.0, k_max, d_max)
        i1 = FourierTaylorSeries.action_coordinate(D2, 0, k_max, d_max)
        f = FourierTaylorSeries.cosine(D2, (1, 0), 1e-3, k_max, d_max).product(one + i1)
        H = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max, d_max) + f
        norms = []
        for m in (1, 2, 3):
            out = periodic_averaging(H, W10, NormalFormConfig(m=m, lie_order=6))
            norms.append(out.remainder.coefficient_norm())
        assert norms[0] > norms[1] > norms[2] > 0
        assert norms[2] / norms[0] < 1e-10

    def test_divergence_raises_with_trace(self):
        # perturbation far beyond the smallness regime: the bracket terms grow
        f = FourierTaylorSeries.cosine(D2, (1, 0), 40.0, k_max=6, d_max=2).product(
            FourierTaylorSeries.constant(D2, 1.0, 6, 2)
            + FourierTaylorSeries.action_coordinate(D2, 0, 6, 2)
        )
        H = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max=6, d_max=2) + f
        with pytest.raises(AveragingDivergenceError) as err:
            periodic_averaging(H, W10, NormalFormConfig(m=4, lie_order=4))
        assert len(err.value.trace) >= 2

    def test_smallness_report(self):
        f = FourierTaylorSeries.cosine(D2, (1, 0), 0.3, k_max=1, d_max=1)
        H = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max=1, d_max=1) + f
        out = periodic_averaging(H, W10, NormalFormConfig(m=2))
        names = [name for name, _, _ in out.smallness.entries]
        assert "T*mu << 1" in names and "m*T*mu << 1" in names


def _value(x):
    """x with every series replaced by its terms, bounds and loss, so that
    results compare by value."""
    if isinstance(x, FourierTaylorSeries):
        return (list(x.items()), x.trunc_loss, x.k_max, x.d_max, x.center, x.domain)
    if dataclasses.is_dataclass(x):
        return (type(x), [_value(getattr(x, f.name)) for f in dataclasses.fields(x)])
    if isinstance(x, (list, tuple)):
        return [_value(v) for v in x]
    if isinstance(x, dict):
        return {k: _value(v) for k, v in x.items()}
    return x


class TestComposedNormalForm:
    def test_single_frequency_matches_periodic_averaging(self):
        f = FourierTaylorSeries.cosine(D2, (1, 0), 1e-3, k_max=2, d_max=1)
        H = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max=2, d_max=1) + f
        frame = ResonanceFrame.build([W10])
        cfg = NormalFormConfig(m=2)
        res = composed_normal_form(H, frame, cfg)
        out = periodic_averaging(H, W10, cfg)
        assert (res.g - out.g).coefficient_norm() == 0
        assert (res.remainder - out.remainder).coefficient_norm() == 0

    def test_full_frame_integrable_resonant_part(self):
        # canonical frame in n=2 with modes (1,0), (0,1), (1,1): only the
        # k = 0 modes survive in g
        k_max, d_max = 4, 2
        f = sum(
            (FourierTaylorSeries.cosine(D2, mode, 1e-3, k_max, d_max)
             for mode in ((1, 0), (0, 1), (1, 1))),
            FourierTaylorSeries.zero(D2, k_max, d_max),
        )
        H = FourierTaylorSeries.linear(D2, (0.0, 1.0), k_max, d_max) + f
        frame = ResonanceFrame.build([W10, period_of((0, 1))])
        res = composed_normal_form(H, frame, NormalFormConfig(m=2, lie_order=4))
        zero_k = (0, 0)
        assert all(k == zero_k for (k, _), _ in res.g.items())
        assert res.symmetry_checked

    def test_dense_frame_equal_on_either_bracket_path(self):
        # a dense n = 2 frame: f holds the 27 modes |k| <= 1 of degree <= 1,
        # and every bracket goes through the pair table (cutoff 1) or through
        # the dict loop (infinite cutoff)
        coeffs = {}
        for k in itertools.product((-1, 0, 1), repeat=2):
            neg = tuple(-x for x in k)
            for l in ((0, 0), (1, 0), (0, 1)):
                if (neg, l) in coeffs:
                    continue
                i = len(coeffs)
                c = 1e-8 * complex(1 / (1 + i), 0.3 / (2 + i) if any(k) else 0.0)
                coeffs[(k, l)] = c
                coeffs[(neg, l)] = c.conjugate()
        f = FourierTaylorSeries(D2, coeffs, 3, 2)
        assert len(f) == 27
        w1 = period_of((F(1, 2), F(-2, 3)))
        w2 = period_of((F(1, 2) + F(3, 1000), F(-2, 3) - F(1, 1000)))
        H = FourierTaylorSeries.linear(D2, [float(x) for x in w2.omega], 3, 2) + f
        frame = ResonanceFrame.build([w1, w2])
        results = []
        for cutoff in (1, math.inf):
            with mock.patch.object(series_module, "_PAIR_TABLE_MIN", cutoff):
                results.append(composed_normal_form(H, frame, NormalFormConfig(m=2, lie_order=3)))
        table, loop = results
        assert table.symmetry_checked and not table.remainder.is_zero
        assert _value(table) == _value(loop)

    def test_zero_perturbation(self):
        H = FourierTaylorSeries.linear(D2, (0.0, 1.0), k_max=2, d_max=1)
        frame = ResonanceFrame.build([W10, period_of((0, 1))])
        res = composed_normal_form(H, frame, NormalFormConfig(m=2))
        assert res.g.coefficient_norm() == pytest.approx(0.0, abs=1e-15)
        assert res.remainder.is_zero
        assert not res.transform.generators or all(
            g.is_zero for g in res.transform.generators
        )

    def test_empty_frame_rejected(self):
        H = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max=1, d_max=1)
        with pytest.raises(ValueError):
            composed_normal_form(H, ResonanceFrame.build([], n=2), NormalFormConfig(m=1))


class TestConjugatedDynamics:
    def test_conjugated_actions_constant_for_exact_normal_form(self):
        # H = l + mu cos(2 pi theta_1) is normalized exactly; conjugating the
        # integrated trajectory through the inverse transform must freeze the
        # actions to transform-truncation + integrator error, while the raw
        # actions oscillate at O(mu)
        from driftbench.dynamics import IntegratorConfig, integrate
        from driftbench.normalform import TransformData

        mu = 1e-3
        k_max, d_max = 2, 1
        f = FourierTaylorSeries.cosine(D2, (1, 0), mu, k_max, d_max)
        l = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max, d_max)
        out = periodic_averaging(l + f, W10, NormalFormConfig(m=2, lie_order=6))
        assert out.remainder.is_zero and out.g.is_zero
        td = TransformData(out.generators, 6)
        inv_coords = [
            td.pullback_inverse(
                FourierTaylorSeries.action_coordinate(D2, j, k_max, d_max)
            )
            for j in range(2)
        ]
        sys = HamiltonianSystem(l, f, mu, Gevrey(1.0, 0.5))
        traj = integrate(sys, ((0.2, 0.6), (0.3, 0.1)), 50.0,
                         IntegratorConfig(step=5e-3, sample_stride=20))
        conj = np.array([
            [c.evaluate(tuple(th), tuple(ac)) for c in inv_coords]
            for th, ac in zip(traj.thetas, traj.actions)
        ])
        raw_osc = float(np.max(np.abs(traj.actions - traj.actions[0])))
        conj_osc = float(np.max(np.abs(conj - conj[0])))
        assert raw_osc > 1e-4          # the raw actions genuinely move
        assert conj_osc < raw_osc / 50  # conjugation removes the oscillation
        assert conj_osc < 1e-5


class TestVerifySymmetry:
    def test_integrable_true(self):
        g = FourierTaylorSeries.monomial(D2, (2, 0), 0.5, k_max=1, d_max=2)
        assert verify_resonant_symmetry(g, ResonanceFrame.build([W10]))

    def test_resonant_mode_true(self):
        g = FourierTaylorSeries.cosine(D2, (1, 1), 1.0, k_max=1, d_max=0)
        assert verify_resonant_symmetry(g, ResonanceFrame.build([period_of((1, -1))]))

    def test_nonresonant_mode_false(self):
        g = FourierTaylorSeries.cosine(D2, (1, 0), 1.0, k_max=1, d_max=0)
        assert not verify_resonant_symmetry(g, ResonanceFrame.build([W10]))

    def test_tiny_nonresonant_mode_false(self):
        # the verdict is exact: a mode counts whatever its size
        g = (FourierTaylorSeries.monomial(D2, (2, 0), 0.5, k_max=1, d_max=2)
             + FourierTaylorSeries.cosine(D2, (1, 0), 1e-20, k_max=1, d_max=2))
        assert not verify_resonant_symmetry(g, ResonanceFrame.build([W10]))

    def test_empty_frame_true(self):
        g = FourierTaylorSeries.cosine(D2, (1, 2), 1.0, k_max=2, d_max=0)
        assert verify_resonant_symmetry(g, ResonanceFrame.build([], n=2))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_verdict_is_the_exact_rule(self, data):
        n = data.draw(st.integers(2, 3))
        entry = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
        vectors = data.draw(st.lists(
            st.lists(entry, min_size=n, max_size=n).filter(any), min_size=1, max_size=2,
        ))
        try:
            frame = ResonanceFrame.build([period_of(v) for v in vectors])
        except ValueError:          # dependent vectors
            assume(False)
        basis = resonance_module(frame.vectors)
        resonant = [
            tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n))
            for cs in data.draw(st.lists(
                st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)),
                min_size=1, max_size=4,
            ))
        ]
        modes = [(k, 1.0) for k in resonant]
        stray = data.draw(st.none() | st.tuples(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
            st.integers(-30, 0).map(lambda e: 10.0 ** e),
        ))
        if stray is not None:
            assume(any(sum(map(operator.mul, stray[0], pv.omega)) for pv in frame.vectors))
            modes.append(stray)
        center = tuple(data.draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)))
        coeffs = {}
        for k, amp in modes:
            l = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
            neg = tuple(-x for x in k)
            coeffs[(k, l)] = coeffs[(neg, l)] = amp if k == neg else amp / 2
        k_max = max(max(map(abs, k)) for k, _ in modes)
        g = FourierTaylorSeries(Domain(n, 1.0), coeffs, k_max, n, center)
        exact = all(
            sum(map(operator.mul, k, pv.omega)) == 0
            for (k, _), _c in g.items() for pv in frame.vectors
        )
        assert exact == (stray is None)
        assert verify_resonant_symmetry(g, frame) == exact


class TestLocalization:
    def test_exact_linear_no_mismatch(self):
        h = FourierTaylorSeries.linear(D2, (0.5, 0.25), k_max=1, d_max=2)
        f0 = FourierTaylorSeries.zero(D2, 1, 2)
        sys = HamiltonianSystem(h, f0, 0.0, Gevrey(1.0, 0.5))
        w = period_of((F(1, 2), F(1, 4)))
        loc = localize_and_scale(sys, (0.05, 0.05), 0.02, w, rho=2.0)
        assert loc.h_tilde.is_zero
        assert loc.f_tilde.is_zero
        assert loc.gradient_mismatch == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_expansion(self):
        sysq = quasi_convex(1e-8)
        Ic = (0.5, 0.0)
        w = period_of((F(1, 2), F(0)))
        mu = 0.05
        loc = localize_and_scale(sysq.hamiltonian, Ic, mu, w, rho=2.0)
        # f_tilde = (grad mismatch).J + mu |J|^2 / 2 + mu^{-1} f o sigma;
        # exact omega: mismatch 0; quadratic block carries mu/2 per coordinate
        assert loc.gradient_mismatch == pytest.approx(0.0, abs=1e-15)
        assert loc.f_tilde.coeffs.get(((0, 0), (2, 0)), 0j).real == pytest.approx(mu / 2)
        assert loc.f_tilde.coeffs.get(((0, 0), (0, 2)), 0j).real == pytest.approx(mu / 2)
        # pointwise identity: mu^{-1}(H(sigma(J)) - h(Ic)) = l + f_tilde
        th, J = (0.3, 0.8), (0.21, -0.37)
        lhs = (sysq.hamiltonian.total().evaluate(
            th, tuple(np.array(Ic) + mu * np.array(J))) - 0.125) / mu
        rhs = loc.total().evaluate(th, J)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_ball_violation(self):
        sysq = quasi_convex(1e-8)
        with pytest.raises(DomainError):
            localize_and_scale(sysq.hamiltonian, (0.9, 0.0), 0.2,
                               period_of((1, 0)), rho=2.0)

    def test_ball_measured_from_series_center(self):
        # the ball of radius R sits around the series center (3.0, -1.5)
        d = Domain(2, 1.0)
        h = (FourierTaylorSeries.monomial(d, (2, 0), 0.5, 1, 2, (3.0, -1.5))
             + FourierTaylorSeries.monomial(d, (0, 2), 0.5, 1, 2, (3.0, -1.5)))
        f = FourierTaylorSeries.cosine(d, (1, 1), 1e-8, 1, 2, (3.0, -1.5))
        system = HamiltonianSystem(h, f, 1e-8, Gevrey(1.0, 0.5))
        loc = localize_and_scale(system, (3.3, -1.5), 0.01, period_of((F(3, 10), 0)))
        assert loc.gradient_mismatch == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(DomainError):
            localize_and_scale(system, (0.3, 0.0), 0.01, period_of((F(3, 10), 0)))

    def test_missing_vector(self):
        sysq = quasi_convex(1e-8)
        with pytest.raises(ValueError):
            localize_and_scale(sysq.hamiltonian, (0.3, 0.0), 0.01, None)

    @pytest.mark.parametrize("center, omega, match", [
        ((0.3,), (F(3, 10), F(-3, 10)), "center has dimension 1, the system has dimension 2"),
        ((0.3, -0.3, 0.1), (F(3, 10), F(-3, 10)),
         "center has dimension 3, the system has dimension 2"),
        ((0.3, -0.3), (F(3, 10), F(-3, 10), F(1, 10)),
         "periodic vector has dimension 3, the system has dimension 2"),
    ])
    def test_dimension_mismatch(self, center, omega, match):
        ham = quasi_convex(1e-8).hamiltonian
        with pytest.raises(ValueError, match=match):
            localize_and_scale(ham, center, 0.02, period_of(omega))


class TestLocalNormalForm:
    def _setup(self, eps=1e-8):
        sysq = quasi_convex(eps)
        Ic = (0.3, -0.3)
        w = period_of((F(3, 10), F(-3, 10)))
        frame = ResonanceFrame.build([w])
        return sysq.hamiltonian, Ic, frame

    def test_epsilon_condition_enforced(self):
        ham, Ic, frame = self._setup(eps=1e-2)
        with pytest.raises(ValueError, match="epsilon < mu"):
            local_normal_form(ham, Ic, frame, [0.02], NormalFormConfig(m=2))

    def test_resonant_center(self):
        ham, Ic, frame = self._setup()
        res = local_normal_form(ham, Ic, frame, [0.02], NormalFormConfig(m=3))
        assert res.symmetry_checked
        # the perturbation mode (1,1) is resonant for omega = (3/10, -3/10):
        # it survives in g, scaled back to original variables
        modes = {k for (k, _), _ in res.g.items()}
        assert (1, 1) in modes and (-1, -1) in modes
        assert res.certificates["remainder_norm"] == pytest.approx(0.0, abs=1e-18)
        assert res.certificates["remainder_dtheta_sup"] <= res.certificates[
            "remainder_dtheta_target"
        ]

    def test_symmetry_checked_once(self, monkeypatch):
        # only the scaled-back g is checked; the localized g's verdict would
        # be overwritten unread
        checked = []
        real = normalform.verify_resonant_symmetry

        def counted(g, frame):
            checked.append(g)
            return real(g, frame)

        monkeypatch.setattr(normalform, "verify_resonant_symmetry", counted)
        ham, Ic, frame = self._setup()
        res = local_normal_form(ham, Ic, frame, [0.02], NormalFormConfig(m=3))
        assert checked == [res.g] and res.symmetry_checked

    def test_zero_perturbation_remainder(self):
        sysq = quasi_convex(1e-12)
        Ic = (0.5, 0.0)
        frame = ResonanceFrame.build([period_of((F(1, 2), F(0)))])
        res = local_normal_form(
            sysq.hamiltonian, Ic, frame, [0.01], NormalFormConfig(m=2)
        )
        # non-resonant f-mode (1,1) gets averaged away down to a higher-order
        # residue; the measured angle-derivative sup beats the target easily
        assert res.certificates["remainder_norm"] < 100 * sysq.hamiltonian.epsilon
        assert res.certificates["remainder_dtheta_sup"] < 1e-3 * res.certificates[
            "remainder_dtheta_target"
        ]
        assert res.symmetry_checked

    @pytest.mark.parametrize("center, omega, match", [
        ((0.3,), (F(3, 10), F(-3, 10)), "center has dimension 1, the system has dimension 2"),
        ((0.3, -0.3), (F(3, 10), F(-3, 10), F(1, 10)),
         "periodic vector has dimension 3, the system has dimension 2"),
    ])
    def test_dimension_mismatch(self, center, omega, match):
        ham, _, _ = self._setup()
        frame = ResonanceFrame.build([period_of(omega)])
        with pytest.raises(ValueError, match=match):
            local_normal_form(ham, center, frame, [0.02], NormalFormConfig(m=2))

    def test_mu_schedule_length_checked(self):
        ham, Ic, frame = self._setup()
        with pytest.raises(ValueError):
            local_normal_form(ham, Ic, frame, [0.02, 0.01], NormalFormConfig(m=2))

    def test_two_frequency_localized_form(self):
        # full multiplicity in n=2: the resonant part ends up integrable and
        # the measured margins land in the certificates
        sysq = quasi_convex(1e-9)
        Ic = (0.5, 0.25)
        frame = ResonanceFrame.build([
            period_of((F(1, 2), F(1, 4))),
            period_of((F(1, 2), F(11, 40))),
        ])
        res = local_normal_form(
            sysq.hamiltonian, Ic, frame, [0.02, 0.01],
            NormalFormConfig(m=2, lie_order=4),
        )
        assert res.symmetry_checked
        assert all(k == (0, 0) for (k, _), _ in res.g.items())
        assert res.certificates["remainder_dtheta_sup"] < res.certificates[
            "remainder_dtheta_target"
        ]
        # the loose frame link shows up honestly in the reported margins
        assert res.certificates["B2:|w_i - w_(i-1)|/mu_(i-1)"] > 1.0
        assert "A2:|w-w_prev|/mu_prev" in res.certificates

    @pytest.mark.parametrize("eps, Ic, omegas, mus", [
        (1e-12, (0.5, 0.0), [(F(1, 2), F(0))], [0.01]),
        (1e-9, (0.5, 0.25), [(F(1, 2), F(1, 4)), (F(1, 2), F(11, 40))], [0.02, 0.01]),
    ])
    def test_measured_sups_match_pointwise_reads(self, monkeypatch, eps, Ic, omegas, mus):
        # both sups are maxima over the tensor grid of theta_grid points per
        # angle times action_grid points per action: remainder_dtheta_sup on
        # the cube of radius 2 rho_1 mu_j around I_center, displacement_sup
        # on the cube of radius 2 rho_1 around the origin, times mu_j
        displacements = []
        real = normalform.TransformData.action_displacement

        def spy(self, k_max, d_max):
            out = real(self, k_max, d_max)
            displacements.extend(out)
            return out

        monkeypatch.setattr(normalform.TransformData, "action_displacement", spy)
        sysq = quasi_convex(eps)
        frame = ResonanceFrame.build([period_of(w) for w in omegas])
        cfg = NormalFormConfig(m=2, lie_order=4)
        res = local_normal_form(sysq.hamiltonian, Ic, frame, mus, cfg,
                                theta_grid=5, action_grid=3)
        mu_j, r1 = mus[-1], 2 * cfg.rho(1)

        def pointwise_sup(rows, radius, center):
            thetas = itertools.product(np.arange(5) / 5, repeat=2)
            actions = [np.add(center, a) for a in
                       itertools.product(np.linspace(-radius, radius, 3), repeat=2)]
            return max(abs(s.evaluate(t, a)) for t, a in itertools.product(thetas, actions)
                       for s in rows)

        dtheta = [res.remainder.partial_theta(j) for j in range(2)]
        assert res.certificates["remainder_dtheta_sup"] == pytest.approx(
            pointwise_sup(dtheta, r1 * mu_j, Ic), rel=1e-12)
        assert displacements
        assert res.certificates["displacement_sup"] == pytest.approx(
            pointwise_sup(displacements, r1, (0.0, 0.0)) * mu_j, rel=1e-12)
        assert res.certificates["remainder_dtheta_sup"] > 0
        assert res.certificates["displacement_sup"] > 0
