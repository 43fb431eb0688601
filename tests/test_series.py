import itertools
import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_points, series_to_sympy, small_series, sympy_eval
from driftbench import series as series_module
from driftbench.diophantine import period_of
from driftbench.normalform import (
    _unscale,
    homological_solve,
    localize_and_scale,
    resonant_split,
)
from driftbench.series import (
    CorruptSeriesError,
    Domain,
    DomainError,
    FourierTaylorSeries,
    Gevrey,
    HamiltonianSystem,
    FiniteDiff,
    SeriesStack,
    TruncationLoss,
    load_series,
    poisson_bracket,
    recenter_scale,
    save_series,
    split_by_modes,
)

D2 = Domain(2, 1.0)


class TestEvaluate:
    def test_constant(self):
        s = FourierTaylorSeries.constant(D2, 2.5)
        assert s.evaluate((0.37, 0.91), (0.2, -0.4)) == 2.5

    def test_action_coordinate(self):
        s = FourierTaylorSeries.action_coordinate(D2, 0)
        assert s.evaluate((0.0, 0.0), (0.3, 0.4)) == pytest.approx(0.3, abs=1e-15)

    def test_cosine_against_trig(self):
        s = FourierTaylorSeries.cosine(D2, (1, 0))
        for theta1 in (0.0, 0.25, 0.37, 0.5, 0.99):
            direct = math.cos(2 * math.pi * theta1)
            assert s.evaluate((theta1, 0.1), (0.0, 0.0)) == pytest.approx(direct, abs=1e-12)

    def test_outside_ball_raises(self):
        s = FourierTaylorSeries.constant(D2, 1.0)
        with pytest.raises(DomainError):
            s.evaluate((0.0, 0.0), (1.5, 0.0))

    def test_reality_violation_raises(self):
        with pytest.raises(CorruptSeriesError):
            FourierTaylorSeries(D2, {((1, 0), (0, 0)): 1.0 + 0j}, 1, 0)

    @given(small_series())
    @settings(max_examples=60, deadline=None)
    def test_reality_of_random_series(self, s):
        thetas, actions = sample_points(s.domain.n, count=3)
        for th, ac in zip(thetas, actions):
            s.evaluate(tuple(th), tuple(ac))  # raises if imag residue > 1e-12

    @given(small_series())
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_pointwise(self, s):
        # one table for a series and two of its derivatives, read at single
        # points, at a stack of action points and at paired (theta, action)
        # stacks; |I| < 1 bounds every term by its coefficient, so the
        # coefficient norm scales the roundoff
        rows = [s, s.partial_theta(0), s.partial_action(s.domain.n - 1)]
        stack = SeriesStack(rows)
        thetas, actions = sample_points(s.domain.n, count=3)
        paired = stack.values(thetas, actions)
        assert paired.shape == (len(thetas), len(rows))
        for th in thetas:
            many = stack.values(th, actions)
            for i, ac in enumerate(actions):
                for r, row in enumerate(rows):
                    ref = row.evaluate(th, ac)
                    tol = 1e-13 * max(1.0, row.coefficient_norm())
                    assert abs(stack.values(th, ac)[r] - ref) <= tol
                    assert abs(many[i, r] - ref) <= tol
        for i, (th, ac) in enumerate(zip(thetas, actions)):
            for r, row in enumerate(rows):
                tol = 1e-13 * max(1.0, row.coefficient_norm())
                assert abs(paired[i, r] - row.evaluate(th, ac)) <= tol

    @given(small_series())
    @settings(max_examples=40, deadline=None)
    def test_grid_rows_equal_single_series_grids(self, s):
        # each row of a stacked grid read is bit-equal to the series' own
        # grid read and to the complex matrix product it is defined by
        rows = [s, s.partial_theta(0), s.scaled(0.0),
                s.partial_action(s.domain.n - 1)]
        thetas, actions = sample_points(s.domain.n, count=3)
        grid = SeriesStack(rows).grid_values(thetas, actions)
        assert grid.shape == (len(rows), len(thetas), len(actions))
        for r, row in enumerate(rows):
            assert np.array_equal(grid[r], row.evaluate_grid(thetas, actions))
            if not row.is_zero:
                K = np.array([k for (k, _), _ in row.items()], dtype=float)
                L = np.array([l for (_, l), _ in row.items()], dtype=int)
                C = np.array([c for _, c in row.items()], dtype=complex)
                E = np.exp(2j * np.pi * (K @ thetas.T))
                B = np.prod((actions - np.asarray(row.center))[None] ** L[:, None, :], axis=2)
                assert np.array_equal(grid[r], ((C[:, None] * E).T @ B).real)

    def test_grid_matches_pointwise(self):
        s = FourierTaylorSeries.cosine(D2, (1, 1), 0.7, k_max=2, d_max=1)
        s = s + FourierTaylorSeries.action_coordinate(D2, 1, k_max=2, d_max=1)
        thetas, actions = sample_points(2, count=4)
        grid = s.evaluate_grid(thetas, actions)
        for i, th in enumerate(thetas):
            for j, ac in enumerate(actions):
                assert grid[i, j] == pytest.approx(
                    s.evaluate(tuple(th), tuple(ac)), abs=1e-12
                )


class TestDerivatives:
    def test_theta_derivative_of_constant(self):
        s = FourierTaylorSeries.constant(D2, 3.0)
        assert s.partial_theta(0).is_zero

    def test_action_derivative_of_quadratic(self):
        s = FourierTaylorSeries.monomial(D2, (2, 0), 0.5)
        d = s.partial_action(0)
        expect = FourierTaylorSeries.action_coordinate(D2, 0)
        assert (d - expect).coefficient_norm() == 0

    def test_theta_derivative_of_cosine(self):
        s = FourierTaylorSeries.cosine(D2, (1, 0))
        d = s.partial_theta(0)
        expect = FourierTaylorSeries.sine(D2, (1, 0), -2 * math.pi)
        assert (d - expect).coefficient_norm() == pytest.approx(0.0, abs=1e-15)

    @given(small_series(n_max=2, k_max=2, d_max=2, n_terms=3))
    @settings(max_examples=20, deadline=None)
    def test_derivative_against_sympy(self, s):
        expr, thetas, actions = series_to_sympy(s)
        d_expr = expr.diff(thetas[0])
        d_series = s.partial_theta(0)
        ths, acs = sample_points(s.domain.n, count=2, seed=3)
        for th, ac in zip(ths, acs):
            ours = d_series.evaluate(tuple(th), tuple(ac))
            theirs = sympy_eval(d_expr, thetas, actions, th, ac)
            assert ours == pytest.approx(theirs, abs=1e-9)

    @given(small_series(n_max=2))
    @settings(max_examples=30, deadline=None)
    def test_mixed_derivatives_commute(self, s):
        a = s.partial_theta(0).partial_action(0)
        b = s.partial_action(0).partial_theta(0)
        assert (a - b).coefficient_norm() == 0

    def test_action_derivative_reduces_degree(self):
        s = FourierTaylorSeries.monomial(D2, (2, 0), 1.0)
        assert s.partial_action(0).d_max == s.d_max - 1


@st.composite
def bracket_operands(draw):
    """Two same-geometry series of up to 48 terms each (so |F|*|G| spans both
    sides of the pair-table cutoff), optionally off the origin and carrying a
    truncation loss, plus output bounds: the operands', truncating, or wide
    enough to keep every term."""
    n = draw(st.integers(1, 3))
    center = draw(st.sampled_from([None, (0.3, -1.2, 2.5)[:n]]))
    mass = st.one_of(st.just(0.0), st.floats(1e-12, 1e-3))
    ops = []
    for _ in range(2):
        s = draw(small_series(n=n, n_terms=24))
        loss = TruncationLoss(draw(mass), draw(mass), draw(mass))
        ops.append(FourierTaylorSeries(s.domain, s.coeffs, s.k_max, s.d_max, center,
                                       trunc_loss=loss))
    bounds = draw(st.sampled_from([{}, {"k_max": 2, "d_max": 1}, {"k_max": 6, "d_max": 4}]))
    return ops[0], ops[1], bounds


def _bracket_with_cutoff(cutoff, F, G, **bounds):
    with mock.patch.object(series_module, "_PAIR_TABLE_MIN", cutoff):
        return poisson_bracket(F, G, **bounds)


def _assert_identical(a, b):
    assert list(a.items()) == list(b.items())
    assert a.trunc_loss == b.trunc_loss
    assert (a.k_max, a.d_max) == (b.k_max, b.d_max)


def _unit_mode_operands(n, d_f, d_g):
    """F and G, each with every mode |k|_inf <= 1 at l = 0 and at each unit
    l (mirrors included), with distinct coefficients; the degree bounds d_f
    and d_g set the l radix of the bracket's packed keys."""
    ls = [tuple(int(i == j) for i in range(n)) for j in range(-1, n)]

    def build(d_max, scale):
        coeffs = {}
        for k in itertools.product((-1, 0, 1), repeat=n):
            neg = tuple(-x for x in k)
            for l in ls:
                if (neg, l) in coeffs:
                    continue
                im = 0.5 * scale / (2 + len(coeffs)) if any(k) else 0.0
                c = complex(scale / (1 + len(coeffs)), im)
                coeffs[(k, l)] = c
                coeffs[(neg, l)] = c.conjugate()
        return FourierTaylorSeries(Domain(n, 1.0), coeffs, 1, d_max)

    return build(d_f, 1.0), build(d_g, 0.7)


class TestPoissonBracket:
    @given(bracket_operands())
    @settings(max_examples=150, deadline=None)
    def test_pair_table_matches_loop(self, operands):
        # cutoff 1 sends every nonempty pair of operands through the pair
        # table; an infinite cutoff through the dict loop, the reference
        F, G, bounds = operands
        table = _bracket_with_cutoff(1, F, G, **bounds)
        loop = _bracket_with_cutoff(math.inf, F, G, **bounds)
        _assert_identical(table, loop)

    @staticmethod
    def _modes(m, l, k_of):
        """2m terms c_k (I - center)^l e(k_of(k).theta), k = 1..m, with mirrors."""
        coeffs = {}
        for k in range(1, m + 1):
            c = complex(1.0 / k, 0.5)
            coeffs[(k_of(k), l)] = c
            coeffs[(tuple(-x for x in k_of(k)), l)] = c.conjugate()
        return FourierTaylorSeries(Domain(3, 1.0), coeffs, m, 2, (0.2, 0.0, -0.4))

    @pytest.mark.parametrize("mf, mg, above", [(3, 5, False), (6, 8, True)])
    def test_public_bracket_either_side_of_cutoff(self, mf, mg, above):
        F = self._modes(mf, (1, 0, 0), lambda k: (k, 1, 0))
        G = self._modes(mg, (0, 1, 1), lambda k: (1, k, 0))
        assert (len(F) * len(G) >= series_module._PAIR_TABLE_MIN) == above
        _assert_identical(poisson_bracket(F, G), _bracket_with_cutoff(math.inf, F, G))

    @pytest.mark.parametrize("n, d_f, d_g, digits", [
        (2, 1, 1, 1),  # radices 5 and 3: 8-bit keys
        # l radix 2**8: keys with equal (l_2, l_3) share their low 16 bits
        (3, 128, 127, 2),
        # l radix 2**11: keys with equal l share their low 32 bits
        (3, 1024, 1023, 3),
        # l radix 2**16: keys with equal l share their low 48 bits
        (3, 32768, 32767, 4),
    ])
    def test_pair_table_matches_loop_for_every_key_width(self, n, d_f, d_g, digits):
        # the grouper sorts 16 bits per pass; the keys of each case need
        # `digits` passes, and many keys repeat
        F, G = _unit_mode_operands(n, d_f, d_g)
        _, bk, bl = series_module._key_radices(F, G)
        assert -(-((bk * bl) ** n - 1).bit_length() // 16) == digits
        table = _bracket_with_cutoff(1, F, G)
        assert len(table) > 0 and not table.trunc_loss.is_zero
        _assert_identical(table, _bracket_with_cutoff(math.inf, F, G))

    def test_pair_table_without_contributions(self):
        # angle-free operands: every (pair, j) has w = 0, so the grouper gets
        # an empty key array and the bracket is exactly zero
        ls = [l for l in itertools.product(range(4), repeat=2) if sum(l) <= 3]
        F = FourierTaylorSeries(D2, {((0, 0), l): complex(1 + i) for i, l in enumerate(ls)}, 1, 3)
        G = FourierTaylorSeries(D2, {((0, 0), l): complex(0.5 - i) for i, l in enumerate(ls)}, 1, 3)
        assert len(F) * len(G) >= max(96, series_module._PAIR_TABLE_MIN)
        bracket = poisson_bracket(F, G)
        assert bracket.is_zero and bracket.trunc_loss.is_zero
        _assert_identical(bracket, _bracket_with_cutoff(math.inf, F, G))

    def test_antisymmetry_self(self):
        f = FourierTaylorSeries.cosine(D2, (1, 0), 1.3, k_max=2, d_max=1)
        assert poisson_bracket(f, f).coefficient_norm() == 0

    def test_actions_commute(self):
        i1 = FourierTaylorSeries.action_coordinate(D2, 0, k_max=1, d_max=1)
        i2 = FourierTaylorSeries.action_coordinate(D2, 1, k_max=1, d_max=1)
        assert poisson_bracket(i1, i2).is_zero

    def test_cosine_with_linear_flow(self):
        f = FourierTaylorSeries.cosine(D2, (1, 0), 1.0, k_max=1, d_max=1)
        l = FourierTaylorSeries.linear(D2, (1.0, 0.0), k_max=1, d_max=1)
        bracket = poisson_bracket(f, l)
        expect = FourierTaylorSeries.sine(D2, (1, 0), -2 * math.pi, k_max=1, d_max=1)
        assert (bracket - expect).coefficient_norm() == pytest.approx(0.0, abs=1e-14)

    @given(small_series(n_max=2, k_max=2, d_max=2, n_terms=2),
           small_series(n_max=2, k_max=2, d_max=2, n_terms=2))
    @settings(max_examples=15, deadline=None)
    def test_bracket_against_sympy(self, f, g):
        if f.domain.n != g.domain.n:
            return
        n = f.domain.n
        bracket = poisson_bracket(f, g, k_max=4, d_max=4)
        fe, thetas, actions = series_to_sympy(f)
        ge, _, _ = series_to_sympy(g)
        expr = sum(
            fe.diff(thetas[j]) * ge.diff(actions[j])
            - fe.diff(actions[j]) * ge.diff(thetas[j])
            for j in range(n)
        )
        ths, acs = sample_points(n, count=2, seed=5)
        for th, ac in zip(ths, acs):
            ours = bracket.evaluate(tuple(th), tuple(ac))
            theirs = sympy_eval(expr, thetas, actions, th, ac)
            assert ours == pytest.approx(theirs, abs=1e-8)

    @given(small_series(n=2, k_max=2, d_max=2, n_terms=2),
           small_series(n=2, k_max=2, d_max=2, n_terms=2),
           small_series(n=2, k_max=2, d_max=2, n_terms=2))
    @settings(max_examples=20, deadline=None)
    def test_jacobi_identity(self, f, g, h):
        # widened bounds: no truncation, the identity is coefficient-exact
        wide = lambda s: s.with_bounds(12, 6)
        f, g, h = wide(f), wide(g), wide(h)
        j = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        scale = max(1.0, f.coefficient_norm() * g.coefficient_norm() * h.coefficient_norm())
        assert j.coefficient_norm() <= 1e-10 * scale

    @given(small_series(n=2, k_max=2, d_max=2, n_terms=2),
           small_series(n=2, k_max=2, d_max=2, n_terms=2),
           small_series(n=2, k_max=2, d_max=2, n_terms=2))
    @settings(max_examples=20, deadline=None)
    def test_jacobi_defect_below_reported_loss(self, f, g, h):
        # native bounds: truncation drops mass, but the reported losses bound
        # the defect (plus float slack)
        j = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        bound = j.trunc_loss.raw
        scale = max(1.0, f.coefficient_norm() * g.coefficient_norm() * h.coefficient_norm())
        assert j.coefficient_norm() <= bound + 1e-9 * scale


@st.composite
def moment_inputs(draw):
    """Two same-geometry series, at the origin or off it, and a factor."""
    n = draw(st.integers(1, 3))
    center = draw(st.sampled_from([None, (0.3, -1.2, 2.5)[:n]]))
    ops = []
    for _ in range(2):
        s = draw(small_series(n=n, n_terms=6))
        ops.append(FourierTaylorSeries(s.domain, s.coeffs, s.k_max, s.d_max, center))
    return ops[0], ops[1], draw(st.floats(-4.0, 4.0))


class TestMoments:
    @given(moment_inputs())
    @settings(max_examples=80, deadline=None)
    def test_moments_are_the_term_sums(self, inputs):
        # bit for bit the generator sums over the terms, on a first and a
        # repeated read, and reading them leaves the pickled series unchanged
        f, g, factor = inputs
        results = [f, f + g, f.scaled(factor), _bracket_with_cutoff(1, f, g),
                   _bracket_with_cutoff(math.inf, f, g)]
        for s in results:
            before = pickle.dumps(s)
            kw = sum(abs(c) * sum(abs(x) for x in k) for (k, _), c in s.items())
            lw = sum(abs(c) * sum(l) for (_, l), c in s.items())
            for _ in range(2):
                assert repr(series_module._moments(s)) == repr((kw, lw))
            assert pickle.dumps(s) == before


@st.composite
def product_inputs(draw):
    """Two same-geometry series with truncation losses of their own, at the
    origin or off it, and bounds (K, D) up to the full product's."""
    n = draw(st.integers(1, 3))
    center = draw(st.sampled_from([None, (0.3, -1.2, 2.5)[:n]]))
    ops = []
    for _ in range(2):
        s = draw(small_series(n=n, n_terms=4))
        loss = TruncationLoss(*(draw(st.floats(0.0, 1.0)) for _ in range(3)))
        ops.append(FourierTaylorSeries(s.domain, s.coeffs, s.k_max, s.d_max, center,
                                       trunc_loss=loss))
    return ops[0], ops[1], draw(st.integers(0, 6)), draw(st.integers(0, 4))


class TestProduct:
    @given(product_inputs())
    @settings(max_examples=60, deadline=None)
    def test_product_of_values_and_its_truncation(self, inputs):
        f, g, K, D = inputs
        fn, gn = f.coefficient_norm(), g.coefficient_norm()
        fl, gl = f.trunc_loss.raw, g.trunc_loss.raw
        cross = fl * gn + fn * gl + fl * gl
        # both operands have |k| <= 3 and |l| <= 2, so these bounds drop nothing
        full = f.product(g, k_max=6, d_max=4)
        assert full.trunc_loss.raw == pytest.approx(cross, rel=1e-12)
        thetas, actions = sample_points(f.domain.n, count=4)
        for th, ac in zip(thetas, actions):
            ac = tuple(np.add(ac, f.center))
            ref = f.evaluate(th, ac) * g.evaluate(th, ac)
            assert full.evaluate(th, ac) == pytest.approx(ref, rel=1e-12, abs=1e-12 * fn * gn)
        # tighter bounds keep exactly the in-bound terms of the full product,
        # and report the dropped mass on top of the cross terms
        tight = f.product(g, k_max=K, d_max=D)
        inside = {(k, l) for (k, l), _ in full.items() if max(map(abs, k)) <= K and sum(l) <= D}
        assert list(tight.items()) == [(i, c) for i, c in full.items() if i in inside]
        dropped = sum(abs(c) for i, c in full.items() if i not in inside)
        assert tight.trunc_loss.raw == pytest.approx(cross + dropped, rel=1e-12)


class TestTruncate:
    def test_constant_noop(self):
        s = FourierTaylorSeries.constant(D2, 4.0, k_max=1, d_max=1)
        out, report = s.truncate(0, 0)
        assert report.raw == 0.0
        assert (out - FourierTaylorSeries.constant(D2, 4.0)).coefficient_norm() == 0

    def test_cosine_drops_unit_mass(self):
        s = FourierTaylorSeries.cosine(D2, (1, 0))
        out, report = s.truncate(0, 0)
        assert out.is_zero
        assert report.raw == pytest.approx(1.0)

    def test_full_truncation_is_identity(self):
        s = FourierTaylorSeries.cosine(D2, (1, 1), 0.3, k_max=2, d_max=2)
        out, report = s.truncate(2, 2)
        assert report.raw == 0.0
        assert (out - s).coefficient_norm() == 0

    def test_cannot_enlarge(self):
        s = FourierTaylorSeries.cosine(D2, (1, 0))
        with pytest.raises(ValueError):
            s.truncate(5, 5)


class TestFileFormat:
    @given(s=small_series())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_bit_exact(self, tmp_path_factory, s):
        path = tmp_path_factory.mktemp("series") / "s.txt"
        save_series(path, s, Gevrey(1.5, 0.25))
        loaded, reg = load_series(path)
        assert reg == Gevrey(1.5, 0.25)
        assert loaded.domain == s.domain
        assert loaded.center == s.center
        assert (loaded.k_max, loaded.d_max) == (s.k_max, s.d_max)
        assert dict(loaded.items()) == dict(s.items())

    def test_ck_tag_roundtrip(self, tmp_path):
        s = FourierTaylorSeries.constant(D2, 1.0)
        save_series(tmp_path / "s.txt", s, FiniteDiff(5, 2))
        _, reg = load_series(tmp_path / "s.txt")
        assert reg == FiniteDiff(5, 2)

    @pytest.mark.parametrize("edit, line", [
        (lambda ls: ls[:-1], 8),                            # 3 of 4 declared terms
        (lambda ls: ls + ["2 0  0 0  0.5 0"], 13),          # a term past the count
        (lambda ls: ls[:-1] + [ls[-2]], 12),                # a repeated (k, l)
        (lambda ls: [], 1),                                  # empty file
        (lambda ls: ls[:7], 7),                              # no coeffs line
        (lambda ls: [x for x in ls if x != "n 2"], 7),       # missing header field
        (lambda ls: ls[:2] + ["R one"] + ls[3:], 3),         # unparsable field
        (lambda ls: ls[:-1] + ["0 0  2 0  1"], 12),          # too few fields
    ], ids=["short", "long", "repeat", "empty", "no-coeffs", "no-n", "bad-R", "fields"])
    def test_malformed_file_names_the_line(self, tmp_path, edit, line):
        # ft-series 1 / n 2 / R / center / k_max / d_max / regularity /
        # coeffs 4 / the four terms on lines 9-12
        s = (FourierTaylorSeries.monomial(D2, (0, 2), 0.5, k_max=1, d_max=2)
             + FourierTaylorSeries.monomial(D2, (2, 0), 0.5, k_max=1, d_max=2)
             + FourierTaylorSeries.cosine(D2, (1, 0), 0.1, k_max=1, d_max=2))
        path = tmp_path / "s.txt"
        save_series(path, s, Gevrey(1.0, 0.5))
        lines = edit(path.read_text().splitlines())
        path.write_text("".join(x + "\n" for x in lines))
        with pytest.raises(ValueError, match=f"line {line}: "):
            load_series(path)


class TestAlgebraMisc:
    def test_recenter_scale_quadratic(self):
        h = FourierTaylorSeries.monomial(D2, (2, 0), 0.5)
        out = recenter_scale(h, (0.3, 0.0), 0.1)
        # 0.5*(0.3 + 0.1 J)^2 = 0.045 + 0.03 J + 0.005 J^2
        assert out.coeffs.get(((0, 0), (0, 0)), 0j).real == pytest.approx(0.045)
        assert out.coeffs.get(((0, 0), (1, 0)), 0j).real == pytest.approx(0.03)
        assert out.coeffs.get(((0, 0), (2, 0)), 0j).real == pytest.approx(0.005)

    def test_split_by_modes(self):
        h = FourierTaylorSeries.monomial(D2, (2, 0), 0.5, k_max=1, d_max=2)
        f = FourierTaylorSeries.cosine(D2, (1, 0), 0.1, k_max=1, d_max=2)
        avg, osc = split_by_modes(h + f)
        assert avg.angle_independent()
        assert (avg - h).coefficient_norm() == pytest.approx(0.0, abs=1e-15)
        assert (osc - f).coefficient_norm() == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n, omega", [(1, (3.0, 5.0)), (2, (3.0,))],
                             ids=["too-many", "too-few"])
    def test_linear_needs_one_frequency_per_action(self, n, omega):
        # unchecked, an extra frequency would become a constant term and a
        # missing one a zero
        with pytest.raises(ValueError, match=f"linear needs {n} frequencies, got {len(omega)}"):
            FourierTaylorSeries.linear(Domain(n, 1.0), omega)

    def test_hamiltonian_system_validation(self):
        h = FourierTaylorSeries.cosine(D2, (1, 0))
        f = FourierTaylorSeries.zero(D2, 1, 0)
        with pytest.raises(ValueError):
            HamiltonianSystem(h, f, 0.1, Gevrey(1.0, 0.5))
        with pytest.raises(ValueError):
            HamiltonianSystem(
                FourierTaylorSeries.constant(D2, 1.0), f, 0.1, FiniteDiff(2, 1)
            )


def _assert_public_form(s):
    """``s`` holds what the public constructor establishes: int-tuple keys,
    nonzero complex values, indices inside the bounds, real, and the same
    terms in the same order as the public constructor builds from them."""
    n = s.domain.n
    for (k, l), c in s.items():
        assert type(k) is tuple and type(l) is tuple and len(k) == len(l) == n
        assert all(type(x) is int for x in k + l)
        assert type(c) is complex and c != 0
        assert min(l) >= 0
        assert max(map(abs, k)) <= s.k_max and sum(l) <= s.d_max
    public = FourierTaylorSeries(s.domain, s.coeffs, s.k_max, s.d_max, s.center,
                                 trunc_loss=s.trunc_loss)
    assert list(s.items()) == list(public.items())


@st.composite
def derived_inputs(draw):
    """Two same-geometry series (at the origin or off it), a periodic vector
    and a float factor for every operation built by the private constructor."""
    n = draw(st.integers(1, 3))
    center = draw(st.sampled_from([None, (0.3, -1.2, 2.5)[:n]]))
    ops = []
    for _ in range(2):
        s = draw(small_series(n=n, n_terms=6))
        ops.append(FourierTaylorSeries(s.domain, s.coeffs, s.k_max, s.d_max, center))
    comps = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 6))) for _ in range(n)]
    if not any(comps):
        comps[0] = Fraction(1)
    factor = draw(st.floats(-4.0, 4.0).filter(lambda x: x != 0))
    return ops[0], ops[1], period_of(comps), factor


def _linears(factor, center):
    """``linear`` for n = 1, 2, 3, one of them at ``center``, with a zero and
    an np.float64 frequency."""
    return [
        FourierTaylorSeries.linear(
            Domain(n, 1.0), [factor, 0.0, np.float64(-2.5)][:n], k_max=1, d_max=2,
            center=center if len(center) == n else None,
        )
        for n in (1, 2, 3)
    ]


class TestDerivedSeries:
    @given(derived_inputs())
    @settings(max_examples=60, deadline=None)
    def test_every_operation_keeps_the_public_form(self, inputs):
        f, g, w, factor = inputs
        n = f.domain.n
        h, osc = split_by_modes(f)
        # the point sits 0.1 off the series center, inside its ball
        loc = localize_and_scale(HamiltonianSystem(h, osc, 1e-3, Gevrey(1.0, 0.5)),
                                 tuple(c + 0.1 for c in f.center), 0.05, w)
        results = [
            -f, f.scaled(factor), f.scaled(np.float64(factor)), f + g, f - g,
            f - f, f.product(g), f.product(g, k_max=1, d_max=1),
            f.partial_theta(n - 1), f.partial_action(0),
            f.truncate(1, 1)[0], f.with_bounds(5, 4),
            _bracket_with_cutoff(1, f, g), _bracket_with_cutoff(math.inf, f, g),
            _bracket_with_cutoff(1, f, g, k_max=2, d_max=1),
            recenter_scale(f, (0.1,) * n, 0.5),
            h, osc, *resonant_split(f, w), homological_solve(f, w),
            _unscale(f, (0.2,) * n, 0.05, Domain(n, 0.6)),
            loc.h_tilde, loc.f_scaled, loc.f_tilde,
            *_linears(factor, f.center),
        ]
        for r in results:
            _assert_public_form(r)

    @given(derived_inputs())
    @settings(max_examples=40, deadline=None)
    def test_trusted_constructions_pickle_as_public_ones(self, inputs):
        # pickles record shared index objects and every bit of a value, so
        # equal bytes rule out shared tuples and signed-zero drift
        f, g, _, factor = inputs
        assert pickle.dumps(f - g) == pickle.dumps(f + (-g))
        assert pickle.dumps(g - f) == pickle.dumps(g + (-f))
        for s in _linears(factor, f.center):
            public = FourierTaylorSeries(s.domain, s.coeffs, s.k_max, s.d_max, s.center)
            assert pickle.dumps(s) == pickle.dumps(public)

    @given(derived_inputs())
    @settings(max_examples=40, deadline=None)
    def test_terms_keep_operation_order(self, inputs):
        # the public constructor on the operation's own accumulation gives
        # the terms in first-occurrence order, zero sums dropped
        f, g, _, _ = inputs
        merged = dict(f.items())
        for idx, c in g.items():
            merged[idx] = merged.get(idx, 0j) + c
        public = FourierTaylorSeries(f.domain, merged, f.k_max, f.d_max, f.center)
        assert list((f + g).items()) == list(public.items())
        assert (f - f).is_zero
        kept, _ = series_module._partition(series_module._bracket_loop(f, g), 2, 1)
        public = FourierTaylorSeries(f.domain, kept, 2, 1, f.center)
        for cutoff in (1, math.inf):
            bracket = _bracket_with_cutoff(cutoff, f, g, k_max=2, d_max=1)
            assert list(bracket.items()) == list(public.items())

    def test_classmethod_input_still_checked(self):
        with pytest.raises(ValueError, match="exceeds d_max"):
            FourierTaylorSeries.monomial(D2, (2, 0), d_max=1)
        with pytest.raises(ValueError, match="exceeds k_max"):
            FourierTaylorSeries.cosine(D2, (2, 0), k_max=1)
