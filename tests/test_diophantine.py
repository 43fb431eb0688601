import dataclasses
import math
import pickle
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftbench.diophantine import (
    DirichletResult,
    DirichletSearchError,
    PeriodicVector,
    RationalSubspace,
    ResonanceFrame,
    dirichlet_approx,
    dirichlet_candidates,
    enumerate_GL,
    hermite_normal_form,
    integer_kernel,
    lattice_vectors_l1,
    period_of,
    primitive_vectors_l1,
    projections,
    rational_kernel,
    rational_rank,
    resonance_module,
    subspace_in_GL,
)


def _candidates_by_fraction(v, Q, search_cap=None):
    """Reference scan: dirichlet_candidates with every test in Fraction arithmetic."""
    n = len(v)
    vf = tuple(F(x) for x in v)
    Qf = F(Q)
    vnorm = max(abs(x) for x in vf)
    try:
        float(Qf / vnorm)
    except OverflowError:
        raise ValueError("the period bound Q/|v| does not fit in a float") from None
    shells = math.floor(Qf)
    cap = search_cap if search_cap is not None else shells * 2 ** n
    examined = 0
    feasible = {}
    for q in range(1, shells + 1):
        t_param = F(q) / vnorm
        x = [t_param * c for c in vf]
        choices = []
        for xi in x:
            fl = math.floor(xi)
            choices.append((fl,) if xi == fl else (fl, fl + 1))
        for w in product(*choices):
            if examined >= cap:
                break
            examined += 1
            if all(c == 0 for c in w):
                continue
            g = math.gcd(*w)
            w_red = tuple(c // g for c in w)
            T = t_param / g
            key = (T, w_red)
            if key in feasible:
                continue
            omega = tuple(F(c) / T for c in w_red)
            err = max(abs(a - b) for a, b in zip(vf, omega))
            if (err * T) ** (n - 1) * Qf > 1:
                continue
            if T * vnorm < 1 or T * vnorm > Qf:
                continue
            feasible[key] = err
    return [
        DirichletResult(
            vector=PeriodicVector(tuple(F(c) / T for c in w_red), T),
            error=err,
            error_bound=float(1 / T) * float(Qf) ** (-1.0 / (n - 1)),
            period_lower=float(1 / vnorm),
            period_upper=float(Qf / vnorm),
            candidates_examined=examined,
        )
        for (T, w_red), err in sorted(feasible.items())
    ]


# a component: a float of either sign, zero, an exact integer (the one-choice
# rounding in every shell) or a Fraction, as the CLI may pass
_component = st.one_of(
    st.floats(-1, 1, allow_nan=False),
    st.just(0.0),
    st.integers(-2, 2).map(float),
    st.fractions(min_value=-2, max_value=2, max_denominator=40),
)


@st.composite
def _dirichlet_input(draw):
    n = draw(st.integers(2, 4))
    v = draw(st.lists(_component, min_size=n, max_size=n))
    if all(x == 0 for x in v):
        v[draw(st.integers(0, n - 1))] = draw(st.floats(0.05, 1))
    # the reference costs ~50 us per candidate, Q * 2^n candidates in all
    Q = draw(st.floats(1.0, {2: 700.0, 3: 200.0, 4: 60.0}[n], exclude_min=True))
    # a small cap stops the scan inside a shell (2^n candidates per shell),
    # and a cap below 1 examines nothing
    cap = draw(st.one_of(st.none(), st.integers(-1, 6 * 2 ** n)))
    return v, Q, cap


class TestPeriodOf:
    def test_unit_vector(self):
        assert period_of((1, 0)).period == 1

    def test_third(self):
        pv = period_of((1, F(1, 3)))
        assert pv.period == 3

    def test_gcd_adjustment(self):
        pv = period_of((F(2, 3), F(1, 6)))
        assert pv.period == 6
        before = pickle.dumps(pv)
        assert pv.integer_vector() == (4, 1)
        # the first read caches T*omega off the pickled state
        assert pickle.dumps(pv) == before
        assert pv.integer_vector() == (4, 1)

    def test_rational_period(self):
        assert period_of((F(2, 3), F(4, 3))).period == F(3, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            period_of((0, 0))

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12),
                    min_size=2, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_minimality_by_divisor_scan(self, vec):
        if all(x == 0 for x in vec):
            return
        pv = period_of(vec)
        T = pv.period
        ints = pv.integer_vector()
        assert math.gcd(*ints) == 1
        # no proper divisor of T works: t = T/d with d = 2..12
        for d in range(2, 13):
            t = T / d
            assert any((t * w).denominator != 1 for w in pv.omega)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicVector((F(1), F(1, 2)), F(4))  # gcd(4,2) = 2: not minimal


class TestDirichlet:
    def test_already_periodic_unit(self):
        r = dirichlet_approx((1.0, 0.0), 5.0)
        assert r.vector.omega == (1, 0) and r.vector.period == 1
        assert r.error == 0

    def test_already_periodic_third(self):
        r = dirichlet_approx((1.0, 1 / 3), 4.0)
        assert r.vector.period == 3
        assert r.vector.omega == (1, F(1, 3))
        assert float(r.error) < 1e-15

    def test_sqrt2_like(self):
        r = dirichlet_approx((1.0, 0.41421356), 10.0)
        assert r.vector.omega == (1, F(2, 5))
        assert r.vector.period == 5
        assert float(r.error) == pytest.approx(0.01421356, abs=1e-9)
        assert all(v >= 0 for v in r.margins().values())

    def test_candidates_sorted_and_feasible(self):
        cands = dirichlet_candidates((0.5, 0.25), 8.0)
        periods = [c.vector.period for c in cands]
        assert periods == sorted(periods)
        # exact match (1/2, 1/4) at T = 4 is the smallest feasible period
        assert cands[0].vector.period == 4
        assert cands[0].error == 0
        for c in cands:
            assert float(c.error) <= c.error_bound * (1 + 1e-12)

    def test_default_cap_beyond_islice_stop(self):
        # the default cap, 3e18 shells * 2^2, exceeds sys.maxsize, islice's
        # largest stop; the candidate is in shell 2
        r = dirichlet_approx((1.0, 0.5), 3e18)
        assert r.vector == period_of((1, F(1, 2))) and r.candidates_examined == 3

    def test_cap_too_small_raises(self):
        with pytest.raises(DirichletSearchError):
            dirichlet_approx((0.737, 0.191), 50.0, search_cap=1)

    def test_subnormal_norm_rejected(self):
        # Q/|v| = 2e320 has no float; the scan refuses before it starts
        with pytest.raises(ValueError, match=r"\|v\| = 1e-320 is too small"):
            dirichlet_candidates((0.0, 1e-320), 2.0)
        with pytest.raises(ValueError, match=r"Q/\|v\| does not fit"):
            dirichlet_approx((1e-308, -1e-308), 2.0)

    def test_dimension_and_Q_validation(self):
        with pytest.raises(ValueError):
            dirichlet_approx((1.0,), 5.0)
        with pytest.raises(ValueError):
            dirichlet_approx((1.0, 0.5), 0.5)

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
           st.floats(5.0, 50.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_lemma_inequalities_verified_exactly(self, seed, n, Q):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1, 1, n)
        if np.max(np.abs(v)) < 0.1:
            v[0] = 0.7
        r = dirichlet_approx(v, Q)
        vf = [F(float(x)) for x in v]
        vnorm = max(abs(x) for x in vf)
        T = r.vector.period
        err = max(abs(a - b) for a, b in zip(vf, r.vector.omega))
        assert (err * T) ** (n - 1) * F(Q) <= 1
        assert 1 <= T * vnorm <= F(Q)


    # fixed cases: Q just above 1 (one shell), Q ~ 700, negative and zero
    # components, exact integers, Fraction input, a cap inside the third
    # shell, omega = (1, 0) at T = 1, whose error 1/2 equals its bound, and
    # a subnormal |v|
    @given(_dirichlet_input())
    @example(((1.0, 0.5), 2.0, None))
    @example(((0.737, -0.191), 1.0000001, None))
    @example(((-0.41421356, 1.0, 0.0), 700.0, None))
    @example(((2.0, -1.0, 0.3), 40.0, None))
    @example(((F(1, 3), F(-2, 7), 0.125), 90.5, None))
    @example(((0.3, -0.7, 0.11, 0.0), 30.0, 2 * 16 + 5))
    @example(((0.0, 2.2e-311), 2.0, None))
    @settings(max_examples=80, deadline=None)
    def test_integer_scan_matches_fraction_scan(self, case):
        # failures must match too: a subnormal |v| puts Q/|v| beyond a float
        def outcome(scan):
            try:
                return scan(*case)
            except ValueError as exc:
                return type(exc)

        assert outcome(dirichlet_candidates) == outcome(_candidates_by_fraction)


    @given(_dirichlet_input())
    @example(((0.737, 0.191), 50.0, 1))
    @example(((0.3, -0.7, 0.11, 0.0), 30.0, 2 * 16 + 5))
    @example(((0.0, 2.2e-311), 2.0, None))
    @settings(max_examples=80, deadline=None)
    def test_approx_is_the_first_candidate(self, case):
        # dirichlet_approx stops at the first feasible rounding; only its
        # count of examined roundings may differ from the full scan's
        def outcome(search):
            try:
                return dataclasses.replace(search(*case), candidates_examined=0)
            except (ValueError, DirichletSearchError) as exc:
                return type(exc)

        def first_candidate(v, Q, cap):
            cands = dirichlet_candidates(v, Q, cap)
            if not cands:
                raise DirichletSearchError
            return cands[0]

        assert outcome(dirichlet_approx) == outcome(first_candidate)

    def test_approx_counts_up_to_its_candidate(self):
        # (0.737, 0.191) at Q = 1e4: T = 1000 sits in shell 737 of 10,000;
        # every earlier shell holds two roundings, none feasible
        r = dirichlet_approx((0.737, 0.191), 1e4)
        assert float(r.vector.period) == 1000
        assert r.candidates_examined == 736 * 2 + 1
        assert dirichlet_candidates((0.737, 0.191), 1e4)[0].candidates_examined == 20000

    @given(_dirichlet_input())
    @settings(max_examples=60, deadline=None)
    def test_every_candidate_in_period_range_with_primitive_period_vector(self, case):
        v, Q, cap = case
        vnorm = max(abs(F(x)) for x in v)
        assume(vnorm >= F(1, 2 ** 60))  # a subnormal |v| is rejected
        cands = dirichlet_candidates(v, Q, cap)
        for c in cands:
            T = c.vector.period
            assert 1 <= T * vnorm <= F(Q)
            assert c.period_lower <= float(T) <= c.period_upper
            Tw = [T * w for w in c.vector.omega]
            assert all(x.denominator == 1 for x in Tw)
            assert math.gcd(*(int(x) for x in Tw)) == 1


class TestResonanceModule:
    def test_full_frame_empty_module(self):
        basis = resonance_module([period_of((1, 0)), period_of((0, 1))])
        assert basis == []

    def test_symmetric_line(self):
        assert resonance_module([period_of((1, 1))]) == [(1, -1)]

    def test_skew_line(self):
        assert resonance_module([period_of((2, 1))]) == [(1, -2)]

    def test_dependent_rejected(self):
        with pytest.raises(ValueError):
            resonance_module([period_of((1, 1)), period_of((2, 2))])

    @staticmethod
    def _brute_kernel(omegas, bound=20):
        hits = []
        n = len(omegas[0])
        for k in lattice_vectors_l1(n, bound):
            if all(sum(F(ki) * wi for ki, wi in zip(k, w)) == 0 for w in omegas):
                hits.append(k)
        return hits

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        j = int(rng.integers(1, n))
        vecs = []
        while len(vecs) < j:
            cand = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 5))) for _ in range(n)]
            if all(x == 0 for x in cand):
                continue
            if rational_rank([pv.omega for pv in vecs] + [tuple(cand)]) == len(vecs) + 1:
                vecs.append(period_of(cand))
        basis = resonance_module(vecs)
        assert len(basis) == n - j
        brute = self._brute_kernel([pv.omega for pv in vecs])
        # every brute-force kernel vector must be an integer combination of
        # the basis: reduce it through the HNF rows
        for k in brute:
            assert _in_lattice(k, basis)
        # and every basis vector annihilates the frame exactly
        for row in basis:
            for pv in vecs:
                assert sum(F(a) * b for a, b in zip(row, pv.omega)) == 0


def _in_lattice(vec, basis_rows) -> bool:
    v = list(vec)
    for row in basis_rows:
        pivot = next(i for i, x in enumerate(row) if x != 0)
        if v[pivot] % row[pivot] != 0:
            return False
        q = v[pivot] // row[pivot]
        v = [a - q * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


class TestProjections:
    def test_full_frame_zero_projection(self):
        fr = ResonanceFrame.build([period_of((1, 0)), period_of((0, 1))])
        Pi, Pperp = projections(fr)
        assert np.max(np.abs(Pi)) == pytest.approx(0.0, abs=1e-14)
        assert np.max(np.abs(Pperp - np.eye(2))) == pytest.approx(0.0, abs=1e-14)

    def test_empty_frame_identity(self):
        fr = ResonanceFrame.build([], n=2)
        Pi, _ = projections(fr)
        assert np.max(np.abs(Pi - np.eye(2))) == pytest.approx(0.0, abs=1e-14)
        assert fr.l_index == 1

    def test_symmetric_line_projection(self):
        fr = ResonanceFrame.build([period_of((1, 1))])
        Pi, _ = projections(fr)
        assert Pi @ np.array([1.0, 0.0]) == pytest.approx([0.5, -0.5], abs=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_projection_properties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        j = int(rng.integers(1, n + 1))
        vecs = []
        while len(vecs) < j:
            cand = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(n)]
            if all(x == 0 for x in cand):
                continue
            if rational_rank([pv.omega for pv in vecs] + [tuple(cand)]) == len(vecs) + 1:
                vecs.append(period_of(cand))
        fr = ResonanceFrame.build(vecs)
        Pi, Pperp = projections(fr)
        assert np.max(np.abs(Pi @ Pi - Pi)) < 1e-12
        assert np.max(np.abs(Pi - Pi.T)) < 1e-12
        assert np.max(np.abs(Pi + Pperp - np.eye(n))) < 1e-12
        for pv in vecs:
            assert np.linalg.norm(Pi @ pv.as_floats()) < 1e-10
        assert fr.l_index >= 1


class TestGLMembership:
    def test_unit_normal(self):
        assert subspace_in_GL(RationalSubspace(((1, 0),), 2), 1)

    def test_height_five_line(self):
        s = RationalSubspace(((2, 3),), 2)
        assert not subspace_in_GL(s, 4)
        assert subspace_in_GL(s, 5)

    def test_full_space_vacuous(self):
        assert subspace_in_GL(RationalSubspace((), 2), 1)

    def test_enumeration_matches_membership(self):
        # every enumerated subspace is a member, and every member found by
        # brute-force normal enumeration appears in the enumeration
        for n in (2, 3):
            for L in (1, 2, 3, 4):
                for k in range(1, n + 1):
                    subs = [s for _, s in enumerate_GL(n, L) if s.dim == k]
                    keys = {s.lattice_key() for s in subs}
                    assert len(keys) == len(subs)
                    for s in subs:
                        assert subspace_in_GL(s, L)
                    if k < n:
                        # brute force: all (n-k)-subsets of primitive normals
                        for combo in combinations(primitive_vectors_l1(n, L), n - k):
                            if rational_rank([[F(x) for x in u] for u in combo]) != n - k:
                                continue
                            key = RationalSubspace(tuple(combo), n).lattice_key()
                            assert key in keys

    def test_nesting_in_L(self):
        small = {s.lattice_key() for _, s in enumerate_GL(2, 2) if s.dim == 1}
        large = {s.lattice_key() for _, s in enumerate_GL(2, 4) if s.dim == 1}
        assert small <= large

    @staticmethod
    def _per_L_reference(n, L_max):
        """For each L, then each k, the first combination of
        primitive_vectors_l1(n, L) that gives a key not seen at a smaller L
        or earlier in the same family."""
        seen, out = set(), []
        for L in range(1, L_max + 1):
            for k in range(1, n + 1):
                family = {}
                for combo in combinations(primitive_vectors_l1(n, L), n - k):
                    key = tuple(integer_kernel(combo, ncols=n))
                    if len(key) == k and key not in seen and key not in family:
                        family[key] = combo
                for key in sorted(family):
                    out.append((L, family[key]))
                seen.update(family)
        return out

    def test_one_sweep_matches_per_L_loop(self):
        for n in (1, 2, 3):
            for L_max in (1, 2, 3, 4):
                sweep = [(L, s.normals) for L, s in enumerate_GL(n, L_max)]
                assert sweep == self._per_L_reference(n, L_max)

    def test_L_min_is_the_smallest_membership(self):
        for n in (2, 3):
            for L, s in enumerate_GL(n, 4):
                assert subspace_in_GL(s, L)
                assert L == 1 or not subspace_in_GL(s, L - 1)

    def test_enumeration_is_memoized(self):
        assert enumerate_GL(3, 2) is enumerate_GL(3, 2)

    def test_rejects_empty_range(self):
        for n, L_max in ((0, 2), (2, 0)):
            with pytest.raises(ValueError):
                enumerate_GL(n, L_max)


class TestIntegerLinearAlgebra:
    def test_hnf_canonical(self):
        rows = [(2, 4, 6), (1, 2, 3)]
        assert hermite_normal_form(rows) == [(1, 2, 3)]

    def test_hnf_reduces_above_pivot(self):
        basis = hermite_normal_form([(1, 5, 0), (0, 3, 1)])
        # entries above the second pivot reduced modulo it
        assert basis[0][1] < 3

    def test_kernel_saturated(self):
        basis = integer_kernel([[2, 4]])
        assert basis == [(2, -1)]

    def test_kernel_empty_full_rank(self):
        assert integer_kernel([[1, 0], [0, 1]]) == []

    def test_rational_rank(self):
        assert rational_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert rational_rank([[F(1), F(0)], [F(0), F(1)]]) == 2


_small_ints = st.integers(-4, 4)
_small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _matrix(draw, entries):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 5))
    return n, [[draw(entries) for _ in range(n)] for _ in range(m)]


class TestExactEliminationOracle:
    """Rank and kernels against sympy's own exact elimination."""

    @settings(max_examples=150, deadline=None)
    @given(_matrix(st.one_of(_small_ints, _small_rationals)))
    def test_rational_rank_and_kernel(self, case):
        n, rows = case
        A = sympy.Matrix(len(rows), n, [sympy.Rational(x) for row in rows for x in row])
        assert rational_rank(rows) == A.rank()
        kernel = rational_kernel(rows, n)
        assert len(kernel) == len(A.nullspace()) == n - A.rank()
        for v in kernel:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        if kernel:
            assert sympy.Matrix([list(v) for v in kernel]).rank() == len(kernel)

    @settings(max_examples=150, deadline=None)
    @given(_matrix(_small_ints))
    def test_integer_kernel(self, case):
        n, rows = case
        A = sympy.Matrix(len(rows), n, [x for row in rows for x in row]) if rows else None
        rank = A.rank() if rows else 0
        basis = integer_kernel(rows, ncols=n)
        assert len(basis) == n - rank
        for v in basis:
            assert math.gcd(*v) == 1
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        assert hermite_normal_form(basis) == basis
        # saturated: the maximal minors of the basis have gcd 1
        if basis:
            K = sympy.Matrix([list(v) for v in basis])
            minors = [K[:, list(cols)].det() for cols in combinations(range(n), len(basis))]
            assert math.gcd(*(int(x) for x in minors)) == 1
