"""Shared strategies and oracles for the test suite.

The sympy helpers provide an independent symbolic route for derivatives and
Poisson brackets: a series is expanded into an explicit trigonometric
polynomial, differentiated symbolically, and compared coefficient-free at
sample points.  The strategies build small reality-symmetric series.
"""

from __future__ import annotations

import numpy as np
import sympy as sp
from hypothesis import strategies as st

from driftbench.series import Domain, FourierTaylorSeries
from driftbench.systems import SeriesHamiltonian


def series_to_sympy(s: FourierTaylorSeries):
    """Exact symbolic form of a series (thetas t_i, actions a_i)."""
    n = s.domain.n
    thetas = sp.symbols(f"t0:{n}", real=True)
    actions = sp.symbols(f"a0:{n}", real=True)
    expr = sp.Integer(0)
    for (k, l), c in s.items():
        term = sp.Float(c.real, 20) + sp.I * sp.Float(c.imag, 20)
        for j in range(n):
            if l[j]:
                term *= (actions[j] - sp.Float(s.center[j], 20)) ** l[j]
            if k[j]:
                term *= sp.exp(2 * sp.pi * sp.I * k[j] * thetas[j])
        expr += term
    return sp.re(sp.expand_complex(expr)), thetas, actions


def sympy_eval(expr, thetas, actions, theta_vals, action_vals) -> float:
    subs = dict(zip(thetas, theta_vals)) | dict(zip(actions, action_vals))
    return float(expr.subs(subs).evalf(30))


def _coeff_floats(scale: float):
    # keep magnitudes well inside the normal range: the coefficient-exact
    # properties (derivative commutation etc.) are stated for ordinary data,
    # and subnormal arithmetic loses scale-invariant rounding by one ulp
    return st.one_of(
        st.just(0.0),
        st.floats(1e-3 * scale, scale),
        st.floats(-scale, -1e-3 * scale),
    )


@st.composite
def small_series(
    draw,
    n_max: int = 3,
    k_max: int = 3,
    d_max: int = 2,
    n_terms: int = 4,
    coeff_scale: float = 1.0,
    n: int | None = None,
):
    """Reality-symmetric sparse series with bounded support."""
    if n is None:
        n = draw(st.integers(1, n_max))
    domain = Domain(n, 1.0)
    coeffs: dict = {}
    terms = draw(st.integers(1, n_terms))
    for _ in range(terms):
        k = tuple(draw(st.integers(-k_max, k_max)) for _ in range(n))
        budget = d_max
        l = []
        for _ in range(n):
            e = draw(st.integers(0, budget))
            l.append(e)
            budget -= e
        l = tuple(l)
        re = draw(_coeff_floats(coeff_scale))
        im = 0.0 if all(x == 0 for x in k) else draw(_coeff_floats(coeff_scale))
        c = complex(re, im)
        neg = tuple(-x for x in k)
        coeffs[(k, l)] = coeffs.get((k, l), 0j) + c
        if neg != k:
            coeffs[(neg, l)] = coeffs.get((neg, l), 0j) + c.conjugate()
        else:
            coeffs[(k, l)] = coeffs[(k, l)].real + 0j
    return FourierTaylorSeries(domain, coeffs, k_max, d_max)


def action_h(A=None, omega=None) -> SeriesHamiltonian:
    """h(I) = 1/2 I.A I for a symmetric A, or omega.I, as a series: 1/2 A_ii
    on I_i^2 and A_ij on I_i I_j for i < j, so the Hessian is exactly A.  The
    domain is the unit ball."""
    if omega is not None:
        return SeriesHamiltonian(FourierTaylorSeries.linear(Domain(len(omega), 1.0), omega))
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            l = tuple((p == i) + (p == j) for p in range(n))
            coeffs[((0,) * n, l)] = 0.5 * A[i, i] if i == j else A[i, j]
    return SeriesHamiltonian(FourierTaylorSeries(Domain(n, 1.0), coeffs, 0, 2))


def sample_points(n: int, count: int = 5, seed: int = 0):
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0, 1, (count, n))
    actions = rng.uniform(-0.9, 0.9, (count, n))
    return thetas, actions
