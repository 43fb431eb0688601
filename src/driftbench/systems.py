"""Builtin Hamiltonian families and the action-space reader of h.

Each system holds one representation of its integrable part h: the
angle-independent series ``hamiltonian.integrable`` that the dynamics and
the normal forms read.  The steepness and restrain machinery reads the same
series through ``SeriesHamiltonian`` (gradient and Hessian at one action
point or over a stack of points).  The builtin families span the
regimes the experiments target: quasi-convex, linear with a Diophantine
frequency, and a degenerate non-steep toy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .series import Domain, FourierTaylorSeries, Gevrey, HamiltonianSystem, SeriesStack

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class SeriesHamiltonian:
    """An angle-independent series h read at action points; each read is one
    ``SeriesStack`` term table of its derivatives.  ``grad`` and ``hess`` take
    one point (n,) or a stack of points (m, n).  The Hessian table is built on
    the first ``hess`` read, so a reader of gradients only never pays for it."""

    def __init__(self, series: FourierTaylorSeries) -> None:
        if not series.angle_independent():
            raise ValueError("series must be angle-independent")
        self.series = series
        self._grad_series = [series.partial_action(j) for j in range(series.domain.n)]
        self._grad_table = SeriesStack(self._grad_series)

    @functools.cached_property
    def _hess_table(self) -> SeriesStack:
        n = self.series.domain.n
        return SeriesStack([g.partial_action(j) for g in self._grad_series for j in range(n)])

    def grad(self, I: np.ndarray) -> np.ndarray:
        """The gradient, shape I.shape."""
        return self._grad_table.values(None, np.asarray(I, dtype=float))

    def hess(self, I: np.ndarray) -> np.ndarray:
        """The Hessian, shape I.shape[:-1] + (n, n)."""
        I = np.asarray(I, dtype=float)
        return self._hess_table.values(None, I).reshape(I.shape + I.shape[-1:])


@dataclass(frozen=True)
class System:
    """A named Hamiltonian H = h + f; h is read at action points through
    ``h_action``."""

    name: str
    hamiltonian: HamiltonianSystem

    @property
    def domain(self) -> Domain:
        return self.hamiltonian.domain

    @property
    def h_action(self) -> SeriesHamiltonian:
        return SeriesHamiltonian(self.hamiltonian.integrable)


def pendulum(eps: float) -> System:
    """n=1 pendulum H = I^2/2 + eps*cos(2*pi*theta) on the action ball R = 2."""
    d = Domain(1, 2.0)
    h = FourierTaylorSeries.monomial(d, (2,), 0.5, k_max=1, d_max=2)
    f = FourierTaylorSeries.cosine(d, (1,), eps, k_max=1, d_max=2)
    return System("pendulum", HamiltonianSystem(h, f, eps, Gevrey(1.0, 0.5)))


def quasi_convex(eps: float) -> System:
    """H = |I|^2/2 + eps*cos(2*pi*(theta_1 + theta_2)) on the unit action ball
    of n = 2, the classical easy regime."""
    d = Domain(2, 1.0)
    h = (
        FourierTaylorSeries.monomial(d, (2, 0), 0.5, k_max=1, d_max=2)
        + FourierTaylorSeries.monomial(d, (0, 2), 0.5, k_max=1, d_max=2)
    )
    f = FourierTaylorSeries.cosine(d, (1, 1), eps, k_max=1, d_max=2)
    return System("quasi-convex", HamiltonianSystem(h, f, eps, Gevrey(1.0, 0.5)))


def linear_diophantine(eps: float) -> System:
    """H = I_1 + GOLDEN*I_2 + eps*cos(2*pi*(theta_1 + theta_2)) on the unit
    action ball: a Diophantine frequency."""
    d = Domain(2, 1.0)
    h = FourierTaylorSeries.linear(d, (1.0, GOLDEN), k_max=1, d_max=1)
    f = FourierTaylorSeries.cosine(d, (1, 1), eps, k_max=1, d_max=1)
    return System("linear-diophantine", HamiltonianSystem(h, f, eps, Gevrey(1.0, 0.5)))


def degenerate_steep(eps: float) -> System:
    """H = I_1^2/2 + I_1 I_2^2 + eps*cos(2*pi*theta_2) on the unit action ball;
    fails the Morse check."""
    d = Domain(2, 1.0)
    h = (
        FourierTaylorSeries.monomial(d, (2, 0), 0.5, k_max=1, d_max=3)
        + FourierTaylorSeries.monomial(d, (1, 2), 1.0, k_max=1, d_max=3)
    )
    f = FourierTaylorSeries.cosine(d, (0, 1), eps, k_max=1, d_max=3)
    return System("degenerate-steep", HamiltonianSystem(h, f, eps, Gevrey(1.0, 0.5)))


BUILTIN_SYSTEMS: dict[str, Callable[[float], System]] = {
    "pendulum": pendulum,
    "quasiconvex": quasi_convex,
    "linear": linear_diophantine,
    "degenerate": degenerate_steep,
}


def make_system(name: str, eps: float) -> System:
    try:
        factory = BUILTIN_SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; builtins: {sorted(BUILTIN_SYSTEMS)}"
        ) from None
    return factory(eps)
