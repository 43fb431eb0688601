"""Builtin Hamiltonian families and action-space adapters.

The steepness and restrain machinery only ever sees the integrable part
through the small ``ActionHamiltonian`` interface (value/gradient/Hessian at
an action point, with optional vectorized gradients for grid scans).  The
builtin families span the regimes the experiments target: quasi-convex,
linear with a Diophantine frequency, and a degenerate non-steep toy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .series import (
    Domain, FourierTaylorSeries, Gevrey, HamiltonianSystem, Regularity, SeriesStack,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class ActionHamiltonian(Protocol):
    """Evaluable integrable Hamiltonian h(I) with gradient and Hessian."""

    def value(self, I: np.ndarray) -> float: ...
    def grad(self, I: np.ndarray) -> np.ndarray: ...
    def hess(self, I: np.ndarray) -> np.ndarray: ...

    def grad_many(self, points: np.ndarray) -> np.ndarray:
        """Gradients at an (m, n) stack of points, as an (m, n) array."""
        ...


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """h(I) = 1/2 I.A I + b.I + c with constant Hessian A."""

    A: np.ndarray
    b: np.ndarray | None = None
    c: float = 0.0

    def _b(self) -> np.ndarray:
        return self.b if self.b is not None else np.zeros(self.A.shape[0])

    def value(self, I: np.ndarray) -> float:
        I = np.asarray(I, dtype=float)
        return float(0.5 * I @ self.A @ I + self._b() @ I + self.c)

    def grad(self, I: np.ndarray) -> np.ndarray:
        return self.A @ np.asarray(I, dtype=float) + self._b()

    def hess(self, I: np.ndarray) -> np.ndarray:
        return np.array(self.A, dtype=float)

    def grad_many(self, points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(points) @ self.A.T + self._b()


@dataclass(frozen=True)
class LinearHamiltonian:
    """h(I) = omega.I."""

    omega: np.ndarray

    def value(self, I: np.ndarray) -> float:
        return float(np.asarray(self.omega) @ np.asarray(I, dtype=float))

    def grad(self, I: np.ndarray) -> np.ndarray:
        return np.array(self.omega, dtype=float)

    def hess(self, I: np.ndarray) -> np.ndarray:
        n = len(self.omega)
        return np.zeros((n, n))

    def grad_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.broadcast_to(np.asarray(self.omega, dtype=float), pts.shape).copy()


class SeriesHamiltonian:
    """Adapter for an angle-independent series; each read is one term table."""

    def __init__(self, series: FourierTaylorSeries) -> None:
        if not series.angle_independent():
            raise ValueError("series must be angle-independent")
        self.series = series
        n = series.domain.n
        grad = [series.partial_action(j) for j in range(n)]
        self._value_table = SeriesStack([series])
        self._grad_table = SeriesStack(grad)
        self._hess_table = SeriesStack([g.partial_action(j) for g in grad for j in range(n)])

    def value(self, I: np.ndarray) -> float:
        return float(self._value_table.values(None, np.asarray(I, dtype=float))[0])

    def grad(self, I: np.ndarray) -> np.ndarray:
        return self._grad_table.values(None, np.asarray(I, dtype=float))

    def hess(self, I: np.ndarray) -> np.ndarray:
        n = self.series.domain.n
        return self._hess_table.values(None, np.asarray(I, dtype=float)).reshape(n, n)

    def grad_many(self, points: np.ndarray) -> np.ndarray:
        return self._grad_table.values(None, np.atleast_2d(np.asarray(points, dtype=float)))


@dataclass(frozen=True)
class ShiftedHamiltonian:
    """h_xi(I) = h(I) - xi.I, the linear shift used in prevalence sampling."""

    base: ActionHamiltonian
    xi: np.ndarray

    def value(self, I: np.ndarray) -> float:
        return self.base.value(I) - float(np.asarray(self.xi) @ np.asarray(I, dtype=float))

    def grad(self, I: np.ndarray) -> np.ndarray:
        return self.base.grad(I) - np.asarray(self.xi, dtype=float)

    def hess(self, I: np.ndarray) -> np.ndarray:
        return self.base.hess(I)

    def grad_many(self, points: np.ndarray) -> np.ndarray:
        return self.base.grad_many(points) - np.asarray(self.xi, dtype=float)


@dataclass(frozen=True)
class System:
    """A named Hamiltonian bundle: series form plus action-space adapter."""

    name: str
    hamiltonian: HamiltonianSystem
    h_action: ActionHamiltonian

    @property
    def domain(self) -> Domain:
        return self.hamiltonian.domain


def _default_gevrey() -> Gevrey:
    return Gevrey(1.0, 0.5)


def pendulum(eps: float, R: float = 2.0, regularity: Regularity | None = None) -> System:
    """n=1 pendulum H = I^2/2 + eps*cos(2*pi*theta)."""
    d = Domain(1, R)
    h = FourierTaylorSeries.monomial(d, (2,), 0.5, k_max=1, d_max=2)
    f = FourierTaylorSeries.cosine(d, (1,), eps, k_max=1, d_max=2)
    ham = HamiltonianSystem(h, f, eps, regularity or _default_gevrey())
    return System("pendulum", ham, QuadraticHamiltonian(np.eye(1)))


def quasi_convex(
    eps: float, n: int = 2, mode: Sequence[int] = (1, 1), R: float = 1.0,
    regularity: Regularity | None = None,
) -> System:
    """H = |I|^2/2 + eps*cos(2*pi*mode.theta), the classical easy regime."""
    d = Domain(n, R)
    h = FourierTaylorSeries.zero(d, k_max=max(abs(m) for m in mode), d_max=2)
    for j in range(n):
        h = h + FourierTaylorSeries.monomial(
            d, tuple(2 if i == j else 0 for i in range(n)), 0.5,
            k_max=h.k_max, d_max=2,
        )
    f = FourierTaylorSeries.cosine(d, mode, eps, k_max=h.k_max, d_max=2)
    ham = HamiltonianSystem(h, f, eps, regularity or _default_gevrey())
    return System("quasi-convex", ham, QuadraticHamiltonian(np.eye(n)))


def linear_diophantine(
    eps: float, omega: Sequence[float] | None = None, mode: Sequence[int] = (1, 1),
    R: float = 1.0, regularity: Regularity | None = None,
) -> System:
    """H = omega.I + eps*cos(2*pi*mode.theta) with a Diophantine frequency."""
    w = np.array(omega if omega is not None else (1.0, GOLDEN))
    n = len(w)
    d = Domain(n, R)
    h = FourierTaylorSeries.linear(d, w, k_max=max(abs(m) for m in mode), d_max=1)
    f = FourierTaylorSeries.cosine(d, mode, eps, k_max=h.k_max, d_max=1)
    ham = HamiltonianSystem(h, f, eps, regularity or _default_gevrey())
    return System("linear-diophantine", ham, LinearHamiltonian(w))


def degenerate_steep(
    eps: float, R: float = 1.0, regularity: Regularity | None = None
) -> System:
    """H = I_1^2/2 + I_1 I_2^2 + eps*cos(2*pi*theta_2); fails the Morse check."""
    d = Domain(2, R)
    h = (
        FourierTaylorSeries.monomial(d, (2, 0), 0.5, k_max=1, d_max=3)
        + FourierTaylorSeries.monomial(d, (1, 2), 1.0, k_max=1, d_max=3)
    )
    f = FourierTaylorSeries.cosine(d, (0, 1), eps, k_max=1, d_max=3)
    ham = HamiltonianSystem(h, f, eps, regularity or _default_gevrey())
    return System("degenerate-steep", ham, SeriesHamiltonian(h))


BUILTIN_SYSTEMS: dict[str, Callable[..., System]] = {
    "pendulum": pendulum,
    "quasiconvex": quasi_convex,
    "linear": linear_diophantine,
    "degenerate": degenerate_steep,
}


def make_system(name: str, eps: float, **kwargs) -> System:
    try:
        factory = BUILTIN_SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; builtins: {sorted(BUILTIN_SYSTEMS)}"
        ) from None
    return factory(eps, **kwargs)
