"""Gevrey (alpha, L) and C^k norms on truncated series.

Both norms are weighted sums of C0 sup norms of partial derivatives,

    Gevrey:  sum_l  L^{|l| alpha} (l!)^{-alpha} |d^l s|_C0
    C^k:     sum_{|l| <= k} (l!)^{-1} |d^l s|_C0

with l a multi-index over all 2n phase-space coordinates.  Two finite
approximations are made and recorded in every certificate: the derivative
order is capped, and each C0 sup is taken over a sampling grid.  Both only
under-approximate, so every certificate is flagged as a lower bound of the
true function norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .series import (
    Domain,
    FourierTaylorSeries,
    Gevrey,
    compose_near_identity,
    open_new,
)

GevreyParams = Gevrey

DEFAULT_DERIV_CAP = 40
DEFAULT_THETA_RES = 64
DEFAULT_ACTION_RES = 33


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for C0 sups: uniform per angle and action coordinate."""

    theta_res: int = DEFAULT_THETA_RES
    action_res: int = DEFAULT_ACTION_RES
    action_radius: float | None = None  # defaults to the domain radius
    action_center: tuple[float, ...] | None = None  # defaults to the origin

    def theta_points(self, n: int) -> np.ndarray:
        axis = np.arange(self.theta_res) / self.theta_res
        return _cartesian(axis, n)

    def action_points(self, domain: Domain) -> np.ndarray:
        R = self.action_radius if self.action_radius is not None else domain.R
        center = np.zeros(domain.n) if self.action_center is None else np.asarray(
            self.action_center, dtype=float
        )
        axis = np.linspace(-R, R, self.action_res)
        return _cartesian(axis, domain.n) + center

    def describe(self) -> str:
        return f"theta={self.theta_res} action={self.action_res}"


def _cartesian(axis: np.ndarray, n: int) -> np.ndarray:
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class NormCertificate:
    """A computed norm value with the approximations that produced it."""

    value: float
    kind: str
    cap: int
    grid: GridSpec
    lower_bound: bool = True  # finite cap + sampled sup only under-approximate

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("norm value must be >= 0")

    def csv_row(self) -> tuple[str, str, str, str]:
        return (self.kind, format(self.value, ".17g"), str(self.cap), self.grid.describe())


def grid_sup(
    s: FourierTaylorSeries, grid: GridSpec,
    theta_pts: np.ndarray | None = None, action_pts: np.ndarray | None = None,
) -> float:
    """Sup of |s| over the sampling grid."""
    if s.is_zero:
        return 0.0
    if theta_pts is None:
        theta_pts = grid.theta_points(s.domain.n)
    if action_pts is None:
        action_pts = grid.action_points(s.domain)
    return float(np.max(np.abs(s.evaluate_grid(theta_pts, action_pts))))


def _active_coords(s: FourierTaylorSeries) -> tuple[list[int], list[int]]:
    n = s.domain.n
    theta_active = [j for j in range(n) if any(k[j] != 0 for (k, _), _ in s.items())]
    action_active = [j for j in range(n) if any(l[j] != 0 for (_, l), _ in s.items())]
    return theta_active, action_active


def _multi_indices(active: Sequence[int], n: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All multi-indices over n coords, supported on ``active``, |l|_1 <= max_total."""
    if not active:
        yield (0,) * n
        return
    m = len(active)

    def rec(pos: int, remaining: int):
        if pos == m - 1:
            for v in range(remaining + 1):
                yield (v,)
            return
        for v in range(remaining + 1):
            for rest in rec(pos + 1, remaining - v):
                yield (v,) + rest

    for combo in rec(0, max_total):
        full = [0] * n
        for j, v in zip(active, combo):
            full[j] = v
        yield tuple(full)


def _factorial_multi(l: Sequence[int]) -> float:
    out = 1.0
    for x in l:
        out *= math.factorial(x)
    return out


def _derivative_sups(
    s: FourierTaylorSeries, cap: int, grid: GridSpec
) -> Iterator[tuple[int, float, float]]:
    """Yield (|l|, l!, grid sup of |d^l s|) over nonvanishing derivative indices."""
    theta_active, action_active = _active_coords(s)
    theta_pts = grid.theta_points(s.domain.n)
    action_pts = grid.action_points(s.domain)
    d_cap = min(cap, s.d_max)
    for l_act in _multi_indices(action_active, s.domain.n, d_cap):
        da = sum(l_act)
        if da > cap:
            continue
        base = s.derivative_multi((0,) * s.domain.n, l_act)
        if base.is_zero:
            continue
        for l_th in _multi_indices(theta_active, s.domain.n, cap - da):
            deriv = base.derivative_multi(l_th, (0,) * s.domain.n)
            if deriv.is_zero:
                continue
            sup = grid_sup(deriv, grid, theta_pts, action_pts)
            if sup == 0.0:
                continue
            yield (
                da + sum(l_th),
                _factorial_multi(l_act) * _factorial_multi(l_th),
                sup,
            )


def gevrey_norm(
    s: FourierTaylorSeries,
    p: GevreyParams,
    deriv_order_cap: int = DEFAULT_DERIV_CAP,
    grid: GridSpec | None = None,
) -> NormCertificate:
    """Partial sum of the Gevrey (alpha, L) norm up to derivative order cap."""
    if deriv_order_cap < 0:
        raise ValueError("deriv_order_cap must be >= 0")
    grid = grid if grid is not None else GridSpec()
    total = 0.0
    for order, lfact, sup in _derivative_sups(s, deriv_order_cap, grid):
        total += p.L ** (order * p.alpha) * lfact ** (-p.alpha) * sup
    return NormCertificate(total, f"gevrey(alpha={p.alpha},L={p.L})", deriv_order_cap, grid)


def ck_norm(
    s: FourierTaylorSeries, k: int, grid: GridSpec | None = None
) -> NormCertificate:
    """C^k norm: sum over |l| <= k of (l!)^{-1} grid-sup of |d^l s|."""
    if k < 0:
        raise ValueError("k must be >= 0")
    grid = grid if grid is not None else GridSpec()
    total = 0.0
    for _, lfact, sup in _derivative_sups(s, k, grid):
        total += sup / lfact
    return NormCertificate(total, f"ck(k={k})", k, grid)


@dataclass(frozen=True)
class DerivativeBoundReport:
    """Numerical check of sum_{|l|=p} |d^l g|_{alpha, L/2} against |g|_{alpha, L}."""

    p: int
    left: float
    right: float
    ratio: float
    cap: int
    grid: GridSpec


def check_derivative_bound(
    s: FourierTaylorSeries,
    params: GevreyParams,
    deriv_total: int,
    deriv_order_cap: int = DEFAULT_DERIV_CAP,
    grid: GridSpec | None = None,
) -> DerivativeBoundReport:
    """Ratio of the order-p derivative block at radius L/2 to the norm at L.

    The implicit constant of the underlying inequality is not pinned by any
    closed form here; see ``calibration`` for the corpus-frozen bound that
    the property tests use.
    """
    if deriv_total < 0:
        raise ValueError("deriv_total must be >= 0")
    grid = grid if grid is not None else GridSpec()
    half = GevreyParams(params.alpha, params.L / 2)
    n = s.domain.n
    left = 0.0
    inner_cap = max(deriv_order_cap - deriv_total, 0)
    for l_full in _multi_indices(list(range(2 * n)), 2 * n, deriv_total):
        if sum(l_full) != deriv_total:
            continue
        l_th, l_act = l_full[:n], l_full[n:]
        deriv = s.derivative_multi(l_th, l_act)
        if deriv.is_zero:
            continue
        left += gevrey_norm(deriv, half, inner_cap, grid).value
    right = gevrey_norm(s, params, deriv_order_cap, grid).value
    ratio = left / right if right > 0 else (0.0 if left == 0 else math.inf)
    return DerivativeBoundReport(deriv_total, left, right, ratio, deriv_order_cap, grid)


@dataclass(frozen=True)
class CompositionBoundReport:
    """Check of |f o Phi|_{alpha, C*L} <= |f|_{alpha, L} for near-identity Phi."""

    left: float
    right: float
    C: float
    holds: bool
    tolerance: float
    cap: int
    grid: GridSpec


def check_composition_bound(
    f: FourierTaylorSeries,
    theta_disp: Sequence[FourierTaylorSeries] | None,
    action_disp: Sequence[FourierTaylorSeries] | None,
    params: GevreyParams,
    C: float,
    deriv_order_cap: int = DEFAULT_DERIV_CAP,
    grid: GridSpec | None = None,
) -> CompositionBoundReport:
    """Realize f o Phi by series substitution and compare norms at radii C*L vs L."""
    if not 0 < C <= 1:
        raise ValueError("radius ratio C must lie in (0, 1]")
    grid = grid if grid is not None else GridSpec()
    composed = compose_near_identity(f, theta_disp, action_disp)
    shrunk = GevreyParams(params.alpha, C * params.L)
    left_cert = gevrey_norm(composed, shrunk, deriv_order_cap, grid)
    right_cert = gevrey_norm(f, params, deriv_order_cap, grid)
    # substitution truncation shows up on the left; allow it plus float slack
    tol = composed.trunc_loss.raw * math.exp(2 * math.pi * shrunk.L) + 1e-9 * (
        1.0 + right_cert.value
    )
    holds = left_cert.value <= right_cert.value + tol
    return CompositionBoundReport(
        left_cert.value, right_cert.value, C, holds, tol, deriv_order_cap, grid
    )


def write_certificates_csv(path, certs: Sequence[NormCertificate]) -> None:
    """Write the certificates as a new CSV file: norm_kind, value, cap, grid_spec."""
    import csv

    with open_new(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["norm_kind", "value", "cap", "grid_spec"])
        for cert in certs:
            writer.writerow(cert.csv_row())
