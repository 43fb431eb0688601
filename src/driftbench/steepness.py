"""Diophantine Morse checking, prevalence sampling, and steepness escape times.

The Morse condition is a two-branch alternative on every rational subspace
Lambda in G^L(n, k): at each action point either the Lambda-projected
gradient of h exceeds gamma * L^{-tau}, or the Lambda-restricted Hessian is
gamma * L^{-tau}-nondegenerate.  Because the threshold decreases in L while
the G^L families only grow, each distinct subspace only needs checking at
the smallest L where it appears; reports record that L.

Continuum quantifiers (points of B_R, all L) are sampled: points on a grid
over the Euclidean ball h's series declares (radius R around its center), L
up to a cap.  Reports carry both resolutions.  Every check reads h through
``SeriesHamiltonian``; the grid check reads the gradient and Hessian at every
grid point in one stacked read each, and one kernel scores both branches.
The subspaces, each with its L_min, come from one memoized
``diophantine.enumerate_GL`` sweep per (n, L_max); this module has no exact
linear algebra of its own.  The steepness escape scan reads the gradient
over its curve in one stacked read, up to the first sample at length c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diophantine import (
    RationalSubspace,
    ResonanceFrame,
    enumerate_GL,
    projections,
    rational_kernel,
)
from .series import FourierTaylorSeries
from .systems import SeriesHamiltonian

DEFAULT_GAMMA_LADDER = tuple(0.5 ** i for i in range(21))


@dataclass(frozen=True)
class MorseParams:
    """Threshold parameters gamma * L^{-tau}."""

    gamma: float
    tau: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")

    def threshold(self, L: int) -> float:
        return self.gamma * float(L) ** (-self.tau)


@functools.lru_cache(maxsize=None)
def adapted_coordinates(s: RationalSubspace) -> np.ndarray:
    """Orthonormal basis (columns) E of Lambda: Gram-Schmidt on the RREF
    kernel basis of the normals, in free column order.  Memoized per
    subspace; the array is read-only."""
    kern = np.array(rational_kernel(s.normals, s.n), dtype=float).reshape(-1, s.n)
    E = _gram_schmidt(kern.T)
    E.setflags(write=False)
    return E


def _gram_schmidt(cols: np.ndarray) -> np.ndarray:
    if cols.shape[1] == 0:
        return cols
    out = []
    for j in range(cols.shape[1]):
        v = cols[:, j].astype(float)
        for u in out:
            v = v - (u @ v) * u
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError("degenerate input to Gram-Schmidt")
        out.append(v / norm)
    return np.stack(out, axis=1)


@dataclass(frozen=True)
class BranchResult:
    """Outcome of the two-branch Morse test at one point."""

    branch: str                 # "gradient" | "hessian" | "fail"
    grad_norm: float            # ||projected gradient||_2
    sigma_min: float            # smallest singular value of the Hessian block
    threshold: float

    @property
    def passed(self) -> bool:
        return self.branch != "fail"


def _branch_scores(grads: np.ndarray, hessians: np.ndarray, E: np.ndarray) -> tuple:
    """Per point of an (m, n) stack: the norm of the Lambda-projected gradient
    and the smallest |eigenvalue| of the Lambda-restricted Hessian (E is an
    orthonormal basis of Lambda)."""
    blocks = E.T @ hessians @ E
    sym = 0.5 * (blocks + blocks.swapaxes(1, 2))
    return (np.linalg.norm(grads @ E, axis=1),
            np.min(np.abs(np.linalg.eigvalsh(sym)), axis=1))


def check_morse_at(
    h: SeriesHamiltonian,
    s: RationalSubspace,
    point: Sequence[float],
    params: MorseParams,
    L: int,
) -> BranchResult:
    """Two-branch Morse test for one subspace at one point of h's ball."""
    series = h.series
    pts = np.asarray(point, dtype=float).reshape(1, -1)
    if not series.domain.contains_action(pts[0], series.center):
        raise ValueError(f"point {pts[0]} outside the action ball of radius "
                         f"{series.domain.R} around {series.center}")
    grads, sigmas = _branch_scores(h.grad(pts), h.hess(pts), adapted_coordinates(s))
    g, sigma = float(grads[0]), float(sigmas[0])
    thr = params.threshold(L)
    if g > thr:
        return BranchResult("gradient", g, math.nan, thr)
    if sigma > thr:
        return BranchResult("hessian", g, sigma, thr)
    return BranchResult("fail", g, sigma, thr)


def action_ball_grid(n: int, R: float, res: int) -> np.ndarray:
    """Grid over the Euclidean ball of radius R (cube grid, filtered)."""
    axis = np.linspace(-R, R, res)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return pts[np.linalg.norm(pts, axis=1) <= R * (1 + 1e-12)]


@dataclass(frozen=True)
class SubspaceMargin:
    """Per-subspace summary: the binding margin over the sampled ball."""

    subspace: RationalSubspace
    L_min: int                  # smallest L with Lambda in G^L(n, k)
    margin: float               # min over points of max(grad_norm, sigma_min)
    worst_point: tuple[float, ...]
    worst_grad: float
    worst_sigma: float


def subspace_margins(h: SeriesHamiltonian, L_max: int, res: int) -> list[SubspaceMargin]:
    """Margins for every subspace of every G^L(n, k), L <= L_max, each at its
    minimal L, over a grid of h's own ball (n, R and center from ``h.series``).
    The Morse condition at parameters (gamma, tau) then reads
    margin > gamma * L_min^{-tau} for every entry."""
    series = h.series
    n, R = series.domain.n, series.domain.R
    pts = np.asarray(series.center, dtype=float) + action_ball_grid(n, R, res)
    if not len(pts):
        raise ValueError(f"grid_res={res} puts no grid point in the ball of radius {R}")
    grads = h.grad(pts)
    hessians = h.hess(pts)
    out: list[SubspaceMargin] = []
    for L, sub in enumerate_GL(n, L_max):
        gp, sigmas = _branch_scores(grads, hessians, adapted_coordinates(sub))
        scores = np.maximum(gp, sigmas)
        i = int(np.argmin(scores))
        out.append(SubspaceMargin(sub, L, float(scores[i]), tuple(pts[i].tolist()),
                                  float(gp[i]), float(sigmas[i])))
    return out


@dataclass(frozen=True)
class MorseReport:
    """Aggregated Morse check: failures carry the subspace, the witness point
    and both branch margins."""

    params: MorseParams
    L_max: int
    grid_res: int
    subspace_counts: dict[int, int]          # dimension k -> how many tested
    margins: tuple[SubspaceMargin, ...]
    failures: tuple[SubspaceMargin, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_morse(
    h: SeriesHamiltonian,
    params: MorseParams,
    L_max: int,
    n: int,
    grid_res: int = 33,
) -> MorseReport:
    """Enumerate G^L(n, k) for L <= L_max and test the Morse alternative on a
    grid of h's ball; a subspace fails if some point defeats both branches.
    ``n`` must be h's number of actions."""
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    if n != h.series.domain.n:
        raise ValueError(f"n={n} does not match h, which has {h.series.domain.n} actions")
    margins = subspace_margins(h, L_max, grid_res)
    failures = tuple(
        m for m in margins if m.margin <= params.threshold(m.L_min)
    )
    counts: dict[int, int] = {}
    for m in margins:
        counts[m.subspace.dim] = counts.get(m.subspace.dim, 0) + 1
    return MorseReport(params, L_max, grid_res, counts, tuple(margins), failures)


def best_gamma(margins: Sequence[SubspaceMargin], tau: float) -> float | None:
    """Largest ladder gamma for which every margin beats gamma * L^{-tau}."""
    bound = min((m.margin * m.L_min ** tau for m in margins), default=math.inf)
    for g in DEFAULT_GAMMA_LADDER:
        if g < bound:
            return g
    return None


@dataclass(frozen=True)
class PrevalenceReport:
    """Monte-Carlo sample of the linear-shift prevalence claim (recorded, not
    asserted: desk-scale evidence only)."""

    num_samples: int
    fraction: float | None      # None when num_samples == 0 (undefined)
    gammas: tuple[float | None, ...]
    histogram: dict[float, int]
    tau: float
    L_max: int
    grid_res: int
    seed: int


def sample_prevalence(
    h: SeriesHamiltonian,
    tau: float,
    num_samples: int,
    xi_box: float,
    n: int,
    L_max: int = 2,
    grid_res: int = 17,
    seed: int = 0,
) -> PrevalenceReport:
    """Draw xi uniformly from a box and search the gamma ladder for h - xi.I,
    built as the series h - xi.(I - center): the constant xi.center does not
    change its gradient or Hessian.

    Requires tau > 2(n^2 + 1), matching the hypothesis under which the shift
    family is known to be almost-surely Morse.  ``n`` must be h's number of
    actions.
    """
    if n != h.series.domain.n:
        raise ValueError(f"n={n} does not match h, which has {h.series.domain.n} actions")
    if tau <= 2 * (n ** 2 + 1):
        raise ValueError(f"prevalence sampling needs tau > 2(n^2+1) = {2 * (n**2 + 1)}")
    series = h.series
    rng = np.random.default_rng(seed)
    gammas: list[float | None] = []
    hist: dict[float, int] = {}
    for _ in range(num_samples):
        xi = rng.uniform(-xi_box, xi_box, size=n)
        shifted = SeriesHamiltonian(series - FourierTaylorSeries.linear(
            series.domain, xi, series.k_max, series.d_max, series.center,
        ))
        margins = subspace_margins(shifted, L_max, grid_res)
        g = best_gamma(margins, tau)
        gammas.append(g)
        if g is not None:
            hist[g] = hist.get(g, 0) + 1
    fraction = (
        sum(1 for g in gammas if g is not None) / num_samples if num_samples else None
    )
    return PrevalenceReport(
        num_samples, fraction, tuple(gammas), hist, tau, L_max, grid_res, seed
    )


# -- steepness escape ---------------------------------------------------------------


@dataclass(frozen=True)
class SteepnessQuery:
    """A sampled continuous path in an affine subspace lambda_j inside B_R(center)."""

    times: np.ndarray
    points: np.ndarray          # (m, n) samples of Gamma_j(t), absolute actions
    c: float                    # target curve length (sup-norm displacement)
    frame: ResonanceFrame
    R: float
    grid_tol: float = 0.25      # max sup-norm gap between consecutive samples
    center: np.ndarray | float = 0.0    # center of the action ball

    def __post_init__(self) -> None:
        if len(self.times) != len(self.points):
            raise ValueError("times and points must align")
        if len(self.times) < 1:
            raise ValueError("empty curve")
        if not 0 < self.c < 1:
            raise ValueError("length threshold c must lie in (0, 1)")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must strictly increase")
        if np.max(np.abs(self.points - self.center)) > self.R * (1 + 1e-9):
            raise ValueError("curve leaves the action ball")
        Pi, Pperp = projections(self.frame)
        disp = self.points - self.points[0]
        off = np.max(np.abs(disp @ Pperp.T)) if len(disp) else 0.0
        if off > 1e-8 * max(1.0, self.R):
            raise ValueError(
                f"curve leaves the affine subspace (transverse offset {off:.3e})"
            )
        gaps = np.max(np.abs(np.diff(self.points, axis=0)), axis=1) if len(self.points) > 1 else []
        if len(gaps) and np.max(gaps) > self.grid_tol:
            raise ValueError("consecutive samples too far apart")


@dataclass(frozen=True)
class EscapeResult:
    """Escape-time search outcome on a sampled curve.

    The scan ends at the first sample whose displacement reaches c, so every
    sample before a found escape lies inside the c-ball: the containment
    clause holds whenever ``found`` does.
    """

    found: bool
    time: float | None
    index: int | None
    grad_sup: float | None          # |Pi_j grad h|_inf at the escape sample
    grad_threshold: float
    length_margin: float            # multiplier*gamma*L^-tau - c (precondition)


def steepness_escape(
    q: SteepnessQuery,
    h: SeriesHamiltonian,
    gamma: float,
    tau: float,
    grad_multiplier: float = 1.0,
    length_multiplier: float = 1.0,
) -> EscapeResult:
    """Scan the curve for the first time the projected gradient exceeds the
    configured multiple of c^2, up to and including the first sample whose
    displacement reaches c; the gradient over that stretch is one stacked
    read.

    Not finding one contradicts the steepness escape property whenever h
    passed the Morse check.
    """
    L = q.frame.l_index
    length_cap = length_multiplier * gamma * float(L) ** (-tau)
    if q.c > length_cap:
        raise ValueError(
            f"length threshold c={q.c} exceeds its cap {length_cap} "
            f"(c must be << gamma L^-tau; adjust the multiplier)"
        )
    disp = np.max(np.abs(q.points - q.points[0]), axis=1)
    reached = np.flatnonzero(disp >= q.c)
    if not len(reached):
        raise ValueError("curve never reaches length c; precondition violated")
    Pi, _ = projections(q.frame)
    thr = grad_multiplier * q.c ** 2
    grads = np.max(np.abs(h.grad(q.points[: reached[0] + 1]) @ Pi.T), axis=1)
    hits = np.flatnonzero(grads > thr)
    if not len(hits):
        return EscapeResult(False, None, None, None, thr, length_cap - q.c)
    i = int(hits[0])
    return EscapeResult(True, float(q.times[i]), i, float(grads[i]), thr, length_cap - q.c)
