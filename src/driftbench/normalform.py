"""Constructive averaging along periodic frequencies.

For a T-periodic frequency the time average along the linear flow and the
generating-function integral are realized mode-wise, exactly: averaging
keeps the Fourier modes with k.omega = 0, and the homological equation
{chi, l_omega} = f - [f] divides each remaining mode by 2*pi*i*(k.omega).
Divisors are never small here: k.omega is a nonzero multiple of 1/T.  This
replaces quadrature with exact algebra, so the core identities can be tested
coefficient-exactly.

Transformations are truncated Lie-series exponentials of the generators; the
multi-frequency normal form composes single-frequency averagings, rewriting
the linear part between stages.  Norm bookkeeping is measured, not derived:
remainder norms, displacement sups, and smallness margins are recorded in
each result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

import numpy as np

from .diophantine import PeriodicVector, ResonanceFrame, frequency_gap
from .dynamics import tau_m_value
from .series import (
    Domain,
    DomainError,
    FourierTaylorSeries,
    HamiltonianSystem,
    SeriesStack,
    poisson_bracket,
    recenter_scale,
)
from .systems import SeriesHamiltonian


class AveragingDivergenceError(RuntimeError):
    """Remainder norm grew between iterations; carries the iteration trace."""

    def __init__(self, trace: Sequence[float]) -> None:
        super().__init__(f"remainder norms grew: {list(trace)}")
        self.trace = list(trace)


class HomologicalInconsistencyError(RuntimeError):
    """An averaging step's generator fails {chi, l_omega} = f - [f]."""


@dataclass(frozen=True)
class NormalFormConfig:
    """Iteration and truncation knobs for the averaging transforms.

    ``m`` is the iteration count driving the remainder decay; ``rho(i)`` is
    the 2^i domain-radius schedule.  The <.-type smallness margins are
    reported against 1, i.e. with the implicit constants taken as 1.
    """

    m: int
    lie_order: int = 6

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("iteration count m must be >= 1")
        if self.lie_order < 1:
            raise ValueError("lie_order must be >= 1")

    @staticmethod
    def rho(i: int) -> float:
        return 2.0 ** i


def resonant_split(
    f: FourierTaylorSeries, w: PeriodicVector
) -> tuple[FourierTaylorSeries, FourierTaylorSeries]:
    """Split f into its omega-resonant part (modes with k.omega = 0, exactly)
    and the rest.  k.omega = 0 is decided on the integer k.(T omega)."""
    Tw = w.integer_vector()
    res = {}
    non = {}
    for (k, l), c in f.items():
        if sum(map(mul, k, Tw)) == 0:
            res[(k, l)] = c
        else:
            non[(k, l)] = c
    return f._derive(res, trunc_loss=f.trunc_loss), f._derive(non, trunc_loss=f.trunc_loss)


def homological_solve(f: FourierTaylorSeries, w: PeriodicVector) -> FourierTaylorSeries:
    """Solve {chi, l_omega} = f - [f]_omega mode-wise.

    Every divided mode has k.omega = m/T with m = k.(T omega) a nonzero
    integer, so |k.omega| >= 1/T holds exactly and no small divisor occurs.
    """
    Tw, T = w.integer_vector(), w.period
    divisor: dict[int, complex] = {}  # 2*pi*i*m/T per distinct m, formed once
    out = {}
    for (k, l), c in f.items():
        m = sum(map(mul, k, Tw))
        if m == 0:
            continue
        d = divisor.get(m)
        if d is None:
            d = divisor[m] = 2j * math.pi * (m * T.denominator / T.numerator)
        out[(k, l)] = c / d
    return f._derive(out)


def lie_transform(
    H: FourierTaylorSeries, chi: FourierTaylorSeries, order: int,
) -> FourierTaylorSeries:
    """Truncated Lie exponential H + {H,chi} + {{H,chi},chi}/2! + ...

    This is the pullback of H by the time-one flow of chi, exact to the given
    order in chi; symplecticity holds to the same order by construction.
    Truncation losses of the inner brackets accumulate on the result.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if chi.is_zero:
        return H
    out = H
    term = H
    for p in range(1, order + 1):
        term = poisson_bracket(term, chi).scaled(1.0 / p)
        if term.is_zero and term.trunc_loss.is_zero:
            break
        out = out + term
    return out


@dataclass(frozen=True)
class AveragingStep:
    """One elementary averaging step along a periodic frequency."""

    frequency: PeriodicVector
    resonant_part: FourierTaylorSeries
    generator: FourierTaylorSeries
    remainder_norm: float                  # coefficient l1 norm after the step
    homological_defect: float              # relative defect of {chi, l_w} = f - [f]

    def __post_init__(self) -> None:
        if self.homological_defect > 1e-12:
            raise HomologicalInconsistencyError(
                f"homological identity violated: relative defect {self.homological_defect}"
            )


@dataclass(frozen=True)
class SmallnessReport:
    """Measured margins for the T*mu-type smallness conditions (reported, not
    enforced; the implicit constants are taken as 1)."""

    entries: tuple[tuple[str, float, float], ...]  # (name, lhs, rhs)

    @property
    def satisfied(self) -> bool:
        return all(lhs <= rhs for _, lhs, rhs in self.entries)


@dataclass
class AveragingOutcome:
    """Result of iterated averaging: H o Phi = l_omega + g + remainder."""

    frequency: PeriodicVector
    g: FourierTaylorSeries
    remainder: FourierTaylorSeries
    steps: list[AveragingStep]
    remainder_trace: list[float]
    smallness: SmallnessReport

    @property
    def generators(self) -> list[FourierTaylorSeries]:
        return [s.generator for s in self.steps]


def periodic_averaging(
    H: FourierTaylorSeries,
    w: PeriodicVector,
    cfg: NormalFormConfig,
) -> AveragingOutcome:
    """Iterate m first-order averaging steps along omega on H = l_omega + f.

    Each step filters the current non-resonant part, solves the homological
    equation, and pulls H back by the generator's Lie flow.  Per-iteration
    remainder norms are recorded; growth raises ``AveragingDivergenceError``
    with the trace.  The decay rate is measured, never assumed.
    """
    l_w = FourierTaylorSeries.linear(H.domain, w.omega, H.k_max, H.d_max, H.center)
    f = H - l_w
    mu = f.coefficient_norm()
    T = float(w.period)
    smallness = SmallnessReport((
        ("T*mu << 1", T * mu, 1.0),
        ("m*T*mu << 1", cfg.m * T * mu, 1.0),
    ))
    cur = H
    steps: list[AveragingStep] = []
    # (resonant, r) is always the split of cur - l_w: one split per step
    resonant, r = resonant_split(f, w)
    trace = [r.coefficient_norm()]
    floor = 1e-13 * max(mu, 1.0)
    for _ in range(cfg.m):
        if r.is_zero:
            break
        chi = homological_solve(r, w)
        defect = _homological_defect(chi, l_w, r)
        cur = lie_transform(cur, chi, cfg.lie_order)
        resonant_next, r_next = resonant_split(cur - l_w, w)
        norm_next = r_next.coefficient_norm()
        steps.append(AveragingStep(w, resonant, chi, norm_next, defect))
        if norm_next > max(trace[-1] * (1 + 1e-9), floor):
            raise AveragingDivergenceError(trace + [norm_next])
        trace.append(norm_next)
        resonant, r = resonant_next, r_next
    return AveragingOutcome(w, resonant, r, steps, trace, smallness)


def _homological_defect(
    chi: FourierTaylorSeries, l_w: FourierTaylorSeries, rhs: FourierTaylorSeries
) -> float:
    lhs = poisson_bracket(chi, l_w)
    scale = max(rhs.coefficient_norm(), 1e-300)
    return (lhs - rhs).coefficient_norm() / scale


@dataclass
class TransformData:
    """Composed symplectic transformation as generator data.

    ``generators`` are listed in application order (pullbacks compose left to
    right).  The inverse is realized by the reversed, negated generator list
    at the same Lie order.
    """

    generators: list[FourierTaylorSeries]
    lie_order: int

    def pullback(self, s: FourierTaylorSeries) -> FourierTaylorSeries:
        out = s
        for chi in self.generators:
            out = lie_transform(out, chi, self.lie_order)
        return out

    def pullback_inverse(self, s: FourierTaylorSeries) -> FourierTaylorSeries:
        out = s
        for chi in reversed(self.generators):
            out = lie_transform(out, -chi, self.lie_order)
        return out

    def action_displacement(
        self, k_max: int, d_max: int
    ) -> list[FourierTaylorSeries]:
        """Series for (Pi_I Phi - Id)_j: the coordinate functions pulled back."""
        if not self.generators:
            return []
        dom = self.generators[0].domain
        center = self.generators[0].center
        out = []
        for j in range(dom.n):
            coord = FourierTaylorSeries.action_coordinate(
                dom, j, k_max=k_max, d_max=d_max, center=center
            )
            out.append(self.pullback(coord) - coord)
        return out

    def angle_displacement(
        self, k_max: int, d_max: int
    ) -> list[FourierTaylorSeries]:
        """Series for (Pi_theta Phi - Id)_j.

        The angle coordinate itself is not a torus function, but its
        displacement under the generator flow is: {theta_j, chi} = d chi/dI_j
        and the higher brackets stay periodic.
        """
        if not self.generators:
            return []
        dom = self.generators[0].domain
        out = []
        for j in range(dom.n):
            total = FourierTaylorSeries.zero(dom, k_max, d_max,
                                             self.generators[0].center)
            for g_idx, chi in enumerate(self.generators):
                term = chi.partial_action(j).with_bounds(k_max, d_max)
                disp = term
                for p in range(2, self.lie_order + 1):
                    term = poisson_bracket(term, chi, k_max=k_max, d_max=d_max
                                           ).scaled(1.0 / p)
                    if term.is_zero:
                        break
                    disp = disp + term
                # later generators act on the already-displaced coordinate
                later = TransformData(self.generators[g_idx + 1:], self.lie_order)
                total = later.pullback(disp) + total
            out.append(total)
        return out


@dataclass
class NormalFormResult:
    """A composed normal form H o Phi = l_j + g + remainder (or, after scaling
    back, H o Psi = h + g + remainder) with measured certificates."""

    frame: ResonanceFrame
    steps: list[list[AveragingStep]]
    g: FourierTaylorSeries
    remainder: FourierTaylorSeries
    transform: TransformData
    certificates: dict[str, float]
    symmetry_checked: bool = False


def _cartesian(axis: np.ndarray, n: int) -> np.ndarray:
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _theta_points(res: int, n: int) -> np.ndarray:
    """res uniform points per angle on T^n, as (res^n, n) rows."""
    return _cartesian(np.arange(res) / res, n)


def _action_points(res: int, radius: float, center: np.ndarray) -> np.ndarray:
    """res points per action across the cube of half-width radius around
    center.  The center is added even when it is zeros, which turns -0.0
    into 0.0."""
    return _cartesian(np.linspace(-radius, radius, res), len(center)) + center


def verify_resonant_symmetry(g: FourierTaylorSeries, frame: ResonanceFrame) -> bool:
    """True iff every stored mode (k, l) of g annihilates the whole frame,
    decided exactly on integers: k.(T_i omega_i) = 0 for every frame vector.

    Every stored mode counts, whatever its size: there is no tolerance.
    """
    Tws = [pv.integer_vector() for pv in frame.vectors]
    for (k, _), _c in g.items():
        if any(sum(map(mul, k, Tw)) for Tw in Tws):
            return False
    return True


def composed_normal_form(
    H: FourierTaylorSeries,
    frame: ResonanceFrame,
    cfg: NormalFormConfig,
) -> NormalFormResult:
    """Multi-frequency normal form along an ordered independent frame.

    Averages along the last frame vector, rewrites the linear part around the
    previous one, recurses, and accumulates the pulled-back remainders.  The
    final resonant part g annihilates every frame frequency mode-wise (the
    symmetry propagates because all the filters and divisions preserve each
    mode condition and brackets only add Fourier indices).
    """
    result = _composed(H, frame, cfg)
    result.symmetry_checked = verify_resonant_symmetry(result.g, frame)
    return result


def _composed(
    H: FourierTaylorSeries, frame: ResonanceFrame, cfg: NormalFormConfig
) -> NormalFormResult:
    """``composed_normal_form`` without the symmetry check."""
    if frame.j == 0:
        raise ValueError("composed_normal_form needs at least one frequency")
    g, remainder, steps, gens, margins = _composed_rec(H, list(frame.vectors), cfg)
    certificates = {
        "g_norm": g.coefficient_norm(),
        "remainder_norm": remainder.coefficient_norm(),
        "remainder_trunc_loss": remainder.trunc_loss.raw,
    }
    certificates.update(margins)
    return NormalFormResult(
        frame=frame, steps=steps, g=g, remainder=remainder,
        transform=TransformData(gens, cfg.lie_order), certificates=certificates,
    )


def _composed_rec(
    H: FourierTaylorSeries,
    freqs: list[PeriodicVector],
    cfg: NormalFormConfig,
) -> tuple[
    FourierTaylorSeries, FourierTaylorSeries,
    list[list[AveragingStep]], list[FourierTaylorSeries], dict[str, float],
]:
    w = freqs[-1]
    stage = len(freqs)
    outcome = periodic_averaging(H, w, cfg)
    margins = {
        f"A{stage}:{name}": lhs / rhs if rhs else math.inf
        for name, lhs, rhs in outcome.smallness.entries
    }
    if len(freqs) == 1:
        return outcome.g, outcome.remainder, [outcome.steps], outcome.generators, margins
    w_prev = freqs[-2]
    l_w = FourierTaylorSeries.linear(H.domain, w.omega, H.k_max, H.d_max, H.center)
    l_prev = FourierTaylorSeries.linear(H.domain, w_prev.omega, H.k_max, H.d_max, H.center)
    gap = frequency_gap(w, w_prev)
    mu_prev = (H - l_w).coefficient_norm()
    margins[f"A{stage}:|w-w_prev|/mu_prev"] = gap / mu_prev if mu_prev else math.inf
    f_tilde = (l_w - l_prev) + outcome.g
    g_inner, rem_inner, steps_inner, gens_inner, inner_margins = _composed_rec(
        l_prev + f_tilde, freqs[:-1], cfg
    )
    margins.update(inner_margins)
    carried = TransformData(gens_inner, cfg.lie_order).pullback(outcome.remainder)
    g_total = (l_prev - l_w) + g_inner
    remainder = rem_inner + carried
    return (
        g_total, remainder, [outcome.steps] + steps_inner,
        outcome.generators + gens_inner, margins,
    )


# -- localization around an action point ---------------------------------------------


@dataclass
class LocalizedHamiltonian:
    """Rescaled Hamiltonian mu^{-1} (H o sigma) = l_omega + f_tilde, where
    sigma: (theta, J) -> (theta, center + mu*J)."""

    l_series: FourierTaylorSeries
    f_tilde: FourierTaylorSeries
    h_tilde: FourierTaylorSeries          # gradient mismatch + Taylor block
    f_scaled: FourierTaylorSeries         # mu^{-1} (f o sigma)

    def total(self) -> FourierTaylorSeries:
        return self.l_series + self.f_tilde


def localize_and_scale(
    system: HamiltonianSystem,
    I_center: Sequence[float],
    mu: float,
    omega: PeriodicVector | None,
    rho: float = 2.0,
) -> LocalizedHamiltonian:
    """Translate and rescale the actions around I_center by mu.

    The integrable part re-expands exactly (polynomial identity); the linear
    term splits into omega.J plus the gradient-mismatch term, which joins the
    quadratic-and-higher Taylor block and the rescaled perturbation in
    f_tilde.  Requires B(I_center, 3*rho*mu) inside the domain ball and a
    supplied periodic vector near grad h(I_center).  h is not read at
    I_center: the mismatch is h_tilde's degree-1 part, and its size is
    measured by ``local_normal_form``.
    """
    if omega is None:
        raise ValueError("localize_and_scale needs a periodic vector near grad h")
    if mu <= 0:
        raise ValueError("mu must be positive")
    domain = system.domain
    for name, dim in (("center", len(I_center)), ("periodic vector", omega.n)):
        if dim != domain.n:
            raise ValueError(f"{name} has dimension {dim}, the system has dimension {domain.n}")
    I_center = tuple(float(x) for x in I_center)
    center = system.integrable.center
    reach = max(abs(x - c) for x, c in zip(I_center, center)) + 3 * rho * mu
    if reach > domain.R * (1 + 1e-12):
        raise DomainError(
            f"ball B(center, 3*rho*mu) leaves B_R: reach {reach} > R {domain.R}"
        )
    scaled_domain = Domain(domain.n, 3 * rho)
    h_loc = recenter_scale(system.integrable, I_center, mu, new_domain=scaled_domain)
    # drop the constant h(I_center): only the gradient and higher blocks matter
    zero_idx = ((0,) * domain.n, (0,) * domain.n)
    h_loc = h_loc._derive({idx: c for idx, c in h_loc.items() if idx != zero_idx})
    h_scaled = h_loc.scaled(1.0 / mu)
    l_series = FourierTaylorSeries.linear(
        scaled_domain, omega.omega, h_scaled.k_max, max(h_scaled.d_max, 1),
        (0.0,) * domain.n,
    )
    h_tilde = h_scaled - l_series
    f_scaled = recenter_scale(
        system.perturbation, I_center, mu, new_domain=scaled_domain
    ).scaled(1.0 / mu)
    return LocalizedHamiltonian(l_series, h_tilde + f_scaled, h_tilde, f_scaled)


def _unscale(
    s: FourierTaylorSeries, center: tuple[float, ...], mu: float, back_domain: Domain
) -> FourierTaylorSeries:
    """mu * (s o sigma^{-1}): back to original actions, centered at center."""
    out = {}
    for (k, l), c in s.items():
        out[(k, l)] = c * mu ** (1 - sum(l))
    return s._derive(out, domain=back_domain, center=center)


def local_normal_form(
    system: HamiltonianSystem,
    I_center: Sequence[float],
    frame: ResonanceFrame,
    mu_schedule: Sequence[float],
    cfg: NormalFormConfig,
    theta_grid: int = 16,
    action_grid: int = 9,
) -> NormalFormResult:
    """Normal form around an action point: localize, average along the frame,
    scale back to H o Psi = h + g + remainder.

    The condition epsilon < mu_i^2 is enforced exactly; the remaining
    smallness margins are measured and recorded in the certificates.  The
    measured sup of |d_theta remainder| is compared against the regularity
    target mu_j / tau_m.
    """
    loc, result, disp_sup = _localized_form(system, I_center, frame, mu_schedule, cfg,
                                            theta_grid, action_grid)
    center = tuple(float(x) for x in I_center)
    mu_j = float(mu_schedule[-1])
    back_domain = Domain(system.domain.n, 3 * cfg.rho(frame.j) * mu_j)
    g_back = _unscale(result.g - loc.h_tilde, center, mu_j, back_domain)
    rem_back = _unscale(result.remainder, center, mu_j, back_domain)

    # measured remainder angle-derivative sup over T^n x B(center, 2*rho_1*mu_j)
    n = system.domain.n
    action_pts = _action_points(action_grid, 2 * cfg.rho(1) * mu_j,
                                np.asarray(I_center, dtype=float))
    dtheta_sup = float(np.max(np.abs(SeriesStack(
        [rem_back.partial_theta(jj) for jj in range(n)]
    ).grid_values(_theta_points(theta_grid, n), action_pts))))
    tau_m = tau_m_value(cfg.m, system.regularity)
    target = mu_j / tau_m

    grad = SeriesHamiltonian(system.integrable).grad(center)
    mismatch = float(np.max(np.abs(grad - frame.vectors[-1].as_floats())))
    b_margins = _b_condition_margins(frame, mu_schedule, cfg, mismatch)
    result.g = g_back
    result.remainder = rem_back
    result.certificates.update(
        {
            "g_norm": g_back.coefficient_norm(),
            "remainder_norm": rem_back.coefficient_norm(),
            "remainder_dtheta_sup": dtheta_sup,
            "remainder_dtheta_target": target,
            "displacement_sup": disp_sup,
            "displacement_over_mu": disp_sup / mu_j if mu_j else math.inf,
            "gradient_mismatch": mismatch,
            "f_tilde_over_mu": loc.f_tilde.coefficient_norm() / mu_j,
        }
    )
    result.certificates.update(b_margins)
    result.symmetry_checked = verify_resonant_symmetry(result.g, frame)
    return result


def _localized_form(
    system: HamiltonianSystem, I_center: Sequence[float], frame: ResonanceFrame,
    mu_schedule: Sequence[float], cfg: NormalFormConfig, theta_grid: int, action_grid: int,
) -> tuple[LocalizedHamiltonian, NormalFormResult, float]:
    """The checks, localization and averaging of ``local_normal_form`` (in the
    scaled variables) and its displacement sup, all that restrain reads."""
    j = frame.j
    if j == 0 or len(mu_schedule) != j:
        raise ValueError("mu_schedule must supply one radius per frame vector")
    eps = system.epsilon
    for i, mu_i in enumerate(mu_schedule, start=1):
        if not eps < mu_i ** 2:
            raise ValueError(
                f"condition epsilon < mu_{i}^2 fails: {eps} >= {mu_i ** 2}"
            )
    mu_j = float(mu_schedule[-1])
    loc = localize_and_scale(system, I_center, mu_j, frame.vectors[-1], cfg.rho(j))
    # g is checked for symmetry once, after scaling back
    result = _composed(loc.total(), frame, cfg)

    disp = result.transform.action_displacement(result.g.k_max, result.g.d_max)
    disp_sup = 0.0
    if disp:
        theta_pts = _theta_points(theta_grid, system.domain.n)
        ac = _action_points(action_grid, 2 * cfg.rho(1), np.zeros(disp[0].domain.n))
        disp_sup = float(np.max(np.abs(SeriesStack(disp).grid_values(theta_pts, ac))))
    return loc, result, disp_sup * mu_j


def _b_condition_margins(
    frame: ResonanceFrame, mu_schedule: Sequence[float], cfg: NormalFormConfig, mismatch: float,
) -> dict[str, float]:
    out: dict[str, float] = {}
    for i, (pv, mu_i) in enumerate(zip(frame.vectors, mu_schedule), start=1):
        T = float(pv.period)
        out[f"B{i}:T*mu"] = T * mu_i
        out[f"B{i}:m*T*mu"] = cfg.m * T * mu_i
        out[f"B{i}:mu"] = mu_i
        if i >= 2:
            gap = frequency_gap(pv, frame.vectors[i - 2])
            out[f"B{i}:|w_i - w_(i-1)|/mu_(i-1)"] = gap / mu_schedule[i - 2]
            out[f"B{i}:mu_i/mu_(i-1)"] = mu_i / mu_schedule[i - 2]
    out["B_j:gradient_mismatch/mu_j"] = mismatch / mu_schedule[-1]
    return out
