"""Restrained-solution certification and the drift-exclusion machinery.

A trajectory is *restrained* (by mu_0, up to time tau_m) if one can exhibit
nested radii mu_0 > mu_1 > ... > mu_n, independent periodic vectors
omega_1..omega_n, and times t_1 <= ... <= t_n <= tau_m satisfying the (B)
smallness/link conditions and the (C) confinement conditions.  Restrained
solutions cannot drift: their action displacement stays below
(n+1)^2 * mu_0 through tau_m.

The classical argument runs this construction on a hypothetical drifting
solution to reach a contradiction; the monitor inverts that into an
online algorithm: scan the trajectory, construct the ladder (escape times
via the steepness property, frequencies via Dirichlet approximation), and
either emit a certificate or report the first failing condition with its
margin.  Each (C_j) is measured on the samples of [t_j, t_{j+1}], the last
interval included: t_{n+1} is the horizon min(tau_m, last sample).  All
implicit constants are configurable multipliers, logged in every certificate.

Exact normalizing transforms are not available numerically; the monitor
tracks the raw trajectory and budgets the normalized-vs-raw discrepancy
from the measured transform displacements, downgrading the certificate to
``approximate`` when that budget exceeds mu_{j+1}/10.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .diophantine import (
    DirichletResult,
    DirichletScan,
    ResonanceFrame,
    _period_upper,
    frequency_gap,
    projections,
    rational_rank,
)
from .dynamics import TimeBudget, TrajectoryRecord
from .normalform import AveragingDivergenceError, NormalFormConfig, _localized_form
from .series import DomainError, Regularity
from .steepness import MorseParams, SteepnessQuery, steepness_escape
from .systems import System


@dataclass(frozen=True)
class ExponentSet:
    """Stability exponents: a_j for the radius ladder, a = b for m and mu_0."""

    n: int
    tau: Fraction
    a_list: tuple[Fraction, ...]
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if any(x <= y for x, y in zip(self.a_list[1:], self.a_list)):
            raise ValueError("a_j must increase in j")
        if self.a != self.b or self.a <= 0:
            raise ValueError("a and b must be equal and positive")


def exponents(n: int, tau) -> ExponentSet:
    """Exact ladder exponents a_j = (2 tau (n+1))^(-n-1+j) and
    a = b = (2 tau (n+1))^(-n) / 3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tau = Fraction(tau)
    if tau < 2:
        raise ValueError("tau must be >= 2")
    base = 2 * tau * (n + 1)
    a_list = tuple(base ** (-n - 1 + j) for j in range(1, n + 1))
    a = Fraction(1, 3) * base ** (-n)
    return ExponentSet(n, tau, a_list, a, a)


def time_budget(
    epsilon: float,
    regularity: Regularity,
    exps: ExponentSet,
    m_multiplier: float = 1.0,
) -> TimeBudget:
    """m = max(1, floor(multiplier * eps^-a)) and its horizon tau_m.

    At realistic eps the bare eps^-a barely exceeds 1 (the exponents are
    tiny), so desk-scale experiments drive m through the multiplier.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not (math.isfinite(m_multiplier) and m_multiplier > 0):
        raise ValueError(f"m_multiplier must be finite and positive, got {m_multiplier}")
    m = max(1, math.floor(m_multiplier * epsilon ** float(-exps.a)))
    return TimeBudget.for_m(m, regularity)


# -- the trajectory-independent conditions ------------------------------------------


@dataclass(frozen=True)
class ConditionEntry:
    name: str
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def log_margin(self) -> float:
        """log10(rhs) - log10(lhs); positive means satisfied."""
        if self.lhs == 0:
            return math.inf
        if self.rhs == 0:
            return -math.inf
        return math.log10(self.rhs) - math.log10(self.lhs)


@dataclass(frozen=True)
class ConditionReport:
    entries: tuple[ConditionEntry, ...]
    info: tuple[ConditionEntry, ...]      # rows the monitor does not require

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)


def _mu0_rows(mu0: float, gamma: float, small: float) -> list[ConditionEntry]:
    """(x) and (xi), the rows on mu_0 alone."""
    return [ConditionEntry("(x) mu_0 << gamma", mu0, small * gamma),
            ConditionEntry("(xi) mu_0 << 1", mu0, small)]


def _cap_row(j: int, c_j: float, L_j: int, gamma: float, tau: float,
             mult: dict[str, float]) -> ConditionEntry:
    """Stage j's length cap: c_j at most ``length`` gamma L_j^-tau."""
    return ConditionEntry(f"(C_{j}) c_{j} << gamma L_{j}^-tau", c_j,
                          mult["length"] * gamma * float(L_j) ** (-tau))


def _length(T: float, mu: float, L: int, tau: float) -> float:
    """The length c_j = (T_j mu_j / L_j)^tau of stage j >= 1."""
    return float((T * mu / L) ** tau)


def _stage_rows(j: int, c_j: float, mu_j: float, T_next: float, mu_next: float,
                m: int, eps: float, small: float) -> tuple[ConditionEntry, list[ConditionEntry]]:
    """Stage j's guard row and its (B_{j+1}) rows that read the witness'
    period and radius alone.  The guard is the paper's (iv) mu_1 << mu_0^2 at
    j = 0 and (i) at j >= 1; it would certify independence analytically, and
    the monitor decides independence exactly (rational rank), so it is logged
    for information only."""
    guard = ConditionEntry(f"guard (iv, info) mu_{j+1} << c_{j}^2", mu_next, small * c_j ** 2)
    return guard, [
        ConditionEntry(f"(B_{j+1}) T mu << 1", T_next * mu_next, small),
        ConditionEntry(f"(B_{j+1}) m T mu << 1", m * T_next * mu_next, small),
        ConditionEntry(f"(B_{j+1}) mu << 1", mu_next, small),
        ConditionEntry(f"(B_{j+1}) eps < mu^2", eps, mu_next ** 2),
        ConditionEntry(f"nesting 2 mu_{j+1} <= mu_{j}", 2 * mu_next, mu_j),
    ]


def check_conditions(
    n: int, tau: float, gamma: float, eps: float, m: int, mu0: float,
    mus, Ts, Ls, multipliers: dict[str, float] | None = None,
) -> ConditionReport:
    """The rows ``_ladder`` writes without the trajectory, for radii mu_1..mu_n,
    periods T_1..T_n and lattice indices L_1..L_n: (x), (xi), then the cap
    (C_j) and the (B_{j+1}) rows of each stage j from c_0 = mu_0 and L_0 = 1.
    ``info`` holds the guard rows, the ratios and (ii) c_j << mu_j, which the
    monitor does not require.  A non-positive input or a term beyond the
    float range is a ``ValueError``."""
    for name, value in (("tau", tau), ("gamma", gamma), ("eps", eps), ("m", m),
                        ("mu0", mu0), ("mus", mus), ("Ts", Ts), ("Ls", Ls)):
        if not all(0 < x < math.inf for x in np.atleast_1d(value)):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not len(mus) == len(Ts) == len(Ls) == n:
        raise ValueError("mus, Ts, Ls must have length n")
    mult = _multipliers(multipliers)
    small = mult["smallness"]
    a_list = exponents(n, Fraction(tau)).a_list
    entries, info = _mu0_rows(mu0, gamma, small), []
    mu_j, c_j, L_j = mu0, mu0, 1
    try:
        for j in range(n):
            entries.append(_cap_row(j, c_j, L_j, gamma, tau, mult))
            guard, rows = _stage_rows(j, c_j, mu_j, Ts[j], mus[j], m, eps, small)
            entries += rows
            info += [guard, ConditionEntry(f"mu_{j+1} =. c_mu T_{j+1}^-1 eps^a_{j+1} (ratio)",
                                           Ts[j] * mus[j], mult["c_mu"] * eps ** float(a_list[j]))]
            mu_j, c_j, L_j = mus[j], _length(Ts[j], mus[j], Ls[j], tau), Ls[j]
            if j + 1 < n:
                info.append(ConditionEntry(f"(ii) c_{j+1} << mu_{j+1}", c_j, small * mu_j))
    except OverflowError as exc:
        raise ValueError(f"a condition term overflows a float: {exc}") from None
    return ConditionReport(tuple(entries), tuple(info))


# -- the restrain monitor -------------------------------------------------------------


@dataclass
class FailureTrace:
    """First violated condition along the construction, with context."""

    stage: int
    condition: str
    detail: str
    margins: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"stage j={self.stage}: {self.condition} -- {self.detail}"


@dataclass
class RestrainFrame:
    """The certificate: the full ladder with every logged margin.

    Binds to the trajectory and integrator by hash.  ``approximate`` marks
    certificates whose normalized-solution tracking was downgraded because
    the measured transform error exceeded mu_{j+1}/10.
    """

    mu0: float
    mus: list[float]
    times: list[float]                 # t_1..t_n (t_0 = 0; t_{n+1} = horizon, measured)
    frame: ResonanceFrame
    centers: list[np.ndarray]          # I_1..I_n snapshots
    budget: TimeBudget
    condition_log: list[ConditionEntry]
    multipliers: dict[str, float]
    displacement_budget: float         # measured |I^j - I| allowance
    approximate: bool
    trajectory_hash: str
    config_hash: str

    def __post_init__(self) -> None:
        radii = [self.mu0] + list(self.mus)
        if any(2 * b > a for a, b in zip(radii, radii[1:])):
            raise ValueError("radius nesting 2*mu_{j+1} <= mu_j violated")
        ts = [0.0] + list(self.times) + [self.budget.tau_m]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be nondecreasing within the budget")


@dataclass
class RestrainResult:
    certificate: RestrainFrame | None
    failure: FailureTrace | None

    @property
    def restrained(self) -> bool:
        return self.certificate is not None


DEFAULT_MULTIPLIERS = {
    "c_mu": 1.0,        # mu_{j+1} = c_mu * T^{-1} eps^{a_{j+1}}
    "length": 1.0,      # cap c_j <= length * gamma * L^-tau
    "grad": 1.0,        # escape when |Pi grad h| > grad * c_j^2
    "smallness": 1.0,   # all <.-style comparisons
    "q_safety": 1.25,   # Dirichlet Q inflation
}


def _multipliers(overrides: dict[str, float] | None) -> dict[str, float]:
    """DEFAULT_MULTIPLIERS with ``overrides`` set; an unknown key or a value
    that is not finite and positive is a ``ValueError``."""
    mult = dict(DEFAULT_MULTIPLIERS)
    for key, value in (overrides or {}).items():
        if key not in DEFAULT_MULTIPLIERS:
            raise ValueError(f"unknown multiplier {key!r}; "
                             f"expected one of {sorted(DEFAULT_MULTIPLIERS)}")
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"multiplier {key} must be finite and positive, got {value}")
        mult[key] = value
    return mult


# Dirichlet witness searches per ladder stage; each retry doubles Q
INDEPENDENCE_RETRIES = 8


class _Failed(Exception):
    """A stage of the ladder failed; the args are those of its FailureTrace."""


def _require(log: list[ConditionEntry], stage: int, entry: ConditionEntry,
             detail: str | None = None) -> None:
    """Log one condition and end the ladder at ``stage`` if it fails."""
    log.append(entry)
    if not entry.ok:
        raise _Failed(stage, entry.name, detail or f"{entry.lhs} > {entry.rhs}")


def _require_confined(log: list[ConditionEntry], j: int, actions: np.ndarray,
                      mu_j: float, disp_budget: float) -> None:
    """(C_j), first display: on the samples ``actions`` of [t_j, t_{j+1}] the
    displacement from I^j(t_j) plus the transform budget stays below mu_j."""
    seg_sup = float(np.max(np.abs(actions - actions[0])))
    _require(log, j, ConditionEntry(f"(C_{j}) |I^{j}(t) - I^{j}(t_{j})| < mu_{j}",
                                    seg_sup + disp_budget, mu_j),
             f"sup {seg_sup} (+budget {disp_budget}) >= {mu_j}")


def _traj_hash(traj: TrajectoryRecord) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(traj.times).tobytes())
    h.update(np.ascontiguousarray(traj.actions).tobytes())
    return h.hexdigest()[:16]


def try_restrain(
    system: System,
    traj: TrajectoryRecord,
    mu0: float,
    budget: TimeBudget,
    morse: MorseParams,
    exps: ExponentSet | None = None,
    multipliers: dict[str, float] | None = None,
) -> RestrainResult:
    """Run the inductive ladder construction along a recorded trajectory.

    Stage j tracks the projected curve Gamma_j(t) = I_j + Pi_j (I(t) - I_j)
    with length threshold c_j ((T_j mu_j / L_j)^tau for j >= 1, mu_0 for
    j = 0).  At each escape event the gradient at the current point is
    Dirichlet-approximated to extend the frame; between events the (B)/(C)
    condition margins are verified.  No escape before the budget pins the
    remaining times at tau_m, if the projected curve stays in B_R up to
    tau_m; one that leaves it first fails at "domain".  Any violated
    condition aborts with a trace.
    """
    if not (math.isfinite(mu0) and mu0 > 0):
        raise ValueError(f"mu0 must be finite and positive, got {mu0}")
    if not 0 < system.hamiltonian.epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if len(traj.times) < 2 or not np.all(np.diff(traj.times) > 0):
        raise ValueError("the trajectory needs at least two samples at increasing times")
    mult = _multipliers(multipliers)
    try:
        return RestrainResult(_ladder(system, traj, mu0, budget, morse, exps, mult), None)
    except _Failed as failed:
        return RestrainResult(None, FailureTrace(*failed.args))


def _ladder(
    system: System, traj: TrajectoryRecord, mu0: float, budget: TimeBudget,
    morse: MorseParams, exps: ExponentSet | None, mult: dict[str, float],
) -> RestrainFrame:
    """The certificate of ``try_restrain``; raises ``_Failed`` at the first
    violated condition.  Every stage runs one body on (frame, idx_j, mu_j,
    c_j), set to (empty, 0, mu_0, mu_0) first and from each stage's witness
    after it (notes/decisions.md, "One stage body")."""
    h, ham = system.h_action, system.hamiltonian
    n, eps = ham.domain.n, ham.epsilon
    exps = exps or exponents(n, Fraction(morse.tau))
    gamma, tau = morse.gamma, morse.tau
    small = mult["smallness"]
    tau_m = min(budget.tau_m, float(traj.times[-1]))
    R, center = ham.domain.R, np.asarray(ham.integrable.center)
    log: list[ConditionEntry] = []

    for e in _mu0_rows(mu0, gamma, small):
        _require(log, 0, e)
    _require(log, 0, ConditionEntry("(n+1)^2 mu_0 < R/2", (n + 1) ** 2 * mu0, R / 2))

    frame = ResonanceFrame.build([], n=n)
    times: list[float] = []
    mus: list[float] = []
    centers: list[np.ndarray] = []
    disp_budget = 0.0
    approximate = False
    idx_j = 0  # sample index of t_j
    upto = int(np.searchsorted(traj.times, tau_m, side="right"))  # samples up to tau_m
    mu_j = c_j = mu0

    for j in range(n):
        Pi, _ = projections(frame)
        I_j = traj.actions[idx_j]
        # projected curve from t_j up to tau_m, clipped to B_R as SteepnessQuery tests it
        curve = I_j + (traj.actions[idx_j:upto] - I_j) @ Pi.T
        inside = np.max(np.abs(curve - center), axis=1) <= R * (1 + 1e-9)
        cut = int(np.argmin(inside)) if not np.all(inside) else len(curve)
        curve = curve[:cut]
        ctimes = traj.times[idx_j : idx_j + cut]
        if len(curve) < 1:
            raise _Failed(j, "domain", "curve left B_R immediately")

        cap = _cap_row(j, c_j, frame.l_index, gamma, tau, mult)
        _require(log, j, cap, f"c_j={c_j} > cap={cap.rhs}")

        reach = float(np.max(np.max(np.abs(curve - curve[0]), axis=1)))
        if reach >= c_j and c_j < 1:
            try:
                q = SteepnessQuery(
                    ctimes, curve, c_j, frame, R=R,
                    grid_tol=max(0.25, 2 * c_j), center=center,
                )
            except ValueError as exc:
                raise _Failed(j, "curve sampling",
                              f"projected curve unusable for the escape scan: {exc}")
            er = steepness_escape(q, h, gamma, tau, grad_multiplier=mult["grad"],
                                  length_multiplier=mult["length"])
            if not er.found:
                raise _Failed(
                    j, "steepness escape not found",
                    "projected gradient never exceeded the threshold before "
                    "the curve length was spent; counterexample candidate "
                    "for the steepness property if h passed the Morse check",
                    {"c_j": c_j, "threshold": er.grad_threshold},
                )
            idx_next = idx_j + er.index
            t_next = float(er.time)
        else:
            # no escape within the budget: pin the remaining time at tau_m,
            # unless the curve left B_R before it, unread beyond the exit
            if idx_j + cut < upto:
                raise _Failed(j, "domain", "curve left B_R before tau_m")
            idx_next = idx_j + cut - 1
            t_next = tau_m

        _require_confined(log, j, traj.actions[idx_j : idx_next + 1], mu_j, disp_budget)

        # Dirichlet step: approximate grad h at the new point
        point = traj.actions[idx_next]
        a_next = float(exps.a_list[j])
        scale = mult["c_mu"] * eps ** a_next          # mu_{j+1} = scale / T_{j+1}
        Q = max(2.0, mult["q_safety"] * eps ** (-a_next * (n - 1)) / mult["c_mu"] ** (n - 1))
        grad = h.grad(point)
        margins = {"guard (iv) rhs": c_j ** 2}
        try:
            found = _witness(grad, Q, frame, scale, eps, mu_j, small * mu_j)
        except ValueError as exc:   # zero, non-finite or tiny grad h: no Q helps
            raise _Failed(j, "independence / (B_(j+1)) witness search",
                          f"no Dirichlet approximation of grad h({point}): {exc}", margins)
        if found is None:
            raise _Failed(j, "independence / (B_(j+1)) witness search",
                          f"no independent periodic vector near grad h({point}) meeting "
                          f"the (B) bounds up to Q={Q * 2 ** (INDEPENDENCE_RETRIES - 1)}",
                          margins)
        dr, extended = found
        T_next = float(dr.vector.period)
        mu_next = scale / T_next

        guard, rows = _stage_rows(j, c_j, mu_j, T_next, mu_next, budget.m, eps, small)
        log.append(guard)
        _require(log, j, ConditionEntry(f"(B_{j+1}) |grad h - w_{j+1}| < mu_{j+1}",
                                        float(dr.error), mu_next))
        for e in rows:
            _require(log, j, e)
        if j >= 1:
            _require(log, j, ConditionEntry(f"(B_{j+1}) |w_{j+1} - w_{j}| << mu_{j}",
                                            frequency_gap(dr.vector, frame.vectors[-1]),
                                            small * mu_j))

        # normalizing transform: budget the normalized-vs-raw discrepancy
        disp_budget += _transform_displacement(system, point, extended, mus + [mu_next], budget)
        approximate |= disp_budget > mu_next / 10

        frame = extended
        times.append(t_next)
        mus.append(mu_next)
        centers.append(np.array(point))
        idx_j = idx_next
        mu_j = mu_next
        c_j = _length(T_next, mu_next, frame.l_index, tau)

    # the last interval [t_n, t_{n+1}] is measured as the others are, on the
    # samples up to the horizon t_{n+1} = min(tau_m, last sample)
    _require_confined(log, n, traj.actions[idx_j:upto], mu_j, disp_budget)

    return RestrainFrame(
        mu0=mu0, mus=mus, times=times, frame=frame, centers=centers,
        budget=budget, condition_log=log, multipliers=mult,
        displacement_budget=disp_budget, approximate=approximate,
        trajectory_hash=_traj_hash(traj),
        config_hash=str(traj.metadata.get("config_hash", "")),
    )


def _witness(
    grad: np.ndarray, Q: float, frame: ResonanceFrame, scale: float, eps: float,
    mu_j: float, gap_cap: float,
) -> tuple[DirichletResult, ResonanceFrame] | None:
    """The next stage's witness and extended frame, or None.

    The witness is the first Dirichlet candidate of grad h (smallest period
    first) that is independent of the frame and meets the T-dependent parts
    of (B_{j+1}) for mu = scale/T: error below mu, eps < mu^2, 2 mu <= mu_j
    and, for j >= 1, a frequency gap of at most gap_cap.  The candidates are
    those of INDEPENDENCE_RETRIES searches at Q 2^r, the first search that
    holds an accepted one deciding.  One pass over one ``DirichletScan``
    finds it (notes/decisions.md, "The witness search is one pass over the
    shells"): a shell's gcd-1 roundings are its candidates, in (T, T*omega)
    order; each is judged by the first search r whose shells reach it, which
    raises its own errors and gives the witness its bounds; and only shells
    with 2 scale/mu_j <= T < scale/sqrt(eps) can hold it.
    """
    v = tuple(grad)
    scan = DirichletScan(v, Q)
    D, Vn, P, S = scan.D, scan.Vn, scan.P, scan.S
    # the window's first shell, rounded down; every shell is still tested
    lo = 2 * scale / mu_j * (Vn / D) * (1 - 1e-9)
    q = int(lo) if 1 < lo < math.inf else 1
    r = examined = 0        # r: the first search whose shells reach q
    while True:
        while q > (P << r) // S:
            r += 1
            if r == INDEPENDENCE_RETRIES:
                return None
            _period_upper(Q * 2 ** r, v, Fraction(Vn, D))    # search r's errors
        mu_c = scale / (q * D / Vn)
        if not eps < mu_c ** 2:
            # nor in any later shell, as mu_c only falls: run out the
            # searches, whose errors still raise
            q = math.inf
        elif 2 * mu_c <= mu_j:
            for w, g, E in scan.roundings(q):
                examined += 1
                if not scan.feasible(g, E, r) or E / (q * D) >= mu_c:
                    continue
                cand = scan.result(q, w, E, examined, r)
                if frame.j and frequency_gap(cand.vector, frame.vectors[-1]) > gap_cap:
                    continue
                vecs = frame.vectors + (cand.vector,)
                if rational_rank([pv.omega for pv in vecs]) == frame.j + 1:
                    return cand, ResonanceFrame.build(vecs)
        q += 1


def _transform_displacement(
    system: System,
    center: np.ndarray,
    frame: ResonanceFrame,
    mu_schedule: list[float],
    budget: TimeBudget,
) -> float:
    """Measured action displacement of the normalizing transform Psi_j, read
    from the core of ``local_normal_form``; falls back to the first-order bound
    T*mu*mu when the averaging diverges (``AveragingDivergenceError``) or the
    localized domain is too tight (``DomainError``).  Other errors propagate."""
    mu_j = mu_schedule[-1]
    cfg = NormalFormConfig(m=min(budget.m, 2), lie_order=3)
    try:
        return _localized_form(
            system.hamiltonian, tuple(center), frame, mu_schedule, cfg,
            theta_grid=6, action_grid=5,
        )[2]
    except (AveragingDivergenceError, DomainError):
        return float(frame.vectors[-1].period) * mu_j * mu_j


# -- consequences ---------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityCheck:
    ok: bool
    bound: float
    max_displacement: float
    witness_time: float | None
    chain_bound: float


def chain_bound(cert: RestrainFrame) -> float:
    """Arithmetic worst-case displacement implied by the certificate ladder.

    Interval j contributes its confinement radius mu_j; each normalization
    conversion contributes the logged displacement allowance.  The total must
    not exceed (n+1)^2 mu_0 for the certificate to imply stability.
    """
    radii = [cert.mu0] + list(cert.mus)
    n = len(cert.mus)
    kappa = cert.displacement_budget
    b = 0.0
    worst = 0.0
    for j in range(n + 1):
        here = j * kappa + radii[j] + b
        worst = max(worst, here)
        if j < n:
            b = b + radii[j] + kappa
    return worst


def restrained_implies_stable(
    cert: RestrainFrame, traj: TrajectoryRecord
) -> StabilityCheck:
    """Check |I(t) - I(0)| < (n+1)^2 mu_0 on the samples up to tau_m."""
    n = traj.actions.shape[1]
    bound = (n + 1) ** 2 * cert.mu0
    upto = np.searchsorted(traj.times, cert.budget.tau_m, side="right")
    disp = np.max(np.abs(traj.actions[:upto] - traj.actions[0]), axis=1)
    worst = float(np.max(disp))
    witness = None
    if worst >= bound:
        witness = float(traj.times[int(np.argmax(disp >= bound))])
    return StabilityCheck(worst < bound, bound, worst, witness, chain_bound(cert))
