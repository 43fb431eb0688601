"""Symplectic integration of Fourier-Taylor Hamiltonians and drift measures.

Two schemes: a symmetric second-order splitting when the Hamiltonian
separates cleanly by modes (the angle-average part drifts the angles, the
purely angle-dependent part kicks the actions), and an implicit midpoint
fallback for non-separable truncations.  Both are symplectic; energy along
the trajectory is monitored, never corrected.  The splitting runs in leapfrog
form: only the kick moves the actions, so one gradient read of the average
part per step serves two half-drifts, bit-identical to drift-kick-drift.  Its
step is straight-line Python generated for each split: the source holds
names only, the series' floats are unpacked from one tuple into locals when
the function starts, and no operation is emitted whose result is exactly
another's, or differs from it only in the sign of a zero that the angle
wrap does not see (``d ** 1``, ``0.0 +``, ``x - 0.0``, ...).  The wrap
runs ``% 1.0`` only on an angle outside (0, 1), where it can change it.

The midpoint iterates on z = (theta, I) in straight-line Python generated
the same way: each iteration reads cos/sin once per mode pair and each power
once, every field row shares those reads, and neither a zero part of a
coefficient nor a zero center is read.  Each scheme's step sits in
one generated ``run(theta, action, dt, n_steps, stride, stop_when)`` that
holds the sample loop as well: one call steps a whole trajectory in blocks
of ``stride`` steps with no sample test between steps, records the state
after each block and checks it with one chained test (inside the ball, angles
finite); only when that fails does it reject a non-finite state or stop
escaped.  It then stops at ``drift_time``'s crossing, compiled in, or
when ``stop_when`` says so.  The energy monitor reads H at every
recorded sample after it, in stacked ``SeriesStack`` reads of sample blocks.
A trajectory escapes when its action leaves the ball of radius R around the
series center.  Escape and crossing times are reported at sample resolution
with a one-step bracket and no interpolation.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .diophantine import ResonanceFrame, projections
from .series import (
    TWO_PI,
    FourierTaylorSeries,
    Gevrey,
    HamiltonianSystem,
    Regularity,
    SeriesStack,
    split_by_modes,
)

SENTINEL = math.inf


def tau_m_value(m: int, regularity: Regularity) -> float:
    """Stability-time scale: exp(m^(1/alpha)) for Gevrey, m^k* for C^k.

    A scale beyond the float range is a ``ValueError`` naming m and the tag.
    """
    try:
        if isinstance(regularity, Gevrey):
            return math.exp(m ** (1.0 / regularity.alpha))
        return float(m) ** regularity.k_star
    except OverflowError:
        raise ValueError(f"tau_m overflows a float at m={m} for {regularity}") from None


@dataclass(frozen=True)
class TimeBudget:
    """Iteration count m with its regularity-dependent horizon tau_m."""

    m: int
    tau_m: float
    regularity: Regularity

    def __post_init__(self) -> None:
        expected = tau_m_value(self.m, self.regularity)
        if not math.isclose(self.tau_m, expected, rel_tol=1e-12):
            raise ValueError(
                f"tau_m={self.tau_m} inconsistent with m={self.m} and "
                f"{self.regularity} (expected {expected})"
            )

    @classmethod
    def for_m(cls, m: int, regularity: Regularity) -> "TimeBudget":
        return cls(m, tau_m_value(m, regularity), regularity)


# energy_ok: max |H(t) - H(0)| <= ENERGY_TOL * max(1, |H(0)|)
ENERGY_TOL = 1e-6
# the midpoint's fixed-point iteration stops once an update is below MIDPOINT_TOL
MIDPOINT_TOL = 1e-13
MIDPOINT_MAX_ITER = 50
# one energy block's (samples x terms x n) temporaries stay under this many
# elements, so a large H is read in small blocks of samples
ENERGY_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class IntegratorConfig:
    step: float = 1e-2
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")

    def digest(self) -> str:
        # the key spells out the fixed scheme and tolerances, so that config
        # hashes in existing CSVs and certificates stay valid
        key = (
            f"{self.step:.17g}|auto|{ENERGY_TOL:.3g}|"
            f"{self.sample_stride}|{MIDPOINT_TOL:.3g}|{MIDPOINT_MAX_ITER}"
        )
        return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass
class TrajectoryRecord:
    """Sampled trajectory with energy monitoring and provenance metadata."""

    times: np.ndarray
    thetas: np.ndarray            # (N, n), angles wrapped to [0, 1)
    actions: np.ndarray           # (N, n)
    energy: np.ndarray
    escaped: bool
    metadata: dict

    def __post_init__(self) -> None:
        diffs = np.diff(self.times)
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("sample times must be strictly monotone")

    def energy_deviation(self) -> float:
        """Max |H(t) - H(0)| over the samples (absolute, not endpoint)."""
        return float(np.max(np.abs(self.energy - self.energy[0])))

    def index_at(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t))
        return min(idx, len(self.times) - 1)


@functools.lru_cache(maxsize=32)
def _compile(source: str):
    """The code object of a generated ``run``, shared by every series with
    the same structure."""
    return compile(source, "<generated step>", "exec")


def _generate(H: FourierTaylorSeries, state: list[str], consts: dict, head: list[str],
              step: list[str], reach: _Reach | None) -> Callable:
    """``run(theta, action, dt, n_steps, stride, stop_when)``: the sample loop
    of ``integrate`` around one flow's step.

    ``consts`` maps the names that the lines read, besides the state and
    ``half = 0.5 * dt``, to their floats and functions; ``run`` unpacks
    them from one tuple in its globals into locals when it starts, so the
    source holds names only.  ``state`` names the n angles, then the n
    actions.  With steps to take, ``head`` runs once; then each block of
    ``stride`` steps (the last one may be shorter) runs ``step`` for i = k,
    ..., s - 1 with no sample test between steps, k the step that opens it.
    After the block the sample at step s is recorded and checked by one
    chained test, each |x_i - c_i| <= R and each angle finite (a passing
    ball test implies finite actions); if it fails, a non-finite state
    raises ``FloatingPointError`` and a finite one ends the run escaped.
    Then ``reach``'s crossing ends the run, and last ``stop_when``.
    ``run`` returns ``(times, thetas, actions, escaped)``.
    """
    n = len(state) // 2
    consts = dict(consts, isfinite=math.isfinite, RB=H.domain.R * (1 + 1e-12))
    consts.update((f"c{i}", c) for i, c in enumerate(H.center) if c != 0.0)
    ts, xs = ", ".join(state[:n]), ", ".join(state[n:])
    finite = " and ".join(f"isfinite({v})" for v in state)
    # abs(x - 0.0) and abs(x + 0.0) are abs(x)
    inside = " and ".join([f"abs({x}{f' - c{i}' if c != 0.0 else ''}) <= RB"
                           for i, (x, c) in enumerate(zip(state[n:], H.center))]
                          + [f"isfinite({t})" for t in state[:n]])
    stop = ["    if stop_when is not None and stop_when(t, action):", "        break"]
    if reach is not None:
        consts.update({f"I{i}": a for i, a in enumerate(reach.I0)}, REACH=reach.threshold)
        far = " or ".join(f"abs({x} - I{i}) >= REACH" for i, x in enumerate(state[n:]))
        stop[:0] = [f"    if {far}:", "        break"]
    body = [f"{', '.join(consts)}, = K", f"{ts}, = theta", f"{xs}, = action",
            "half = 0.5 * dt", "times, thetas, actions = [0.0], [theta], [action]", "k = 0"]
    if head:
        body += ["if n_steps:"] + ["    " + line for line in head]
    body += ["while k < n_steps:",
             "    s = min(k + stride, n_steps)",
             "    for i in range(k, s):"] + ["        " + line for line in step] + [
        "    t = s * dt",
        f"    theta, action = [{ts}], [{xs}]",
        "    times.append(t); thetas.append(theta); actions.append(action)",
        f"    if not ({inside}):",
        f"        if not ({finite}):",
        '            raise FloatingPointError(f"non-finite state at t={t}")',
        "        return times, thetas, actions, True"] + stop + [
        "    k = s",
        "return times, thetas, actions, False"]
    source = "def run(theta, action, dt, n_steps, stride, stop_when):\n" + "".join(
        f"    {line}\n" for line in body)
    env = {"K": tuple(consts.values())}
    exec(_compile(source), env)
    return env["run"]


def _phase(k: Sequence[int], names: Sequence[str]) -> str:
    """The sum k . names left to right, less its exact identities: ``1 * x``
    is x and ``a + -j * x`` is ``a - j * x`` (signed zeros included).  A
    leading negative term starts from ``0.0 -``; a leading positive term
    starts the sum itself, where the split's kick phase had ``0.0 +``: the
    kick reads only angles wrapped by ``% 1.0``, never -0.0, and 0.0 + x is
    x for every other x."""
    out = ""
    for kj, v in zip(k, names):
        if kj:
            term = v if abs(kj) == 1 else f"{abs(kj)} * {v}"
            sign = " - " if kj < 0 else " + "
            out += sign + term if out else ("0.0" + sign + term if kj < 0 else term)
    return out


class _SplitFlow:
    """Strang splitting for H = A(I) + B(theta): drift-kick-drift.

    Leapfrog form: grad A, read before the first step and after each kick,
    serves a step's closing half-drift and the next one's opening (n_steps
    + 1 reads).  ``run`` is generated as straight-line Python for this
    split: its source holds only the structure (mode vectors, exponents,
    indices), and every float (the monomial coefficients of dA/dI_j, the
    nonzero center components, the kick amplitudes -a and b) is unpacked
    into a local when ``run`` starts, so one compiled code object serves
    all splits of the same shape.  A step is opening drift, kick, gradient
    read and closing drift; the same read statements, as ``head``, open
    the run.  ``run`` performs the float operations of the two-read loop in
    the same order, less those whose result is exactly another's: ``d **
    1``, ``1 * t``, ``w * 1``, a second ``half * g``, ``0.0 +`` before a
    positive term of a phase (the kick reads wrapped angles, never -0.0),
    ``+ -j * t`` for ``- j * t`` and, at b = 0.0, ``- b * cos(phi)`` (this
    one can flip the sign of an exact zero).  The gradient read also drops
    ``0.0 +`` before a sum's first term, a coefficient 1.0, ``- c_i`` at
    c_i = 0.0 and an empty sum's ``half * 0.0``, and reads a one-term sum
    into h_j with no g_j.  These change at most the sign of a zero h_j, so
    of a zero t_j + h_j, which ``% 1.0`` maps to +0.0 either way: the
    trajectory is the two-read loop's.  The wrap skips ``% 1.0`` for t_j +
    h_j in (0, 1), where it returns its operand.
    """

    def __init__(self, A: FourierTaylorSeries, B: FourierTaylorSeries,
                 reach: _Reach | None = None) -> None:
        n = A.domain.n
        consts = {}
        # dA/dI_j: one statement per monomial, factors in index order, the
        # sum opened by its first term; d_i is x_i itself at c_i = 0.0
        d = [f"x{i}" if c == 0.0 else f"d{i}" for i, c in enumerate(A.center)]
        grad, used = [], set()
        for j in range(n):
            prods = []
            for m, ((_, l), c) in enumerate(A.partial_action(j).items()):
                used.update(i for i, e in enumerate(l) if e)
                factors = [d[i] + (f" ** {e}" if e != 1 else "") for i, e in enumerate(l) if e]
                if c.real != 1.0 or not factors:
                    consts[f"C{j}_{m}"] = c.real
                    factors.insert(0, f"C{j}_{m}")
                prods.append(" * ".join(factors))
            if len(prods) > 1:
                grad += [f"g{j} {'+=' if m else '='} {p}" for m, p in enumerate(prods)]
            # one term is read straight into h_j: the operands of half * g_j
            grad.append(f"h{j} = half * g{j}" if len(prods) > 1 else
                        f"h{j} = half * ({prods[0]})" if prods else f"h{j} = 0.0")
        grad[:0] = [f"d{i} = x{i} - c{i}" for i in sorted(used) if A.center[i] != 0.0]
        # kicks: one representative per +-k mode pair, c = a + i b
        kick, seen = [], set()
        ts, xs = [f"t{j}" for j in range(n)], [f"x{j}" for j in range(n)]
        for m, ((k, _), c) in enumerate(B.items()):
            if k in seen:
                continue
            seen.update((k, tuple(-x for x in k)))
            consts[f"na{m}"] = -c.real
            if c.imag != 0.0:
                consts.update({f"b{m}": c.imag, "cos": math.cos})
            kick.append(f"phi = ({_phase(k, ts)}) * TWO_PI")
            cos_term = f" - b{m} * cos(phi)" if c.imag != 0.0 else ""
            kick.append(f"w = 2.0 * (na{m} * sin(phi){cos_term}) * TWO_PI * dt")
            # x - w * -j is x + w * j
            kick.extend(f"x{j} {'-+'[kj < 0]}= w" + (f" * {abs(kj)}" if abs(kj) != 1 else "")
                        for j, kj in enumerate(k) if kj)
        consts.update(sin=math.sin, TWO_PI=TWO_PI)
        # u % 1.0 is u itself for u in (0, 1)
        drift = [line for j in range(n) for line in (
            f"t{j} += h{j}", f"if not 0.0 < t{j} < 1.0: t{j} %= 1.0")]
        self.run = _generate(A, ts + xs, consts, grad, drift + kick + grad + drift, reach)


def _stalled(t: float, max_iter: int, *updates: float) -> RuntimeError:
    """The midpoint's non-convergence error for the step from t; the last
    update is the largest of |``updates``|, or NaN if any is NaN."""
    delta = math.nan if any(map(math.isnan, updates)) else max(map(abs, updates))
    return RuntimeError(
        f"implicit midpoint did not converge in the step from "
        f"t={t:.17g}: last update {delta:.3g} >= "
        f"tol {MIDPOINT_TOL:.3g} after {max_iter} iterations"
    )


class _MidpointFlow:
    """Implicit midpoint by fixed-point iteration; symplectic for any H.

    ``run`` is generated like ``_SplitFlow``'s: the source holds the
    mode vectors and exponents of the field dz/dt = (dH/dI, -dH/dtheta), and
    its coefficients and H's center are unpacked into locals when ``run``
    starts.  Each iteration reads cos and sin once per +-k mode pair and
    d_i ** e once per distinct power, and the 2n field rows share those
    reads; a row sums its terms (Re c cos - Im c sin) * (product of its
    powers) left to right, less the product of a zero part, and reads I_i
    for I_i - c_i at c_i = 0.0: these change at most the sign of a zero,
    which never reaches a step's end state.  A phase is written as
    ``_phase`` writes it, less ``1 * m`` and ``+ -j * m``.  An iteration
    whose updates all lie in (-TOL, TOL) ends the step, tested one update
    at a time, so a NaN update never does; an overflow or a domain error
    while reading the field counts as a NaN update.
    """

    def __init__(self, H: FourierTaylorSeries, reach: _Reach | None = None) -> None:
        n = H.domain.n
        consts = dict(sin=math.sin, cos=math.cos, NAN=math.nan, TWO_PI=TWO_PI, TOL=MIDPOINT_TOL,
                      NTOL=-MIDPOINT_TOL, MAX_ITER=MIDPOINT_MAX_ITER, stalled=_stalled)
        rows = [H.partial_action(j) for j in range(n)] + [-H.partial_theta(j) for j in range(n)]
        # d_i is m_{n+i} itself at c_i = 0.0; _generate unpacks a nonzero c_i
        d = [f"m{n + i}" if c == 0.0 else f"d{i}" for i, c in enumerate(H.center)]
        modes: dict[tuple[int, ...], int] = {}   # one representative per +-k pair
        powers: dict[tuple[int, int], str] = {}  # (i, e) -> its variable
        field = []
        for r, row in enumerate(rows):
            terms = []
            for s, ((k, l), c) in enumerate(row.items()):
                a, b = f"a{r}_{s}", f"b{r}_{s}"
                factors = [powers.setdefault((i, e), d[i] if e == 1 else f"p{i}_{e}")
                           for i, e in enumerate(l) if e]
                if not any(k):
                    consts[a], term = c.real, a
                else:
                    rep = k if next(x for x in k if x) > 0 else tuple(-x for x in k)
                    q = modes.setdefault(rep, len(modes))
                    # a zero part's product is left out; -b * S is (-b) * S
                    if c.imag == 0.0:
                        consts[a], term = c.real, f"{a} * C{q}"
                    elif c.real == 0.0:
                        consts[b], term = (-c.imag if k == rep else c.imag), f"{b} * S{q}"
                    else:
                        consts[a], consts[b] = c.real, c.imag
                        term = f"({a} * C{q} {'-' if k == rep else '+'} {b} * S{q})"
                if factors:
                    prod = " * ".join(factors)
                    term += f" * ({prod})" if len(factors) > 1 else f" * {prod}"
                terms.append(term)
            # one statement per term: a long sum in one expression would
            # exhaust the compiler's recursion limit
            field += [f"v{r} = {terms[0]}" if terms else f"v{r} = 0.0"]
            field += [f"v{r} += {term}" for term in terms[1:]]
        reads = [f"d{i} = m{n + i} - c{i}" for i in sorted({i for i, _ in powers if H.center[i]})]
        for rep, q in modes.items():
            phase = _phase(rep, [f"m{j}" for j in range(n)])
            reads += [f"y = TWO_PI * ({phase})", f"C{q} = cos(y)", f"S{q} = sin(y)"]
        reads += [f"{v} = {d[i]} ** {float(e)!r}" for (i, e), v in powers.items() if e != 1]
        update = [line for r in range(2 * n) for line in (
            f"w = z{r} + half * v{r}", f"e{r} = w - m{r}", f"m{r} = w")]
        z, m, e = ([f"{x}{r}" for r in range(2 * n)] for x in "zme")
        zs, ms, es = map(", ".join, (z, m, e))
        # step i + 1 starts at k dt + (i - k) dt: its block's start, then
        # its place in the block
        self.run = _generate(
            H, z, consts, [], [f"{ms} = {zs}", "try:", "    for _ in range(MAX_ITER):"]
            + ["        " + line for line in reads + field + update]
            + [f"        if {' and '.join(f'NTOL < {x} < TOL' for x in e)}:",
               "            break", "    else:",
               f"        raise stalled(k * dt + (i - k) * dt, MAX_ITER, {es})",
               "except (OverflowError, ValueError):",
               "    raise stalled(k * dt + (i - k) * dt, MAX_ITER, NAN) from None"]
            + [f"z{r} = 2.0 * m{r} - z{r}" for r in range(2 * n)], reach,
        )


def _choose_scheme(
    H: FourierTaylorSeries,
) -> tuple[str, FourierTaylorSeries, FourierTaylorSeries]:
    """The scheme for H, with H's (average, oscillating) split: split exactly
    when the oscillating part is action-independent."""
    avg, osc = split_by_modes(H)
    return ("split" if osc.action_independent() else "midpoint"), avg, osc


def _energy(H: FourierTaylorSeries, thetas: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """H at every (theta, action) sample, one stacked read per block of samples."""
    table = SeriesStack([H])
    block = max(1, ENERGY_BLOCK_ELEMENTS // max(1, len(table.C) * H.domain.n))
    return np.concatenate([
        table.values(thetas[i:i + block], actions[i:i + block])[:, 0]
        for i in range(0, len(thetas), block)
    ])


class _Reach(NamedTuple):
    """``drift_time``'s ``stop_when`` for ``integrate``: stop once some
    |I_i - I0_i| >= threshold (compiled into the sample check), else when
    ``stop_when`` says so."""

    I0: list[float]
    threshold: float
    stop_when: Callable[[float, list[float]], bool] | None


def integrate(
    system: HamiltonianSystem,
    start: tuple[Sequence[float], Sequence[float]],
    t_max: float,
    cfg: IntegratorConfig | None = None,
    stop_when: Callable[[float, list[float]], bool] | None = None,
) -> TrajectoryRecord:
    """Integrate from start=(theta0, I0) up to |t| = t_max.

    Negative ``t_max`` integrates backward (the symmetric schemes are their
    own inverses up to roundoff).  The trajectory halts early, flagged
    ``escaped``, if the action leaves the domain ball around H's center;
    ``stop_when(t, I)`` is evaluated at sample points for caller-defined
    early exits, with I the sample's actions as a list of floats that it
    must not modify (``drift_time`` passes its ``_Reach`` here instead).
    One call of the scheme's generated ``run`` steps, records and stops; H
    is read at the recorded samples after it.
    """
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    cfg = cfg or IntegratorConfig()
    if hasattr(system, "hamiltonian"):  # accept a systems.System bundle
        system = system.hamiltonian
    H = system.total()
    scheme, avg, osc = _choose_scheme(H)
    reach = stop_when if isinstance(stop_when, _Reach) else None
    stepper = _SplitFlow(avg, osc, reach) if scheme == "split" else _MidpointFlow(H, reach)
    dt = (1.0 if t_max >= 0 else -1.0) * cfg.step
    n_steps = int(round(abs(t_max) / cfg.step))
    th = (np.asarray(start[0], dtype=float) % 1.0).tolist()
    ac = np.asarray(start[1], dtype=float).tolist()
    times, thetas, actions, escaped = stepper.run(th, ac, dt, n_steps, cfg.sample_stride,
                                                  stop_when if reach is None else reach.stop_when)
    # H is read at the angles as stepped, before they are wrapped
    thetas, actions = np.array(thetas), np.array(actions)
    energy = _energy(H, thetas, actions)
    meta = {"config_hash": cfg.digest(), "scheme": scheme, "step": cfg.step}
    rec = TrajectoryRecord(np.array(times), thetas % 1.0, actions, energy, escaped, meta)
    dev = rec.energy_deviation()
    meta["energy_deviation"] = dev
    meta["energy_ok"] = bool(dev <= ENERGY_TOL * max(1.0, abs(energy[0])))
    return rec


@dataclass(frozen=True)
class TransverseDrift:
    """Pi_perp-projected displacement along a trajectory."""

    max_drift: float
    per_sample: np.ndarray
    from_time: float


def transverse_drift(
    traj: TrajectoryRecord, frame: ResonanceFrame, from_time: float = 0.0
) -> TransverseDrift:
    """Sup-norm of Pi_j^perp (I(t) - I(from_time)) per sample, and its max."""
    if from_time < traj.times[0] or from_time > traj.times[-1]:
        raise ValueError("from_time outside the trajectory")
    _, Pperp = projections(frame)
    i0 = traj.index_at(from_time)
    disp = traj.actions[i0:] - traj.actions[i0]
    proj = disp @ Pperp.T
    per_sample = np.max(np.abs(proj), axis=1)
    return TransverseDrift(float(np.max(per_sample)), per_sample, from_time)


@dataclass(frozen=True)
class DriftTime:
    """First-crossing report at sample resolution with a one-step bracket."""

    time: float                       # +inf sentinel when capped
    bracket: tuple[float, float] | None
    trajectory: TrajectoryRecord

    @property
    def crossed(self) -> bool:
        return math.isfinite(self.time)


def drift_time(
    system: HamiltonianSystem,
    start: tuple[Sequence[float], Sequence[float]],
    threshold: float,
    t_cap: float,
    cfg: IntegratorConfig | None = None,
    stop_when: Callable[[float, list[float]], bool] | None = None,
) -> DriftTime:
    """First time |I(t) - I(0)| >= threshold (sup norm), integrating up to t_cap.

    The generated sample check ends the run at the first crossing sample
    (tested after the ball, before ``stop_when``), so a crossing is the last.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    I0 = np.asarray(start[1], dtype=float).tolist()
    traj = integrate(system, start, t_cap, cfg, stop_when=_Reach(I0, threshold, stop_when))
    t = traj.times
    if not np.max(np.abs(traj.actions[-1] - I0)) >= threshold:  # NaN: no crossing
        return DriftTime(SENTINEL, None, traj)
    return DriftTime(float(t[-1]), (float(t[-2]), float(t[-1])), traj)
