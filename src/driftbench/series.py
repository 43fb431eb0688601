"""Truncated Fourier-Taylor algebra on the phase space T^n x B_R.

A series is a finite sum

    s(theta, I) = sum_{(k,l)} c_{k,l} * (I - center)^l * exp(2*pi*i * k.theta)

with Fourier indices k in Z^n bounded by ``|k|_inf <= k_max`` and Taylor
exponents l in N^n bounded by ``|l|_1 <= d_max``.  Angles live on
T^n = R^n / Z^n (so the factor 2*pi sits inside the exponential and all
period arithmetic stays integer-exact).  Coefficients are complex with the
reality constraint c_{-k,l} = conj(c_{k,l}), so evaluation is real.

Series are immutable after construction and every operation is pure.
Operations that can drop coefficient mass (products, brackets, explicit
truncation) record the dropped mass in a :class:`TruncationLoss` attached to
the result, so downstream consumers (Lie transforms, property tests) can
bound the error they inherit.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import stat
import weakref
from dataclasses import dataclass
from operator import add, sub
from typing import Iterator, Mapping, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# A multi-index is a pair (k, l): Fourier index and Taylor exponent.
MultiIndex = tuple[tuple[int, ...], tuple[int, ...]]


class DomainError(ValueError):
    """Point outside the series' action ball, or incompatible domains."""


class CorruptSeriesError(ValueError):
    """Reality invariant violated beyond tolerance."""


@dataclass(frozen=True)
class Domain:
    """Phase space T^n x B_R; the action ball uses the supremum norm."""

    n: int
    R: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not self.R > 0:
            raise ValueError(f"action radius must be > 0, got {self.R}")

    def contains_action(self, action: Sequence[float], center: Sequence[float]) -> bool:
        return max(abs(a - c) for a, c in zip(action, center)) <= self.R * (1 + 1e-12)


@dataclass(frozen=True)
class Gevrey:
    """Gevrey regularity tag (alpha, L); alpha = 1 is the analytic case."""

    alpha: float
    L: float

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError(f"Gevrey alpha must be >= 1, got {self.alpha}")
        if not self.L > 0:
            raise ValueError(f"Gevrey L must be > 0, got {self.L}")


@dataclass(frozen=True)
class FiniteDiff:
    """C^k regularity tag with auxiliary integer k_star, k >= k_star*n + 1."""

    k: int
    k_star: int

    def __post_init__(self) -> None:
        if self.k_star < 1:
            raise ValueError(f"k_star must be >= 1, got {self.k_star}")

    def check_dimension(self, n: int) -> None:
        if self.k < self.k_star * n + 1:
            raise ValueError(
                f"C^k regularity needs k >= k_star*n + 1: k={self.k}, "
                f"k_star={self.k_star}, n={n}"
            )


Regularity = Gevrey | FiniteDiff


@dataclass(frozen=True)
class TruncationLoss:
    """Upper bounds on coefficient mass lost to truncation.

    ``raw`` bounds the l1 coefficient norm of (true - stored).  ``kmass`` and
    ``lmass`` bound sum(|c| * |k|_1) and sum(|c| * |l|_1) of the error; they
    feed the first-order propagation through brackets (differentiating an
    error mode amplifies it by 2*pi*|k|_1 or |l|_1).  Propagated moments are
    first-order estimates, exact for the directly dropped modes.
    """

    raw: float = 0.0
    kmass: float = 0.0
    lmass: float = 0.0

    def __add__(self, other: "TruncationLoss") -> "TruncationLoss":
        return TruncationLoss(
            self.raw + other.raw, self.kmass + other.kmass, self.lmass + other.lmass
        )

    def scaled(self, factor: float) -> "TruncationLoss":
        a = abs(factor)
        return TruncationLoss(a * self.raw, a * self.kmass, a * self.lmass)

    @property
    def is_zero(self) -> bool:
        return self.raw == 0.0

    @staticmethod
    def zero() -> "TruncationLoss":
        return TruncationLoss()


def _as_tuple(vec: Sequence[float]) -> tuple[float, ...]:
    return tuple(float(x) for x in vec)


class FourierTaylorSeries:
    """Immutable sparse Fourier-Taylor series.

    Coefficients map (k, l) -> complex, absent means zero.  The public
    constructor is for input from outside the program (files, the
    classmethods, tests): it converts each index and coefficient, drops zero
    terms, checks every index against the dimension and the bounds, and
    checks the reality invariant c_{-k,l} = conj(c_{k,l}).  Results of the
    algebra come from the private ``_derive``, which trusts terms computed
    from already-checked series: it keeps their values as given (Python
    ``complex``), drops zero terms and keeps the term order, and skips every
    conversion and check.  Every operation preserves the reality invariant.
    """

    # __weakref__ lets _moments cache per series outside the pickled state
    __slots__ = ("domain", "center", "k_max", "d_max", "_coeffs", "trunc_loss", "__weakref__")

    def __init__(
        self,
        domain: Domain,
        coeffs: Mapping[MultiIndex, complex],
        k_max: int,
        d_max: int,
        center: Sequence[float] | None = None,
        *,
        trunc_loss: TruncationLoss | None = None,
    ) -> None:
        self._set_geometry(
            domain, _as_tuple(center) if center is not None else (0.0,) * domain.n,
            k_max, d_max, trunc_loss,
        )
        clean = {}
        for (k, l), c in coeffs.items():
            c = complex(c)
            if c == 0:
                continue
            k = tuple(int(x) for x in k)
            l = tuple(int(x) for x in l)
            if len(k) != domain.n or len(l) != domain.n:
                raise ValueError(f"index dimension mismatch at {(k, l)}")
            if any(x < 0 for x in l):
                raise ValueError(f"negative Taylor exponent at {(k, l)}")
            if max((abs(x) for x in k), default=0) > self.k_max:
                raise ValueError(f"Fourier index {k} exceeds k_max={self.k_max}")
            if sum(l) > self.d_max:
                raise ValueError(f"Taylor exponent {l} exceeds d_max={self.d_max}")
            clean[(k, l)] = c
        self._coeffs = clean
        self._check_reality()

    def _set_geometry(
        self, domain: Domain, center: tuple[float, ...], k_max: int, d_max: int,
        trunc_loss: TruncationLoss | None,
    ) -> None:
        if len(center) != domain.n:
            raise ValueError("center dimension mismatch")
        if k_max < 0 or d_max < 0:
            raise ValueError("truncation orders must be nonnegative")
        self.domain = domain
        self.center = center
        self.k_max = int(k_max)
        self.d_max = int(d_max)
        self.trunc_loss = trunc_loss if trunc_loss is not None else TruncationLoss.zero()

    def _derive(
        self, coeffs: Mapping[MultiIndex, complex],
        k_max: int | None = None, d_max: int | None = None, *,
        trunc_loss: TruncationLoss | None = None,
        domain: Domain | None = None, center: tuple[float, ...] | None = None,
    ) -> "FourierTaylorSeries":
        """A series whose terms come from already-checked series.

        Domain, center and bounds default to this series'.  Zero terms are
        dropped, in order; indices and values (which must be ``complex``) are
        taken as they are, and neither bounds nor reality are checked.
        """
        out = object.__new__(FourierTaylorSeries)
        out._set_geometry(
            self.domain if domain is None else domain,
            self.center if center is None else center,
            self.k_max if k_max is None else k_max,
            self.d_max if d_max is None else d_max,
            trunc_loss,
        )
        out._coeffs = {idx: c for idx, c in coeffs.items() if c}
        return out

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(
        cls, domain: Domain, k_max: int = 0, d_max: int = 0,
        center: Sequence[float] | None = None,
    ) -> "FourierTaylorSeries":
        return cls(domain, {}, k_max, d_max, center)

    @classmethod
    def constant(
        cls, domain: Domain, value: float, k_max: int = 0, d_max: int = 0,
        center: Sequence[float] | None = None,
    ) -> "FourierTaylorSeries":
        zero_idx = ((0,) * domain.n, (0,) * domain.n)
        return cls(domain, {zero_idx: complex(value)}, k_max, d_max, center)

    @classmethod
    def monomial(
        cls, domain: Domain, exponents: Sequence[int], coeff: float = 1.0,
        k_max: int = 0, d_max: int | None = None,
        center: Sequence[float] | None = None,
    ) -> "FourierTaylorSeries":
        """Pure action monomial coeff * (I - center)^exponents."""
        l = tuple(int(e) for e in exponents)
        if d_max is None:
            d_max = sum(l)
        idx = ((0,) * domain.n, l)
        return cls(domain, {idx: complex(coeff)}, k_max, d_max, center)

    @classmethod
    def action_coordinate(
        cls, domain: Domain, j: int, k_max: int = 0, d_max: int = 1,
        center: Sequence[float] | None = None,
    ) -> "FourierTaylorSeries":
        """The coordinate function (I - center)_j."""
        l = tuple(1 if i == j else 0 for i in range(domain.n))
        return cls.monomial(domain, l, 1.0, k_max, d_max, center)

    @classmethod
    def linear(
        cls, domain: Domain, omega: Sequence[float], k_max: int = 0, d_max: int = 1,
        center: Sequence[float] | None = None,
    ) -> "FourierTaylorSeries":
        """Linear integrable Hamiltonian omega . (I - center)."""
        n = domain.n
        if len(omega) != n:
            raise ValueError(f"linear needs {n} frequencies, got {len(omega)}")
        # each term gets index tuples of its own: pickles record shared objects
        return cls.zero(domain, k_max, max(d_max, 1), center)._derive({
            ((0,) * n, tuple(int(i == j) for i in range(n))): complex(float(w))
            for j, w in enumerate(omega) if w != 0
        })

    @classmethod
    def cosine(
        cls, domain: Domain, k: Sequence[int], amplitude: float = 1.0,
        k_max: int | None = None, d_max: int = 0,
        center: Sequence[float] | None = None,
    ) -> "FourierTaylorSeries":
        """amplitude * cos(2*pi * k.theta)."""
        k = tuple(int(x) for x in k)
        if k_max is None:
            k_max = max((abs(x) for x in k), default=0)
        neg = tuple(-x for x in k)
        zero_l = (0,) * domain.n
        half = 0.5 * amplitude
        coeffs = {(k, zero_l): complex(half)}
        if neg != k:
            coeffs[(neg, zero_l)] = complex(half)
        else:
            coeffs[(k, zero_l)] = complex(amplitude)
        return cls(domain, coeffs, k_max, d_max, center)

    @classmethod
    def sine(
        cls, domain: Domain, k: Sequence[int], amplitude: float = 1.0,
        k_max: int | None = None, d_max: int = 0,
        center: Sequence[float] | None = None,
    ) -> "FourierTaylorSeries":
        """amplitude * sin(2*pi * k.theta)."""
        k = tuple(int(x) for x in k)
        if all(x == 0 for x in k):
            if k_max is None:
                k_max = 0
            return cls.zero(domain, k_max, d_max, center)
        if k_max is None:
            k_max = max(abs(x) for x in k)
        neg = tuple(-x for x in k)
        zero_l = (0,) * domain.n
        coeffs = {
            (k, zero_l): complex(0, -0.5 * amplitude),
            (neg, zero_l): complex(0, 0.5 * amplitude),
        }
        return cls(domain, coeffs, k_max, d_max, center)

    # -- basic protocol --------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[MultiIndex, complex]:
        return dict(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def items(self) -> Iterator[tuple[MultiIndex, complex]]:
        return iter(self._coeffs.items())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient_norm(self) -> float:
        """l1 norm of the coefficient vector; dominates the C0 sup norm."""
        return sum(abs(c) for c in self._coeffs.values())

    def angle_independent(self) -> bool:
        return all(all(x == 0 for x in k) for (k, _) in self._coeffs)

    def action_independent(self) -> bool:
        return all(all(x == 0 for x in l) for (_, l) in self._coeffs)

    def __repr__(self) -> str:
        return (
            f"FourierTaylorSeries(n={self.domain.n}, R={self.domain.R}, "
            f"k_max={self.k_max}, d_max={self.d_max}, terms={len(self._coeffs)})"
        )

    def _check_reality(self, tol: float = 1e-12) -> None:
        scale = max(1.0, max((abs(c) for c in self._coeffs.values()), default=0.0))
        for (k, l), c in self._coeffs.items():
            mirror = self._coeffs.get((tuple(-x for x in k), l), 0j)
            if abs(mirror - c.conjugate()) > tol * scale:
                raise CorruptSeriesError(
                    f"reality violated at (k={k}, l={l}): coeff {c}, mirror {mirror}"
                )

    def _same_geometry(self, other: "FourierTaylorSeries") -> None:
        if self.domain != other.domain:
            raise DomainError(f"domain mismatch: {self.domain} vs {other.domain}")
        if self.center != other.center:
            raise DomainError(f"center mismatch: {self.center} vs {other.center}")

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, theta: Sequence[float], action: Sequence[float]) -> float:
        """Evaluate at a single phase-space point; returns a real value.  The
        pointwise reference that the batched ``SeriesStack`` reads match."""
        theta = _as_tuple(theta)
        action = _as_tuple(action)
        if len(theta) != self.domain.n or len(action) != self.domain.n:
            raise DomainError("point dimension mismatch")
        if not self.domain.contains_action(action, self.center):
            raise DomainError(
                f"action {action} outside ball of radius {self.domain.R} "
                f"around {self.center}"
            )
        total = 0j
        diff = [a - c for a, c in zip(action, self.center)]
        for (k, l), c in self._coeffs.items():
            term = c
            for lj, dj in zip(l, diff):
                if lj:
                    term *= dj ** lj
            phase = sum(kj * tj for kj, tj in zip(k, theta))
            if phase:
                term *= cmath.exp(2j * math.pi * phase)
            total += term
        scale = max(1.0, abs(total))
        if abs(total.imag) > 1e-12 * scale:
            raise CorruptSeriesError(
                f"imaginary residue {total.imag} exceeds tolerance; series corrupt"
            )
        return total.real

    def evaluate_grid(self, theta_points: np.ndarray, action_points: np.ndarray) -> np.ndarray:
        """Values on the tensor grid theta_points (P, n) x action_points (Q, n),
        shape (P, Q); see ``SeriesStack.grid_values``."""
        return SeriesStack([self]).grid_values(theta_points, action_points)[0]

    # -- arithmetic -------------------------------------------------------------

    def __neg__(self) -> "FourierTaylorSeries":
        return self._derive(
            {idx: -c for idx, c in self._coeffs.items()}, trunc_loss=self.trunc_loss
        )

    def scaled(self, factor: float) -> "FourierTaylorSeries":
        if factor == 0:
            return FourierTaylorSeries.zero(self.domain, self.k_max, self.d_max, self.center)
        factor = float(factor)  # an np.float64 factor would give numpy terms
        return self._derive(
            {idx: factor * c for idx, c in self._coeffs.items()},
            trunc_loss=self.trunc_loss.scaled(factor),
        )

    def __add__(self, other: "FourierTaylorSeries") -> "FourierTaylorSeries":
        return self._merged(other, add)

    def __sub__(self, other: "FourierTaylorSeries") -> "FourierTaylorSeries":
        # a - b is a + (-b) bit for bit, signed zeros included
        return self._merged(other, sub)

    def _merged(self, other: "FourierTaylorSeries", op) -> "FourierTaylorSeries":
        self._same_geometry(other)
        merged = dict(self._coeffs)
        for idx, c in other._coeffs.items():
            merged[idx] = op(merged.get(idx, 0j), c)
        return self._derive(
            merged, max(self.k_max, other.k_max), max(self.d_max, other.d_max),
            trunc_loss=self.trunc_loss + other.trunc_loss,
        )

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scaled(float(other))
        if isinstance(other, FourierTaylorSeries):
            return self.product(other)
        return NotImplemented

    __rmul__ = __mul__

    def product(
        self, other: "FourierTaylorSeries",
        k_max: int | None = None, d_max: int | None = None,
    ) -> "FourierTaylorSeries":
        """Series product, truncated back to the (max of the) operand bounds."""
        self._same_geometry(other)
        K = k_max if k_max is not None else max(self.k_max, other.k_max)
        D = d_max if d_max is not None else max(self.d_max, other.d_max)
        acc: dict[MultiIndex, complex] = {}
        n = self.domain.n
        for (k1, l1), c1 in self._coeffs.items():
            for (k2, l2), c2 in other._coeffs.items():
                k = tuple(k1[i] + k2[i] for i in range(n))
                l = tuple(l1[i] + l2[i] for i in range(n))
                idx = (k, l)
                acc[idx] = acc.get(idx, 0j) + c1 * c2
        kept, dropped = _partition(acc, K, D)
        cross = (
            self.trunc_loss.raw * other.coefficient_norm()
            + self.coefficient_norm() * other.trunc_loss.raw
            + self.trunc_loss.raw * other.trunc_loss.raw
        )
        loss = _propagated_loss(cross, dropped, n, K, D)
        return self._derive(kept, K, D, trunc_loss=loss)

    # -- calculus ---------------------------------------------------------------

    def partial_theta(self, j: int) -> "FourierTaylorSeries":
        """d/d theta_j: multiplies c_{k,l} by 2*pi*i*k_j."""
        out = {}
        for (k, l), c in self._coeffs.items():
            if k[j]:
                out[(k, l)] = c * (2j * math.pi * k[j])
        return self._derive(out, trunc_loss=TruncationLoss(
            TWO_PI * self.trunc_loss.kmass,
            TWO_PI * self.trunc_loss.kmass * self.domain.n * self.k_max,
            TWO_PI * self.trunc_loss.kmass * self.d_max,
        ))

    def partial_action(self, j: int) -> "FourierTaylorSeries":
        """d/d I_j: shifts l by -e_j and multiplies by l_j; drops d_max by one."""
        out = {}
        for (k, l), c in self._coeffs.items():
            if l[j]:
                nl = tuple(x - 1 if i == j else x for i, x in enumerate(l))
                out[(k, nl)] = c * l[j]
        d_max = max(self.d_max - 1, 0)
        return self._derive(out, d_max=d_max, trunc_loss=TruncationLoss(
            self.trunc_loss.lmass,
            self.trunc_loss.lmass * self.domain.n * self.k_max,
            self.trunc_loss.lmass * d_max,
        ))

    # -- truncation ---------------------------------------------------------------

    def truncate(self, k_max: int, d_max: int) -> tuple["FourierTaylorSeries", TruncationLoss]:
        """Drop indices outside (k_max, d_max); returns (series, dropped-mass report)."""
        if k_max > self.k_max or d_max > self.d_max:
            raise ValueError("truncate cannot enlarge the truncation orders")
        kept, dropped = _partition(self._coeffs, k_max, d_max)
        out = self._derive(kept, k_max, d_max, trunc_loss=self.trunc_loss + dropped)
        return out, dropped

    def with_bounds(self, k_max: int, d_max: int) -> "FourierTaylorSeries":
        """Re-declare (larger) truncation bounds without touching coefficients."""
        return self._derive(
            self._coeffs, max(k_max, self.k_max), max(d_max, self.d_max),
            trunc_loss=self.trunc_loss,
        )


# (sum |c| |k|_1, sum |c| |l|_1) of each live series, summed on first read;
# kept off the series (which are immutable), so their pickles do not change
_MOMENT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _moments(s: FourierTaylorSeries) -> tuple[float, float]:
    """The two truncation moments of ``s`` from one pass over its terms."""
    got = _MOMENT_CACHE.get(s)
    if got is None:
        kw, lw = [], []
        for (k, l), c in s._coeffs.items():
            a = abs(c)
            kw.append(a * sum(map(abs, k)))
            lw.append(a * sum(l))
        got = _MOMENT_CACHE[s] = (sum(kw), sum(lw))
    return got


class SeriesStack:
    """Same-geometry series packed into one term table: the one numpy reader
    of series values.

    ``values`` reads every row at points, ``grid_values`` on tensor grids,
    both without the domain and reality checks of ``evaluate``.
    """

    __slots__ = ("K", "L", "C", "S", "bounds", "center", "angle_free")

    def __init__(self, rows: Sequence[FourierTaylorSeries]) -> None:
        for s in rows[1:]:
            rows[0]._same_geometry(s)
        n = rows[0].domain.n
        terms = [(r, k, l, c) for r, s in enumerate(rows) for (k, l), c in s.items()]
        self.K = np.array([t[1] for t in terms], dtype=float).reshape(-1, n)
        self.L = np.array([t[2] for t in terms], dtype=float).reshape(-1, n)
        self.C = np.array([t[3] for t in terms], dtype=complex)
        # term-to-row selection, transposed: (term vector) @ S sums each row
        self.S = np.zeros((len(terms), len(rows)))
        self.S[np.arange(len(terms)), [t[0] for t in terms]] = 1.0
        self.bounds = [0, *itertools.accumulate(len(s) for s in rows)]  # row r: [b_r, b_r+1)
        self.center = np.asarray(rows[0].center)
        self.angle_free = not self.K.any()

    def values(self, theta: np.ndarray | None, action: np.ndarray) -> np.ndarray:
        """Every row at (theta, action): shape (rows,) for one point, (m, rows)
        for an (m, n) stack of action points, read at one theta (n,) or at the
        paired rows of an (m, n) theta stack.  ``theta`` is not read when no
        row depends on the angles."""
        mono = ((action[..., None, :] - self.center) ** self.L).prod(axis=-1)
        if self.angle_free:
            return (self.C.real * mono) @ self.S
        phase = (self.K @ theta.T).T  # (terms,) at one theta, (m, terms) at paired rows
        return (self.C * np.exp(2j * math.pi * phase) * mono).real @ self.S

    def grid_values(self, theta_points: np.ndarray, action_points: np.ndarray) -> np.ndarray:
        """Every row on the tensor grid theta_points (P, n) x action_points
        (Q, n), shape (rows, P, Q).  Each row is read from its own slice of
        the term table, summed over its terms in one complex matrix product."""
        theta_points = np.atleast_2d(np.asarray(theta_points, dtype=float))
        action_points = np.atleast_2d(np.asarray(action_points, dtype=float))
        diff = action_points - self.center    # (Q, n)
        out = np.zeros((len(self.bounds) - 1, len(theta_points), len(action_points)))
        for r, (start, end) in enumerate(itertools.pairwise(self.bounds)):
            if start == end:
                continue
            K, L, C = self.K[start:end], self.L[start:end], self.C[start:end]
            E = np.exp(2j * math.pi * (K @ theta_points.T))  # (M, P)
            with np.errstate(invalid="ignore"):
                B = np.prod(diff[None, :, :] ** L[:, None, :], axis=2)  # (M, Q)
            out[r] = ((C[:, None] * E).T @ B).real
        return out


def _partition(
    acc: Mapping[MultiIndex, complex], k_max: int, d_max: int
) -> tuple[dict[MultiIndex, complex], TruncationLoss]:
    kept: dict[MultiIndex, complex] = {}
    raw = kmass = lmass = 0.0
    for (k, l), c in acc.items():
        if c == 0:
            continue
        if max(map(abs, k), default=0) <= k_max and sum(l) <= d_max:
            kept[(k, l)] = c
        else:
            a = abs(c)
            raw += a
            kmass += a * sum(map(abs, k))
            lmass += a * sum(l)
    return kept, TruncationLoss(raw, kmass, lmass)


def _propagated_loss(
    cross_raw: float, dropped: TruncationLoss, n: int, k_max: int, d_max: int
) -> TruncationLoss:
    return TruncationLoss(
        cross_raw + dropped.raw,
        cross_raw * n * k_max + dropped.kmass,
        cross_raw * d_max + dropped.lmass,
    )


# |F|*|G| from which poisson_bracket builds the numpy pair table.  Timed on the
# bracket calls of 240 normal_form_certify ops (n = 2, 3), the table was the
# faster path in 32 % of the calls with 64-79 pairs, 77 % with 80-95, 76 % with
# 96-127 and 97 % with 128-191.
_PAIR_TABLE_MIN = 80
# F rows per block of the pair table are chosen to keep a block near this many
# pairs, so the (pairs, n) temporaries stay small.
_PAIR_BLOCK = 4096


def poisson_bracket(
    F: FourierTaylorSeries, G: FourierTaylorSeries,
    k_max: int | None = None, d_max: int | None = None,
) -> FourierTaylorSeries:
    """{F, G} = sum_j dF/dtheta_j dG/dI_j - dF/dI_j dG/dtheta_j.

    The result is truncated back to the operand bounds (or explicit ones) and
    carries a truncation-loss certificate covering both its own drops and the
    first-order effect of losses already attached to F and G.
    """
    F._same_geometry(G)
    n = F.domain.n
    K = k_max if k_max is not None else max(F.k_max, G.k_max)
    D = d_max if d_max is not None else max(F.d_max, G.d_max)
    if len(F) * len(G) >= _PAIR_TABLE_MIN and _packable(F, G):
        kept, dropped = _bracket_table(F, G, K, D)
    else:
        kept, dropped = _partition(_bracket_loop(F, G), K, D)
    lf, lg = F.trunc_loss, G.trunc_loss
    cross = 0.0
    if lf.kmass or lf.lmass or lg.kmass or lg.lmass:
        (fk, fl), (gk, gl) = _moments(F), _moments(G)
        cross = TWO_PI * (
            lf.kmass * gl + lf.lmass * gk + fk * lg.lmass + fl * lg.kmass
            + lf.kmass * lg.lmass + lf.lmass * lg.kmass
        )
    loss = _propagated_loss(cross, dropped, n, K, D)
    return F._derive(kept, K, D, trunc_loss=loss)


def _bracket_loop(F: FourierTaylorSeries, G: FourierTaylorSeries) -> dict[MultiIndex, complex]:
    """Untruncated {F, G}, one dict update per (term of F, term of G, j).

    c1*c2, k1 + k2 and l1 + l2 are formed once per pair that contributes;
    each contribution gets key tuples of its own, so no two terms of a result
    share an index object (pickles would record the sharing).
    """
    acc: dict[MultiIndex, complex] = {}
    get = acc.get
    two_pi_i = 2j * math.pi
    js = range(F.domain.n)
    g_terms = list(G._coeffs.items())
    for (k1, l1), c1 in F._coeffs.items():
        for (k2, l2), c2 in g_terms:
            base = None
            for j in js:
                w = k1[j] * l2[j] - l1[j] * k2[j]
                if w == 0:
                    continue
                if base is None:
                    base = c1 * c2
                    k = list(map(add, k1, k2))
                    l = list(map(add, l1, l2))
                l[j] -= 1
                idx = (tuple(k), tuple(l))
                l[j] += 1
                acc[idx] = get(idx, 0j) + base * (two_pi_i * w)
    return acc


def _key_radices(F: FourierTaylorSeries, G: FourierTaylorSeries) -> tuple[int, int, int]:
    """(kr, radix of a k digit, radix of an l digit) for packing a bracket term:
    kr and dr are the largest |k|_inf and degree a term of {F, G} can have."""
    kr, dr = F.k_max + G.k_max, F.d_max + G.d_max
    return kr, 2 * kr + 1, dr + 1


def _packable(F: FourierTaylorSeries, G: FourierTaylorSeries) -> bool:
    """Whether every index of {F, G} packs into one int64 key and every
    k1_j l2_j - l1_j k2_j is an integer that float64 holds exactly."""
    kr, bk, bl = _key_radices(F, G)
    return (bk * bl) ** F.domain.n < 2**62 and kr * (bl - 1) < 2**52


def _term_table(s: FourierTaylorSeries) -> tuple[np.ndarray, ...]:
    """(kl, Re c, Im c) of the terms in order; row i of kl is k_i then l_i."""
    n, count = s.domain.n, len(s._coeffs)
    chain = itertools.chain.from_iterable
    kl = np.fromiter(chain(chain(s._coeffs)), dtype=np.int64, count=2 * n * count)
    c = np.fromiter(s._coeffs.values(), dtype=complex, count=count)
    return kl.reshape(count, 2 * n), c.real, c.imag


def _sequential_sum(x: np.ndarray) -> float:
    """Left-to-right float sum, as a Python ``+=`` loop adds (np.sum pairs)."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def _first_occurrences(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(slot, first) for nonnegative int64 keys below ``bound``.

    ``first`` holds the position of each distinct key's first occurrence, in
    stream order, and ``slot[i]`` is the index in ``first`` of key[i]'s.  The
    keys are ordered by a stable LSD radix sort on 16-bit digits (numpy sorts
    ``uint16`` stably by radix, one pass per digit), so equal keys stay in
    stream order and the head of each run of equal keys is its first
    occurrence.
    """
    order = np.argsort(key.astype(np.uint16), kind="stable")
    for shift in range(16, (bound - 1).bit_length(), 16):
        order = order[np.argsort((key[order] >> shift).astype(np.uint16), kind="stable")]
    head = np.diff(key[order], prepend=-1) != 0  # keys are >= 0
    lead = order[head]  # first occurrences, in key order
    first = np.sort(lead)
    slot = np.empty(len(key), dtype=np.intp)
    slot[order] = np.searchsorted(first, lead)[np.cumsum(head) - 1]
    return slot, first


def _bracket_table(
    F: FourierTaylorSeries, G: FourierTaylorSeries, K: int, D: int
) -> tuple[dict[MultiIndex, complex], TruncationLoss]:
    """``_partition(_bracket_loop(F, G), K, D)`` from one numpy pair table.

    Each (term of F, term of G, j) contribution gets a packed int64 key for
    its (k, l), read off its pair's key and c1*c2, which each block of pairs
    forms once; ``_first_occurrences`` groups the contributions by key and
    ``np.bincount`` sums each group.  The result is bit-identical to the
    loop's: contributions stay pair-major and j-minor, ``bincount`` adds them
    in that order, keys keep their first-occurrence order, and
    c1*c2*(2*pi*i*w) is written out in real arithmetic, since numpy's complex
    multiply may fuse multiply-adds.
    """
    n = F.domain.n
    kr, bk, bl = _key_radices(F, G)
    radix = np.array([bk] * n + [bl] * n, dtype=np.int64)
    place = np.append(np.cumprod(radix[:0:-1])[::-1], 1)  # radices after each digit
    klf, fr, fi = _term_table(F)
    klg, gr, gi = _term_table(G)
    # key(k1 + k2, l1 + l2 - e_j) = fkey + gkey - pl[j]; kr offsets k once.
    pl = place[n:]
    fkey = klf @ place
    gkey = klg @ place + kr * int(place[:n].sum())
    # w = k1_j l2_j - l1_j k2_j of every (pair, j), pair-major, is [k1 l1] @ wg,
    # exact in float64 (see _packable)
    m = len(G)
    wg = np.zeros((2 * n, m, n))
    for j in range(n):
        wg[j, :, j] = klg[:, n + j]
        wg[n + j, :, j] = -klg[:, j]
    wg = wg.reshape(2 * n, m * n)
    wf = klf.astype(float)
    rows = max(1, _PAIR_BLOCK // m)
    keys, res, ims = [], [], []
    for a in range(0, len(F), rows):
        b = min(a + rows, len(F))
        w = (wf[a:b] @ wg).ravel()
        idx = np.flatnonzero(w != 0)
        pair, j = np.divmod(idx, n)
        f_r, f_i = fr[a:b, None], fi[a:b, None]
        br = (f_r * gr - f_i * gi).ravel()[pair]
        bi = (f_r * gi + f_i * gr).ravel()[pair]
        tw = TWO_PI * w[idx]
        keys.append((fkey[a:b, None] + gkey).ravel()[pair] - pl[j])
        res.append(-(bi * tw))
        ims.append(br * tw)
    keys, res, ims = (np.concatenate(x) for x in (keys, res, ims))
    slot, first = _first_occurrences(keys, (bk * bl) ** n)
    re = np.bincount(slot, weights=res, minlength=len(first))
    im = np.bincount(slot, weights=ims, minlength=len(first))
    digits = keys[first, None] // place % radix
    k, l = digits[:, :n] - kr, digits[:, n:]
    k_abs, degree = np.abs(k), l.sum(axis=1)
    nonzero = (re != 0) | (im != 0)
    inside = (k_abs.max(axis=1) <= K) & (degree <= D)
    keep, drop = nonzero & inside, nonzero & ~inside
    kept = {
        (tuple(kk), tuple(ll)): complex(x, y)
        for kk, ll, x, y in zip(k[keep].tolist(), l[keep].tolist(),
                                re[keep].tolist(), im[keep].tolist())
    }
    mass = np.hypot(re[drop], im[drop])
    dropped = TruncationLoss(
        _sequential_sum(mass),
        _sequential_sum(mass * k_abs[drop].sum(axis=1)),
        _sequential_sum(mass * degree[drop]),
    )
    return kept, dropped


def recenter_scale(
    s: FourierTaylorSeries, new_center: Sequence[float], mu: float,
    new_domain: Domain | None = None,
) -> FourierTaylorSeries:
    """Substitute I = new_center + mu * J into the Taylor part.

    Returns the series in the variable J (center 0).  This realizes the
    conformal translation-and-rescale map on the action variables; it is an
    exact polynomial identity (total Taylor degree never grows).
    """
    n = s.domain.n
    new_center = _as_tuple(new_center)
    shift = [nc - c for nc, c in zip(new_center, s.center)]
    domain = new_domain if new_domain is not None else s.domain
    acc: dict[MultiIndex, complex] = {}
    for (k, l), c in s._coeffs.items():
        # expand prod_j (shift_j + mu*J_j)^{l_j}
        expansions = []
        for j in range(n):
            terms = [
                (q, math.comb(l[j], q) * shift[j] ** (l[j] - q) * mu ** q)
                for q in range(l[j] + 1)
            ]
            expansions.append(terms)
        stack = [((), 1.0)]
        for terms in expansions:
            stack = [
                (exps + (q,), w * wq) for exps, w in stack for q, wq in terms if wq != 0
            ]
        for exps, w in stack:
            idx = (k, exps)
            acc[idx] = acc.get(idx, 0j) + c * w
    return s._derive(acc, domain=domain, center=(0.0,) * n, trunc_loss=s.trunc_loss)


# -- file format ------------------------------------------------------------------

FORMAT_VERSION = "ft-series 1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def regularity_tag(reg: Regularity | None) -> str:
    if reg is None:
        return "none"
    if isinstance(reg, Gevrey):
        return f"gevrey {_fmt(reg.alpha)} {_fmt(reg.L)}"
    return f"ck {reg.k} {reg.k_star}"


def parse_regularity(tag: str) -> Regularity | None:
    parts = tag.split()
    if parts[0] == "none":
        return None
    if parts[0] == "gevrey":
        return Gevrey(float(parts[1]), float(parts[2]))
    if parts[0] == "ck":
        return FiniteDiff(int(parts[1]), int(parts[2]))
    raise ValueError(f"unknown regularity tag {tag!r}")


def save_series(
    path, s: FourierTaylorSeries, regularity: Regularity | None = None
) -> None:
    """Write the structured text format; floats carry 17 significant digits."""
    lines = [FORMAT_VERSION]
    lines.append(f"n {s.domain.n}")
    lines.append(f"R {_fmt(s.domain.R)}")
    lines.append("center " + " ".join(_fmt(c) for c in s.center))
    lines.append(f"k_max {s.k_max}")
    lines.append(f"d_max {s.d_max}")
    lines.append(f"regularity {regularity_tag(regularity)}")
    items = sorted(s._coeffs.items())
    lines.append(f"coeffs {len(items)}")
    for (k, l), c in items:
        lines.append(
            " ".join(str(x) for x in k) + "  " + " ".join(str(x) for x in l)
            + "  " + _fmt(c.real) + " " + _fmt(c.imag)
        )
    with open_new(path) as fh:
        fh.write("\n".join(lines) + "\n")


def open_new(path):
    """Open ``path`` for text writing (``newline=""``) as a new file.

    Symlinks are resolved first.  A regular file there is unlinked and created
    afresh (a new inode): ext4 flushes a file truncated or renamed over at
    close, which costs tens of milliseconds.  Anything else (a missing path, a
    device, a FIFO) is opened with ``"w"`` as given and never unlinked.
    """
    target = os.path.realpath(path)
    try:
        regular = stat.S_ISREG(os.stat(target).st_mode)
    except OSError:
        regular = False
    if regular:
        os.unlink(target)
        path = target
    return open(path, "w", newline="")


_HEADER_FIELDS = {
    "n": int, "R": float, "center": lambda rest: tuple(float(x) for x in rest.split()),
    "k_max": int, "d_max": int, "regularity": parse_regularity,
}


def load_series(path) -> tuple[FourierTaylorSeries, Regularity | None]:
    """Read the format of ``save_series``.  A malformed file (a bad or missing header
    field, a term count that disagrees with the lines after it, a malformed or
    repeated (k, l) line) raises ``ValueError`` naming the line."""
    with open(path) as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    no = 1
    try:
        if not lines or lines[0][1] != FORMAT_VERSION:
            raise ValueError(f"expected the header {FORMAT_VERSION!r}")
        header = {}
        for i, (no, line) in enumerate(lines[1:], 1):
            key, _, rest = line.partition(" ")
            if key == "coeffs":
                break
            if key not in _HEADER_FIELDS:
                raise ValueError(f"unknown header field {key!r}")
            header[key] = _HEADER_FIELDS[key](rest)
        else:
            raise ValueError("no 'coeffs N' line follows the header")
        if missing := [key for key in _HEADER_FIELDS if key not in header]:
            raise ValueError(f"header lacks {', '.join(missing)}")
        n, count, body = header["n"], int(rest), lines[i + 1:]
        if len(body) != count:
            if len(body) > count >= 0:
                no = body[count][0]
            raise ValueError(f"'coeffs {count}' but {len(body)} coefficient lines follow")
        coeffs: dict[MultiIndex, complex] = {}
        for no, line in body:
            parts = line.split()
            if len(parts) != 2 * n + 2:
                raise ValueError(f"expected {2 * n + 2} fields, got {len(parts)}")
            idx = (tuple(int(x) for x in parts[:n]), tuple(int(x) for x in parts[n:2 * n]))
            if idx in coeffs:
                raise ValueError(f"(k, l) = {idx} repeats an earlier line")
            coeffs[idx] = complex(float(parts[2 * n]), float(parts[2 * n + 1]))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"series file {path}, line {no}: {exc}") from None
    series = FourierTaylorSeries(Domain(n, header["R"]), coeffs, header["k_max"],
                                 header["d_max"], header["center"])
    return series, header["regularity"]


# -- Hamiltonian bundle ------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianSystem:
    """Near-integrable Hamiltonian H = h(I) + f(theta, I) with a regularity tag.

    ``integrable`` must be angle-independent; ``epsilon`` records the
    perturbation scale (the bound on |f|, not a multiplier: f is stored
    already scaled).
    """

    integrable: FourierTaylorSeries
    perturbation: FourierTaylorSeries
    epsilon: float
    regularity: Regularity

    def __post_init__(self) -> None:
        if not self.integrable.angle_independent():
            raise ValueError("integrable part must be angle-independent")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if isinstance(self.regularity, FiniteDiff):
            self.regularity.check_dimension(self.integrable.domain.n)

    @property
    def domain(self) -> Domain:
        return self.integrable.domain

    def total(self) -> FourierTaylorSeries:
        return self.integrable + self.perturbation


def split_by_modes(
    H: FourierTaylorSeries,
) -> tuple[FourierTaylorSeries, FourierTaylorSeries]:
    """Split a series into its angle-average (k = 0) and oscillating parts."""
    n = H.domain.n
    zero_k = (0,) * n
    avg = {idx: c for idx, c in H._coeffs.items() if idx[0] == zero_k}
    osc = {idx: c for idx, c in H._coeffs.items() if idx[0] != zero_k}
    return H._derive(avg), H._derive(osc)
