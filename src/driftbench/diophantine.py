"""Periodic frequency vectors, Dirichlet approximation, and resonance lattices.

Everything here is exact: frequencies and periods are rationals, resonance
modules are integer lattices, and the two Dirichlet inequalities are decided
by integer cross-multiplication (every input is the rational V/D, floats
included, so no rounding slack is needed).  The exact linear algebra is one
RREF over Q (ranks and rational kernels) and one HNF over Z (integer
kernels, resonance modules and subspace lattice keys).  Floating point
appears only at the output boundary (orthonormal bases and projection
matrices).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, product
from typing import Iterable, Iterator, Sequence

import numpy as np

RationalVector = tuple[Fraction, ...]


class DirichletSearchError(RuntimeError):
    """Candidate cap exhausted before a feasible periodic vector was found.

    Dirichlet's theorem guarantees existence within the default cap, so this
    signals a configuration error (cap too small), not a math failure.
    """


def _to_fraction_vector(v: Sequence) -> RationalVector:
    out = tuple(Fraction(x) for x in v)
    if all(x == 0 for x in out):
        raise ValueError("zero vector has no period")
    return out


@dataclass(frozen=True)
class PeriodicVector:
    """A rational frequency omega with its exact minimal period T.

    Invariants: T*omega is an integer vector with componentwise gcd 1 (this
    is equivalent to minimality of T), and omega != 0.
    """

    omega: RationalVector
    period: Fraction

    def __post_init__(self) -> None:
        if all(x == 0 for x in self.omega):
            raise ValueError("omega must be nonzero")
        if self.period <= 0:
            raise ValueError("period must be positive")
        ints = [self.period * w for w in self.omega]
        if any(x.denominator != 1 for x in ints):
            raise ValueError(f"T*omega = {ints} is not an integer vector")
        g = math.gcd(*(int(x) for x in ints))
        if g != 1:
            raise ValueError(f"period {self.period} is not minimal (gcd {g})")

    @property
    def n(self) -> int:
        return len(self.omega)

    def integer_vector(self) -> tuple[int, ...]:
        """T*omega, exactly; computed on the first read."""
        try:
            return self._ints
        except AttributeError:
            ints = tuple(int(self.period * w) for w in self.omega)
            object.__setattr__(self, "_ints", ints)
            return ints

    def __getstate__(self) -> dict:
        # the cached integer vector stays out of pickles and copies
        return {"omega": self.omega, "period": self.period}

    def as_floats(self) -> np.ndarray:
        return np.array([float(w) for w in self.omega])

    def __str__(self) -> str:
        return "(" + ", ".join(str(w) for w in self.omega) + f") T={self.period}"


def frequency_gap(a: PeriodicVector, b: PeriodicVector) -> float:
    """Sup-norm distance |omega_a - omega_b|, exact up to the final rounding."""
    return float(max(abs(x - y) for x, y in zip(a.omega, b.omega)))


def period_of(v: Sequence) -> PeriodicVector:
    """Exact minimal period of a rational vector.

    T starts from the lcm of the denominators and is divided by the gcd of
    the resulting integer vector; minimality then holds because gcd(T*v) = 1.
    """
    vec = _to_fraction_vector(v)
    T = Fraction(math.lcm(*(x.denominator for x in vec)))
    ints = [int(T * x) for x in vec]
    g = math.gcd(*ints)
    T = T / g
    return PeriodicVector(vec, T)


@dataclass(frozen=True)
class DirichletResult:
    """Approximation output plus the exactly verified inequality margins."""

    vector: PeriodicVector
    error: Fraction            # sup-norm |v - omega|, exact
    error_bound: float         # T^{-1} Q^{-1/(n-1)}
    period_lower: float        # |v|^{-1}
    period_upper: float        # Q |v|^{-1}
    candidates_examined: int

    def margins(self) -> dict[str, float]:
        T = float(self.vector.period)
        return {
            "error_margin": self.error_bound - float(self.error),
            "period_lower_margin": T - self.period_lower,
            "period_upper_margin": self.period_upper - T,
        }


def _require_finite(Q: float, v: tuple) -> None:
    if not all(map(math.isfinite, (Q, *v))):
        raise ValueError(f"Q and v must be finite, got Q={Q}, v={v}")


def _period_upper(Q: float, v: tuple, vnorm: Fraction) -> float:
    """Q/|v| as a float, the largest period of a search of v up to Q; a
    ValueError if Q or v is not finite or Q/|v| exceeds the float range."""
    _require_finite(Q, v)
    try:
        return float(Fraction(Q) / vnorm)
    except OverflowError:
        raise ValueError(f"|v| = {float(vnorm):.3g} is too small: the period "
                         "bound Q/|v| does not fit in a float") from None


class DirichletScan:
    """The Dirichlet scan of v up to Q, in integers.

    v = V/D (D the lcm of the denominators), V_n = max|V_i| and Q = P/S.
    For integer q the scale T = q/|v| makes the largest component of T*v
    exactly an integer, and the Dirichlet witness is always a floor/ceil
    rounding of the remaining components, so shells q = 1..P//S hold every
    candidate.  A rounding w of shell q with gcd 1 has T = q*D/V_n, in
    [|v|^{-1}, Q |v|^{-1}] as 1 <= q <= P // S, and |v - omega| = E/(q*D)
    with E = max|q*V_i - w_i*V_n|; one of gcd g > 1 repeats a candidate of
    shell q/g.  The roundings do not depend on Q, so the scan also serves
    search r, up to Q 2^r: its shells are q <= (P << r) // S, and
    ``feasible`` and ``result`` take r.
    """

    def __init__(self, v: Sequence[float], Q: float) -> None:
        """ValueError for n < 2, a non-finite input, Q <= 1, v = 0, or a
        period bound Q/|v| beyond the float range."""
        v = tuple(v)
        if len(v) < 2:
            raise ValueError("dirichlet approximation needs dimension n >= 2")
        _require_finite(Q, v)
        if Q <= 1:
            raise ValueError("Q must exceed 1")
        vf = _to_fraction_vector(v)
        self.D = math.lcm(*(x.denominator for x in vf))
        self.V = tuple(x.numerator * (self.D // x.denominator) for x in vf)
        self.Vn = max(map(abs, self.V))
        self.Q = Fraction(Q)
        self.P, self.S = self.Q.numerator, self.Q.denominator
        self.shells = self.P // self.S
        _period_upper(Q, v, Fraction(self.Vn, self.D))
        self.period_lower = float(Fraction(self.D, self.Vn))    # below Q/|v|, so it fits

    def roundings(self, q: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """Shell q's floor/ceil roundings w of q*V/V_n in lexicographic
        order, each with g = gcd(w) and E = max|q*V_i - w_i*V_n|."""
        Vn = self.Vn
        qV = [q * x for x in self.V]
        choices = []
        for x in qV:
            fl, r = divmod(x, Vn)
            choices.append((fl,) if r == 0 else (fl, fl + 1))
        for w in product(*choices):
            yield w, math.gcd(*w), max(abs(a - c * Vn) for a, c in zip(qV, w))

    def feasible(self, g: int, E: int, r: int) -> bool:
        """Whether the rounding is a candidate of search r: g = 1 and |v -
        omega| <= T^{-1} (Q 2^r)^{-1/(n-1)}, i.e. E^k (P << r) <= S V_n^k, k = n-1."""
        k = len(self.V) - 1
        return g == 1 and E ** k * (self.P << r) <= self.S * self.Vn ** k

    def result(self, q: int, w: tuple[int, ...], E: int, examined: int,
               r: int) -> DirichletResult:
        """The candidate of gcd-1 rounding w (error E) in shell q, with the
        bounds of search r; Q 2^r is exact in floats unless it overflows."""
        T = Fraction(q * self.D, self.Vn)
        Qr = self.Q * 2 ** r
        return DirichletResult(
            vector=PeriodicVector(tuple(c / T for c in w), T),
            error=Fraction(E, q * self.D),
            error_bound=float(1 / T) * float(Qr) ** (-1.0 / (len(w) - 1)),
            period_lower=self.period_lower,
            period_upper=float(Qr / Fraction(self.Vn, self.D)),
            candidates_examined=examined,
        )


def dirichlet_candidates(
    v: Sequence[float], Q: float, search_cap: int | None = None
) -> list[DirichletResult]:
    """All feasible Dirichlet approximations, sorted by (T, T*omega).

    A candidate is a T-periodic omega with |v - omega| <= T^{-1} Q^{-1/(n-1)}
    and |v|^{-1} <= T <= Q |v|^{-1} (supremum norms, decided exactly).  The
    scan visits every rounding of every shell of ``DirichletScan`` (at most
    ``search_cap`` of them); its feasible roundings are the candidates, each
    once and in order.  Only those become Fractions.
    """
    scan = DirichletScan(v, Q)
    examined, found = 0, []
    for q, w, g, E in _capped_roundings(scan, search_cap)[1]:
        examined += 1
        if scan.feasible(g, E, 0):
            found.append((q, w, E))
    return [scan.result(q, w, E, examined, 0) for q, w, E in found]


def _capped_roundings(scan: DirichletScan, search_cap: int | None) -> tuple[int, Iterator]:
    """The cap (search_cap, else every rounding) and the first cap (q, w, g, E);
    no scan reaches a cap beyond sys.maxsize, islice's largest stop."""
    cap = search_cap if search_cap is not None else scan.shells * 2 ** len(scan.V)
    roundings = ((q, *r) for q in range(1, scan.shells + 1) for r in scan.roundings(q))
    return cap, islice(roundings, min(max(cap, 0), sys.maxsize))


def dirichlet_approx(
    v: Sequence[float], Q: float, search_cap: int | None = None
) -> DirichletResult:
    """The Dirichlet approximation with the smallest period.

    Among all feasible candidates the one with smallest T is returned, ties
    broken by lexicographically smallest T*omega (small T keeps |T*omega|
    and hence the resonance L-index small, which loosens the downstream
    smallness conditions).  That is the scan's first feasible rounding, as
    the scan lists candidates in (T, T*omega) order.  ``candidates_examined``
    counts the roundings up to it.
    """
    scan = DirichletScan(v, Q)
    cap, roundings = _capped_roundings(scan, search_cap)
    for examined, (q, w, g, E) in enumerate(roundings, 1):
        if scan.feasible(g, E, 0):
            return scan.result(q, w, E, examined, 0)
    raise DirichletSearchError(
        f"no feasible candidate within cap={cap} (Q={Q}, n={len(v)}); raise the cap"
    )


# -- exact linear algebra: one RREF over Q, one HNF over Z ---------------------


def _rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: the nonzero rows and their pivot
    columns.  Unique for the row span, so everything read from it is exact."""
    mat = [[Fraction(x) for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[: len(pivots)], pivots


def rational_rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q: the number of RREF pivots."""
    return len(_rref(rows)[1])


def rational_kernel(rows: Sequence[Sequence], n: int) -> list[RationalVector]:
    """Basis of {x in Q^n : A x = 0} read from the RREF of A: one vector per
    free column c, with x_c = 1 and the other free entries 0."""
    mat, pivots = _rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Row-style HNF of the lattice spanned by the rows.

    Pivots are positive, entries above each pivot are reduced modulo it, and
    zero rows are dropped; the result is the canonical basis of the row span.
    """
    mat = [list(map(int, row)) for row in rows if any(row)]
    if not mat:
        return []
    ncols = len(mat[0])
    r0 = 0
    for col in range(ncols):
        # Euclid among rows r >= r0 on this column
        while True:
            nz = [r for r in range(r0, len(mat)) if mat[r][col] != 0]
            if not nz:
                break
            if len(nz) == 1:
                r = nz[0]
                mat[r0], mat[r] = mat[r], mat[r0]
                break
            pr = min(nz, key=lambda r: abs(mat[r][col]))
            for r in nz:
                if r == pr:
                    continue
                qq = mat[r][col] // mat[pr][col]
                mat[r] = [a - qq * b for a, b in zip(mat[r], mat[pr])]
        if r0 < len(mat) and mat[r0][col] != 0:
            if mat[r0][col] < 0:
                mat[r0] = [-a for a in mat[r0]]
            pv = mat[r0][col]
            for r in range(r0):
                qq = mat[r][col] // pv
                if qq:
                    mat[r] = [a - qq * b for a, b in zip(mat[r], mat[r0])]
            r0 += 1
    return [tuple(row) for row in mat[:r0]]


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int | None = None) -> list[tuple[int, ...]]:
    """Basis of the saturated lattice {x in Z^n : A x = 0}, in HNF.

    Row i of [A^T | I] is (A e_i, e_i), so an integer row combination u reads
    (A u, u).  The HNF rows whose A^T part vanishes are therefore kernel
    vectors; they span the whole integer kernel because the row operations
    are unimodular, and they are in HNF already (their pivots lie in the I
    part, with the entries above each pivot reduced).
    """
    rows = [list(map(int, row)) for row in rows]
    if not rows and ncols is None:
        raise ValueError("empty system needs explicit ncols")
    n = len(rows[0]) if rows else ncols
    m = len(rows)
    augmented = [[row[i] for row in rows] + [int(i == j) for j in range(n)] for i in range(n)]
    basis = [row[m:] for row in hermite_normal_form(augmented) if not any(row[:m])]
    for row in basis:
        assert math.gcd(*row) == 1, f"saturation broken: row {row}"
    return basis


def resonance_module(vectors: Sequence[PeriodicVector]) -> list[tuple[int, ...]]:
    """Integer basis (HNF) of M = {k in Z^n : k.omega_i = 0 for all i}."""
    if not vectors:
        raise ValueError("resonance_module of an empty frame is all of Z^n")
    n = vectors[0].n
    # T*omega is a positive multiple of omega, so it has the same kernel
    basis = integer_kernel([pv.integer_vector() for pv in vectors], ncols=n)
    if len(basis) != n - len(vectors):
        raise ValueError("frame vectors must be linearly independent")
    return basis


# -- resonance frames -------------------------------------------------------------


def _orthonormal_basis(int_rows: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Deterministic orthonormal basis (columns) of the real span of the rows."""
    if not int_rows:
        return np.zeros((n, 0))
    A = np.array(int_rows, dtype=float).T  # n x r
    Qm, Rm = np.linalg.qr(A)
    signs = np.sign(np.diag(Rm))
    signs[signs == 0] = 1.0
    return Qm * signs


@dataclass(frozen=True)
class ResonanceFrame:
    """Ordered independent periodic vectors with their resonance lattice data.

    ``module_basis`` spans M_j = {k : k.omega_i = 0 for all i} (rank n - j),
    ``lambda_basis`` holds an orthonormal basis of its real span as columns,
    and ``l_index`` is sup_i |T_i omega_i|_inf (= 1 for the empty frame).
    """

    vectors: tuple[PeriodicVector, ...]
    module_basis: tuple[tuple[int, ...], ...]
    lambda_basis: np.ndarray
    l_index: int
    n: int

    @classmethod
    def build(cls, vectors: Sequence[PeriodicVector], n: int | None = None) -> "ResonanceFrame":
        vectors = tuple(vectors)
        if vectors:
            n = vectors[0].n
            if any(pv.n != n for pv in vectors):
                raise ValueError("mixed dimensions in frame")
            module = tuple(resonance_module(vectors))
            l_index = max(
                max(abs(x) for x in pv.integer_vector()) for pv in vectors
            )
        else:
            if n is None:
                raise ValueError("empty frame needs explicit dimension")
            module = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
            l_index = 1
        basis = _orthonormal_basis(module, n)
        return cls(vectors, module, basis, int(l_index), n)

    @property
    def j(self) -> int:
        return len(self.vectors)


def projections(frame: ResonanceFrame) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projections (Pi onto Lambda_j, Pi_perp onto its complement)."""
    E = frame.lambda_basis
    Pi = E @ E.T
    return Pi, np.eye(frame.n) - Pi


# -- rational subspaces and G^L(n, k) ----------------------------------------------


@dataclass(frozen=True)
class RationalSubspace:
    """A k-dimensional subspace given by integer normals spanning its complement."""

    normals: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        for u in self.normals:
            if len(u) != self.n:
                raise ValueError("normal dimension mismatch")
            if not any(u):
                raise ValueError("zero normal vector")
        if rational_rank(self.normals) != len(self.normals):
            raise ValueError("normals must be linearly independent")

    @property
    def dim(self) -> int:
        return self.n - len(self.normals)

    def lattice_key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical identifier: HNF basis of the subspace's integer points."""
        return tuple(integer_kernel(self.normals, ncols=self.n))


def subspace_in_GL(s: RationalSubspace, L: int) -> bool:
    """Membership in G^L(n, k): the complement admits a spanning set of
    integer vectors with l1-norm at most L, decided by exhaustive enumeration."""
    if L < 1:
        raise ValueError("L must be >= 1")
    m = len(s.normals)
    if m == 0:
        return True  # empty spanning condition holds vacuously
    found: list[tuple[int, ...]] = []
    for u in lattice_vectors_l1(s.n, L):
        if rational_rank([*s.normals, u]) == m:
            found.append(u)
            if rational_rank(found) == m:
                return True
    return False


def lattice_vectors_l1(n: int, L: int) -> Iterable[tuple[int, ...]]:
    """Nonzero integer vectors with |u|_1 <= L (both signs), lexicographic."""
    rng = range(-L, L + 1)
    for u in product(rng, repeat=n):
        if any(u) and sum(abs(x) for x in u) <= L:
            yield u


def primitive_vectors_l1(n: int, L: int) -> list[tuple[int, ...]]:
    """Primitive (gcd 1) vectors with |u|_1 <= L, one per +-pair, sorted."""
    out = set()
    for u in lattice_vectors_l1(n, L):
        if math.gcd(*u) != 1:
            continue
        first = next(x for x in u if x != 0)
        out.add(u if first > 0 else tuple(-x for x in u))
    return sorted(out)


@lru_cache(maxsize=None)
def enumerate_GL(n: int, L_max: int) -> tuple[tuple[int, RationalSubspace], ...]:
    """Every subspace of every G^L(n, k), L <= L_max, once, as (L_min, subspace)
    pairs in (L_min, dim, lattice key) order.  One scan over the m-subsets of
    ``primitive_vectors_l1(n, L_max)``, m < n, keeps per lattice key the least
    max |u|_1 and the first subset reaching it: the normals the first G^L
    family holding the subspace lists, since ``primitive_vectors_l1(n, L)`` is
    an ordered subsequence."""
    if n < 1 or L_max < 1:
        raise ValueError(f"need n >= 1 and L_max >= 1, got n={n}, L_max={L_max}")
    best: dict[tuple, tuple[int, tuple]] = {}
    prims = primitive_vectors_l1(n, L_max)
    for m in range(n):
        for combo in combinations(prims, m):
            # independent normals leave a kernel of rank n - m, and its HNF
            # basis is the subspace's lattice_key
            key = tuple(integer_kernel(combo, ncols=n))
            L = max((sum(map(abs, u)) for u in combo), default=1)
            if len(key) == n - m and (key not in best or L < best[key][0]):
                best[key] = (L, combo)
    order = sorted(best, key=lambda key: (best[key][0], len(key), key))
    return tuple((best[key][0], RationalSubspace(best[key][1], n)) for key in order)
