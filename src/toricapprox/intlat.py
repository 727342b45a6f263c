"""Exact integer linear algebra and exact rational cone geometry.

All arithmetic is exact: arbitrary-precision integers and fractions.Fraction.
Floating point is never used here; every answer is a discrete mathematical claim.

A matrix is a tuple of row tuples (an m x 0 matrix is m empty rows), and a
lattice basis is a tuple of basis vectors.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

#: Sentinel for infinite lattice index / infinite multiplicities.
INF = math.inf


class SmithDecomposition(NamedTuple):
    """U A V = S with U, V unimodular and S in Smith normal form."""

    U: tuple
    S: tuple
    V: tuple

    def invariant_factors(self) -> list:
        """All nonzero diagonal entries of S (includes 1s)."""
        return [row[i] for i, row in enumerate(self.S) if i < len(row) and row[i] != 0]


class LatticeBasis(NamedTuple):
    """Sublattice of Z^ambient_dim given by its canonical HNF basis."""

    ambient_dim: int
    basis: tuple  # basis vectors: the columns of the column-style HNF

    @property
    def rank(self) -> int:
        return len(self.basis)


class QuotientStructure(NamedTuple):
    """Finite invariant factors (> 1) and free rank of an abelian quotient."""

    invariant_factors: tuple
    free_rank: int

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def order(self):
        """The order of the quotient: INF when the free rank is positive."""
        if self.free_rank > 0:
            return INF
        return math.prod(self.invariant_factors)


def _identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(A, B) -> tuple:
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B))
                 for row in A)


# ---------------------------------------------------------------------------
# Hermite normal form (column style, canonical)
# ---------------------------------------------------------------------------

def hnf(A: Sequence[Sequence[int]]) -> tuple:
    """Column-style Hermite normal form of the matrix A (a tuple of rows).

    The result spans the same column lattice as A, has one column per pivot
    (zero columns dropped), positive pivots descending left to right, zero
    entries to the right of each pivot in its row, and entries to the left
    reduced into [0, pivot). Equal lattices yield identical results.
    """
    cols = [list(c) for c in zip(*A) if any(c)]
    n = len(A)
    result: list = []
    for r in range(n):
        live = [c for c in cols if c[r]]
        if not live:
            continue
        cols = [c for c in cols if not c[r]]
        # gcd-reduce row r: every live column modulo the one with the smallest
        # entry, until one is left
        while len(live) > 1:
            piv = min(live, key=lambda c: abs(c[r]))
            left = [piv]
            for c in live:
                if c is not piv:
                    f = c[r] // piv[r]
                    c = [x - f * y for x, y in zip(c, piv)]
                    if c[r]:
                        left.append(c)
                    elif any(c):
                        cols.append(c)
            live = left
        piv = live[0]
        if piv[r] < 0:
            piv = [-x for x in piv]
        # reduce earlier pivot columns in row r into [0, piv[r])
        for k, pc in enumerate(result):
            f = pc[r] // piv[r]
            if f:
                result[k] = [pc[i] - f * piv[i] for i in range(n)]
        result.append(piv)
    return tuple(tuple(c[i] for c in result) for i in range(n))


def lattice_from_generators(vectors: Sequence[Sequence[int]], ambient_dim: int) -> LatticeBasis:
    """HNF basis of the sublattice of Z^ambient_dim generated by vectors."""
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError("generator has wrong dimension")
    if not vectors:
        return LatticeBasis(ambient_dim, ())
    return LatticeBasis(ambient_dim, tuple(zip(*hnf(tuple(zip(*vectors))))))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def snf(A: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form via elementary operations with pivot-size control.

    Returns (U, S, V) with U A V = S, |det U| = |det V| = 1, S diagonal
    with nonnegative entries in a divisibility chain.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0 or n == 0:
        return SmithDecomposition(_identity(m), tuple(map(tuple, A)), _identity(n))
    S = [list(row) for row in A]
    U = [list(row) for row in _identity(m)]
    V = [list(row) for row in _identity(n)]

    def row_sub(i, j, f):  # row_i -= f * row_j
        S[i] = [S[i][k] - f * S[j][k] for k in range(n)]
        U[i] = [U[i][k] - f * U[j][k] for k in range(m)]

    def col_sub(i, j, f):  # col_i -= f * col_j
        for r in range(m):
            S[r][i] -= f * S[r][j]
        for r in range(n):
            V[r][i] -= f * V[r][j]

    t = 0
    while t < min(m, n):
        # locate smallest nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        S[t], S[bi] = S[bi], S[t]
        U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for r in range(m):
                S[r][t], S[r][bj] = S[r][bj], S[r][t]
            for r in range(n):
                V[r][t], V[r][bj] = V[r][bj], V[r][t]

        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    f = S[i][t] // S[t][t]
                    row_sub(i, t, f)
                    if S[i][t] != 0:
                        S[t], S[i] = S[i], S[t]
                        U[t], U[i] = U[i], U[t]
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    f = S[t][j] // S[t][t]
                    col_sub(j, t, f)
                    if S[t][j] != 0:
                        for r in range(m):
                            S[r][t], S[r][j] = S[r][j], S[r][t]
                        for r in range(n):
                            V[r][t], V[r][j] = V[r][j], V[r][t]
                        dirty = True
            if dirty:
                continue
            # divisibility fix: pivot must divide the trailing block
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t] != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_sub(t, culprit, -1)  # row_t += row_culprit
        t += 1

    # normalize signs on the diagonal
    for i in range(min(m, n)):
        if S[i][i] < 0:
            for k in range(n):
                S[i][k] = -S[i][k]
            for k in range(m):
                U[i][k] = -U[i][k]
    return SmithDecomposition(*(tuple(map(tuple, M)) for M in (U, S, V)))


def quotient_invariants(sub: LatticeBasis, ambient_dim: int) -> QuotientStructure:
    """Invariant factors > 1 and free rank of Z^ambient_dim / sub."""
    if sub.ambient_dim != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if sub.rank == 0:
        return QuotientStructure((), ambient_dim)
    dec = snf(sub.basis)
    facs = dec.invariant_factors()
    return QuotientStructure(tuple(f for f in facs if f > 1), ambient_dim - len(facs))


def right_inverse(A: Sequence[Sequence[int]]) -> Optional[tuple]:
    """Integer right inverse R with A R = I, or None if A is not surjective."""
    d = len(A)
    dec = snf(A)
    facs = dec.invariant_factors()
    if len(facs) < d or any(f != 1 for f in facs):
        return None
    # A = U^-1 S V^-1 with S = [I | 0], so R = V[:, :d] U.
    return _matmul(tuple(row[:d] for row in dec.V), dec.U)


# ---------------------------------------------------------------------------
# Exact rational cone geometry
# ---------------------------------------------------------------------------

def _lp_feasible(Arows: list, b: list) -> bool:
    """Exact feasibility of {x >= 0 : A x = b} via phase-1 simplex, Bland's rule."""
    m = len(Arows)
    if m == 0:
        return True
    n = len(Arows[0])
    T = []
    for i in range(m):
        row = [Fraction(x) for x in Arows[i]]
        bi = Fraction(b[i])
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        T.append(row + [Fraction(int(i == j)) for j in range(m)] + [bi])
    # objective: minimize sum of artificials; reduced cost row
    z = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            z[j] -= T[i][j]
    for k in range(m):
        z[n + k] += 1  # cost of the artificial variables
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            break
        # ratio test, Bland: smallest basis index among minimal ratios
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise AssertionError("phase-1 simplex unbounded: its objective is at least 0")
        _, leave = best
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [T[i][k] - f * T[leave][k] for k in range(n + m + 1)]
        if z[enter] != 0:
            f = z[enter]
            z = [z[k] - f * T[leave][k] for k in range(n + m + 1)]
        basis[leave] = enter
    return z[-1] == 0  # -objective value; feasible iff all artificials zero


def cone_contains(generators: Sequence[Sequence[int]], v: Sequence) -> bool:
    """True iff v is a nonnegative rational combination of the generators (exact)."""
    if all(x == 0 for x in v):
        return True
    if not generators:
        return False
    d = len(v)
    if any(len(g) != d for g in generators):
        raise ValueError("dimension mismatch")
    return _lp_feasible([[g[i] for g in generators] for i in range(d)], v)


def cone_is_full(generators: Sequence[Sequence[int]], ambient_dim: int,
                 rank: Optional[int] = None) -> bool:
    """True iff the generated convex cone is all of R^ambient_dim.

    That holds exactly when the generators have rank ambient_dim and -sum(G)
    lies in cone(G), a theorem of the alternative of Gordan type (Schrijver,
    Theory of Linear and Integer Programming, ch. 7): one LP decides it.  Any
    generating set of the cone will do, such as one primitive vector per ray,
    one LP column each; where they sum to 0 the LP answers at once.  The rank
    is that of the lattice they generate (or of any lattice of that rank): a
    caller that holds such an HNF basis passes it, else it is read off a new one.
    """
    if rank is None:
        rank = lattice_from_generators(generators, ambient_dim).rank
    if rank < ambient_dim:
        return False
    return cone_contains(generators, [-sum(col) for col in zip(*generators)])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cone_inverse(rays: Sequence[Sequence[int]], d: int) -> tuple:
    """Integer data (A, D, N) with D > 0 for the cone on rays in Z^d.

    A vector v lies in the span of the rays iff N v = 0, and then its
    coordinates on the rays are A v / D (cone_coords).  With the Smith form
    U R V = S of the ray matrix R (one ray per row) and its nonzero factors
    s_1 | ... | s_r, x R = v reads (x U^-1) S = v V: N is the rows of V^T
    past r, D = s_r and A = U^T diag(D / s_i) V^T (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).  The rays extend to a basis
    of Z^d, so the cone is unimodular, iff D = 1 and len(N) = d - len(rays).
    """
    if not rays:
        return (), 1, _identity(d)
    dec = snf(rays)
    s = dec.invariant_factors()
    D = s[-1] if s else 1
    Vt = tuple(zip(*dec.V))
    A = tuple(tuple(sum(u[i] * (D // si) * Vt[i][l] for i, si in enumerate(s))
                    for l in range(d)) for u in zip(*dec.U))
    return A, D, Vt[len(s):]


def cone_coords(inverse, v):
    """Numerators over D of v's coordinates on a cone with inverse
    (A, D, N) = cone_inverse(rays, d), or None when v is outside the cone."""
    A, _, N = inverse
    if any(_dot(n, v) for n in N):
        return None
    x = tuple(_dot(a, v) for a in A)
    return None if any(xi < 0 for xi in x) else x


def solve_in_smooth_cone(cone_rays: Sequence[Sequence[int]], v: Sequence[int]):
    """Coordinates of v in a unimodular simplicial cone, or None if v is outside.

    The rays must extend to a Z-basis; non-unimodular input is rejected.
    The package reads cone coordinates through fan.max_cone_coords; this
    standalone form stays wrapped by the perfbench tracer.
    """
    inverse = cone_inverse(cone_rays, len(v))
    if inverse[1] != 1 or len(inverse[2]) != len(v) - len(cone_rays):
        raise ValueError("cone is not unimodular simplicial")
    return cone_coords(inverse, v)
