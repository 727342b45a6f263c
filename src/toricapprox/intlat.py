"""Exact integer linear algebra and exact rational cone geometry.

All arithmetic is exact: arbitrary-precision integers and fractions.Fraction.
Floating point is never used here; every answer is a discrete mathematical claim.

A matrix is a tuple of row tuples (an m x 0 matrix is m empty rows), and a
lattice basis is a tuple of basis vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

#: Sentinel for infinite lattice index / infinite multiplicities.
INF = math.inf


@dataclass(frozen=True)
class SmithDecomposition:
    """U A V = S with U, V unimodular and S in Smith normal form."""

    U: tuple
    S: tuple
    V: tuple

    def invariant_factors(self) -> list:
        """All nonzero diagonal entries of S (includes 1s)."""
        return [row[i] for i, row in enumerate(self.S) if i < len(row) and row[i] != 0]


@dataclass(frozen=True)
class LatticeBasis:
    """Sublattice of Z^ambient_dim given by its canonical HNF basis."""

    ambient_dim: int
    basis: tuple  # basis vectors: the columns of the column-style HNF

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class QuotientStructure:
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
        # Gather columns with a nonzero entry in row r and gcd-reduce them.
        while True:
            live = [j for j, c in enumerate(cols) if c[r] != 0]
            if len(live) <= 1:
                break
            # pivot-size control: reduce against the smallest entry
            live.sort(key=lambda j: abs(cols[j][r]))
            p, q = live[0], live[1]
            f = cols[q][r] // cols[p][r]
            cols[q] = [cols[q][i] - f * cols[p][i] for i in range(n)]
            if not any(cols[q]):
                cols.pop(q)
        live = [j for j, c in enumerate(cols) if c[r] != 0]
        if not live:
            continue
        piv = cols.pop(live[0])
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


def rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of a list of integer vectors, by fraction-free elimination."""
    rows = [list(v) for v in vectors if any(v)]
    r = 0
    while rows:
        piv = rows.pop()
        c = next(j for j, x in enumerate(piv) if x)
        # clear column c from the other rows; it stays clear in later passes
        rows = [[piv[c] * a - row[c] * b for a, b in zip(row, piv)] for row in rows]
        rows = [row for row in rows if any(row)]
        r += 1
    return r


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
            # unbounded phase-1 objective cannot happen; treat as infeasible guard
            return False
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
    gens = [list(g) for g in generators]
    vv = [Fraction(x) for x in v]
    if all(x == 0 for x in vv):
        return True
    if not gens:
        return False
    d = len(vv)
    if any(len(g) != d for g in gens):
        raise ValueError("dimension mismatch")
    A = [[Fraction(g[i]) for g in gens] for i in range(d)]
    return _lp_feasible(A, vv)


def cone_is_full(generators: Sequence[Sequence[int]], ambient_dim: int) -> bool:
    """True iff the generated convex cone is all of R^ambient_dim.

    That holds exactly when the generators have rank ambient_dim and -sum(G)
    lies in cone(G), a theorem of the alternative of Gordan type (Schrijver,
    Theory of Linear and Integer Programming, ch. 7): one LP decides it.
    """
    if rank(generators) < ambient_dim:
        return False
    return cone_contains(generators, [-sum(col) for col in zip(*generators)])


def solve_rational(Arows: list, b: list):
    """Solve A x = b exactly over Q; returns list of Fractions or None if inconsistent.

    A may have more rows than columns (overdetermined); any solution is returned
    only when the system is consistent, and it is unique when A has full column rank.
    """
    m = len(Arows)
    n = len(Arows[0]) if m else 0
    M = [[Fraction(Arows[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [M[i][k] - f * M[r][k] for k in range(n + 1)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = M[i][n]
    return x


def solve_integral(Arows: list, b: list):
    """Solve A x = b over Z; returns an integer solution or None."""
    dec = snf(Arows)
    m, n = len(Arows), len(Arows[0])
    c = [sum(u * x for u, x in zip(row, b)) for row in dec.U]
    y = [0] * n
    for i in range(min(m, n)):
        di = dec.S[i][i]
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    for i in range(n, m):
        if c[i] != 0:
            return None
    return [sum(v * yk for v, yk in zip(row, y)) for row in dec.V]


def solve_in_smooth_cone(cone_rays: Sequence[Sequence[int]], v: Sequence[int]):
    """Coordinates of v in a unimodular simplicial cone, or None if v is outside.

    The rays must extend to a Z-basis; non-unimodular input is rejected.
    The package reads cone coordinates through fan.max_cone_coords; this
    standalone form is the test oracle for points.mult_at_prime and stays
    wrapped by the perfbench tracer.
    """
    rays = [list(r) for r in cone_rays]
    if not rays:
        return () if all(x == 0 for x in v) else None
    d = len(rays[0])
    q = quotient_invariants(lattice_from_generators(rays, d), d)
    if q.invariant_factors or q.free_rank != d - len(rays):
        raise ValueError("cone is not unimodular simplicial")
    A = [[rays[j][i] for j in range(len(rays))] for i in range(d)]
    x = solve_rational(A, list(v))
    if x is None:
        return None
    if any(xi.denominator != 1 or xi < 0 for xi in x):
        return None
    return tuple(int(xi) for xi in x)
