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


def json_typed(x, name: str, *kinds):
    """x, refused unless its type is one of kinds exactly (if any): 1.5 or true is no int.
    Each json_* reader raises a ValueError that names the key or the object."""
    if kinds and type(x) not in kinds:
        names = " or ".join("object" if k is dict else k.__name__ for k in kinds)
        raise ValueError(f"{name} must be a JSON {names}, got {x!r}")
    return x


def json_object(obj, what: str, *keys) -> dict:
    """obj, refused unless it is a JSON object with no key outside keys (if any are given)."""
    if extra := [k for k in json_typed(obj, what, dict) if keys and k not in keys]:
        raise ValueError(f"{what} takes no key {extra[0]!r}")
    return obj


def json_value(obj, key: str, what: str, *kinds, default=KeyError):
    """obj[key] read by json_typed, or default when absent; refused if no default is given."""
    if key not in json_object(obj, what) and default is KeyError:
        raise ValueError(f"missing key {key!r} in {what}")
    return json_typed(obj[key], key, *kinds) if key in obj else default


def json_mult(x):
    """A multiplicity: a JSON int, or "inf" for infinity."""
    if x != "inf" and type(x) is not int:
        raise ValueError(f"multiplicity must be an integer or 'inf', got {x!r}")
    return INF if x == "inf" else x


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
    """Smith normal form from Hermite forms (Kannan and Bachem, SIAM J. Comput.
    8, 1979): no elimination of its own.

    Returns (U, S, V) with U A V = S, |det U| = |det V| = 1, S diagonal with
    nonnegative entries in a divisibility chain, zeros last.  A column pass is
    one hnf of S stacked on V: the rows of V keep every column live, so the
    lower block is the new V.  A row pass is the same on the transposes, with
    U^T below.  While S is not diagonal, column and row passes alternate.  Two
    orders matter.  S is tested before each pass, so a diagonal input, such as
    the HNF basis of an index-1 lattice, makes no hnf call.  Once S is diagonal
    and nonnegative, an entry d_i that fails to divide a later d_j (0 fails
    against any nonzero entry) takes row j added to row i, and the column pass
    runs first: it turns d_i into gcd(d_i, d_j), where a row pass would
    subtract row j back out.

    It ends because a diagonal entry only ever drops to a proper divisor (0 to
    a nonzero entry).  A pass sets the leading entry of the block not yet
    cleared to the gcd of its row or column, and keeps it only when it divides
    them, so that the next pass clears both; the divisibility fix drops d_i and
    leaves the entries before it alone.
    """
    m, n = len(A), len(A[0]) if A else 0
    U, S, V = _identity(m), tuple(map(tuple, A)), _identity(n)
    if not m or not n:
        return SmithDecomposition(U, S, V)
    rows = False  # the next pass is a row pass
    while True:
        while any(x for i, row in enumerate(S) for j, x in enumerate(row) if i != j):
            if rows:
                H = hnf((*zip(*S), *zip(*U)))
                S, U = tuple(zip(*H[:n])), tuple(zip(*H[n:]))
            else:
                H = hnf((*S, *V))
                S, V = H[:m], H[m:]
            rows = not rows
        S, U, rows = list(S), list(U), False
        d = [abs(S[i][i]) for i in range(min(m, n))]
        for i in range(len(d)):
            if S[i][i] < 0:
                S[i], U[i] = tuple(-x for x in S[i]), tuple(-x for x in U[i])
        bad = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d))
                    if (d[j] % d[i] if d[i] else d[j])), None)
        if bad is None:
            return SmithDecomposition(tuple(U), tuple(S), V)
        i, j = bad
        S[i], U[i] = (tuple(a + b for a, b in zip(M[i], M[j])) for M in (S, U))


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
    """Integer right inverse R with A R = I, or None if A is not surjective.

    A (d x l) is onto Z^d iff the HNF of A stacked on the identity has pivot 1
    in each of its first d rows; its first d columns are then (e_j, r_j) with
    A r_j = e_j, the columns of R.  The later pivots, one per relation, reduce
    the r_j into [0, pivot) in their rows, mostly the first ones: R is small
    and leans on the last columns of A."""
    d = len(A)
    H = hnf(tuple(map(tuple, A)) + _identity(len(A[0])))
    if any(row[j:j + 1] != (1,) for j, row in enumerate(H[:d])):
        return None
    return tuple(row[:d] for row in H[d:])


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
