"""Independent exact oracles and test-only fan refinements shared by the test
modules.

The package reads cone coordinates and smoothness off one Smith form per cone
(intlat.cone_inverse); the tests check it against a plain Gauss-Jordan
elimination over the rationals.  It reads a multiplicity vector off a
valuation key (points._multiplicities); the tests check it against the
coprime integer representative on projective space and against a solve on the
minimal containing cone elsewhere.
"""
import math
from fractions import Fraction

from toricapprox.conditions import _phi
from toricapprox.fan import (Fan, RefinementMap, _cone_inverses, _is_primitive,
                             minimal_cone_containing)
from toricapprox.intlat import INF, cone_coords
from toricapprox.points import CoxPoint, v_p


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


def phi_v(p: int, P: CoxPoint) -> tuple:
    """The cocharacter sum of valuations: the representative-independent image
    of the multiplicity vector at an interior point."""
    assert not P.zero_support()
    return _phi(P.fan, [v_p(c, p) for c in P.coords])


def two_step_mult(p: int, P: CoxPoint) -> tuple:
    """Interior points: the minimal containing cone, then a Gauss-Jordan solve
    on that face."""
    u = phi_v(p, P)
    cone = minimal_cone_containing(P.fan, u)
    coeffs = solve_rational([[P.fan.rays[i][j] for i in cone] for j in range(P.fan.dim)], u)
    assert all(c.denominator == 1 and c > 0 for c in coeffs)
    out = [0] * len(P.fan.rays)
    for i, c in zip(cone, coeffs):
        out[i] = int(c)
    return tuple(out)


def coprime_rep_mult(p: int, P: CoxPoint) -> tuple:
    """Projective space: INF on the vanishing coordinates, valuations of the
    coprime integer representative elsewhere."""
    den = math.lcm(*[c.denominator for c in P.coords])
    ints = [int(c * den) for c in P.coords]
    g = math.gcd(*ints)
    return tuple(INF if a == 0 else v_p(a // g, p) for a in ints)


def mult_oracle(p: int, P: CoxPoint) -> tuple:
    """The multiplicity vector at p, by the oracle for the point's kind."""
    return (coprime_rep_mult if P.zero_support() else two_step_mult)(p, P)


# ---------------------------------------------------------------------------
# Refinements built only by the tests
# ---------------------------------------------------------------------------

def stellar_subdivide(f: Fan, new_ray) -> RefinementMap:
    """Star subdivision of f at a primitive vector inside its support."""
    v = tuple(int(x) for x in new_ray)
    if not _is_primitive(v):
        raise ValueError("new ray must be primitive")
    if v in f.rays:
        raise ValueError("vector is already a ray of the fan")
    coords = [(c, cone_coords(inverse, v))
              for c, inverse in zip(f.max_cones, _cone_inverses(f))]
    hits = [(c, x) for c, x in coords if x is not None]
    if not hits:
        raise ValueError("new ray lies outside the support of the fan")
    rays = list(f.rays) + [v]
    vi = len(f.rays)
    new_cones = [c for c, x in coords if x is None]
    for c, x in hits:
        for i, xi in zip(c, x):
            if xi > 0:
                new_cones.append(tuple(sorted(set(c) - {i} | {vi})))
    source = Fan.make(f.dim, rays, sorted(set(new_cones)))
    return RefinementMap(source, f, tuple(range(len(f.rays))))


def identity_refinement(f: Fan) -> RefinementMap:
    return RefinementMap(f, f, tuple(range(len(f.rays))))
