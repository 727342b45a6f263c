"""Combinatorial model of split toric varieties.

Fans with primitive ray generators and simplicial maximal cones, smoothness and
completeness tests, class groups, stellar subdivision, the 2-D minimal
resolution, Cartier data of torus-invariant divisors, and inverse-image
coefficients along refinements.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from itertools import product as _iter_product
from math import gcd
from typing import Optional, Sequence

from .intlat import (
    QuotientStructure,
    _lp_feasible,
    lattice_from_generators,
    quotient_invariants,
    rank,
    solve_integral,
    solve_rational,
)


@dataclass(frozen=True)
class Fan:
    """A simplicial fan: lattice dimension, primitive rays, maximal cones."""

    dim: int
    rays: tuple
    max_cones: tuple

    @classmethod
    def make(cls, dim, rays, max_cones) -> "Fan":
        return cls(dim,
                   tuple(tuple(int(x) for x in r) for r in rays),
                   tuple(tuple(sorted(int(i) for i in c)) for c in max_cones))

    def cone_rays(self, cone) -> list:
        return [self.rays[i] for i in cone]

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim,
                           "rays": [list(r) for r in self.rays],
                           "max_cones": [list(c) for c in self.max_cones]})

    @classmethod
    def from_json_obj(cls, obj) -> "Fan":
        return cls.make(obj["dim"], obj["rays"], obj["max_cones"])


@dataclass(frozen=True)
class CartierData:
    """Integer covectors m_sigma with <m_sigma, n_rho_j> = delta_ij on each cone."""

    divisor_index: int
    per_max_cone: tuple  # one integer covector per maximal cone, fan order


@dataclass(frozen=True)
class RefinementMap:
    """A refinement of fans: every source cone sits inside a target cone."""

    source: Fan
    target: Fan
    ray_embedding: tuple  # target ray index -> source ray index


@dataclass(frozen=True)
class NotPrincipal:
    """Failure value of inverse_image_coefficients; instructs further subdivision."""

    reason: str
    bound: Optional[int] = None


def _is_primitive(v) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _cones_are_faces(fan: Fan, ca, cb) -> bool:
    """Check cone(ca) and cone(cb) intersect in the common face cone(ca & cb).

    Decided by the existence of an exact separating functional u vanishing on
    the shared rays, positive on the rest of ca and negative on the rest of cb.
    """
    shared = sorted(set(ca) & set(cb))
    only_a = [i for i in ca if i not in shared]
    only_b = [i for i in cb if i not in shared]
    if not only_a and not only_b:
        return True  # identical cones
    d = fan.dim
    # variables: u = up - um (2d nonneg), slacks for each strict inequality
    nslack = len(only_a) + len(only_b)
    rows, rhs = [], []

    def urow(ray, sign):
        return [sign * x for x in ray] + [-sign * x for x in ray]

    si = 0
    for i in shared:
        rows.append(urow(fan.rays[i], 1) + [0] * nslack)
        rhs.append(0)
    for i in only_a:  # <u, r> - s = 1
        srow = [0] * nslack
        srow[si] = -1
        si += 1
        rows.append(urow(fan.rays[i], 1) + srow)
        rhs.append(1)
    for i in only_b:  # <u, r> + s = -1
        srow = [0] * nslack
        srow[si] = 1
        si += 1
        rows.append(urow(fan.rays[i], 1) + srow)
        rhs.append(-1)
    return _lp_feasible(rows, rhs)


def fan_validate(f: Fan) -> list:
    """All Fan invariants; returns a list of diagnostics (empty means ok)."""
    diags = []
    if f.dim < 1:
        diags.append("dimension must be at least 1")
        return diags
    for i, r in enumerate(f.rays):
        if len(r) != f.dim:
            diags.append(f"ray {i} has length {len(r)}, expected {f.dim}")
            return diags
        if all(x == 0 for x in r):
            diags.append(f"ray {i} is zero")
        elif not _is_primitive(r):
            diags.append(f"non-primitive ray {i}: {r}")
    if len(set(f.rays)) != len(f.rays):
        diags.append("rays are not pairwise distinct")
    for c in f.max_cones:
        if not c:
            diags.append("empty maximal cone")
            continue
        if any(i < 0 or i >= len(f.rays) for i in c):
            diags.append(f"cone {c} has an out-of-range ray index")
            continue
        if len(set(c)) != len(c):
            diags.append(f"cone {c} repeats a ray")
            continue
        if rank(f.cone_rays(c)) != len(c):
            diags.append(f"cone {c} is not simplicial (rays dependent)")
    if diags:
        return diags
    for ca, cb in combinations(f.max_cones, 2):
        if not _cones_are_faces(f, ca, cb):
            diags.append(f"cones {ca} and {cb} do not intersect in a common face")
    return diags


@lru_cache(maxsize=256)
def is_smooth(f: Fan) -> bool:
    """True iff every maximal cone is unimodular (all SNF invariant factors 1)."""
    for c in f.max_cones:
        q = quotient_invariants(
            lattice_from_generators(f.cone_rays(c), f.dim), f.dim)
        if q.invariant_factors:
            return False
        if q.free_rank != f.dim - len(c):
            return False  # dependent rays: not even simplicial
    return True


@lru_cache(maxsize=256)
def is_complete(f: Fan) -> bool:
    """Wall-pairing completeness test for pure d-dimensional simplicial fans."""
    if any(len(c) != f.dim for c in f.max_cones):
        raise ValueError("completeness undecided for non-pure fan")
    if not f.max_cones:
        return False
    walls: dict = {}
    for c in f.max_cones:
        for w in combinations(c, f.dim - 1):
            walls[w] = walls.get(w, 0) + 1
    return all(v == 2 for v in walls.values())


# ---------------------------------------------------------------------------
# Built-in fans
# ---------------------------------------------------------------------------

def projective_space(n: int) -> Fan:
    """Fan of P^n with rays e_1, ..., e_n, -(e_1 + ... + e_n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(sorted(c)) for c in combinations(range(n + 1), n)]
    return Fan.make(n, rays, cones)


def product(f: Fan, g: Fan) -> Fan:
    """Product fan: rays of f padded by zeros, then rays of g."""
    rays = [r + (0,) * g.dim for r in f.rays]
    rays += [(0,) * f.dim + r for r in g.rays]
    cones = []
    for cf in f.max_cones:
        for cg in g.max_cones:
            cones.append(tuple(cf) + tuple(i + len(f.rays) for i in cg))
    return Fan.make(f.dim + g.dim, rays, cones)


def hirzebruch(r: int) -> Fan:
    """Hirzebruch surface H_r: rays (-1, r), (0, 1), (1, 0), (0, -1)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    rays = [(-1, r), (0, 1), (1, 0), (0, -1)]
    return Fan.make(2, rays, [(0, 1), (1, 2), (2, 3), (0, 3)])


def weighted_P11r(r: int) -> Fan:
    """Weighted projective plane P(1,1,r): rays (-1, r), (1, 0), (0, -1)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    rays = [(-1, r), (1, 0), (0, -1)]
    return Fan.make(2, rays, [(0, 1), (1, 2), (0, 2)])


# ---------------------------------------------------------------------------
# Class group
# ---------------------------------------------------------------------------

def class_group(f: Fan) -> QuotientStructure:
    """Structure of Z^rays / image of the dual lattice (coker of N^v -> Z^Sigma(1))."""
    n = len(f.rays)
    if rank(f.rays) < f.dim:
        raise ValueError("rays do not span R^d; class group not defined here")
    cols = [[f.rays[i][j] for i in range(n)] for j in range(f.dim)]
    return quotient_invariants(lattice_from_generators(cols, n), n)


# ---------------------------------------------------------------------------
# Cone location and subdivision
# ---------------------------------------------------------------------------

def _cone_coords(f: Fan, cone, v):
    """Rational coordinates of v on the (independent) rays of cone, or None."""
    rays = f.cone_rays(cone)
    A = [[rays[j][i] for j in range(len(rays))] for i in range(f.dim)]
    x = solve_rational(A, list(v))
    if x is None or any(xi < 0 for xi in x):
        return None
    return x


def max_cone_coords(f: Fan, v: Sequence[int]):
    """(cone, coordinates) of v on the first maximal cone containing it, or None.

    The coordinates are nonnegative Fractions, one per ray of the cone.
    """
    for c in f.max_cones:
        x = _cone_coords(f, c, v)
        if x is not None:
            return c, x
    return None


def minimal_cone_containing(f: Fan, v: Sequence[int]):
    """Ray-index tuple of the minimal cone whose span contains v, or None."""
    if all(x == 0 for x in v):
        return ()
    hit = max_cone_coords(f, v)
    return None if hit is None else tuple(i for i, xi in zip(*hit) if xi > 0)


def stellar_subdivide(f: Fan, new_ray: Sequence[int]) -> RefinementMap:
    """Star subdivision of f at a primitive vector inside its support."""
    v = tuple(int(x) for x in new_ray)
    if not _is_primitive(v):
        raise ValueError("new ray must be primitive")
    if v in f.rays:
        raise ValueError("vector is already a ray of the fan")
    hits = []
    for c in f.max_cones:
        x = _cone_coords(f, c, v)
        if x is not None:
            hits.append((c, x))
    if not hits:
        raise ValueError("new ray lies outside the support of the fan")
    rays = list(f.rays) + [v]
    vi = len(f.rays)
    new_cones = [c for c in f.max_cones if _cone_coords(f, c, v) is None]
    for c, x in hits:
        for i, xi in zip(c, x):
            if xi > 0:
                new_cones.append(tuple(sorted(set(c) - {i} | {vi})))
    source = Fan.make(f.dim, rays, sorted(set(new_cones)))
    return RefinementMap(source, f, tuple(range(len(f.rays))))


def _xgcd(a: int, b: int):
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def _hj_inserted(u, w) -> list:
    """Minimal Hirzebruch-Jung ray chain strictly inside the 2-D cone(u, w)."""
    m0 = abs(u[0] * w[1] - u[1] * w[0])
    if m0 <= 1:
        return []
    # unimodular T with T u = (0, 1)
    g, p, q = _xgcd(u[0], u[1])
    assert g == 1
    T = [[-u[1], u[0]], [p, q]]

    def apply(M, x):
        return (M[0][0] * x[0] + M[0][1] * x[1], M[1][0] * x[0] + M[1][1] * x[1])

    x1, y1 = apply(T, w)
    if x1 < 0:
        T[0] = [-T[0][0], -T[0][1]]
        x1, y1 = -x1, y1
    m = x1
    k = (-y1) % m
    t = (-k - y1) // m
    T = [T[0], [T[1][0] + t * T[0][0], T[1][1] + t * T[0][1]]]  # shear
    assert apply(T, u) == (0, 1) and apply(T, w) == (m, -k)
    assert 0 < k < m
    # Hirzebruch-Jung continued fraction m/k = b1 - 1/(b2 - ...)
    bs = []
    mm, kk = m, k
    while kk:
        b = -(-mm // kk)
        bs.append(b)
        mm, kk = kk, b * kk - mm
    u0, u1 = (0, 1), (1, 0)
    chain = []
    for b in bs:
        chain.append(u1)
        u0, u1 = u1, (b * u1[0] - u0[0], b * u1[1] - u0[1])
    assert u1 == (m, -k)
    # map back with T^-1 (det +-1)
    det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
    Tinv = [[T[1][1] // det, -T[0][1] // det], [-T[1][0] // det, T[0][0] // det]]
    return [apply(Tinv, c) for c in chain]


def resolve_2d(f: Fan) -> RefinementMap:
    """Minimal smooth refinement of a 2-D simplicial fan (Hirzebruch-Jung)."""
    if f.dim != 2:
        raise ValueError("resolve_2d only handles 2-D fans")
    rays = list(f.rays)
    new_cones = []
    for c in f.max_cones:
        if len(c) == 1:
            new_cones.append(c)
            continue
        u, w = f.rays[c[0]], f.rays[c[1]]
        inserted = _hj_inserted(u, w)
        if not inserted:
            new_cones.append(c)
            continue
        idxs = []
        for nr in inserted:
            if nr not in rays:
                rays.append(nr)
            idxs.append(rays.index(nr))
        chain = [c[0]] + idxs + [c[1]]
        for a, b in zip(chain, chain[1:]):
            new_cones.append(tuple(sorted((a, b))))
    source = Fan.make(2, rays, sorted(set(new_cones)))
    return RefinementMap(source, f, tuple(range(len(f.rays))))


def identity_refinement(f: Fan) -> RefinementMap:
    return RefinementMap(f, f, tuple(range(len(f.rays))))


# ---------------------------------------------------------------------------
# Cartier data and inverse-image coefficients
# ---------------------------------------------------------------------------

def cartier_data(f: Fan, i: int):
    """Cartier support covectors of the divisor D_i, or None when not Cartier."""
    covs = []
    for c in f.max_cones:
        rays = f.cone_rays(c)
        A = [list(r) for r in rays]
        b = [1 if j == i else 0 for j in c]
        m = solve_integral(A, b)
        if m is None:
            return None
        covs.append(tuple(m))
    return CartierData(i, tuple(covs))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def inverse_image_coefficients(r: RefinementMap, i: int):
    """Coefficients of f^-1 D_i on the source divisors, or a NotPrincipal value.

    Cartier targets are handled by evaluating the support covectors; otherwise a
    bounded box search certifies the monomial-ideal pullback minima per source cone.
    """
    tgt, src = r.target, r.source
    if not is_smooth(src):
        raise ValueError("source fan of the refinement must be smooth")
    cd = cartier_data(tgt, i)
    if cd is not None:
        coeffs = []
        for nr in src.rays:
            hit = max_cone_coords(tgt, nr)
            if hit is None:
                raise ValueError("source ray outside the target support")
            m = cd.per_max_cone[tgt.max_cones.index(hit[0])]
            coeffs.append(_dot(m, nr))
        return tuple(coeffs)

    coeffs: dict = {}
    bound_used = 0
    for sc in src.max_cones:
        tc = None
        for c in tgt.max_cones:
            if all(_cone_coords(tgt, c, src.rays[j]) is not None for j in sc):
                tc = c
                break
        if tc is None:
            return NotPrincipal("source cone not contained in any target cone")
        if len(tc) != tgt.dim:
            return NotPrincipal("non-full-dimensional singular target cone")
        rays = tgt.cone_rays(tc)
        A = [list(rr) for rr in rays]
        b = [1 if j == i else 0 for j in tc]
        mstar = solve_rational(A, b)
        radius = 4 * max(1, int(sum(abs(x) for x in mstar)) + 1)
        bound_used = max(bound_used, radius)
        feasible = []
        for m in _iter_product(range(-radius, radius + 1), repeat=tgt.dim):
            if all(_dot(m, rays[j]) >= b[j] for j in range(len(rays))):
                feasible.append(m)
        if not feasible:
            return NotPrincipal("bound exhausted", bound=radius)
        src_rays = [src.rays[j] for j in sc]
        values = [tuple(_dot(m, nr) for nr in src_rays) for m in feasible]
        mins = tuple(min(v[k] for v in values) for k in range(len(src_rays)))
        if mins not in values:
            return NotPrincipal("no simultaneous minimizer: pullback not principal on a cone",
                                bound=radius)
        for j, val in zip(sc, mins):
            if j in coeffs and coeffs[j] != val:
                return NotPrincipal("inconsistent coefficients across cones", bound=radius)
            coeffs[j] = val
    return tuple(coeffs.get(j, 0) for j in range(len(src.rays)))
