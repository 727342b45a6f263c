"""Combinatorial model of split toric varieties.

Fans with primitive ray generators and simplicial maximal cones, the one check
of what a computation assumes of its fan, the 2-D minimal resolution, and
inverse-image coefficients of torus-invariant divisors along refinements.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain as _chain, combinations
from itertools import product as _iter_product
from math import gcd
from typing import NamedTuple, Sequence

from .intlat import (
    _dot,
    _lp_feasible,
    cone_coords,
    cone_inverse,
    json_object,
    json_typed,
    json_value,
    lattice_from_generators,
)


class Fan(NamedTuple):
    """A simplicial fan: lattice dimension, primitive rays, maximal cones."""

    dim: int
    rays: tuple
    max_cones: tuple

    @classmethod
    def make(cls, dim, rays, max_cones) -> "Fan":
        """Refuses a float, string or bool where an integer belongs (TypeError)."""
        rays, cones = tuple(map(tuple, rays)), tuple(map(tuple, max_cones))
        if why := _not_integers(dim, rays, cones):
            raise TypeError(why)
        return cls(dim, rays, tuple(tuple(sorted(c)) for c in cones))

    def cone_rays(self, cone) -> list:
        return [self.rays[i] for i in cone]

    @classmethod
    def from_json_obj(cls, obj) -> "Fan":
        """{"dim": d, "rays": [[...], ...], "max_cones": [[...], ...]}; a ValueError
        names the key or the entry that is not of its JSON type."""
        dim = json_value(obj, "dim", "a fan")
        rays, cones = ([json_typed(r, key, list) for r in json_value(obj, key, "a fan", list)]
                       for key in ("rays", "max_cones"))
        json_object(obj, "a fan", "dim", "rays", "max_cones")
        if why := _not_integers(dim, rays, cones):
            raise ValueError(why)
        return cls.make(dim, rays, cones)


def _not_integers(dim, rays, cones) -> str:
    """The complaint at the first of dim, the ray entries and the cone indices
    that is no int (a float, string or bool), or "" when there is none."""
    bad = [x for x in (dim, *_chain(*rays), *_chain(*cones)) if type(x) is not int]
    return f"dim, ray entries and cone indices must be integers, got {bad[0]!r}" if bad else ""


class RefinementMap(NamedTuple):
    """A refinement of fans: every source cone sits inside a target cone."""

    source: Fan
    target: Fan


class NotPrincipalError(RuntimeError):
    """Raised when an inverse image divisor cannot be certified principal."""

    def __init__(self, divisor_index: int, reason: str):
        self.divisor_index = divisor_index
        self.reason = reason
        super().__init__(f"inverse image of divisor {divisor_index} not certified principal: {reason}")


def _cones_are_faces(fan: Fan, ca, cb) -> bool:
    """Check cone(ca) and cone(cb) intersect in the common face cone(ca & cb).

    Both cones are simplicial, so a point of cone(ca) has unique coordinates
    on the rays of ca, and it lies in the face iff they vanish off ca & cb;
    likewise for cb.  So the intersection is the face iff no x, y >= 0 satisfy
    sum_ca x_i r_i = sum_cb y_j r_j with total weight 1 on the rays outside
    ca & cb: one exact LP, whose answer this negates.
    """
    shared = set(ca) & set(cb)
    cols = [fan.rays[i] for i in ca] + [tuple(-x for x in fan.rays[j]) for j in cb]
    weight = [int(i not in shared) for i in (*ca, *cb)]
    return not _lp_feasible([*zip(*cols), weight], [0] * fan.dim + [1])


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
        elif gcd(*r) != 1:
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
        if lattice_from_generators(f.cone_rays(c), f.dim).rank != len(c):
            diags.append(f"cone {c} is not simplicial (rays dependent)")
    used = {i for c in f.max_cones for i in c}
    diags += [f"ray {i} lies in no maximal cone" for i in range(len(f.rays)) if i not in used]
    cones = [tuple(sorted(c)) for c in f.max_cones]
    diags += [f"cone {c} is listed twice" for c in sorted(set(cones)) if cones.count(c) > 1]
    if diags:
        return diags
    for ca, cb in combinations(f.max_cones, 2):
        if not _cones_are_faces(f, ca, cb):
            diags.append(f"cones {ca} and {cb} do not intersect in a common face")
    return diags


@lru_cache(maxsize=256)
def check_fan(f: Fan) -> None:
    """ValueError naming each fan_validate diagnostic of f; cached, so a fan is checked once."""
    if diags := fan_validate(f):
        raise ValueError("invalid fan: " + "; ".join(diags))


def is_smooth(f: Fan) -> bool:
    """True iff every maximal cone is unimodular, read off its cone inverse."""
    return all(D == 1 and len(N) == f.dim - len(c)
               for c, (_, D, N) in zip(f.max_cones, _cone_inverses(f)))


@lru_cache(maxsize=256)
def is_complete(f: Fan) -> bool:
    """Wall-pairing completeness test for simplicial fans.  A maximal cone s of
    dimension below d is never covered: a cone t meeting the relative interior
    of s meets s in a common face, which is then s, a proper face of t.  A
    maximal cone listed twice would pair its own walls, so it fails too."""
    if (not f.max_cones or any(len(c) != f.dim for c in f.max_cones)
            or len(set(f.max_cones)) < len(f.max_cones)):
        return False
    walls: dict = {}
    for c in f.max_cones:
        for w in combinations(c, f.dim - 1):
            walls[w] = walls.get(w, 0) + 1
    return all(v == 2 for v in walls.values())


def is_projective_space(f: Fan) -> bool:
    """True iff f is complete and its rays are e_1, ..., e_d and -(e_1 + ... + e_d)."""
    d = f.dim
    return (sorted(f.rays) == [(-1,) * d] + [(0,) * (d - 1 - i) + (1,) + (0,) * i
                                             for i in range(d)] and is_complete(f))


# each fan hypothesis: its test, calling the predicate by name, and what a fan lacking it shows
_HYPOTHESES = {
    "smooth": (lambda f: is_smooth(f), "a maximal cone is singular (not unimodular)"),
    "complete": (lambda f: is_complete(f), "the maximal cones do not cover N_R"),
    "projective space": (lambda f: is_projective_space(f), "the fan is not that of P^d"),
    "2-D": (lambda f: f.dim == 2, "only surfaces are handled"),
    "smooth or 2-D": (lambda f: f.dim == 2 or is_smooth(f), "only singular surfaces are resolved"),
}


def require(f: Fan, what: str, *props: str) -> None:
    """ValueError "<what> need a <prop> fan: <why>" for the first of props,
    each a key of _HYPOTHESES, that f lacks."""
    for prop in props:
        holds, why = _HYPOTHESES[prop]
        if not holds(f):
            raise ValueError(f"{what} need a {prop} fan: {why}")


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
# Cone location and resolution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _cone_inverses(f: Fan) -> tuple:
    """Per maximal cone, in fan order, its intlat.cone_inverse (A, D, N): on a
    full-dimensional cone A / D is the inverse of the ray matrix's transpose."""
    return tuple(cone_inverse(f.cone_rays(c), f.dim) for c in f.max_cones)


def max_cone_coords(f: Fan, v: Sequence[int]):
    """(cone, x, D) for the first maximal cone containing v, or None.

    The coordinates of v on the rays of the cone are x_i / D, with integers
    x_i >= 0 and D > 0 (D = 1 on a unimodular cone).
    """
    for c, inverse in zip(f.max_cones, _cone_inverses(f)):
        x = cone_coords(inverse, v)
        if x is not None:
            return c, x, inverse[1]
    return None


def minimal_cone_containing(f: Fan, v: Sequence[int]):
    """Ray-index tuple of the minimal cone whose span contains v, or None."""
    if all(x == 0 for x in v):
        return ()
    hit = max_cone_coords(f, v)
    return None if hit is None else tuple(i for i, xi in zip(hit[0], hit[1]) if xi > 0)


def _xgcd(a: int, b: int):
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def _hj_inserted(u, w) -> list:
    """Minimal Hirzebruch-Jung ray chain strictly inside the 2-D cone(u, w).

    Let m = |det(u, w)| and p u_0 + q u_1 = 1.  The first ray is
    v_1 = (w + k u)/m for the one k in (0, m) that makes it integral: the map
    x -> (p x_0 + q x_1, det(u, x)) is unimodular, and both coordinates of
    w + k u are divisible by m iff k = -(p w_0 + q w_1) mod m.  With v_0 = u
    and the Hirzebruch-Jung continued fraction m/k = b_1 - 1/(b_2 - ...),
    each next ray is v_(i+1) = b_i v_i - v_(i-1); the ray after the chain
    is w."""
    m = abs(u[0] * w[1] - u[1] * w[0])
    if m <= 1:
        return []
    _, p, q = _xgcd(u[0], u[1])
    k = -(p * w[0] + q * w[1]) % m
    prev, cur = u, ((w[0] + k * u[0]) // m, (w[1] + k * u[1]) // m)
    chain = []
    while k:
        b = -(-m // k)
        chain.append(cur)
        prev, cur = cur, (b * cur[0] - prev[0], b * cur[1] - prev[1])
        m, k = k, b * k - m
    return chain


def resolve_2d(f: Fan) -> RefinementMap:
    """Minimal smooth refinement of a 2-D simplicial fan (Hirzebruch-Jung)."""
    require(f, "resolutions", "2-D")
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
    return RefinementMap(source, f)


# ---------------------------------------------------------------------------
# Inverse-image coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _ideal_corners(f: Fan, k: int, i: int) -> tuple:
    """Points of the ideal {m : <m, r_l> >= [l = i]} of D_i on the k-th maximal
    cone of f, full-dimensional with rays r_l, among which every n in the cone
    has a minimizer of <m, n>.

    The rows A[l] / D of the cone's inverse are the dual basis of the r_l.  Let
    g_l = A[l] / gcd(A[l]) and s_l = <g_l, r_l> > 0.  While <m, r_l> - [l = i]
    >= s_l, m - g_l stays in the ideal and lowers <m, n> by s_l x_l >= 0 for
    n = sum x_l r_l.  So the reduced points, 0 <= <m, r_l> - [l = i] < s_l,
    hold a minimizer for every n, and a simultaneous one whenever one exists.
    There is one per coset of the lattice G of the g_l: each z in the box of
    the diagonal of G's triangular HNF, shifted by -floor((<z, r_l> - [l = i])
    / s_l) g_l.  Points that another undercuts in every <m, r_l> are dropped;
    a Cartier D_i leaves one, the m with <m, r_l> = [l = i].  The points come
    in lexicographic order of their values <m, r_l>.
    """
    c = f.max_cones[k]
    rays = f.cone_rays(c)
    g = [tuple(x // gcd(*a) for x in a) for a in _cone_inverses(f)[k][0]]
    s = [_dot(gl, r) for gl, r in zip(g, rays)]
    diag = [v[j] for j, v in enumerate(lattice_from_generators(g, f.dim).basis)]
    reduced = []
    for z in _iter_product(*(range(h) for h in diag)):
        q = [(_dot(z, r) - (j == i)) // sl for r, j, sl in zip(rays, c, s)]
        m = tuple(zj - _dot(q, col) for zj, col in zip(z, zip(*g)))
        reduced.append((tuple(_dot(m, r) for r in rays), m))
    # in lexicographic order only an earlier point can undercut a later one;
    # in 2-D the kept values fall strictly in the second entry, so the last
    # kept point is the one that can
    reduced.sort()
    corners = []
    for v, m in reduced:
        rivals = corners[-1:] if f.dim == 2 else corners
        if not any(all(x <= y for x, y in zip(w, v)) for w, _ in rivals):
            corners.append((v, m))
    return tuple(m for _, m in corners)


@lru_cache(maxsize=256)
def inverse_image_coefficients(r: RefinementMap, i: int):
    """Coefficients of f^-1 D_i on the source divisors, else NotPrincipalError.

    On each source cone the coefficients are the minima of <m, n> over the
    ideal of D_i on the target cone, read from _ideal_corners; the inverse
    image is principal there iff one point attains all of them at once.
    Refinements are frozen, so the result is cached per (refinement, divisor).
    """
    tgt, src = r.target, r.source
    require(src, "refinement sources", "smooth")
    coeffs: dict = {}
    for sc in src.max_cones:
        k = next((k for k, inverse in enumerate(_cone_inverses(tgt))
                  if all(cone_coords(inverse, src.rays[j]) is not None for j in sc)),
                 None)
        if k is None:
            raise NotPrincipalError(i, "source cone not contained in any target cone")
        if len(tgt.max_cones[k]) != tgt.dim:
            raise NotPrincipalError(i, "non-full-dimensional singular target cone")
        values = [tuple(_dot(m, src.rays[j]) for j in sc) for m in _ideal_corners(tgt, k, i)]
        mins = tuple(map(min, zip(*values)))
        if mins not in values:
            raise NotPrincipalError(
                i, "no simultaneous minimizer: pullback not principal on a cone")
        for j, val in zip(sc, mins):
            if coeffs.setdefault(j, val) != val:
                raise NotPrincipalError(i, "inconsistent coefficients across cones")
    return tuple(coeffs.get(j, 0) for j in range(len(src.rays)))
