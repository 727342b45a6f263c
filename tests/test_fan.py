import json
import math
from fractions import Fraction
from unittest import mock
from itertools import product as iter_product
from math import atan2, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
import toricapprox.fan as fan_module
from oracles import solve_rational, stellar_subdivide
from toricapprox.intlat import lattice_from_generators
from toricapprox.fan import (
    Fan,
    _cone_inverses,
    _cones_are_faces,
    _hj_runs,
    _ideal_vertices,
    _xgcd,
    NotPrincipalError,
    RefinementMap,
    fan_validate,
    hirzebruch,
    inverse_image_coefficients,
    is_complete,
    is_projective_space,
    is_smooth,
    max_cone_coords,
    minimal_cone_containing,
    product,
    projective_space,
    require,
    resolve_2d,
    weighted_P11r,
)


def test_builders():
    p2 = projective_space(2)
    assert set(p2.rays) == {(1, 0), (0, 1), (-1, -1)}
    assert len(p2.max_cones) == 3
    h0 = hirzebruch(0)
    pp = product(projective_space(1), projective_space(1))
    assert set(h0.rays) == set(pp.rays)
    w = weighted_P11r(3)
    assert (-1, 3) in w.rays


def test_validate_good_fans():
    for f in (projective_space(1), projective_space(3), hirzebruch(2),
              weighted_P11r(2)):
        assert fan_validate(f) == []


def test_validate_flags_problems():
    bad = Fan(2, ((2, 0), (0, 1)), ((0, 1),))
    assert any("primitive" in d for d in fan_validate(bad))
    overlap = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))
    assert any("overlap" in d or "face" in d for d in fan_validate(overlap))
    stray = Fan.make(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2)])
    assert fan_validate(stray) == ["ray 3 lies in no maximal cone"]
    twice = Fan(2, ((1, 0), (0, 1)), ((0, 1), (1, 0)))
    assert fan_validate(twice) == ["cone (0, 1) is listed twice"]


@st.composite
def _simplicial_cone_pairs(draw):
    """Two simplicial cones on distinct rays in Z^d, d = 2..4: identical,
    nested, sharing some rays or disjoint, in either order."""
    d = draw(st.integers(2, 4))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d).filter(any),
                         min_size=d + 1, max_size=2 * d, unique=True))
    ca = draw(st.lists(st.sampled_from(range(len(rays))), min_size=1, max_size=d, unique=True))
    rest = [i for i in range(len(rays)) if i not in ca]
    shape = draw(st.sampled_from(["sharing", "disjoint", "nested", "identical"]))
    if shape == "identical":
        cb = list(ca)
    elif shape == "nested":
        cb = draw(st.lists(st.sampled_from(ca), min_size=1, max_size=len(ca), unique=True))
    else:
        keep = [] if shape == "disjoint" else draw(st.lists(
            st.sampled_from(ca), min_size=1, max_size=min(len(ca), d - 1), unique=True))
        cb = keep + draw(st.lists(st.sampled_from(rest), min_size=1,
                                  max_size=d - len(keep), unique=True))
    for c in (ca, cb):
        assume(lattice_from_generators([rays[i] for i in c], d).rank == len(c))
    if draw(st.booleans()):
        ca, cb = cb, ca
    return Fan.make(d, rays, [ca, cb]), tuple(sorted(ca)), tuple(sorted(cb))


@settings(max_examples=300, deadline=None)
@given(_simplicial_cone_pairs())
def test_common_face_lp_matches_the_separating_functional(pair):
    f, ca, cb = pair
    assert _cones_are_faces(f, ca, cb) == oracles.cones_are_faces(f, ca, cb)


def test_smooth_and_complete():
    assert is_smooth(projective_space(2))
    assert not is_smooth(weighted_P11r(2))
    # a lower-dimensional cone is smooth iff its rays extend to a basis
    assert is_smooth(Fan.make(3, [(1, 0, 0), (0, 1, 0)], [(0, 1)]))
    assert not is_smooth(Fan.make(3, [(1, 0, 0), (1, 2, 0)], [(0, 1)]))
    # dependent rays: not even simplicial
    assert not is_smooth(Fan.make(2, [(1, 0), (-1, 0)], [(0, 1)]))
    assert is_complete(projective_space(2))
    half = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    assert not is_complete(half)


def test_projective_space_is_read_off_the_rays():
    assert all(is_projective_space(projective_space(n)) for n in (1, 2, 3))
    assert not is_projective_space(hirzebruch(1))
    assert not is_projective_space(weighted_P11r(1))  # P^2 with other rays
    assert not is_projective_space(Fan.make(2, [(1, 0), (0, 1)], [(0, 1)]))


def test_require_names_the_first_missing_hypothesis():
    p11r = weighted_P11r(2)
    require(p11r, "anything", "complete", "2-D")
    with pytest.raises(ValueError) as e:
        require(p11r, "sums", "complete", "smooth", "projective space")
    assert str(e.value) == "sums need a smooth fan: a maximal cone is singular (not unimodular)"
    with pytest.raises(ValueError, match="^resolutions need a 2-D fan: only surfaces"):
        resolve_2d(projective_space(3))
    with pytest.raises(ValueError, match="^refinement sources need a smooth fan"):
        inverse_image_coefficients(RefinementMap(p11r, p11r), 0)
    with pytest.raises(ValueError, match="^refinement targets need a 2-D fan: only surfaces"):
        inverse_image_coefficients(RefinementMap(projective_space(3), projective_space(3)), 0)


def test_stellar_subdivision_of_p112_gives_h2():
    w = weighted_P11r(2)
    ref = stellar_subdivide(w, (0, 1))
    assert set(ref.source.rays) == set(hirzebruch(2).rays)
    assert is_smooth(ref.source)


def test_resolve_2d_hj_chain():
    f = Fan.make(2, [(1, 0), (1, 4)], [(0, 1)])
    ref = resolve_2d(f)
    inserted = set(ref.source.rays) - set(f.rays)
    assert inserted == {(1, 1), (1, 2), (1, 3)}
    assert is_smooth(ref.source)


def test_resolve_2d_identity_on_smooth():
    p2 = projective_space(2)
    ref = resolve_2d(p2)
    assert ref.source == p2


def _coordinate(f, v, i):
    """The coordinate of v on ray i in the first maximal cone of f holding v."""
    c, x, D = max_cone_coords(f, v)
    return Fraction(x[c.index(i)], D) if i in c else 0


def test_cartier_divisors_pull_back_to_their_cone_coordinates():
    # every divisor of a smooth fan is Cartier, and so is D_2 of P(1,1,r)
    refs = [(stellar_subdivide(f, v), range(len(f.rays))) for f, v in
            ((projective_space(2), (1, 1)), (hirzebruch(2), (1, 1)),
             (hirzebruch(3), (-1, 4)))]
    refs += [(resolve_2d(weighted_P11r(r)), [2]) for r in range(1, 8)]
    for ref, cartier in refs:
        for i in cartier:
            want = tuple(_coordinate(ref.target, v, i) for v in ref.source.rays)
            assert inverse_image_coefficients(ref, i) == want
    # D_2 is no ray of the singular cone of P(1,1,5), so its ideal there is
    # the whole dual cone, least at m = 0
    assert _ideal_vertices(weighted_P11r(5), 0, 2) == ((0, 0),)
    # D_0 of P(1,1,2) is not Cartier: its Q-pullback 1/2 on the exceptional
    # ray rounds up to 1
    ref = resolve_2d(weighted_P11r(2))
    assert _coordinate(ref.target, (0, 1), 0) == Fraction(1, 2)
    assert inverse_image_coefficients(ref, 0)[ref.source.rays.index((0, 1))] == 1


def test_inverse_image_coefficients_p112():
    w = weighted_P11r(2)
    ref = resolve_2d(w)
    src = ref.source
    new = [i for i, r in enumerate(src.rays) if r not in w.rays]
    assert len(new) == 1
    rows = [inverse_image_coefficients(ref, a) for a in range(3)]
    # the exceptional ray appears with multiplicity 1 over D_0 and D_1, not D_2
    old_pos = {r: i for i, r in enumerate(src.rays)}
    for a, ray in enumerate(w.rays):
        assert rows[a][old_pos[ray]] == 1
    assert rows[0][new[0]] == 1
    assert rows[1][new[0]] == 1
    assert rows[2][new[0]] == 0


def test_minimal_cone_containing():
    p2 = projective_space(2)
    assert minimal_cone_containing(p2, (0, 0)) == ()
    i = p2.rays.index((1, 0))
    assert minimal_cone_containing(p2, (3, 0)) == (i,)
    cone = minimal_cone_containing(p2, (2, 1))
    assert set(cone) == {p2.rays.index((1, 0)), p2.rays.index((0, 1))}


@pytest.mark.parametrize("dim, rays, cones, bad", [
    (2, [(1.5, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], 1.5),
    (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1.0), (1, 2), (0, 2)], 1.0),
    (2, [(1, 0), (0, True), (-1, -1)], [(0, 1), (1, 2), (0, 2)], True),
    (2.0, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], 2.0),
])
def test_make_refuses_what_it_would_truncate(dim, rays, cones, bad):
    with pytest.raises(TypeError, match=f"must be integers, got {bad!r}$"):
        Fan.make(dim, rays, cones)


def test_json_roundtrip():
    f = hirzebruch(1)
    g = Fan.from_json_obj(json.loads(json.dumps(f._asdict())))
    assert f == g


ORACLE_FANS = ([projective_space(n) for n in (1, 2, 3)]
               + [product(projective_space(1), projective_space(1))]
               + [hirzebruch(r) for r in range(4)]
               + [weighted_P11r(r) for r in range(1, 6)])


def _oracle_cone_coords(f, v):
    """(cone, Fraction coordinates) on the first maximal cone containing v,
    from a fresh exact solve per cone, or None."""
    for c in f.max_cones:
        rays = f.cone_rays(c)
        x = solve_rational([[r[i] for r in rays] for i in range(f.dim)], list(v))
        if x is not None and all(xi >= 0 for xi in x):
            return c, x
    return None


@st.composite
def _fans_and_vectors(draw):
    """A fan from ORACLE_FANS, or one with some maximal cones dropped or cut
    to a facet (cones with fewer than d rays, vectors outside the support),
    and a vector inside a cone, on a wall, or anywhere in a small box."""
    f = draw(st.sampled_from(ORACLE_FANS))
    if draw(st.booleans()):
        cones = []
        for c in f.max_cones:
            keep = draw(st.sampled_from(["keep", "drop", "facet"]))
            if keep == "facet" and len(c) > 1:
                skip = draw(st.integers(0, len(c) - 1))
                cones.append(c[:skip] + c[skip + 1:])
            elif keep != "drop":
                cones.append(c)
        f = Fan.make(f.dim, f.rays, cones)
    box = st.lists(st.integers(-6, 6), min_size=f.dim, max_size=f.dim)
    if f.max_cones and draw(st.booleans()):
        c = draw(st.sampled_from(f.max_cones))
        coeffs = draw(st.lists(st.integers(0, 4), min_size=len(c), max_size=len(c)))
        v = [sum(a * f.rays[i][j] for a, i in zip(coeffs, c)) for j in range(f.dim)]
        if draw(st.booleans()):  # push it off the cone's span or across a wall
            v = [x + y for x, y in zip(v, draw(box))]
    else:
        v = draw(box)
    return f, tuple(v)


@settings(max_examples=300, deadline=None)
@given(_fans_and_vectors())
def test_cone_coordinates_match_the_exact_solver(fv):
    f, v = fv
    want = _oracle_cone_coords(f, v)
    hit = max_cone_coords(f, v)
    if want is None:
        assert hit is None
    else:
        cone, x, D = hit
        assert D > 0
        assert (cone, [Fraction(xi, D) for xi in x]) == want
    if all(x == 0 for x in v):
        want_min = ()
    else:
        want_min = None if want is None else tuple(
            i for i, xi in zip(*want) if xi > 0)
    assert minimal_cone_containing(f, v) == want_min


def _box_pullback_oracle(ref, i, radius):
    """inverse_image_coefficients by brute force: the minima of <m, n> over the
    ideal {m : <m, r_k> >= [k = i]} of each target cone, m in a box of the
    given radius; "not principal" when no point attains a source cone's minima."""
    tgt, src = ref.target, ref.source
    box = list(iter_product(range(-radius, radius + 1), repeat=tgt.dim))
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))
    ideals, coeffs = {}, {}
    for sc in src.max_cones:
        c, _, _ = max_cone_coords(tgt, [sum(col) for col in zip(*src.cone_rays(sc))])
        if c not in ideals:
            # off the cone the ideal is the dual cone, where m = 0 is least
            ideals[c] = [m for m in box
                         if all(dot(m, tgt.rays[k]) >= (k == i) for k in c)
                         ] if i in c else [(0,) * tgt.dim]
        values = [tuple(dot(m, src.rays[j]) for j in sc) for m in ideals[c]]
        mins = tuple(map(min, zip(*values)))
        if mins not in values:
            return "not principal"
        for j, v in zip(sc, mins):
            assert coeffs.setdefault(j, v) == v
    return tuple(coeffs.get(j, 0) for j in range(len(src.rays)))


@st.composite
def _complete_2d_fans(draw):
    """A complete simplicial 2-D fan on 3 to 6 primitive rays with entries in
    [-5, 5]: one ray in each quarter turn [90q, 90q + 90) degrees keeps every
    gap between neighbours below a half turn; up to two more rays may be
    added and one quarter's ray dropped."""
    def rotate(v, q):
        for _ in range(q):
            v = (-v[1], v[0])
        return v
    quarter = st.tuples(st.integers(1, 5), st.integers(0, 5))
    rays = {rotate(draw(quarter.filter(lambda v: gcd(*v) == 1)), q) for q in range(4)}
    extra = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda v: gcd(*v) == 1)
    rays |= set(draw(st.lists(extra, max_size=2)))
    rays = sorted(rays, key=lambda v: atan2(v[1], v[0]))
    if draw(st.booleans()):
        rays.pop(draw(st.integers(0, len(rays) - 1)))
    assume(all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in zip(rays, rays[1:] + rays[:1])))
    k = len(rays)
    return Fan.make(2, rays, [(i, (i + 1) % k) for i in range(k)])


@settings(max_examples=30, deadline=None)
@given(_complete_2d_fans())
def test_inverse_image_coefficients_match_a_wide_box(f):
    # the vertices of an ideal's hull lie in the triangle (0, g_o, g_i) of its
    # cone's primitive dual generators (see fan._ideal_vertices), whose
    # entries are at most 5 here, well inside the radius
    ref = resolve_2d(f)
    for i in range(len(f.rays)):
        try:
            got = inverse_image_coefficients(ref, i)
        except NotPrincipalError as e:
            got = e.reason.startswith("no simultaneous")
        want = _box_pullback_oracle(ref, i, 24)
        assert got == (True if want == "not principal" else want), (f, i)


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


_PRIMITIVE = st.tuples(st.integers(-150, 150), st.integers(-150, 150)).filter(
    lambda v: gcd(*v) == 1)


@settings(max_examples=200, deadline=None)
@given(_PRIMITIVE, _PRIMITIVE)
def test_hj_runs_expand_to_the_minimal_resolution(u, w):
    """The expanded chain, with u before and w after it, lies in cone(u, w),
    every two neighbours span a unimodular cone, every inner ray has b >= 2
    (so no ray can be dropped), and the runs take at most 2 log2(m) + 2."""
    m = abs(_det(u, w))
    assume(m)
    runs = _hj_runs(u, w)
    rays = [u] + [(v[0] + j * s[0], v[1] + j * s[1]) for v, s, t in runs for j in range(t)] + [w]
    sign = 1 if _det(u, w) > 0 else -1
    assert all(sign * _det(u, v) >= 0 and sign * _det(v, w) >= 0 for v in rays)
    assert all(sign * _det(a, b) == 1 for a, b in zip(rays, rays[1:])) or m == 1
    for a, v, b in zip(rays, rays[1:], rays[2:]):
        ab = (a[0] + b[0], a[1] + b[1])  # b v for an integer b >= 2
        assert _det(ab, v) == 0 and ab[0] * v[0] + ab[1] * v[1] >= 2 * (v[0] ** 2 + v[1] ** 2)
    assert len(runs) <= 2 * math.log2(m) + 2 if m > 1 else runs == []


@st.composite
def _singular_cones(draw):
    """A fan of one 2-D cone on primitive rays with entries in [-150, 150], of
    index 2 to 10^4."""
    u, w = draw(_PRIMITIVE), draw(_PRIMITIVE)
    assume(2 <= abs(_det(u, w)) <= 10 ** 4)
    return Fan.make(2, [u, w], [(0, 1)])


def _pullback_outcome(pullback, source, target, i):
    """pullback(RefinementMap(source, target), i), or the NotPrincipalError reason."""
    try:
        return pullback(RefinementMap(source, target), i)
    except NotPrincipalError as e:
        return e.reason


@settings(max_examples=40, deadline=None)
@given(_singular_cones(), st.data())
def test_ideal_vertices_match_the_coset_walk(f, data):
    """Against one reduced point per coset (oracles.ideal_reduced_points), for
    both divisors: every vertex lies in the ideal, the minimum over each source
    ray is the oracle's, and inverse_image_coefficients gives the same
    coefficients or NotPrincipalError reason on three smooth sources: a window
    of the resolution, that window cut at a random ray and resolved, and a
    unimodular cone anywhere."""
    src = resolve_2d(f).source
    j = data.draw(st.integers(0, len(src.max_cones) - 1))
    window = Fan.make(2, src.rays, src.max_cones[j:j + 3])
    a, b = window.cone_rays(window.max_cones[0])
    p, q = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda v: gcd(*v) == 1))
    c = data.draw(_PRIMITIVE)
    _, x, y = _xgcd(*c)
    sources = [window,
               resolve_2d(stellar_subdivide(window, (p * a[0] + q * b[0], p * a[1] + q * b[1])
                                            ).source).source,
               Fan.make(2, [c, (-y, x)], [(0, 1)])]
    inside = {n for g in sources[:2] for n in g.rays}
    dot = lambda m, n: m[0] * n[0] + m[1] * n[1]
    for i in (0, 1):
        got, want = _ideal_vertices(f, 0, i), oracles.ideal_reduced_points(f, 0, i)
        assert all(dot(m, r) >= (l == i) for m in got for l, r in enumerate(f.rays))
        # a simultaneous minimizer minimizes each of its rays, so the oracle's
        # points that minimize some source ray decide every cone as all do
        least, kept = {}, set()
        for n in {n for g in sources for n in g.rays}:
            values = [n[0] * m0 + n[1] * m1 for m0, m1 in want]
            least[n] = min(values)
            kept.update(m for m, v in zip(want, values) if v == least[n])
        assert all(min(dot(m, n) for m in got) == least[n] for n in inside), (f, i)
        for g in sources:
            # the uncached pullback, so that it reads the oracle's points
            with mock.patch.object(fan_module, "_ideal_vertices", lambda *key: kept):
                want_outcome = _pullback_outcome(inverse_image_coefficients.__wrapped__, g, f, i)
            assert _pullback_outcome(inverse_image_coefficients, g, f, i) == want_outcome, (f, i, g)
