import math
from itertools import product as iter_product

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import box_bound, box_generators, identity_refinement, raw_invariants, stellar_subdivide
from toricapprox import fan as fan_module, intlat
from toricapprox.conditions import (
    DivisorCondition,
    Kind,
    MultiplicitySet,
    ToricPair,
    campana,
    conditions_from_json,
    darmon,
    mred_in_closure_of_mfin,
    nm_generators,
    nm_singular,
    pair_invariants,
    pulled_back_set,
    support_is_conical,
    _invariants_from_gens,
    _phi,
)
from toricapprox.fan import (
    Fan,
    NotPrincipalError,
    RefinementMap,
    hirzebruch,
    product,
    inverse_image_coefficients,
    projective_space,
    resolve_2d,
    weighted_P11r,
)
from toricapprox.intlat import INF, cone_is_full

P1 = projective_space(1)
P2 = projective_space(2)


def radical(n):
    r = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            r *= d
            while n % d == 0:
                n //= d
        d += 1
    return r * (n if n > 1 else 1)


def test_admits_examples():
    c = DivisorCondition(Kind.CAMPANA, 2)
    assert c.admits(3) and not c.admits(1) and c.admits(0) and c.admits(INF)
    c = DivisorCondition(Kind.DARMON, 3)
    assert c.admits(6) and not c.admits(4) and c.admits(INF)
    c = DivisorCondition(Kind.STRICT_DARMON, 3)
    assert c.admits(6) and not c.admits(INF)
    for kind in (Kind.ANY, Kind.INTEGRAL, Kind.SQUAREFREE):
        assert DivisorCondition(kind).admits(0)
    assert DivisorCondition(Kind.SQUAREFREE).admits(1)
    assert not DivisorCondition(Kind.SQUAREFREE).admits(2)
    c = DivisorCondition(Kind.FINITE_SET, values=(0, 2), allow_infinity=True)
    assert c.admits(2) and c.admits(INF) and not c.admits(1)


def test_campana_infinity_admits_only_zero_and_infinity():
    c = DivisorCondition(Kind.CAMPANA, INF)
    assert c.admits(0) and c.admits(INF)
    assert not any(c.admits(w) for w in range(1, 10))


def test_support_is_conical():
    assert support_is_conical(ToricPair(P2, darmon([2, 2, 2])), {0, 1})
    assert not support_is_conical(ToricPair(P1, darmon([2, 2])), {0, 1})
    h2 = hirzebruch(2)
    i1, i3 = h2.rays.index((-1, 2)), h2.rays.index((1, 0))
    assert not support_is_conical(ToricPair(h2, darmon([2] * 4)), {i1, i3})


def test_nm_generators_examples():
    gens, _ = nm_generators(ToricPair(P1, campana([2, 3])))
    assert set(gens) == {(2,), (3,), (-3,), (-4,)}
    gens, _ = nm_generators(ToricPair(P2, darmon([2, 2, 2])))
    assert set(gens) == {(2, 0), (0, 2), (-2, -2)}
    ms = MultiplicitySet.of([DivisorCondition(Kind.INTEGRAL)] * 3)
    gens, _ = nm_generators(ToricPair(P2, ms))
    assert gens == []


def test_pair_invariants_examples():
    inv = pair_invariants(ToricPair(P2, darmon([2, 2, 2])))
    assert inv.index == 4
    assert inv.quotient.invariant_factors == (2, 2)
    assert inv.cone_full and not inv.nm_plus_equals_n
    inv = pair_invariants(ToricPair(projective_space(3), campana([2, 2, 2, 2])))
    assert inv.index == 1 and inv.cone_full and inv.nm_plus_equals_n
    ms = MultiplicitySet.of([DivisorCondition(Kind.INTEGRAL),
                             DivisorCondition(Kind.ANY),
                             DivisorCondition(Kind.ANY)])
    inv = pair_invariants(ToricPair(P2, ms))
    assert inv.index == 1 and not inv.cone_full and not inv.nm_plus_equals_n


def test_pair_invariants_rejects_singular_fan():
    with pytest.raises(ValueError, match="singular"):
        pair_invariants(ToricPair(weighted_P11r(2), darmon([2, 2, 2])))


def test_nm_plus_implies_index_one():
    for m in [(2, 2), (2, 3), (1, 5), (4, 6)]:
        inv = pair_invariants(ToricPair(P1, darmon(list(m))))
        if inv.nm_plus_equals_n:
            assert inv.index == 1


@pytest.mark.parametrize("m", [(2, 2, 2), (2, 3, 5), (4, 6, 9), (3, 3, 7)])
def test_nm_singular_p112_radical(m):
    pair = ToricPair(weighted_P11r(2), darmon(list(m)))
    inv = nm_singular(pair, resolve_2d(weighted_P11r(2)))
    assert radical(inv.index) == radical(math.gcd(m[0], m[1]))
    assert inv.notes == (_PULLBACK_NOTE,)


_PULLBACK_NOTE = "pullback generators: exact, a congruence lattice and a proven box per source cone"


def test_nm_singular_squarefree_is_exact():
    """Squarefree on P(1,1,2): every source ray is hit by a bounded row, so
    the admissible vectors on each cone are the proven box's; the one note
    names no bound."""
    ms = MultiplicitySet.of([DivisorCondition(Kind.SQUAREFREE)] * 3)
    ref = resolve_2d(weighted_P11r(2))
    inv = nm_singular(ToricPair(weighted_P11r(2), ms), ref)
    assert inv.notes == (_PULLBACK_NOTE,)
    coeffs = [inverse_image_coefficients(ref, a) for a in range(3)]
    assert inv.cone_generators == tuple(box_generators(ref.source, pulled_back_set(ms, coeffs), 2))


_REFINED = [resolve_2d(weighted_P11r(r)) for r in range(1, 6)] + \
    [identity_refinement(hirzebruch(r)) for r in range(4)]
# every finite multiplicity divides 12, so the box oracle's W stays <= 24
_EXACT_CONDS = st.one_of(
    st.sampled_from([DivisorCondition(Kind.ANY), DivisorCondition(Kind.INTEGRAL)]),
    st.builds(DivisorCondition, st.just(Kind.CAMPANA), st.sampled_from([1, 2, 3, INF])),
    st.builds(DivisorCondition, st.sampled_from([Kind.DARMON, Kind.STRICT_DARMON]),
              st.sampled_from([1, 2, 3, 4, 6, INF])),
)


@settings(max_examples=60, deadline=None)
@given(ref=st.sampled_from(_REFINED), data=st.data())
def test_exact_pullback_matches_the_box_search(ref, data):
    conds = data.draw(st.lists(_EXACT_CONDS, min_size=len(ref.target.rays),
                               max_size=len(ref.target.rays)))
    pair = ToricPair(ref.target, MultiplicitySet.of(conds))
    exact = nm_singular(pair, ref)
    coeffs = [inverse_image_coefficients(ref, a) for a in range(len(conds))]
    box = box_generators(ref.source, pulled_back_set(pair.conditions, coeffs),
                         box_bound(pair.conditions, coeffs))
    n = len(ref.source.rays)
    src_pair = ToricPair(ref.source, MultiplicitySet.of([DivisorCondition(Kind.ANY)] * n))
    oracle = _invariants_from_gens(src_pair, box)
    assert exact.index == oracle.index
    assert exact.quotient == oracle.quotient
    assert exact.cone_full == oracle.cone_full


_P11R = [resolve_2d(weighted_P11r(r)) for r in (2, 3, 5, 7)]
# every finite multiplicity divides 12 and every pullback coefficient is at
# most 1, so the box oracle's 2W stays <= 48
_ANY_CONDS = st.one_of(
    _EXACT_CONDS,
    st.just(DivisorCondition(Kind.SQUAREFREE)),
    st.builds(DivisorCondition, st.just(Kind.FINITE_SET),
              values=st.lists(st.sampled_from([0, 1, 2, 3, 4, 6]), max_size=3).map(tuple),
              allow_infinity=st.booleans()),
)
_CUSTOM_SETS = st.lists(st.tuples(*[st.sampled_from([0, 1, 2, 3, 4, 6, INF])] * 3),
                        max_size=4).map(
    lambda vs: MultiplicitySet.custom(sorted({(0, 0, 0), *vs,
                                              *(tuple(INF if x == INF else 0 for x in v)
                                                for v in vs)})))


@settings(max_examples=80, deadline=None)
@given(ref=st.sampled_from(_P11R),
       ms=st.one_of(st.lists(_ANY_CONDS, min_size=3, max_size=3).map(MultiplicitySet.of),
                    _CUSTOM_SETS))
# a bounded row and a Darmon row share the exceptional ray, which couples the
# proven box to the congruence lattice
@example(ref=_P11R[0], ms=MultiplicitySet.of([DivisorCondition(Kind.SQUAREFREE),
                                              DivisorCondition(Kind.DARMON, 3),
                                              DivisorCondition(Kind.DARMON, 2)]))
@example(ref=_P11R[3], ms=MultiplicitySet.of([
    DivisorCondition(Kind.FINITE_SET, values=(2, 3), allow_infinity=True),
    DivisorCondition(Kind.DARMON, 2), DivisorCondition(Kind.CAMPANA, 3)]))
def test_pullback_matches_the_box_search_at_w_and_2w(ref, ms):
    """Every Kind, finite sets with and without infinity, and custom lists:
    the exact pullback's index, quotient and cone_full are those of the box
    search at its bound W and at 2W."""
    inv = nm_singular(ToricPair(ref.target, ms), ref)
    coeffs = [inverse_image_coefficients(ref, a) for a in range(3)]
    src_pair = ToricPair(ref.source, MultiplicitySet.of([DivisorCondition(Kind.ANY)] * 4))
    W = box_bound(ms, coeffs)
    for bound in (W, 2 * W):
        box = box_generators(ref.source, pulled_back_set(ms, coeffs), bound)
        oracle = _invariants_from_gens(src_pair, box)
        assert (inv.index, inv.quotient, inv.cone_full) == \
            (oracle.index, oracle.quotient, oracle.cone_full), (ms, bound)


def test_a_bounded_pullback_checks_only_its_proven_box(monkeypatch):
    """FINITE_SET {3, 4, 5} on every divisor of P(1,1,7) bounds every source
    ray: 140 admissibility checks, where the box search at W = 120 made
    58,560, and the same index and cone_full.  A Darmon pair bounds no ray
    and checks nothing."""
    calls = []
    admits = MultiplicitySet.admits_vector
    monkeypatch.setattr(MultiplicitySet, "admits_vector",
                        lambda self, w: calls.append(w) or admits(self, w))
    ref = resolve_2d(weighted_P11r(7))
    ms = MultiplicitySet.of([DivisorCondition(Kind.FINITE_SET, values=(3, 4, 5))] * 3)
    inv = nm_singular(ToricPair(ref.target, ms), ref)
    assert len(calls) <= 200
    assert (inv.index, inv.cone_full) == (1, True)
    calls.clear()
    nm_singular(ToricPair(ref.target, darmon([2, 3, 7])), ref)
    assert calls == []


@pytest.mark.parametrize("gens, full", [
    ([(2, 0), (0, 2), (-2, -2)], True),   # index 4, the cone is all of R^2
    ([(1, 0), (0, 1)], False),            # the lattice is Z^2, the cone a quadrant
    ([(1, 0), (-1, 0)], False),           # rank 1
])
def test_invariants_from_gens_builds_one_hnf(monkeypatch, gens, full):
    """The quotient and the fullness test read one HNF of the generators."""
    calls = []
    hnf = intlat.hnf
    monkeypatch.setattr(intlat, "hnf", lambda *a: calls.append(a) or hnf(*a))
    inv = _invariants_from_gens(ToricPair(P2, darmon([2, 2, 2])), gens)
    assert len(calls) == 1
    assert inv.cone_full is full and cone_is_full(gens, 2) is full


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_one_generator_per_direction_matches_every_generator(d, data):
    """Index, quotient and cone_full read off one generator per primitive
    direction equal those of every generator as its own column, on lists
    with collinear multiples, opposite directions, rank deficiency, zero
    vectors, or nothing at all."""
    gens = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), max_size=5))
    for shape in data.draw(st.lists(st.sampled_from(["multiples", "opposite", "flat", "zero"]),
                                    max_size=3)):
        ks = data.draw(st.lists(st.integers(2, 6), min_size=len(gens), max_size=len(gens)))
        if shape == "multiples":
            gens = gens + [tuple(k * x for x in g) for g, k in zip(gens, ks)]
        elif shape == "opposite":
            gens = gens + [tuple(-k * x for x in g) for g, k in zip(gens, ks)]
        elif shape == "flat":
            gens = [g[:-1] + (0,) for g in gens]
        else:
            gens = gens + [(0,) * d]
    inv = _invariants_from_gens(ToricPair(projective_space(d), darmon([2] * (d + 1))), gens)
    got = (inv.index, inv.quotient.invariant_factors, inv.quotient.free_rank, inv.cone_full)
    assert got == raw_invariants(gens, d), gens
    assert inv.cone_generators == tuple(gens)


def test_the_lp_takes_one_column_per_ray(monkeypatch):
    """Campana 2,3,5,2 on H_2 has 8 generators, two multiples of each ray;
    the LP gets the 4 rays."""
    columns = []
    lp = intlat._lp_feasible
    monkeypatch.setattr(intlat, "_lp_feasible",
                        lambda A, b: columns.append(len(A[0])) or lp(A, b))
    inv = pair_invariants(ToricPair(hirzebruch(2), campana([2, 3, 5, 2])))
    assert len(inv.cone_generators) == 8 and columns == [4]
    assert inv.index == 1 and inv.cone_full


def test_nm_singular_reuses_the_pullback_of_an_equal_refinement(monkeypatch):
    pair = ToricPair(weighted_P11r(3), darmon([2, 3, 7]))
    first = nm_singular(pair, resolve_2d(weighted_P11r(3)))
    calls = []
    fn = fan_module._ideal_vertices
    monkeypatch.setattr(fan_module, "_ideal_vertices", lambda *a: calls.append(a) or fn(*a))
    second = nm_singular(pair, resolve_2d(weighted_P11r(3)))
    assert calls == []
    assert second == first


def test_nm_singular_identity_refinement_matches_smooth_path():
    pair = ToricPair(P2, darmon([2, 2, 2]))
    a = pair_invariants(pair)
    b = nm_singular(pair, identity_refinement(P2))
    assert a.index == b.index
    assert a.quotient.invariant_factors == b.quotient.invariant_factors


def test_a_pullback_that_is_not_principal_raises_where_it_arises():
    """P^2 is no refinement of P^1 x P^1: its cone on (1, 0) and (-1, -1)
    lies in no quadrant, so the first divisor's pullback fails there, and
    nm_singular passes the error on as inverse_image_coefficients raised it."""
    pp = product(projective_space(1), projective_space(1))
    ref = RefinementMap(P2, pp)
    msg = ("inverse image of divisor 0 not certified principal: "
           "source cone not contained in any target cone")
    for call in (lambda: nm_singular(ToricPair(pp, darmon([2] * 4)), ref),
                 lambda: inverse_image_coefficients(ref, 0)):
        with pytest.raises(NotPrincipalError) as info:
            call()
        assert str(info.value) == msg
        assert info.value.divisor_index == 0
        assert info.value.reason == "source cone not contained in any target cone"


def test_nm_singular_refinement_independent():
    w = weighted_P11r(2)
    pair = ToricPair(w, darmon([2, 2, 2]))
    a = nm_singular(pair, resolve_2d(w))
    # a different smooth refinement: subdivide further
    ref = resolve_2d(w)
    src = ref.source
    extra = stellar_subdivide(src, tuple(x + y for x, y in
                                         zip(src.rays[src.max_cones[0][0]],
                                             src.rays[src.max_cones[0][1]])))
    ref2 = RefinementMap(extra.source, w)
    b = nm_singular(pair, ref2)
    assert a.index == b.index
    assert a.quotient.invariant_factors == b.quotient.invariant_factors


def test_invariance_under_ray_reordering():
    perm = [2, 0, 1]
    f = Fan.make(2, [P2.rays[i] for i in perm],
                 [tuple(sorted(perm.index(i) for i in c)) for c in P2.max_cones])
    m = [2, 3, 4]
    a = pair_invariants(ToricPair(P2, darmon(m)))
    b = pair_invariants(ToricPair(f, darmon([m[i] for i in perm])))
    assert a.index == b.index
    assert a.quotient.invariant_factors == b.quotient.invariant_factors
    assert a.cone_full == b.cone_full


def test_invariance_under_unimodular_basis_change():
    # conjugate P2 by [[1, 1], [0, 1]]
    T = [[1, 1], [0, 1]]
    rays = [tuple(sum(T[i][j] * r[j] for j in range(2)) for i in range(2))
            for r in P2.rays]
    f = Fan.make(2, rays, P2.max_cones)
    a = pair_invariants(ToricPair(P2, darmon([2, 4, 6])))
    b = pair_invariants(ToricPair(f, darmon([2, 4, 6])))
    assert a.index == b.index
    assert a.quotient.invariant_factors == b.quotient.invariant_factors
    assert a.cone_full == b.cone_full


def test_mred_closure():
    assert mred_in_closure_of_mfin(ToricPair(P1, campana([2, 2])))
    ms = MultiplicitySet.of([DivisorCondition(Kind.FINITE_SET, values=(0, 2),
                                              allow_infinity=True),
                             DivisorCondition(Kind.ANY)])
    assert not mred_in_closure_of_mfin(ToricPair(P1, ms))
    ms = MultiplicitySet.of([DivisorCondition(Kind.STRICT_DARMON, 2)] * 2)
    assert mred_in_closure_of_mfin(ToricPair(P1, ms))
    # weak Campana: a multiplicity outside {1, inf} carries the sum past 1
    assert mred_in_closure_of_mfin(ToricPair(P1, MultiplicitySet.weak_campana([1, 2])))
    assert not mred_in_closure_of_mfin(ToricPair(P1, MultiplicitySet.weak_campana([1, INF])))
    # custom: a listed infinite entry on a cone is no limit of listed finite ones
    assert not mred_in_closure_of_mfin(
        ToricPair(P1, MultiplicitySet.custom([(0, 0), (2, 0), (INF, 0)])))
    assert mred_in_closure_of_mfin(ToricPair(P1, MultiplicitySet.custom([(0, 0), (2, 0)])))
    # (INF, INF) lies on no cone of P^1, so it imposes nothing
    ms = MultiplicitySet.custom([(0, 0), (2, 0), (INF, INF)])
    assert mred_in_closure_of_mfin(ToricPair(P1, ms))


def test_custom_sets_validated():
    with pytest.raises(ValueError, match="zero"):
        MultiplicitySet.custom([(1, 0)])
    with pytest.raises(ValueError, match="projection"):
        MultiplicitySet.custom([(0, 0), (INF, 1)])
    ms = MultiplicitySet.custom([(0, 0), (2, 0), (INF, 0)])
    assert ms.admits_vector((2, 0))
    assert not ms.admits_vector((1, 0))
    for bad in (-1, True, 1.0, "2"):
        with pytest.raises(ValueError, match="naturals or infinity"):
            MultiplicitySet.custom([(0, 0), (bad, 0)])
    with pytest.raises(ValueError, match="same length"):
        MultiplicitySet.custom([(0, 0, 0), (1, 2)])


def test_booleans_are_not_multiplicities():
    for kind in (Kind.CAMPANA, Kind.DARMON, Kind.STRICT_DARMON):
        with pytest.raises(ValueError, match="needs m"):
            DivisorCondition(kind, True)
    with pytest.raises(ValueError, match="naturals"):
        DivisorCondition(Kind.FINITE_SET, values=(True,))
    with pytest.raises(ValueError, match="weak_campana"):
        MultiplicitySet.weak_campana([True, 2])
    for obj in ([{"type": "campana", "m": True}], {"type": "weak_campana", "m": [True, 2]},
                {"type": "custom", "vectors": [[0, 0], [False, 0]]}):
        with pytest.raises(ValueError, match="integer or 'inf'"):
            conditions_from_json(obj)


def test_custom_generators_match_the_box_search():
    # on P^2 the finite listed vectors on a cone generate; (1, 1, 1) lies on none
    ms = MultiplicitySet.custom([(0, 0, 0), (2, 0, 0), (0, 3, 0), (2, 3, 0), (1, 1, 1),
                                 (INF, 0, 0), (INF, 3, 0)])
    pair = ToricPair(P2, ms)
    gens = nm_generators(pair)[0]
    assert sorted(set(gens)) == box_generators(P2, ms.admits_vector, 3) == [
        (0, 3), (2, 0), (2, 3)]
    inv = pair_invariants(pair)
    assert (inv.index, inv.cone_full) == (6, False)
    assert inv.notes == ("custom(7 vectors; the list is treated as the definition, "
                         "infinite tails are not inferred)",)


def test_custom_pullback_keeps_the_custom_note():
    # P(1,1,2): the exceptional ray (0, 1) sits over D_0 and D_1 with
    # multiplicity 1, so (0, 0, 0, 1) pulls back to (1, 1, 0); (1, 1, 0, 0)
    # lies on no source cone
    ms = MultiplicitySet.custom([(0, 0, 0), (1, 1, 0), (0, 0, 1)])
    pair = ToricPair(weighted_P11r(2), ms)
    ref = resolve_2d(weighted_P11r(2))
    coeffs = [inverse_image_coefficients(ref, a) for a in range(3)]
    box = box_generators(ref.source, pulled_back_set(ms, coeffs), 2)
    assert box == [(0, -1), (0, 1)]
    inv = nm_singular(pair, ref)
    assert inv.cone_generators == tuple(box)
    assert (inv.index, inv.cone_full) == (INF, False)
    assert inv.notes == (_PULLBACK_NOTE,
                         "custom(3 vectors; the list is treated as the definition, "
                         "infinite tails are not inferred)")


def test_weak_campana():
    ms = MultiplicitySet.weak_campana([2, 2])
    assert ms.admits_vector((0, 0))
    assert ms.admits_vector((2, 0))
    assert ms.admits_vector((1, 1))
    assert not ms.admits_vector((1, 0))
    inv = pair_invariants(ToricPair(P1, ms))
    assert inv.index == 1
    with pytest.raises(ValueError, match="weak_campana"):
        MultiplicitySet.weak_campana([0, 2])


def test_weak_campana_cone_is_full_beyond_a_small_box():
    # on P^2 with m = (2, 1, 1) these admissible vectors positively span N_R,
    # since phi(2, 5, 0) + phi(2, 0, 5) = (-1, 0); none with entries <= 3 do
    ms = MultiplicitySet.weak_campana([2, 1, 1])
    witnesses = [(2, 0, 0), (2, 5, 0), (2, 0, 5)]
    assert all(ms.admits_vector(w) for w in witnesses)
    assert cone_is_full([_phi(P2, w) for w in witnesses], 2)
    assert not cone_is_full(box_generators(P2, ms.admits_vector, 3), 2)
    assert pair_invariants(ToricPair(P2, ms)).nm_plus_equals_n


@settings(max_examples=40, deadline=None)
@given(ref=st.sampled_from(_REFINED), data=st.data())
def test_weak_campana_generators_against_the_box_search(ref, data):
    """Box vectors with entries <= max(m) + 1 span N_M (m_a e_b and
    m_a e_b + e_i fit), and they are admissible, so a full box cone forces a
    full cone(N_M^+)."""
    m = data.draw(st.lists(st.sampled_from([1, 2, 3, INF]), min_size=len(ref.target.rays),
                           max_size=len(ref.target.rays)))
    pair = ToricPair(ref.target, MultiplicitySet.weak_campana(m))
    exact = nm_singular(pair, ref)
    coeffs = [inverse_image_coefficients(ref, a) for a in range(len(m))]
    W = max([x for x in m if x != INF], default=0) + 1
    box = box_generators(ref.source, pulled_back_set(pair.conditions, coeffs), W)
    n = len(ref.source.rays)
    src_pair = ToricPair(ref.source, MultiplicitySet.of([DivisorCondition(Kind.ANY)] * n))
    oracle = _invariants_from_gens(src_pair, box)
    assert exact.index == oracle.index
    assert exact.cone_full or not oracle.cone_full


def _singular_grid():
    """P(1,1,r) pairs, r in {2, 3, 5, 7}: Darmon, Campana and strict Darmon
    conditions with m in {1, 2, 3, 4, 6, inf}^3, then the triples over ANY,
    INTEGRAL, Darmon 2, Campana 3, strict Darmon 4 and Darmon inf that hold
    ANY or INTEGRAL."""
    ms = (1, 2, 3, 4, 6, INF)
    mix = [DivisorCondition(Kind.ANY), DivisorCondition(Kind.INTEGRAL),
           DivisorCondition(Kind.DARMON, 2), DivisorCondition(Kind.CAMPANA, 3),
           DivisorCondition(Kind.STRICT_DARMON, 4), DivisorCondition(Kind.DARMON, INF)]
    for r in (2, 3, 5, 7):
        for kind in (Kind.DARMON, Kind.CAMPANA, Kind.STRICT_DARMON):
            for m in iter_product(ms, repeat=3):
                yield r, [DivisorCondition(kind, x) for x in m]
        for conds in iter_product(mix, repeat=3):
            if any(c.kind in (Kind.ANY, Kind.INTEGRAL) for c in conds):
                yield r, list(conds)


def test_singular_cone_full_is_read_off_the_pullback(monkeypatch):
    """On 3,200 singular pairs cone_full is what one LP on the generators
    says, and where the S_tau cover every source ray no LP runs: that holds
    exactly when each condition whose divisor's inverse image is nonzero
    admits arbitrarily large finite multiplicities."""
    calls = []
    lp = intlat._lp_feasible
    monkeypatch.setattr(intlat, "_lp_feasible", lambda *a: calls.append(a) or lp(*a))
    seen = {True: 0, False: 0}
    for r, conds in _singular_grid():
        ref = resolve_2d(weighted_P11r(r))
        coeffs = [inverse_image_coefficients(ref, a) for a in range(3)]
        covered = all(c.finite_part_unbounded() for row, c in zip(coeffs, conds) if any(row))
        calls.clear()
        inv = nm_singular(ToricPair(ref.target, MultiplicitySet.of(conds)), ref)
        assert not (covered and calls), (r, conds)
        assert inv.cone_full == cone_is_full(inv.cone_generators, 2), (r, conds)
        seen[covered] += 1
    assert sum(seen.values()) == 3200 and seen[True] and seen[False]


def test_json_parsing():
    ms = conditions_from_json([{"type": "campana", "m": 2},
                               {"type": "darmon", "m": "inf"}])
    assert ms.conditions[0].kind is Kind.CAMPANA
    assert ms.conditions[1].m == INF
    ms = conditions_from_json({"type": "custom",
                               "vectors": [[0, 0], [2, 0], ["inf", 0]]})
    assert ms.admits_vector((INF, 0))
    ms = conditions_from_json({"type": "weak_campana", "m": [2, "inf"]})
    assert ms == MultiplicitySet.weak_campana([2, INF])
    for flag in (True, False, None):
        obj = {"type": "finite_set", "values": [2]}
        if flag is not None:
            obj["allow_infinity"] = flag
        assert conditions_from_json([obj]).conditions[0].admits(INF) is bool(flag)
    with pytest.raises(ValueError, match="allow_infinity must be true or false, got 'no'"):
        conditions_from_json([{"type": "finite_set", "values": [2], "allow_infinity": "no"}])
    # as strict as the Python API: DivisorCondition(Kind.ANY, 7) raises too
    for obj, msg in (([{"type": "any", "m": 7}], "any takes no key 'm'"),
                     ([{"type": "campana", "m": 2, "values": [5]}], "campana takes no key"),
                     ([[2]], r"a condition must be a JSON object, got \[2\]"),
                     ({"type": "custom", "vectors": [[0]], "values": []}, "custom takes no key"),
                     ({"type": "weak_campana", "m": [2], "vectors": []}, "weak_campana takes no"),
                     (5, "unrecognized multiplicity set: 5")):
        with pytest.raises(ValueError, match=msg):
            conditions_from_json(obj)
