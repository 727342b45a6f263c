import json
from itertools import product
from math import gcd

import pytest

import oracles
from oracles import coprime_box, signed_box_projective, signed_box_toric, torus_kernel_basis
from toricapprox.conditions import (
    DivisorCondition,
    Kind,
    MultiplicitySet,
    ToricPair,
    campana,
    darmon,
)
from toricapprox.enumerate import (
    Census,
    _coprime_box,
    _sign_group,
    canonical_interior,
    census_to_csv,
    crosscheck,
    enumerate_projective,
    enumerate_toric,
)
from toricapprox import enumerate as enumerate_module, points
from toricapprox.fan import hirzebruch, product as fan_product, projective_space, weighted_P11r
from toricapprox.intlat import INF
from toricapprox.points import (
    CoxPoint,
    factorize,
    is_m_full,
    is_m_point,
    is_perfect_power,
    m_point_check,
    v_p,
)

P1 = projective_space(1)
P2 = projective_space(2)


def multiplicity_vectors(P):
    """((p, multiplicity vector), ...) at the primes of P, as the M-point core
    reads them."""
    return m_point_check(P.fan, P.coords, lambda v: True, {})[1]


def test_p1_campana_anchor():
    # oracle: both coordinates 2-full (0 counts, per the infinity convention)
    expect = sum(1 for a, b in coprime_box(2, 9)
                 if is_m_full(a, 2) and is_m_full(b, 2))
    census = enumerate_projective(ToricPair(P1, campana([2, 2])), 9)
    assert census.count == expect == 24
    assert (1, 0) in census.points and (0, 1) in census.points


def test_p1_darmon_anchor():
    expect = sum(1 for a, b in coprime_box(2, 9)
                 if is_perfect_power(a, 2) and is_perfect_power(b, 2))
    census = enumerate_projective(ToricPair(P1, darmon([2, 2])), 9)
    assert census.count == expect == 16


def test_p1_any_height_one():
    ms = MultiplicitySet.of([DivisorCondition(Kind.ANY)] * 2)
    census = enumerate_projective(ToricPair(P1, ms), 1)
    assert census.points == ((0, 1), (1, -1), (1, 0), (1, 1))


def test_every_listed_point_is_an_m_point():
    pair = ToricPair(P2, campana([2, 2, 2]))
    census = enumerate_projective(pair, 4)
    assert census.count == len(census.points)
    for tup in census.points:
        assert is_m_point(pair, CoxPoint.make(P2, tup)).ok


def test_census_monotone_in_height():
    pair = ToricPair(P1, darmon([2, 3]))
    counts = [enumerate_projective(pair, H).count for H in (1, 3, 5, 9)]
    assert counts == sorted(counts)


def test_projective_census_errors():
    with pytest.raises(ValueError, match="height"):
        enumerate_projective(ToricPair(P1, campana([2, 2])), 0)
    with pytest.raises(ValueError, match="projective"):
        enumerate_projective(ToricPair(hirzebruch(1), campana([2] * 4)), 1)


def test_toric_census_h2_units():
    ms = MultiplicitySet.of([DivisorCondition(Kind.ANY)] * 4)
    pair = ToricPair(hirzebruch(2), ms)
    census = enumerate_toric(pair, 1)
    # orbit oracle: partition the +-1 tuples by canonical representative
    pts = [CoxPoint.make(pair.fan, t) for t in product([1, -1], repeat=4)]
    orbits = {canonical_interior(pair, P.coords, multiplicity_vectors(P)) for P in pts}
    assert census.count == len(orbits) == 4


def test_toric_census_product_law():
    ms4 = campana([2, 2, 2, 2])
    pp = fan_product(P1, P1)
    square = enumerate_toric(ToricPair(pp, ms4), 4)
    line = enumerate_toric(ToricPair(P1, campana([2, 2])), 4)
    assert square.count == line.count ** 2


def test_toric_census_empty_box():
    census = enumerate_toric(ToricPair(P1, campana([2, 2])), 0)
    assert census.count == 0


def test_toric_census_errors():
    with pytest.raises(ValueError, match="smooth"):
        enumerate_toric(ToricPair(weighted_P11r(2), darmon([2, 2, 2])), 1)


def test_crosscheck_campana_and_darmon_p1():
    rep = crosscheck(ToricPair(P1, campana([2, 2])), 50)
    assert rep.ok and rep.checked > 0
    rep = crosscheck(ToricPair(P1, darmon([2, 3])), 50)
    assert rep.ok


def test_crosscheck_squarefree_p2():
    ms = MultiplicitySet.of([DivisorCondition(Kind.SQUAREFREE)] * 3)
    rep = crosscheck(ToricPair(P2, ms), 12)
    assert rep.ok


def test_emitters():
    pair = ToricPair(P1, campana([2, 2]))
    census = enumerate_projective(pair, 2)
    obj = json.loads(json.dumps(census.to_json()))
    assert obj["count"] == census.count
    assert "normalization_note" in obj
    text = census_to_csv(census)
    lines = text.strip().splitlines()
    assert lines[0] == "a0,a1,is_m_point"
    assert len(lines) == census.count + 1


@pytest.mark.parametrize("fan", [projective_space(n) for n in (1, 2, 3)]
                         + [fan_product(P1, P1)] + [hirzebruch(r) for r in range(4)]
                         + [projective_space(4), fan_product(P2, P1),
                            fan_product(hirzebruch(1), P1)])
def test_sign_group_is_cached_per_fan(fan):
    basis = torus_kernel_basis(fan)
    fresh = set()
    for picks in product((0, 1), repeat=len(basis)):
        k = [sum(c * b[i] for c, b in zip(picks, basis)) for i in range(len(fan.rays))]
        fresh.add(tuple(1 - 2 * (x % 2) for x in k))
    group = _sign_group(fan)
    assert isinstance(group, tuple) and all(isinstance(s, tuple) for s in group)
    assert sorted(group) == sorted(fresh) and len(group) == len(fresh)
    assert _sign_group(fan) is group


def test_toric_census_computes_each_valuation_vector_once(monkeypatch):
    """One job reaches _multiplicities once per distinct valuation vector in
    its box, though every tuple's vectors are read, for its verdict and, when
    it is admissible, for its orbit's canonical representative."""
    pair = ToricPair(fan_product(P1, P1), darmon([2, 3, 2, 3]))
    H = 5
    points._mult_memo.cache_clear()
    seen = []
    real = points._multiplicities

    def counting(fan, key):
        seen.append(key)
        return real(fan, key)

    monkeypatch.setattr(points, "_multiplicities", counting)
    enumerate_toric(pair, H)
    vals = [*range(-H, 0), *range(1, H + 1)]
    distinct = {tuple(v_p(a, p) for a in tup)
                for tup in product(vals, repeat=4)
                for p in {q for a in tup for q in factorize(a)}}
    assert len(seen) == len(set(seen))
    assert set(seen) == distinct


@pytest.mark.parametrize("job", [enumerate_projective, crosscheck])
def test_projective_census_computes_each_valuation_key_once(monkeypatch, job):
    """Boundary points go through the per-fan memo as interior ones do: one
    _multiplicities call per distinct key, INF on the zero set of a coprime
    integer tuple and its valuations elsewhere, and each key is its own
    multiplicity vector."""
    pair = ToricPair(P2, darmon([2, 3, 2]))
    H = 6
    points._mult_memo.cache_clear()
    seen = []
    real = points._multiplicities

    def counting(fan, key):
        seen.append(key)
        assert real(fan, key) == key
        return key

    monkeypatch.setattr(points, "_multiplicities", counting)
    job(pair, H)
    distinct = {tuple(INF if a == 0 else v_p(a, p) for a in tup)
                for tup in coprime_box(3, H)
                for p in {q for a in tup if a for q in factorize(a)}}
    assert any(INF in key for key in distinct)
    assert len(seen) == len(set(seen))
    assert set(seen) == distinct


@pytest.mark.parametrize("job", [
    lambda: enumerate_toric(ToricPair(fan_product(P1, P1), campana([2, 2, 3, 3])), 6),
    lambda: enumerate_toric(ToricPair(hirzebruch(1), darmon([2, 1, 2, 1])), 5),
    lambda: enumerate_projective(ToricPair(P2, campana([2, 2, 2])), 6),
    lambda: crosscheck(ToricPair(P2, darmon([2, 3, 2])), 6),
])
def test_census_unchanged_when_the_memo_is_cleared_before_every_tuple(monkeypatch, job):
    """Each tuple reaches m_point_check with the per-fan memo empty and a
    fresh verdict dict, so every vector comes from _multiplicities again."""
    want = job()
    real = points.m_point_check
    tuples = []

    def cold(fan, coords, admits, verdicts, *rest):
        points._mult_memo.cache_clear()
        tuples.append(coords)
        return real(fan, coords, admits, {}, *rest)

    monkeypatch.setattr(points, "m_point_check", cold)
    monkeypatch.setattr(enumerate_module, "m_point_check", cold)
    assert job() == want
    assert tuples


def _sets(n):
    """Campana, Darmon, squarefree, weak-Campana and custom sets on n rays."""
    custom = ([tuple(0 for _ in range(n))]
              + [tuple(w if j == i else 0 for j in range(n)) for i in range(n) for w in (2, 3)]
              + [tuple(INF if j == i else 0 for j in range(n)) for i in range(n)]
              + [tuple(2 for _ in range(n)), tuple(1 if j % 2 else 2 for j in range(n))])
    return [campana([2, 3, 2, 3][:n]), darmon([2, 3, 2, 2][:n]),
            MultiplicitySet.of([DivisorCondition(Kind.SQUAREFREE)] * n),
            MultiplicitySet.weak_campana([2, 3, 1, 2][:n]), MultiplicitySet.custom(custom)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("which", range(5))
def test_projective_census_equals_the_signed_box(n, which):
    """Deciding each magnitude pattern once lists the points, in the order,
    that one verdict per signed tuple of the coprime box lists."""
    pair = ToricPair(projective_space(n), _sets(n + 1)[which])
    for H in range(1, 6):
        assert enumerate_projective(pair, H).points == signed_box_projective(pair, H), H


@pytest.mark.parametrize("fan", [P1, fan_product(P1, P1)] + [hirzebruch(r) for r in range(3)])
@pytest.mark.parametrize("which", range(5))
def test_toric_census_equals_the_signed_box(fan, which):
    """One verdict per positive tuple and one representative per coset of the
    sign group give the orbits that one verdict per signed tuple gives."""
    pair = ToricPair(fan, _sets(len(fan.rays))[which])
    for H in range(0, 5):
        assert enumerate_toric(pair, H).points == signed_box_toric(pair, H), H


def _character_sets(n):
    """Campana, Darmon, mixed Campana and squarefree sets on an even n rays."""
    return [campana([2] * n), darmon([2] * n), campana([2, 3] * (n // 2)),
            MultiplicitySet.of([DivisorCondition(Kind.SQUAREFREE)] * n)]


@pytest.mark.parametrize("fan, H", [
    (fan_product(fan_product(P1, P1), P1), 3), (fan_product(hirzebruch(2), P1), 3),
    (fan_product(P1, P1), 4), (hirzebruch(1), 4)], ids=["P1xP1xP1", "H2xP1", "P1xP1", "H1"])
@pytest.mark.parametrize("which", range(4))
def test_toric_census_counts_the_distinct_torus_characters(fan, H, which):
    """Two interior points share an orbit of the relation torus iff their
    torus characters agree, at class-group rank 3 as at rank 2."""
    pair = ToricPair(fan, _character_sets(len(fan.rays))[which])
    assert enumerate_toric(pair, H).count == oracles.character_orbits(pair, H)


def _spy(monkeypatch):
    """Record the coordinates of every m_point_check call the census module
    makes."""
    seen = []
    real = enumerate_module.m_point_check

    def spy(fan, coords, *rest):
        seen.append(tuple(coords))
        return real(fan, coords, *rest)

    monkeypatch.setattr(enumerate_module, "m_point_check", spy)
    return seen


def test_crosscheck_checks_every_signed_tuple(monkeypatch):
    """crosscheck tests the core against the arithmetic oracle, so it hands
    it every tuple of the coprime box, sign variants included."""
    seen = _spy(monkeypatch)
    H = 4
    rep = crosscheck(ToricPair(P2, darmon([2, 3, 2])), H)
    box = list(coprime_box(3, H))
    assert seen == box
    assert any(x < 0 for tup in seen for x in tup)
    assert rep.checked == len(box)


@pytest.mark.parametrize("pair,H", [
    (ToricPair(P2, campana([2, 2, 2])), 6),
    (ToricPair(projective_space(3), darmon([2, 3, 2, 3])), 3),
    (ToricPair(P1, MultiplicitySet.weak_campana([2, 3])), 9),
])
def test_projective_census_decides_each_magnitude_pattern_once(monkeypatch, pair, H):
    seen = _spy(monkeypatch)
    enumerate_projective(pair, H)
    n = len(pair.fan.rays)
    assert seen == [t for t in product(range(H + 1), repeat=n) if gcd(*t) == 1]


@pytest.mark.parametrize("pair,H", [
    (ToricPair(fan_product(P1, P1), campana([2, 2, 3, 3])), 4),
    (ToricPair(hirzebruch(1), darmon([2, 1, 2, 1])), 4),
    (ToricPair(P1, darmon([2, 3])), 8),
])
def test_toric_census_decides_each_magnitude_pattern_once(monkeypatch, pair, H):
    seen = _spy(monkeypatch)
    enumerate_toric(pair, H)
    assert seen == list(product(range(1, H + 1), repeat=len(pair.fan.rays)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coprime_box_walks_the_kept_half_in_product_order(n):
    """The leading-zero blocks, most zeros first, give the tuples and the
    order of filtering the whole box [-H, H]^n."""
    assert list(_coprime_box(n, 0)) == []
    for H in range(7):
        assert list(_coprime_box(n, H)) == list(coprime_box(n, H)), H


def _oracle_sets(n):
    """Conditions of every kind with an arithmetic oracle on n rays, each
    kind on every divisor, and one mix of kinds."""
    conds = [DivisorCondition(Kind.ANY), DivisorCondition(Kind.INTEGRAL),
             DivisorCondition(Kind.CAMPANA, 2), DivisorCondition(Kind.CAMPANA, INF),
             DivisorCondition(Kind.DARMON, 2), DivisorCondition(Kind.DARMON, 3),
             DivisorCondition(Kind.STRICT_DARMON, 2), DivisorCondition(Kind.SQUAREFREE),
             DivisorCondition(Kind.FINITE_SET, values=(0, 1, 3)),
             DivisorCondition(Kind.FINITE_SET, values=(0, 2), allow_infinity=True)]
    return ([MultiplicitySet.of([c] * n) for c in conds]
            + [MultiplicitySet.of([conds[(3 * i + 2) % len(conds)] for i in range(n)])])


@pytest.mark.parametrize("fan,H", [(P1, 30), (P2, 8), (projective_space(3), 4)])
def test_crosscheck_equals_the_per_tuple_oracle(monkeypatch, fan, H):
    """Judging each (divisor, value) once gives the report, checked count and
    divergences in box order, of asking the oracle for every tuple; also with
    the core's verdict flipped on every fifth tuple of the box."""
    pairs = [ToricPair(fan, ms) for ms in _oracle_sets(len(fan.rays))]
    for pair in pairs:
        assert crosscheck(pair, H) == oracles.crosscheck(pair, H), pair.conditions
    box = list(coprime_box(len(fan.rays), H))
    flip = set(box[::5])
    real = points.m_point_check

    def flipping(fan, coords, *rest):
        witness, vectors = real(fan, coords, *rest)
        if tuple(coords) in flip:
            witness = witness._replace(ok=not witness.ok)
        return witness, vectors

    monkeypatch.setattr(enumerate_module, "m_point_check", flipping)
    monkeypatch.setattr(oracles, "m_point_check", flipping)
    for pair in pairs:
        rep = crosscheck(pair, H)
        assert rep == oracles.crosscheck(pair, H), pair.conditions
        assert rep.checked == len(box)
        assert [d[0] for d in rep.divergences] == [t for t in box if t in flip]


def test_crosscheck_asks_the_oracle_once_per_divisor_and_signed_value(monkeypatch):
    """The oracle table is keyed on the signed value, so negative values still
    reach the oracle, each once per divisor."""
    ms = MultiplicitySet.of([DivisorCondition(Kind.CAMPANA, 2), DivisorCondition(Kind.DARMON, 3),
                             DivisorCondition(Kind.SQUAREFREE)])
    real = enumerate_module._oracle_admits
    calls = []
    monkeypatch.setattr(enumerate_module, "_oracle_admits",
                        lambda c, a: calls.append((c, a)) or real(c, a))
    H = 6
    crosscheck(ToricPair(P2, ms), H)
    assert len(calls) == len(set(calls))
    assert {a for c, a in calls if c == ms.conditions[1]} == set(range(-H, H + 1))
