import math
from fractions import Fraction

import pytest

from toricapprox.approx import (
    ApproxCertificate,
    GammaData,
    LocalConstraint,
    RetriesExhausted,
    ScanCapExhausted,
    build_gamma,
    m_point_approximate,
    recombine,
    solve_local_exponents,
    squarefree_approximate,
)
from toricapprox.conditions import ToricPair, campana, darmon
from toricapprox.fan import hirzebruch, projective_space
from toricapprox.points import CoxPoint, is_m_point, is_squarefree, v_p

P1 = projective_space(1)
P2 = projective_space(2)


def test_squarefree_smallest_solutions():
    # the scan starts at the residue itself
    assert squarefree_approximate([LocalConstraint(2, Fraction(1), 3)]) == [1]
    assert squarefree_approximate([LocalConstraint(3, Fraction(2), 2)]) == [2]


def test_squarefree_avoid_and_coprime():
    out = squarefree_approximate([LocalConstraint(2, Fraction(1), 3)], R=3)
    assert len(out) == 3
    for i, f in enumerate(out):
        n = int(f)
        assert is_squarefree(n)
        assert n % 8 == 1 % 8
        for g in out[:i]:
            assert math.gcd(n, int(g)) == 1
    # scan for n = 3 mod 4 starts at 3; blocking 3 moves to the next by |n|, -1
    assert squarefree_approximate([LocalConstraint(2, Fraction(3), 2)],
                                  avoid=[3]) == [-1]


def test_squarefree_multi_constraint():
    cons = [LocalConstraint(2, Fraction(3, 4), 3),
            LocalConstraint(5, Fraction(2), 2)]
    (f,) = squarefree_approximate(cons)
    assert v_p(f, 2) == -2
    assert v_p(f, 5) == 0
    for c in cons:
        assert f == c.target or v_p(f - c.target, c.p) >= c.k + v_p(c.target, c.p)
    n = (f * 4).numerator
    assert is_squarefree(n)


def test_squarefree_closeness_bound_is_weak_inequality():
    (f,) = squarefree_approximate([LocalConstraint(7, Fraction(3), 1)])
    assert f == 3 or v_p(f - 3, 7) >= 1


def test_squarefree_negative_valuation_target():
    (f,) = squarefree_approximate([LocalConstraint(3, Fraction(5, 9), 2)])
    assert v_p(f, 3) == -2
    assert f == Fraction(5, 9) or v_p(f - Fraction(5, 9), 3) >= 0


def test_scan_cap(monkeypatch):
    monkeypatch.setenv("TORICAPPROX_SCAN_CAP", "3")
    # n = 2 mod 5 starts 2, 7, -3; blocking all three exhausts the cap
    with pytest.raises(ScanCapExhausted):
        squarefree_approximate([LocalConstraint(5, Fraction(2), 1)],
                               avoid=[2, 7, 3])
    monkeypatch.delenv("TORICAPPROX_SCAN_CAP")


def test_constraint_validation():
    with pytest.raises(ValueError):
        LocalConstraint(2, Fraction(0), 1)
    with pytest.raises(ValueError):
        LocalConstraint(2, Fraction(1), 0)
    with pytest.raises(ValueError, match="distinct"):
        squarefree_approximate([LocalConstraint(2, Fraction(1), 1),
                                LocalConstraint(2, Fraction(3), 1)])


def test_build_gamma_p1():
    gd = build_gamma(ToricPair(P1, darmon([2, 3])))
    assert gd.generators == ((2, 0), (0, 3))
    prod = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*gd.rinv))
                 for row in gd.gamma)
    assert prod == ((1,),)


def test_build_gamma_rejects_proper_sublattice():
    with pytest.raises(ValueError, match="index"):
        build_gamma(ToricPair(P1, darmon([2, 2])))


def test_recombination_identity():
    pair = ToricPair(hirzebruch(2), campana([2, 1, 1, 3]))
    gd = build_gamma(pair)
    target = CoxPoint.make(pair.fan, [Fraction(4), Fraction(3), Fraction(5),
                                      Fraction(7, 2)])
    cs = solve_local_exponents(pair, gd, 2, target)
    coords = recombine(pair, gd, cs)
    # the recombined point agrees with the target in the torus quotient
    from toricapprox.approx import _characters
    assert _characters(pair.fan, coords) == _characters(pair.fan, target.coords)


def test_m_point_approximate_p1():
    pair = ToricPair(P1, darmon([2, 3]))
    target = CoxPoint.make(P1, [Fraction(5), Fraction(1)])
    cert = m_point_approximate(pair, {7: (target, 2)})
    assert cert.verified()
    w = is_m_point(pair, cert.point, excluded_primes=cert.excluded_primes)
    assert w.ok
    for p, k, got in cert.closeness:
        assert got >= k


def test_m_point_approximate_p2_two_primes():
    pair = ToricPair(P2, campana([2, 2, 2]))
    t2 = CoxPoint.make(P2, [Fraction(3), Fraction(1), Fraction(1)])
    t5 = CoxPoint.make(P2, [Fraction(2), Fraction(7), Fraction(1)])
    cert = m_point_approximate(pair, {2: (t2, 2), 5: (t5, 2)})
    assert cert.verified()
    assert 2 in cert.excluded_primes and 5 in cert.excluded_primes
    obj = cert.to_json()
    assert obj["verified"] is True
    assert {c["p"] for c in obj["closeness"]} == {2, 5}


def test_m_point_approximate_empty_targets():
    pair = ToricPair(P1, darmon([2, 3]))
    cert = m_point_approximate(pair, {})
    assert cert.verified()
    assert cert.point.coords == (1, 1)


def test_m_point_approximate_deterministic():
    pair = ToricPair(P1, campana([2, 3]))
    target = CoxPoint.make(P1, [Fraction(11), Fraction(1)])
    a = m_point_approximate(pair, {3: (target, 2)})
    b = m_point_approximate(pair, {3: (target, 2)})
    assert a.point.coords == b.point.coords


def test_m_point_approximate_rejects_singular_inputs():
    from toricapprox.fan import weighted_P11r
    pair = ToricPair(weighted_P11r(2), darmon([2, 3, 5]))
    with pytest.raises(ValueError, match="smooth"):
        m_point_approximate(pair, {})
