import math
from fractions import Fraction
from itertools import count, islice, product as iter_product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from toricapprox import approx
from toricapprox.approx import (
    ApproxCertificate,
    GammaData,
    LocalConstraint,
    ScanCapExhausted,
    _closeness_valuation,
    _guard_digits,
    _scan_order,
    build_gamma,
    m_point_approximate,
    recombine,
    solve_local_exponents,
    squarefree_approximate,
)
from toricapprox.conditions import (DivisorCondition, Kind, MultiplicitySet, ToricPair,
                                    campana, darmon)
from toricapprox.fan import hirzebruch, product, projective_space
from toricapprox import points
from toricapprox.points import CoxPoint, FactorizationError, is_m_point, is_squarefree, v_p

P1 = projective_space(1)
P2 = projective_space(2)
P3 = projective_space(3)


def test_squarefree_smallest_solutions():
    # the scan starts at the residue itself
    assert squarefree_approximate([LocalConstraint(2, Fraction(1), 3)]) == [1]
    assert squarefree_approximate([LocalConstraint(3, Fraction(2), 2)]) == [2]
    # the residue comes before r - M, although -2 and -1 are squarefree and smaller
    assert squarefree_approximate([LocalConstraint(5, Fraction(3), 1)]) == [3]
    assert squarefree_approximate([LocalConstraint(7, Fraction(6), 1)]) == [6]


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


def test_scan_order_is_each_pair_sorted_by_size():
    """For t >= 1, r - tM comes before r + tM, except r + tM first when r = 0;
    that is the order of sorting {r - tM, r + tM} - {0} by (|n|, n < 0)."""
    for M in range(1, 14):
        for r in range(M):
            want = (n for t in count() for n in sorted({r - t * M, r + t * M} - {0},
                                                       key=lambda n: (abs(n), n < 0)))
            assert list(islice(_scan_order(r, M), 30)) == list(islice(want, 30))


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
    # E = rinv R^T with the rays (1) and (-1), and gamma rinv = 2 a - 3 b = 1
    (a, a_), (b, b_) = gd.exponents
    assert (a_, b_) == (-a, -b) and 2 * a - 3 * b == 1


def test_build_gamma_rejects_proper_sublattice():
    with pytest.raises(ValueError, match="index"):
        build_gamma(ToricPair(P1, darmon([2, 2])))


def test_build_gamma_is_computed_once_per_pair():
    """Equal pairs built apart share one GammaData; a pair it rejects raises
    on every call, since a raised error is not cached."""
    a = build_gamma(ToricPair(P2, campana([2, 3, 2])))
    assert build_gamma(ToricPair(projective_space(2), campana([2, 3, 2]))) is a
    for pair, msg in ((ToricPair(P2, darmon([2, 2, 2])), "index"),
                      (ToricPair(P1, darmon([2, 4])), "index"),
                      (ToricPair(P1, MultiplicitySet.custom([(0, 0), (2, 3)])), "per-divisor")):
        for _ in range(2):
            with pytest.raises(ValueError, match=msg):
                build_gamma(pair)


def test_recombination_identity():
    pair = ToricPair(hirzebruch(2), campana([2, 1, 1, 3]))
    gd = build_gamma(pair)
    target = CoxPoint.make(pair.fan, [Fraction(4), Fraction(3), Fraction(5),
                                      Fraction(7, 2)])
    cs = solve_local_exponents(gd, target)
    coords = recombine(pair, gd, cs)
    # the recombined point agrees with the target in the torus quotient
    assert oracles.characters(pair.fan, coords) == oracles.characters(pair.fan, target.coords)


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


def test_guard_digits_are_exact_at_powers_of_p():
    """The least g >= 1 with p^g >= msum, in integers: float logarithms put
    ceil(log_5 125) at 4."""
    assert _guard_digits(5, 125) == 3
    for p in (2, 3, 5, 7, 11, 13):
        assert _guard_digits(p, 1) == _guard_digits(p, p) == 1
        for g in range(1, 12):
            assert _guard_digits(p, p ** g) == g
            assert _guard_digits(p, p ** g + 1) == g + 1


def test_guard_at_an_exact_power_of_p():
    """msum = 125 at p = 5 gets 3 guard digits, so the lifts are taken to
    1 + 3 digits; with 4 guard digits the point was (1 : -1561)."""
    pair = ToricPair(P1, darmon([125, 1]))
    cert = m_point_approximate(pair, {5: (CoxPoint.make(P1, [2, 3]), 1)})
    assert cert.point.coords == (1, 314)
    assert cert.closeness == ((5, 1, 4),)
    assert cert.verified()


@pytest.mark.parametrize("digits", [-1, 0, True, False, 2.7, "2", None])
def test_bad_digits_raise_before_the_guard(monkeypatch, digits):
    def guard(p, msum):
        raise AssertionError("guard digits computed for a bad request")

    monkeypatch.setattr(approx, "_guard_digits", guard)
    target = CoxPoint.make(P2, [1, 3, 5])
    with pytest.raises(ValueError, match="digits at p=2 must be an integer >= 1"):
        m_point_approximate(ToricPair(P2, campana([2, 2, 2])), {2: (target, digits)})


@pytest.mark.parametrize("pair,target", [
    # too few coordinates: zipped against the rays, they were truncated
    (ToricPair(P2, campana([2, 2, 2])), CoxPoint.make(P1, [2, 3])),
    # as many coordinates, on a fan with other rays
    (ToricPair(product(P1, P1), campana([2, 2, 2, 2])), CoxPoint.make(hirzebruch(1), [2, 3, 5, 7])),
])
def test_target_off_the_pairs_fan_raises(pair, target):
    """Both requests returned a certificate with verified() True and
    closeness 3 to a point of another variety."""
    with pytest.raises(ValueError, match="target at p=7 lies on another fan"):
        m_point_approximate(pair, {7: (target, 2)})


_FANS = [P1, P2, product(P1, P1)] + [hirzebruch(r) for r in range(4)]
_COORD = st.builds(lambda a, sign, d: Fraction(sign * a, d), st.integers(1, 30),
                   st.sampled_from((1, -1)), st.integers(1, 12))


@st.composite
def _index_one_requests(draw, fans=tuple(_FANS)):
    """An index-1 PRODUCT pair with targets at one prime <= 13 (1-3 digits) or
    at two primes (1 digit), the target coordinates with denominators."""
    fan = draw(st.sampled_from(fans))
    m = st.integers(1, 5)
    cond = st.one_of(st.just(DivisorCondition(Kind.ANY)),
                     st.just(DivisorCondition(Kind.SQUAREFREE)),
                     m.map(lambda k: DivisorCondition(Kind.CAMPANA, k)),
                     m.map(lambda k: DivisorCondition(Kind.DARMON, k)),
                     m.map(lambda k: DivisorCondition(Kind.STRICT_DARMON, k)),
                     st.sets(m, min_size=1, max_size=3).map(
                         lambda v: DivisorCondition(Kind.FINITE_SET, values=(0, *sorted(v)))))
    pair = ToricPair(fan, MultiplicitySet.of([draw(cond) for _ in fan.rays]))
    try:
        build_gamma(pair)
    except ValueError:
        assume(False)
    n_primes = draw(st.sampled_from((1, 2)))
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=n_primes,
                           max_size=n_primes, unique=True))
    targets = {p: (CoxPoint.make(fan, [draw(_COORD) for _ in fan.rays]),
                   draw(st.integers(1, 3 if n_primes == 1 else 1)))
               for p in primes}
    return pair, targets


@settings(max_examples=30, deadline=None)
@given(_index_one_requests())
def test_the_first_construction_verifies(request):
    """m_point_approximate builds one point and never retries: the closeness
    and witness arguments in its docstring hold on every index-1 request."""
    pair, targets = request
    cert = m_point_approximate(pair, targets)
    assert cert.excluded_primes == tuple(sorted(targets))
    for p, k, got in cert.closeness:
        assert got >= k + 1
    gens = set(pair.conditions.single_ray_vectors())
    for _, vector in cert.multiplicities:
        assert tuple(vector) in gens


def _request(fan, conds, targets):
    """An index-1 request from (kind, m) per ray and {p: (coords, digits)}."""
    pair = ToricPair(fan, MultiplicitySet.of([DivisorCondition(Kind(k), m) for k, m in conds]))
    return pair, {p: (CoxPoint.make(fan, [Fraction(c) for c in coords]), k)
                  for p, (coords, k) in targets.items()}


# two requests on which a right inverse with unbounded entries (one read off the
# Smith form reached 10^6 on H_1) builds coordinates past str(int)'s 4,300 digits
@example(_request(hirzebruch(1), [("campana", 5), ("campana", 5), ("darmon", 4), ("campana", 5)],
                  {3: (["-8/5", "-27/5", "-19/8", "-2/3"], 1), 13: (["-2/3", 2, 3, 3], 1)}),
         [Fraction(13, 2), Fraction(-3, 4), Fraction(18), Fraction(-13, 4)])
# or, on P^3, coordinates of 43,775 bits
@example(_request(P3, [("campana", 3)] * 3 + [("campana", 2)], {2: (["1/4", 1, 1, 1], 1)}),
         [Fraction(2), Fraction(3), Fraction(5), Fraction(7)])
@settings(max_examples=100, deadline=None)
@given(_index_one_requests(fans=(*_FANS, P3)), st.lists(_COORD, min_size=4, max_size=4))
def test_integer_construction_equals_the_fraction_oracle(request, other):
    """Every integer monomial of the construction equals its Fraction loop in
    tests/oracles.py, negative exponents (H_r) and signed targets with
    denominators included, and so does the whole certificate.  other gives
    the coordinates of a second point, one per ray."""
    pair, targets = request
    gd = build_gamma(pair)
    other = CoxPoint.make(pair.fan, other[:len(pair.fan.rays)])
    for p, (target, _) in targets.items():
        cs = solve_local_exponents(gd, target)
        assert cs == oracles.local_exponents(pair, gd, target)
        assert all(type(c) is Fraction for c in cs)
        coords = recombine(pair, gd, cs)
        assert coords == oracles.recombined(pair, gd, cs)
        for Q in (coords, other.coords):
            assert (_closeness_valuation(pair, p, Q, target.coords)
                    == oracles.closeness(pair, p, Q, target.coords))
    assert m_point_approximate(pair, targets).to_json() == oracles.approximate(pair, targets)


def test_the_right_inverse_stays_small():
    """The exponents E = rinv R^T of every index-1 Campana pair with m < 8 on
    P^2, H_2 and P^3 stay below 300 (a Smith-form inverse reached 10^20)."""
    for fan, n in ((P2, 3), (hirzebruch(2), 4), (P3, 4)):
        for ms in iter_product(range(1, 8), repeat=n):
            try:
                gd = build_gamma(ToricPair(fan, campana(list(ms))))
            except ValueError:
                continue
            assert max(abs(x) for row in gd.exponents for x in row) < 300, (fan, ms)


@pytest.mark.parametrize("coords", [[0, 1, 1], [3, 0, 5]])
def test_a_zero_target_is_refused_before_the_construction(monkeypatch, coords):
    """The error names the prime, and no right inverse is computed for it."""
    def gamma(pair):
        raise AssertionError("build_gamma called for a zero target")

    monkeypatch.setattr(approx, "build_gamma", gamma)
    targets = {2: (CoxPoint.make(P2, [1, 3, 5]), 2), 11: (CoxPoint.make(P2, coords), 1)}
    with pytest.raises(ValueError) as info:
        m_point_approximate(ToricPair(P2, campana([2, 2, 2])), targets)
    assert info.value.args == ("target at p=11 has a zero coordinate; "
                               "targets must have all-nonzero coordinates",)


_PAIR_FANS = (P1, P2, product(P1, P1)) + tuple(hirzebruch(r) for r in range(4))


@st.composite
def _campana_darmon_requests(draw):
    """An index-1 Campana or Darmon pair with targets at 1-3 primes <= 13, each
    to 1-4 digits."""
    fan = draw(st.sampled_from(_PAIR_FANS))
    kind = draw(st.sampled_from((Kind.CAMPANA, Kind.DARMON)))
    pair = ToricPair(fan, MultiplicitySet.of([DivisorCondition(kind, draw(st.integers(1, 5)))
                                              for _ in fan.rays]))
    try:
        build_gamma(pair)
    except ValueError:
        assume(False)
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1, max_size=3,
                           unique=True))
    return pair, {p: (CoxPoint.make(fan, [draw(_COORD) for _ in fan.rays]),
                      draw(st.integers(1, 4))) for p in primes}


@settings(max_examples=60, deadline=None)
@given(_campana_darmon_requests())
def test_the_certificate_from_the_lifts_equals_the_one_from_the_coordinates(request):
    """Reading each coordinate's factorization off the lifts gives the
    certificate that factoring the coordinates gives.  Where factoring a
    coordinate gives up, the lifts still certify the point."""
    pair, targets = request
    try:
        want = oracles.certificate_from_coordinates(pair, targets).to_json()
    except FactorizationError:  # a coordinate or a scan candidate
        want = None
    try:
        got = m_point_approximate(pair, targets).to_json()
    except FactorizationError:  # a scan candidate, which the oracle's scan meets too
        assert want is None
        return
    if want is None:
        assert got["verified"]
        return
    assert got == want
    gd, lifts = build_gamma(pair), oracles.lifts_of(pair, targets)
    coords = recombine(pair, gd, lifts)
    assert approx._lift_rows(gd, lifts, coords) == points._valuation_rows(coords)


def test_lift_rows_drop_a_prime_whose_powers_cancel():
    """Q_0 = 8^2 (1/4)^3 = 1 and Q_1 = 15: 2 divides two lifts and no
    coordinate, so it has no row, as when the coordinates are factored."""
    gd = GammaData(((2, 0), (3, 0), (0, 1)), ())
    lifts = [Fraction(8), Fraction(1, 4), Fraction(15)]
    coords = recombine(ToricPair(P1, campana([2, 1])), gd, lifts)
    assert coords == (1, 15)
    assert approx._lift_rows(gd, lifts, coords) == points._valuation_rows(coords) == {
        3: [0, 1], 5: [0, 1]}


def test_the_certificate_factors_only_the_lifts(monkeypatch, cold_caches):
    """A request whose coordinates reach 54 digits factors nothing larger than
    a lift's numerator or denominator."""
    seen, recombined = [], []
    factor, recombine_ = points._factorize_cached, approx.recombine

    def spy_factor(n):
        seen.append(n)
        return factor(n)

    def spy_recombine(pair, gd, lifts):
        recombined.append((lifts, recombine_(pair, gd, lifts)))
        return recombined[-1][1]

    monkeypatch.setattr(points, "_factorize_cached", spy_factor)
    monkeypatch.setattr(approx, "recombine", spy_recombine)
    target = CoxPoint.make(P2, [1, 2, 3])
    cert = m_point_approximate(ToricPair(P2, campana([2, 2, 2])), {7: (target, 5), 11: (target, 5)})
    assert cert.verified() and len(recombined) == 1
    (lifts, coords), = recombined
    largest = max(max(abs(f.numerator), f.denominator) for f in lifts)
    assert seen and max(seen) <= largest
    assert max(abs(c.numerator) for c in coords) > 10 ** 50 > largest


@pytest.mark.parametrize("corrupt", [
    lambda f: f[:-1] + ((f[-1][0], f[-1][1] + 1),),  # one exponent too many
    lambda f: f + ((1000003, 1),),  # a prime that does not divide the lift
    lambda f: f[1:],  # a prime left out
])
def test_a_wrong_lift_factorization_raises(monkeypatch, corrupt):
    """The rows are checked against the coordinates: a lift factorization
    that is wrong anywhere raises AssertionError and never yields a
    certificate."""
    factor = points._factorize_cached
    monkeypatch.setattr(points, "_factorize_cached",
                        lambda n: corrupt(factor(n)) if n > 1 else factor(n))
    target = CoxPoint.make(P2, [1, 2, 3])
    with pytest.raises(AssertionError, match="lifts' factorizations do not give coordinate"):
        m_point_approximate(ToricPair(P2, campana([2, 2, 2])), {7: (target, 2)})
