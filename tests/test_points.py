import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import mult_oracle, phi_v, torus_kernel_basis, two_step_mult
from toricapprox.conditions import (
    DivisorCondition,
    Kind,
    MultiplicitySet,
    ToricPair,
    Variant,
    campana,
    darmon,
)
from toricapprox.decide import _divisors_gt1
from toricapprox import fan as fan_module, intlat, points
from toricapprox.fan import Fan, hirzebruch, product as fan_product, projective_space, weighted_P11r
from toricapprox.fields import Allowed, BaseClass, FieldDescriptor, RhoSpec, rho_contains
from toricapprox.intlat import INF
from toricapprox.points import (
    CoxPoint,
    FactorizationError,
    factorize,
    is_prime,
    is_m_full,
    is_m_point,
    is_perfect_power,
    is_squarefree,
    m_point_check,
    mult_at_prime,
    v_p,
)

P1 = projective_space(1)
P2 = projective_space(2)


def multiplicity_vectors(P: CoxPoint, skip=()) -> tuple:
    """((p, multiplicity vector), ...) at the primes of P outside skip, as the
    M-point core reads them."""
    return m_point_check(P.fan, P.coords, lambda v: True, {}, skip)[1]


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-17) == {17: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_splits_composites_beyond_the_trial_bound():
    p, q = 1000003, 1000033
    assert factorize(p ** 2 * q ** 2) == {p: 2, q: 2}
    assert _divisors_gt1(p ** 2 * q ** 2) == (p, q, p * p, p * q, q * q, p * p * q,
                                              p * q * q, p * p * q * q)
    # the probe's hardest split, a 54-digit recombined coordinate
    assert factorize(69474126697 ** 3 * 52105595023 ** 2) == {52105595023: 2,
                                                              69474126697: 3}


def test_rho_gives_up_within_its_named_budget():
    p = 10 ** 29 + 319  # the first prime above 10^29, and the next one
    q = 10 ** 29 + 379
    assert is_prime(p) and is_prime(q) and not any(is_prime(x) for x in range(p + 1, q))
    start = time.perf_counter()
    with pytest.raises(FactorizationError, match="_RHO_BUDGET"):
        factorize(p * q)
    assert time.perf_counter() - start < 2.0


def test_cox_point_validation():
    with pytest.raises(ValueError, match="irrelevant"):
        CoxPoint.make(P1, [0, 0])
    P = CoxPoint.make(P2, [0, 1, 2])
    assert P.zero_support() == (0,)
    rt = CoxPoint.from_json(P1, {"coords": ["1/2", "3"]})
    assert rt.coords == (Fraction(1, 2), Fraction(3))
    assert rt.to_json() == {"coords": ["1/2", "3"]}


def test_mult_at_prime_examples():
    assert mult_at_prime(3, CoxPoint.make(P2, [12, 5, 9])) == (1, 0, 2)
    assert mult_at_prime(2, CoxPoint.make(P1, [Fraction(1, 2), 3])) == (0, 1)
    h2 = hirzebruch(2)
    assert h2.rays[0] == (-1, 2)
    assert mult_at_prime(2, CoxPoint.make(h2, [2, 1, 1, 1])) == (1, 0, 0, 0)


def test_mult_boundary_fast_path():
    P = CoxPoint.make(P1, [0, 3])
    assert mult_at_prime(7, P) == (INF, 0)
    # (0 : 3) is rescaled to the coprime representative (0 : 1)
    assert mult_at_prime(3, P) == (INF, 0)
    Q = CoxPoint.make(P2, [0, 3, 1])
    assert mult_at_prime(3, Q) == (INF, 1, 0)


def test_phi_v():
    assert phi_v(2, CoxPoint.make(P1, [4, 9])) == (2,)
    assert phi_v(5, CoxPoint.make(P2, [1, 1, 1])) == (0, 0)
    P = CoxPoint.make(P2, [2, 3, 5])
    Q = CoxPoint.make(P2, [4, 9, 7])
    PQ = CoxPoint.make(P2, [8, 27, 35])
    for p in (2, 3, 5, 7):
        assert phi_v(p, PQ) == tuple(a + b for a, b in
                                     zip(phi_v(p, P), phi_v(p, Q)))


def test_is_m_point_examples():
    assert is_m_point(ToricPair(P1, campana([2, 2])), CoxPoint.make(P1, [4, 9])).ok
    w = is_m_point(ToricPair(P1, darmon([2, 2])), CoxPoint.make(P1, [8, 9]))
    assert not w.ok and w.prime == 2 and w.vector == (3, 0)
    # pairwise coprimality: multiplicity vectors supported on one divisor only
    ms = MultiplicitySet.custom(
        [v for v in product([0, 1, 2, 3, INF], repeat=3)
         if sum(1 for x in v if x != 0) <= 1])
    pair = ToricPair(P2, ms)
    assert is_m_point(pair, CoxPoint.make(P2, [2, 3, 5])).ok
    assert not is_m_point(pair, CoxPoint.make(P2, [2, 4, 5])).ok


def test_is_m_point_excluded_primes():
    pair = ToricPair(P1, darmon([2, 2]))
    P = CoxPoint.make(P1, [8, 9])
    assert is_m_point(pair, P, excluded_primes=[2]).ok


def test_is_m_point_compares_fans_by_value():
    twin = projective_space(2)
    assert twin is not P2 and twin == P2
    pair = ToricPair(P2, darmon([2, 2, 2]))
    assert is_m_point(pair, CoxPoint.make(twin, [4, 9, 25])).ok
    w = is_m_point(pair, CoxPoint.make(twin, [8, 9, 25]))
    assert not w.ok and w.prime == 2 and w.vector == (3, 0, 0)
    with pytest.raises(ValueError, match="different fans"):
        is_m_point(ToricPair(hirzebruch(1), darmon([2] * 4)),
                   CoxPoint.make(hirzebruch(2), [4, 9, 25, 1]))


def test_v_p_rejects_p_below_two():
    assert v_p(Fraction(12, 5), 2) == 2 and v_p(Fraction(12, 5), 5) == -1
    for p in (0, 1, -1, -2):
        for x in (5, Fraction(1, 2)):
            with pytest.raises(ValueError, match="prime"):
                v_p(x, p)


def test_oracles():
    assert is_m_full(8, 2) and not is_m_full(12, 2)
    assert is_perfect_power(9, 2) and not is_perfect_power(8, 2)
    assert is_squarefree(30) and not is_squarefree(12)
    for n in (-1, 0, 1):
        assert is_m_full(n, INF)
    assert not is_m_full(4, INF)
    assert not is_squarefree(0)


def test_representative_independence():
    h2 = hirzebruch(2)
    basis = torus_kernel_basis(h2)
    assert len(basis) == 2
    rng = random.Random(3)
    for _ in range(100):
        coords = [Fraction(rng.choice([1, 2, 3, 4, 6, 9, 25]),
                           rng.choice([1, 2, 3, 5])) for _ in range(4)]
        P = CoxPoint.make(h2, coords)
        k = rng.choice(basis)
        s = Fraction(rng.choice([2, 3, 5, 6]), rng.choice([1, 2, 3]))
        Q = CoxPoint.make(h2, [c * s ** ki for c, ki in zip(coords, k)])
        for p in (2, 3, 5):
            assert mult_at_prime(p, P) == mult_at_prime(p, Q)


def test_pn_mult_equals_valuations_sample():
    rng = random.Random(11)
    for _ in range(200):
        a = [rng.randint(-50, 50) or 1 for _ in range(3)]
        g = math.gcd(*[abs(x) for x in a])
        a = [x // g for x in a]
        P = CoxPoint.make(P2, a)
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            assert mult_at_prime(p, P) == tuple(v_p(Fraction(x), p) for x in a)


def test_boundary_rejected_off_projective_space():
    h2 = hirzebruch(2)
    P = CoxPoint.make(h2, [0, 1, 1, 1])
    with pytest.raises(ValueError, match="projective"):
        mult_at_prime(2, P)


@pytest.mark.parametrize("fan, coords, msg", [
    (weighted_P11r(2), [1, 1, 1], "multiplicities need a smooth fan"),
    (weighted_P11r(2), [4, 9, 25], "multiplicities need a smooth fan"),
    (Fan.make(2, [(1, 0), (0, 1)], [(0, 1)]), [1, 1], "multiplicities need a complete fan"),
    (hirzebruch(1), [0, 1, 1, 1], "boundary multiplicities need a projective space fan"),
    (hirzebruch(1), [0, 2, 1, 1], "boundary multiplicities need a projective space fan"),
])
def test_the_fan_is_checked_before_any_prime(fan, coords, msg):
    """is_m_point and mult_at_prime check the fan up front, so a point with no
    prime to factor, or a prime that divides no coordinate, fails alike."""
    P = CoxPoint.make(fan, coords)
    pair = ToricPair(fan, MultiplicitySet.of([DivisorCondition(Kind.ANY)] * len(coords)))
    for call in (lambda: is_m_point(pair, P), lambda: mult_at_prime(7, P)):
        with pytest.raises(ValueError, match=f"^{msg}: "):
            call()


# ---------------------------------------------------------------------------
# The number-theory kernel against brute force
# ---------------------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# the primes just above the trial-division bound of 10^6
BIG_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)


def _naive_factorize(n: int) -> dict:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors_of(factorization: dict) -> tuple:
    """The divisors above 1 of the integer with this factorization, ascending."""
    divisors = [1]
    for r, e in factorization.items():
        divisors = [d * r ** k for d in divisors for k in range(e + 1)]
    return tuple(sorted(divisors)[1:])


def _naive_rho_contains(spec: RhoSpec, primes) -> bool:
    if spec.allowed is Allowed.ALL:
        return True
    if spec.allowed is Allowed.NONE:
        return not primes
    if spec.allowed is Allowed.ALL_EXCEPT:
        return not set(primes) & set(spec.primes)
    return set(primes) <= set(spec.primes)


def _specs(pool):
    return st.builds(RhoSpec, st.sampled_from(list(Allowed)),
                     st.lists(st.sampled_from(pool), max_size=4, unique=True).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 4), _specs(SMALL_PRIMES))
def test_kernel_matches_brute_force(n, spec):
    assert factorize(n) == _naive_factorize(n)
    assert is_prime(n) == (_naive_factorize(n) == {n: 1})
    assert is_squarefree(n) == all(n % (d * d) for d in range(2, n + 1))
    assert _divisors_gt1(n) == tuple(d for d in range(2, n + 1) if n % d == 0)
    assert rho_contains(spec, n) == _naive_rho_contains(spec, _naive_factorize(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10 ** 4), st.sampled_from(["p", "p^2", "pq", "p^2q"]),
       st.lists(st.sampled_from(BIG_PRIMES), min_size=2, max_size=2, unique=True),
       _specs(SMALL_PRIMES + BIG_PRIMES))
def test_kernel_beyond_the_trial_bound(s, shape, pq, spec):
    """s times a product of primes above the bound of 10^6: the answers are
    known from the construction.  factorize splits every shape;
    is_squarefree still declines p^2 q, which it does not split."""
    p, q = pq
    big = {"p": {p: 1}, "p^2": {p: 2}, "pq": {p: 1, q: 1}, "p^2q": {p: 2, q: 1}}[shape]
    want = {**_naive_factorize(s), **big}
    n = math.prod(r ** e for r, e in want.items())
    assert rho_contains(spec, n) == _naive_rho_contains(spec, want)
    assert factorize(n) == want
    assert _divisors_gt1(n) == _divisors_of(want)
    squarefree = all(e == 1 for e in want.values())
    if shape == "p^2q" and all(e == 1 for e in _naive_factorize(s).values()):
        # p^2 q is not a perfect power and exceeds the cube of the bound
        with pytest.raises(FactorizationError):
            is_squarefree(n)
    else:
        assert is_squarefree(n) == squarefree
    big_n = math.prod(r ** e for r, e in big.items())
    if shape in ("p", "p^2"):
        assert FieldDescriptor.global_function_field(big_n).characteristic() == p
    else:
        with pytest.raises(ValueError, match="prime power"):
            FieldDescriptor.global_function_field(big_n)
    assert is_prime(big_n) == (shape == "p")
    if shape != "p":
        with pytest.raises(ValueError, match="prime"):
            FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, big_n)


def _prime_from(x: int) -> int:
    """The least prime >= x (is_prime is a proof in this range)."""
    while not is_prime(x):
        x += 1
    return x


@settings(max_examples=60, deadline=None)
@given(st.integers(10 ** 3, 10 ** 12).map(_prime_from), st.integers(1, 7),
       st.integers(10 ** 3, 10 ** 9).map(_prime_from), st.integers(1, 7),
       st.dictionaries(st.sampled_from(SMALL_PRIMES), st.integers(1, 7), max_size=3))
def test_factorize_splits_products_of_large_primes(p, a, q, b, small):
    """p^a q^b times small primes, p up to 10^12 and q up to 10^9: every piece
    left after trial division is a prime, a perfect power or a rho split.
    Rho needs about sqrt(min(p, q)) steps, far inside _RHO_BUDGET; two primes
    near 10^12 may need more than it allows."""
    s = math.prod(r ** e for r, e in small.items())
    want = dict(Counter(_naive_factorize(s)) + Counter({p: a}) + Counter({q: b}))
    n = s * p ** a * q ** b
    assert factorize(n) == want
    assert factorize(-n) == want
    if n < 10 ** 12:
        assert want == _naive_factorize(n)
    assert _divisors_gt1(n) == _divisors_of(want)


SMOOTH_COMPLETE = [P2, fan_product(P1, P1)] + [hirzebruch(r) for r in range(4)]
_COORD = st.builds(Fraction, st.sampled_from([-12, -5, 1, 2, 3, 4, 9, 18, 25, 27]),
                   st.sampled_from([1, 2, 3, 5, 8, 45]))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SMOOTH_COMPLETE), st.data())
def test_mult_at_prime_matches_the_two_step_path(fan, data):
    coords = data.draw(st.lists(_COORD, min_size=len(fan.rays), max_size=len(fan.rays)))
    P = CoxPoint.make(fan, coords)
    for p in (2, 3, 5):
        assert mult_at_prime(p, P) == two_step_mult(p, P), (coords, p)


PN = [projective_space(n) for n in (1, 2, 3)]
ONE_PASS_FANS = PN + [fan_product(P1, P1)] + [hirzebruch(r) for r in range(4)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ONE_PASS_FANS), st.data())
def test_multiplicity_vectors_match_the_per_prime_oracles(fan, data):
    """One factorization pass and the per-fan memo give the vector of the
    two-step path (or, at a boundary point of P^n, of the coprime integer
    representative) at every prime dividing a numerator or denominator, and
    so does mult_at_prime one prime at a time."""
    n = len(fan.rays)
    coords = data.draw(st.lists(_COORD, min_size=n, max_size=n))
    if fan in PN:
        zeros = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        coords = [0 if i in zeros else c for i, c in enumerate(coords)]
    P = CoxPoint.make(fan, coords)
    primes = sorted({q for c in P.coords if c
                     for part in (c.numerator, c.denominator)
                     for q in _naive_factorize(abs(part))})
    want = tuple((p, mult_oracle(p, P)) for p in primes)
    assert tuple((p, mult_at_prime(p, P)) for p in primes) == want, coords
    if data.draw(st.booleans()):
        points._mult_memo.cache_clear()
    assert multiplicity_vectors(P) == want, coords
    assert multiplicity_vectors(P) == want, coords  # now read from the memo
    skip = data.draw(st.sets(st.sampled_from((2, 3, 5, 7))))
    assert multiplicity_vectors(P, skip) == tuple(pv for pv in want if pv[0] not in skip)


def _head_is_m_point(pair, P):
    """The per-point path the census core replaced, as a test oracle: the
    generic vector at a boundary point, then the oracle vector (coprime
    integer representative or two-step solve) at every prime dividing a
    numerator or denominator, ascending.  Returns (ok, prime,
    vector) and the (p, vector) pairs, or None after a generic failure."""
    zeros = P.zero_support()
    admits = pair.conditions.admits_vector
    if zeros:
        generic = tuple(INF if i in zeros else 0 for i in range(len(P.coords)))
        if not admits(generic):
            return (False, None, generic), None
    primes = sorted({q for c in P.coords if c for part in (c.numerator, c.denominator)
                     for q in _naive_factorize(abs(part))})
    vectors = tuple((p, mult_oracle(p, P)) for p in primes)
    bad = next(((False, p, mv) for p, mv in vectors if not admits(mv)), (True, None, None))
    return bad, vectors


_CONDITION = st.one_of(
    st.sampled_from([DivisorCondition(Kind.ANY), DivisorCondition(Kind.INTEGRAL),
                     DivisorCondition(Kind.SQUAREFREE)]),
    st.builds(DivisorCondition, st.sampled_from([Kind.CAMPANA, Kind.DARMON, Kind.STRICT_DARMON]),
              st.sampled_from([1, 2, 3, INF])),
    st.builds(lambda vs, inf: DivisorCondition(Kind.FINITE_SET, values=tuple(vs),
                                               allow_infinity=inf),
              st.sets(st.integers(0, 4), max_size=3), st.booleans()),
)
# (fan, whether boundary points are drawn)
CORE_FANS = [(P1, True), (P2, True), (fan_product(P1, P1), False), (hirzebruch(1), False)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CORE_FANS), st.data())
def test_m_point_check_matches_the_per_point_path(fan_case, data):
    """The core's witness and vectors equal the oracles' at every prime of
    CoxPoint.make(fan, coords), over several points sharing one
    verdict dict, at boundary points of P^n with rational coordinates too."""
    fan, boundary = fan_case
    n = len(fan.rays)
    pair = ToricPair(fan, MultiplicitySet.of(
        data.draw(st.lists(_CONDITION, min_size=n, max_size=n))))
    if data.draw(st.booleans()):
        points._mult_memo.cache_clear()
    verdicts = {}
    for _ in range(data.draw(st.integers(1, 4))):
        coords = data.draw(st.lists(_COORD, min_size=n, max_size=n))
        if boundary:
            zeros = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
            coords = [0 if i in zeros else c for i, c in enumerate(coords)]
        if data.draw(st.booleans()) and all(c.denominator == 1 for c in coords):
            coords = [int(c) for c in coords]  # the census loops pass ints
        P = CoxPoint.make(fan, coords)
        want, want_vectors = _head_is_m_point(pair, P)
        skip = data.draw(st.sets(st.sampled_from((2, 3, 5))))
        witness, vectors = m_point_check(fan, coords, pair.conditions.admits_vector, verdicts)
        assert (witness.ok, witness.prime, witness.vector) == want, coords
        assert vectors == want_vectors, coords
        w = is_m_point(pair, P, skip)
        if want_vectors is None:
            assert (w.ok, w.prime, w.vector) == want
            continue
        kept = tuple(pv for pv in want_vectors if pv[0] not in skip)
        assert (w.ok, w.prime, w.vector) == next(
            ((False, p, mv) for p, mv in kept if not pair.conditions.admits_vector(mv)),
            (True, None, None)), (coords, skip)
        assert multiplicity_vectors(P, skip) == kept
        if P.zero_support():
            # a boundary key is the coprime representative's vector itself
            points._mult_memo.cache_clear()
            m_point_check(fan, coords, lambda mv: True, {})
            assert set(points._mult_memo(fan)) == {mv for _, mv in want_vectors}


def test_mult_at_prime_runs_no_normal_form_on_a_checked_fan(monkeypatch):
    h3 = hirzebruch(3)
    P = CoxPoint.make(h3, [Fraction(12, 5), 9, Fraction(1, 8), 25])
    mult_at_prime(2, P)  # checks the fan and builds its cone table once
    calls = []
    for mod, name in ((intlat, "hnf"), (intlat, "snf"), (fan_module, "cone_inverse")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
    for p in (2, 3, 5):
        mult_at_prime(p, P)
    assert calls == []


def _multiplicity_set(kind, n, data):
    if kind is Variant.PRODUCT:
        return MultiplicitySet.of(data.draw(st.lists(_CONDITION, min_size=n, max_size=n)))
    if kind is Variant.WEAK_CAMPANA:
        return MultiplicitySet.weak_campana(
            data.draw(st.lists(st.sampled_from([1, 2, 3, INF]), min_size=n, max_size=n)))
    vectors = data.draw(st.sets(st.tuples(*[st.sampled_from([0, 1, 2, 3, INF])] * n),
                                max_size=6))
    closure = {tuple(0 for _ in range(n))} | vectors
    closure |= {tuple(INF if x == INF else 0 for x in v) for v in vectors}
    return MultiplicitySet.custom(sorted(closure, key=str))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CORE_FANS), st.sampled_from(list(Variant)), st.data())
def test_m_point_check_is_blind_to_signs(fan_case, kind, data):
    """The verdict and the vectors depend on the coordinates only through the
    zero set and the factorizations of |numerator| and |denominator|, so
    flipping any signs changes neither the witness nor the vectors."""
    fan, boundary = fan_case
    n = len(fan.rays)
    admits = _multiplicity_set(kind, n, data).admits_vector
    coords = data.draw(st.lists(_COORD, min_size=n, max_size=n))
    if boundary:
        zeros = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        coords = [0 if i in zeros else c for i, c in enumerate(coords)]
    if data.draw(st.booleans()) and all(c.denominator == 1 for c in coords):
        coords = [int(c) for c in coords]
    flips = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    flipped = [s * c for s, c in zip(flips, coords)]
    want = m_point_check(fan, coords, admits, {})
    assert m_point_check(fan, flipped, admits, {}) == want, (coords, flips)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PN), st.data())
def test_int_coordinates_read_as_their_fractions(fan, data):
    """An int coordinate is read as its own numerator: the witness and the
    vectors of an int tuple, under every sign flip, are those of the same
    tuple given as Fractions, at boundary points too."""
    n = len(fan.rays)
    admits = MultiplicitySet.of(
        data.draw(st.lists(_CONDITION, min_size=n, max_size=n))).admits_vector
    value = st.one_of(st.just(0), st.integers(-10 ** 4, 10 ** 4))
    tup = data.draw(st.lists(value, min_size=n, max_size=n).filter(any))
    want = m_point_check(fan, [Fraction(a) for a in tup], admits, {})
    for signs in product((1, -1), repeat=n):
        flipped = [s * a for s, a in zip(signs, tup)]
        assert m_point_check(fan, flipped, admits, {}) == want, flipped
        assert m_point_check(fan, [Fraction(a) for a in flipped], admits, {}) == want, flipped
