import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from toricapprox.conditions import (
    DivisorCondition,
    Kind,
    MultiplicitySet,
    ToricPair,
    campana,
    darmon,
)
from toricapprox.decide import _divisors_gt1
from toricapprox import intlat
from toricapprox.fan import (
    hirzebruch,
    minimal_cone_containing,
    product as fan_product,
    projective_space,
)
from toricapprox.fields import Allowed, BaseClass, FieldDescriptor, RhoSpec, rho_contains
from toricapprox.intlat import INF, solve_in_smooth_cone
from toricapprox.points import (
    CoxPoint,
    FactorizationError,
    factorize,
    is_prime,
    is_m_full,
    is_m_point,
    is_perfect_power,
    is_squarefree,
    mult_at_prime,
    phi_v,
    torus_kernel_basis,
    v_p,
)

P1 = projective_space(1)
P2 = projective_space(2)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-17) == {17: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_rejects_oversized_composites():
    p = 1000003
    with pytest.raises(FactorizationError):
        factorize(p ** 2 * 1000033 ** 2)


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
    """s times a product of primes above the bound: the answers are known from
    the construction, and the kernel gives them or declines with
    FactorizationError exactly where the cofactor cannot be split."""
    p, q = pq
    big = {"p": {p: 1}, "p^2": {p: 2}, "pq": {p: 1, q: 1}, "p^2q": {p: 2, q: 1}}[shape]
    want = {**_naive_factorize(s), **big}
    n = math.prod(r ** e for r, e in want.items())
    assert rho_contains(spec, n) == _naive_rho_contains(spec, want)
    splittable = shape in ("p", "p^2")
    if splittable:
        assert factorize(n) == want
        divisors = [1]
        for r, e in want.items():
            divisors = [d * r ** k for d in divisors for k in range(e + 1)]
        assert _divisors_gt1(n) == tuple(sorted(divisors)[1:])
    else:
        with pytest.raises(FactorizationError):
            factorize(n)
    squarefree = all(e == 1 for e in want.values())
    if shape == "p^2q" and all(e == 1 for e in _naive_factorize(s).values()):
        # p^2 q is not a perfect power and exceeds the cube of the bound
        with pytest.raises(FactorizationError):
            is_squarefree(n)
    else:
        assert is_squarefree(n) == squarefree
    big_n = math.prod(r ** e for r, e in big.items())
    if splittable:
        assert FieldDescriptor.global_function_field(big_n).characteristic() == p
    else:
        with pytest.raises(ValueError, match="prime power"):
            FieldDescriptor.global_function_field(big_n)
    assert is_prime(big_n) == (shape == "p")
    if shape != "p":
        with pytest.raises(ValueError, match="prime"):
            FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, big_n)


def _two_step_mult(p, P):
    """The minimal containing cone, then a unimodular solve on that face."""
    u = phi_v(p, P)
    cone = minimal_cone_containing(P.fan, u)
    coeffs = solve_in_smooth_cone([P.fan.rays[i] for i in cone], u)
    out = [0] * len(P.fan.rays)
    for i, c in zip(cone, coeffs):
        out[i] = c
    return tuple(out)


SMOOTH_COMPLETE = [P2, fan_product(P1, P1)] + [hirzebruch(r) for r in range(4)]
_COORD = st.builds(Fraction, st.sampled_from([-12, -5, 1, 2, 3, 4, 9, 18, 25, 27]),
                   st.sampled_from([1, 2, 3, 5, 8, 45]))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SMOOTH_COMPLETE), st.data())
def test_mult_at_prime_matches_the_two_step_path(fan, data):
    coords = data.draw(st.lists(_COORD, min_size=len(fan.rays), max_size=len(fan.rays)))
    P = CoxPoint.make(fan, coords)
    for p in (2, 3, 5):
        assert mult_at_prime(p, P) == _two_step_mult(p, P), (coords, p)


def test_mult_at_prime_runs_no_normal_form_on_a_checked_fan(monkeypatch):
    h3 = hirzebruch(3)
    P = CoxPoint.make(h3, [Fraction(12, 5), 9, Fraction(1, 8), 25])
    mult_at_prime(2, P)  # checks the fan once
    calls = []
    for name in ("hnf", "snf"):
        fn = getattr(intlat, name)
        monkeypatch.setattr(intlat, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
    for p in (2, 3, 5):
        mult_at_prime(p, P)
    assert calls == []
