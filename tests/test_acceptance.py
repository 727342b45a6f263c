"""End-to-end acceptance checks: closed formulas, anchors and oracle sweeps.

Each test is one named criterion; the expected values are recomputed inside the
test by an independent code path (arithmetic formula, direct valuation, or
brute-force enumeration), never read off from the library under test.
"""
import itertools
import math
import random
from fractions import Fraction

from toricapprox.approx import LocalConstraint, m_point_approximate, squarefree_approximate
from toricapprox.cli import example_catalog
from toricapprox.conditions import ToricPair, campana, darmon, nm_singular, pair_invariants
from toricapprox.decide import (
    Holds,
    Thinness,
    classify_thinness,
    darmon_projective_closed_form,
    decide_m_approx,
    pi1_root_stack,
)
from toricapprox.enumerate import enumerate_projective
from toricapprox.fan import (
    hirzebruch,
    product,
    projective_space,
    resolve_2d,
    weighted_P11r,
)
from toricapprox.fields import FieldDescriptor, rho_of
from toricapprox.intlat import INF, cone_contains, hnf, snf
from toricapprox.points import CoxPoint, is_m_full, is_m_point, is_perfect_power, is_squarefree, mult_at_prime, v_p

Q = FieldDescriptor.number_field()
RHO_Q = rho_of(Q)
P1 = projective_space(1)
P2 = projective_space(2)

PRIMES_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


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


def darmon_grid(n):
    return itertools.product([1, 2, 3, 4, 5, 6, INF], repeat=n)


def test_criterion_01_projective_darmon_closed_form_matches_pipeline():
    for n in (2, 3, 4):
        fan = projective_space(n - 1)
        for m in darmon_grid(n):
            pair = ToricPair(fan, darmon(list(m)))
            for t_nonempty in (True, False):
                got = decide_m_approx(pair, Q, t_nonempty).holds
                want = darmon_projective_closed_form(n, m, RHO_Q, t_nonempty).holds
                assert got is want, (n, m, t_nonempty)


def test_criterion_02_hirzebruch_index_radical_law():
    for r in range(6):
        fan = hirzebruch(r)
        for m in itertools.product([1, 2, 3, 4, 6], repeat=4):
            m1, m2, m3, m4 = m
            inv = pair_invariants(ToricPair(fan, darmon(list(m))))
            g = math.gcd(m1 * m2, m1 * m4, m2 * m3, m3 * m4, r * m1 * m3)
            assert radical(inv.index) == radical(g), (r, m)


def test_criterion_03_weighted_surface_gcd_criterion():
    for r in (1, 2, 3):
        fan = weighted_P11r(r)
        ref = resolve_2d(fan)
        verdicts = {}
        for m in itertools.product([1, 2, 3, 4], repeat=3):
            pair = ToricPair(fan, darmon(list(m)))
            inv = nm_singular(pair, ref)
            got = inv.index == 1
            want = (math.gcd(m[0], m[1]) == 1
                    and math.gcd(m[0] * m[1], m[2], r - 1) == 1)
            assert got == want, (r, m)
            v = decide_m_approx(pair, Q, True).holds
            assert v is (Holds.YES if want else Holds.NO), (r, m)
            verdicts[(r,) + m] = v
        if r == 2:
            # with r = 2 the last multiplicity never matters
            for m0, m1 in itertools.product([1, 2, 3, 4], repeat=2):
                vals = {verdicts[(2, m0, m1, m2)] for m2 in [1, 2, 3, 4]}
                assert len(vals) == 1, (m0, m1)


def test_criterion_03b_weighted_surface_example_matches_pipeline_for_r_up_to_12():
    # example_catalog attaches the gcd criterion as the expected verdict
    for r in range(1, 13):
        for m in itertools.product([1, 2, 3, 4, 6], repeat=3):
            fan, ms, field, expected = example_catalog("p11r", {"r": r, "m": m})
            assert decide_m_approx(ToricPair(fan, ms), field, True).holds is expected, (r, m)


def test_criterion_04_finite_campana_everywhere_approximation():
    fans = [P1, P2, product(P1, P1)] + [hirzebruch(r) for r in range(4)]
    for fan in fans:
        n = len(fan.rays)
        for m in itertools.product([2, 3, 5], repeat=n):
            pair = ToricPair(fan, campana(list(m)))
            assert decide_m_approx(pair, Q, False).holds is Holds.YES, (fan.rays, m)


def test_criterion_05_root_stack_fundamental_group_anchors():
    assert pi1_root_stack(ToricPair(P1, darmon([2, 2]))).quotient.invariant_factors == (2,)
    assert pi1_root_stack(ToricPair(P2, darmon([2, 2, 2]))).quotient.invariant_factors == (2, 2)
    res = pi1_root_stack(ToricPair(P1, darmon([2, 3])))
    assert res.quotient.is_trivial and res.quotient.free_rank == 0


def test_criterion_06_multiplicities_equal_valuations_on_projective_plane():
    primes = [p for p in PRIMES_50 if p <= 20]
    # the cone computation depends only on the valuation vector, and both
    # sides are invariant under sign flips, so nonnegative representatives
    # with one memoized cone evaluation per distinct vector cover the box
    vp_table = {p: [0] * 51 for p in primes}
    for p in primes:
        for a in range(1, 51):
            x, e = a, 0
            while x % p == 0:
                x //= p
                e += 1
            vp_table[p][a] = e
    cache = {}

    def mult_for(expected):
        if expected not in cache:
            rep = CoxPoint.make(P2, [0 if e == INF else 2 ** e for e in expected])
            cache[expected] = mult_at_prime(2, rep)
        return cache[expected]

    gcd = math.gcd
    for a0 in range(51):
        for a1 in range(51):
            g01 = gcd(a0, a1)
            for a2 in range(51):
                if gcd(g01, a2) != 1:
                    continue
                for p in primes:
                    t = vp_table[p]
                    expected = (INF if a0 == 0 else t[a0],
                                INF if a1 == 0 else t[a1],
                                INF if a2 == 0 else t[a2])
                    assert mult_for(expected) == expected, (a0, a1, a2, p)

    rng = random.Random(20260823)
    for _ in range(200):
        a = [rng.randint(1, 50) * rng.choice([1, -1]) for _ in range(3)]
        g = math.gcd(*[abs(x) for x in a])
        a = [x // g for x in a]
        s = Fraction(rng.choice([2, 3, 5, 7, 10]) * rng.choice([1, -1]),
                     rng.choice([1, 2, 3, 6]))
        P = CoxPoint.make(P2, [Fraction(x) * s for x in a])
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            assert mult_at_prime(p, P) == tuple(v_p(Fraction(x), p) for x in a)


def test_criterion_07_census_anchors_rederived():
    def box(H):
        for tup in itertools.product(range(-H, H + 1), repeat=2):
            if tup == (0, 0):
                continue
            nz = [x for x in tup if x != 0]
            if nz[0] < 0 or math.gcd(abs(tup[0]), abs(tup[1])) != 1:
                continue
            yield tup

    expect_c = sum(1 for a, b in box(9) if is_m_full(a, 2) and is_m_full(b, 2))
    expect_d = sum(1 for a, b in box(9)
                   if is_perfect_power(a, 2) and is_perfect_power(b, 2))
    got_c = enumerate_projective(ToricPair(P1, campana([2, 2])), 9).count
    got_d = enumerate_projective(ToricPair(P1, darmon([2, 2])), 9).count
    assert got_c == expect_c == 24
    assert got_d == expect_d == 16


def test_criterion_08_constructive_approximation_random_instances():
    rng = random.Random(8)
    for trial in range(100):
        k_primes = rng.randint(1, 3)
        ps = rng.sample(PRIMES_50, k_primes)
        cons = []
        for p in ps:
            num = rng.randint(1, 40) * rng.choice([1, -1])
            den = rng.randint(1, 12)
            cons.append(LocalConstraint(p, Fraction(num, den), rng.randint(1, 4)))
        R = rng.randint(1, 3)
        out = squarefree_approximate(cons, R)
        assert len(out) == R
        n_parts = []
        for f in out:
            for c in cons:
                assert f == c.target or \
                    v_p(f - c.target, c.p) >= c.k + v_p(c.target, c.p), (trial, c, f)
            n = f
            for c in cons:
                n /= Fraction(c.p) ** v_p(f, c.p)
            assert n.denominator == 1
            n = n.numerator
            assert is_squarefree(n), (trial, f)
            for m in n_parts:
                assert math.gcd(abs(n), abs(m)) == 1, (trial, out)
            n_parts.append(n)

    pair = ToricPair(P2, campana([2, 2, 2]))
    for trial in range(20):
        targets = {}
        for p in (2, 3, 5):
            coords = [Fraction(rng.randint(1, 9) * rng.choice([1, -1]),
                               rng.randint(1, 4)) for _ in range(3)]
            targets[p] = (CoxPoint.make(P2, coords), 2)
        cert = m_point_approximate(pair, targets)
        assert cert.verified(), trial
        # independent re-verification, not trust in the certificate flag
        w = is_m_point(pair, cert.point, excluded_primes=cert.excluded_primes)
        assert w.ok, trial
        for p, k, got in cert.closeness:
            assert got >= k, (trial, p)


def test_criterion_09_hilbert_property_matches_approximation():
    def check(pair, tag):
        rep = classify_thinness(pair, Q)
        yes = decide_m_approx(pair, Q, True).holds is Holds.YES
        assert (rep.classification is Thinness.NOT_THIN) == yes, tag

    for n in (2, 3, 4):
        fan = projective_space(n - 1)
        for m in darmon_grid(n):
            check(ToricPair(fan, darmon(list(m))), (n, m))
    for r in range(6):
        fan = hirzebruch(r)
        for m in itertools.product([1, 2, 3, 4, 6], repeat=4):
            check(ToricPair(fan, darmon(list(m))), (r, m))
    for r in (1, 2, 3):
        fan = weighted_P11r(r)
        for m in itertools.product([1, 2, 3, 4], repeat=3):
            check(ToricPair(fan, darmon(list(m))), (r, m))
    for fan in [P1, P2, product(P1, P1)] + [hirzebruch(r) for r in range(4)]:
        for m in itertools.product([2, 3, 5], repeat=len(fan.rays)):
            check(ToricPair(fan, campana(list(m))), (fan.rays, m))

    rep = classify_thinness(ToricPair(P1, darmon([2, 2])), Q)
    assert rep.classification is Thinness.STRICTLY_D_THIN
    assert rep.d_list == (2,)


def test_criterion_10_normal_form_and_cone_kernels():
    def det(rows):
        n = len(rows)
        m = [list(map(Fraction, r)) for r in rows]
        d = Fraction(1)
        for i in range(n):
            piv = next((r for r in range(i, n) if m[r][i] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != i:
                m[i], m[piv] = m[piv], m[i]
                d = -d
            d *= m[i][i]
            for r in range(i + 1, n):
                f = m[r][i] / m[i][i]
                for c in range(i, n):
                    m[r][c] -= f * m[i][c]
        return d

    def matmul(A, B):
        return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B))
                     for row in A)

    rng = random.Random(10)
    for _ in range(1000):
        rows_n = rng.randint(1, 6)
        cols_n = rng.randint(1, 6)
        A = tuple(tuple(rng.randint(-1000, 1000) for _ in range(cols_n))
                  for _ in range(rows_n))
        dec = snf(A)
        assert matmul(matmul(dec.U, A), dec.V) == dec.S
        assert abs(det(dec.U)) == 1
        assert abs(det(dec.V)) == 1
        fs = dec.invariant_factors()
        for a, b in zip(fs, fs[1:]):
            assert b % a == 0
        h = hnf(A)
        assert hnf(h) == h

    def oracle_contains(gens, v):
        # Caratheodory: v is in the cone iff some independent subset carries it
        d = len(v)
        if all(x == 0 for x in v):
            return True
        for k in range(1, d + 1):
            for sub in itertools.combinations(gens, k):
                rows = [[Fraction(sub[j][i]) for j in range(k)] for i in range(d)]
                # least squares by brute force: solve via Gaussian elimination
                sol = _solve_nonneg(rows, [Fraction(x) for x in v])
                if sol is not None:
                    return True
        return False

    def _solve_nonneg(rows, b):
        m, n = len(rows), len(rows[0])
        aug = [rows[i][:] + [b[i]] for i in range(m)]
        piv_cols = []
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            f = aug[r][c]
            aug[r] = [x / f for x in aug[r]]
            for i in range(m):
                if i != r and aug[i][c] != 0:
                    g = aug[i][c]
                    aug[i] = [x - g * y for x, y in zip(aug[i], aug[r])]
            piv_cols.append(c)
            r += 1
        for i in range(r, m):
            if aug[i][n] != 0:
                return None
        sol = [Fraction(0)] * n
        for i, c in enumerate(piv_cols):
            if any(aug[i][j] != 0 for j in range(n) if j != c):
                return None  # underdetermined subset: skip, a smaller one decides
            sol[c] = aug[i][n]
        if any(x < 0 for x in sol):
            return None
        return sol

    for _ in range(500):
        d = rng.choice([2, 3])
        gens = [tuple(rng.randint(-4, 4) for _ in range(d))
                for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)] or [(1,) + (0,) * (d - 1)]
        v = tuple(rng.randint(-6, 6) for _ in range(d))
        assert cone_contains(gens, v) == oracle_contains(gens, v), (gens, v)
