import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import rank, solve_rational
from toricapprox import intlat
from toricapprox.intlat import (
    INF,
    cone_contains,
    cone_coords,
    cone_inverse,
    cone_is_full,
    hnf,
    lattice_from_generators,
    quotient_invariants,
    right_inverse,
    snf,
    solve_in_smooth_cone,
)


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


def test_hnf_example():
    A = ((1, 2), (3, 4))
    assert hnf(A) == ((1, 0), (1, 2))


def test_hnf_idempotent_on_example():
    A = ((1, 2), (3, 4))
    h = hnf(A)
    assert hnf(h) == h


def test_snf_examples():
    A = ((2, 0), (0, 4))
    assert snf(A).invariant_factors() == [2, 4]
    A = ((2, 3), (0, 6))
    assert snf(A).invariant_factors() == [1, 12] or snf(A).invariant_factors()[0] == 1
    A = ((0, 0), (0, 0))
    assert snf(A).invariant_factors() == []
    assert snf(A).S == ((0, 0), (0, 0))


@pytest.mark.parametrize("A", [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((2, 0), (0, 4)),
                               ((3, 0, 0),)])
def test_snf_of_an_ordered_diagonal_runs_no_hnf(monkeypatch, A):
    calls = []
    monkeypatch.setattr(intlat, "hnf", lambda *a: calls.append(a) or hnf(*a))
    dec = snf(A)
    assert (dec.U, dec.S, dec.V) == (intlat._identity(len(A)), A, intlat._identity(len(A[0])))
    assert calls == []


def test_quotient_invariants():
    b = lattice_from_generators([(2, 0), (0, 2)], 2)
    q = quotient_invariants(b, 2)
    assert q.invariant_factors == (2, 2) and q.free_rank == 0
    b = lattice_from_generators([(2, 0), (0, 3)], 2)
    q = quotient_invariants(b, 2)
    assert q.invariant_factors == (6,)
    b = lattice_from_generators([(1, 0)], 2)
    q = quotient_invariants(b, 2)
    assert q.invariant_factors == () and q.free_rank == 1


def index(gens, d):
    return quotient_invariants(lattice_from_generators(gens, d), d).order()


def test_lattice_index():
    assert index([(2, 0), (0, 2)], 2) == 4
    assert index([(1, 0)], 2) == INF
    assert index([(2, 3), (3, 4)], 2) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.data())
def test_quotient_order_is_the_index(d, data):
    """The quotient's order is |det| of any d generators spanning the same
    lattice, and INF below full rank."""
    vec = st.tuples(*[st.integers(-9, 9)] * d)
    gens = data.draw(st.lists(vec, min_size=0, max_size=d))
    k = data.draw(st.integers(1, 3))  # k > 1 gives several invariant factors > 1
    gens = [tuple(k * x for x in g) for g in gens]
    if len(gens) == d and det(gens) != 0:
        assert index(gens, d) == abs(det(gens))
    else:
        assert index(gens, d) == INF


def test_right_inverse():
    A = ((2, 3, -2, -3),)
    R = right_inverse(A)
    assert R is not None
    assert matmul(A, R) == ((1,),)
    A = ((2, 0), (0, 2))
    assert right_inverse(A) is None


def test_cone_predicates():
    gens = [(1, 0), (0, 1)]
    assert cone_contains(gens, (3, 5))
    assert not cone_contains(gens, (-1, 0))
    assert not cone_is_full(gens, 2)
    assert cone_is_full([(1, 0), (0, 1), (-1, -1)], 2)


def test_solvers():
    assert solve_in_smooth_cone([(1, 0), (1, 1)], (3, 2)) == (1, 2)
    assert solve_in_smooth_cone([(1, 0), (1, 1)], (1, 2)) is None
    assert solve_in_smooth_cone([(1, 0, 0)], (2, 0, 0)) == (2,)
    assert solve_in_smooth_cone([(1, 0, 0)], (2, 1, 0)) is None
    assert solve_in_smooth_cone([], (0, 0)) == ()
    assert solve_in_smooth_cone([], (1, 0)) is None
    for rays in ([(1, 0), (1, 2)], [(1, 0), (-1, 0)], [(2, 0, 0)]):
        with pytest.raises(ValueError, match="unimodular"):
            solve_in_smooth_cone(rays, (0,) * len(rays[0]))


def _determinantal_divisors(rays):
    """[d_0, d_1, ...]: d_j is the gcd of the j x j minors of the ray matrix,
    up to its rank (a test oracle for the invariant factors s_j = d_j / d_(j-1))."""
    import itertools
    import math
    out = [1]
    for j in range(1, min(len(rays), len(rays[0]) if rays else 0) + 1):
        g = 0
        for rows in itertools.combinations(rays, j):
            for cols in itertools.combinations(range(len(rays[0])), j):
                g = math.gcd(g, int(det([[r[c] for c in cols] for r in rows])))
        if g == 0:
            break
        out.append(g)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_cone_inverse_matches_the_exact_solver(d, data):
    """On up to d rays, independent or not, spanning or not, unimodular or
    not: N v = 0 iff the Gauss-Jordan solve of sum x_i r_i = v is consistent,
    and then A v / D are its coordinates; D is the last invariant factor and
    len(N) = d - rank, so the cone is unimodular iff D = 1 and len(N) = d - k."""
    vec = st.tuples(*[st.integers(-4, 4)] * d)
    rays = data.draw(st.lists(vec.filter(any), max_size=d))
    if rays and data.draw(st.booleans()):  # a vector in the cone, maybe pushed off it
        coeffs = data.draw(st.lists(st.integers(0, 3), min_size=len(rays), max_size=len(rays)))
        v = [sum(a * r[i] for a, r in zip(coeffs, rays)) for i in range(d)]
        if data.draw(st.booleans()):
            v = [x + y for x, y in zip(v, data.draw(vec))]
    else:
        v = data.draw(vec)
    A, D, N = inverse = cone_inverse(rays, d)
    dets = _determinantal_divisors(rays)
    r = len(dets) - 1
    assert r == rank(rays)
    assert D == (dets[-1] // dets[-2] if r else 1)
    assert len(A) == len(rays) and len(N) == d - r
    x = solve_rational([[ray[i] for ray in rays] for i in range(d)], v) if rays else (
        None if any(v) else [])
    assert (x is not None) == all(sum(a * b for a, b in zip(n, v)) == 0 for n in N)
    if x is not None and r == len(rays):
        got = [Fraction(sum(a * b for a, b in zip(row, v)), D) for row in A]
        assert got == x
        want = None if any(xi < 0 for xi in x) else tuple(int(xi * D) for xi in x)
        assert cone_coords(inverse, v) == want
    unimodular = r == len(rays) and dets[-1] == 1
    assert (D == 1 and len(N) == d - len(rays)) == unimodular


@st.composite
def _small_matrices(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return tuple(tuple(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
                 for _ in range(m))


@st.composite
def _hard_matrices(draw):
    """Up to 6 x 6: diagonals out of divisibility order (zeros among them), or
    entries up to 10^6 with whole rows and columns of zeros."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        d = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 9, 10, 15, -6, 999_983, 10 ** 6]),
                          min_size=min(m, n), max_size=min(m, n)))
        return tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(m))
    bound = draw(st.sampled_from([1, 20, 10 ** 6]))
    rows = draw(st.sets(st.integers(0, m - 1)))
    cols = draw(st.sets(st.integers(0, n - 1)))
    return tuple(tuple(0 if i in rows or j in cols else draw(st.integers(-bound, bound))
                       for j in range(n)) for i in range(m))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_small_matrices(), _hard_matrices()))
@example(((1, 3, 0), (0, 7, 0), (0, 0, 1)))  # a row pass first after the fix never ends
def test_snf_relation(A):
    m, n = len(A), len(A[0])
    dec = snf(A)
    assert all(x == 0 for i, row in enumerate(dec.S) for j, x in enumerate(row) if i != j)
    d = [dec.S[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in d) and d == sorted(d, key=lambda x: x == 0)
    assert matmul(matmul(dec.U, A), dec.V) == dec.S
    assert abs(det(dec.U)) == 1
    assert abs(det(dec.V)) == 1
    fs = [f for f in dec.invariant_factors() if f not in (0,)]
    for a, b in zip(fs, fs[1:]):
        assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_hnf_column_span_preserved(m, n, data):
    entries = data.draw(st.lists(st.integers(-20, 20), min_size=m * n, max_size=m * n))
    A = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(m))
    h = hnf(A)
    # idempotence and span equality via double inclusion of HNF forms
    assert hnf(h) == h


def _rescan_hnf(A):
    """The column-style HNF by one gcd step at a time, re-collecting and
    re-sorting the live columns of the row after each step (a test oracle)."""
    cols = [list(c) for c in zip(*A) if any(c)]
    n = len(A)
    result = []
    for r in range(n):
        while True:
            live = [j for j, c in enumerate(cols) if c[r] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda j: abs(cols[j][r]))
            p, q = live[0], live[1]
            f = cols[q][r] // cols[p][r]
            cols[q] = [cols[q][i] - f * cols[p][i] for i in range(n)]
            if not any(cols[q]):
                cols.pop(q)
        live = [j for j, c in enumerate(cols) if c[r] != 0]
        if not live:
            continue
        piv = cols.pop(live[0])
        if piv[r] < 0:
            piv = [-x for x in piv]
        for k, pc in enumerate(result):
            f = pc[r] // piv[r]
            if f:
                result[k] = [pc[i] - f * piv[i] for i in range(n)]
        result.append(piv)
    return tuple(tuple(c[i] for c in result) for i in range(n))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), st.data())
def test_hnf_matches_the_one_step_rescan(m, n, data):
    """One pass per row that reduces every live column gives the same normal
    form, many-column matrices included."""
    bound = data.draw(st.sampled_from([1, 3, 20, 10 ** 6]))
    entries = data.draw(st.lists(st.integers(-bound, bound), min_size=m * n, max_size=m * n))
    A = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(m))
    assert hnf(A) == _rescan_hnf(A)


def _oracle_cone_contains(gens, v):
    """Caratheodory: v lies in the cone iff some independent subset carries it."""
    import itertools
    d = len(v)
    for k in range(0, d + 1):
        for sub in itertools.combinations(gens, k):
            if k == 0:
                if all(x == 0 for x in v):
                    return True
                continue
            rows = [[g[i] for g in sub] for i in range(d)]
            x = solve_rational(rows, list(v))
            if x is not None and all(c >= 0 for c in x):
                return True
    return False


def test_cone_contains_against_oracle():
    rng = random.Random(7)
    for _ in range(400):
        d = rng.choice([2, 3])
        gens = [tuple(rng.randint(-4, 4) for _ in range(d))
                for _ in range(rng.randint(1, 4))]
        v = tuple(rng.randint(-6, 6) for _ in range(d))
        assert cone_contains(gens, v) == _oracle_cone_contains(gens, v), (gens, v)


def _probe_oracle_cone_is_full(gens, d):
    """The 2d probes: the cone is all of R^d iff it holds +-e_i for every i."""
    return all(cone_contains(gens, [s * (j == i) for j in range(d)])
               for i in range(d) for s in (1, -1))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.data())
def test_cone_is_full_matches_the_probes(d, data):
    vec = st.tuples(*[st.integers(-3, 3)] * d)
    gens = data.draw(st.lists(vec, min_size=0, max_size=5))
    shape = data.draw(st.sampled_from(["free", "repeat", "zero_sum", "flat"]))
    if shape == "repeat" and gens:
        gens = gens + [gens[0]]
    elif shape == "zero_sum" and gens:
        gens = gens + [tuple(-sum(c) for c in zip(*gens))]
    elif shape == "flat":
        gens = [g[:-1] + (0,) for g in gens]  # rank < d
    assert cone_is_full(gens, d) == _probe_oracle_cone_is_full(gens, d), gens
    rk = lattice_from_generators(gens, d).rank
    assert cone_is_full(gens, d, rk) == cone_is_full(gens, d), gens


def test_cone_is_full_makes_one_lp_call(monkeypatch):
    calls = []
    lp = intlat._lp_feasible
    monkeypatch.setattr(intlat, "_lp_feasible", lambda *a: calls.append(a) or lp(*a))
    for gens in ([(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1)], [(1, 0), (-1, 0)]):
        calls.clear()
        cone_is_full(gens, 2)
        assert len(calls) <= 1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.data())
def test_rank_matches_the_hnf(d, data):
    vec = st.tuples(*[st.integers(-5, 5)] * d)
    gens = data.draw(st.lists(vec, min_size=0, max_size=6))
    assert rank(gens) == lattice_from_generators(gens, d).rank
