"""Bounded-height censuses of M-points, with brute-force oracle cross-checks.

Height is the maximum absolute value of the canonical integer Cox coordinates.
That is an artifact convention chosen for correctness testing, not a
log-anticanonical height; every census says so in its normalization note.
"""
from __future__ import annotations

import csv
import io
from functools import lru_cache
from itertools import product as _iter_product
from math import gcd
from typing import NamedTuple

from .conditions import Kind, ToricPair, Variant
from .fan import require
from .points import (
    factorize,
    is_m_full,
    is_perfect_power,
    is_squarefree,
    m_point_check,
)

_HEIGHT_NOTE = ("height = max |canonical integer Cox coordinate| "
                "(box height, an artifact convention; the source results "
                "attach no height to M-points)")


class Census(NamedTuple):
    pair: ToricPair
    height: int
    count: int
    points: tuple
    normalization_note: str = _HEIGHT_NOTE

    def to_json(self) -> dict:
        return {"height": self.height, "count": self.count,
                "normalization_note": self.normalization_note,
                "points": [[str(x) for x in p] for p in self.points]}


def _coprime_box(n: int, H: int):
    """The coprime integer n-tuples of absolute value at most H whose first
    nonzero coordinate is positive, in product order.

    In product order on [-H, H]^n these are the tuples with k leading zeros
    for k = n - 1 down to 0, each block in the product order of its tail
    [1, H] x [-H, H]^(n-k-1), so only the kept half of the box is walked."""
    for k in range(n - 1, -1, -1):
        zeros = (0,) * k
        for tail in _iter_product(range(1, H + 1), *[range(-H, H + 1)] * (n - k - 1)):
            if gcd(*tail) == 1:
                yield zeros + tail


def enumerate_projective(pair: ToricPair, H: int) -> Census:
    """All M-points of projective space with coprime integer coordinates of
    absolute value at most H, first nonzero coordinate positive, in product
    order.

    The verdict depends on a tuple only through its zero set and the absolute
    values of its entries (m_point_check), so each coprime magnitude tuple in
    [0, H]^n is decided once and, when it is an M-point, every sign variant
    with a positive first nonzero entry is listed."""
    if H < 1:
        raise ValueError("height bound must be at least 1")
    fan = pair.fan
    require(fan, "projective censuses", "projective space")
    admits = pair.conditions.admits_vector
    verdicts = {}
    found = []
    for tup in _iter_product(range(H + 1), repeat=len(fan.rays)):
        # gcd of the all-zero tuple is 0, so it is dropped here too
        if gcd(*tup) == 1 and m_point_check(fan, tup, admits, verdicts)[0].ok:
            first = next(i for i, x in enumerate(tup) if x)
            found.extend(_iter_product(*[(x, -x) if x and i > first else (x,)
                                         for i, x in enumerate(tup)]))
    found.sort()
    return Census(pair, H, len(found), tuple(found))


@lru_cache(maxsize=256)
def _sign_group(fan) -> tuple:
    """The sign part of the relation torus: the s in {1, -1}^n with
    prod_i s_i^<m, n_i> = 1 for every character m, that is, those whose rays
    with s_i = -1 sum into 2Z^d, in the product order of (1, -1)^n.  Cached
    per fan."""
    return tuple(s for s in _iter_product((1, -1), repeat=len(fan.rays))
                 if all(sum(r[j] for r, si in zip(fan.rays, s) if si < 0) % 2 == 0
                        for j in range(fan.dim)))


@lru_cache(maxsize=256)
def _sign_classes(fan) -> dict:
    """Each sign vector in {1, -1}^n mapped to the least vector of its coset
    of the sign group.  Cached per fan."""
    group = _sign_group(fan)
    least = {}
    for t in _iter_product((-1, 1), repeat=len(fan.rays)):  # ascending
        if t not in least:
            for s in group:
                least[tuple(a * b for a, b in zip(t, s))] = t
    return least


def canonical_interior(pair: ToricPair, coords, vectors: tuple) -> tuple:
    """Canonical orbit representative of the interior point with Cox
    coordinates coords from its multiplicity vectors (m_point_check): the
    per-prime multiplicity magnitudes times the least sign pattern of the
    orbit.  The magnitudes are positive, so of two points with the same
    magnitudes the lesser is the one with the lesser sign pattern."""
    mags = [1] * len(pair.fan.rays)
    for p, mv in vectors:
        for i, e in enumerate(mv):
            mags[i] *= p ** e
    signs = tuple(1 if c > 0 else -1 for c in coords)
    return tuple(m * s for m, s in zip(mags, _sign_classes(pair.fan)[signs]))


def enumerate_toric(pair: ToricPair, H: int) -> Census:
    """Interior census: orbits of all-nonzero integer Cox tuples in the box.
    Admissibility is a property of the orbit, so each admissible tuple adds
    its orbit's canonical representative.

    The verdict and the multiplicity vectors depend on a tuple only through
    the absolute values of its entries (m_point_check), so each tuple in
    [1, H]^n is checked once.  When it is admissible, its sign variants fall
    into one orbit per coset of the sign group, and the canonical
    representative of one variant per coset is read off its one set of
    vectors."""
    fan = pair.fan
    if H < 0:
        raise ValueError("height bound must be nonnegative")
    require(fan, "interior censuses", "smooth", "complete")
    admits = pair.conditions.admits_vector
    verdicts = {}
    seen = set()
    cosets = set(_sign_classes(fan).values())
    for tup in _iter_product(range(1, H + 1), repeat=len(fan.rays)):
        witness, vectors = m_point_check(fan, tup, admits, verdicts)
        if witness.ok:
            seen.update(canonical_interior(pair, tuple(a * s for a, s in zip(tup, t)), vectors)
                        for t in cosets)
    pts = tuple(sorted(seen))
    return Census(pair, H, len(pts), pts)


class CrosscheckReport(NamedTuple):
    checked: int
    divergences: tuple  # (tuple, fan_verdict, oracle_verdict)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _oracle_admits(cond, a: int) -> bool:
    """Direct arithmetic characterization of one coordinate's condition on
    projective space with coprime integer coordinates."""
    if cond.kind is Kind.ANY:
        return True
    if cond.kind is Kind.INTEGRAL:
        return a in (1, -1)
    if cond.kind is Kind.CAMPANA:
        return is_m_full(a, cond.m)
    if cond.kind is Kind.DARMON:
        return is_perfect_power(a, cond.m)
    if cond.kind is Kind.STRICT_DARMON:
        return a != 0 and is_perfect_power(a, cond.m)
    if cond.kind is Kind.SQUAREFREE:
        return a != 0 and is_squarefree(a)
    if cond.kind is Kind.FINITE_SET:
        if a == 0:
            return cond.allow_infinity
        if a in (1, -1):
            return True
        return all(e in cond.values for e in factorize(a).values())
    raise AssertionError(cond.kind)


def crosscheck(pair: ToricPair, H: int) -> CrosscheckReport:
    """Compare is_m_point with the coordinatewise arithmetic oracle on the
    whole coprime box of height H.

    Every signed tuple goes through m_point_check.  The oracle verdict of a
    tuple is the AND of its coordinates' verdicts, which depend only on the
    divisor and the signed value, so each (divisor, value) is judged once, in
    a table that lives for this call."""
    if H < 1:
        raise ValueError("height bound must be at least 1")
    fan = pair.fan
    require(fan, "crosschecks", "projective space")
    if pair.conditions.variant is not Variant.PRODUCT:
        raise ValueError("crosscheck needs per-divisor conditions")
    conds = pair.conditions.conditions
    admits = pair.conditions.admits_vector
    verdicts = {}
    oracle = [{} for _ in conds]  # per divisor: signed value -> oracle verdict
    checked = 0
    divergences = []
    for tup in _coprime_box(len(fan.rays), H):
        checked += 1
        fan_v = m_point_check(fan, tup, admits, verdicts)[0].ok
        oracle_v = True
        for c, table, a in zip(conds, oracle, tup):
            v = table.get(a)
            if v is None:
                v = table[a] = _oracle_admits(c, a)
            if not v:
                oracle_v = False
                break
        if fan_v != oracle_v:
            divergences.append((tup, fan_v, oracle_v))
    return CrosscheckReport(checked, tuple(divergences))


def census_to_csv(c: Census) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    n = len(c.pair.fan.rays)
    w.writerow([f"a{i}" for i in range(n)] + ["is_m_point"])
    for p in c.points:
        w.writerow(list(p) + ["yes"])
    return buf.getvalue()
