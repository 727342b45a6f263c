"""Rational points in Cox coordinates and their boundary multiplicities.

For a smooth complete fan the p-adic intersection multiplicities of a point
with the invariant divisors are read off from the valuation vector of the Cox
coordinates, translated into the unique cone-supported representative.
"""
from __future__ import annotations

import re
from functools import lru_cache
from fractions import Fraction
from itertools import chain, cycle
from math import gcd, isqrt
from typing import NamedTuple, Optional, Sequence

from .fan import Fan, max_cone_coords, require
from .intlat import INF, json_object, json_typed, json_value
from .conditions import ToricPair, _phi


class FactorizationError(ValueError):
    """An integer has a composite piece that Brent's rho did not split within
    _RHO_BUDGET iterations, or is_squarefree met a cofactor it declines to
    split."""


class ScanCapExhausted(RuntimeError):
    """The squarefree scan hit its iteration cap: a computational defect, not a
    nonexistence proof."""


_TRIAL_BOUND = 10 ** 6  # trial division of is_squarefree and of probable primes
_SMALL_BOUND = 1 << 8  # trial division ahead of the worklist of _factorize_cached
# deterministic Miller-Rabin bases valid for all n < 3.3 * 10^24 = _MR_PROVEN
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 33 * 10 ** 23
# Brent-rho polynomial steps one factorization may spend, over all its pieces;
# two 30-digit primes exhaust it in about 0.7 s on a 2-vCPU x86-64 host
_RHO_BUDGET = 10 ** 6
_RHO_BATCH = 128  # differences multiplied together between two gcds
# trial divisors: steps 2 -> 3 -> 5 -> 7, then the mod-30 wheel from 7
_WHEEL_START = (1, 2, 2)
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)
# a string coordinate: an integer or a fraction of integers, ASCII digits only
_COORD = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_division(n: int, bound: int, squarefree_only: bool = False):
    """Divide n >= 1 by the primes up to bound.

    Returns (small, c): small maps each prime found to its exponent, and the
    cofactor c is 1, a prime, or has no prime factor up to bound.  With
    squarefree_only, returns None at the first prime dividing n twice.
    """
    small = {}
    steps = chain(_WHEEL_START, cycle(_WHEEL))
    d = 2
    limit = min(bound, isqrt(n))
    while d <= limit:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e > 1 and squarefree_only:
                return None
            small[d] = e
            limit = min(bound, isqrt(n))
        d += next(steps)
    return small, n


def _iroot(n: int, k: int) -> int:
    """The k-th root of n >= 1, rounded down, in integer arithmetic."""
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _cofactor_root(c: int, bound: int) -> tuple:
    """(r, k) with c = r**k and r no perfect power, for a c with no prime
    factor up to bound.  Every prime factor of a composite c then exceeds
    bound, so only primes q with bound**q < c can divide k."""
    k, q = 1, 2
    while bound ** q < c:
        r = _iroot(c, q)
        if r ** q == c:
            c, k = r, k * q
            continue
        q += 1
        while not is_prime(q):
            q += 1
    return c, k


def _rho_divisor(n: int, budget: int) -> tuple:
    """(d, budget left): a proper divisor d of the composite n, which is no
    perfect power, found by Brent's variant of Pollard's rho with batched gcds
    (Pollard 1975; Brent 1980; Cohen, GTM 138, section 8.5), trying
    y -> y^2 + c for c = 1, 3, 5, ... in turn.  Each polynomial step spends
    one unit of budget; FactorizationError rather than a step past it."""
    def exhausted():
        return FactorizationError(
            f"Brent's rho found no factor of the composite {n} within "
            f"_RHO_BUDGET = {_RHO_BUDGET} iterations; inputs of this scale are "
            "out of scope")

    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if r > budget:
                raise exhausted()
            budget -= r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                step = min(_RHO_BATCH, r - k)
                if step > budget:
                    raise exhausted()
                budget -= step
                ys = y
                for _ in range(step):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += step
            r *= 2
        if g == n:  # the batch overshot: retrace it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g < n:
            return g, budget
        c += 2


def factorize(n: int) -> dict:
    """Prime factorization of |n| as {p: e}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    return dict(_factorize_cached(abs(n)))


@lru_cache(maxsize=1 << 18)
def _factorize_cached(n: int) -> tuple:
    """((p, e), ...) ascending: the factorization of n >= 1.

    Trial division by the primes up to _SMALL_BOUND, then a worklist of
    (piece, exponent).  A piece is prime below _SMALL_BOUND**2 (it has no
    prime factor up to the bound), or when is_prime proves it (below
    _MR_PROVEN).  A probable prime at or above _MR_PROVEN counts as prime
    after trial division up to _TRIAL_BOUND finds no factor.  A composite
    piece is replaced by its root if it is a perfect power, else split by
    _rho_divisor under one budget of _RHO_BUDGET iterations for all pieces.
    """
    out, c = _trial_division(n, _SMALL_BOUND)
    work = [(c, 1)]
    budget = _RHO_BUDGET
    while work:
        m, k = work.pop()
        if m == 1:
            continue
        if m < _SMALL_BOUND ** 2 or is_prime(m):
            if m >= _MR_PROVEN:
                small, r = _trial_division(m, _TRIAL_BOUND)
                if small:  # a strong liar to every base
                    work += [(p, k * e) for p, e in small.items()] + [(r, k)]
                    continue
            out[m] = out.get(m, 0) + k
            continue
        r, e = _cofactor_root(m, _SMALL_BOUND)
        if e > 1:
            work.append((r, k * e))
            continue
        d, budget = _rho_divisor(m, budget)
        e = 0
        while m % d == 0:  # m = d**e * (what is left)
            m //= d
            e += 1
        work += [(d, k * e), (m, k)]
    return tuple(sorted(out.items()))


def v_p(x, p: int) -> int:
    """p-adic valuation of a nonzero integer or rational at a prime p."""
    if p < 2:
        raise ValueError(f"valuation at {p} requested; p must be a prime")
    if x == 0:
        raise ValueError("valuation of 0 requested")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class CoxPoint(NamedTuple):
    """A rational point given by one Cox coordinate per ray."""

    fan: Fan
    coords: tuple  # Fractions; zeros only where the vanishing set spans a cone

    @classmethod
    def make(cls, fan: Fan, coords: Sequence) -> "CoxPoint":
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != len(fan.rays):
            raise ValueError("need one coordinate per ray")
        zero = frozenset(i for i, c in enumerate(cs) if c == 0)
        if zero and not any(zero <= set(c) for c in fan.max_cones):
            raise ValueError("vanishing coordinates do not span a cone "
                             "(point lies in the irrelevant locus)")
        return cls(fan, cs)

    @classmethod
    def from_json(cls, fan: Fan, obj) -> "CoxPoint":
        """{"coords": [...]}, each coordinate a JSON int or a string _COORD matches."""
        coords, given = [], json_value(obj, "coords", "a point", list)
        json_object(obj, "a point", "coords")
        for c in given:
            if type(json_typed(c, "coords", int, str)) is str and not _COORD.fullmatch(c):
                raise ValueError(f"coordinate {c!r} is not an integer or a fraction of "
                                 "integers such as '-4/9'")
            try:
                coords.append(Fraction(c))
            except ZeroDivisionError:
                raise ValueError(f"coordinate {c!r} has a zero denominator") from None
        return cls.make(fan, coords)

    def to_json(self) -> dict:
        return {"coords": [str(c) for c in self.coords]}

    def zero_support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coords) if c == 0)


def require_point_fan(P: "CoxPoint") -> None:
    """What P's multiplicities assume of its fan: projective space at a boundary
    point, else smooth and complete (a unique cone-supported representative)."""
    if P.zero_support():
        require(P.fan, "boundary multiplicities", "projective space")
    else:
        require(P.fan, "multiplicities", "smooth", "complete")


def _multiplicities(fan: Fan, key: tuple) -> tuple:
    """The multiplicity vector of a valuation key (see m_point_check) on a fan
    that require_point_fan admits: a boundary key (INF on the zero set)
    itself, else the cone coordinates of the key's phi-image."""
    if INF in key:
        return key
    u = _phi(fan, key)
    hit = max_cone_coords(fan, u)
    if hit is None or any(x % hit[2] for x in hit[1]):
        raise AssertionError(f"{u} has no integral coordinates on a maximal cone "
                             "of a smooth complete fan")
    cone, x, D = hit
    out = [0] * len(fan.rays)
    for i, xi in zip(cone, x):
        out[i] = xi // D
    return tuple(out)


def _boundary_key(v, zeros: int) -> tuple:
    """The valuation key of a boundary point: INF on the zero set (bit i of
    zeros set), each other valuation in v less the least of them."""
    low = min(x for i, x in enumerate(v) if not zeros >> i & 1)
    return tuple([INF if zeros >> i & 1 else x - low for i, x in enumerate(v)])


def mult_at_prime(p: int, P: CoxPoint):
    """Intersection multiplicities with the invariant divisors at the prime p."""
    require_point_fan(P)
    v = [v_p(c, p) if c else 0 for c in P.coords]
    zeros = sum(1 << i for i in P.zero_support())
    return _multiplicities(P.fan, _boundary_key(v, zeros) if zeros else tuple(v))


@lru_cache(maxsize=256)
def _mult_memo(fan: Fan) -> dict:
    """The multiplicity vectors found on one fan, keyed by valuation key (see
    m_point_check): the vector depends on the key alone."""
    return {}


class MPointWitness(NamedTuple):
    ok: bool
    prime: Optional[int] = None
    vector: Optional[tuple] = None


_YES = MPointWitness(True)


def m_point_check(fan: Fan, coords: Sequence, admits, verdicts: dict, skip=(), rows=None) -> tuple:
    """The M-point verdict of the point with Cox coordinates coords on fan, at
    every prime outside skip: (witness, multiplicity vectors).

    coords are ints or Fractions whose zeros span a cone of a fan that
    require_point_fan admits (the caller checks it).  The cached
    factorization of each |numerator| and denominator (an int is its own
    numerator) is read in place, without a copy, into the valuation vector
    (v_p(x_i))_i of every prime p dividing one, unless the caller passes these
    vectors as rows {p: vector}.  Its key is the vector itself at an interior
    point; at a boundary point it is INF on the zero set and
    each finite entry less the least finite one, which is the valuation vector
    of the coprime integer representative.  The per-fan memo maps a key to its
    multiplicity vector; a key not in it goes once through _multiplicities.
    verdicts maps a key to (admits(vector), vector); a caller may keep it
    across points of one multiplicity set.  At a boundary point the generic vector (INF on the
    zero set, 0 elsewhere) is checked first, and a failure there returns at
    once with vectors None.  The witness names the least failing prime;
    vectors holds (p, vector) at every prime outside skip, ascending.  The
    result depends on coords only through the zero set and the
    factorizations of each |numerator| and |denominator|, so flipping the
    sign of any coordinate changes nothing; the censuses decide each
    magnitude pattern once.
    """
    n = len(coords)
    zeros = 0  # bit i set iff coords[i] == 0; an int never equals a tuple key
    for i, c in enumerate(coords):
        if not c:
            zeros |= 1 << i
    if zeros:
        hit = verdicts.get(zeros)
        if hit is None:
            generic = tuple(INF if zeros >> i & 1 else 0 for i in range(n))
            hit = verdicts[zeros] = (admits(generic), generic)
        if not hit[0]:
            return MPointWitness(False, None, hit[1]), None
    witness = _YES
    out = []
    rows = _valuation_rows(coords) if rows is None else rows
    for p in sorted(rows):
        if p in skip:
            continue
        key = _boundary_key(rows[p], zeros) if zeros else tuple(rows[p])
        hit = verdicts.get(key)
        if hit is None:
            memo = _mult_memo(fan)
            mv = memo.get(key)
            if mv is None:
                mv = memo[key] = _multiplicities(fan, key)
            hit = verdicts[key] = (admits(mv), mv)
        if not hit[0] and witness.ok:
            witness = MPointWitness(False, p, hit[1])
        out.append((p, hit[1]))
    return witness, tuple(out)


def _valuation_rows(coords) -> dict:
    """{p: [v_p(x_i) for each i]} over the primes p that divide a numerator or
    denominator of the coordinates, a zero coordinate reading 0."""
    n = len(coords)
    vals = {}
    for i, c in enumerate(coords):
        for part, sign in (((c, 1),) if isinstance(c, int)
                           else ((c.numerator, 1), (c.denominator, -1))):
            part = abs(part)
            if part > 1:
                for p, e in _factorize_cached(part):
                    row = vals.get(p)
                    if row is None:
                        row = vals[p] = [0] * n
                    row[i] = sign * e
    return vals


def is_m_point(pair: ToricPair, P: CoxPoint, excluded_primes=()) -> MPointWitness:
    """Whether the multiplicity vector at every prime outside excluded_primes
    is admissible."""
    if P.fan != pair.fan:
        raise ValueError("point and pair live on different fans")
    require_point_fan(P)
    return m_point_check(P.fan, P.coords, pair.conditions.admits_vector, {},
                         excluded_primes)[0]


# ---------------------------------------------------------------------------
# Direct arithmetic oracles on projective space
# ---------------------------------------------------------------------------

def is_m_full(n: int, m) -> bool:
    """n is m-full: every prime dividing n does so to exponent >= m.
    -1, 0 and 1 are the only infinity-full integers."""
    if n in (-1, 0, 1):
        return True
    if m == INF:
        return False
    return all(e >= m for e in factorize(n).values())


def is_perfect_power(n: int, m) -> bool:
    """|n| is an m-th power; -1, 0 and 1 count for every m."""
    if n in (-1, 0, 1):
        return True
    if m == INF:
        return False
    return all(e % m == 0 for e in factorize(n).values())


def is_squarefree(n: int) -> bool:
    """Squarefree test by trial division up to _TRIAL_BOUND and the cofactor's
    root; a cofactor it cannot decide raises FactorizationError at once, with
    no rho, so the squarefree scan declines huge candidates fast."""
    n = abs(n)
    if n == 0:
        return False
    split = _trial_division(n, _TRIAL_BOUND, squarefree_only=True)
    if split is None:
        return False
    r, k = _cofactor_root(split[1], _TRIAL_BOUND)
    if k > 1:
        return False
    # below the cube of the bound a composite r is a product of two distinct primes
    if r < _TRIAL_BOUND ** 3 or is_prime(r):
        return True
    raise FactorizationError(
        f"cannot certify squarefreeness of the cofactor {r}; "
        "inputs of this scale are out of scope")
