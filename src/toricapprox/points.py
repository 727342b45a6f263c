"""Rational points in Cox coordinates and their boundary multiplicities.

For a smooth complete fan the p-adic intersection multiplicities of a point
with the invariant divisors are read off from the valuation vector of the Cox
coordinates, translated into the unique cone-supported representative.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import chain, cycle
from math import gcd, isqrt, lcm
from typing import Optional, Sequence

from .fan import Fan, is_complete, is_smooth, max_cone_coords
from .intlat import INF, snf
from .conditions import ToricPair, _phi


class FactorizationError(ValueError):
    """An integer resisted trial division and primality testing at desk scale."""


_TRIAL_BOUND = 10 ** 6
# deterministic Miller-Rabin bases valid for all n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# trial divisors: steps 2 -> 3 -> 5 -> 7, then the mod-30 wheel from 7
_WHEEL_START = (1, 2, 2)
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


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


def _trial_division(n: int, squarefree_only: bool = False):
    """Divide n >= 1 by the primes up to _TRIAL_BOUND.

    Returns (small, c): small maps each prime found to its exponent, and the
    cofactor c is 1, a prime, or has no prime factor up to _TRIAL_BOUND.  With
    squarefree_only, returns None at the first prime dividing n twice.
    """
    small = {}
    steps = chain(_WHEEL_START, cycle(_WHEEL))
    d = 2
    limit = min(_TRIAL_BOUND, isqrt(n))
    while d <= limit:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e > 1 and squarefree_only:
                return None
            small[d] = e
            limit = min(_TRIAL_BOUND, isqrt(n))
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


def _cofactor_root(c: int) -> tuple:
    """(r, k) with c = r**k and r no perfect power, for a cofactor c left by
    the trial division.  Every prime factor of a composite c exceeds
    _TRIAL_BOUND, so only primes q with _TRIAL_BOUND**q < c can divide k."""
    k, q = 1, 2
    while _TRIAL_BOUND ** q < c:
        r = _iroot(c, q)
        if r ** q == c:
            c, k = r, k * q
            continue
        q += 1
        while not is_prime(q):
            q += 1
    return c, k


def factorize(n: int) -> dict:
    """Prime factorization of |n| as {p: e}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    return dict(_factorize_cached(abs(n)))


@lru_cache(maxsize=1 << 18)
def _factorize_cached(n: int) -> tuple:
    out, c = _trial_division(n)
    if c > 1:
        r, k = _cofactor_root(c)
        # a composite r has two prime factors above the bound, so r < bound**2 is prime
        if not (r < _TRIAL_BOUND ** 2 or is_prime(r)):
            raise FactorizationError(
                f"cofactor {r} is composite with no prime factor below {_TRIAL_BOUND}; "
                "inputs of this scale are out of scope")
        out[r] = k
    return tuple(out.items())


def v_p(x, p: int) -> int:
    """p-adic valuation of a nonzero integer or rational."""
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


@dataclass(frozen=True)
class CoxPoint:
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
    def from_json(cls, fan: Fan, obj: dict) -> "CoxPoint":
        return cls.make(fan, [Fraction(s) for s in obj["coords"]])

    def to_json(self) -> dict:
        return {"coords": [str(c) for c in self.coords]}

    def zero_support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coords) if c == 0)

    def support_primes(self) -> tuple:
        """Primes dividing some numerator or denominator of the coordinates."""
        primes = set()
        for c in self.coords:
            if c != 0:
                primes |= set(factorize(c.numerator).keys()) if abs(c.numerator) > 1 else set()
                primes |= set(factorize(c.denominator).keys()) if c.denominator > 1 else set()
        return tuple(sorted(primes))


def _is_projective_space(fan: Fan) -> bool:
    d = fan.dim
    if len(fan.rays) != d + 1:
        return False
    want = {tuple(1 if j == i else 0 for j in range(d)) for i in range(d)}
    want.add(tuple(-1 for _ in range(d)))
    return set(fan.rays) == want


def _coprime_integer_rep(coords) -> tuple:
    """Scale projective coordinates to coprime integers."""
    den = lcm(*[c.denominator for c in coords])
    ints = [int(c * den) for c in coords]
    g = gcd(*[abs(a) for a in ints])
    return tuple(a // g for a in ints)


def mult_at_prime(p: int, P: CoxPoint):
    """Intersection multiplicities with the invariant divisors at the prime p."""
    fan = P.fan
    zeros = P.zero_support()
    if zeros:
        # boundary points are supported on projective space only, where the
        # vanishing divisors carry infinite multiplicity
        if not _is_projective_space(fan):
            raise ValueError("boundary multiplicities implemented for projective "
                             "space only; general fans need the interior case")
        ints = _coprime_integer_rep(P.coords)
        return tuple(INF if a == 0 else v_p(a, p) for a in ints)
    if not (is_smooth(fan) and is_complete(fan)):
        raise ValueError("multiplicities need a smooth complete fan "
                         "(representative independence)")
    u = _phi(fan, [v_p(c, p) for c in P.coords])
    hit = max_cone_coords(fan, u)
    if hit is None or any(x.denominator != 1 for x in hit[1]):
        raise AssertionError(f"{u} has no integral coordinates on a maximal cone "
                             "of a smooth complete fan")
    out = [0] * len(fan.rays)
    for i, x in zip(*hit):
        out[i] = x.numerator
    return tuple(out)


def phi_v(p: int, P: CoxPoint) -> tuple:
    """The cocharacter sum of valuations: representative-independent image of
    the multiplicity vector."""
    if P.zero_support():
        raise ValueError("phi_v needs all-nonzero coordinates")
    return _phi(P.fan, [v_p(c, p) for c in P.coords])


@dataclass(frozen=True)
class MPointWitness:
    ok: bool
    prime: Optional[int] = None
    vector: Optional[tuple] = None


def is_m_point(pair: ToricPair, P: CoxPoint, excluded_primes=()) -> MPointWitness:
    """Whether every per-prime multiplicity vector outside S is admissible."""
    if P.fan != pair.fan:
        raise ValueError("point and pair live on different fans")
    S = set(excluded_primes)
    zeros = P.zero_support()
    if zeros:
        # the generic vector (infinity at the vanishing divisors, zero elsewhere)
        # is the multiplicity at every prime not dividing the coordinates
        generic = tuple(INF if i in zeros else 0 for i in range(len(P.coords)))
        if not pair.conditions.admits_vector(generic):
            return MPointWitness(False, None, generic)
    for p in P.support_primes():
        if p in S:
            continue
        mv = mult_at_prime(p, P)
        if not pair.conditions.admits_vector(mv):
            return MPointWitness(False, p, mv)
    return MPointWitness(True)


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
    """Squarefree test; decides without a full factorization where possible."""
    n = abs(n)
    if n == 0:
        return False
    split = _trial_division(n, squarefree_only=True)
    if split is None:
        return False
    r, k = _cofactor_root(split[1])
    if k > 1:
        return False
    # below the cube of the bound a composite r is a product of two distinct primes
    if r < _TRIAL_BOUND ** 3 or is_prime(r):
        return True
    raise FactorizationError(
        f"cannot certify squarefreeness of the cofactor {r}; "
        "inputs of this scale are out of scope")


def torus_kernel_basis(fan: Fan) -> list:
    """Integer basis of the exponent vectors k with sum_i k_i n_i = 0: the
    rescalings t_i = s^{k_i} act trivially on phi_v."""
    dec = snf(tuple(zip(*fan.rays)))  # d x n, one column per ray
    vc = tuple(zip(*dec.V))
    return list(vc[len(dec.invariant_factors()):])
