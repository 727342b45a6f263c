"""Constructive p-adic approximation by M-points over Q.

Two layers: a squarefree CRT-and-scan lifting routine (the desk realization of
the number-field lifting lemma with distinguished archimedean place), and the
multiplicative recombination that assembles an M-point close to prescribed
local targets when N_M = N.
"""
from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Sequence

from .conditions import ToricPair, Variant, _phi
from .fan import is_complete, is_smooth
from .intlat import INF, right_inverse
from .points import (CoxPoint, MPointWitness, RetriesExhausted, ScanCapExhausted,
                     factorize, is_m_point, is_squarefree, m_point_check, v_p)

DEFAULT_SCAN_CAP = 10 ** 7
# m_point_approximate retries this often, each time with more guard digits
MAX_RETRIES = 5


class LocalConstraint(namedtuple("LocalConstraint", "p target k")):
    """Approximate the nonzero rational target p-adically to k digits:
    |f - target|_p <= p^(-k) |target|_p."""

    __slots__ = ()

    def __new__(cls, p: int, target: Fraction, k: int):
        if k < 1:
            raise ValueError("need at least one digit")
        if target == 0:
            raise ValueError("target must be nonzero")
        return super().__new__(cls, p, target, k)


def _scan_cap() -> int:
    env = os.environ.get("TORICAPPROX_SCAN_CAP")
    return int(env) if env else DEFAULT_SCAN_CAP


def _crt(residues) -> tuple:
    """Combine (r mod m) pairs with coprime moduli."""
    r, m = 0, 1
    for ri, mi in residues:
        g = math.gcd(m, mi)
        assert g == 1
        r = (r * mi * pow(mi, -1, m) + ri * m * pow(m, -1, mi)) % (m * mi)
        m *= mi
    return r, m


def squarefree_approximate(constraints: Sequence[LocalConstraint], R: int = 1,
                           avoid: Sequence[int] = ()) -> list:
    """R pairwise coprime squarefree elements of Z[1/S] meeting every constraint.

    Each output is f = (prod_p p^(v_p(target_p))) * n with n a squarefree
    integer congruent to the unit part of every target; candidates n are
    scanned outward from the CRT residue and accepted smallest |n| first.
    """
    if R < 1:
        raise ValueError("R must be positive")
    primes = [c.p for c in constraints]
    if len(set(primes)) != len(primes):
        raise ValueError("constraint primes must be distinct")
    prefactor = Fraction(1)
    for c in constraints:
        prefactor *= Fraction(c.p) ** v_p(c.target, c.p)
    residues = []
    for c in constraints:
        # target/prefactor is a p-adic unit: the other constraints' prime
        # powers must be congruent away too, not just the p-part
        unit = c.target / prefactor
        mod = c.p ** c.k
        r = unit.numerator * pow(unit.denominator, -1, mod) % mod
        residues.append((r, mod))
    r, M = _crt(residues)

    out = []
    chosen = []
    avoid_n = 1
    for a in avoid:
        avoid_n *= a
    cap = _scan_cap()
    # candidates ordered by |n|: n = r, then r - M or r + M, etc.
    t = 0
    scanned = 0
    candidates = []
    while len(out) < R:
        if scanned >= cap:
            raise ScanCapExhausted(
                f"no further admissible squarefree value within {cap} candidates "
                f"(residue {r} mod {M}, {len(out)} of {R} found)")
        while not candidates:
            lo, hi = r - t * M, r + t * M
            candidates = sorted({lo, hi} - {0}, key=lambda n: (abs(n), n < 0))
            t += 1
        n = candidates.pop(0)
        scanned += 1
        if n == 0 or not is_squarefree(n):
            continue
        if math.gcd(n, avoid_n) != 1:
            continue
        if any(math.gcd(n, m) != 1 for m in chosen):
            continue
        chosen.append(n)
        out.append(prefactor * n)
    return out


class GammaData(NamedTuple):
    """Single-ray generators of the multiplicity set and the matrix of their
    phi-images, surjective onto N."""

    generators: tuple  # multiplicity vectors, one nonzero entry each
    gamma: tuple  # d x l rows, columns phi(m_s)
    rinv: tuple  # l x d rows with gamma rinv = identity


def build_gamma(pair: ToricPair) -> GammaData:
    fan = pair.fan
    if pair.conditions.variant is not Variant.PRODUCT:
        raise ValueError("recombination needs per-divisor multiplicities")
    gens = pair.conditions.single_ray_vectors()
    cols = [_phi(fan, m) for m in gens]
    gamma = tuple(tuple(c[j] for c in cols) for j in range(fan.dim))
    rinv = right_inverse(gamma)
    if rinv is None:
        raise ValueError("N_M is a proper sublattice of N (index != 1): "
                         "the recombination construction does not apply")
    return GammaData(gens, gamma, rinv)


def _characters(fan, coords) -> list:
    """a_j = prod_i coord_i^(n_i[j]), the G-invariant coordinates of the torus."""
    out = []
    for j in range(fan.dim):
        a = Fraction(1)
        for c, ray in zip(coords, fan.rays):
            a *= Fraction(c) ** ray[j]
        out.append(a)
    return out


def solve_local_exponents(pair: ToricPair, gd: GammaData, target: CoxPoint) -> list:
    """Rationals c_s with prod_s c_s^(m_s) equal to the target modulo G."""
    if target.zero_support():
        raise ValueError("targets must have all-nonzero coordinates")
    a = _characters(pair.fan, target.coords)
    cs = []
    for row in gd.rinv:
        c = Fraction(1)
        for aj, r in zip(a, row):
            c *= aj ** r
        cs.append(c)
    return cs


def recombine(pair: ToricPair, gd: GammaData, cs: Sequence[Fraction]) -> tuple:
    """Coordinates Q_i = prod_s c_s^(m_(s,i))."""
    n = len(pair.fan.rays)
    coords = []
    for i in range(n):
        q = Fraction(1)
        for c, m in zip(cs, gd.generators):
            q *= c ** m[i]
        coords.append(q)
    return tuple(coords)


class ApproxCertificate(NamedTuple):
    point: CoxPoint
    closeness: tuple  # (prime, requested digits, achieved valuation or INF) triples
    multiplicities: tuple  # (prime, vector) at every support prime off S'
    excluded_primes: tuple  # S'
    witness: MPointWitness

    def verified(self) -> bool:
        return self.witness.ok and all(got >= k for _, k, got in self.closeness)

    def to_json(self) -> dict:
        return {"point": self.point.to_json(),
                "closeness": [{"p": p, "digits": k, "achieved": "inf" if got == INF else got}
                              for p, k, got in self.closeness],
                "multiplicities": [{"p": p, "vector": [str(x) for x in v]}
                                   for p, v in self.multiplicities],
                "excluded_primes": list(self.excluded_primes),
                "verified": self.verified()}


def _closeness_valuation(pair, p, Q_coords, target_coords):
    """min_j v_p(a_j(Q)/a_j(target) - 1), the G-invariant distance: INF on an
    exact match."""
    aq = _characters(pair.fan, Q_coords)
    at = _characters(pair.fan, target_coords)
    worst = None
    for x, y in zip(aq, at):
        diff = x / y - 1
        v = INF if diff == 0 else v_p(diff, p)
        worst = v if worst is None else min(worst, v)
    return worst


def m_point_approximate(pair: ToricPair, targets: dict) -> ApproxCertificate:
    """An M-point p-adically close to each target, with a recomputed certificate.

    targets maps a prime to (CoxPoint, digits).  Requires a smooth complete fan
    and N_M = N; the certificate is verified through the points module and
    never returned unverified.
    """
    fan = pair.fan
    if not (is_smooth(fan) and is_complete(fan)):
        raise ValueError("construction needs a smooth complete fan")
    if not targets:
        pt = CoxPoint.make(fan, [1] * len(fan.rays))
        w = is_m_point(pair, pt)
        return ApproxCertificate(pt, (), (), (), w)
    gd = build_gamma(pair)
    primes = sorted(targets)
    # guard digits cover the ultrametric loss when multiplying Sum m_(s,i) factors
    msum = max(sum(m[i] for m in gd.generators) for i in range(len(fan.rays)))
    cs_by_prime = {p: solve_local_exponents(pair, gd, targets[p][0])
                   for p in primes}
    extra = 0
    cert = None
    for attempt in range(MAX_RETRIES + 1):
        lifts = []
        chosen_ints = []
        for s in range(len(gd.generators)):
            cons = []
            for p in primes:
                digits = targets[p][1] + extra + max(1, math.ceil(math.log(msum, p)))
                cons.append(LocalConstraint(p, cs_by_prime[p][s], digits))
            f = squarefree_approximate(cons, 1, avoid=chosen_ints)[0]
            lifts.append(f)
            # track the prime-to-S integer part for pairwise coprimality
            n_part = f
            for p in primes:
                n_part /= Fraction(p) ** v_p(f, p)
            chosen_ints.append(abs(n_part.numerator))
        coords = recombine(pair, gd, lifts)
        point = CoxPoint.make(fan, coords)
        s_prime = set(primes)
        for c in coords:
            if c.denominator > 1:
                s_prime |= set(factorize(c.denominator))
        s_prime = tuple(sorted(s_prime))
        witness, mults = m_point_check(fan, point.coords, pair.conditions.admits_vector,
                                       {}, s_prime)
        closeness = tuple(
            (p, targets[p][1],
             _closeness_valuation(pair, p, coords, targets[p][0].coords))
            for p in primes)
        cert = ApproxCertificate(point, closeness, mults, s_prime, witness)
        if cert.verified():
            return cert
        extra = 2 * extra if extra else 2
    raise RetriesExhausted(
        f"no verified point after {MAX_RETRIES + 1} attempts; last certificate: "
        f"{cert.to_json()}")
