"""Constructive p-adic approximation by M-points over Q.

Two layers: a squarefree CRT-and-scan lifting routine (the desk realization of
the number-field lifting lemma with distinguished archimedean place), and the
multiplicative recombination that assembles an M-point close to prescribed
local targets when N_M = N.

Every quantity of the construction is a monomial in coordinates with known
integer exponents, so it is evaluated as an integer pair (numerator,
denominator) by _monomial; a Fraction is built only for a value that leaves
the construction (a lift c_s or f_s, a coordinate Q_i).
"""
from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import NamedTuple, Sequence

from .conditions import ToricPair, Variant, _phi
from .fan import require
from .intlat import INF, right_inverse
from .points import (CoxPoint, MPointWitness, ScanCapExhausted, _valuation_rows,
                     is_m_point, is_squarefree, m_point_check, v_p)

DEFAULT_SCAN_CAP = 10 ** 7


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


def _scan_order(r: int, M: int):
    """r, then r - tM and r + tM for t = 1, 2, ...: the candidate of smaller
    |n| first, n > 0 first on a tie, 0 skipped.  With 0 <= r < M, r - tM is
    the smaller unless r = 0, where the two tie."""
    if r:
        yield r
    for t in count(1):
        yield from (r - t * M, r + t * M) if r else (t * M, -t * M)


def squarefree_approximate(constraints: Sequence[LocalConstraint], R: int = 1,
                           avoid: Sequence[int] = ()) -> list:
    """R pairwise coprime squarefree elements of Z[1/S] meeting every constraint.

    Each output is f = (prod_p p^(v_p(target_p))) * n with n a squarefree
    integer congruent to the unit part of every target and prime to every
    integer in avoid.  With r in [0, M) the CRT residue modulo M = prod_p p^k,
    candidates n are scanned in the order r, then r - tM and r + tM for
    t = 1, 2, ... (the one of smaller |n| first, n > 0 first on a tie; 0 is
    skipped), and the first R admissible ones are accepted.  This is not
    smallest |n| first: for 3 mod 5 the scan accepts 3, not -2.
    """
    if R < 1:
        raise ValueError("R must be positive")
    primes = [c.p for c in constraints]
    if len(set(primes)) != len(primes):
        raise ValueError("constraint primes must be distinct")
    pnum = pden = 1  # prefactor = pnum / pden
    for c in constraints:
        v = v_p(c.target, c.p)
        if v > 0:
            pnum *= c.p ** v
        else:
            pden *= c.p ** -v
    residues = []
    for c in constraints:
        # target/prefactor is a p-adic unit: the other constraints' prime
        # powers must be congruent away too, not just the p-part
        un, ud = c.target.numerator * pden, c.target.denominator * pnum
        g = math.gcd(un, ud)
        mod = c.p ** c.k
        residues.append((un // g * pow(ud // g, -1, mod) % mod, mod))
    # the moduli are powers of distinct primes, hence pairwise coprime
    M = math.prod(mod for _, mod in residues)
    r = sum(a * (M // mod) * pow(M // mod, -1, mod) for a, mod in residues) % M

    out = []
    # avoid times every accepted n: one gcd tests coprimality to both
    taken = math.prod(avoid)
    cap = _scan_cap()
    scanned = 0
    for n in _scan_order(r, M):
        if scanned >= cap:
            raise ScanCapExhausted(
                f"no further admissible squarefree value within {cap} candidates "
                f"(residue {r} mod {M}, {len(out)} of {R} found)")
        scanned += 1
        if is_squarefree(n) and math.gcd(n, taken) == 1:
            taken *= n
            out.append(Fraction(pnum * n, pden))
            if len(out) == R:
                return out


class GammaData(NamedTuple):
    """Single-ray generators m_s of the multiplicity set and the exponents of the
    Cox coordinates in each c_s; rinv is an integer right inverse of (phi(m_s))."""

    generators: tuple  # multiplicity vectors, one nonzero entry each
    exponents: tuple  # l x n rows, E = rinv R^T for the ray matrix R_ij = n_i[j]


# kept per pair: it pays off only when one process makes several requests for a pair
@lru_cache(maxsize=256)
def build_gamma(pair: ToricPair) -> GammaData:
    fan = pair.fan
    if pair.conditions.variant is not Variant.PRODUCT:
        raise ValueError("recombination needs per-divisor multiplicities")
    # right_inverse leans on its last columns: with each ray's least weight there, a
    # coordinate tends to be one lift's power, which factors by a root, not by rho
    conds = pair.conditions.conditions
    gens = tuple(sorted(pair.conditions.single_ray_vectors(),
                        key=lambda m: max(m) == conds[m.index(max(m))].finite_slice()[0]))
    cols = [_phi(fan, m) for m in gens]
    gamma = tuple(tuple(c[j] for c in cols) for j in range(fan.dim))
    rinv = right_inverse(gamma)
    if rinv is None:
        raise ValueError("N_M is a proper sublattice of N (index != 1): "
                         "the recombination construction does not apply")
    exponents = tuple(tuple(sum(r * x for r, x in zip(row, ray)) for ray in fan.rays)
                      for row in rinv)
    return GammaData(gens, exponents)


def _monomial(coords, exps) -> tuple:
    """prod_i coords_i^(exps_i) as integers (num, den), den nonzero and the
    pair not necessarily in lowest terms, for nonzero ints or Fractions."""
    num = den = 1
    for c, e in zip(coords, exps):
        if e > 0:
            num *= c.numerator ** e
            den *= c.denominator ** e
        elif e < 0:
            num *= c.denominator ** -e
            den *= c.numerator ** -e
    return num, den


def solve_local_exponents(gd: GammaData, target: CoxPoint) -> list:
    """Rationals c_s with prod_s c_s^(m_s) equal to the target modulo G.

    c_s = prod_j a_j^(rinv[s][j]) for the torus characters
    a_j = prod_i t_i^(R_ij), that is c_s = prod_i t_i^(E[s][i]) with
    E = rinv R^T (gd.exponents): one monomial per s, for a target with
    all-nonzero coordinates."""
    return [Fraction(*_monomial(target.coords, row)) for row in gd.exponents]


def recombine(pair: ToricPair, gd: GammaData, cs: Sequence[Fraction]) -> tuple:
    """Coordinates Q_i = prod_s c_s^(m_(s,i)), each one integer monomial in
    the c_s turned into a Fraction."""
    return tuple(Fraction(*_monomial(cs, [m[i] for m in gd.generators]))
                 for i in range(len(pair.fan.rays)))


def _lift_rows(gd: GammaData, lifts: Sequence[Fraction], coords: Sequence[Fraction]) -> dict:
    """{q: [v_q(Q_i)]_i} from the lifts' factorizations, v_q(Q_i) = sum_s m_s[i] v_q(f_s),
    checked against every coordinate Q_i (not recombine): AssertionError on a mismatch."""
    rows = {}
    for q, v in _valuation_rows(lifts).items():
        row = [sum(e * m[i] for e, m in zip(v, gd.generators)) for i in range(len(coords))]
        if any(row):
            rows[q] = row
    for i, c in enumerate(coords):
        if _monomial(rows, [r[i] for r in rows.values()]) != (abs(c.numerator), c.denominator):
            raise AssertionError(f"the lifts' factorizations do not give coordinate {i} = {c}")
    return rows


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
    exact match.

    a_j(Q)/a_j(target) = prod_i (Q_i/t_i)^(R_ij) = N/D in integers, so the
    term is INF iff N == D, and v_p(N - D) - v_p(D) otherwise."""
    out = INF
    for j in range(pair.fan.dim):
        col = [ray[j] for ray in pair.fan.rays]
        qn, qd = _monomial(Q_coords, col)
        tn, td = _monomial(target_coords, col)
        N, D = qn * td, qd * tn
        if N != D:
            out = min(out, v_p(N - D, p) - v_p(D, p))
    return out


def _guard_digits(p: int, msum: int) -> int:
    """The least g >= 1 with p^g >= msum, which is max(1, ceil(log_p msum))."""
    g = 1
    while p ** g < msum:
        g += 1
    return g


def m_point_approximate(pair: ToricPair, targets: dict) -> ApproxCertificate:
    """An M-point p-adically close to each target, with a recomputed certificate.

    targets maps a prime to (CoxPoint on pair.fan, digits).  Requires a smooth
    complete fan and N_M = N.  One point is built, from one squarefree lift per
    single-ray generator m_s; its certificate reads the coordinates'
    factorizations off the lifts' (_lift_rows).  The construction always verifies:

    * Closeness.  solve_local_exponents gives c_s with a(recombine(c)) =
      a(target) for the torus characters a_j.  The lift of c_s at p is
      f_s = prefactor * n with n = c_s / prefactor mod p^k', so f_s / c_s lies
      in 1 + p^k' Z_p, where k' = digits + guard >= digits + 1.  As a_j is a
      monomial, a_j(Q) / a_j(target) = prod_s (f_s / c_s)^gamma_js, and
      1 + p^k' Z_p is a multiplicative group, so the achieved precision is at
      least k'.
    * Witness.  The integer parts n_s are squarefree, prime to S and pairwise
      coprime (each lift avoids the earlier ones).  A prime q outside S thus
      divides exactly one n_s, to the first power, and the valuation key of
      Q_i = prod_s f_s^(m_s,i) at q is m_s = w e_i with w in the finite slice
      of condition i.  On a smooth fan the cone coordinates of w n_i are
      w e_i, which the condition admits.
    * Excluded primes.  The prefactors are S-units and recombine raises them
      to natural exponents, so each coordinate's denominator is a product of
      target primes, and S' = S.

    A certificate that still fails its check raises AssertionError.
    """
    fan = pair.fan
    require(fan, "approximations", "smooth", "complete")
    if not targets:
        pt = CoxPoint.make(fan, [1] * len(fan.rays))
        w = is_m_point(pair, pt)
        return ApproxCertificate(pt, (), (), (), w)
    primes = tuple(sorted(targets))
    for p in primes:
        if targets[p][0].fan != fan:
            raise ValueError(f"target at p={p} lies on another fan than the pair's")
        if targets[p][0].zero_support():
            raise ValueError(f"target at p={p} has a zero coordinate; "
                             "targets must have all-nonzero coordinates")
        k = targets[p][1]
        if type(k) is not int or k < 1:  # a bool is not an int here
            raise ValueError(f"digits at p={p} must be an integer >= 1, got {k!r}")
    gd = build_gamma(pair)
    # closeness needs no guard digits (see above): they only fix which point
    # is built
    msum = max(sum(m[i] for m in gd.generators) for i in range(len(fan.rays)))
    digits = {p: targets[p][1] + _guard_digits(p, msum) for p in primes}
    cs_by_prime = {p: solve_local_exponents(gd, targets[p][0]) for p in primes}
    lifts = []
    for s in range(len(gd.generators)):
        cons = [LocalConstraint(p, cs_by_prime[p][s], digits[p]) for p in primes]
        # a lift's numerator is its n_s times powers of S primes, and every
        # candidate is prime to S, so the gcd test sees only the n_s
        lifts += squarefree_approximate(cons, 1, avoid=[f.numerator for f in lifts])
    coords = recombine(pair, gd, lifts)
    point = CoxPoint.make(fan, coords)
    witness, mults = m_point_check(fan, point.coords, pair.conditions.admits_vector,
                                   {}, primes, _lift_rows(gd, lifts, point.coords))
    closeness = tuple(
        (p, targets[p][1], _closeness_valuation(pair, p, coords, targets[p][0].coords))
        for p in primes)
    cert = ApproxCertificate(point, closeness, mults, primes, witness)
    if not cert.verified():
        raise AssertionError(f"unverified certificate: {cert.to_json()}")
    return cert
