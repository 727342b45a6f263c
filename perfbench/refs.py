"""Independent reference checks for the benchmark's outputs.

Every expected value here is recomputed from first principles (integer
arithmetic, closed forms from the acceptance criteria, coordinatewise oracles
on projective space).  Nothing in this module imports the package under test.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

INF = "inf"  # multiplicity sentinel in the benchmark's plain-data inputs

# Ray lists of the fans the workloads use, in the package's documented order
# (P^n: e_1..e_n then -(e_1+..+e_n); products: the first factor's rays first).
RAYS = {
    "p1": [(1,), (-1,)],
    "p2": [(1, 0), (0, 1), (-1, -1)],
    "p3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    "p1xp1": [(1, 0), (-1, 0), (0, 1), (0, -1)],
}
# coordinate blocks that scale independently (one block per projective factor)
BLOCKS = {"p1": [(0, 1)], "p2": [(0, 1, 2)], "p3": [(0, 1, 2, 3)],
          "p1xp1": [(0, 1), (2, 3)]}


# ---------------------------------------------------------------------------
# small-integer arithmetic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def factor_small(n: int) -> tuple:
    """Prime factorization of |n| >= 1 by trial division, as ((p, e), ...)."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def radical(n: int) -> int:
    return math.prod(p for p, _ in factor_small(n))


def divisors_gt1(n: int) -> list:
    divs = [1]
    for p, e in factor_small(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(d for d in divs if d > 1)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24 with these bases."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
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


def vp(x, p: int) -> int:
    """p-adic valuation of a nonzero integer or Fraction."""
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# coordinatewise conditions on projective space
# ---------------------------------------------------------------------------

def admits(kind: str, m, v) -> bool:
    """Whether multiplicity v (an int or INF) is admissible for one divisor."""
    if v == 0:
        return True
    if kind == "campana":
        return v == INF or (m != INF and v >= m)
    if kind == "darmon":
        return v == INF or (m != INF and v % m == 0)
    if kind == "squarefree":
        return v == 1
    raise ValueError(kind)


def coord_ok(kind: str, m, a: int) -> bool:
    """Coordinate a of a coprime integer point satisfies the condition at every prime."""
    if a == 0:
        return admits(kind, m, INF)
    return all(admits(kind, m, e) for _, e in factor_small(a))


def canonical_box(n: int, H: int):
    """Coprime integer tuples in [-H, H]^n, first nonzero entry positive."""
    for tup in itertools.product(range(-H, H + 1), repeat=n):
        nz = [x for x in tup if x]
        if not nz or nz[0] < 0 or math.gcd(*tup) != 1:
            continue
        yield tup


def projective_points(conds, H: int) -> tuple:
    """(box tuples examined, sorted M-points) of the projective census."""
    count, pts = 0, []
    for tup in canonical_box(len(conds), H):
        count += 1
        if all(coord_ok(k, m, a) for (k, m), a in zip(conds, tup)):
            pts.append(tup)
    return count, tuple(sorted(pts))


def p1_interior(conds, H: int) -> set:
    """P^1 interior census: coprime nonzero pairs up to sign, as the
    lexicographically smaller of (a, b) and (-a, -b)."""
    out = set()
    for a in range(1, H + 1):
        for b in range(-H, H + 1):
            if b and math.gcd(a, b) == 1 and all(
                    coord_ok(k, m, x) for (k, m), x in zip(conds, (a, b))):
                out.add(min((a, b), (-a, -b)))
    return out


def toric_points(fan: str, conds, H: int) -> tuple:
    """Interior census of P^1 or P^1 x P^1 (the product law)."""
    if fan == "p1":
        return tuple(sorted(p1_interior(conds, H)))
    left, right = p1_interior(conds[:2], H), p1_interior(conds[2:], H)
    return tuple(sorted(x + y for x in left for y in right))


# ---------------------------------------------------------------------------
# verdict closed forms (the acceptance criteria)
# ---------------------------------------------------------------------------

def _gcd_ext(a, b) -> int:
    fin = [x for x in (a, b) if x != INF]
    return math.gcd(*fin) if fin else 0


def pn_darmon_index(m) -> int:
    """|N : N_M| for finite Darmon multiplicities on P^n: gcd of the products
    of all multiplicities but one."""
    return math.gcd(*[math.prod(m[:i] + m[i + 1:]) for i in range(len(m))])


def hirzebruch_g(r: int, m) -> int:
    m1, m2, m3, m4 = m
    return math.gcd(m1 * m2, m1 * m4, m2 * m3, m3 * m4, r * m1 * m3)


def expected_verdicts(family: str, params: dict) -> dict:
    """Expected M-approximation verdicts (T nonempty, T empty) and, where a
    closed form pins it, a predicate on the index."""
    m = params["m"]
    if family == "pn":
        off_t = all(_gcd_ext(a, b) == 1 for a, b in itertools.combinations(m, 2))
        return {"t": off_t, "empty": off_t and INF not in m, "index": None}
    if family == "hirzebruch":
        g = hirzebruch_g(params["r"], m)
        return {"t": g == 1, "empty": g == 1,
                "index": lambda idx: idx != INF and radical(idx) == radical(g)}
    if family == "p11r":
        r = params["r"]
        ok = math.gcd(m[0], m[1]) == 1 and math.gcd(m[0] * m[1], m[2], r - 1) == 1
        return {"t": ok, "empty": ok, "index": lambda idx: (idx == 1) == ok}
    if family == "campana":
        return {"t": True, "empty": True, "index": lambda idx: idx == 1}
    raise ValueError(family)


def check_verdicts(family: str, params: dict, out: dict) -> list:
    """Mismatches between one decided pair and the closed forms."""
    want = expected_verdicts(family, params)
    bad = []
    if (out["t"] == "yes") != want["t"]:
        bad.append(f"T-nonempty verdict {out['t']}")
    if (out["empty"] == "yes") != want["empty"]:
        bad.append(f"T-empty verdict {out['empty']}")
    if want["index"] is not None and not want["index"](out["index"]):
        bad.append(f"index {out['index']}")
    # thinness <=> approximation off T over a global field
    if (out["thin"] == "not_thin") != (out["t"] == "yes"):
        bad.append(f"thinness {out['thin']} against verdict {out['t']}")
    return bad


# ---------------------------------------------------------------------------
# approximation certificates
# ---------------------------------------------------------------------------

def _characters(rays, coords) -> list:
    return [math.prod((c ** r[j] for c, r in zip(coords, rays)), start=Fraction(1))
            for j in range(len(rays[0]))]


def _closeness(rays, p, point, target):
    """min_j v_p(a_j(point) / a_j(target) - 1) over the torus characters."""
    worst = math.inf
    for x, y in zip(_characters(rays, point), _characters(rays, target)):
        d = x / y - 1
        if d:
            worst = min(worst, vp(d, p))
    return worst


def check_certificate(fan: str, conds, targets: dict, cert: dict) -> list:
    """Re-verify an approximation certificate coordinatewise.

    targets maps a prime to (target coordinates, digits); cert is the JSON
    form of the package's certificate.
    """
    rays = RAYS[fan]
    bad = []
    coords = [Fraction(c) for c in cert["point"]["coords"]]
    if len(coords) != len(rays) or any(c == 0 for c in coords):
        return [f"malformed point {cert['point']}"]
    for p, (target, digits) in targets.items():
        got = _closeness(rays, p, coords, [Fraction(t) for t in target])
        if got < digits:
            bad.append(f"closeness at {p}: {got} < {digits} digits")
    excluded = set(cert["excluded_primes"])
    if not set(targets) <= excluded:
        bad.append("target primes missing from the excluded set")
    for q in excluded - set(targets):
        if not any(c.denominator % q == 0 for c in coords):
            bad.append(f"excluded prime {q} divides no denominator")
    listed = {}
    for entry in cert["multiplicities"]:
        listed[entry["p"]] = tuple(INF if x == "inf" else int(x) for x in entry["vector"])
    for q in listed:
        if not is_probable_prime(q):
            bad.append(f"listed prime {q} is composite")
    for block in BLOCKS[fan]:
        vals = [coords[i] for i in block]
        den = math.lcm(*[v.denominator for v in vals])
        ints = [int(v * den) for v in vals]
        g = math.gcd(*ints)
        ints = [a // g for a in ints]
        for a in ints:
            rest = abs(a)
            for q in list(listed) + sorted(excluded):
                while rest % q == 0:
                    rest //= q
            if rest != 1:
                bad.append(f"coordinate {a} has a prime factor the certificate omits")
        for q, vec in listed.items():
            if q in excluded:
                continue
            want = tuple(vp(a, q) for a in ints)
            have = tuple(vec[i] for i in block)
            if want != have:
                bad.append(f"multiplicities at {q}: {have} != {want}")
            for i, v in zip(block, want):
                kind, m = conds[i]
                if not admits(kind, m, v):
                    bad.append(f"multiplicity {v} at {q} not admissible for {kind}({m})")
    if not cert.get("verified", False):
        bad.append("certificate not flagged verified")
    return bad
