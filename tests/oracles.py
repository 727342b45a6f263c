"""Independent exact oracles and test-only fan refinements shared by the test
modules.

The package reads cone coordinates and smoothness off one Smith form per cone
(intlat.cone_inverse); the tests check it against a plain Gauss-Jordan
elimination over the rationals.  It reads a multiplicity vector off a
valuation key (points._multiplicities); the tests check it against the
coprime integer representative on projective space and against a solve on the
minimal containing cone elsewhere.  The censuses decide each magnitude
pattern once; the signed-box oracles walk the whole box [-H, H]^n and decide
every signed tuple, and the character oracle counts the interior orbits as
distinct torus characters, with no multiplicity vector.  crosscheck judges each (divisor, value) once; its oracle
here asks the arithmetic oracle again for every tuple.  The point
construction evaluates integer monomials; the approximation oracles multiply
Fractions character by character.  The package reads a rank off the HNF
(intlat.lattice_from_generators), the sign group of the relation torus off its
definition and the common-face test off one primal LP; the tests check them
against a fraction-free elimination, a Smith-form kernel basis and the dual
separating-functional LP.  It reads N_M and the fullness of its cone off one
generator per primitive direction; the tests check both against every
generator as its own column.  It builds the generators of a pulled-back pair
exactly; the tests check them against a search of every cone-supported
vector with entries up to an unproven bound W, and 2W.
"""
import math
from fractions import Fraction
from itertools import count, product

from toricapprox.approx import ApproxCertificate, LocalConstraint, build_gamma
from toricapprox.conditions import Variant, _phi
from toricapprox.enumerate import CrosscheckReport, _oracle_admits, _sign_group
from toricapprox.fan import Fan, RefinementMap, _cone_inverses, minimal_cone_containing
from toricapprox.intlat import (INF, _lp_feasible, cone_contains, cone_coords,
                                lattice_from_generators, quotient_invariants, right_inverse,
                                snf)
from toricapprox.points import CoxPoint, is_squarefree, m_point_check, v_p


def solve_rational(Arows: list, b: list):
    """Solve A x = b exactly over Q; returns list of Fractions or None if inconsistent.

    A may have more rows than columns (overdetermined); any solution is returned
    only when the system is consistent, and it is unique when A has full column rank.
    """
    m = len(Arows)
    n = len(Arows[0]) if m else 0
    M = [[Fraction(Arows[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [M[i][k] - f * M[r][k] for k in range(n + 1)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = M[i][n]
    return x


def rank(vectors) -> int:
    """Rank of a list of integer vectors, by fraction-free elimination."""
    rows = [list(v) for v in vectors if any(v)]
    r = 0
    while rows:
        piv = rows.pop()
        c = next(j for j, x in enumerate(piv) if x)
        # clear column c from the other rows; it stays clear in later passes
        rows = [[piv[c] * a - row[c] * b for a, b in zip(row, piv)] for row in rows]
        rows = [row for row in rows if any(row)]
        r += 1
    return r


def raw_invariants(gens, d: int) -> tuple:
    """Index, invariant factors, free rank and cone fullness of the vectors
    gens in Z^d, each its own column: one HNF of them all, and the Gordan LP
    cone_contains(gens, -sum(gens)) once they span R^d."""
    lattice = lattice_from_generators(gens, d)
    quot = quotient_invariants(lattice, d)
    full = lattice.rank == d and cone_contains(gens, [-sum(c) for c in zip(*gens)])
    return quot.order(), quot.invariant_factors, quot.free_rank, full


def torus_kernel_basis(fan: Fan) -> list:
    """Integer basis of the exponent vectors k with sum_i k_i n_i = 0: the
    rescalings t_i = s^{k_i} leave the cocharacter sum of valuations unchanged."""
    dec = snf(tuple(zip(*fan.rays)))  # d x n, one column per ray
    vc = tuple(zip(*dec.V))
    return list(vc[len(dec.invariant_factors()):])


def cones_are_faces(fan: Fan, ca, cb) -> bool:
    """Check cone(ca) and cone(cb) intersect in the common face cone(ca & cb).

    Decided by the existence of an exact separating functional u vanishing on
    the shared rays, positive on the rest of ca and negative on the rest of cb.
    """
    shared = sorted(set(ca) & set(cb))
    only_a = [i for i in ca if i not in shared]
    only_b = [i for i in cb if i not in shared]
    if not only_a and not only_b:
        return True  # identical cones
    # variables: u = up - um (2d nonneg), slacks for each strict inequality
    nslack = len(only_a) + len(only_b)
    rows, rhs = [], []

    def urow(ray, sign):
        return [sign * x for x in ray] + [-sign * x for x in ray]

    si = 0
    for i in shared:
        rows.append(urow(fan.rays[i], 1) + [0] * nslack)
        rhs.append(0)
    for i in only_a:  # <u, r> - s = 1
        srow = [0] * nslack
        srow[si] = -1
        si += 1
        rows.append(urow(fan.rays[i], 1) + srow)
        rhs.append(1)
    for i in only_b:  # <u, r> + s = -1
        srow = [0] * nslack
        srow[si] = 1
        si += 1
        rows.append(urow(fan.rays[i], 1) + srow)
        rhs.append(-1)
    return _lp_feasible(rows, rhs)


def phi_v(p: int, P: CoxPoint) -> tuple:
    """The cocharacter sum of valuations: the representative-independent image
    of the multiplicity vector at an interior point."""
    assert not P.zero_support()
    return _phi(P.fan, [v_p(c, p) for c in P.coords])


def two_step_mult(p: int, P: CoxPoint) -> tuple:
    """Interior points: the minimal containing cone, then a Gauss-Jordan solve
    on that face."""
    u = phi_v(p, P)
    cone = minimal_cone_containing(P.fan, u)
    coeffs = solve_rational([[P.fan.rays[i][j] for i in cone] for j in range(P.fan.dim)], u)
    assert all(c.denominator == 1 and c > 0 for c in coeffs)
    out = [0] * len(P.fan.rays)
    for i, c in zip(cone, coeffs):
        out[i] = int(c)
    return tuple(out)


def coprime_rep_mult(p: int, P: CoxPoint) -> tuple:
    """Projective space: INF on the vanishing coordinates, valuations of the
    coprime integer representative elsewhere."""
    den = math.lcm(*[c.denominator for c in P.coords])
    ints = [int(c * den) for c in P.coords]
    g = math.gcd(*ints)
    return tuple(INF if a == 0 else v_p(a // g, p) for a in ints)


def mult_oracle(p: int, P: CoxPoint) -> tuple:
    """The multiplicity vector at p, by the oracle for the point's kind."""
    return (coprime_rep_mult if P.zero_support() else two_step_mult)(p, P)


# ---------------------------------------------------------------------------
# The pullback box search
# ---------------------------------------------------------------------------

def box_bound(ms, coeffs) -> int:
    """W = lcm(finite multiplicities) * (1 + max coefficient), an unproven
    bound on the entries of the admissible vectors that generate N_{f*M}."""
    finite_mults = []
    if ms.variant is Variant.PRODUCT:
        for cond in ms.conditions:
            finite_mults.extend(cond.finite_slice())
    else:
        finite_mults.extend(x for v in ms.vectors for x in v if x not in (0, INF))
    maxc = max((c for row in coeffs for c in row), default=0)
    return math.lcm(*finite_mults) * (1 + maxc)


def box_generators(src: Fan, admits_vec, W: int) -> list:
    """phi of the admissible vectors on each source cone with entries <= W."""
    gens = set()
    for c in src.max_cones:
        for vals in product(range(W + 1), repeat=len(c)):
            if not any(vals):
                continue
            w = [0] * len(src.rays)
            for i, x in zip(c, vals):
                w[i] = x
            if admits_vec(w):
                gens.add(_phi(src, w))
    return sorted(g for g in gens if any(g))


# ---------------------------------------------------------------------------
# Censuses over the whole signed box
# ---------------------------------------------------------------------------

def coprime_box(n: int, H: int):
    """The coprime integer n-tuples of absolute value at most H whose first
    nonzero coordinate is positive, in product order, filtered from the whole
    box [-H, H]^n."""
    for tup in product(range(-H, H + 1), repeat=n):
        if all(x == 0 for x in tup):
            continue
        nz = [x for x in tup if x != 0]
        if nz[0] < 0 or math.gcd(*[abs(x) for x in tup]) != 1:
            continue
        yield tup


def signed_box_projective(pair, H: int) -> tuple:
    """The M-points of the coprime box of height H on P^n, first nonzero
    coordinate positive, in product order: one m_point_check per tuple."""
    fan, admits, verdicts = pair.fan, pair.conditions.admits_vector, {}
    return tuple(tup for tup in coprime_box(len(fan.rays), H)
                 if m_point_check(fan, tup, admits, verdicts)[0].ok)


def crosscheck(pair, H: int) -> CrosscheckReport:
    """enumerate.crosscheck with the arithmetic oracle asked for every
    coordinate of every tuple of the coprime box."""
    fan, admits, verdicts = pair.fan, pair.conditions.admits_vector, {}
    conds = pair.conditions.conditions
    checked = 0
    divergences = []
    for tup in coprime_box(len(fan.rays), H):
        checked += 1
        fan_v = m_point_check(fan, tup, admits, verdicts)[0].ok
        oracle_v = all(_oracle_admits(c, a) for c, a in zip(conds, tup))
        if fan_v != oracle_v:
            divergences.append((tup, fan_v, oracle_v))
    return CrosscheckReport(checked, tuple(divergences))


def signed_box_toric(pair, H: int) -> tuple:
    """The interior census of height H: one m_point_check per all-nonzero
    tuple of the box, and each admissible tuple's orbit representative, the
    least of its multiplicity magnitudes times each sign of the relation
    torus, ascending."""
    fan, admits, verdicts = pair.fan, pair.conditions.admits_vector, {}
    seen = set()
    vals = [*range(-H, 0), *range(1, H + 1)]
    for tup in product(vals, repeat=len(fan.rays)):
        witness, vectors = m_point_check(fan, tup, admits, verdicts)
        if witness.ok:
            mags = [1] * len(tup)
            for p, mv in vectors:
                for i, e in enumerate(mv):
                    mags[i] *= p ** e
            seen.add(min(tuple(m * (1 if a > 0 else -1) * s for m, a, s in zip(mags, tup, g))
                         for g in _sign_group(fan)))
    return tuple(sorted(seen))


def character_orbits(pair, H: int) -> int:
    """The number of orbits in the interior census of height H, read without
    a multiplicity vector: one m_point_check verdict per all-nonzero tuple of
    the box, and the count of distinct torus characters among the admissible
    ones.  (Q*)^n -> T(Q), x -> (prod_i x_i^(n_i[j]))_j, has the relation
    torus as its kernel, so two tuples share an orbit iff their characters
    agree, whatever the rank of the class group."""
    fan, admits, verdicts = pair.fan, pair.conditions.admits_vector, {}
    vals = [*range(-H, 0), *range(1, H + 1)]
    return len({tuple(characters(fan, tup)) for tup in product(vals, repeat=len(fan.rays))
                if m_point_check(fan, tup, admits, verdicts)[0].ok})


# ---------------------------------------------------------------------------
# The point construction in Fractions
# ---------------------------------------------------------------------------

def characters(fan, coords) -> list:
    """a_j = prod_i coord_i^(n_i[j]), the G-invariant coordinates of the torus."""
    out = []
    for j in range(fan.dim):
        a = Fraction(1)
        for c, ray in zip(coords, fan.rays):
            a *= Fraction(c) ** ray[j]
        out.append(a)
    return out


def local_exponents(pair, gd, target) -> list:
    """c_s = prod_j a_j(target)^(rinv[s][j]), for rinv the integer right
    inverse of the matrix whose columns are the phi(m_s)."""
    a = characters(pair.fan, target.coords)
    cs = []
    for row in right_inverse(list(zip(*(_phi(pair.fan, m) for m in gd.generators)))):
        c = Fraction(1)
        for aj, r in zip(a, row):
            c *= aj ** r
        cs.append(c)
    return cs


def recombined(pair, gd, cs) -> tuple:
    """Q_i = prod_s c_s^(m_(s,i))."""
    coords = []
    for i in range(len(pair.fan.rays)):
        q = Fraction(1)
        for c, m in zip(cs, gd.generators):
            q *= c ** m[i]
        coords.append(q)
    return tuple(coords)


def closeness(pair, p, Q_coords, target_coords):
    """min_j v_p(a_j(Q)/a_j(target) - 1), INF on an exact match."""
    aq = characters(pair.fan, Q_coords)
    at = characters(pair.fan, target_coords)
    return min(INF if x == y else v_p(x / y - 1, p) for x, y in zip(aq, at))


def squarefree_lift(constraints, avoid) -> Fraction:
    """The first squarefree lift of the scan, prefactor and residue in
    Fractions, candidates ordered by sorting each pair {r - tM, r + tM}."""
    prefactor = Fraction(1)
    for c in constraints:
        prefactor *= Fraction(c.p) ** v_p(c.target, c.p)
    residues = []
    for c in constraints:
        unit = c.target / prefactor
        mod = c.p ** c.k
        residues.append((unit.numerator * pow(unit.denominator, -1, mod) % mod, mod))
    r, M = 0, 1
    for ri, mi in residues:
        r = (r * mi * pow(mi, -1, M) + ri * M * pow(M, -1, mi)) % (M * mi)
        M *= mi
    taken = math.prod(avoid)
    for t in count():
        for n in sorted({r - t * M, r + t * M} - {0}, key=lambda n: (abs(n), n < 0)):
            if is_squarefree(n) and math.gcd(n, taken) == 1:
                return prefactor * n


def approximate(pair, targets) -> dict:
    """m_point_approximate(pair, targets).to_json() through the Fraction
    oracles, for a nonempty targets dict."""
    fan = pair.fan
    gd = build_gamma(pair)
    primes = tuple(sorted(targets))
    msum = max(sum(m[i] for m in gd.generators) for i in range(len(fan.rays)))
    digits = {p: targets[p][1] + next(g for g in count(1) if p ** g >= msum)
              for p in primes}
    cs = {p: local_exponents(pair, gd, targets[p][0]) for p in primes}
    lifts = []
    for s in range(len(gd.generators)):
        lifts.append(squarefree_lift([LocalConstraint(p, cs[p][s], digits[p]) for p in primes],
                                     [f.numerator for f in lifts]))
    coords = recombined(pair, gd, lifts)
    point = CoxPoint.make(fan, coords)
    witness, mults = m_point_check(fan, point.coords, pair.conditions.admits_vector,
                                   {}, primes)
    close = tuple((p, targets[p][1], closeness(pair, p, coords, targets[p][0].coords))
                  for p in primes)
    return ApproxCertificate(point, close, mults, primes, witness).to_json()


# ---------------------------------------------------------------------------
# Refinements built only by the tests
# ---------------------------------------------------------------------------

def stellar_subdivide(f: Fan, new_ray) -> RefinementMap:
    """Star subdivision of f at a primitive vector inside its support."""
    v = tuple(int(x) for x in new_ray)
    if math.gcd(*v) != 1:
        raise ValueError("new ray must be primitive")
    if v in f.rays:
        raise ValueError("vector is already a ray of the fan")
    coords = [(c, cone_coords(inverse, v))
              for c, inverse in zip(f.max_cones, _cone_inverses(f))]
    hits = [(c, x) for c, x in coords if x is not None]
    if not hits:
        raise ValueError("new ray lies outside the support of the fan")
    rays = list(f.rays) + [v]
    vi = len(f.rays)
    new_cones = [c for c, x in coords if x is None]
    for c, x in hits:
        for i, xi in zip(c, x):
            if xi > 0:
                new_cones.append(tuple(sorted(set(c) - {i} | {vi})))
    source = Fan.make(f.dim, rays, sorted(set(new_cones)))
    return RefinementMap(source, f)


def identity_refinement(f: Fan) -> RefinementMap:
    return RefinementMap(f, f)
