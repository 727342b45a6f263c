"""Multiplicity sets for toric pairs and their lattice/monoid invariants.

A toric pair is a fan together with a set of admissible multiplicity vectors
over the extended naturals.  The decision invariants are the sublattice N_M
generated by the images phi(m) = sum_i m_i * n_rho_i of the finite reduced
admissible vectors, and the cone of the monoid N_M^+.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from enum import Enum
from itertools import product as _iter_product
from typing import NamedTuple, Optional, Sequence

from .fan import Fan, RefinementMap, check_fan, inverse_image_coefficients, is_complete, is_smooth
from .intlat import (
    INF,
    QuotientStructure,
    cone_is_full,
    json_mult,
    json_object,
    json_value,
    lattice_from_generators,
    quotient_invariants,
)


class Kind(Enum):
    ANY = "any"
    INTEGRAL = "integral"
    CAMPANA = "campana"
    DARMON = "darmon"
    STRICT_DARMON = "strict_darmon"
    SQUAREFREE = "squarefree"
    FINITE_SET = "finite_set"


_PARAMETRIC = {Kind.CAMPANA, Kind.DARMON, Kind.STRICT_DARMON}


def _is_natural(x, least: int = 0) -> bool:
    """x is an int (not a bool) of at least least."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= least


class DivisorCondition(namedtuple("DivisorCondition", "kind m values allow_infinity")):
    """Admissible multiplicities at a single boundary divisor."""

    __slots__ = ()

    def __new__(cls, kind: Kind,
                m: Optional[object] = None,  # int >= 1 or INF for the parametric kinds
                values: Optional[tuple] = None,  # FINITE_SET
                allow_infinity: bool = False):  # FINITE_SET
        self = super().__new__(cls, kind, m, values, allow_infinity)
        if self.kind in _PARAMETRIC:
            if self.m != INF and not _is_natural(self.m, 1):
                raise ValueError(f"{self.kind.value} needs m in N* or infinity")
        elif self.kind is Kind.FINITE_SET:
            if self.values is None or not all(map(_is_natural, self.values)):
                raise ValueError("FINITE_SET needs a tuple of naturals")
            if type(self.allow_infinity) is not bool:
                raise ValueError(f"allow_infinity must be true or false, got {self.allow_infinity!r}")
        elif self.m is not None:
            raise ValueError(f"{self.kind.value} takes no parameter")
        return self

    def admits(self, w) -> bool:
        """Membership of w (a natural or infinity) in the admissible set."""
        if w == 0:
            return True  # zero multiplicity is admissible in every kind
        if self.kind is Kind.ANY:
            return True
        if self.kind is Kind.INTEGRAL:
            return False
        if self.kind is Kind.CAMPANA:
            return w == INF or w >= self.m
        if self.kind is Kind.DARMON:
            if w == INF:
                return True
            return self.m != INF and w % self.m == 0
        if self.kind is Kind.STRICT_DARMON:
            return w != INF and self.m != INF and w % self.m == 0
        if self.kind is Kind.SQUAREFREE:
            return w == 1
        if self.kind is Kind.FINITE_SET:
            if w == INF:
                return self.allow_infinity
            return w in self.values
        raise AssertionError(self.kind)

    def finite_slice(self) -> tuple:
        """Nonzero finite multiplicities generating this condition's part of N_M."""
        if self.kind is Kind.ANY:
            return (1,)
        if self.kind is Kind.INTEGRAL:
            return ()
        if self.kind is Kind.CAMPANA:
            return () if self.m == INF else (self.m, self.m + 1)
        if self.kind in (Kind.DARMON, Kind.STRICT_DARMON):
            return () if self.m == INF else (self.m,)
        if self.kind is Kind.SQUAREFREE:
            return (1,)
        if self.kind is Kind.FINITE_SET:
            return tuple(sorted(v for v in self.values if v > 0))
        raise AssertionError(self.kind)

    def finite_part_unbounded(self) -> bool:
        """True iff arbitrarily large finite multiplicities are admissible."""
        if self.kind is Kind.ANY:
            return True
        if self.kind in _PARAMETRIC:
            return self.m != INF
        return False  # INTEGRAL, SQUAREFREE, FINITE_SET are bounded


class Variant(Enum):
    PRODUCT = "product"
    WEAK_CAMPANA = "weak_campana"
    CUSTOM = "custom"


class MultiplicitySet(NamedTuple):
    """Structured description of the admissible multiplicity set."""

    variant: Variant
    conditions: Optional[tuple] = None  # PRODUCT: per-ray DivisorCondition
    weak_m: Optional[tuple] = None  # WEAK_CAMPANA: per-ray m
    vectors: Optional[tuple] = None  # CUSTOM: explicit finite list over N u {INF}

    @classmethod
    def of(cls, conditions: Sequence[DivisorCondition]) -> "MultiplicitySet":
        return cls(Variant.PRODUCT, conditions=tuple(conditions))

    @classmethod
    def weak_campana(cls, m: Sequence) -> "MultiplicitySet":
        if any(x != INF and not _is_natural(x, 1) for x in m):
            raise ValueError("weak_campana needs every m in N* or infinity")
        return cls(Variant.WEAK_CAMPANA, weak_m=tuple(m))

    @classmethod
    def custom(cls, vectors: Sequence[Sequence]) -> "MultiplicitySet":
        vecs = tuple(tuple(v) for v in vectors)
        n = len(vecs[0]) if vecs else 0
        if any(len(v) != n for v in vecs):
            raise ValueError("custom multiplicity vectors must all have the same length")
        if tuple(0 for _ in range(n)) not in vecs:
            raise ValueError("custom multiplicity sets must contain the zero vector")
        for v in vecs:
            bad = [x for x in v if x != INF and not _is_natural(x)]
            if bad:
                raise ValueError(f"custom multiplicities must be naturals or infinity, got {bad[0]!r}")
            proj = tuple(INF if x == INF else 0 for x in v)
            if proj not in vecs:
                raise ValueError(f"custom set not closed under the infinity projection: {v}")
        return cls(Variant.CUSTOM, vectors=vecs)

    def arity(self) -> int:
        if self.variant is Variant.PRODUCT:
            return len(self.conditions)
        if self.variant is Variant.WEAK_CAMPANA:
            return len(self.weak_m)
        return len(self.vectors[0]) if self.vectors else 0

    def single_ray_vectors(self) -> tuple:
        """PRODUCT sets: w e_i for each ray i and each w in its finite slice."""
        n = len(self.conditions)
        return tuple(tuple(w if j == i else 0 for j in range(n))
                     for i, cond in enumerate(self.conditions) for w in cond.finite_slice())

    def admits_vector(self, w: Sequence) -> bool:
        """Membership of a multiplicity vector, ignoring the support condition."""
        if self.variant is Variant.PRODUCT:
            return all(c.admits(x) for c, x in zip(self.conditions, w))
        if self.variant is Variant.WEAK_CAMPANA:
            if all(x == 0 for x in w):
                return True
            if any(x == INF for x in w):
                return True  # infinite tangency satisfies the bound outright
            # coordinates with m = 1 are excluded from the sum; w/inf = 0
            total = sum(Fraction(x, m) for x, m in zip(w, self.weak_m)
                        if m != 1 and m != INF)
            return total >= 1
        return tuple(w) in self.vectors


def campana(m: Sequence) -> MultiplicitySet:
    return MultiplicitySet.of([DivisorCondition(Kind.CAMPANA, mi) for mi in m])


def darmon(m: Sequence) -> MultiplicitySet:
    return MultiplicitySet.of([DivisorCondition(Kind.DARMON, mi) for mi in m])


class ToricPair(namedtuple("ToricPair", "fan conditions")):
    """A fan together with a multiplicity set on its torus-invariant divisors."""

    __slots__ = ()

    def __new__(cls, fan: Fan, conditions: MultiplicitySet):
        check_fan(fan)
        if conditions.arity() != len(fan.rays):
            raise ValueError("multiplicity set arity must equal the number of rays")
        return super().__new__(cls, fan, conditions)


class PairInvariants(NamedTuple):
    """The index and quotient of N_M, and the N_M^+ cone data."""

    index: object  # int >= 1 or INF
    quotient: QuotientStructure
    cone_generators: tuple
    cone_full: bool
    nm_plus_equals_n: bool
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "index": "inf" if self.index == INF else self.index,
            "invariant_factors": list(self.quotient.invariant_factors),
            "free_rank": self.quotient.free_rank,
            "cone_full": self.cone_full,
            "nm_plus_equals_n": self.nm_plus_equals_n,
            "notes": list(self.notes),
        }


def condition_from_json(obj) -> DivisorCondition:
    """Parse one divisor condition, e.g. {"type": "campana", "m": 2}."""
    kind = Kind(json_value(obj, "type", "a condition"))
    what = f"a {kind.value} condition"
    if kind in _PARAMETRIC:
        json_object(obj, kind.value, "type", "m")
        return DivisorCondition(kind, json_mult(json_value(obj, "m", what)))
    if kind is not Kind.FINITE_SET:
        json_object(obj, kind.value, "type")
        return DivisorCondition(kind)
    json_object(obj, kind.value, "type", "values", "allow_infinity")
    return DivisorCondition(kind, values=tuple(json_value(obj, "values", what, list)),
                            allow_infinity=json_value(obj, "allow_infinity", what, default=False))


def conditions_from_json(obj) -> MultiplicitySet:
    """Parse a multiplicity set: a per-ray condition list, or a variant object."""
    if isinstance(obj, list):
        return MultiplicitySet.of([condition_from_json(o) for o in obj])
    variant = json_value(obj, "type", "a multiplicity set") if isinstance(obj, dict) else None
    what = f"a {variant} multiplicity set"
    if variant == "custom":
        vectors = json_value(json_object(obj, variant, "type", "vectors"), "vectors", what, list)
        return MultiplicitySet.custom([[json_mult(x) for x in v] for v in vectors])
    if variant == "weak_campana":
        m = json_value(json_object(obj, variant, "type", "m"), "m", what, list)
        return MultiplicitySet.weak_campana([json_mult(x) for x in m])
    raise ValueError(f"unrecognized multiplicity set: {obj!r}")


def support_is_conical(pair: ToricPair, support) -> bool:
    """True iff the support's rays span a cone of the fan."""
    s = set(support)
    return any(s <= set(c) for c in pair.fan.max_cones)


def _phi(fan: Fan, w) -> tuple:
    return tuple(sum(wi * r[j] for wi, r in zip(w, fan.rays)) for j in range(fan.dim))


def nm_generators(pair: ToricPair):
    """Finite generating sets for the lattice N_M and the cone of N_M^+.

    One list generates both (for WEAK_CAMPANA, the cone's closure); it is
    returned as a (lattice, cone) pair.
    """
    fan = pair.fan
    ms = pair.conditions
    gens = []
    if ms.variant is Variant.PRODUCT:
        # single-ray slices suffice: 0 is admissible at every divisor, so any
        # admissible vector is a sum of admissible single-ray vectors
        gens = [_phi(fan, v) for v in ms.single_ray_vectors()]
    elif ms.variant is Variant.WEAK_CAMPANA:
        n = len(fan.rays)
        gens = _weak_campana_generators(
            fan, ms.weak_m, [[int(a == b) for b in range(n)] for a in range(n)])
    else:
        for v in ms.vectors:
            if all(x != INF for x in v):
                supp = [i for i, x in enumerate(v) if x > 0]
                if support_is_conical(pair, supp):
                    gens.append(_phi(fan, v))
    gens = [g for g in gens if any(g)]
    return gens, list(gens)


def pair_invariants(pair: ToricPair) -> PairInvariants:
    """Decision invariants of a toric pair on a smooth fan."""
    if not is_smooth(pair.fan):
        raise ValueError("fan is singular; compute invariants through nm_singular")
    return _invariants_from_gens(pair, nm_generators(pair)[0])


def _invariants_from_gens(pair: ToricPair, gens, notes=(), known_full=False) -> PairInvariants:
    """N_M from gens, its index read off the quotient, and whether cone(gens)
    is all of N_R: known_full when the caller has shown it, else one LP.  Both
    read one generator per primitive direction v: multiples c_1 v, ..., c_k v
    generate gcd(c) Z v and the ray of v, so the HNF takes gcd(c) v, the LP v."""
    d = pair.fan.dim
    gcds = {}  # primitive direction v -> gcd(c) over the c v in gens
    for g in filter(any, gens):
        c = math.gcd(*g)
        v = tuple(x // c for x in g)
        gcds[v] = math.gcd(gcds.get(v, 0), c)
    lattice = lattice_from_generators([tuple(c * x for x in v) for v, c in gcds.items()], d)
    quot = quotient_invariants(lattice, d)
    index = quot.order()
    full = known_full or cone_is_full(list(gcds), d, lattice.rank)
    notes = tuple(notes)
    if pair.conditions.variant is Variant.CUSTOM:
        notes += (f"custom({len(pair.conditions.vectors)} vectors; the list is treated as "
                  "the definition, infinite tails are not inferred)",)
    return PairInvariants(
        index=index,
        quotient=quot,
        cone_generators=tuple(tuple(g) for g in gens),
        cone_full=full,
        nm_plus_equals_n=(index == 1 and full),
        notes=notes,
    )


def pulled_back_set(ms: MultiplicitySet, coeffs: Sequence[Sequence[int]]):
    """Membership test for the finite vectors of the pullback multiplicity set
    f* M; coeffs[alpha][beta] is the multiplicity of the source divisor beta in
    the inverse image of the target divisor alpha."""
    return lambda w: ms.admits_vector([sum(c * x for c, x in zip(row, w)) for row in coeffs])


def nm_singular(pair: ToricPair, refinement: RefinementMap) -> PairInvariants:
    """Invariants of the pair pulled back along a smooth refinement.

    The generators of N_{f*M} are exact: for WEAK_CAMPANA read from the
    pulled-back weights, for PRODUCT and CUSTOM sets built per source cone by
    _pullback_generators, which holds K rho_beta, K >= 1, for each beta in
    each U_tau.  When the U_tau cover the rays of a complete source fan,
    cone(N_M^+) is N_R and no LP runs.
    """
    fan0 = pair.fan
    src = refinement.source
    if refinement.target != fan0:
        raise ValueError("refinement target must be the pair's fan")
    coeffs = [inverse_image_coefficients(refinement, alpha) for alpha in range(len(fan0.rays))]
    assert all(x >= 0 for row in coeffs for x in row), "negative pullback coefficient"

    ms = pair.conditions
    full = False
    if ms.variant is Variant.WEAK_CAMPANA:
        gens = _weak_campana_generators(src, ms.weak_m, coeffs)
        note = "pullback generators: exact, rays of the source cones the weights reach"
    else:
        gens, covered = _pullback_generators(src, ms, coeffs)
        full = len(covered) == len(src.rays) and is_complete(src)
        note = "pullback generators: exact, a congruence lattice and a proven box per source cone"
    return _invariants_from_gens(pair, gens, notes=(note,), known_full=full)


def _pullback_generators(src: Fan, ms: MultiplicitySet, coeffs) -> tuple:
    """phi of admissible vectors generating N_{f*M} as a lattice and cone(N^+),
    for a PRODUCT or CUSTOM set, and the rays that lie in some U_tau.

    A row alpha is bounded when its finite admissible values are (every CUSTOM
    row; a PRODUCT row unless finite_part_unbounded), t_a the largest.  On a
    source cone tau, B is the rays that some bounded row hits (c_ab > 0), U
    the rest.  As c_ab w_b <= t_a, w_b <= min floor(t_a / c_ab) on B.

    w_B = 0: only unbounded rows see U.  The admissible vectors on U are the
    lattice L_tau cut out by the Darmon congruences, less those below a
    Campana bound.  K e_b and K 1_U + b, for b in a basis of L_tau, are
    admissible (K is a multiple of every Darmon m, and K - max|b| is at least
    every finite Campana m); they generate L_tau and span the orthant.

    w_B != 0: keep the admissible w with w_B in that box and w_U in
    [0, K' + c)^U, for c the largest finite Campana m and K' the least
    multiple of L, the lcm of the Darmon m > 1 on rows hitting U, with
    K' >= max(c, 1).  If w_b >= K' + c for b in U, w - K' e_b is admissible:
    no bounded row sees b, a Darmon total drops by a multiple of its m, and a
    Campana total that sees b stays >= c_ab (w_b - K') >= c.  K' e_b is
    admissible with w_B = 0, so it lies in L_tau and on the ray of K e_b.  So
    an admissible w with w_B != 0 is a kept vector plus nonnegative multiples
    of the K' e_b: the two families generate the lattice and the cone
    exactly, in any dimension.
    """
    if ms.variant is Variant.PRODUCT:
        conds = ms.conditions
        tops = [None if c.finite_part_unbounded() else max(c.finite_slice(), default=0)
                for c in conds]
        camp = max((c.m for c in conds if c.kind is Kind.CAMPANA and c.m != INF), default=0)
        congr = [(row, c.m) for row, c in zip(coeffs, conds)
                 if c.kind in (Kind.DARMON, Kind.STRICT_DARMON) and c.m != INF and c.m > 1]
    else:
        tops = [max((x for x in col if x != INF), default=0) for col in zip(*ms.vectors)]
        camp, congr = 0, []
    bounded = [(row, t) for row, t in zip(coeffs, tops) if t is not None]
    admits = pulled_back_set(ms, coeffs)
    gens, covered = set(), set()
    for tau in src.max_cones:
        caps = {b: [t // row[b] for row, t in bounded if row[b] > 0] for b in tau}
        box = {b: min(c) for b, c in caps.items() if c}
        U = [b for b in tau if b not in box]
        rows = [([row[b] for b in U], m) for row, m in congr if any(row[b] for b in U)]
        L = math.lcm(*[m for _, m in rows])
        if U:
            covered.update(U)
            r = len(rows)
            # w is in L_tau iff (0, w) lies in the lattice spanned by the
            # (C e_beta, e_beta) and (m_alpha e_alpha, 0); the HNF is echelon, so
            # its basis vectors vanishing on the first r coordinates span those
            lift = [tuple(c[k] for c, _ in rows) + tuple(int(j == k) for j in range(len(U)))
                    for k in range(len(U))]
            lift += [tuple(m * int(j == i) for j in range(r)) + (0,) * len(U)
                     for i, (_, m) in enumerate(rows)]
            basis = [v[r:] for v in lattice_from_generators(lift, r + len(U)).basis
                     if not any(v[:r])]
            K = L * (camp + max(abs(x) for v in basis for x in v))
            gens.update(tuple(K * x for x in src.rays[b]) for b in U)
            gens.update(tuple(sum((K + x) * src.rays[b][j] for x, b in zip(v, U))
                              for j in range(src.dim)) for v in basis)
        if any(box.values()):
            K1 = L * -(-max(camp, 1) // L)
            w = [0] * len(src.rays)
            for vals in _iter_product(*[range(box[b] + 1) if b in box else range(K1 + camp)
                                        for b in tau]):
                for b, x in zip(tau, vals):
                    w[b] = x
                if any(w[b] for b in box) and admits(w):
                    gens.add(_phi(src, w))
    return sorted(gens), covered


def _weak_campana_generators(fan: Fan, weak_m, coeffs) -> list:
    """Rays of the cones that admit a nonzero finite vector of the pullback of
    weak_campana(weak_m); coeffs[a][b] is the multiplicity of ray b in the
    inverse image of D_a (the identity for the pair itself).

    A finite w is admissible iff w = 0 or sum_b lam_b w_b >= 1, with lam_b the
    sum of c_ab / m_a over the finite m_a != 1.  A cone with no lam_b > 0
    admits only 0.  On a cone with such a c_ab > 0, m_a e_b + t e_i is
    admissible for every ray i and t >= 0: these span Z^sigma, and their
    cone's closure is the orthant, which holds every admissible vector.  So
    the rays span N_M and the closure of cone(N_M^+), and a convex cone is all
    of N_R iff its closure is.
    """
    reached = {b for row, m in zip(coeffs, weak_m) if m not in (1, INF)
               for b, c in enumerate(row) if c > 0}
    return sorted({fan.rays[i] for c in fan.max_cones if reached & set(c) for i in c})


def mred_in_closure_of_mfin(pair: ToricPair) -> bool:
    """Whether every reduced admissible vector is a limit of finite admissible ones."""
    ms = pair.conditions
    if ms.variant is Variant.PRODUCT:
        return all(c.finite_part_unbounded() for c in ms.conditions
                   if c.admits(INF))
    if ms.variant is Variant.WEAK_CAMPANA:
        # a vector with an infinite entry is approximable iff finite admissible
        # vectors with that entry unbounded exist, i.e. some coordinate has a
        # multiplicity outside {1, inf} to carry the sum past 1
        return any(m != 1 and m != INF for m in ms.weak_m)
    # CUSTOM: in the product of one-point compactifications a vector with an
    # infinite entry is a limit of finite vectors only along an infinite tail,
    # which a literal finite list never contains
    for v in ms.vectors:
        if any(x == INF for x in v):
            supp = [i for i, x in enumerate(v) if x != 0]
            if support_is_conical(pair, supp):
                return False
    return True
