"""Multiplicity sets for toric pairs and their lattice/monoid invariants.

A toric pair is a fan together with a set of admissible multiplicity vectors
over the extended naturals.  The decision invariants are the sublattice N_M
generated by the images phi(m) = sum_i m_i * n_rho_i of the finite reduced
admissible vectors, and the cone of the monoid N_M^+.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from enum import Enum
from itertools import product as _iter_product
from typing import Optional, Sequence

from .fan import Fan, NotPrincipal, RefinementMap, inverse_image_coefficients, is_smooth
from .intlat import (
    INF,
    LatticeBasis,
    QuotientStructure,
    cone_is_full,
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


@dataclass(frozen=True)
class DivisorCondition:
    """Admissible multiplicities at a single boundary divisor."""

    kind: Kind
    m: Optional[object] = None  # int >= 1 or INF for the parametric kinds
    values: Optional[tuple] = None  # FINITE_SET
    allow_infinity: bool = False  # FINITE_SET

    def __post_init__(self):
        if self.kind in _PARAMETRIC:
            if self.m != INF and (not isinstance(self.m, int) or self.m < 1):
                raise ValueError(f"{self.kind.value} needs m in N* or infinity")
        elif self.kind is Kind.FINITE_SET:
            if self.values is None or any(not isinstance(v, int) or v < 0 for v in self.values):
                raise ValueError("FINITE_SET needs a tuple of naturals")
        elif self.m is not None:
            raise ValueError(f"{self.kind.value} takes no parameter")

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

    def admits_infinity(self) -> bool:
        return self.admits(INF)

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


@dataclass(frozen=True)
class MultiplicitySet:
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
        return cls(Variant.WEAK_CAMPANA, weak_m=tuple(m))

    @classmethod
    def custom(cls, vectors: Sequence[Sequence]) -> "MultiplicitySet":
        vecs = tuple(tuple(v) for v in vectors)
        n = len(vecs[0]) if vecs else 0
        if tuple(0 for _ in range(n)) not in vecs:
            raise ValueError("custom multiplicity sets must contain the zero vector")
        for v in vecs:
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

    def describe(self) -> str:
        if self.variant is Variant.PRODUCT:
            parts = []
            for c in self.conditions:
                if c.kind in _PARAMETRIC:
                    parts.append(f"{c.kind.value}({'inf' if c.m == INF else c.m})")
                elif c.kind is Kind.FINITE_SET:
                    parts.append(f"finite_set({list(c.values)}, inf={c.allow_infinity})")
                else:
                    parts.append(c.kind.value)
            return " x ".join(parts)
        if self.variant is Variant.WEAK_CAMPANA:
            return f"weak_campana({list(self.weak_m)})"
        return (f"custom({len(self.vectors)} vectors; the list is treated as the "
                "definition, infinite tails are not inferred)")


def campana(m: Sequence) -> MultiplicitySet:
    return MultiplicitySet.of([DivisorCondition(Kind.CAMPANA, mi) for mi in m])


def darmon(m: Sequence) -> MultiplicitySet:
    return MultiplicitySet.of([DivisorCondition(Kind.DARMON, mi) for mi in m])


@dataclass(frozen=True)
class ToricPair:
    """A fan together with a multiplicity set on its torus-invariant divisors."""

    fan: Fan
    conditions: MultiplicitySet

    def __post_init__(self):
        if self.conditions.arity() != len(self.fan.rays):
            raise ValueError("multiplicity set arity must equal the number of rays")


@dataclass(frozen=True)
class PairInvariants:
    """N_M, its index and quotient, and the N_M^+ cone data."""

    nm_basis: LatticeBasis
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


def _m_from_json(x):
    if x == "inf":
        return INF
    if isinstance(x, int):
        return x
    raise ValueError(f"multiplicity must be an integer or 'inf', got {x!r}")


def condition_from_json(obj: dict) -> DivisorCondition:
    """Parse one divisor condition, e.g. {"type": "campana", "m": 2}."""
    kind = Kind(obj["type"])
    if kind in _PARAMETRIC:
        return DivisorCondition(kind, _m_from_json(obj["m"]))
    if kind is Kind.FINITE_SET:
        return DivisorCondition(kind, values=tuple(obj["values"]),
                                allow_infinity=bool(obj.get("allow_infinity", False)))
    return DivisorCondition(kind)


def conditions_from_json(obj) -> MultiplicitySet:
    """Parse a multiplicity set: a per-ray condition list, or a variant object."""
    if isinstance(obj, list):
        return MultiplicitySet.of([condition_from_json(o) for o in obj])
    if obj.get("type") == "custom":
        return MultiplicitySet.custom(
            [[_m_from_json(x) for x in v] for v in obj["vectors"]])
    if obj.get("type") == "weak_campana":
        return MultiplicitySet.weak_campana([_m_from_json(x) for x in obj["m"]])
    raise ValueError(f"unrecognized multiplicity set: {obj!r}")


def support_is_conical(pair: ToricPair, support) -> bool:
    """True iff the support's rays span a cone of the fan."""
    s = set(support)
    return any(s <= set(c) for c in pair.fan.max_cones)


def _phi(fan: Fan, w) -> tuple:
    return tuple(sum(wi * r[j] for wi, r in zip(w, fan.rays)) for j in range(fan.dim))


def nm_generators(pair: ToricPair):
    """Finite generating sets for the lattice N_M and the cone of N_M^+.

    One list generates both; it is returned as a (lattice, cone) pair.
    """
    fan = pair.fan
    ms = pair.conditions
    gens = []
    if ms.variant is Variant.PRODUCT:
        # single-ray slices suffice: 0 is admissible at every divisor, so any
        # admissible vector is a sum of admissible single-ray vectors
        for i, cond in enumerate(ms.conditions):
            for w in cond.finite_slice():
                vec = [0] * len(fan.rays)
                vec[i] = w
                gens.append(_phi(fan, vec))
    elif ms.variant is Variant.WEAK_CAMPANA:
        bound = max([m + 1 for m in ms.weak_m if m != INF] or [2])
        gens = _enumerate_phi(pair, bound)
    else:
        for v in ms.vectors:
            if all(x != INF for x in v):
                supp = [i for i, x in enumerate(v) if x > 0]
                if support_is_conical(pair, supp):
                    gens.append(_phi(fan, v))
    gens = [g for g in gens if any(g)]
    return gens, list(gens)


def _enumerate_phi(pair: ToricPair, bound: int) -> list:
    """phi of all cone-supported admissible finite vectors with entries <= bound."""
    fan = pair.fan
    out = set()
    seen = set()
    for c in fan.max_cones:
        for vals in _iter_product(range(bound + 1), repeat=len(c)):
            w = [0] * len(fan.rays)
            for i, x in zip(c, vals):
                w[i] = x
            tw = tuple(w)
            if tw in seen:
                continue
            seen.add(tw)
            if any(w) and pair.conditions.admits_vector(w):
                out.add(_phi(fan, w))
    return sorted(out)


def pair_invariants(pair: ToricPair) -> PairInvariants:
    """Decision invariants of a toric pair on a smooth fan."""
    if not is_smooth(pair.fan):
        raise ValueError("fan is singular; compute invariants through nm_singular")
    return _invariants_from_gens(pair, nm_generators(pair)[0])


def _invariants_from_gens(pair: ToricPair, gens, notes=()) -> PairInvariants:
    """N_M from gens, its index read off the quotient, and whether cone(gens)
    is all of N_R."""
    d = pair.fan.dim
    basis = lattice_from_generators(gens, d)
    quot = quotient_invariants(basis, d)
    index = quot.order()
    full = cone_is_full(gens, d)
    notes = tuple(notes)
    if pair.conditions.variant is Variant.CUSTOM:
        notes += (pair.conditions.describe(),)
    return PairInvariants(
        nm_basis=basis,
        index=index,
        quotient=quot,
        cone_generators=tuple(tuple(g) for g in gens),
        cone_full=full,
        nm_plus_equals_n=(index == 1 and full),
        notes=notes,
    )


def pulled_back_set(ms: MultiplicitySet, coeffs: Sequence[Sequence[int]]):
    """Membership test for the pullback multiplicity set f* M.

    coeffs[alpha][beta] is the multiplicity of the source divisor beta in the
    inverse image of the target divisor alpha.
    """
    def admits_vec(wprime):
        img = []
        for row in coeffs:
            tot = 0
            for c, x in zip(row, wprime):
                if c and x == INF:
                    tot = INF
                    break
                tot += c * x
            img.append(tot)
        return ms.admits_vector(img)

    return admits_vec


def nm_singular(pair: ToricPair, refinement: RefinementMap,
                coefficient_override=None) -> PairInvariants:
    """Invariants of the pair pulled back along a smooth refinement.

    Generators of N_{f*M} are found by bounded enumeration of cone-supported
    vectors with entries <= W (W recorded in the notes).
    """
    fan0 = pair.fan
    src = refinement.source
    if refinement.target != fan0:
        raise ValueError("refinement target must be the pair's fan")
    if not is_smooth(src):
        raise ValueError("refinement source must be smooth")
    if coefficient_override is not None:
        coeffs = [tuple(row) for row in coefficient_override]
    else:
        coeffs = []
        for alpha in range(len(fan0.rays)):
            c = inverse_image_coefficients(refinement, alpha)
            if isinstance(c, NotPrincipal):
                raise NotPrincipalError(alpha, c)
            coeffs.append(c)

    ms = pair.conditions
    finite_mults = []
    if ms.variant is Variant.PRODUCT:
        for cond in ms.conditions:
            finite_mults.extend(x for x in cond.finite_slice())
    elif ms.variant is Variant.WEAK_CAMPANA:
        finite_mults.extend(m for m in ms.weak_m if m != INF)
    else:
        finite_mults.extend(x for v in ms.vectors for x in v if x not in (0, INF))
    maxc = max((c for row in coeffs for c in row), default=0)
    W = math.lcm(*[int(x) for x in finite_mults]) * (1 + maxc) if finite_mults else (1 + maxc)

    admits_vec = pulled_back_set(ms, coeffs)
    gens = set()
    for c in src.max_cones:
        for vals in _iter_product(range(W + 1), repeat=len(c)):
            if not any(vals):
                continue
            w = [0] * len(src.rays)
            for i, x in zip(c, vals):
                w[i] = x
            if admits_vec(w):
                gens.add(_phi(src, w))
    gens = sorted(g for g in gens if any(g))
    src_pair = ToricPair(src, _any_set(len(src.rays)))
    return _invariants_from_gens(src_pair, gens,
                                 notes=(f"pullback enumeration bound W={W}",))


def _any_set(n: int) -> MultiplicitySet:
    return MultiplicitySet.of([DivisorCondition(Kind.ANY) for _ in range(n)])


class NotPrincipalError(RuntimeError):
    """Raised when an inverse image divisor cannot be certified principal."""

    def __init__(self, divisor_index: int, detail: NotPrincipal):
        self.divisor_index = divisor_index
        self.detail = detail
        super().__init__(
            f"inverse image of divisor {divisor_index} not certified principal: "
            f"{detail.reason}" + (f" (bound {detail.bound})" if detail.bound else ""))


def mred_in_closure_of_mfin(pair: ToricPair) -> bool:
    """Whether every reduced admissible vector is a limit of finite admissible ones."""
    ms = pair.conditions
    if ms.variant is Variant.PRODUCT:
        return all(c.finite_part_unbounded() for c in ms.conditions
                   if c.admits_infinity())
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
