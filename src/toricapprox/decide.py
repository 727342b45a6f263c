"""Verdicts: M-approximation, strong approximation, thinness, Hilbert property.

Every verdict carries the invariant values it was decided from, so a reader can
recompute the decision.  YES and NO are only emitted where the underlying
statement is an equivalence under the declared field flags; one-directional
criteria surface as SUFFICIENT_ONLY.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .conditions import (
    Kind,
    MultiplicitySet,
    DivisorCondition,
    PairInvariants,
    ToricPair,
    Variant,
    mred_in_closure_of_mfin,
    nm_singular,
    pair_invariants,
)
from .fan import Fan, is_smooth, require, resolve_2d
from .fields import (
    FieldDescriptor,
    FieldFlags,
    FieldKind,
    RhoSpec,
    TriBool,
    default_flags,
    rho_contains,
    rho_of,
)
from .intlat import (
    INF,
    QuotientStructure,
    lattice_from_generators,
    quotient_invariants,
)
from .points import factorize, is_prime


class Holds(Enum):
    YES = "yes"
    NO = "no"
    SUFFICIENT_ONLY = "sufficient_only"
    UNKNOWN = "unknown"

    def affirmative(self) -> bool:
        return self in (Holds.YES, Holds.SUFFICIENT_ONLY)


class Verdict(NamedTuple):
    property: str
    holds: Holds
    reasons: tuple
    invariants: Optional[PairInvariants] = None

    def to_json(self) -> dict:
        inv = None if self.invariants is None else self.invariants.to_json()
        return {"property": self.property, "holds": self.holds.value,
                "reasons": list(self.reasons), "invariants": inv}


# what every verdict assumes of its fan (fan.require)
VERDICT_FAN = ("complete", "smooth or 2-D")


def invariants_of(pair: ToricPair) -> PairInvariants:
    """Pair invariants of a complete fan, routing singular surfaces through
    their minimal resolution."""
    require(pair.fan, "verdicts", *VERDICT_FAN)
    if is_smooth(pair.fan):
        return pair_invariants(pair)
    return nm_singular(pair, resolve_2d(pair.fan))


def _resolve_flags(field: FieldDescriptor, flags: Optional[FieldFlags]) -> FieldFlags:
    return flags if flags is not None else default_flags(field)


def _flag_notes(field: FieldDescriptor, flags: FieldFlags) -> tuple:
    """The flags' notes, which end a verdict a flag leaves undecided; none over a number field."""
    return () if field.kind is FieldKind.NUMBER_FIELD else flags.notes


def decide_m_approx(pair: ToricPair, field: FieldDescriptor, T_nonempty: bool,
                    flags: Optional[FieldFlags] = None) -> Verdict:
    """M-approximation off T (T_nonempty) or everywhere (T empty)."""
    inv = invariants_of(pair)
    if not T_nonempty:
        # unconditional equivalence: approximation at every place iff N_M^+ = N
        if inv.nm_plus_equals_n:
            return Verdict("m_approximation", Holds.YES,
                           ("index |N:N_M| = 1 and cone(N_M^+) is all of N_R, "
                            "so N_M^+ = N",), inv)
        why = []
        if inv.index != 1:
            why.append(f"index |N:N_M| = {inv.index} != 1")
        if not inv.cone_full:
            why.append("cone(N_M^+) is a proper subcone of N_R")
        return Verdict("m_approximation", Holds.NO,
                       tuple(why) + ("N_M^+ = N fails, an unconditional obstruction "
                                     "at the full place set",), inv)

    flags = _resolve_flags(field, flags)
    rho = rho_of(field)
    criterion = inv.index != INF and rho_contains(rho, inv.index)
    pic = flags.pic_C_finitely_generated
    if criterion:
        reason = (f"index |N:N_M| = {inv.index} lies in rho(K,C) ({rho.note})",)
        if pic is TriBool.TRUE:
            return Verdict("m_approximation", Holds.YES, reason, inv)
        return Verdict("m_approximation", Holds.SUFFICIENT_ONLY,
                       reason + ("Pic(C) finite generation not established: the "
                                 "criterion is sufficient, equivalence unverified",)
                       + _flag_notes(field, flags), inv)
    idx = "infinite" if inv.index == INF else str(inv.index)
    reason = (f"index |N:N_M| = {idx} does not lie in rho(K,C) ({rho.note})",)
    if pic is TriBool.TRUE:
        return Verdict("m_approximation", Holds.NO, reason, inv)
    return Verdict("m_approximation", Holds.UNKNOWN,
                   reason + ("necessity needs Pic(C) finitely generated, which is "
                             "not established",) + _flag_notes(field, flags), inv)


def integral_any_pair(fan: Fan, removed: Sequence[int]) -> ToricPair:
    """The pair whose M-points are integral points of the complement of the
    removed divisors: INTEGRAL there, no condition elsewhere."""
    removed = set(removed)
    if any(not 0 <= i < len(fan.rays) for i in removed):
        raise ValueError(f"removed divisors must lie in 0..{len(fan.rays) - 1}: {sorted(removed)}")
    conds = [DivisorCondition(Kind.INTEGRAL) if i in removed
             else DivisorCondition(Kind.ANY) for i in range(len(fan.rays))]
    return ToricPair(fan, MultiplicitySet.of(conds))


def decide_strong_approx(fan: Fan, removed_divisors: Sequence[int],
                         field: FieldDescriptor, T_nonempty: bool,
                         flags: Optional[FieldFlags] = None) -> Verdict:
    """Strong approximation for the complement of a set of invariant divisors."""
    pair = integral_any_pair(fan, removed_divisors)
    inner = decide_m_approx(pair, field, T_nonempty, flags)
    inv = inner.invariants
    remarks = []
    q = inv.quotient
    if q.free_rank == 0:
        order = q.order()
        if field.characteristic() == 0:
            remarks.append(f"the geometric etale fundamental group is finite of "
                           f"order {order}, with invariant factors "
                           f"{list(q.invariant_factors)}")
        remarks.append(f"equivalently the torsion subgroup of Pic(V) has invariant "
                       f"factors {list(q.invariant_factors)}")
    else:
        remarks.append("N/N_M has positive rank: pi_1 is infinite and Pic(V) has "
                       "positive corank obstructions")
    if field.kind is FieldKind.NUMBER_FIELD and inner.holds is Holds.YES:
        remarks.append("over a number field this matches the vanishing of "
                       "Br(V)/Br_0(V) together with O(V) = K")
    return Verdict("strong_approximation", inner.holds,
                   inner.reasons + tuple(remarks), inv)


class Pi1Result(NamedTuple):
    quotient: QuotientStructure
    label: str


def pi1_root_stack(pair: ToricPair, char: int = 0) -> Pi1Result:
    """Fundamental group of the root stack: the profinite completion of N/N_M,
    with the p-parts removed in characteristic p."""
    fan = pair.fan
    if char != 0 and not is_prime(char):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")
    require(fan, "root stack fundamental groups", "smooth")
    ms = pair.conditions
    if ms.variant is not Variant.PRODUCT:
        raise ValueError("requires per-divisor Campana or Darmon multiplicities")
    gens = []
    for i, cond in enumerate(ms.conditions):
        if cond.kind in (Kind.CAMPANA, Kind.DARMON, Kind.STRICT_DARMON):
            m = cond.m
        elif cond.kind in (Kind.ANY, Kind.SQUAREFREE):
            m = 1
        else:
            raise ValueError(f"unsupported condition for a root stack: {cond.kind.value}")
        if m == INF:
            continue  # infinite multiplicity contributes no generator
        gens.append(tuple(m * x for x in fan.rays[i]))
    basis = lattice_from_generators(gens, fan.dim)
    quot = quotient_invariants(basis, fan.dim)
    if char > 0:
        stripped = []
        for f in quot.invariant_factors:
            while f % char == 0:
                f //= char
            if f > 1:
                stripped.append(f)
        quot = QuotientStructure(tuple(stripped), quot.free_rank)
        return Pi1Result(quot, f"prime-to-{char} quotient")
    return Pi1Result(quot, "full profinite completion")


def decide_integral_m_approx(pair: ToricPair, field: FieldDescriptor,
                             T_nonempty: bool,
                             flags: Optional[FieldFlags] = None) -> Verdict:
    """Integral M-approximation: M-approximation plus density of the finite
    admissible vectors in the reduced ones."""
    base = decide_m_approx(pair, field, T_nonempty, flags)
    if not base.holds.affirmative():
        return Verdict("integral_m_approximation", base.holds,
                       base.reasons + ("inherited from the M-approximation verdict",),
                       base.invariants)
    if mred_in_closure_of_mfin(pair):
        return Verdict("integral_m_approximation", base.holds,
                       base.reasons + ("every reduced admissible vector is a limit "
                                       "of finite admissible vectors",),
                       base.invariants)
    return Verdict("integral_m_approximation", Holds.NO,
                   ("some reduced admissible vector is not a limit of finite "
                    "admissible vectors",), base.invariants)


class Thinness(Enum):
    STRICTLY_D_THIN = "strictly_d_thin"
    STABLY_THIN = "stably_thin"
    NOT_THIN = "not_thin"
    UNKNOWN = "unknown"


class ThinnessReport(NamedTuple):
    classification: Thinness
    d_list: tuple  # divisors > 1 of the index when finite
    zariski_dense: TriBool
    reasons: tuple
    invariants: PairInvariants  # what the classification was decided from

    def to_json(self) -> dict:
        return {"classification": self.classification.value,
                "d_list": list(self.d_list),
                "zariski_dense": self.zariski_dense.value,
                "reasons": list(self.reasons),
                "invariants": self.invariants.to_json()}


def _divisors_gt1(n: int) -> tuple:
    divisors = [1]
    for p, e in factorize(n).items():
        divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    return tuple(sorted(divisors)[1:])


def classify_thinness(pair: ToricPair, field: FieldDescriptor,
                      flags: Optional[FieldFlags] = None,
                      B_equals_C: bool = False, T_nonempty: bool = True) -> ThinnessReport:
    """Thinness of the set of M-points, and its Zariski density."""
    flags = _resolve_flags(field, flags)
    inv = invariants_of(pair)
    reasons = []
    cls = Thinness.UNKNOWN
    d_list = ()

    if inv.index == INF:
        cls = Thinness.STABLY_THIN
        reasons.append("N_M has infinite index in N")
    elif B_equals_C and not field.is_global() and not inv.cone_full:
        cls = Thinness.STABLY_THIN
        reasons.append("B = C and N_M^+ is a proper submonoid of N_M: every "
                       "M-point of the toric model factors through a subtorus coset")
    elif field.is_global() and inv.index == 1 and T_nonempty:
        cls = Thinness.NOT_THIN
        reasons.append("global field with |N:N_M| = 1: M-approximation off T "
                       "holds, hence the M-Hilbert property")
    elif inv.index > 1:
        pic = flags.pic_C_finitely_generated
        units = flags.unit_quotient_finite
        if field.is_global() or units is TriBool.TRUE:
            if pic is TriBool.TRUE or field.is_global():
                d_list = _divisors_gt1(inv.index)
                cls = Thinness.STRICTLY_D_THIN
                reasons.append(f"finite index {inv.index} with unit quotients "
                               f"finite: strictly d-thin for d in {list(d_list)}")
            else:
                reasons.append("Pic(C) finite generation unknown")
        else:
            reasons.append("(k^x)/(k^x)^d finiteness unknown for the base field")
    else:
        reasons.append("index 1 but no applicable clause (T empty or flags missing)")

    gm = flags.gm_B_finite
    if cls is Thinness.NOT_THIN:
        dense = TriBool.TRUE
    elif gm is TriBool.FALSE:
        dense = TriBool.TRUE
        reasons.append("G_m(B) is infinite, so the M-points are Zariski dense "
                       "regardless of thinness")
    elif gm is TriBool.TRUE:
        if cls is Thinness.STABLY_THIN:
            dense = TriBool.FALSE
        elif cls is Thinness.UNKNOWN:
            dense = TriBool.UNKNOWN
        else:
            dense = TriBool.TRUE
        reasons.append("G_m(B) is finite: for the toric model, failure of Zariski "
                       "density is equivalent to stable thinness")
    else:
        dense = TriBool.UNKNOWN
    if cls is Thinness.UNKNOWN or dense is TriBool.UNKNOWN:
        reasons += _flag_notes(field, flags)
    return ThinnessReport(cls, d_list, dense, tuple(reasons), inv)


def darmon_projective_closed_form(n: int, m: Sequence, rho: RhoSpec,
                                  T_nonempty: bool) -> Verdict:
    """M-approximation for Darmon conditions on projective (n-1)-space, decided
    from the pairwise gcd criterion."""
    if len(m) != n:
        raise ValueError("need one multiplicity per coordinate hyperplane")
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            # infinite entries drop out; the gcd of none is 0
            g = math.gcd(*(x for x in (m[i], m[j]) if x != INF))
            if g == 0 or not rho_contains(rho, g):
                bad.append((i, j, g))
    if T_nonempty:
        if not bad:
            return Verdict("m_approximation_closed_form", Holds.YES,
                           ("all pairwise gcd(m_i, m_j) lie in rho(K,C)",))
        i, j, g = bad[0]
        desc = str(g) if g else "0 (two infinite multiplicities)"
        return Verdict("m_approximation_closed_form", Holds.NO,
                       (f"gcd(m_{i}, m_{j}) = {desc} is not in rho(K,C)",))
    infinite = [i for i, x in enumerate(m) if x == INF]
    if not bad and not infinite:
        return Verdict("m_approximation_closed_form", Holds.YES,
                       ("all multiplicities finite and all pairwise gcds in rho",))
    why = []
    if bad:
        i, j, g = bad[0]
        why.append(f"gcd(m_{i}, m_{j}) = {g} fails the rho condition")
    if infinite:
        why.append(f"m_{infinite[0]} is infinite, excluded at the full place set")
    return Verdict("m_approximation_closed_form", Holds.NO, tuple(why))
