"""PF-field descriptors and the divisibility monoid rho(K, C).

rho(K, C) is the set of n such that every S-unit group in play is n-divisible.
It is multiplicative and generated by primes, so we represent it by its set of
allowed primes plus a derivation note for auditability.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import NamedTuple, Optional

from .intlat import json_typed, json_value
from .points import FactorizationError, factorize, is_prime


class FieldKind(Enum):
    NUMBER_FIELD = "number_field"
    GLOBAL_FUNCTION_FIELD = "global_function_field"
    FUNCTION_FIELD = "function_field"


class BaseClass(Enum):
    SEPARABLY_CLOSED = "separably_closed"
    REAL_CLOSED = "real_closed"
    FINITE = "finite"
    HILBERTIAN_CHAR0 = "hilbertian_char0"
    P_CLOSED = "p_closed"
    HEREDITARILY_EUCLIDEAN = "hereditarily_euclidean"
    OTHER = "other"


class FieldDescriptor(namedtuple("FieldDescriptor", "kind q base char "
                                 "curve_has_real_point closed_primes")):
    """A PF field (K, C): a global field, or the function field of a curve C/k."""

    __slots__ = ()

    def __new__(cls, kind: FieldKind,
                q: Optional[int] = None,  # GLOBAL_FUNCTION_FIELD: constant field size
                base: Optional[BaseClass] = None,  # FUNCTION_FIELD: class of the base field k
                char: Optional[int] = None,  # FUNCTION_FIELD: char(k)
                curve_has_real_point: Optional[bool] = None,  # real closed / her. Euclidean
                closed_primes: Optional[frozenset] = None):  # P_CLOSED: the set of primes
        self = super().__new__(cls, kind, q, base, char, curve_has_real_point, closed_primes)
        if self.kind is FieldKind.GLOBAL_FUNCTION_FIELD:
            try:
                prime_power = self.q is not None and self.q > 1 and len(factorize(self.q)) == 1
            except FactorizationError:  # rho gave up on a piece with two distinct primes
                prime_power = False
            if not prime_power:
                raise ValueError("global function field needs a prime power q")
        elif self.kind is FieldKind.FUNCTION_FIELD:
            if self.base is None or self.char is None:
                raise ValueError("function field needs a base class and characteristic")
            if self.char != 0 and not is_prime(self.char):
                raise ValueError("characteristic must be 0 or prime")
            if self.base in (BaseClass.REAL_CLOSED, BaseClass.HEREDITARILY_EUCLIDEAN):
                if self.char != 0:
                    raise ValueError(f"{self.base.value} base fields have characteristic 0")
            if self.base is BaseClass.P_CLOSED and self.closed_primes is None:
                raise ValueError("p-closed base needs its set of primes")
            if not all(isinstance(p, int) and is_prime(p) for p in self.closed_primes or ()):
                raise ValueError("closed_primes must all be primes")
        return self

    @classmethod
    def number_field(cls) -> "FieldDescriptor":
        return cls(FieldKind.NUMBER_FIELD)

    @classmethod
    def global_function_field(cls, q: int) -> "FieldDescriptor":
        return cls(FieldKind.GLOBAL_FUNCTION_FIELD, q=q)

    @classmethod
    def function_field(cls, base: BaseClass, char: int = 0, *,
                       curve_has_real_point: Optional[bool] = None,
                       closed_primes=None) -> "FieldDescriptor":
        cp = frozenset(closed_primes) if closed_primes is not None else None
        return cls(FieldKind.FUNCTION_FIELD, base=base, char=char,
                   curve_has_real_point=curve_has_real_point, closed_primes=cp)

    def is_global(self) -> bool:
        return self.kind in (FieldKind.NUMBER_FIELD, FieldKind.GLOBAL_FUNCTION_FIELD)

    def characteristic(self) -> int:
        if self.kind is FieldKind.NUMBER_FIELD:
            return 0
        if self.kind is FieldKind.GLOBAL_FUNCTION_FIELD:
            (p,) = factorize(self.q)
            return p
        return self.char


class Allowed(Enum):
    ALL = "all"
    NONE = "none"
    ALL_EXCEPT = "all_except"
    EXACTLY = "exactly"


class RhoSpec(NamedTuple):
    """The monoid rho(K, C), described by its set of allowed prime generators."""

    allowed: Allowed
    primes: tuple = ()  # the excluded prime(s) for ALL_EXCEPT, the list for EXACTLY
    note: str = ""


def rho_contains(spec: RhoSpec, n: int) -> bool:
    """Membership of n >= 1 in rho: every prime factor of n must be allowed.

    Decided from the primes the spec names, which are primes by construction,
    so n is never factored."""
    if n < 1:
        raise ValueError("n must be positive")
    if spec.allowed is Allowed.ALL:
        return True
    if spec.allowed is Allowed.NONE:
        return n == 1
    if spec.allowed is Allowed.ALL_EXCEPT:
        return all(n % p for p in spec.primes)
    for p in spec.primes:
        while n % p == 0:
            n //= p
    return n == 1


def rho_of(fd: FieldDescriptor) -> RhoSpec:
    """The monoid rho(K, C) determined by the field descriptor."""
    if fd.kind is FieldKind.NUMBER_FIELD:
        return RhoSpec(Allowed.NONE, note="global field: S-unit groups are finitely "
                       "generated of positive rank, never n-divisible for n > 1")
    if fd.kind is FieldKind.GLOBAL_FUNCTION_FIELD:
        return RhoSpec(Allowed.NONE, note="global function field: same finite "
                       "generation argument as number fields")
    base = fd.base
    p = fd.char
    if base is BaseClass.SEPARABLY_CLOSED:
        if p == 0:
            return RhoSpec(Allowed.ALL, note="separably closed base of characteristic "
                           "0 is n-closed for every n")
        return RhoSpec(Allowed.ALL_EXCEPT, (p,), note=f"separably closed base is "
                       f"l-closed for every prime l != char = {p}")
    if base is BaseClass.REAL_CLOSED:
        if fd.curve_has_real_point is None:
            raise ValueError("real closed base: set curve_has_real_point")
        if fd.curve_has_real_point:
            return RhoSpec(Allowed.ALL_EXCEPT, (2,), note="real closed base with a "
                           "real point on the curve: odd primes only")
        return RhoSpec(Allowed.ALL, note="real closed base, no real point on the "
                       "curve: all primes")
    if base is BaseClass.P_CLOSED:
        primes = tuple(sorted(q for q in fd.closed_primes if q != p))
        return RhoSpec(Allowed.EXACTLY, primes, note="p-closed base: the closed "
                       "primes different from the characteristic")
    if base is BaseClass.HEREDITARILY_EUCLIDEAN:
        if fd.curve_has_real_point is None:
            raise ValueError("hereditarily Euclidean base: set curve_has_real_point")
        if fd.curve_has_real_point:
            return RhoSpec(Allowed.NONE, note="hereditarily Euclidean base with a "
                           "real point: 2 is excluded; odd primes are not decidable "
                           "from the descriptor, so conservatively none")
        return RhoSpec(Allowed.EXACTLY, (2,), note="hereditarily Euclidean base, "
                       "no real point: 2 is allowed; odd primes are not decidable "
                       "from the descriptor")
    if base in (BaseClass.FINITE, BaseClass.HILBERTIAN_CHAR0, BaseClass.OTHER):
        return RhoSpec(Allowed.NONE, note=f"{base.value} base: no divisibility is "
                       "guaranteed, conservative trivial monoid")
    raise AssertionError(base)


class TriBool(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @classmethod
    def of(cls, b: Optional[bool]) -> "TriBool":
        if b is None:
            return cls.UNKNOWN
        return cls.TRUE if b else cls.FALSE


class FieldFlags(NamedTuple):
    """Finiteness hypotheses consumed by the approximation and thinness theorems."""

    pic_C_finitely_generated: TriBool = TriBool.UNKNOWN
    gm_B_finite: TriBool = TriBool.UNKNOWN
    unit_quotient_finite: TriBool = TriBool.UNKNOWN  # (k*)/(k*)^d finite for all d
    notes: tuple = ()


def default_flags(fd: FieldDescriptor, excluded_place_count: Optional[int] = None,
                  rationals_or_imaginary_quadratic: Optional[bool] = None) -> FieldFlags:
    """Best-known flag preset for a descriptor; unknown where no rule applies."""
    notes = []
    if fd.kind is FieldKind.NUMBER_FIELD:
        pic = TriBool.TRUE
        notes.append("number field: Pic of an open subset of Spec O_K is finite, "
                     "hence finitely generated")
        units = TriBool.TRUE
        if rationals_or_imaginary_quadratic is None:
            gm = TriBool.UNKNOWN
            notes.append("G_m(B) is finite iff K = Q or imaginary quadratic with "
                         "B the full ring of integers; pass the flag to decide")
        else:
            gm = TriBool.of(rationals_or_imaginary_quadratic
                            and (excluded_place_count in (None, 0)))
    elif fd.kind is FieldKind.GLOBAL_FUNCTION_FIELD:
        pic = TriBool.TRUE
        units = TriBool.TRUE
        if excluded_place_count is not None and excluded_place_count <= 1:
            gm = TriBool.TRUE
            notes.append("at most one excluded place: unit group reduces to the "
                         "finite constant field")
        else:
            gm = TriBool.FALSE
            notes.append("two or more excluded places give S-units of positive rank")
    else:
        pic = TriBool.UNKNOWN
        notes.append("Pic(C) finite generation depends on the curve (genus, base "
                     "field); supply the flag explicitly")
        gm = TriBool.UNKNOWN
        if fd.base in (BaseClass.SEPARABLY_CLOSED, BaseClass.REAL_CLOSED,
                       BaseClass.HEREDITARILY_EUCLIDEAN, BaseClass.FINITE):
            units = TriBool.TRUE
            notes.append(f"{fd.base.value} base: (k*)/(k*)^d is finite for all d")
        else:
            units = TriBool.UNKNOWN
    return FieldFlags(pic_C_finitely_generated=pic, gm_B_finite=gm,
                      unit_quotient_finite=units, notes=tuple(notes))


def field_from_json(obj) -> FieldDescriptor:
    """Parse {"kind": "number_field"} | {"kind": "function_field", "base": ..., ...}."""
    kind = FieldKind(json_value(obj, "kind", "a field descriptor"))
    what = f"a {kind.value} descriptor"
    if kind is FieldKind.NUMBER_FIELD:
        return FieldDescriptor.number_field()
    if kind is FieldKind.GLOBAL_FUNCTION_FIELD:
        return FieldDescriptor.global_function_field(json_value(obj, "q", what, int, default=None))
    primes = json_value(obj, "closed_primes", what, list, default=None)
    return FieldDescriptor.function_field(
        BaseClass(json_value(obj, "base", what)), json_value(obj, "char", what, int, default=0),
        curve_has_real_point=json_value(obj, "curve_has_real_point", what, bool, default=None),
        closed_primes=None if primes is None else [json_typed(p, "closed_primes", int)
                                                   for p in primes])
