"""The contract every public record keeps: immutable, equal and equal-hashing
on equal fields, a keyword repr, its defaults and its validation errors."""
from fractions import Fraction

import pytest

from toricapprox.approx import ApproxCertificate, GammaData, LocalConstraint
from toricapprox.conditions import (DivisorCondition, Kind, MultiplicitySet, PairInvariants,
                                    ToricPair, Variant, darmon)
from toricapprox.decide import Holds, Pi1Result, Thinness, ThinnessReport, Verdict
from toricapprox.enumerate import Census, CrosscheckReport
from toricapprox.fan import Fan, RefinementMap, projective_space
from toricapprox.fields import (Allowed, BaseClass, FieldDescriptor, FieldFlags, FieldKind,
                                RhoSpec, TriBool)
from toricapprox.intlat import INF, LatticeBasis, QuotientStructure, SmithDecomposition
from toricapprox.points import CoxPoint, MPointWitness

P1 = projective_space(1)
PAIR = ToricPair(P1, darmon([2, 3]))
QUOT = QuotientStructure((2,), 0)
INV = PairInvariants(2, QUOT, ((2,), (-3,)), True, False, ("note",))
POINT = CoxPoint(P1, (Fraction(1, 2), Fraction(3)))
WITNESS = MPointWitness(False, 2, (1, INF))

# each record type with every field given, in field order
RECORDS = [
    (SmithDecomposition, dict(U=((1,),), S=((2,),), V=((1,),))),
    (LatticeBasis, dict(ambient_dim=2, basis=((1, 0), (0, 2)))),
    (QuotientStructure, dict(invariant_factors=(2, 4), free_rank=1)),
    (Fan, dict(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))),
    (RefinementMap, dict(source=P1, target=P1)),
    (DivisorCondition, dict(kind=Kind.FINITE_SET, m=None, values=(0, 2), allow_infinity=True)),
    (MultiplicitySet, dict(variant=Variant.WEAK_CAMPANA, conditions=None, weak_m=(2, INF),
                           vectors=None)),
    (ToricPair, dict(fan=P1, conditions=darmon([2, INF]))),
    (PairInvariants, dict(index=INF, quotient=QUOT, cone_generators=(), cone_full=False,
                          nm_plus_equals_n=False, notes=("a",))),
    (FieldDescriptor, dict(kind=FieldKind.FUNCTION_FIELD, q=None, base=BaseClass.P_CLOSED,
                           char=3, curve_has_real_point=None, closed_primes=frozenset({2, 5}))),
    (RhoSpec, dict(allowed=Allowed.ALL_EXCEPT, primes=(3,), note="n")),
    (FieldFlags, dict(pic_C_finitely_generated=TriBool.TRUE, gm_B_finite=TriBool.FALSE,
                      unit_quotient_finite=TriBool.UNKNOWN, notes=("x",))),
    (Verdict, dict(property="m_approximation", holds=Holds.NO, reasons=("r",), invariants=INV)),
    (Pi1Result, dict(quotient=QUOT, label="full profinite completion")),
    (ThinnessReport, dict(classification=Thinness.STRICTLY_D_THIN, d_list=(2,),
                          zariski_dense=TriBool.UNKNOWN, reasons=(), invariants=None)),
    (CoxPoint, dict(fan=P1, coords=(Fraction(1, 2), Fraction(0)))),
    (MPointWitness, dict(ok=False, prime=3, vector=(1, 0))),
    (LocalConstraint, dict(p=7, target=Fraction(-2, 3), k=2)),
    (GammaData, dict(generators=((2, 0), (0, 3)), exponents=((-1, 1), (-1, 1)))),
    (ApproxCertificate, dict(point=POINT, closeness=((7, 2, INF),), multiplicities=(),
                             excluded_primes=(7,), witness=WITNESS)),
    (Census, dict(pair=PAIR, height=3, count=1, points=((1, 1),), normalization_note="h")),
    (CrosscheckReport, dict(checked=5, divergences=(((1, 2), True, False),))),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_contract(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, first, fields[first])
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and getattr(a, first) is fields[first]


def test_record_defaults():
    assert DivisorCondition(Kind.ANY) == DivisorCondition(Kind.ANY, None, None, False)
    assert MultiplicitySet(Variant.CUSTOM).vectors is None
    assert FieldDescriptor(FieldKind.NUMBER_FIELD).closed_primes is None
    assert RhoSpec(Allowed.NONE) == RhoSpec(Allowed.NONE, (), "")
    assert FieldFlags() == FieldFlags(TriBool.UNKNOWN, TriBool.UNKNOWN, TriBool.UNKNOWN, ())
    assert PairInvariants(2, QUOT, (), True, False).notes == ()
    assert Verdict("p", Holds.YES, ()).invariants is None
    assert MPointWitness(True) == MPointWitness(True, None, None)
    assert Census(PAIR, 1, 0, points=()).normalization_note.startswith("height")


@pytest.mark.parametrize("build, msg", [
    (lambda: DivisorCondition(Kind.DARMON, 0), "darmon needs m in N* or infinity"),
    (lambda: DivisorCondition(Kind.CAMPANA, -1), "campana needs m in N* or infinity"),
    (lambda: DivisorCondition(Kind.FINITE_SET, values=(1, -2)),
     "FINITE_SET needs a tuple of naturals"),
    (lambda: DivisorCondition(Kind.ANY, 2), "any takes no parameter"),
    (lambda: LocalConstraint(2, Fraction(1), 0), "need at least one digit"),
    (lambda: LocalConstraint(2, Fraction(0), 1), "target must be nonzero"),
    (lambda: FieldDescriptor(FieldKind.GLOBAL_FUNCTION_FIELD, q=6),
     "global function field needs a prime power q"),
    (lambda: FieldDescriptor(FieldKind.FUNCTION_FIELD, base=BaseClass.FINITE, char=4),
     "characteristic must be 0 or prime"),
    (lambda: FieldDescriptor(FieldKind.FUNCTION_FIELD, base=BaseClass.P_CLOSED, char=3),
     "p-closed base needs its set of primes"),
    (lambda: ToricPair(P1, darmon([2, 2, 2])),
     "multiplicity set arity must equal the number of rays"),
])
def test_record_validation_errors(build, msg):
    with pytest.raises(ValueError) as info:
        build()
    assert info.value.args == (msg,)
