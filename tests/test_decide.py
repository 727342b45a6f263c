import itertools
import math
import re

import pytest

from toricapprox.conditions import (
    DivisorCondition,
    Kind,
    MultiplicitySet,
    ToricPair,
    campana,
    darmon,
)
from toricapprox.decide import (
    Holds,
    Thinness,
    classify_thinness,
    darmon_projective_closed_form,
    decide_integral_m_approx,
    decide_m_approx,
    decide_strong_approx,
    integral_any_pair,
    invariants_of,
    pi1_root_stack,
)
from toricapprox.fan import Fan, hirzebruch, is_complete, projective_space, weighted_P11r
from toricapprox.fields import (
    BaseClass,
    FieldDescriptor,
    FieldFlags,
    TriBool,
    default_flags,
    rho_contains,
    rho_of,
)
from toricapprox.intlat import INF

Q = FieldDescriptor.number_field()
P1 = projective_space(1)
P2 = projective_space(2)


def test_m_approx_examples():
    assert decide_m_approx(ToricPair(P2, darmon([2, 3, 5])), Q, True).holds is Holds.YES
    assert decide_m_approx(ToricPair(P2, darmon([2, 4, 3])), Q, True).holds is Holds.NO
    assert decide_m_approx(ToricPair(P1, campana([2, 3])), Q, False).holds is Holds.YES


def test_m_approx_sufficient_only_without_pic():
    sc = FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, 0)
    v = decide_m_approx(ToricPair(P2, darmon([2, 2, 2])), sc, True)
    assert v.holds is Holds.SUFFICIENT_ONLY
    flags = FieldFlags(pic_C_finitely_generated=TriBool.TRUE)
    v = decide_m_approx(ToricPair(P2, darmon([2, 2, 2])), sc, True, flags=flags)
    assert v.holds is Holds.YES


def test_m_approx_unknown_when_criterion_fails_without_pic():
    other = FieldDescriptor.function_field(BaseClass.OTHER, 0)
    v = decide_m_approx(ToricPair(P1, darmon([2, 2])), other, True)
    assert v.holds is Holds.UNKNOWN


def test_strong_approx_affine_space():
    # A^2 in P^2: remove the (-1,-1) hyperplane
    i = P2.rays.index((-1, -1))
    assert decide_strong_approx(P2, [i], Q, True).holds is Holds.YES
    assert decide_strong_approx(P2, [i], Q, False).holds is Holds.NO
    # torus in P1
    assert decide_strong_approx(P1, [0, 1], Q, True).holds is Holds.NO


def test_strong_approx_remarks_mention_pi1_and_pic():
    i = P2.rays.index((-1, -1))
    v = decide_strong_approx(P2, [i], Q, True)
    text = " ".join(v.reasons)
    assert "fundamental group" in text
    assert "Pic" in text
    assert "Br" in text


def test_pi1_anchors():
    assert pi1_root_stack(ToricPair(P1, darmon([2, 2]))).quotient.invariant_factors == (2,)
    assert pi1_root_stack(ToricPair(P2, darmon([2, 2, 2]))).quotient.invariant_factors == (2, 2)
    assert pi1_root_stack(ToricPair(P1, darmon([2, 3]))).quotient.is_trivial


def test_pi1_char_p_strips_p_parts():
    res = pi1_root_stack(ToricPair(P2, darmon([6, 6, 6])), char=3)
    assert res.quotient.invariant_factors == (2, 2)
    assert "prime-to-3" in res.label


def test_pi1_rejects_singular_fan():
    with pytest.raises(ValueError, match="smooth"):
        pi1_root_stack(ToricPair(weighted_P11r(2), darmon([2, 2, 2])))


def test_integral_m_approx():
    sc = FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, 0)
    flags = FieldFlags(pic_C_finitely_generated=TriBool.TRUE)
    v = decide_integral_m_approx(ToricPair(P1, darmon([2, 2])), sc, True, flags=flags)
    assert v.holds is Holds.YES
    ms = MultiplicitySet.of([DivisorCondition(Kind.FINITE_SET, values=(0, 2),
                                              allow_infinity=True)] * 2)
    v = decide_integral_m_approx(ToricPair(P1, ms), sc, True, flags=flags)
    assert v.holds is Holds.NO
    v = decide_integral_m_approx(ToricPair(P2, campana([2, 2, 2])), Q, True)
    assert v.holds is Holds.YES


def test_thinness_examples():
    rep = classify_thinness(ToricPair(P1, darmon([2, 2])), Q)
    assert rep.classification is Thinness.STRICTLY_D_THIN
    assert rep.d_list == (2,)
    flags = default_flags(Q, 0, rationals_or_imaginary_quadratic=True)
    rep = classify_thinness(integral_any_pair(P1, [0, 1]), Q, flags=flags)
    assert rep.classification is Thinness.STABLY_THIN
    assert rep.zariski_dense is TriBool.FALSE
    rep = classify_thinness(ToricPair(P2, campana([2, 2, 2])), Q)
    assert rep.classification is Thinness.NOT_THIN
    assert rep.zariski_dense is TriBool.TRUE


def test_thinness_function_field_proper_model():
    sc = FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, 0)
    pair = integral_any_pair(P1, [0])  # cone not full
    rep = classify_thinness(pair, sc, B_equals_C=True)
    assert rep.classification is Thinness.STABLY_THIN


def test_thinness_unknown_base():
    other = FieldDescriptor.function_field(BaseClass.OTHER, 0)
    rep = classify_thinness(ToricPair(P1, darmon([2, 2])), other)
    assert rep.classification is Thinness.UNKNOWN


def test_a_verdict_a_flag_leaves_undecided_ends_with_the_flags_notes():
    sc = FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, 0)
    other = FieldDescriptor.function_field(BaseClass.OTHER, 0)
    gff = FieldDescriptor.global_function_field(4)
    undecided = [
        (decide_m_approx(ToricPair(P2, darmon([2, 2, 2])), sc, True), sc),  # SUFFICIENT_ONLY
        (decide_m_approx(ToricPair(P1, darmon([2, 2])), other, True), other),  # UNKNOWN
        (classify_thinness(ToricPair(P1, darmon([2, 2])), other), other),  # both unknown
        (classify_thinness(ToricPair(P2, darmon([2, 2, 2])), gff), gff),  # G_m(B) unknown
    ]
    for verdict, field in undecided:
        notes = default_flags(field).notes
        assert notes and verdict.reasons[-len(notes):] == notes
        assert verdict.reasons[:-len(notes)] and not set(verdict.reasons[:-len(notes)]) & set(notes)
    # every flag known: the reasons carry no note
    known = FieldFlags(TriBool.TRUE, TriBool.TRUE, TriBool.TRUE, notes=("a note",))
    assert decide_m_approx(ToricPair(P2, darmon([2, 2, 2])), sc, True, known).holds is Holds.YES
    rep = classify_thinness(ToricPair(P1, darmon([2, 2])), sc, known)
    assert rep.zariski_dense is TriBool.TRUE
    assert "a note" not in rep.reasons
    # over a number field the reasons stay as they were, G_m(B) unknown included
    rep = classify_thinness(ToricPair(P1, darmon([2, 2])), Q)
    assert rep.zariski_dense is TriBool.UNKNOWN
    assert rep.reasons == ("finite index 2 with unit quotients finite: strictly d-thin for d in [2]",)


def test_closed_form_examples():
    rho = rho_of(Q)
    assert darmon_projective_closed_form(3, (2, 3, 5), rho, True).holds is Holds.YES
    assert darmon_projective_closed_form(3, (2, 3, 5), rho, False).holds is Holds.YES
    assert darmon_projective_closed_form(3, (2, 3, INF), rho, False).holds is Holds.NO
    assert darmon_projective_closed_form(2, (2, 4), rho, True).holds is Holds.NO
    assert darmon_projective_closed_form(2, (INF, INF), rho, True).holds is Holds.NO


def sigma_max_sufficient(pair: ToricPair, rho) -> bool:
    """One-directional criterion on a smooth complete fan (a test oracle): the
    gcd over maximal cones of the products of the multiplicities on each
    cone's rays lies in rho.  An infinite product drops out of the gcd."""
    mults = [cond.m if cond.kind in (Kind.DARMON, Kind.STRICT_DARMON, Kind.CAMPANA) else 1
             for cond in pair.conditions.conditions]
    products = [math.prod(mults[i] for i in c) for c in pair.fan.max_cones]
    g = math.gcd(*(x for x in products if x != INF))
    return g != 0 and rho_contains(rho, g)


def test_sigma_max_examples():
    rho = rho_of(Q)
    assert sigma_max_sufficient(ToricPair(P2, darmon([2, 3, 5])), rho)
    assert not sigma_max_sufficient(ToricPair(P1, darmon([2, 2])), rho)


def test_sigma_max_implies_m_approx_not_no():
    rho = rho_of(Q)
    for m in itertools.product([1, 2, 3, 4], repeat=3):
        pair = ToricPair(P2, darmon(list(m)))
        if sigma_max_sufficient(pair, rho):
            assert decide_m_approx(pair, Q, True).holds is not Holds.NO, m


def test_sigma_max_strictly_weaker_on_hirzebruch():
    # the r-term can rescue the index criterion while the cone products share
    # a factor
    rho = rho_of(Q)
    h3 = hirzebruch(3)
    # fibers carry multiplicity 1, sections 2: every cone product is even, but
    # the r * m1 * m3 term makes the index odd
    pair = ToricPair(h3, darmon([1, 2, 1, 2]))
    assert decide_m_approx(pair, Q, True).holds is Holds.YES
    assert not sigma_max_sufficient(pair, rho)


def test_verdict_json_shape():
    v = decide_m_approx(ToricPair(P2, darmon([2, 3, 5])), Q, True)
    obj = v.to_json()
    assert set(obj) == {"property", "holds", "reasons", "invariants"}
    assert obj["holds"] == "yes"
    assert obj["invariants"]["index"] == 1


@pytest.mark.parametrize("rays, diag", [
    ([(1, 0), (0, 1), (-1, -1), (1, 1)], "ray 3 lies in no maximal cone"),
    ([(3, 0), (0, 1), (-1, -1)], "non-primitive ray 0: (3, 0)"),
])
def test_a_pair_refuses_a_fan_that_fan_validate_flags(rays, diag):
    """A stray ray once got a NO with index 4, and a non-primitive ray an
    error about the refinement.  The fan is checked before the arity, which
    three conditions on the four-ray fan would fail."""
    fan = Fan.make(2, rays, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="^invalid fan: " + re.escape(diag) + "$"):
        ToricPair(fan, darmon([2, 2, 2]))


def test_a_maximal_cone_listed_twice_is_not_complete():
    """The quadrant listed twice pairs each of its walls with itself; no pair
    is built on it, through the API as at the CLI."""
    twice = Fan.make(2, [(1, 0), (0, 1)], [(0, 1), (1, 0)])
    assert not is_complete(twice)
    with pytest.raises(ValueError, match=r"^invalid fan: cone \(0, 1\) is listed twice$"):
        ToricPair(twice, darmon([1, 1]))
