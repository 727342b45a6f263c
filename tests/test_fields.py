import pytest
from hypothesis import given, settings, strategies as st

from toricapprox.fields import (
    Allowed,
    BaseClass,
    FieldDescriptor,
    TriBool,
    default_flags,
    field_from_json,
    rho_contains,
    rho_of,
)


def test_global_fields_give_trivial_monoid():
    for fd in (FieldDescriptor.number_field(),
               FieldDescriptor.global_function_field(9)):
        spec = rho_of(fd)
        assert spec.allowed is Allowed.NONE
        assert rho_contains(spec, 1)
        assert not rho_contains(spec, 2)
        assert spec.note


def test_separably_closed():
    fd = FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, 5)
    spec = rho_of(fd)
    assert rho_contains(spec, 6)
    assert not rho_contains(spec, 10)
    fd0 = FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, 0)
    assert rho_of(fd0).allowed is Allowed.ALL


def test_real_closed():
    fd = FieldDescriptor.function_field(BaseClass.REAL_CLOSED, 0,
                                        curve_has_real_point=True)
    spec = rho_of(fd)
    assert rho_contains(spec, 3) and not rho_contains(spec, 2)
    fd = FieldDescriptor.function_field(BaseClass.REAL_CLOSED, 0,
                                        curve_has_real_point=False)
    assert rho_contains(rho_of(fd), 2)


def test_real_closed_requires_curve_flag():
    fd = FieldDescriptor.function_field(BaseClass.REAL_CLOSED, 0)
    with pytest.raises(ValueError, match="real_point"):
        rho_of(fd)


def test_p_closed_excludes_characteristic():
    fd = FieldDescriptor.function_field(BaseClass.P_CLOSED, 3,
                                        closed_primes={2, 3, 7})
    spec = rho_of(fd)
    assert spec.primes == (2, 7)
    assert rho_contains(spec, 14)
    assert not rho_contains(spec, 6)


def test_hereditarily_euclidean():
    fd = FieldDescriptor.function_field(BaseClass.HEREDITARILY_EUCLIDEAN, 0,
                                        curve_has_real_point=False)
    spec = rho_of(fd)
    assert rho_contains(spec, 4) and not rho_contains(spec, 3)
    fd = FieldDescriptor.function_field(BaseClass.HEREDITARILY_EUCLIDEAN, 0,
                                        curve_has_real_point=True)
    assert rho_of(fd).allowed is Allowed.NONE


def test_conservative_bases():
    for base in (BaseClass.FINITE, BaseClass.HILBERTIAN_CHAR0, BaseClass.OTHER):
        fd = FieldDescriptor.function_field(base, 0 if base != BaseClass.FINITE else 5)
        assert rho_of(fd).allowed is Allowed.NONE
        assert "conservative" in rho_of(fd).note


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200), st.integers(1, 200))
def test_rho_multiplicative(a, b):
    spec = rho_of(FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, 5))
    assert (rho_contains(spec, a) and rho_contains(spec, b)) == rho_contains(spec, a * b)


def test_default_flags():
    fl = default_flags(FieldDescriptor.number_field(), 0,
                       rationals_or_imaginary_quadratic=True)
    assert fl.gm_B_finite is TriBool.TRUE
    assert fl.pic_C_finitely_generated is TriBool.TRUE
    fl = default_flags(FieldDescriptor.global_function_field(4), 1)
    assert fl.gm_B_finite is TriBool.TRUE
    fl = default_flags(FieldDescriptor.global_function_field(4), 2)
    assert fl.gm_B_finite is TriBool.FALSE
    fl = default_flags(FieldDescriptor.global_function_field(4))
    assert fl.gm_B_finite is TriBool.UNKNOWN and "excluded places" in fl.notes[0]
    fl = default_flags(FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, 0))
    assert fl.pic_C_finitely_generated is TriBool.UNKNOWN


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FieldDescriptor.global_function_field(12)
    with pytest.raises(ValueError):
        FieldDescriptor.function_field(BaseClass.REAL_CLOSED, 5,
                                       curve_has_real_point=True)
    assert FieldDescriptor.global_function_field(9).characteristic() == 3


def test_field_from_json():
    fd = field_from_json({"kind": "number_field"})
    assert fd.is_global()
    fd = field_from_json({"kind": "function_field", "base": "separably_closed",
                          "char": 5})
    assert fd.char == 5


def test_large_characteristic_and_field_size():
    p = 10 ** 18 + 3
    spec = rho_of(FieldDescriptor.function_field(BaseClass.SEPARABLY_CLOSED, p))
    assert spec.primes == (p,)
    assert rho_contains(spec, 6) and not rho_contains(spec, 2 * p)
    assert FieldDescriptor.global_function_field(999999999989).characteristic() == 999999999989
    assert FieldDescriptor.global_function_field(1000003 ** 2).characteristic() == 1000003
    with pytest.raises(ValueError, match="prime power"):
        FieldDescriptor.global_function_field(1000003 * 1000033)


def test_closed_primes_must_be_primes():
    with pytest.raises(ValueError, match="closed_primes"):
        FieldDescriptor.function_field(BaseClass.P_CLOSED, 3, closed_primes={2, 4})
    with pytest.raises(ValueError, match="closed_primes"):
        field_from_json({"kind": "function_field", "base": "p_closed", "char": 0,
                         "closed_primes": ["7"]})
