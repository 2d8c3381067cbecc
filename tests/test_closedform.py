"""Closed-form machinery: moment sums, the rational closed form, specializations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcong import closedform
from qcong.closedform import (
    _exact_over,
    closed_form,
    closed_form_at,
    closed_form_numerator,
    geometric_S,
    geometric_S_direct,
    geometric_T,
    geometric_T_direct,
    reduced_double_sum_poly,
    special_q_neg_half,
    special_q_one,
)
from qcong.errors import SingularPoint
from qcong.qring import QPoly, QRat
from qcong.sums import double_sum


def test_geometric_S_examples():
    assert geometric_S(1) == QRat(0)
    assert geometric_S(2) == QRat(QPoly([0, 1]))
    assert geometric_S(3) == QRat(QPoly([0, 1, 2]))


def test_geometric_T_examples():
    assert geometric_T(1) == QRat(0)
    assert geometric_T(2) == QRat(QPoly([0, 1]))
    assert geometric_T(3) == QRat(QPoly([0, 1, 4]))


def test_geometric_closed_forms_equal_direct_polynomials():
    for n in range(1, 50):
        assert geometric_S(n) == QRat(geometric_S_direct(n))
        assert geometric_T(n) == QRat(geometric_T_direct(n))


def test_geometric_S_telescoping_identity():
    # (1-q) S_n = sum_{k=1}^{n-1} q^k - q^n (n-1), exactly as rational functions
    one_minus_q = QRat(QPoly([1, -1]))
    for n in range(1, 40):
        lhs = one_minus_q * geometric_S(n)
        rhs = QRat(QPoly([0] + [1] * (n - 1)) - QPoly.q_power(n) * (n - 1))
        assert lhs == rhs


def test_closed_forms_divide_exactly_without_a_gcd(monkeypatch):
    # each numerator is divisible by its power of (q-1), so no gcd is run
    def no_gcd(a, b):
        raise AssertionError("poly_gcd called on an exactly divisible closed form")

    monkeypatch.setattr("qcong.qring.poly_gcd", no_gcd)
    for n in range(1, 61):
        assert closed_form(n) == QRat(reduced_double_sum_poly(n)), n
        assert geometric_S(n) == QRat(geometric_S_direct(n)), n
        assert geometric_T(n) == QRat(geometric_T_direct(n)), n


def test_closed_forms_run_no_generic_kernel(monkeypatch):
    # the exact path is prefix sums only: no division, product or gcd kernel
    def refuse(*args):
        raise AssertionError("generic kernel called on an exactly divisible closed form")

    for name in ("divrem", "_int_divmod_unit_lead", "_list_mul", "poly_gcd"):
        monkeypatch.setattr(f"qcong.qring.{name}", refuse)
    for n in range(1, 201):
        assert closed_form(n) == QRat(reduced_double_sum_poly(n)), n
        assert geometric_S(n) == QRat(geometric_S_direct(n)), n
        assert geometric_T(n) == QRat(geometric_T_direct(n)), n


def test_exact_over_falls_back_to_the_canonical_qrat():
    # a numerator the denominator does not divide still reduces exactly;
    # sign -1 over (1-q)^3 is the closed form's reading over (q-1)^3
    cases = [
        (closed_form_numerator(n) * Fraction(1, 2), 3, -1, QPoly([-1, 1]) ** 3)
        for n in (1, 4, 9)
    ] + [
        (QPoly(range(n)) * QPoly([1, -1]) ** 2, 2, 1, QPoly([1, -1]) ** 2)
        for n in (2, 5)
    ]
    for num, r, sign, den in cases:
        assert _exact_over(sign * num, r) == QRat(num, den)
        bumped = num + 1
        value = _exact_over(sign * bumped, r)
        assert value.den.degree > 0
        assert value == QRat(bumped, den)


coefficients = st.one_of(
    st.integers(-50, 50), st.fractions(min_value=-10, max_value=10, max_denominator=6)
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(coefficients, max_size=31).map(QPoly),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, -1]),
    coefficients.filter(bool),
)
def test_exact_over_divides_by_prefix_sums(p, r, sign, c):
    den = QPoly([1, -1]) ** r
    num = p * den
    value = _exact_over(sign * num, r)
    assert value == QRat(sign * p)
    # integral coefficients come back as ints, as in every canonical QPoly
    assert all(type(x) is int or x.denominator > 1 for x in value.num)
    # num + c is nonzero at q = 1, so no power of 1 - q divides it
    bumped = num + c
    assert _exact_over(sign * bumped, r) == QRat(sign * bumped, den)


def test_closed_form_fallback_keeps_the_value_exact(monkeypatch):
    # a numerator off by one is not divisible: the result is N'/(2(q-1)^3), reduced
    real = closedform.closed_form_numerator
    monkeypatch.setattr(closedform, "closed_form_numerator", lambda n: real(n) + 1)
    for n in (1, 2, 7):
        value = closed_form(n)
        assert value == QRat(real(n) + 1, 2 * QPoly([-1, 1]) ** 3)
        assert value != QRat(reduced_double_sum_poly(n))


def test_reduced_double_sum_poly_examples():
    assert reduced_double_sum_poly(1) == QPoly([1])
    assert reduced_double_sum_poly(2) == QPoly([1, 7])
    assert reduced_double_sum_poly(3) == QPoly([1, 7, 22])  # 9*4/2 + 3*2/2 + 1


def test_reduced_double_sum_poly_is_the_moment_combination():
    # equals (9/2) T_n + (3/2) S_n + [n] as rational functions
    from qcong.qring import q_integer

    for n in range(1, 30):
        combined = (
            geometric_T(n) * Fraction(9, 2)
            + geometric_S(n) * Fraction(3, 2)
            + QRat(q_integer(n))
        )
        assert combined == QRat(reduced_double_sum_poly(n))


def test_closed_form_reduces_to_one_at_n_1():
    # numerator collapses to 2(q-1)^3 there
    assert closed_form_numerator(1) == 2 * QPoly([-1, 1]) ** 3
    assert closed_form(1) == QRat(1)


def test_closed_form_equals_polynomial_sum():
    for n in range(1, 40):
        assert closed_form(n) == QRat(reduced_double_sum_poly(n))


def test_closed_form_point_values():
    # n=2 at q=2: numerator 14*16 - 40*8 + 44*4 - 50 = 30 over 2(q-1)^3 = 2
    assert closed_form_numerator(2)(Fraction(2)) == 30
    assert closed_form(2).evaluate(Fraction(2)) == 15
    assert closed_form(3).evaluate(Fraction(-1, 2)) == 3


def test_published_denominator_reading_is_off_by_a_sign():
    # the 2(1-q)^3 reading gives exactly -1 times the corrected form
    for n in (1, 2, 5):
        printed = QRat(closed_form_numerator(n), 2 * QPoly([1, -1]) ** 3)
        corrected = closed_form(n)
        assert printed == QRat(-corrected.num, corrected.den)
        assert printed.evaluate(Fraction(2)) == -corrected.evaluate(Fraction(2))


def test_specialization_examples():
    assert special_q_neg_half(1) == 1
    assert special_q_neg_half(2) == Fraction(-5, 2)
    assert special_q_neg_half(3) == 3
    assert special_q_one(1) == 1
    assert special_q_one(2) == 8
    assert special_q_one(3) == 30


def test_specializations_match_double_sums():
    for n in range(1, 80):
        assert special_q_neg_half(n) == double_sum(n, Fraction(-1, 8))
        assert special_q_one(n) == double_sum(n, Fraction(1, 4))


def test_closed_form_matches_double_sum_at_rational_points():
    for n in range(1, 51):
        for q0 in (Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(1, 3)):
            assert double_sum(n, q0 / 4) == closed_form(n).evaluate(q0), (n, q0)


def test_closed_form_at_returns_consistent_record():
    value = closed_form_at(3, Fraction(-1, 2))
    assert isinstance(value, Fraction)
    assert value == closed_form(3).evaluate(Fraction(-1, 2)) == 3


def test_closed_form_at_one_refuses_before_building_the_form(monkeypatch):
    def no_form(n):
        raise AssertionError("closed_form built for a point it cannot be evaluated at")

    monkeypatch.setattr(closedform, "closed_form", no_form)
    for q0 in (1, Fraction(3, 3)):
        with pytest.raises(SingularPoint):
            closed_form_at(7, q0)


def test_q_one_is_a_removable_singularity():
    with pytest.raises(SingularPoint):
        closed_form_at(7, 1)
    # the limit value equals the direct polynomial at q=1, served by special_q_one
    for n in (1, 2, 7, 20):
        assert reduced_double_sum_poly(n)(Fraction(1)) == special_q_one(n)


def test_preconditions():
    for fn in (geometric_S, geometric_T, geometric_S_direct, geometric_T_direct,
               reduced_double_sum_poly, closed_form_numerator, closed_form,
               special_q_neg_half, special_q_one):
        with pytest.raises(ValueError):
            fn(0)
