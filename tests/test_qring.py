"""Ring operation checks: division, gcd, cyclotomics, folding, the congruence predicate."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcong.errors import BothZero, DenominatorNotCoprime, DivisionByZeroPoly
from qcong.qring import (
    ONE,
    QPoly,
    QRat,
    ZERO,
    _norm,
    congruent_zero_mod_qint,
    cyclotomic,
    divrem,
    fold_mod_qn_minus_1,
    poly_gcd,
    q_integer,
    q_pochhammer,
)

small_coeffs = st.integers(-20, 20)
int_polys = st.lists(small_coeffs, min_size=0, max_size=14).map(QPoly)
rational_coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=6)
mixed_polys = st.lists(st.one_of(small_coeffs, rational_coeffs), max_size=10).map(QPoly)


def one_minus(sign, m):
    """1 - sign*q^m built positionally, independent of the product helper."""
    return QPoly([1] + [0] * (m - 1) + [-sign]) if m else QPoly([1 - sign])


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def cyclotomic_by_mobius(n):
    """Moebius-product oracle: prod over d|n of (q^(n/d) - 1)^mu(d)."""
    num, den = ONE, ONE
    for d in divisors(n):
        mu = mobius(d)
        f = QPoly([-1] + [0] * (n // d - 1) + [1])
        if mu == 1:
            num = num * f
        elif mu == -1:
            den = den * f
    quot, rem = divrem(num, den)
    assert rem.is_zero
    return quot


# --- QPoly basics ---------------------------------------------------------------


def test_zero_polynomial_canonical_form():
    assert QPoly([0, 0, 0]).coeffs == ()
    assert QPoly([]).degree == -1
    assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPoly([Fraction(4, 2)]).coeffs == (2,)  # integral fractions collapse to int


def test_qpoly_str():
    assert str(ZERO) == "0"
    assert str(QPoly([1, 7, 22])) == "1 + 7*q + 22*q^2"
    assert str(QPoly([-2, 0, Fraction(1, 2), -1])) == "-2 + 1/2*q^2 - q^3"


def test_qpoly_evaluation_is_exact():
    p = QPoly([1, Fraction(-3, 2), 5])
    assert p(Fraction(1, 3)) == 1 - Fraction(1, 2) + Fraction(5, 9)


def test_q_integer():
    assert q_integer(0).is_zero
    assert q_integer(1) == ONE
    assert q_integer(3) == QPoly([1, 1, 1])


# --- q-Pochhammer -----------------------------------------------------------------


def test_q_pochhammer_empty_product():
    for sign, e, step in [(1, 1, 1), (-1, 0, 3), (1, 5, 2)]:
        assert q_pochhammer(sign, e, step, 0) == ONE


def test_q_pochhammer_examples():
    assert q_pochhammer(1, 1, 2, 2) == QPoly([1, -1, 0, -1, 1])  # (q;q^2)_2
    assert q_pochhammer(-1, 1, 2, 1) == QPoly([1, 1])  # (-q;q^2)_1


def test_q_pochhammer_against_factor_products():
    for sign in (1, -1):
        for e in (0, 1, 2, 5):
            for step in (1, 2, 4):
                for k in (1, 2, 3, 6):
                    expected = ONE
                    for i in range(k):
                        expected = expected * one_minus(sign, e + i * step)
                    assert q_pochhammer(sign, e, step, k) == expected


def test_q_pochhammer_evaluation_cross_check():
    # fully independent route: multiply exact rational factor values
    q0 = Fraction(2, 3)
    for sign, e, step, k in [(1, 1, 2, 4), (-1, 4, 4, 3), (1, 2, 4, 5)]:
        expected = Fraction(1)
        for i in range(k):
            expected *= 1 - sign * q0 ** (e + i * step)
        assert q_pochhammer(sign, e, step, k)(q0) == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, -1]), st.integers(0, 8), st.integers(1, 5), st.integers(0, 10))
def test_q_pochhammer_degree_formula(sign, e, step, k):
    p = q_pochhammer(sign, e, step, k)
    if sign == 1 and e == 0 and k >= 1:
        assert p.is_zero  # the (1 - q^0) factor kills the product
    else:
        assert p.degree == e * k + step * k * (k - 1) // 2


# --- division ----------------------------------------------------------------------


def test_divrem_examples():
    assert divrem(QPoly([-1, 0, 1]), QPoly([-1, 1])) == (QPoly([1, 1]), ZERO)
    assert divrem(QPoly([-1, 0, 0, 1]), q_integer(3)) == (QPoly([-1, 1]), ZERO)
    assert divrem(QPoly([0, 1]), q_integer(3)) == (ZERO, QPoly([0, 1]))
    q, r = divmod(QPoly([1, 0, 0, 0, 2]), QPoly([1, 2]))
    assert (q, r) == (QPoly([Fraction(-1, 8), Fraction(1, 4), Fraction(-1, 2), 1]), Fraction(9, 8))
    assert [q[e] for e in (-1, 0, 3, 4)] == [0, Fraction(-1, 8), 1, 0]


def test_divrem_long_division_oracle():
    # schoolbook long division over Fractions, written out independently
    def long_division(a, b):
        r = list(a.coeffs)
        q = [Fraction(0)] * max(len(r) - len(b.coeffs) + 1, 0)
        while len(r) >= len(b.coeffs) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b.coeffs):
                break
            t = Fraction(r[-1]) / Fraction(b.coeffs[-1])
            pos = len(r) - len(b.coeffs)
            q[pos] = t
            for j, c in enumerate(b.coeffs):
                r[pos + j] -= t * c
        return QPoly(q), QPoly(r)

    rng = random.Random(7)
    for _ in range(60):
        a = QPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 12))])
        b = QPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
        if b.is_zero:
            continue
        assert divrem(a, b) == long_division(a, b)


def test_divrem_zero_divisor():
    with pytest.raises(DivisionByZeroPoly):
        divrem(ONE, ZERO)


@settings(max_examples=200, deadline=None)
@given(mixed_polys, mixed_polys)
def test_divrem_reconstruction(a, b):
    if b.is_zero:
        return
    q, r = divrem(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


# --- gcd ----------------------------------------------------------------------------


def test_poly_gcd_examples():
    assert poly_gcd(QPoly([-1, 0, 1]), QPoly([1, -2, 1])) == QPoly([-1, 1])
    assert poly_gcd(QPoly([2, 2]), ZERO) == QPoly([1, 1])
    assert poly_gcd(QPoly([1, 1]), QPoly([1, 0, 1])) == ONE


def test_poly_gcd_euclid_remainder_oracle():
    # plain remainder-sequence Euclid without the monic normalization
    def euclid(a, b):
        while not b.is_zero:
            a, b = b, divrem(a, b)[1]
        return a.monic()

    rng = random.Random(11)
    for _ in range(60):
        a = QPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 9))])
        b = QPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 9))])
        if a.is_zero and b.is_zero:
            continue
        assert poly_gcd(a, b) == euclid(a, b)


def test_poly_gcd_both_zero():
    with pytest.raises(BothZero):
        poly_gcd(ZERO, ZERO)


@settings(max_examples=150, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_poly_gcd_divides_and_common_factor(a, b, c):
    if a.is_zero and b.is_zero:
        return
    g = poly_gcd(a, b)
    assert not g.is_zero and g.leading == 1
    for f in (a, b):
        if not f.is_zero:
            assert divrem(f, g)[1].is_zero
    if not c.is_zero and not (a * c).is_zero:
        gc = poly_gcd(a * c, b * c)
        assert divrem(gc, poly_gcd(a, b) * c.monic())[1].is_zero


# --- cyclotomic polynomials -----------------------------------------------------------


def test_cyclotomic_examples():
    assert cyclotomic(1) == QPoly([-1, 1])
    assert cyclotomic(2) == QPoly([1, 1])
    assert cyclotomic(6) == QPoly([1, -1, 1])


def test_cyclotomic_against_mobius_oracle():
    for n in list(range(1, 31)) + [36, 48, 60, 105]:
        assert cyclotomic(n) == cyclotomic_by_mobius(n)


def test_cyclotomic_product_equals_q_integer():
    for n in range(2, 61):
        prod = ONE
        for d in divisors(n)[1:]:
            prod = prod * cyclotomic(d)
        assert prod == q_integer(n)


# --- folding ----------------------------------------------------------------------------


def test_fold_examples():
    assert fold_mod_qn_minus_1(QPoly.q_power(5), 3) == QPoly([0, 0, 1])
    assert fold_mod_qn_minus_1(QPoly([1, 1, 1]), 3) == QPoly([1, 1, 1])
    assert fold_mod_qn_minus_1(QPoly([-1, 0, 0, 1]), 3).is_zero


def test_fold_matches_divrem_by_qn_minus_1():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 30)
        f = QPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 500))])
        modulus = QPoly([-1] + [0] * (n - 1) + [1])  # q^n - 1
        assert fold_mod_qn_minus_1(f, n) == divrem(f, modulus)[1]


def test_fold_is_congruent_mod_q_integer():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 30)
        f = QPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 500))])
        diff = f - fold_mod_qn_minus_1(f, n)
        assert congruent_zero_mod_qint(QRat(diff), n).holds


# --- the congruence predicate ------------------------------------------------------------


def test_congruent_zero_examples():
    assert congruent_zero_mod_qint(QRat(q_integer(3)), 3).holds
    assert congruent_zero_mod_qint(QPoly([-1, 0, 0, 1]), 3).holds
    v = congruent_zero_mod_qint(QPoly([0, 1]), 3)
    assert not v.holds
    assert v.residue == QPoly([0, 1])
    assert v.modulus == q_integer(3)


def test_congruent_zero_verdict_invariant():
    for f, n in [(QPoly([0, 1]), 3), (QPoly([-1, 0, 0, 1]), 3), (q_integer(25), 5)]:
        v = congruent_zero_mod_qint(f, n)
        assert v.holds == v.residue.is_zero


def test_congruent_zero_denominator_not_coprime():
    with pytest.raises(DenominatorNotCoprime):
        congruent_zero_mod_qint(QRat(QPoly([0, 1]), q_integer(3)), 3)
    with pytest.raises(DenominatorNotCoprime):
        congruent_zero_mod_qint(QRat(ONE, cyclotomic(5)), 5)


def test_congruent_zero_rejects_n_below_2():
    with pytest.raises(ValueError):
        congruent_zero_mod_qint(ONE, 1)


# --- QRat canonical form -------------------------------------------------------------------


def test_qrat_reduces_and_makes_denominator_monic():
    f = QRat(QPoly([-1, 0, 1]), QPoly([2, -4, 2]))  # (q^2-1)/(2(q-1)^2)
    assert f.num == QPoly([Fraction(1, 2), Fraction(1, 2)])
    assert f.den == QPoly([-1, 1])
    assert f == QRat(QPoly([1, 1]), QPoly([-2, 2]))
    assert str(f) == "(1/2 + 1/2*q) / (-1 + q)"


def test_qrat_zero_and_equality():
    assert QRat(ZERO, QPoly([3, 1])) == QRat(0)
    assert QRat(QPoly([2]), QPoly([4])) == QRat(Fraction(1, 2))


def test_qrat_zero_denominator():
    with pytest.raises(DivisionByZeroPoly):
        QRat(ONE, ZERO)


def test_equal_values_hash_equal():
    p = QPoly([1, -2, 3])
    assert len({3, QPoly([3]), QRat(3)}) == 1
    assert len({0, ZERO, QRat(0), QRat(ZERO, QPoly([3, 1]))}) == 1
    assert len({Fraction(1, 2), QPoly([Fraction(1, 2)]), QRat(Fraction(1, 2))}) == 1
    assert len({p, QRat(p), QRat(p * QPoly([1, 1]), QPoly([1, 1]))}) == 1
    assert QRat(p, QPoly([0, 1])) != p


@settings(max_examples=100, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_qrat_field_arithmetic(a, b, c):
    if b.is_zero or c.is_zero:
        return
    x = QRat(a, b)
    y = QRat(c, b)
    assert (x + y) == QRat(a + c, b)
    assert (x - y) + y == x
    assert x * QRat(b, ONE) == QRat(a)
    assert (a / QRat(b)) * b == x * b == a  # QPoly / QRat runs __rtruediv__
    assert x.is_zero == a.is_zero
    with pytest.raises(DivisionByZeroPoly):
        x / QRat(ZERO)
    g = poly_gcd(x.num, x.den) if not x.num.is_zero else ONE
    assert g == ONE  # stored form is reduced
    assert x.den.leading == 1


@pytest.mark.parametrize("n", [3, 5])
def test_qrat_plus_polynomial_skips_the_gcd(monkeypatch, n):
    # a reduced N/D plus a polynomial P is (N + P*D)/D, already in lowest
    # terms since gcd(N + P*D, D) = gcd(N, D) = 1
    from qcong.sums import c_q_term, cp_q_term, q_double_sum, q_single_sum

    cases = []
    for s in (q_single_sum(c_q_term, n), q_double_sum(cp_q_term, n)):
        assert s.den.degree > 0
        for p in (1, Fraction(1, 2), QPoly([2, -1, 0, 3])):
            cases.append((s, p, QRat(s.num + p * s.den, s.den), QRat(s.num - p * s.den, s.den)))

    def no_gcd(a, b):
        raise AssertionError("poly_gcd called with a polynomial operand")

    monkeypatch.setattr("qcong.qring.poly_gcd", no_gcd)
    for s, p, plus, minus in cases:
        assert s + p == plus and p + s == plus and s + QRat(p) == plus
        assert s - p == minus and p - s == -minus and QRat(p) - s == -minus


def test_scalar_multiply_skips_zero_coefficients():
    rng = random.Random(20261018)
    scalars = [3, -1, Fraction(1, 2), Fraction(-7, 3), Fraction(4, 2)]
    for _ in range(200):
        coeffs = []
        while len(coeffs) < 30:
            if rng.random() < 0.5:
                coeffs += [0] * rng.randint(1, 6)  # a run of zeros
            else:
                coeffs.append(rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 5))]))
        p = QPoly(coeffs + [1])
        for s in scalars:
            product = (p * s).coeffs
            assert product == tuple(_norm(c * s) for c in p.coeffs)
            assert all(type(c) is int for c, a in zip(product, p.coeffs) if not a)
            assert (s * p).coeffs == product
