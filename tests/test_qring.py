"""Ring operation checks: division, gcd, cyclotomics, folding, the congruence predicate."""

import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qcong import qring
from qcong.errors import BothZero, DenominatorNotCoprime, DivisionByZeroPoly
from qcong.qring import (
    ONE,
    QPoly,
    QRat,
    ZERO,
    _intpoly_mul,
    _list_mul,
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
qrats = st.builds(QRat, int_polys, int_polys.filter(bool))
operands = st.one_of(small_coeffs, rational_coeffs, mixed_polys, qrats)


def one_minus(sign, m):
    """1 - sign*q^m built positionally, independent of the product helper."""
    return QPoly([1] + [0] * (m - 1) + [-sign]) if m else QPoly([1 - sign])


def schoolbook(a, b):
    """Integer coefficient-list product by the double loop, trailing zeros dropped."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


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
    assert QPoly([True, False]).coeffs == (1,) and type(QPoly([True])[0]) is int

    class Small(int):
        pass

    # an int subclass is no int to the all-int fast path, and is normalized to a plain int
    assert QPoly([Small(3), 0, Small(-1)]).coeffs == (3, 0, -1)
    assert all(type(c) is int for c in QPoly([Small(3), 0, Small(-1)]).coeffs)
    assert qring._all_int([]) and qring._all_int([0, -(1 << 90)])
    for cs in ([1, True], [Small(1)], [1, Fraction(1, 2)], [1, Fraction(2, 1)]):
        assert not qring._all_int(cs), cs
    assert QPoly(c for c in (5, 0, 7, 0)).coeffs == (5, 0, 7) and QPoly(iter(())).coeffs == ()
    given_list = [2, 0, 0]
    assert QPoly(given_list).coeffs == (2,) and given_list == [2, 0, 0]  # the caller's list is not trimmed
    with pytest.raises(TypeError):
        QPoly([1, 1.5])
    with pytest.raises(ValueError):
        ZERO.leading
    with pytest.raises(AttributeError):
        ONE.coeffs = (3,)
    with pytest.raises(TypeError):
        QPoly([1, 2]) * "q"


def test_unpickling_runs_the_constructor():
    # pickled bytes come from outside the process, so they are normalized like any other input
    odd = QPoly._raw((Fraction(2, 1), 0))  # not canonical: only _raw can build it
    clone = pickle.loads(pickle.dumps(odd))
    assert clone.coeffs == (2,) and type(clone[0]) is int
    # (q^2 - 1)/(q - 1), not reduced: only _from_reduced can build it
    odd = QRat._from_reduced(QPoly([-1, 0, 1]), QPoly([-1, 1]))
    assert pickle.loads(pickle.dumps(odd)) == QRat(QPoly([1, 1]))


def test_shift_and_powers_reject_negative_exponents():
    assert QPoly([1, 2]).shift(2) == QPoly([0, 0, 1, 2])
    assert QPoly.q_power(0) == ONE and QPoly.q_power(3) == QPoly([0, 0, 0, 1])
    for call in (lambda: QPoly([1, 2]).shift(-1), lambda: ZERO.shift(-1),
                 lambda: QPoly.q_power(-1), lambda: QPoly([1, 1]) ** -1):
        with pytest.raises(ValueError):
            call()


def test_qpoly_str():
    assert str(ZERO) == "0"
    assert str(QPoly([1, 7, 22])) == "1 + 7*q + 22*q^2"
    assert str(QPoly([-2, 0, Fraction(1, 2), -1])) == "-2 + 1/2*q^2 - q^3"


def term_by_term_str(coeffs) -> str:
    """The term-by-term renderer, the oracle for QPoly.__str__."""
    if not coeffs:
        return "0"
    parts = []
    for e, c in enumerate(coeffs):
        if not c:
            continue
        mag = -c if c < 0 else c
        if e == 0:
            body = str(mag)
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


multi_limb = 1 << 200
str_coeffs = (
    st.sampled_from([0, 1, -1])
    | st.integers(-(10**6), -2)
    | st.integers(-multi_limb, multi_limb)
    | st.fractions(-50, 50, max_denominator=9)
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1200), st.floats(0, 1),
       st.lists(st.tuples(st.integers(0, 1199), str_coeffs), max_size=30),
       st.integers(0, 2**32))
@example(1200, 1.0, [(0, -1)], 0)
@example(1, 1.0, [(0, Fraction(-1, 2))], 0)
@example(3, 0.0, [(1, 1), (2, -1)], 0)
def test_qpoly_str_matches_the_term_by_term_renderer(length, density, entries, seed):
    # zeros, +-1, negative and multi-limb ints and Fractions at every position
    rng = random.Random(seed)
    pool = [1, -1, -7, 3, (1 << 70) + 3, -multi_limb, Fraction(3, 4), Fraction(-5, 2)]
    cs = [rng.choice(pool) if rng.random() < density else 0 for _ in range(length)]
    for i, c in entries:
        if i < length:
            cs[i] = c
    p = QPoly(cs)
    assert str(p) == term_by_term_str(p.coeffs)
    # csv records join these texts unquoted
    assert not set(str(p)) & set(',"\r\n')
    assert not set(str(QRat(p, QPoly([1, 3])))) & set(',"\r\n')


def test_qpoly_str_extends_the_last_text_only_after_an_equal_prefix():
    # QPoly.__str__ keeps the last coefficients and text it rendered and, when
    # the next polynomial starts with them, formats only the terms after them;
    # each step below is checked against the term-by-term renderer.
    # (coefficients, form of the step)
    half, big = Fraction(1, 2), (1 << 70) + 3
    steps = [
        ([3, -1, 0, half, 7, -2], "start"),
        ([3, -1, 0, half, 7, -2, 0, 5, -1], "extends"),
        ([3, -1, 0, half, 7, -2, 0, 5, -1, big, 0, -1], "extends again"),
        ([3, -1, 0, half], "cut short"),
        ([4, -1, 0, half, 9], "differs at the first kept coefficient"),
        ([4, -1, 1, half, 9, -9], "differs at a middle one"),
        ([4, -1, 1, half, 9, 8, 3], "differs at the last kept one"),
        ([4, -1, 1, half, 9, 8, 3], "equal"),
        ([4, -1, 1, half, 9, 8, -3], "differs at the last one, same length"),
        ([4, -1, 1, half, 9, 8, -3, Fraction(-5, 3), 0, Fraction(7, 2)], "extends by Fractions"),
        ([4, -1, 1, half, 9, 8, -3, Fraction(-5, 3), 0, Fraction(-7, 2)], "a Fraction differs last"),
        ([], "zero"),
        ([0, 0, 1], "after zero"),
        ([0, 0, 1, -1], "extends a text with no constant term"),
        ([-half], "a Fraction constant"),
        ([-half, 1], "extends a constant"),
        ([half, 1, 1], "differs at the first, a constant before"),
        ([0], "zero again"),
        ([-1], "after zero again"),
    ]
    for coeffs, form in steps:
        p = QPoly(coeffs)
        assert str(p) == term_by_term_str(p.coeffs), form
    # a random walk over the same forms, as a scan would render its records
    rng = random.Random(0)
    cs = []
    for _ in range(400):
        form = rng.randrange(5)
        if form == 0 or not cs:
            cs = cs + [rng.choice([0, 1, -1, 2, -3, half, big]) for _ in range(rng.randint(1, 4))]
        elif form == 1:
            cs = cs[: rng.randrange(len(cs))]
        elif form == 2:
            cs[rng.randrange(len(cs))] += rng.choice([1, -1, half])
        elif form == 3:
            cs = []
        p = QPoly(cs)
        assert str(p) == term_by_term_str(p.coeffs)


def test_qpoly_str_under_threads_matches_the_term_by_term_renderer():
    # four threads render their own extending polynomials, so each replaces
    # the kept pair the others read; every text must still be exact
    def render(i):
        cs = [i + 1]
        for k in range(300):
            cs.append((-1) ** k * (k % 5) + Fraction(i, 3))
            p = QPoly(cs)
            assert str(p) == term_by_term_str(p.coeffs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for future in [pool.submit(render, i) for i in range(4)]:
                future.result()
    finally:
        sys.setswitchinterval(interval)


def test_qpoly_evaluation_is_exact():
    p = QPoly([1, Fraction(-3, 2), 5])
    assert p(Fraction(1, 3)) == 1 - Fraction(1, 2) + Fraction(5, 9)
    # a float point is taken at its exact binary value, never rounded on the way
    p = QPoly([1, 1, 1] + [0] * 20 + [1])
    assert p(0.1) == p(Fraction(0.1)) != p(Fraction(1, 10))
    assert QRat(p, QPoly([2, 1])).evaluate(0.1) == p(Fraction(0.1)) / (2 + Fraction(0.1))
    with pytest.raises(ZeroDivisionError):
        QRat(ONE, QPoly([-1, 1])).evaluate(1)


def test_q_integer():
    assert q_integer(0).is_zero
    assert q_integer(1) == ONE
    assert q_integer(3) == QPoly([1, 1, 1])
    with pytest.raises(ValueError):
        q_integer(-1)


# --- q-Pochhammer -----------------------------------------------------------------


def test_q_pochhammer_empty_product():
    for sign, e, step in [(1, 1, 1), (-1, 0, 3), (1, 5, 2)]:
        assert q_pochhammer(sign, e, step, 0) == ONE


def test_q_pochhammer_examples():
    assert q_pochhammer(1, 1, 2, 2) == QPoly([1, -1, 0, -1, 1])  # (q;q^2)_2
    assert q_pochhammer(-1, 1, 2, 1) == QPoly([1, 1])  # (-q;q^2)_1
    for step, k in [(1, 2), (2, 3), (3, 5)]:
        assert q_pochhammer(1, 0, step, k) == ZERO  # factors after (1 - q^0) keep it zero
    # a bad sign, e, step or k, one at a time
    for args in [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, -1)]:
        with pytest.raises(ValueError):
            q_pochhammer(*args)


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
    assert divrem(QPoly([Fraction(1, 2), 3]), QPoly([1, 0, 2])) == (ZERO, QPoly([Fraction(1, 2), 3]))
    assert divrem(ZERO, QPoly([1, 2])) == (ZERO, ZERO)
    assert divrem(QPoly([2, 0, 3]), 2) == (QPoly([1, 0, Fraction(3, 2)]), ZERO)
    assert divrem(QPoly([1, 0, 1]), QPoly([1, Fraction(1, 2)])) == (QPoly([-4, 2]), QPoly([5]))


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
    assert poly_gcd(q_integer(4), q_integer(6)) == QPoly([1, 1])  # both monic


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


def test_poly_inverse_mod_inverts_coprime_residues():
    # nothing in the package calls it; the benchmark's tracer resolves it by name
    rng = random.Random(25)
    moduli = [cyclotomic(7), q_integer(9), QPoly([1, 0, 1]), QPoly([1, -1]) ** 3]
    for m in moduli:
        fs = [QPoly([3]), QPoly([Fraction(-2, 3)]), QPoly([2, 1]), QPoly([Fraction(1, 2), 0, -4, 1]),
              QPoly.q_power(m.degree + 3) + 1]
        for _ in range(20):
            entries = [rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 5))]
            fs.append(QPoly([rng.choice(entries) for _ in range(rng.randint(1, 14))]))
        for f in fs:
            if f.is_zero or poly_gcd(f, m) != ONE:
                continue
            inv = qring._poly_inverse_mod(f, m)
            assert divrem(f * inv, m)[1] == ONE and inv.degree < m.degree, (f, m)
    with pytest.raises(DenominatorNotCoprime, match=r"shares the factor 1 \+ q \+ q\^2 with the modulus"):
        qring._poly_inverse_mod(cyclotomic(3) * QPoly([2, 1]), q_integer(9))


# --- cyclotomic polynomials -----------------------------------------------------------


def test_cyclotomic_examples():
    assert cyclotomic(1) == QPoly([-1, 1])
    assert cyclotomic(2) == QPoly([1, 1])
    assert cyclotomic(6) == QPoly([1, -1, 1])
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_against_mobius_oracle():
    # 832 = 8 * 104 is the largest index the n = 105 folded terms request
    for n in list(range(1, 31)) + [36, 48, 60, 105, 210, 243, 256, 385, 625, 630, 832]:
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
    assert fold_mod_qn_minus_1(QPoly([Fraction(1, 2), 0, -3]), 5) == QPoly([Fraction(1, 2), 0, -3])
    assert fold_mod_qn_minus_1(ZERO, 4) == ZERO
    assert fold_mod_qn_minus_1(QPoly([-1, 0, 0, 1]), 3).is_zero
    with pytest.raises(ValueError):
        fold_mod_qn_minus_1(ONE, 0)


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
        assert divrem(diff, q_integer(n))[1].is_zero


def _is_canonical(p):
    """Integral coefficients are exactly int, and the last coefficient is nonzero."""
    cs = p.coeffs
    return (not cs or cs[-1] != 0) and all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in cs
    )


@settings(max_examples=200, deadline=None)
@given(mixed_polys, mixed_polys, st.integers(1, 12))
@example(QPoly([1, Fraction(1, 2), Fraction(1, 3)]), QPoly([0, Fraction(1, 2), Fraction(-1, 3)]), 2)
@example(QPoly([Fraction(1, 2), Fraction(1, 2)]), QPoly([2, -2]), 1)
@example(QPoly([Fraction(1, 2), 0, Fraction(1, 2)]), QPoly([Fraction(1, 2), 0, Fraction(-1, 2), 0, 1]), 2)
def test_sums_products_and_folds_are_canonical(a, b, n):
    # integral Fractions that arise in a computation collapse to int, and cancelled tops are trimmed
    for value in (a + b, a - b, a * b, fold_mod_qn_minus_1(a, n), fold_mod_qn_minus_1(b, n)):
        assert _is_canonical(value), value.coeffs


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


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.data())
def test_congruent_zero_residue_is_the_long_division_remainder(n, data):
    # degrees 0..10n: below n the fold changes nothing, above it the fold does the work
    coeff = st.one_of(small_coeffs, rational_coeffs)
    degree = data.draw(st.integers(0, 10 * n))
    num = QPoly(data.draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1)))
    den = data.draw(int_polys.filter(lambda d: poly_gcd(d, q_integer(n)) == ONE))
    scalar = data.draw(coeff)
    rat = QRat(num, den)
    for f, top in [(num, num), (rat, rat.num), (scalar, QPoly([scalar]))]:
        v = congruent_zero_mod_qint(f, n)
        assert v.residue == divrem(top, q_integer(n))[1]
        assert v.holds == v.residue.is_zero and v.modulus == q_integer(n)
    for bad in (1.5, "q", [1, 2]):
        with pytest.raises(TypeError):
            congruent_zero_mod_qint(bad, n)


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
    f = QRat(ONE, QPoly([1, 1]))
    assert (f == "q") is False
    for apply in (lambda x: f + x, lambda x: f * x, lambda x: f / x):
        with pytest.raises(TypeError):
            apply("q")
    with pytest.raises(AttributeError):
        f.num = ONE


def test_qpoly_and_qrat_fields_cannot_be_deleted_or_replaced():
    # ONE and ZERO are shared by every module, so a del on one would break them all
    f = QRat(ONE, QPoly([1, 1]))
    for value, name in ((QPoly([1, 2]), "coeffs"), (qring.ONE, "coeffs"), (qring.ZERO, "coeffs"),
                        (f, "num"), (f, "den")):
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, ONE)
    assert qring.ONE == 1 and qring.ZERO == 0 and qring.ONE.coeffs == (1,)
    assert f.num == 1 and f.den == QPoly([1, 1])


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


def _value(f, x):
    """Exact value at q = x of a scalar, a QPoly or a QRat."""
    if isinstance(f, QRat):
        return f.evaluate(x)
    return f(x) if isinstance(f, QPoly) else Fraction(f)


@settings(max_examples=200, deadline=None)
@given(st.one_of(mixed_polys, qrats), operands, st.fractions(-3, 3, max_denominator=7))
def test_subtraction_ring_laws(a, b, x):
    # evaluation goes through num(x)/den(x), never through __sub__
    dens = [f.den for f in (a, b) if isinstance(f, QRat)]
    assume(all(d(x) != 0 for d in dens))
    for left, right in ((a, b), (b, a)):
        diff = left - right
        assert diff + right == left
        assert right - left == -diff
        assert _value(diff, x) == _value(left, x) - _value(right, x)


def test_binary_operators_refuse_foreign_operands():
    # a float, a string, None or a list is no ring element in either operand order;
    # ints, Fractions and polynomials keep their values
    ops = [add, sub, mul, truediv]
    values = [QPoly([1, Fraction(1, 2), -3]), QRat(QPoly([2, 1]), QPoly([1, 0, 1]))]
    for value in values:
        for foreign in (1.5, "q", None, [1, 2]):
            for op in ops:
                for left, right in ((value, foreign), (foreign, value)):
                    with pytest.raises(TypeError):
                        op(left, right)
        for other in (3, Fraction(-2, 5), QPoly([0, 1, 1])):
            for op in ops:
                for left, right in ((value, other), (other, value)):
                    if op is truediv and QRat not in (type(left), type(right)):
                        continue  # a polynomial has no quotient but by a QRat
                    for x in (Fraction(1, 3), Fraction(-5, 2)):
                        assert _value(op(left, right), x) == op(_value(left, x), _value(right, x))


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


big = 1 << 1100
packed_operands = st.lists(
    st.sampled_from([0, 1, -1]) | st.integers(-(10**6), 10**6) | st.integers(-big, big), min_size=1, max_size=40
)


@settings(max_examples=200, deadline=None)
@given(packed_operands, packed_operands)
@example([0], [0])
@example([0, 0, 0], [5, -3])
@example([0, 0], [big, 300])
@example([7], [-2])
@example([-1], [1, 0, -1, 0, 0])
@example([big, -big, 1], [-(big - 1)])
@example([3, 0, -big], [0] * 17 + [-1])
def test_intpoly_mul_is_the_schoolbook_product(a, b):
    # the packed product recovers every coefficient exactly: zero operands,
    # negative and 1,100-bit coefficients, unequal and length-1 operands
    before = (list(a), list(b))
    assert _intpoly_mul(a, b) == schoolbook(a, b)
    assert (a, b) == before


@pytest.mark.parametrize("nonzero", [64, 65])
def test_list_mul_packs_above_its_threshold_only(monkeypatch, nonzero):
    # 64 nonzero coefficients against a length-64 operand is 4,096 products,
    # the schoolbook side of the threshold; 65 is the first packed size
    rng = random.Random(nonzero)
    a = [rng.choice([-(1 << 1100), -7, 1, 3]) for _ in range(nonzero)]
    b = [rng.randint(-(10**9), 10**9) for _ in range(64)]
    calls = []
    real = qring._intpoly_mul
    monkeypatch.setattr(qring, "_intpoly_mul", lambda x, y: calls.append(1) or real(x, y))
    assert _list_mul(a, b) == schoolbook(a, b)
    assert len(calls) == (nonzero > 64)
