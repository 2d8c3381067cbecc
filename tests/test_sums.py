"""Convolution sums and q-series terms against direct-summation oracles."""

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import and_

import pytest
from hypothesis import example, given, settings, strategies as st

from qcong.bigmath import is_odd_prime
from qcong.errors import DenominatorNotCoprime
from qcong.qring import (
    QPoly,
    QRat,
    _fold_list,
    _list_mul,
    _product_of_binomials,
    congruent_zero_mod_qint,
    cyclotomic,
    divrem,
    fold_mod_qn_minus_1,
    q_integer,
    q_pochhammer,
)
from qcong import congruence, sums
from qcong.sums import (
    _assembled_numerators,
    _chain_products,
    _chain_split,
    _common_den_binomials,
    _cyclotomic_multiplicities,
    _cyclotomic_product,
    _dense_local,
    _folded_terms,
    _local_sum,
    _local_terms,
    _local_verdict,
    _mul_mod_qn,
    _reduced_term,
    _series_mul,
    _series_qpow,
    _summed_numerator,
    c_q_term,
    cp_q_term,
    double_sum,
    folded_double_sum_residue,
    folded_single_sum_residue,
    inner_closed,
    inner_conv_sum,
    plain_conv_sum,
    q_double_sum,
    q_single_sum,
    reduced_sum_residue,
    weighted_conv_sum,
)


# --- oracles -----------------------------------------------------------------


def direct_inner(k):
    return sum(
        math.comb(2 * j, j) * math.comb(2 * (k - j), k - j) * (6 * j + 1) * (6 * (k - j) + 1)
        for j in range(k + 1)
    )


def unreduced_term_value(family, k, q0):
    """Term value at a rational point via the raw shifted-factorial products."""
    if family == "c":
        num = (
            q_pochhammer(1, 1, 2, k)
            * q_pochhammer(-1, 1, 2, k) ** 2
            * q_integer(6 * k + 1)
            * QPoly.q_power(3 * k * k)
            * (-1) ** k
        )
    else:
        num = (
            q_pochhammer(1, 2, 4, k)
            * q_pochhammer(-1, 1, 2, k) ** 2
            * q_integer(6 * k + 1)
            * QPoly.q_power(k * k)
        )
    den = q_pochhammer(1, 4, 4, k) * q_pochhammer(-1, 4, 4, k) ** 2
    return num(q0) / den(q0)


def naive_single_sum(term, n):
    acc = QRat(0)
    for k in range(n):
        acc = acc + term(k)
    return acc


def naive_double_sum(term, n):
    acc = QRat(0)
    for k in range(n):
        for j in range(k + 1):
            acc = acc + term(j) * term(k - j)
    return acc


def valuation_residue(num, den_binomials, n):
    """Trial-division verdict: divide Phi_d out of num m_d times for each d | n, d > 1."""
    mults = _cyclotomic_multiplicities(den_binomials)[1]
    for d in range(2, n + 1):
        for _ in range(mults[d] if n % d == 0 else 0):
            num, rem = divrem(num, cyclotomic(d))
            if not rem.is_zero:
                raise DenominatorNotCoprime(f"Phi_{d}")
    return divrem(fold_mod_qn_minus_1(num, n), q_integer(n))[1]


def local_residue(num, den_binomials, n):
    """The local verdict on a dense numerator given as a QPoly."""
    return _local_verdict(lambda d, r: _dense_local(list(num.coeffs), d, r), den_binomials, n)


# --- integer convolution sums ---------------------------------------------------


def test_inner_conv_sum_examples():
    assert inner_conv_sum(0) == 1
    assert inner_conv_sum(1) == 28  # 14 + 14
    assert inner_conv_sum(2) == 352  # 78 + 196 + 78


def test_inner_closed_examples():
    assert inner_closed(0) == 1
    assert inner_closed(1) == 28
    assert inner_closed(2) == 352


def test_inner_conv_matches_direct_and_closed():
    for k in range(120):
        direct = direct_inner(k)
        assert inner_conv_sum(k) == direct
        assert inner_closed(k) == direct


def test_plain_conv_sum():
    assert plain_conv_sum(0) == 1
    assert plain_conv_sum(3) == 64
    assert plain_conv_sum(10) == 4**10
    for k in range(80):
        assert plain_conv_sum(k) == 4**k


def test_weighted_conv_sum():
    assert weighted_conv_sum(0) == 0
    assert weighted_conv_sum(1) == 0
    assert weighted_conv_sum(2) == 4  # 16*2*1/8
    for k in range(80):
        assert weighted_conv_sum(k) == 4**k * k * (k - 1) // 8


def test_reflection_symmetry():
    # summing j in reverse visits the reflected summands and must agree
    for k in range(40):
        rev = sum(
            math.comb(2 * (k - j), k - j) * math.comb(2 * j, j) * (6 * (k - j) + 1) * (6 * j + 1)
            for j in reversed(range(k + 1))
        )
        assert inner_conv_sum(k) == rev
        assert weighted_conv_sum(k) == sum(
            math.comb(2 * j, j) * math.comb(2 * (k - j), k - j) * (k - j) * j
            for j in reversed(range(k + 1))
        )


def test_double_sum_examples():
    for x in (Fraction(2), Fraction(-1, 8), Fraction(99, 7)):
        assert double_sum(1, x) == 1
    assert double_sum(3, Fraction(-1, 8)) == 3  # 1 - 28/8 + 352/64
    assert double_sum(2, Fraction(1, 4)) == 8  # 1 + 28/4


def test_double_sum_specialization_to_halved_quadratic():
    for n in range(1, 60):
        assert double_sum(n, Fraction(1, 4)) == sum(
            Fraction(9 * k * k + 3 * k + 2, 2) for k in range(n)
        )


def test_double_sum_rejects_n_below_1():
    with pytest.raises(ValueError):
        double_sum(0, Fraction(1, 4))


@pytest.mark.parametrize(
    "x", [0, 3, -2, Fraction(1, 4), Fraction(-1, 8), Fraction(3, 7), Fraction(-5, 2), Fraction(99, 7)]
)
def test_double_sum_equals_naive_fraction_accumulation(x):
    # integer and zero weights, and numerators other than +-1
    for n in range(1, 41):
        naive, xk = Fraction(0), Fraction(1)
        for k in range(n):
            naive += xk * direct_inner(k)
            xk *= x
        value = double_sum(n, x)
        assert type(value) is Fraction
        assert value == naive, (n, x)


# --- q-series terms ----------------------------------------------------------------


def test_c_q_term_zero_is_one():
    assert c_q_term(0) == QRat(1)
    assert cp_q_term(0) == QRat(1)


def test_c_q_term_one_reduced_form():
    # -[7] q^3 (1+q) / ((1+q^2)(1+q^4)^2)
    num = -(q_integer(7) * QPoly([1, 1])).shift(3)
    den = QPoly([1, 0, 1]) * QPoly([1, 0, 0, 0, 1]) ** 2
    assert c_q_term(1) == QRat(num, den)


def test_cp_q_term_one_reduced_form():
    # (1-q^2)/(1-q^4) = 1/(1+q^2), then multiply by (1+q)^2/(1+q^4)^2:
    # [7] q (1+q)^2 / ((1+q^2)(1+q^4)^2)
    num = (q_integer(7) * QPoly([1, 1]) ** 2).shift(1)
    den = QPoly([1, 0, 1]) * QPoly([1, 0, 0, 0, 1]) ** 2
    assert cp_q_term(1) == QRat(num, den)


@pytest.mark.parametrize("family,term", [("c", c_q_term), ("cp", cp_q_term)])
def test_terms_match_unreduced_products_by_evaluation(family, term):
    for k in range(12):
        for q0 in (Fraction(2), Fraction(3), Fraction(-1, 2)):
            assert term(k).evaluate(q0) == unreduced_term_value(family, k, q0)


def test_term_denominators_have_only_even_cyclotomic_content():
    # reduced denominators must stay coprime to [n] for every odd n
    from qcong.sums import _reduced_term

    for family in ("c", "cp"):
        for k in range(10):
            exps = _reduced_term(family, k)[2]
            assert all(d % 2 == 0 for d, e in exps if e < 0), (family, k, exps)


def test_terms_reject_negative_k():
    with pytest.raises(ValueError):
        c_q_term(-1)
    with pytest.raises(ValueError):
        cp_q_term(-1)


# --- q sums ----------------------------------------------------------------------------


@pytest.mark.parametrize("term", [c_q_term, cp_q_term])
def test_q_single_sum_matches_naive(term):
    for n in range(1, 6):
        assert q_single_sum(term, n) == naive_single_sum(term, n)


@pytest.mark.parametrize("term", [c_q_term, cp_q_term])
def test_q_double_sum_matches_naive(term):
    for n in range(1, 4):
        assert q_double_sum(term, n) == naive_double_sum(term, n)


@pytest.mark.parametrize("term", [c_q_term, cp_q_term])
@pytest.mark.parametrize("q0", [Fraction(2), Fraction(-1, 3)])
def test_reduced_sums_match_term_values_beyond_naive_range(term, q0):
    # the naive QRat sums above are too slow past n = 5 (single) and n = 3 (double)
    values = [term(k).evaluate(q0) for k in range(11)]
    for n in range(1, 12, 2):
        s = q_single_sum(term, n)
        assert s.den.leading == 1, n
        assert s.evaluate(q0) == sum(values[:n]), n
    for n in range(1, 8, 2):
        pairs = sum(values[i] * values[j] for i in range(n) for j in range(n - i))
        assert q_double_sum(term, n).evaluate(q0) == pairs, n


def test_q_double_sum_trivial_instance():
    assert q_double_sum(c_q_term, 1) == QRat(1)
    assert q_double_sum(cp_q_term, 1) == QRat(1)


def test_q_double_sum_congruence_instances():
    assert congruent_zero_mod_qint(q_double_sum(c_q_term, 3), 3).holds
    assert congruent_zero_mod_qint(q_double_sum(cp_q_term, 3), 3).holds
    assert congruent_zero_mod_qint(q_single_sum(c_q_term, 3), 3).holds
    assert congruent_zero_mod_qint(q_single_sum(cp_q_term, 5), 5).holds


@pytest.mark.parametrize("term", [c_q_term, cp_q_term])
def test_folded_residues_agree_with_reduced_sums(term):
    for n in (1, 3, 5, 7, 9):
        assert folded_single_sum_residue(term, n).is_zero == (
            True if n == 1 else congruent_zero_mod_qint(q_single_sum(term, n), n).holds
        )
        assert folded_double_sum_residue(term, n).is_zero == (
            True if n == 1 else congruent_zero_mod_qint(q_double_sum(term, n), n).holds
        )


def test_folded_residue_detects_non_congruent_input():
    # drop the k=0 term: the remaining sum is no longer divisible by [3]
    broken = q_single_sum(c_q_term, 3) - QRat(1)
    assert not congruent_zero_mod_qint(broken, 3).holds


def _residue_mod_qint(images, n):
    acc = [0] * n
    for image in images:
        for e, c in enumerate(image):
            acc[e] += c
    return divrem(QPoly(acc), q_integer(n))[1]


@pytest.mark.parametrize("family", ["c", "cp"])
@pytest.mark.parametrize("n", [5, 9, 15])
def test_folded_images_negative_control(family, n):
    images = _folded_terms(family, n)
    assert _residue_mod_qint(images, n).is_zero
    # dropping the k=0 image breaks the congruence
    assert not _residue_mod_qint(images[1:], n).is_zero
    # terms with k > (n-1)/2 contain 1 - q^n (c) or 1 - q^2n (cp), and no
    # term denominator holds Phi_n, so each vanishes mod Phi_n on its own
    # (mod [n] = Phi_n for prime n); the last term vanishes mod all of [n],
    # so dropping it changes nothing
    phi_n = cyclotomic(n)
    for image in images[(n + 1) // 2 :]:
        assert divrem(QPoly(image), phi_n)[1].is_zero
    assert _residue_mod_qint(images[-1:], n).is_zero
    assert _residue_mod_qint(images[:-1], n).is_zero


@pytest.mark.parametrize("term", [c_q_term, cp_q_term])
@pytest.mark.parametrize("n", [3, 5, 9])
def test_reduced_double_sum_negative_control(term, n):
    # dropping the (0, 0) pair, t(0)^2 = 1, breaks the congruence
    assert not congruent_zero_mod_qint(q_double_sum(term, n) - 1, n).holds


@pytest.mark.parametrize("family,term", [("c", c_q_term), ("cp", cp_q_term)])
@pytest.mark.parametrize("double", [False, True])
def test_valuation_verdict_agrees_with_reduced_sums(family, term, double):
    build = q_double_sum if double else q_single_sum
    for n in range(3, 12, 2):
        s = build(term, n)
        num, den = _summed_numerator(family, n, double)
        num = QPoly(num)
        assert reduced_sum_residue(term, n, double).is_zero == congruent_zero_mod_qint(s, n).holds
        assert local_residue(num, den, n).is_zero == congruent_zero_mod_qint(s, n).holds
        # S + [n]/Phi_d vanishes modulo every Phi_e with e | n except Phi_d;
        # at n = 9, d = 3 the numerator then has exactly the Phi_3-adic
        # valuation of D, so the verdict must read the t^m_3 coefficient
        # of the local series, no deeper, to see the failure
        expanded_den = QPoly(_product_of_binomials(den))
        for d in range(2, n + 1):
            if n % d:
                continue
            p = divrem(q_integer(n), cyclotomic(d))[0]
            perturbed = num + p * expanded_den
            assert not local_residue(perturbed, den, n).is_zero, (n, d)
            assert not valuation_residue(perturbed, den, n).is_zero, (n, d)
            assert not congruent_zero_mod_qint(s + p, n).holds, (n, d)


@pytest.mark.parametrize("family,term", [("c", c_q_term), ("cp", cp_q_term)])
@pytest.mark.parametrize("double", [False, True])
def test_local_verdict_matches_trial_division_oracle(family, term, double):
    for n in range(1, 16, 2):
        num, den = _summed_numerator(family, n, double)
        residue = reduced_sum_residue(term, n, double)
        assert residue.is_zero == valuation_residue(QPoly(num), den, n).is_zero, n
        assert residue == local_residue(QPoly(num), den, n), n
        # q -> x(1 + t) is a ring map, so the series built from the term
        # binomials equals the one read off the expanded numerator; two
        # coefficients past the verdict, where a holding sum's series
        # no longer vanishes
        mults = _cyclotomic_multiplicities(den)[1]
        for d in range(2, n + 1):
            if n % d == 0:
                r = mults[d] + 3
                series = _local_sum(family, n, double, d, r)
                assert any(series[-d:]) and series == _dense_local(num, d, r), (n, d)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-9, 9), max_size=12),
    st.lists(st.integers(-9, 9), max_size=12),
    st.integers(1, 7),
    st.integers(1, 5),
    st.integers(0, 30),
)
def test_local_series_kernels_are_ring_maps(a, b, d, r, e):
    # q -> x(1 + t) is a ring map, so the kernels on local series agree
    # with the same product or shift taken on the polynomials
    def local(p):
        return _dense_local(p, d, r)

    assert _series_mul(local(a), local(b), d, r) == local(_list_mul(a, b))
    assert _series_qpow(local(a), e, d, r) == local([0] * e + a)


@pytest.mark.parametrize("family", ["c", "cp"])
@pytest.mark.parametrize("n", [3, 5, 9])
def test_valuation_verdict_negative_control(family, n):
    ms = [QPoly(m) for m in _assembled_numerators(family, n)]
    num, den = _summed_numerator(family, n, double=False)
    assert local_residue(QPoly(num), den, n).is_zero
    # dropping the k = 0 numerator breaks the single sum's congruence
    dropped = QPoly(num) - ms[0]
    assert not local_residue(dropped, den, n).is_zero
    assert not valuation_residue(dropped, den, n).is_zero
    # and dropping its (0, 0) pair breaks the double sum's
    num, den = _summed_numerator(family, n, double=True)
    assert local_residue(QPoly(num), den, n).is_zero
    dropped = QPoly(num) - ms[0] * ms[0]
    assert not local_residue(dropped, den, n).is_zero
    assert not valuation_residue(dropped, den, n).is_zero


@pytest.mark.parametrize("family", ["c", "cp"])
@pytest.mark.parametrize("n,depths", [
    (15, {3: 4, 5: 2}), (21, {3: 6, 7: 2}), (25, {5: 4}), (45, {3: 14, 5: 8, 9: 4, 15: 2}),
])
def test_local_verdict_negative_control_at_depth(family, n, depths):
    # composite n where Phi_d divides D to a power m_d > 0, so the verdict
    # is read at t^m_d (single) or t^2m_d (double), not at t^0
    den = _common_den_binomials(n)
    mults = _cyclotomic_multiplicities(den)[1]
    assert {d: mults[d] for d in range(2, n) if n % d == 0} == depths

    def dropped(double):
        def local(d, r):
            first = _local_terms(family, n, d, r)[0]
            if double:
                first = _series_mul(first, first, d, r)
            return [a - b for a, b in zip(_local_sum(family, n, double, d, r), first)]
        return local

    # dropping the k = 0 term, or the (0, 0) pair, breaks the congruence
    assert not _local_verdict(dropped(False), den, n).is_zero
    assert not _local_verdict(dropped(True), den * 2, n).is_zero


def test_valuation_verdict_refuses_shared_denominator_factor():
    # over the n = 9 common denominator Phi_3 has multiplicity 2 and Phi_9 none
    den = _common_den_binomials(9)
    mults = _cyclotomic_multiplicities(den)[1]
    assert (mults[3], mults[9]) == (2, 0)
    phi3, phi9, unit = cyclotomic(3), cyclotomic(9), QPoly([1, 2])

    def residue(num):
        return local_residue(num, den, 9)

    for v in (0, 1):
        with pytest.raises(DenominatorNotCoprime):
            residue(phi3**v * unit)
    assert not residue(phi3**2 * unit).is_zero
    assert not residue(phi3**3 * unit).is_zero
    assert not residue(phi3**2 * phi9 * unit).is_zero
    assert residue(phi3**3 * phi9 * unit).is_zero


@pytest.mark.parametrize("family,term", [("c", c_q_term), ("cp", cp_q_term)])
@pytest.mark.parametrize("n", [3, 5, 9])
def test_folded_double_sum_pair_sum_and_negative_control(family, term, n):
    images = [QPoly(image) for image in _folded_terms(family, n)]
    pairs = QPoly()
    for i in range(n):
        for j in range(n - i):
            pairs = pairs + fold_mod_qn_minus_1(images[i] * images[j], n)
    residue = divrem(pairs, q_integer(n))[1]
    assert residue.is_zero
    assert folded_double_sum_residue(term, n) == residue
    # dropping the (0, 0) pair breaks the congruence
    broken = pairs - fold_mod_qn_minus_1(images[0] * images[0], n)
    assert not divrem(broken, q_integer(n))[1].is_zero


@pytest.mark.parametrize("family", ["c", "cp"])
def test_folded_terms_are_integer_and_refuse_shared_denominator_factors(family):
    for n in range(1, 16, 2):
        assert all(type(c) is int for image in _folded_terms(family, n) for c in image)
    # the k=1 denominator carries Phi_4, which divides q^4 - 1
    with pytest.raises(DenominatorNotCoprime):
        _folded_terms(family, 4)


def test_folded_terms_cache_holds_a_default_scan():
    # a default-id congruence scan to --limit 33 touches 34 (family, n) keys
    for n in range(1, 34, 2):
        for family in ("c", "cp"):
            _folded_terms(family, n)
    hits = _folded_terms.cache_info().hits
    _folded_terms("c", 1)
    assert _folded_terms.cache_info().hits == hits + 1


def _image_exponents(family, n):
    """(sign, qpow, m_k) of the first n terms, m_k(d) = e_d(k) + L_d over the common denominator."""
    terms = [_reduced_term(family, k) for k in range(n)]
    common = {}
    for _, _, exps in terms:
        for d, e in exps:
            if e < 0:
                common[d] = max(common.get(d, 0), -e)
    out = []
    for sign, qpow, exps in terms:
        m = dict(common)
        for d, e in exps:
            m[d] = m.get(d, 0) + e
        out.append((sign, qpow, m))
    return out


def _mod_qint_oracle(coeffs, n):
    """Coefficients of the remainder modulo [n], by long division."""
    return divrem(QPoly(coeffs), q_integer(n))[1].coeffs


@pytest.mark.parametrize("family", ["c", "cp"])
def test_folded_images_match_full_degree_products(family):
    for n in range(1, 22, 2):
        images = _folded_terms(family, n)
        for k, (sign, qpow, m) in enumerate(_image_exponents(family, n)):
            full = [0] * qpow + [sign * c for c in _cyclotomic_product(sorted(m.items()))]
            assert images[k] == _mod_qint_oracle(_fold_list(full, n), n), (family, n, k)


exponent_vectors = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(0, 4), min_size=width, max_size=width), min_size=1, max_size=7
    )
)


@settings(max_examples=150, deadline=None)
@given(exponent_vectors, st.integers(1, 9))
def test_chain_split_and_products(rows, n):
    # exponent rows over the cyclotomic indices 1..width, zeros kept as entries
    mults = [Counter({d: e for d, e in enumerate(row, 1)}) for row in rows]
    us, vs, rs = _chain_split(mults)
    for k, m in enumerate(mults):
        assert us[k] + vs[k] + rs[k] == +m
        assert all(e >= 0 for e in rs[k].values())
        assert us[k] == reduce(and_, mults[k:])
        if k:
            assert not us[k - 1] - us[k]
            assert not vs[k] - vs[k - 1]
    # cyclotomic factors multiplied modulo [n], as the folded pipeline does
    phis = {d: _fold_list(cyclotomic(d).coeffs, n) for d in range(1, len(rows[0]) + 1)}
    chained = _chain_products(
        mults, [1], lambda a, d: _mul_mod_qn(a, phis[d], n), lambda a, b: _mul_mod_qn(a, b, n)
    )
    direct = [_mod_qint_oracle(_fold_list(_cyclotomic_product(sorted(m.items())), n), n) for m in mults]
    assert [tuple(p) for p in chained] == direct
    # and in a ring unrelated to both pipelines: integer factors f, prod f^e
    primes = [2, 3, 5, 7]
    ints = [Counter({primes[d - 1]: e for d, e in m.items()}) for m in mults]
    products = _chain_products(ints, 1, operator.mul, operator.mul)
    assert products == [math.prod(f**e for f, e in m.items()) for m in ints]


@st.composite
def operands_mod_qint(draw):
    n = draw(st.integers(1, 15))
    operand = st.lists(st.integers(-50, 50), max_size=n)
    return draw(operand), draw(operand), n


@settings(max_examples=300, deadline=None)
@given(operands_mod_qint())
@example(([3], [-2], 1))
@example(([1], [1], 1))
@example(([0, 0, 0], [1, 2, 3], 3))
@example(([], [5, 0, -1, 4], 5))
@example(([1, 1, 1, 1, 1, 1, 1], [0, 1], 7))
def test_mul_mod_qn_is_the_product_modulo_q_integer(operands):
    a, b, n = operands
    assert tuple(_mul_mod_qn(list(a), list(b), n)) == _mod_qint_oracle(_list_mul(a, b), n)


@pytest.mark.parametrize("family", ["c", "cp"])
def test_folded_images_are_residues_mod_q_integer(family):
    for n in range(1, 22, 2):
        images = _folded_terms(family, n)
        assert all(len(image) < n for image in images), (family, n)
        if is_odd_prime(n):
            # terms with k > (n-1)/2 vanish modulo Phi_n = [n]
            assert not any(images[(n + 1) // 2 :]), (family, n)
    assert _folded_terms(family, 1) == ((),)


@pytest.mark.parametrize("family,check", [("c", "check_eq1"), ("cp", "check_eq2"),
                                          ("c", "check_eq3"), ("cp", "check_eq4")])
@pytest.mark.parametrize("n", [5, 9, 15])
def test_failing_folded_residue_is_the_full_degree_remainder(monkeypatch, family, check, n):
    # drop the k = 0 image; the failing record's residue must be the
    # remainder modulo [n] of the same sum built at full degree
    real = _folded_terms(family, n)
    monkeypatch.setattr(sums, "_folded_terms", lambda f, m: ((),) + real[1:])
    full = [
        QPoly([0] * qpow + [sign * c for c in _cyclotomic_product(sorted(m.items()))])
        for sign, qpow, m in _image_exponents(family, n)
    ]
    full[0] = QPoly()
    if check in ("check_eq1", "check_eq2"):
        total = sum(full, QPoly())
    else:
        total = sum((full[i] * full[j] for i in range(n) for j in range(n - i)), QPoly())
    expected = divrem(total, q_integer(n))[1]
    report = getattr(congruence, check)(n)
    assert not report.holds
    assert not expected.is_zero
    assert report.lhs_residue == expected


def test_folded_terms_share_their_products(monkeypatch):
    # one multiply per cyclotomic factor would be sum_k sum_d m_k(d) products
    n, calls = 45, []
    real = sums._mul_mod_qn
    monkeypatch.setattr(sums, "_mul_mod_qn", lambda a, b, m: calls.append(m) or real(a, b, m))
    factors = 0
    for family in ("c", "cp"):
        _folded_terms.__wrapped__(family, n)
        factors += sum(sum(m.values()) for _, _, m in _image_exponents(family, n))
    assert 0 < len(calls) < factors / 5


def test_local_terms_share_their_products(monkeypatch):
    # one local multiply per binomial would be sum_k |m_k| _series_qpow calls,
    # m_k the numerator binomials of term k and the cofactor D / its denominator
    n = 45
    full = Counter(_common_den_binomials(n))
    real = sums._series_qpow
    for family in ("c", "cp"):
        calls = []
        monkeypatch.setattr(sums, "_series_qpow", lambda *args: calls.append(1) or real(*args))
        _local_terms(family, n, 3, 2)
        monkeypatch.undo()
        factors = sum(
            sum((Counter(num) + (full - Counter(den))).values())
            for _, _, num, den in (sums._term_binomials(family, k) for k in range(n))
        )
        assert 0 < len(calls) < factors / 10, family
