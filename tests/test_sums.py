"""Convolution sums and q-series terms against direct-summation oracles."""

import math
from fractions import Fraction

import pytest

from qcong.errors import DenominatorNotCoprime
from qcong.qring import (
    QPoly,
    QRat,
    congruent_zero_mod_qint,
    cyclotomic,
    divrem,
    q_integer,
    q_pochhammer,
)
from qcong.sums import (
    _folded_terms,
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


@pytest.mark.parametrize("family", ["c", "cp"])
def test_folded_terms_are_integer_and_refuse_shared_denominator_factors(family):
    for n in range(1, 16, 2):
        assert all(type(c) is int for image in _folded_terms(family, n) for c in image)
    # the k=1 denominator carries Phi_4, which divides q^4 - 1
    with pytest.raises(DenominatorNotCoprime):
        _folded_terms(family, 4)
