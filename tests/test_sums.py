"""Convolution sums and q-series terms against direct-summation oracles."""

import contextlib
import math
import operator
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from qcong.bigmath import is_odd_prime, rational_mod
from qcong.closedform import special_q_neg_half
from qcong.errors import DenominatorNotCoprime, EvenN
from qcong.qring import (
    ONE,
    QPoly,
    QRat,
    _fold_list,
    _int_divmod_unit_lead,
    _list_mul,
    _product_of_binomials,
    congruent_zero_mod_qint,
    cyclotomic,
    divrem,
    fold_mod_qn_minus_1,
    q_integer,
    q_pochhammer,
)
from qcong import cli, congruence, sums
from qcong.sums import (
    _assembled_numerators,
    _chain_split,
    _common_den_binomials,
    _cyclic_mul,
    _cyclotomic_multiplicities,
    _folded_terms,
    _local_images,
    _qint_mul,
    _reduced_term,
    _reduced_verdict,
    _rotate,
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


def dense_local(num, d, r):
    """Local series at q = x(1 + t), x^d = 1, of a dense integer polynomial, truncated at t^r.

    Entry j*d + a is the coefficient of t^j x^a: the sum of c_e C(e, j)
    over the exponents e = a mod d.
    """
    out = [0] * (r * d)
    for e, c in enumerate(num):
        if c:
            for j in range(min(r, e + 1)):
                out[j * d + e % d] += c * math.comb(e, j)
    return out


def local_verdicts(num, den_binomials, n):
    """Depth-(m_d + 1) reference verdicts {d: remainder} of a dense numerator N over D.

    Phi_d divides D m_d times, so the first m_d local coefficients of N at
    each d | n, d > 1, must vanish modulo Phi_d (DenominatorNotCoprime
    otherwise), and the t^m_d coefficient modulo Phi_d is the verdict.
    """
    mults = _cyclotomic_multiplicities(den_binomials)[1]
    out = {}
    for d in range(2, n + 1):
        if n % d:
            continue
        m, phi = mults[d], cyclotomic(d).coeffs
        series = dense_local(list(num.coeffs), d, m + 1)
        coeffs = [_int_divmod_unit_lead(series[j * d : (j + 1) * d], phi)[1] for j in range(m + 1)]
        if any(coeffs[:m]):
            raise DenominatorNotCoprime(f"Phi_{d}")
        out[d] = coeffs[m]
    return out


def local_residue(num, den_binomials, n):
    """The reference witness: the first nonzero verdict of local_verdicts, or zero."""
    return next((QPoly(c) for c in local_verdicts(num, den_binomials, n).values() if c), QPoly())


FAMILIES = {c_q_term: "c", cp_q_term: "cp"}

# the family names, with ids that also name each family's term function
BY_FAMILY = pytest.mark.parametrize("family", ["c", "cp"], ids=["c-c_q_term", "cp-cp_q_term"])


def sign_flips(n):
    """Terms whose sign is flipped for the perturbed sums: the ends and the middle."""
    return sorted({0, 1, n // 2, n - 1})


@contextlib.contextmanager
def patched_terms(patch):
    """Both term families with the binomials of term k replaced by patch(sign, qpow, num, den, k).

    Every term cache is cleared on entry and on exit.
    """
    real = sums._term_binomials
    caches = (_reduced_term, _folded_terms, _assembled_numerators, _local_images)
    for cache in caches:
        cache.cache_clear()
    sums._term_binomials = lambda family, k: patch(*real(family, k), k)
    try:
        yield
    finally:
        sums._term_binomials = real
        for cache in caches:
            cache.cache_clear()


@contextlib.contextmanager
def without_shared_kernel():
    """sums._cyclic_mul made to fail, so an oracle run inside shows it never multiplies with it."""

    def refuse(a, b, d):
        raise AssertionError("an oracle called the shared product kernel")

    real, sums._cyclic_mul = sums._cyclic_mul, refuse
    try:
        yield
    finally:
        sums._cyclic_mul = real


def sign_flipped(flip):
    """Both term families with term `flip` negated."""
    return patched_terms(lambda sign, qpow, num, den, k: (-sign if k == flip else sign, qpow, num, den))


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


def test_conv_sums_match_direct_summation_through_300():
    # every k <= 300: odd k has no middle term, even k adds a_(k/2)^2 once
    central = [math.comb(2 * j, j) for j in range(301)]
    for k in range(301):
        pairs = [(j, k - j, central[j] * central[k - j]) for j in range(k + 1)]
        assert inner_conv_sum(k) == sum(c * (6 * i + 1) * (6 * j + 1) for i, j, c in pairs), k
        assert plain_conv_sum(k) == sum(c for _, _, c in pairs), k
        assert weighted_conv_sum(k) == sum(c * i * j for i, j, c in pairs), k


@pytest.fixture
def fresh_weights(monkeypatch):
    # an empty central-binomial list and weight lists, so the test grows them from the start
    monkeypatch.setattr(sums, "_central", [1])
    sums._weights.cache_clear()
    inner_conv_sum.cache_clear()
    yield
    sums._weights.cache_clear()
    inner_conv_sum.cache_clear()


def test_central_binomial_list_is_math_comb_through_1500(fresh_weights):
    # grown by the ratio in two steps, so the second starts from a long list
    sums._self_convolution(0, 1, 700)
    sums._self_convolution(6, 1, 1500)
    assert sums._central == [math.comb(2 * j, j) for j in range(1501)]


@pytest.mark.parametrize("first", [inner_conv_sum, plain_conv_sum, weighted_conv_sum],
                         ids=["inner", "plain", "weighted"])
def test_the_three_weights_share_one_central_binomial_list(fresh_weights, first):
    central = sums._central
    first(90)
    assert len(central) == 91
    for conv in (inner_conv_sum, plain_conv_sum, weighted_conv_sum):
        conv(90)
        assert sums._central is central and len(central) == 91


def test_memos_grown_by_threads_hold_exact_values(fresh_weights):
    # threads switching every microsecond grow the central binomials, three
    # weight lists and one Horner run together; each writes entry j at index
    # j, so a thread that lags behind rewrites equal values and none is
    # misplaced.  A barrier starts the threads together, so their growth
    # overlaps instead of the first thread finishing before the last starts;
    # every other trial keeps the central binomials, so the threads go
    # straight to the weight lists
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            if trial % 2 == 0:
                sums._central[1:] = []
            sums._weights.cache_clear()
            inner_conv_sum.cache_clear()
            sums._horner_numerators.cache_clear()
            start = threading.Barrier(4)

            def grow(i):
                start.wait()
                plain_conv_sum(400 + i)
                weighted_conv_sum(380 + i)
                double_sum(299 - i, Fraction(-1, 8))

            with ThreadPoolExecutor(4) as pool:
                for future in [pool.submit(grow, i) for i in range(4)]:
                    future.result()
            assert sums._central == [math.comb(2 * j, j) for j in range(len(sums._central))]
            assert all(plain_conv_sum(k) == 4**k for k in range(404))
            assert all(weighted_conv_sum(k) == 4**k * k * (k - 1) // 8 for k in range(384))
            assert all(inner_conv_sum(k) == inner_closed(k) for k in range(420))
            assert all(double_sum(n, Fraction(-1, 8)) == special_q_neg_half(n) for n in range(1, 300))
    finally:
        sys.setswitchinterval(interval)
        sums._horner_numerators.cache_clear()


@pytest.mark.parametrize("order", ["large_first", "small_first"])
def test_conv_sums_match_schoolbook_in_either_call_order(fresh_weights, order):
    ks = range(241) if order == "small_first" else range(240, -1, -1)
    convs = [inner_conv_sum, plain_conv_sum, weighted_conv_sum]
    for step, k in enumerate(ks):
        pairs = [(j, k - j, math.comb(2 * j, j) * math.comb(2 * k - 2 * j, k - j)) for j in range(k + 1)]
        expected = {
            inner_conv_sum: sum(c * (6 * i + 1) * (6 * j + 1) for i, j, c in pairs),
            plain_conv_sum: sum(c for _, _, c in pairs),
            weighted_conv_sum: sum(c * i * j for i, j, c in pairs),
        }
        # a different weight grows the shared list first at each step
        for conv in convs[step % 3:] + convs[: step % 3]:
            assert conv(k) == expected[conv], (conv.__name__, k)


def test_convolution_without_middle_term_fails_eq12_at_even_k_only():
    real = sums._self_convolution

    def without_middle(slope, intercept, k):
        real(slope, intercept, k)  # grows the cached weights through k
        a, h = sums._weights(slope, intercept), (k + 1) // 2
        return 2 * sum(map(operator.mul, a[:h], a[k : k - h : -1]))

    sums._self_convolution = without_middle
    inner_conv_sum.cache_clear()
    try:
        holds = [cli._identity_instance(("eq12", k))["holds"] for k in range(40)]
    finally:
        sums._self_convolution = real
        inner_conv_sum.cache_clear()
    assert holds == [k % 2 == 1 for k in range(40)]
    assert all(cli._identity_instance(("eq12", k))["holds"] for k in range(40))


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
    for fn in (inner_conv_sum, inner_closed, plain_conv_sum, weighted_conv_sum):
        with pytest.raises(ValueError):
            fn(-1)


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


def naive_double_sums(x, n_max):
    """[0, S(1, x), ..., S(n_max, x)] by Fraction accumulation, no Horner run."""
    out, acc, xk = [Fraction(0)], Fraction(0), Fraction(1)
    for k in range(n_max):
        acc += xk * direct_inner(k)
        xk *= x
        out.append(acc)
    return out


def test_double_sum_shares_one_horner_run_per_weight_in_any_call_order():
    # one weight spelled three ways, interleaved with a second, in descending n
    quarter, eighth = naive_double_sums(Fraction(1, 4), 30), naive_double_sums(Fraction(-1, 8), 30)
    for _ in range(2):
        sums._horner_numerators.cache_clear()
        for n in range(30, 0, -1):
            for x in (Fraction(-1, 8), "-1/8", -0.125):
                assert double_sum(n, x) == eighth[n], (n, x)
            assert double_sum(n, Fraction(1, 4)) == quarter[n], n
        assert sums._horner_numerators.cache_info().currsize == 2


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
    # only the two term families have terms and sums
    with pytest.raises(ValueError):
        _reduced_term("x", 1)
    with pytest.raises(ValueError):
        q_single_sum(abs, 3)
    for fn in (q_single_sum, q_double_sum):
        with pytest.raises(ValueError):
            fn(c_q_term, 0)
    # the verdict pipelines take the family name, and refuse anything else
    # even at n = 1, where the reduced path has no divisor to build
    for fn in (folded_single_sum_residue, folded_double_sum_residue,
               lambda f, n: reduced_sum_residue(f, n, double=False)):
        for family, n in (("c", 0), ("x", 1), ("x", 3), (c_q_term, 1), (c_q_term, 3)):
            with pytest.raises(ValueError):
                fn(family, n)


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
    family = FAMILIES[term]
    for n in (1, 3, 5, 7, 9):
        assert folded_single_sum_residue(family, n).is_zero == (
            True if n == 1 else congruent_zero_mod_qint(q_single_sum(term, n), n).holds
        )
        assert folded_double_sum_residue(family, n).is_zero == (
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
        assert reduced_sum_residue(family, n, double).is_zero == congruent_zero_mod_qint(s, n).holds
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


@BY_FAMILY
@pytest.mark.parametrize("double", [False, True])
def test_local_verdict_matches_trial_division_oracle(family, double):
    for n in range(1, 16, 2):
        num, den = _summed_numerator(family, n, double)
        residue = reduced_sum_residue(family, n, double)
        assert residue.is_zero == valuation_residue(QPoly(num), den, n).is_zero, n
        assert residue == local_residue(QPoly(num), den, n), n
        # the reference series is not vacuous: two coefficients past the
        # verdict a holding sum's series no longer vanishes
        mults = _cyclotomic_multiplicities(den)[1]
        for d in range(2, n + 1):
            if n % d == 0:
                assert any(dense_local(num, d, mults[d] + 3)[-d:]), (n, d)


@pytest.mark.parametrize("family", ["c", "cp"])
def test_local_images_are_the_leading_local_coefficients(family):
    # q -> x(1 + t) is a ring map, so each numerator M_k expanded at full
    # degree has c_k >= m_d literally vanishing local coefficients, and its
    # t^m_d coefficient is image k: () exactly when c_k > m_d
    for n in range(3, 16, 2):
        den = _common_den_binomials(n)
        mults = _cyclotomic_multiplicities(den)[1]
        _assembled_numerators.cache_clear()
        for d in range(2, n + 1):
            if n % d:
                continue
            m, images = mults[d], _local_images(family, n)[d]
            assert any(images), (n, d)
            with without_shared_kernel():
                series = [dense_local(num, d, m + 1) for num in _assembled_numerators(family, n)]
            for k, image in enumerate(images):
                assert series[k] == [0] * (m * d) + (list(image) or [0] * d), (n, d, k)


@BY_FAMILY
@pytest.mark.parametrize("double", [False, True])
def test_reduced_verdict_matches_oracle_on_sign_flips(family, double):
    # one term's sign flipped breaks the sum at most divisors; each per-d
    # verdict must still equal the reference one, zero or not; the
    # reference flips the expanded numerator, the pipeline its binomials,
    # and the reference sums here, not by the pipelines' _term_sum: the
    # pairs i + j < n of a double sum are term n-1-j times the prefix P(j)
    cases = failing = 0
    for n in range(3, 22, 2):
        ms = [QPoly(m) for m in _assembled_numerators(family, n)]
        den = _common_den_binomials(n) * (2 if double else 1)
        for flip in sign_flips(n):
            items = [-m if k == flip else m for k, m in enumerate(ms)]
            with without_shared_kernel():
                num = prefix = QPoly()
                for j, item in enumerate(items):
                    prefix = prefix + item
                    num = num + (items[-1 - j] * prefix if double else item)
                expected = local_verdicts(num, den, n)
            with sign_flipped(flip):
                assert {d: _reduced_verdict(family, n, d, double) for d in expected} == expected
                assert reduced_sum_residue(family, n, double) == local_residue(num, den, n)
            cases += len(expected)
            failing += sum(map(bool, expected.values()))
    assert failing > cases / 2, (failing, cases)


@pytest.mark.parametrize("family", ["c", "cp"])
@pytest.mark.parametrize("double", [False, True])
def test_reduced_residue_stops_at_the_first_failing_divisor(monkeypatch, family, double):
    # with term 0 flipped the sum fails at every d | 15; the witness is the
    # verdict at d = 3, so those at 5 and 15 are never computed, while a
    # holding sum needs all three
    real, seen = sums._reduced_verdict, []

    def counted(family, n, d, double):
        seen.append(d)
        return real(family, n, d, double)

    monkeypatch.setattr(sums, "_reduced_verdict", counted)
    with sign_flipped(0):
        residue = reduced_sum_residue(family, 15, double)
        assert seen == [3]
        assert not residue.is_zero and residue == QPoly(real(family, 15, 3, double))
    seen.clear()
    assert reduced_sum_residue(family, 15, double).is_zero
    assert seen == [3, 5, 15]


@BY_FAMILY
@pytest.mark.parametrize("double", [False, True])
def test_folded_and_reduced_verdicts_agree_per_divisor_on_sign_flips(family, double):
    # a negative control across the two pipelines: for every d | n the
    # folded residue vanishes modulo Phi_d iff the reduced verdict at d does
    fold = folded_double_sum_residue if double else folded_single_sum_residue
    cases = failing = 0
    for n in range(3, 22, 2):
        for flip in sign_flips(n):
            with sign_flipped(flip):
                residue = fold(family, n)
                for d in range(2, n + 1):
                    if n % d == 0:
                        folded = divrem(residue, cyclotomic(d))[1].is_zero
                        assert folded == (not _reduced_verdict(family, n, d, double)), (n, flip, d)
                        cases += 1
                        failing += not folded
    assert failing > cases / 2, (failing, cases)


@pytest.mark.parametrize("term", [c_q_term, cp_q_term])
def test_pipelines_refuse_a_term_denominator_sharing_a_factor_with_q_integer(term):
    # term 0 made (1 - q) / D_9: Phi_3 divides D_9 twice and M_0 = 1 - q
    # not at all, so c_0 = 0 < m_3 = 2 and Phi_3 stays in the denominator
    wide = _common_den_binomials(9)
    with patched_terms(lambda sign, qpow, num, den, k: (sign, qpow, num, wide if k == 0 else den)):
        for double in (False, True):
            with pytest.raises(DenominatorNotCoprime):
                reduced_sum_residue(FAMILIES[term], 9, double)
        with pytest.raises(DenominatorNotCoprime):
            folded_single_sum_residue(FAMILIES[term], 9)


def test_reduced_verdict_refuses_even_n():
    # at even d a binomial 1 + q^m vanishes at zeta_d too, which the count
    # of vanishing binomials misses, so even n is refused as the checks do
    for n in (2, 4, 6, 10):
        for double in (False, True):
            with pytest.raises(EvenN):
                reduced_sum_residue("c", n, double)
            with pytest.raises(EvenN):
                congruence.check_eq1(n, method="reduced")


def test_single_and_double_sums_share_one_build_per_n():
    # eq1 then eq3 at one n build the (family, n) images once: each check
    # reads them for its divisors and once per divisor, and only the first
    # read builds
    n = 45
    _local_images.cache_clear()
    congruence.check_eq1(n, method="reduced")
    divisors = sum(1 for d in range(2, n + 1) if n % d == 0)
    assert _local_images.cache_info()[:2] == (divisors, 1)
    congruence.check_eq3(n, method="reduced")
    assert _local_images.cache_info()[:2] == (2 * divisors + 1, 1)


@pytest.mark.parametrize("family", ["c", "cp"])
def test_term_numerators_are_prefixes_of_the_last_pochhammer_list(family):
    # term k's numerator is the first 3k Pochhammer binomials of any later
    # term's, step by step, then (1 - q^(6k+1)); its denominator is D_(k+1)
    for n in range(2, 46):
        last = sums._term_binomials(family, n - 1)[2][:-1]
        full = _common_den_binomials(n)
        for k in range(n):
            num, den = sums._term_binomials(family, k)[2:]
            assert num[:-1] == last[: 3 * k], (n, k)
            assert num[-1] == (1, 6 * k + 1), (n, k)
            assert den == full[: 3 * k + 1], (n, k)


def test_local_images_build_the_terms_once_for_every_divisor(monkeypatch):
    # 45 has the 5 divisors 3, 5, 9, 15, 45 above 1; all of them read one
    # set of the n term binomial lists
    n, calls = 45, []
    real = sums._term_binomials
    monkeypatch.setattr(sums, "_term_binomials", lambda family, k: calls.append(k) or real(family, k))
    for family in ("c", "cp"):
        calls.clear()
        images = _local_images.__wrapped__(family, n)
        assert sorted(images) == [3, 5, 9, 15, 45], family
        assert len(calls) == n, family


def test_reduced_build_holds_one_term_of_binomial_lists(monkeypatch):
    # each term's two binomial lists are read into a few numbers and let go,
    # so when term k is asked for, only term k - 1's pair is still alive;
    # holding all n terms' lists would cost O(n^2) memory
    class Binomials(list):
        """A list that can be weakly referenced."""

    real, live, peaks = sums._term_binomials, [0], []

    def release():
        live[0] -= 1

    def counted(family, k):
        peaks.append(live[0])
        sign, qpow, num, den = real(family, k)
        num, den = Binomials(num), Binomials(den)
        for fs in (num, den):
            live[0] += 1
            weakref.finalize(fs, release)
        return sign, qpow, num, den

    monkeypatch.setattr(sums, "_term_binomials", counted)
    _local_images.__wrapped__("c", 45)
    assert len(peaks) == 45
    assert max(peaks) <= 2, max(peaks)


@st.composite
def cyclic_operands(draw):
    # operands of length up to d, empty to dense; 0 and +-1 often, so the
    # +1, -1 and generic branches and the swap to the sparser side all run
    d = draw(st.integers(1, 31))
    operand = st.lists(st.sampled_from([0, 1, -1]) | st.integers(-60, 60), max_size=d)
    return draw(operand), draw(operand), d, draw(st.integers(0, 3 * d))


@settings(max_examples=300, deadline=None)
@given(cyclic_operands())
@example(([], [], 1, 0))
@example(([], [4, -1, 0, 2], 5, 3))
@example(([1] * 31, [2, -1] * 15 + [7], 31, 40))
@example(([0, 0, 3], [1, -1, 1, -1, 5], 5, 1))
@example(([-1, 1, 2], [5], 3, 2))
def test_local_series_kernels_are_ring_maps(operands):
    # q -> x with x^d = 1 is a ring map, so the shared kernels agree with
    # the same product or shift taken on the polynomials and then folded
    a, b, d, e = operands

    def image(p):
        folded = _fold_list(p, d)
        return folded + [0] * (d - len(folded))

    before = (list(a), list(b))
    assert _cyclic_mul(a, b, d) == image(_list_mul(a, b))
    assert (a, b) == before
    assert _cyclic_mul(image(a), image(b), d) == image(_list_mul(a, b))
    assert _rotate(image(a), e) == image([0] * e + a)


def cyclic_schoolbook(a, b, d):
    out = [0] * d
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % d] += x * y
    return out


@st.composite
def dense_cyclic_operands(draw):
    # both operands dense and at least 65 long, so nnz * d passes the
    # 2,048 at which _cyclic_mul switches to packing; the oracle never packs
    d = draw(st.integers(65, 130))
    coeff = st.sampled_from([1, -1]) | st.integers(-60, 60).filter(bool)
    operand = st.lists(coeff, min_size=65, max_size=d)
    return draw(operand), draw(operand), d


@settings(max_examples=40, deadline=None)
@given(dense_cyclic_operands())
@example(([1] * 130, [-1, 2] * 65, 130))
@example(([7] * 65, [-3] * 65, 65))
@example(([1, -1, 60, -60] * 32 + [5, 1], list(range(1, 131)), 130))
def test_cyclic_mul_above_the_packing_threshold(operands):
    a, b, d = operands
    assert min(len(a) - a.count(0), len(b) - b.count(0)) * d > 2048
    assert _cyclic_mul(a, b, d) == cyclic_schoolbook(a, b, d)
    assert _cyclic_mul(b, a, d) == cyclic_schoolbook(a, b, d)


@st.composite
def sparse_by_dense_cyclic_operands(draw):
    # d above 64 as above, but the sparser operand has at most 2048 // d
    # nonzeros, so _cyclic_mul keeps its rotated-slice branch
    d = draw(st.integers(65, 130))
    coeff = st.sampled_from([1, -1]) | st.integers(-60, 60).filter(bool)
    length = draw(st.integers(1, d))
    spots = draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=2048 // d, unique=True))
    sparse = [0] * length
    for i in spots:
        sparse[i] = draw(coeff)
    return sparse, draw(st.lists(coeff, min_size=65, max_size=d)), d


@settings(max_examples=40, deadline=None)
@given(sparse_by_dense_cyclic_operands())
@example(([1] + [0] * 129, [1] * 130, 130))
@example(([0] * 64 + [-7], [3, -1] * 32 + [5], 65))
@example(([2, 0, 0, 0, 0, 0, 0, 0] * 16, list(range(-64, 64)), 128))  # 16 * 128 = 2048
def test_cyclic_mul_below_the_packing_threshold_at_large_d(operands):
    a, b, d = operands
    assert (len(a) - a.count(0)) * d <= 2048
    assert _cyclic_mul(a, b, d) == cyclic_schoolbook(a, b, d)
    assert _cyclic_mul(b, a, d) == cyclic_schoolbook(a, b, d)


def test_cyclic_mul_packed_zero_image_keeps_length_d():
    # every coefficient of [1] * 65 times b is the sum of b's, here 0;
    # 64 * 65 nonzero products take the packed branch, whose fold must keep all 65 coefficients
    a, b = [1] * 65, [1, -1] * 32 + [0]
    assert (len(b) - b.count(0)) * 65 > 2048
    assert _cyclic_mul(a, b, 65) == [0] * 65
    assert _cyclic_mul(b, a, 65) == [0] * 65


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
def test_local_verdict_negative_control_at_depth(monkeypatch, family, n, depths):
    # composite n where Phi_d divides D to a power m_d > 0, so the verdict
    # is read at t^m_d (single) or t^2m_d (double), not at t^0
    den = _common_den_binomials(n)
    mults = _cyclotomic_multiplicities(den)[1]
    assert {d: mults[d] for d in range(2, n) if n % d == 0} == depths
    # term 0 is 1, so M_0 = D / (1 - q) has c_0 = m_d at every d > 1 and
    # a nonzero image; dropping it breaks the single sum at every d, and
    # the double sum too: the pairs with term 0 add up to 2 t(0) times the
    # single sum, minus t(0)^2, so they leave -t(0)^2 = -1 at every d
    real = _local_images
    monkeypatch.setattr(
        sums, "_local_images", lambda f, m: {d: ((),) + images[1:] for d, images in real(f, m).items()}
    )
    for double in (False, True):
        assert all(_reduced_verdict(family, n, d, double) for d in range(2, n + 1) if n % d == 0)


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


def folded_pair_sum(family, n):
    """The images of _folded_terms as QPolys, and their pair sum over i + j < n folded mod q^n - 1."""
    images = [QPoly(image) for image in _folded_terms(family, n)]
    pairs = QPoly()
    for i in range(n):
        for j in range(n - i):
            pairs = pairs + fold_mod_qn_minus_1(images[i] * images[j], n)
    return images, pairs


@BY_FAMILY
@pytest.mark.parametrize("n", [3, 5, 9])
def test_folded_double_sum_pair_sum_and_negative_control(family, n):
    images, pairs = folded_pair_sum(family, n)
    residue = divrem(pairs, q_integer(n))[1]
    assert residue.is_zero
    assert folded_double_sum_residue(family, n) == residue
    # dropping the (0, 0) pair breaks the congruence
    broken = pairs - fold_mod_qn_minus_1(images[0] * images[0], n)
    assert not divrem(broken, q_integer(n))[1].is_zero


@BY_FAMILY
@pytest.mark.parametrize("n", [3, 5, 9])
def test_folded_double_sum_is_the_pair_sum_on_a_sign_flip(family, n):
    # on real instances every residue is zero, so a pipeline returning the
    # single sum would pass above; with term 0 negated the residue is not
    with sign_flipped(0):
        residue = divrem(folded_pair_sum(family, n)[1], q_integer(n))[1]
        assert not residue.is_zero
        assert folded_double_sum_residue(family, n) == residue


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
            with without_shared_kernel():
                product = math.prod((cyclotomic(d) ** e for d, e in m.items()), start=ONE)
                full = [0] * qpow + [sign * c for c in product]
                expected = _mod_qint_oracle(_fold_list(full, n), n)
            assert images[k] == expected, (family, n, k)


exponent_rows = st.integers(0, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(0, 4), min_size=width, max_size=width), min_size=1, max_size=7
    )
)


@settings(max_examples=150, deadline=None)
@given(exponent_rows)
def test_chain_split_invariants(rows):
    # one exponent per column, zeros kept as entries; the chains multiply
    # in only their increments, so u may only grow with k and v only shrink
    us, vs, rs = _chain_split(rows)
    for k, m in enumerate(rows):
        assert list(map(sum, zip(us[k], vs[k], rs[k]))) == m
        assert min(vs[k] + rs[k], default=0) >= 0
        assert us[k] == [min(col) for col in zip(*rows[k:])]
        if k:
            assert all(map(operator.le, us[k - 1], us[k]))
            assert all(map(operator.ge, vs[k - 1], vs[k]))


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
    assert tuple(_qint_mul(a, b, n)) == _mod_qint_oracle(_list_mul(a, b), n)


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

    def without_first(f, m):
        assert (f, m) == (family, n)
        return ((),) + real[1:]

    monkeypatch.setattr(sums, "_folded_terms", without_first)
    full = [
        math.prod((cyclotomic(d) ** e for d, e in m.items()), start=ONE).shift(qpow) * sign
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
    # one multiply per cyclotomic factor would be sum_k sum_d m_k(d) products;
    # at n = 45 the chain plan of "c" takes exactly 1,357, none of them on
    # an image that is already zero, and "cp", read off the cached "c",
    # one per nonzero image of "c": 43
    n, calls = 45, []
    c_images = _folded_terms("c", n)
    real = sums._cyclic_mul
    monkeypatch.setattr(sums, "_cyclic_mul", lambda a, b, m: calls.append(m) or real(a, b, m))
    factors = 0
    for family in ("c", "cp"):
        _folded_terms.__wrapped__(family, n)
        factors += sum(sum(m.values()) for _, _, m in _image_exponents(family, n))
    assert 0 < len(calls) < factors / 5
    assert sum(map(bool, c_images)) == 43
    assert len(calls) == 1357 + 43


@pytest.mark.parametrize("family", ["c", "cp"])
def test_folded_terms_split_the_numerator_exponents(monkeypatch, family):
    # the chain plan gets one row m_k = e(k) + L per term of "c", a column
    # per cyclotomic index, ascending: the exponents over the common
    # denominator; "cp" splits no rows of its own and reads no exponents
    # of its own, it is built from the images of "c"
    n, seen, families = 21, [], set()
    real_split, real_term = sums._chain_split, sums._reduced_term
    _folded_terms.cache_clear()
    monkeypatch.setattr(sums, "_chain_split", lambda rows: seen.append(rows) or real_split(rows))
    monkeypatch.setattr(sums, "_reduced_term", lambda f, k: families.add(f) or real_term(f, k))
    _folded_terms.__wrapped__(family, n)
    ms = [m for _, _, m in _image_exponents("c", n)]
    ds = sorted(set().union(*ms))
    assert seen == [[[m.get(d, 0) for d in ds] for m in ms]]
    assert families == {"c"}


def test_cp_exponents_are_those_of_c_times_the_odd_plus_pochhammer():
    # (q^2;q^4)_k = (q;q^2)_k (-q;q^2)_k, so c'(k) = (-1)^k q^(-2k^2) B_k c(k)
    # with B_k = prod_{i<k} (1 + q^(2i+1)): the premise on which
    # _folded_terms builds the images of "cp" from those of "c"
    b = {}
    for k in range(300):
        if k:
            m = 2 * k - 1  # Phi_d divides 1 + q^m iff d | 2m and d does not divide m
            for d in range(1, 2 * m + 1):
                if 2 * m % d == 0 and m % d:
                    b[d] = b.get(d, 0) + 1
        sign_c, qpow_c, exps_c = _reduced_term("c", k)
        sign_cp, qpow_cp, exps_cp = _reduced_term("cp", k)
        expected = dict(exps_c)
        for d, e in b.items():
            expected[d] = expected.get(d, 0) + e
        assert exps_cp == tuple(sorted((d, e) for d, e in expected.items() if e)), k
        assert (sign_cp, qpow_cp) == ((-1) ** k * sign_c, qpow_c - 2 * k * k), k


def test_c_and_cp_share_one_common_denominator_on_indices_divisible_by_four():
    # L_d = max over k < n of -e_d(k); B_k's factors 1 + q^(2i+1) carry only
    # d = 2 mod 4, so the images of "cp" are over the L of "c"
    common = {"c": {}, "cp": {}}
    for k in range(199):
        for family, den in common.items():
            for d, e in _reduced_term(family, k)[2]:
                if e < 0:
                    den[d] = max(den.get(d, 0), -e)
        n = k + 1
        if n % 2:
            assert common["c"] == common["cp"], n
            assert all(d % 4 == 0 for d in common["c"]), n
    assert common["c"]


def test_folded_terms_build_no_counter(monkeypatch):
    # the folded build reads the cached exponent tuples into dense rows;
    # a Counter anywhere in it would be bookkeeping the rows replace
    n = 45
    for family in ("c", "cp"):
        for k in range(n):
            _reduced_term(family, k)

    def refuse(*args, **kwargs):
        raise AssertionError("the folded build made a Counter")

    monkeypatch.setattr(sums, "Counter", refuse)
    for family in ("c", "cp"):
        assert _folded_terms.__wrapped__(family, n) == _folded_terms(family, n)


def test_local_terms_share_their_products(monkeypatch):
    # one depth-1 multiply per binomial would be sum_k |m_k| calls of times,
    # m_k the numerator binomials of the built term k and the cofactor
    # D / its denominator, over every divisor; the chains multiply in far
    # fewer, and each built image is one product of a prefix and a suffix
    n = 45
    full = _common_den_binomials(n)
    real_mul, real_rotate = sums._cyclic_mul, sums._rotate

    def refuse(*args):
        raise AssertionError("the reduced build called the folded pipeline's plan")

    for family in ("c", "cp"):
        products, rotations = [], []
        monkeypatch.setattr(sums, "_cyclic_mul", lambda a, b, d: products.append(d) or real_mul(a, b, d))
        monkeypatch.setattr(sums, "_rotate", lambda a, e: rotations.append(e) or real_rotate(a, e))
        monkeypatch.setattr(sums, "_chain_split", refuse)
        images = _local_images.__wrapped__(family, n)
        monkeypatch.undo()
        terms = [sums._term_binomials(family, k) for k in range(n)]
        built = [terms[k] for d in images for k, image in enumerate(images[d]) if image]
        assert len(products) == len(built), family
        binomials = sum(len(num) + len(full) - len(den) for _, _, num, den in built)
        assert 0 < len(rotations) < binomials / 10, family


# --- the q -> 1 bridge ---------------------------------------------------------------

# at q = 1 the terms of family "c" and "cp" become the scalar weights C(2k,k)(6k+1)x^k
X_AT_ONE = {"c": Fraction(-1, 8), "cp": Fraction(1, 4)}


def phi_at_one(d):
    """Phi_d(1) for d > 1: p when d is a power of the prime p, 1 otherwise."""
    p = next(p for p in range(2, d + 1) if d % p == 0)
    while d % p == 0:
        d //= p
    return p if d == 1 else 1


def scalar_weights(x, n):
    return [math.comb(2 * k, k) * (6 * k + 1) * x**k for k in range(n)]


@BY_FAMILY
def test_exponent_form_at_q_one_is_the_scalar_weight(family):
    # the exponent form is the folded pipeline's only input; Phi_1(1) = 0,
    # so a term carrying Phi_1 would vanish or blow up at q = 1
    weights = scalar_weights(X_AT_ONE[family], 300)
    for k, weight in enumerate(weights):
        sign, _, exps = _reduced_term(family, k)
        assert 1 not in dict(exps), (family, k)
        num = math.prod(phi_at_one(d) ** e for d, e in exps if e > 0)
        den = math.prod(phi_at_one(d) ** -e for d, e in exps if e < 0)
        assert Fraction(sign * num, den) == weight, (family, k)


@BY_FAMILY
def test_folded_residues_at_q_one_are_the_scalar_sums_times_the_denominator(family):
    # [n] is n at q = 1 and each image is L times its term, so the single
    # sum's residue at 1 is L(1) S_1 mod n and the double sum's L(1)^2 S_2,
    # S_1 and S_2 the scalar single and pair sums of the same signed terms.
    # Unflipped, both sides are 0; with one term negated most are not
    sides = []
    for flip in (0, 1, 2):
        with sign_flipped(flip):
            for n in range(3, 46, 2):
                w = [-t if k == flip else t for k, t in enumerate(scalar_weights(X_AT_ONE[family], n))]
                prefix = list(accumulate(w))
                single, double = prefix[-1], sum(w[i] * prefix[n - 1 - i] for i in range(n))
                common = {}
                for k in range(n):
                    for d, e in _reduced_term(family, k)[2]:
                        common[d] = max(common.get(d, 0), -e)
                L1 = math.prod(phi_at_one(d) ** e for d, e in common.items())
                for residue, scalar in ((folded_single_sum_residue(family, n), L1 * single),
                                        (folded_double_sum_residue(family, n), L1**2 * double)):
                    assert scalar.denominator == 1, (flip, n)
                    sides.append(residue(1) % n)
                    assert sides[-1] == scalar % n, (flip, n)
    assert len(sides) == 132
    assert sum(map(bool, sides)) > 0.9 * len(sides)


@pytest.mark.parametrize("x", list(X_AT_ONE.values()), ids=list(X_AT_ONE))
def test_scalar_sums_vanish_mod_every_odd_n(x):
    # eq5 and eq6 claim the double sum vanishes mod odd primes; as the
    # q -> 1 images of eq3 and eq4 it vanishes mod every odd n, and the
    # single sum, the image of eq1 and eq2, does too
    for n in range(3, 1000, 2):
        assert rational_mod(double_sum(n, x), n) == 0, n
    single = list(accumulate(scalar_weights(x, 199)))
    for n in range(3, 200, 2):
        assert rational_mod(single[n - 1], n) == 0, n
