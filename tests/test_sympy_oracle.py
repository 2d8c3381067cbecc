"""Differential checks against sympy, an independent computer-algebra oracle.

sympy is a test-only dependency: the module is skipped where it is not
installed, and the package itself never imports it.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from qcong.closedform import closed_form, geometric_S, geometric_T  # noqa: E402
from qcong.qring import QPoly, QRat, cyclotomic, divrem, poly_gcd  # noqa: E402
from qcong.sums import (  # noqa: E402
    c_q_term,
    cp_q_term,
    folded_double_sum_residue,
    folded_single_sum_residue,
    q_double_sum,
    q_single_sum,
    reduced_sum_residue,
)

q = sympy.Symbol("q")


def to_poly(p: QPoly) -> "sympy.Poly":
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, p.coeffs)]
    return sympy.Poly(list(reversed(coeffs)) or [0], q, domain="QQ")


def from_poly(p: "sympy.Poly") -> QPoly:
    return QPoly(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def random_poly(rng: random.Random, max_degree: int, fractions: bool) -> QPoly:
    def coeff():
        c = rng.randint(-9, 9)
        return Fraction(c, rng.randint(1, 6)) if fractions else c

    return QPoly(coeff() for _ in range(rng.randint(0, max_degree) + 1))


def test_cyclotomic_against_sympy():
    for n in range(1, 61):
        assert cyclotomic(n) == from_poly(sympy.Poly(sympy.cyclotomic_poly(n, q), q)), n


@pytest.mark.parametrize("fractions", [False, True])
def test_divrem_and_gcd_against_sympy(fractions):
    rng = random.Random(20191203 + fractions)
    for _ in range(60):
        a = random_poly(rng, 12, fractions)
        b = random_poly(rng, 6, fractions)
        common = random_poly(rng, 3, fractions)
        if b.is_zero or common.is_zero:
            continue
        a, b = a * common, b * common
        quot, rem = sympy.div(to_poly(a), to_poly(b))
        assert divrem(a, b) == (from_poly(quot), from_poly(rem)), (a, b)
        if not a.is_zero:
            assert poly_gcd(a, b) == from_poly(sympy.gcd(to_poly(a), to_poly(b)).monic()), (a, b)


def test_qrat_reduction_against_sympy_cancel():
    rng = random.Random(1912)
    for _ in range(60):
        num = random_poly(rng, 6, True)
        den = random_poly(rng, 5, True)
        common = random_poly(rng, 3, False)
        if den.is_zero or common.is_zero:
            continue
        num, den = num * common, den * common
        value = QRat(num, den)
        top, bottom = sympy.fraction(sympy.cancel(to_poly(num).as_expr() / to_poly(den).as_expr()))
        top, bottom = sympy.Poly(top, q, domain="QQ"), sympy.Poly(bottom, q, domain="QQ")
        lead = bottom.LC()
        assert (value.num, value.den) == (from_poly(top.quo_ground(lead)),
                                          from_poly(bottom.quo_ground(lead))), (num, den)


def test_closed_forms_against_sympy_cancel_of_the_printed_forms():
    for n in range(1, 31):
        printed = {
            "closed_form": (
                (9 * n**2 - 15 * n + 8) * q ** (n + 2)
                - (18 * n**2 - 12 * n - 8) * q ** (n + 1)
                + (9 * n**2 + 3 * n + 2) * q**n
                - 2 * (2 * q + 1) ** 2
            ) / (2 * (q - 1) ** 3),
            "geometric_S": q * (1 - q ** (n - 1)) / (1 - q) ** 2 - (n - 1) * q**n / (1 - q),
            "geometric_T": (
                2 * q * (1 - q ** (n - 1)) / (1 - q) ** 3
                - 2 * (n - 1) * q**n / (1 - q) ** 2
                - q * (1 - q ** (n - 1)) / (1 - q) ** 2
                - (n - 1) ** 2 * q**n / (1 - q)
            ),
        }
        ours = {"closed_form": closed_form(n), "geometric_S": geometric_S(n),
                "geometric_T": geometric_T(n)}
        for name, expr in printed.items():
            value = ours[name]
            assert value.den == QPoly([1]), (name, n)
            assert value.num == from_poly(sympy.Poly(sympy.cancel(expr), q, domain="QQ")), (name, n)


def binomial(s: int, m: int) -> "sympy.Poly":
    """1 - s*q^m over ZZ (coefficients listed from the top degree down)."""
    return sympy.Poly.from_list([-s] + [0] * (m - 1) + [1], q, domain="ZZ")


def pochhammer(s: int, start: int, step: int, k: int) -> "sympy.Poly":
    """(a; p)_k = prod over i < k of (1 - a p^i), with a = s*q^start and p = q^step."""
    out = sympy.Poly(1, q, domain="ZZ")
    for i in range(k):
        out *= binomial(s, start + i * step)
    return out


def paper_numerator(family: str, k: int) -> "sympy.Poly":
    """Numerator of the k-th term, from the q-Pochhammer definitions.

    c(k)  = (-1)^k (q;q^2)_k (-q;q^2)_k^2 / ((q^4;q^4)_k (-q^4;q^4)_k^2) [6k+1] q^(3k^2),
    c'(k) = (q^2;q^4)_k (-q;q^2)_k^2 / ((q^4;q^4)_k (-q^4;q^4)_k^2) [6k+1] q^(k^2).
    """
    if family == "c":
        num, qpow = pochhammer(1, 1, 2, k) * (-1) ** k, 3 * k * k
    else:
        num, qpow = pochhammer(1, 2, 4, k), k * k
    q_int = sympy.Poly.from_list([1] * (6 * k + 1), q, domain="ZZ")
    return num * pochhammer(-1, 1, 2, k) ** 2 * q_int * sympy.Poly.from_list([1] + [0] * qpow, q)


def paper_sum(family: str, n: int, double: bool) -> tuple:
    """Reduced numerator and denominator of the single or double sum, over ZZ.

    The terms go over the last term's denominator
    D = (q^4;q^4)_(n-1) (-q^4;q^4)_(n-1)^2: term k's cofactor is
    (q^(4k+4);q^4)_(n-1-k) (-q^(4k+4);q^4)_(n-1-k)^2, by
    (a;p)_m = (a;p)_k (a p^k;p)_(m-k).  The double sum pairs the terms
    over D^2.  Numerator and denominator are then divided by their gcd.
    """
    den = pochhammer(1, 4, 4, n - 1) * pochhammer(-1, 4, 4, n - 1) ** 2
    nums = [paper_numerator(family, k) * pochhammer(1, 4 * k + 4, 4, n - 1 - k)
            * pochhammer(-1, 4 * k + 4, 4, n - 1 - k) ** 2 for k in range(n)]
    total = sympy.Poly(0, q, domain="ZZ")
    if double:
        for i in range(n):  # the pairs (i, j) and (j, i) give one product
            for j in range(i, n - i):
                total += nums[i] * nums[j] * (1 if i == j else 2)
        den = den**2
    else:
        for num in nums:
            total += num
    return total.cofactors(den)[1:]  # each divided by their gcd


@pytest.mark.parametrize("family, term", [("c", c_q_term), ("cp", cp_q_term)])
def test_reduced_sums_against_sympy_pochhammers(family, term):
    for n in range(1, 10):
        for double, q_sum in ((False, q_single_sum), (True, q_double_sum)):
            num, den = paper_sum(family, n, double)
            lead = den.LC()  # +-1: the denominator is a product of cyclotomics
            value = q_sum(term, n)
            assert (value.num, value.den) == (from_poly(num.quo_ground(lead)),
                                              from_poly(den.quo_ground(lead))), (family, n, double)
            if n % 2 == 0:
                continue
            q_n = sympy.Poly.from_list([1] * n, q, domain="ZZ")
            assert den.gcd(q_n).degree() == 0, (family, n, double)
            vanishes = num.rem(q_n).is_zero
            folded = folded_double_sum_residue if double else folded_single_sum_residue
            assert reduced_sum_residue(family, n, double).is_zero == vanishes, (family, n, double)
            assert folded(family, n).is_zero == vanishes, (family, n, double)
