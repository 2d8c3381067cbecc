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
