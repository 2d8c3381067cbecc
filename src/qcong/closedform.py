"""Closed forms for the weighted convolution sums.

The generating identity verified here: for every n >= 1,

    sum_{k<n} (q/4)^k sum_j C(2j,j) C(2k-2j,k-j) (6j+1)(6k-6j+1)
        = sum_{k<n} (9k^2/2 + 3k/2 + 1) q^k
        = [ (9n^2-15n+8) q^(n+2) - (18n^2-12n-8) q^(n+1)
            + (9n^2+3n+2) q^n - 2(2q+1)^2 ] / (2 (q-1)^3),

together with the geometric moment sums S_n = sum k q^k and
T_n = sum k^2 q^k that drive its proof, and the two specializations
q = -1/2 and q = 1.  (1-q)^3 divides the numerator exactly, so the
closed form is a polynomial and q = 1 is a point like any other.

Each closed form is a sparse integer numerator over a power (1-q)^r,
r <= 3.  Dividing by 1 - q is one prefix-sum pass, whose last entry is
the numerator's value at q = 1; r passes that each leave 0 give the
polynomial quotient.  A pass that leaves a remainder stops, as what is
left is coprime to the rest of (1-q)^r, so no gcd ever runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .qring import QPoly, QRat, _trim


def _sparse(terms) -> QPoly:
    """The integer polynomial sum of c q^e over (e, c) pairs; exponents may repeat."""
    cs = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        cs[e] += c
    return QPoly._raw(_trim(cs))


def _exact_over(num: QPoly, r: int) -> QRat:
    """num / (1-q)^r as a canonical QRat, with no gcd.

    Pass i divides by 1 - q as a prefix sum whose last entry is the
    numerator at q = 1; if that is nonzero, the numerator is coprime to
    the (1-q)^(r-i) left, so the pair is already reduced.
    """
    cs = num.coeffs
    for i in range(r):
        quotient = list(accumulate(cs))
        if quotient and quotient.pop():
            return QRat._from_reduced(QPoly(cs), QPoly([1, -1]) ** (r - i))
        cs = quotient
    return QRat(QPoly(cs))


def geometric_S(n: int) -> QRat:
    """Sum over k < n of k q^k, via the closed rational form.

    (q - n q^n + (n-1) q^(n+1)) / (1-q)^2, divided out exactly.
    """
    if n < 1:
        raise ValueError(f"geometric_S needs n >= 1, got {n}")
    return _exact_over(_sparse(((1, 1), (n, -n), (n + 1, n - 1))), 2)


def geometric_T(n: int) -> QRat:
    """Sum over k < n of k^2 q^k, via the closed rational form.

    (q + q^2 - n^2 q^n + (2n^2-2n-1) q^(n+1) - (n-1)^2 q^(n+2)) / (1-q)^3,
    divided out exactly.
    """
    if n < 1:
        raise ValueError(f"geometric_T needs n >= 1, got {n}")
    nn = n * n
    num = _sparse(
        ((1, 1), (2, 1), (n, -nn), (n + 1, 2 * nn - 2 * n - 1), (n + 2, -(n - 1) ** 2))
    )
    return _exact_over(num, 3)


def geometric_S_direct(n: int) -> QPoly:
    """Sum over k < n of k q^k by direct construction."""
    if n < 1:
        raise ValueError(f"geometric_S_direct needs n >= 1, got {n}")
    return QPoly(range(n))


def geometric_T_direct(n: int) -> QPoly:
    """Sum over k < n of k^2 q^k by direct construction."""
    if n < 1:
        raise ValueError(f"geometric_T_direct needs n >= 1, got {n}")
    return QPoly(k * k for k in range(n))


def reduced_double_sum_poly(n: int) -> QPoly:
    """Sum over k < n of (9k^2 + 3k + 2)/2 * q^k, an exact integer polynomial."""
    if n < 1:
        raise ValueError(f"reduced_double_sum_poly needs n >= 1, got {n}")
    return QPoly._raw(tuple(3 * k * (3 * k + 1) // 2 + 1 for k in range(n)))


def closed_form_numerator(n: int) -> QPoly:
    """(9n^2-15n+8) q^(n+2) - (18n^2-12n-8) q^(n+1) + (9n^2+3n+2) q^n - 2(2q+1)^2."""
    if n < 1:
        raise ValueError(f"closed_form_numerator needs n >= 1, got {n}")
    nn = n * n
    top = ((n + 2, 9 * nn - 15 * n + 8), (n + 1, -(18 * nn - 12 * n - 8)), (n, 9 * nn + 3 * n + 2))
    return _sparse(top + ((0, -2), (1, -8), (2, -8)))


def closed_form(n: int) -> QRat:
    """The rational closed form of the weighted double sum.

    The denominator is 2(q-1)^3, not 2(1-q)^3: the direct sum equals 1
    at n=1 while the (1-q)^3 reading gives -1, and only the (q-1)^3
    reading reproduces the q = -1/2 and q = 1 specializations.  A
    regression test pins the other reading to -1 times this one.  The
    numerator N, whose coefficients are all even, is multiplied by -1/2
    first, so the prefix-sum division stays on integers; as
    (1-q)^3 = -(q-1)^3, -N/2 over (1-q)^3 is N over 2(q-1)^3.
    """
    if n < 1:
        raise ValueError(f"closed_form needs n >= 1, got {n}")
    return _exact_over(closed_form_numerator(n) * Fraction(-1, 2), 3)


def special_q_neg_half(n: int) -> Fraction:
    """Exact value (-1/2)^n n (1 - 3n) of the sum with weight (-1/8)^k."""
    if n < 1:
        raise ValueError(f"special_q_neg_half needs n >= 1, got {n}")
    return Fraction(-1, 2) ** n * n * (1 - 3 * n)


def special_q_one(n: int) -> Fraction:
    """Exact value n(3n^2 - 3n + 2)/2 of the sum with weight (1/4)^k."""
    if n < 1:
        raise ValueError(f"special_q_one needs n >= 1, got {n}")
    return Fraction(n * (3 * n * n - 3 * n + 2), 2)

