"""Closed forms for the weighted convolution sums.

The generating identity verified here: for every n >= 1,

    sum_{k<n} (q/4)^k sum_j C(2j,j) C(2k-2j,k-j) (6j+1)(6k-6j+1)
        = sum_{k<n} (9k^2/2 + 3k/2 + 1) q^k
        = [ (9n^2-15n+8) q^(n+2) - (18n^2-12n-8) q^(n+1)
            + (9n^2+3n+2) q^n - 2(2q+1)^2 ] / (2 (q-1)^3),

together with the geometric moment sums S_n = sum k q^k and
T_n = sum k^2 q^k that drive its proof, and the two specializations
q = -1/2 and q = 1.  The q = 1 point is a removable singularity of the
rational closed form and is served by the exact specialized value
instead of a limit.

Each closed form is built as one integer numerator over its known
denominator, a power of (q-1) up to sign, and reduced by one exact
division through the integer unit-lead kernel; only a numerator that
the power does not divide goes through the generic gcd reduction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularPoint
from .qring import QPoly, QRat, divrem

_Q = QPoly([0, 1])
_ONE_MINUS_Q = QPoly([1, -1])


def _exact_over(num: QPoly, den: QPoly) -> QRat:
    """num/den as a canonical QRat, den a power of (1 - q) up to sign.

    When den divides num the quotient is the reduced form and the gcd
    is skipped; otherwise the generic reduction keeps the value exact.
    """
    quot, rem = divrem(num, den)
    if rem.is_zero:
        return QRat(quot)
    return QRat(num, den)


def geometric_S(n: int) -> QRat:
    """Sum over k < n of k q^k, via the closed rational form.

    q(1-q^(n-1))/(1-q)^2 - (n-1) q^n/(1-q), put over (1-q)^2 and
    divided out exactly.
    """
    if n < 1:
        raise ValueError(f"geometric_S needs n >= 1, got {n}")
    num = _Q * (1 - QPoly.q_power(n - 1)) - QPoly.q_power(n) * (n - 1) * _ONE_MINUS_Q
    return _exact_over(num, _ONE_MINUS_Q**2)


def geometric_T(n: int) -> QRat:
    """Sum over k < n of k^2 q^k, via the closed rational form.

    2q(1-q^(n-1))/(1-q)^3 - 2(n-1) q^n/(1-q)^2 - q(1-q^(n-1))/(1-q)^2
    - (n-1)^2 q^n/(1-q), put over (1-q)^3 and divided out exactly.
    """
    if n < 1:
        raise ValueError(f"geometric_T needs n >= 1, got {n}")
    lead = _Q * (1 - QPoly.q_power(n - 1))
    qn = QPoly.q_power(n)
    num = (
        2 * lead
        - (2 * qn * (n - 1) + lead) * _ONE_MINUS_Q
        - qn * (n - 1) ** 2 * _ONE_MINUS_Q**2
    )
    return _exact_over(num, _ONE_MINUS_Q**3)


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
    poly = QPoly.q_power(n + 2) * (9 * nn - 15 * n + 8)
    poly -= QPoly.q_power(n + 1) * (18 * nn - 12 * n - 8)
    poly += QPoly.q_power(n) * (9 * nn + 3 * n + 2)
    poly -= QPoly([2, 8, 8])
    return poly


def closed_form(n: int) -> QRat:
    """The rational closed form of the weighted double sum.

    The denominator is 2(q-1)^3, not 2(1-q)^3: the direct sum equals 1
    at n=1 while the (1-q)^3 reading gives -1, and only the (q-1)^3
    reading reproduces the q = -1/2 and q = 1 specializations.  A
    regression test pins the other reading to -1 times this one.  The
    numerator is halved first, so the division by (q-1)^3 stays on
    integer coefficients: each of its coefficients is even.
    """
    if n < 1:
        raise ValueError(f"closed_form needs n >= 1, got {n}")
    # the numerator is sparse: only its nonzero coefficients are halved
    half = QPoly(Fraction(c, 2) if c else 0 for c in closed_form_numerator(n))
    return _exact_over(half, QPoly([-1, 1]) ** 3)


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


def closed_form_at(n: int, q0) -> Fraction:
    """Closed form of order n evaluated at the rational point q0.

    q0 = 1 is a removable singularity of the rational expression; exact
    arithmetic cannot take the limit, so callers are redirected to
    special_q_one via SingularPoint.
    """
    q0 = Fraction(q0)
    form = closed_form(n)
    if q0 == 1:
        raise SingularPoint(
            "q = 1 is a removable singularity; use special_q_one(n) for the value"
        )
    return form.evaluate(q0)
