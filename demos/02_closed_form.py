"""The rational closed form of the weighted double sum.

For every n >= 1 the double sum

    F_n(q) = sum_{k<n} (q/4)^k sum_j C(2j,j) C(2k-2j,k-j) (6j+1)(6k-6j+1)

is the polynomial sum_{k<n} (9k^2/2 + 3k/2 + 1) q^k, and also equals the
single rational expression

    [ (9n^2-15n+8) q^(n+2) - (18n^2-12n-8) q^(n+1)
      + (9n^2+3n+2) q^n - 2(2q+1)^2 ] / (2(q-1)^3).

Note the denominator 2(q-1)^3: with 2(1-q)^3 instead, every value comes
out with the wrong sign (checked below).  (1-q)^3 divides the numerator
exactly, so the expression is a polynomial and q = 1 is an ordinary
point: it gives n(3n^2-3n+2)/2, and q = -1/2 gives (-1/2)^n n(1-3n).
"""

from fractions import Fraction

from qcong import (
    QPoly,
    QRat,
    closed_form,
    closed_form_numerator,
    double_sum,
    geometric_S,
    geometric_S_direct,
    geometric_T,
    geometric_T_direct,
    reduced_double_sum_poly,
    special_q_neg_half,
    special_q_one,
)

print("the closed form collapses to the polynomial sum:")
for n in (1, 2, 3, 6):
    form = closed_form(n)
    poly = reduced_double_sum_poly(n)
    assert form == QRat(poly)
    print(f"  n={n}:  {poly}")

print("\nmoment sums behind the proof (S_n = sum k q^k, T_n = sum k^2 q^k):")
for n in (3, 5):
    assert geometric_S(n) == QRat(geometric_S_direct(n))
    assert geometric_T(n) == QRat(geometric_T_direct(n))
    print(f"  n={n}:  S = {geometric_S_direct(n)}    T = {geometric_T_direct(n)}")

print("\npoint evaluations agree with the double sum (x = q/4):")
for n, q0 in [(2, Fraction(2)), (3, Fraction(-1, 2)), (10, Fraction(1, 3))]:
    lhs = double_sum(n, q0 / 4)
    rhs = closed_form(n).evaluate(q0)
    assert lhs == rhs
    print(f"  n={n:2d}, q={q0}:  {lhs}")

print("\nthe sign of the denominator matters:")
n = 2
wrong = QRat(closed_form_numerator(n), 2 * QPoly([1, -1]) ** 3)
right = closed_form(n)
print(f"  n=2 at q=2 with 2(1-q)^3:  {wrong.evaluate(Fraction(2))}   (true sum is {double_sum(2, Fraction(1, 2))})")
print(f"  n=2 at q=2 with 2(q-1)^3:  {right.evaluate(Fraction(2))}")

print("\nspecializations:")
for n in (1, 2, 3, 8):
    assert double_sum(n, Fraction(-1, 8)) == special_q_neg_half(n)
    assert double_sum(n, Fraction(1, 4)) == special_q_one(n) == closed_form(n).evaluate(1)
    print(f"  n={n}:  at q=-1/2 -> {special_q_neg_half(n)},  at q=1 -> {special_q_one(n)}")
