"""Integer/rational arithmetic checks against independent elementary oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcong.bigmath import (
    binomial,
    central_binomial,
    is_odd_prime,
    mod_inverse,
    odd_primes_up_to,
    rational_mod,
)
from qcong.errors import DenominatorNotCoprime, NotInvertible


# --- oracles -----------------------------------------------------------------


def factorial_binomial(n, k):
    if k < 0 or k > n:
        return 0
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


def xgcd(a, b):
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def trial_division_primes(limit):
    out = []
    for n in range(3, limit + 1):
        if all(n % f for f in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


# --- binomial ----------------------------------------------------------------


def test_binomial_examples():
    assert binomial(0, 0) == 1
    assert binomial(6, 3) == 20  # = 6!/(3!3!)
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_matches_factorial_formula():
    for n in range(0, 40):
        for k in range(-2, n + 3):
            assert binomial(n, k) == factorial_binomial(n, k)


def test_binomial_symmetry_and_pascal():
    for n in range(201):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n, n - k)
            if n:
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_central_binomial_examples():
    assert central_binomial(0) == 1
    assert central_binomial(3) == 20
    assert central_binomial(5) == 252
    for k in range(80):
        assert central_binomial(k) == binomial(2 * k, k)
    with pytest.raises(ValueError):
        central_binomial(-1)


# --- modular arithmetic --------------------------------------------------------


def test_mod_inverse_examples():
    assert mod_inverse(1, 7) == 1
    # frozen from the extended-Euclid oracle
    assert xgcd(2, 25)[1] % 25 == 13
    assert mod_inverse(2, 25) == 13
    assert xgcd(16, 25)[1] % 25 == 11
    assert mod_inverse(16, 25) == 11


def test_mod_inverse_not_invertible():
    with pytest.raises(NotInvertible):
        mod_inverse(6, 9)
    with pytest.raises(NotInvertible):
        mod_inverse(0, 5)
    with pytest.raises(ValueError):
        mod_inverse(1, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(2, 10**6))
def test_mod_inverse_property(a, m):
    if math.gcd(a, m) != 1:
        with pytest.raises(NotInvertible):
            mod_inverse(a, m)
    else:
        x = mod_inverse(a, m)
        assert 0 <= x < m
        assert a * x % m == 1


def test_rational_mod_examples():
    assert rational_mod(Fraction(0, 1), 9) == 0
    assert rational_mod(Fraction(35, 16), 25) == 35 * 11 % 25 == 10
    assert rational_mod(Fraction(-5, 2), 25) == -5 * 13 % 25 == 10


def test_rational_mod_rejects_shared_factor():
    with pytest.raises(DenominatorNotCoprime):
        rational_mod(Fraction(1, 3), 9)
    with pytest.raises(ValueError):
        rational_mod(Fraction(1, 3), 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**4, 10**4), st.integers(1, 10**4), st.integers(2, 10**4))
def test_rational_mod_inverts_denominator(num, den, m):
    r = Fraction(num, den)
    if math.gcd(r.denominator, m) != 1:
        with pytest.raises(DenominatorNotCoprime):
            rational_mod(r, m)
    else:
        x = rational_mod(r, m)
        assert 0 <= x < m
        assert (x * r.denominator - r.numerator) % m == 0


# --- primes --------------------------------------------------------------------


def test_odd_primes_examples():
    assert odd_primes_up_to(2) == []
    assert odd_primes_up_to(10) == [3, 5, 7]
    assert odd_primes_up_to(30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_odd_primes_match_trial_division():
    assert odd_primes_up_to(2000) == trial_division_primes(2000)


def test_is_odd_prime():
    assert not is_odd_prime(2)
    assert is_odd_prime(3)
    assert not is_odd_prime(9)
    primes = set(odd_primes_up_to(500))
    for n in range(502):
        assert is_odd_prime(n) == (n in primes)
