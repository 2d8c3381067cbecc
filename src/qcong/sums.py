"""Binomial convolution sums and the q-series terms built from them.

The integer side: convolutions of central binomial coefficients
weighted by (6j+1)(6k-6j+1), their closed forms, and the rational
double sums with geometric weights x^k.

The q side: two families of terms,

    c(k)  = (-1)^k (q;q^2)_k (-q;q^2)_k^2 / ((q^4;q^4)_k (-q^4;q^4)_k^2)
            * [6k+1] * q^(3k^2),
    c'(k) = (q^2;q^4)_k (-q;q^2)_k^2 / ((q^4;q^4)_k (-q^4;q^4)_k^2)
            * [6k+1] * q^(k^2),

whose single and double partial sums are divisible by [n] for odd n.
Every factor above is a binomial (1 - s*q^m) with a known cyclotomic
factorization, so each term has one exact representation: a sign, a
power of q and the exponent e_d of every cyclotomic Phi_d, read off the
binomial factorizations with no polynomial arithmetic.  The sums are
assembled two independent ways.  The reduced pipeline expands the
binomial products at full degree over the binomial common denominator
and reduces the sum by cyclotomic trial division to a canonical QRat.
The folded pipeline puts every term over the integer common denominator
L = prod Phi_d^(max_k -e_d), which carries only even cyclotomic indices
and so is coprime to [n] for odd n, and builds each numerator from the
exponents as an integer polynomial folded modulo q^n - 1.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .bigmath import central_binomial
from .errors import DenominatorNotCoprime
from .qring import (
    QPoly,
    QRat,
    ZERO,
    _binomial_cyclotomic_indices,
    _fold_list,
    _int_divmod_unit_lead,
    _list_mul,
    _product_of_binomials,
    cyclotomic,
    divrem,
    q_integer,
)

_central = lru_cache(maxsize=None)(central_binomial)


# ---------------------------------------------------------------------------
# integer convolution sums
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def inner_conv_sum(k: int) -> int:
    """Sum over j of C(2j,j) C(2k-2j,k-j) (6j+1)(6k-6j+1)."""
    if k < 0:
        raise ValueError(f"inner_conv_sum needs k >= 0, got {k}")
    return sum(
        _central(j) * _central(k - j) * (6 * j + 1) * (6 * (k - j) + 1)
        for j in range(k + 1)
    )


def inner_closed(k: int) -> int:
    """Closed form 4^k (9k^2 + 3k + 2)/2 of the inner convolution, exact.

    9k^2 + 3k = 3k(3k+1) is always even, so the halved factor is an
    integer for every k.
    """
    if k < 0:
        raise ValueError(f"inner_closed needs k >= 0, got {k}")
    return 4**k * (9 * k * k + 3 * k + 2) // 2


def plain_conv_sum(k: int) -> int:
    """Sum over j of C(2j,j) C(2k-2j,k-j); equals 4^k."""
    if k < 0:
        raise ValueError(f"plain_conv_sum needs k >= 0, got {k}")
    return sum(_central(j) * _central(k - j) for j in range(k + 1))


def weighted_conv_sum(k: int) -> int:
    """Sum over j of C(2j,j) C(2k-2j,k-j) j(k-j); equals 4^k k(k-1)/8."""
    if k < 0:
        raise ValueError(f"weighted_conv_sum needs k >= 0, got {k}")
    return sum(
        _central(j) * _central(k - j) * j * (k - j) for j in range(k + 1)
    )


def double_sum(n: int, x) -> Fraction:
    """Sum over k < n of x^k * inner_conv_sum(k), exact."""
    if n < 1:
        raise ValueError(f"double_sum needs n >= 1, got {n}")
    x = Fraction(x)
    acc = Fraction(0)
    xk = Fraction(1)
    for k in range(n):
        acc += xk * inner_conv_sum(k)
        xk *= x
    return acc


# ---------------------------------------------------------------------------
# q-series terms
# ---------------------------------------------------------------------------

# A binomial factor (s, m) stands for the polynomial 1 - s*q^m.


def _term_binomials(family: str, k: int):
    """Numerator/denominator binomial factors of the k-th term, unreduced.

    [6k+1] enters as (1 - q^(6k+1)) in the numerator and (1 - q) in the
    denominator so that everything stays a product of binomials.
    """
    if family == "c":
        num = [(1, 2 * i + 1) for i in range(k)]
        num += [(-1, 2 * i + 1) for i in range(k) for _ in range(2)]
        sign, qpow = (-1) ** k, 3 * k * k
    elif family == "cp":
        num = [(1, 4 * i + 2) for i in range(k)]
        num += [(-1, 2 * i + 1) for i in range(k) for _ in range(2)]
        sign, qpow = 1, k * k
    else:
        raise ValueError(f"unknown term family {family!r}")
    num.append((1, 6 * k + 1))
    den = [(1, 1)]
    den += [(s, 4 * i) for i in range(1, k + 1) for s in (1, -1, -1)]
    return sign, qpow, num, den


def _cyclotomic_multiplicities(binomials) -> Counter:
    counts: Counter = Counter()
    for s, m in binomials:
        counts.update(_binomial_cyclotomic_indices(s, m))
    return counts


def _divide_out(coeffs: list, index: int, times: int) -> list:
    """Exact division of an integer coefficient list by cyclotomic(index)^times."""
    phi = list(cyclotomic(index).coeffs)
    for _ in range(times):
        coeffs, rem = _int_divmod_unit_lead(coeffs, phi)
        assert not rem, f"expected exact division by cyclotomic({index})"
    return coeffs


@lru_cache(maxsize=None)
def _reduced_term(family: str, k: int):
    """Exponent form (sign, qpow, ((d, e_d), ...)) of the k-th term.

    The term equals sign * q^qpow * prod Phi_d^e_d over the listed d,
    ascending, where e_d = mult_num(d) - mult_den(d) is read off the
    binomial factorizations and zero exponents are dropped.  Negative
    exponents form the reduced denominator.  1 - q^m = -prod_{d|m} Phi_d,
    so every (1, m) factor, in the numerator or the denominator, flips
    the sign; 1 + q^m is a product of cyclotomics with no sign.
    """
    sign, qpow, num_binoms, den_binoms = _term_binomials(family, k)
    exps = _cyclotomic_multiplicities(num_binoms)
    exps.subtract(_cyclotomic_multiplicities(den_binoms))
    flips = sum(1 for s, _ in num_binoms + den_binoms if s == 1)
    return sign * (-1) ** flips, qpow, tuple(sorted((d, e) for d, e in exps.items() if e))


def _cyclotomic_product(factors) -> list[int]:
    """Integer coefficients of the product of Phi_d^e over (d, e) pairs, e >= 0."""
    out = [1]
    for d, e in factors:
        phi = list(cyclotomic(d).coeffs)
        for _ in range(e):
            out = _list_mul(out, phi)
    return out


def _family_name(term) -> str:
    if term is c_q_term or term == "c":
        return "c"
    if term is cp_q_term or term == "cp":
        return "cp"
    raise ValueError("term must be c_q_term or cp_q_term")


@lru_cache(maxsize=None)
def _term_qrat(family: str, k: int) -> QRat:
    sign, qpow, exps = _reduced_term(family, k)
    num = _cyclotomic_product((d, e) for d, e in exps if e > 0)
    den = _cyclotomic_product((d, -e) for d, e in exps if e < 0)
    return QRat._from_reduced(QPoly._raw(num).shift(qpow) * sign, QPoly._raw(den))


def c_q_term(k: int) -> QRat:
    """The k-th term of the alternating family, as a reduced QRat."""
    if k < 0:
        raise ValueError(f"c_q_term needs k >= 0, got {k}")
    return _term_qrat("c", k)


def cp_q_term(k: int) -> QRat:
    """The k-th term of the non-alternating family, as a reduced QRat."""
    if k < 0:
        raise ValueError(f"cp_q_term needs k >= 0, got {k}")
    return _term_qrat("cp", k)


# ---------------------------------------------------------------------------
# exact sum assembly over the binomial common denominator
# ---------------------------------------------------------------------------


def _common_den_binomials(n: int) -> list:
    """(1-q) * product over 0 < i < n of (1-q^4i)(1+q^4i)^2.

    Every term denominator with index k < n divides this product, so
    cofactors are again binomial products and the whole assembly stays
    sparse.
    """
    out = [(1, 1)]
    out += [(s, 4 * i) for i in range(1, n) for s in (1, -1, -1)]
    return out


@lru_cache(maxsize=None)
def _assembled_numerators(family: str, n: int) -> tuple:
    """Numerators M_k of the first n terms over the shared denominator."""
    ms = []
    for k in range(n):
        sign, qpow, num_binoms, _ = _term_binomials(family, k)
        cofactor = [(s, 4 * i) for i in range(k + 1, n) for s in (1, -1, -1)]
        coeffs = _product_of_binomials(num_binoms + cofactor)
        coeffs = [0] * qpow + coeffs
        if sign < 0:
            coeffs = [-c for c in coeffs]
        ms.append(tuple(coeffs))
    return tuple(ms)


def _accumulate(acc: list, coeffs, scale: int = 1) -> None:
    if len(coeffs) > len(acc):
        acc.extend([0] * (len(coeffs) - len(acc)))
    if scale == 1:
        for e, c in enumerate(coeffs):
            if c:
                acc[e] += c
    else:
        for e, c in enumerate(coeffs):
            if c:
                acc[e] += scale * c


def _reduce_over_binomials(num: list, den_binomials: list) -> QRat:
    """Reduce an integer numerator against a denominator given in binomial form.

    The denominator's full cyclotomic factorization is known, so the gcd
    is computed by trial-dividing the numerator by each cyclotomic in
    the support, up to its multiplicity.  A fold modulo q^d - 1 acts as
    a cheap divisibility pre-filter since Phi_d divides q^d - 1.
    """
    if not num:
        return QRat(ZERO)
    support = _cyclotomic_multiplicities(den_binomials)
    cancelled: dict[int, int] = {}
    for d in sorted(support):
        phi = list(cyclotomic(d).coeffs)
        count = 0
        while count < support[d]:
            folded = _fold_list(num, d)
            if folded and _int_divmod_unit_lead(folded, phi)[1]:
                break
            quot, rem = _int_divmod_unit_lead(num, phi)
            assert not rem, f"fold pre-filter and division disagree at d={d}"
            num = quot
            count += 1
        if count:
            cancelled[d] = count
    den = _product_of_binomials(den_binomials)
    for d, count in cancelled.items():
        den = _divide_out(den, d, count)
    return QRat._from_reduced(QPoly._raw(num), QPoly._raw(den))


def q_single_sum(term, n: int) -> QRat:
    """Sum over k < n of term(k), as an exact reduced QRat."""
    if n < 1:
        raise ValueError(f"q_single_sum needs n >= 1, got {n}")
    family = _family_name(term)
    acc: list = []
    for coeffs in _assembled_numerators(family, n):
        _accumulate(acc, coeffs)
    while acc and not acc[-1]:
        acc.pop()
    return _reduce_over_binomials(acc, _common_den_binomials(n))


def q_double_sum(term, n: int) -> QRat:
    """Sum over k < n and j <= k of term(j)*term(k-j), as an exact reduced QRat."""
    if n < 1:
        raise ValueError(f"q_double_sum needs n >= 1, got {n}")
    family = _family_name(term)
    ms = [list(c) for c in _assembled_numerators(family, n)]
    acc: list = []
    for j in range(n):
        for i in range(j, n - j):
            prod = _list_mul(ms[j], ms[i])
            _accumulate(acc, prod, 1 if i == j else 2)
    while acc and not acc[-1]:
        acc.pop()
    return _reduce_over_binomials(acc, _common_den_binomials(n) * 2)


# ---------------------------------------------------------------------------
# folded sum pipeline in Z[q]/(q^n - 1)
# ---------------------------------------------------------------------------


def _mul_mod_qn(a: list, b: list, n: int) -> list:
    return _fold_list(_list_mul(a, b), n)


@lru_cache(maxsize=32)
def _folded_terms(family: str, n: int) -> tuple:
    """Integer images mod q^n - 1 of the first n terms over one common denominator.

    Term k is N_k / L with L = prod Phi_d^L_d, where L_d is the largest
    multiplicity of Phi_d in any of the n term denominators, and
    N_k = sign * q^qpow * prod Phi_d^(e_d + L_d) has integer
    coefficients.  Each N_k is built folded mod q^n - 1 after every
    multiply.  A sum of terms then vanishes modulo [n] iff the same sum
    of the N_k does, because L is coprime to [n]: term denominators carry
    only even cyclotomic indices and n is odd.  A denominator index d
    that divides n raises DenominatorNotCoprime.
    """
    terms = [_reduced_term(family, k) for k in range(n)]
    common: dict[int, int] = {}
    for k, (_, _, exps) in enumerate(terms):
        bad = [d for d, e in exps if e < 0 and n % d == 0]
        if bad:
            raise DenominatorNotCoprime(
                f"term {k} denominator shares cyclotomic indices {bad} with q^{n} - 1"
            )
        for d, e in exps:
            if e < 0:
                common[d] = max(common.get(d, 0), -e)
    phis: dict[int, list] = {}
    images = []
    for sign, qpow, exps in terms:
        mult = dict(common)
        for d, e in exps:
            mult[d] = mult.get(d, 0) + e
        image = [0] * n
        image[qpow % n] = sign
        for d, times in mult.items():
            if d not in phis:
                phis[d] = _fold_list(cyclotomic(d).coeffs, n)
            for _ in range(times):
                image = _mul_mod_qn(image, phis[d], n)
        images.append(tuple(image))
    return tuple(images)


def folded_single_sum_residue(term, n: int) -> QPoly:
    """Residue modulo [n] of the single sum, computed entirely in Z[q]/(q^n - 1).

    Zero iff the sum is congruent to 0 modulo [n]; the residue is that of
    the sum times the common denominator L of _folded_terms, a unit
    modulo [n], so only its vanishing is meaningful.
    """
    if n < 1:
        raise ValueError(f"folded_single_sum_residue needs n >= 1, got {n}")
    acc: list = []
    for image in _folded_terms(_family_name(term), n):
        _accumulate(acc, image)
    return divrem(QPoly(acc), q_integer(n))[1]


def folded_double_sum_residue(term, n: int) -> QPoly:
    """Residue modulo [n] of the double sum, computed in Z[q]/(q^n - 1).

    The sum over i + j < n of t(i)t(j) is taken as the sum over j of
    t(j) * P(n-1-j), with P(m) the prefix sum of t(0..m): n folded
    products.  Like the single sum, only its vanishing is meaningful.
    """
    if n < 1:
        raise ValueError(f"folded_double_sum_residue needs n >= 1, got {n}")
    images = _folded_terms(_family_name(term), n)
    prefixes = []
    prefix: list = []
    for image in images:
        _accumulate(prefix, image)
        prefixes.append(list(prefix))
    acc: list = []
    for j, image in enumerate(images):
        _accumulate(acc, _mul_mod_qn(image, prefixes[n - 1 - j], n))
    return divrem(QPoly(acc), q_integer(n))[1]
