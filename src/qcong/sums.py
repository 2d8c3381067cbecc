"""Binomial convolution sums and the q-series terms built from them.

The integer side: convolutions of central binomial coefficients
weighted by (6j+1)(6k-6j+1), 1 or j(k-j), their closed forms, and the
rational double sums with geometric weights x^k.  Each convolution is a
self-convolution sum_j a_j a_(k-j) of one weight sequence a_j =
C(2j,j) w(j), w linear in j, summed directly by _self_convolution over
half the range, j <-> k-j, from a cached list of the a_j.  The three
weight lists share one list of the C(2j,j), grown by the exact ratio
C(2j,j) = C(2j-2,j-1) * 2(2j-1) / j, so no binomial is recomputed.
The double sums of one weight x = a/b share one Horner run over
integer numerators, so each big-int product is taken once per weight
for every n.

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
assembled two independent ways.  The reduced pipeline works over the
binomial common denominator D = sign * prod Phi_d^m_d.  Its congruence
verdict never expands a numerator: [n] is squarefree, so the sum
vanishes modulo [n] iff Phi_d divides the summed numerator N more than
m_d times for every d | n, d > 1, and that valuation is the t-adic
valuation of N at q = zeta_d (1 + t).  For odd d a binomial vanishes
there iff it is 1 - q^m with d | m, and then it is t times a unit, so
each term numerator is t^c_k times a unit whose constant term, its
depth-1 image in Z[x]/(x^d - 1), is built from the binomials directly.
Every c_k is at least m_d, so the verdict at d is the sum of the images
of the terms with c_k = m_d, or their pair sum for a double sum, modulo
Phi_d.  q_single_sum and q_double_sum, the canonical oracle, instead
expand the numerators at full degree and cancel every Phi_d by trial
division, building the reduced denominator from the multiplicities
left, never expanding D, to give a canonical QRat.  The folded pipeline
puts every term over the integer common denominator
L = prod Phi_d^(max_k -e_d), which carries only even cyclotomic indices
and so is coprime to [n] for odd n, and builds each numerator from the
exponents as an integer polynomial modulo [n]: every product is taken
modulo q^n - 1 and then reduced modulo [n], which divides it, so the
summed images already are the residue.  Each pipeline builds its n
term numerators once per (family, n), family "c" or "cp", from prefix
and suffix chains of shared factors, with one product kernel in
Z[x]/(x^d - 1), _cyclic_mul, checked against oracles that never call
it.  The reduced one builds chains of binomials for each family; the
folded one splits dense rows of the exponents of "c" over L into its
chains and reads "cp" off the images of "c", as
c'(k) = (-1)^k q^(-2k^2) (-q;q^2)_k c(k) over the same L.  What else the
pipelines and the oracle share is pinned by tests/test_independence.py.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from math import prod
from operator import add, mul, sub

from .errors import DenominatorNotCoprime, EvenN
from .qring import (
    ONE,
    QPoly,
    QRat,
    ZERO,
    _binomial_cyclotomic_indices,
    _divisors,
    _fold_list,
    _int_divmod_unit_lead,
    _intpoly_mul,
    _list_mul,
    _product_of_binomials,
    _trim,
    cyclotomic,
)


# ---------------------------------------------------------------------------
# integer convolution sums
# ---------------------------------------------------------------------------

_central = [1]  # C(2j,j) for j < len(_central), shared by every weight; _self_convolution grows it


@lru_cache(maxsize=None)
def _weights(slope: int, intercept: int) -> list:
    """The weights a_0, a_1, ... with a_j = C(2j,j) * (slope*j + intercept); _self_convolution grows it."""
    return []


def _self_convolution(slope: int, intercept: int, k: int) -> int:
    """Sum over j <= k of a_j a_(k-j), a_j = C(2j,j) * (slope*j + intercept).

    The summand is symmetric under j <-> k-j, so it is twice the sum over
    j < (k+1)/2, plus the middle square a_(k/2)^2 at even k: about k/2
    big-int products over the cached weights, still a direct summation.
    """
    a, c = _weights(slope, intercept), _central
    if len(a) <= k:
        # entry j is written at index j, so threads growing one list write equal values to it
        for j in range(len(c), k + 1):
            c[j : j + 1] = [c[j - 1] * (4 * j - 2) // j]
        for j in range(len(a), k + 1):
            a[j : j + 1] = [c[j] * (slope * j + intercept)]
    h = (k + 1) // 2
    total = 2 * sum(map(mul, a[:h], a[k : k - h : -1]))
    return total + a[h] ** 2 if k % 2 == 0 else total


@lru_cache(maxsize=None)
def inner_conv_sum(k: int) -> int:
    """Sum over j of C(2j,j) C(2k-2j,k-j) (6j+1)(6k-6j+1)."""
    if k < 0:
        raise ValueError(f"inner_conv_sum needs k >= 0, got {k}")
    return _self_convolution(6, 1, k)


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
    return _self_convolution(0, 1, k)


def weighted_conv_sum(k: int) -> int:
    """Sum over j of C(2j,j) C(2k-2j,k-j) j(k-j); equals 4^k k(k-1)/8."""
    if k < 0:
        raise ValueError(f"weighted_conv_sum needs k >= 0, got {k}")
    return _self_convolution(1, 0, k)


@lru_cache(maxsize=8)
def _horner_numerators(a: int, b: int) -> list:
    """N_1, N_2, ... of double_sum at the weight a/b; double_sum grows it."""
    return []


def double_sum(n: int, x) -> Fraction:
    """Sum over k < n of x^k * inner_conv_sum(k), exact.

    With x = a/b in lowest terms the sum is N_n / b^(n-1), where
    N_n = sum_k inner_conv_sum(k) a^k b^(n-1-k) is an integer.  The N_n
    of each weight are kept, and the next is N_(n+1) = N_n b +
    inner_conv_sum(n) a^n by Horner's rule, so every n of one weight
    shares one integer run, in any call order, and the only gcd is the
    one that reduces the returned Fraction.  The last few weights are
    kept, so memory stays bounded for a caller that sweeps x.
    """
    if n < 1:
        raise ValueError(f"double_sum needs n >= 1, got {n}")
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    nums = _horner_numerators(a, b)
    for k in range(len(nums), n):
        nums[k : k + 1] = [(nums[k - 1] * b if k else 0) + inner_conv_sum(k) * a**k]
    return Fraction(nums[n - 1], b ** (n - 1))


# ---------------------------------------------------------------------------
# q-series terms
# ---------------------------------------------------------------------------

# A binomial factor (s, m) stands for the polynomial 1 - s*q^m.


def _term_binomials(family: str, k: int):
    """Numerator/denominator binomial factors of the k-th term, unreduced.

    [6k+1] enters as (1 - q^(6k+1)), last in the numerator, and (1 - q) in
    the denominator, D_{k+1} of _common_den_binomials, so that all stays a
    product of binomials.  Before it, the numerator lists each Pochhammer
    step i < k in turn: its first 3k binomials are every later term's.
    """
    if family == "c":
        scale, sign, qpow = 1, (-1) ** k, 3 * k * k
    elif family == "cp":
        scale, sign, qpow = 2, 1, k * k
    else:
        raise ValueError(f"unknown term family {family!r}")
    num = [f for i in range(k) for f in ((1, scale * (2 * i + 1)), (-1, 2 * i + 1), (-1, 2 * i + 1))]
    num.append((1, 6 * k + 1))
    return sign, qpow, num, _common_den_binomials(k + 1)


def _cyclotomic_multiplicities(binomials) -> tuple[int, Counter]:
    """Factor a product of binomials as sign * prod Phi_d^m_d.

    1 - q^m = -prod_{d|m} Phi_d, so every (1, m) factor flips the sign;
    1 + q^m is a product of cyclotomics with no sign.
    """
    sign, counts = 1, Counter()
    for s, m in binomials:
        counts.update(_binomial_cyclotomic_indices(s, m))
        if s == 1:
            sign = -sign
    return sign, counts


@lru_cache(maxsize=None)
def _reduced_term(family: str, k: int):
    """Exponent form (sign, qpow, ((d, e_d), ...)) of the k-th term.

    The term equals sign * q^qpow * prod Phi_d^e_d over the listed d,
    ascending, where e_d = mult_num(d) - mult_den(d) is read off the
    binomial factorizations and zero exponents are dropped.  Negative
    exponents form the reduced denominator.
    """
    sign, qpow, num_binoms, den_binoms = _term_binomials(family, k)
    num_sign, exps = _cyclotomic_multiplicities(num_binoms)
    den_sign, den_exps = _cyclotomic_multiplicities(den_binoms)
    exps.subtract(den_exps)
    return sign * num_sign * den_sign, qpow, tuple(sorted((d, e) for d, e in exps.items() if e))


def _family_name(term) -> str:
    if term is c_q_term:
        return "c"
    if term is cp_q_term:
        return "cp"
    raise ValueError("term must be c_q_term or cp_q_term")


def _term_qrat(family: str, k: int) -> QRat:
    if k < 0:
        raise ValueError(f"{family}_q_term needs k >= 0, got {k}")
    sign, qpow, exps = _reduced_term(family, k)
    num = prod((cyclotomic(d) ** e for d, e in exps if e > 0), start=ONE)
    den = prod((cyclotomic(d) ** -e for d, e in exps if e < 0), start=ONE)
    return QRat._from_reduced(num.shift(qpow) * sign, den)


def c_q_term(k: int) -> QRat:
    """The k-th term of the alternating family, as a reduced QRat."""
    return _term_qrat("c", k)


def cp_q_term(k: int) -> QRat:
    """The k-th term of the non-alternating family, as a reduced QRat."""
    return _term_qrat("cp", k)


# ---------------------------------------------------------------------------
# exact sum assembly over the binomial common denominator
# ---------------------------------------------------------------------------


def _common_den_binomials(n: int) -> list:
    """D_n = (1-q) * product over 0 < i < n of (1-q^4i)(1+q^4i)^2.

    Term k's denominator is D_{k+1}, a prefix of this list for every
    k < n, so its cofactor D_n / D_{k+1} is the rest of the list, again
    a binomial product, and the whole assembly stays sparse.
    """
    out = [(1, 1)]
    out += [(s, 4 * i) for i in range(1, n) for s in (1, -1, -1)]
    return out


@lru_cache(maxsize=None)
def _assembled_numerators(family: str, n: int) -> tuple:
    """Numerators M_k of the first n terms over the shared denominator."""
    full = _common_den_binomials(n)
    ms = []
    for k in range(n):
        sign, qpow, num_binoms, den = _term_binomials(family, k)
        coeffs = _product_of_binomials(num_binoms + full[len(den) :])
        ms.append(tuple([0] * qpow + [sign * c for c in coeffs]))
    return tuple(ms)


def _accumulate(acc: list, coeffs) -> None:
    if len(coeffs) > len(acc):
        acc.extend([0] * (len(coeffs) - len(acc)))
    for e, c in enumerate(coeffs):
        if c:
            acc[e] += c


def _term_sum(items, mul=None) -> list:
    """Sum of the n items, or given a product mul of mul(items[i], items[j]) over i + j < n; untrimmed.

    Every single and double sum of terms is assembled here; a sum is a
    double sum exactly when its caller passes a ring product mul.  That
    is taken as the sum over j of mul(items[n-1-j], P(j)), with P(j) the
    prefix sum items[0] + ... + items[j], kept as one running sum: n
    products instead of the pairs (i, j).
    """
    acc, prefix = [], []
    for j, item in enumerate(items):
        if mul:
            _accumulate(prefix, item)
            item = mul(items[-1 - j], prefix)
        _accumulate(acc, item)
    return acc


def _chain_split(rows: list) -> tuple[list, list, list]:
    """Split nonnegative integer rows m_k as u_k + v_k + r_k, all >= 0 entrywise.

    u_k = min over j >= k of m_j does not decrease with k, and
    v_k = min over j <= k of (m_j - u_j) does not increase, so the
    products of the factors counted by u_k and by v_k are a prefix and a
    suffix chain, each built by multiplying in only its increments; r_k
    is the rest of m_k.
    """
    def rowmin(a, b):
        return list(map(min, a, b))

    us = list(accumulate(reversed(rows), rowmin))[::-1]
    ws = [list(map(sub, m, u)) for m, u in zip(rows, us)]
    vs = list(accumulate(ws, rowmin))
    return us, vs, [list(map(sub, w, v)) for w, v in zip(ws, vs)]


def _reduce_over_binomials(num: list, den_binomials: list) -> QRat:
    """Reduce an integer numerator against a denominator given in binomial form.

    The denominator factors as sign * prod Phi_d^m_d with no polynomial
    arithmetic, so the gcd is found by trial-dividing the numerator by
    each Phi_d, at most m_d times.  The reduced denominator is the
    product of the Phi_d^m_d left uncancelled, built directly, and is
    monic; the sign moves to the numerator.
    """
    sign, mults = _cyclotomic_multiplicities(den_binomials)
    for d in mults:
        phi = cyclotomic(d).coeffs
        while mults[d]:
            quo, rem = _int_divmod_unit_lead(num, phi)
            if rem:
                break
            num = quo
            mults[d] -= 1
    den = prod((cyclotomic(d) ** m for d, m in mults.items()), start=ONE)
    return QRat._from_reduced(QPoly._raw([sign * c for c in num]), den)


def _summed_numerator(family: str, n: int, double: bool) -> tuple[list, list]:
    """Integer numerator N and binomial denominator D of a single or double sum.

    The single sum of the first n terms is N / D with N the sum of the
    numerators M_k over D = _common_den_binomials(n).  The double sum
    over i + j < n of t(i)t(j) is N / D^2 with N the pair sum of the M_k,
    built by _term_sum from n products.  N is trimmed and not reduced
    against D.
    """
    num = _term_sum(_assembled_numerators(family, n), _list_mul if double else None)
    den = _common_den_binomials(n)
    return _trim(num), den * 2 if double else den


def q_single_sum(term, n: int) -> QRat:
    """Sum over k < n of term(k), as an exact reduced QRat."""
    if n < 1:
        raise ValueError(f"q_single_sum needs n >= 1, got {n}")
    return _reduce_over_binomials(*_summed_numerator(_family_name(term), n, double=False))


def q_double_sum(term, n: int) -> QRat:
    """Sum over k < n and j <= k of term(j)*term(k-j), as an exact reduced QRat."""
    if n < 1:
        raise ValueError(f"q_double_sum needs n >= 1, got {n}")
    return _reduce_over_binomials(*_summed_numerator(_family_name(term), n, double=True))


# ---------------------------------------------------------------------------
# reduced verdict at the roots of unity of [n]
# ---------------------------------------------------------------------------

# At q = x(1 + t) with x^d = 1, a binomial 1 - s*q^m has constant term
# 1 - s*x^(m mod d) in Z[x]/(x^d - 1), literally 0 iff s = 1 and d | m; it
# is then t times a series with constant term -m.  For odd d these are
# the binomials that vanish at zeta_d(1 + t).  A product of binomials is
# so t^c times a series whose constant term, its depth-1 image, is a
# product of the integers -m and the 1 - s*x^(m mod d); q^e rotates it.


def _rotate(a: list, e: int) -> list:
    """a times x^e in Z[x]/(x^d - 1), d = len(a)."""
    e %= len(a)
    return a[-e:] + a[:-e]


def _cyclic_mul(a, b, d: int) -> list:
    """Product in Z[x]/(x^d - 1) of two coefficient lists of length at most d, length d.

    The one product kernel of both q-congruence pipelines: for each
    nonzero a_i of the sparser operand the other, rotated by i (a slice
    of it written out twice), is added in a_i times; most coefficients
    are +-1, which add or subtract the rotation as it is.  That costs
    nnz(a) * d Python additions, so a product past 2048 of them is
    instead packed into one big-int multiplication (_intpoly_mul) and
    folded.  Packing has a fixed cost of its own, so below the
    threshold, which no product at d <= 45 reaches, the slices stay
    faster.
    """
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    if na > nb:
        a, b, na = b, a, nb
    if na * d > 2048:
        return _fold_list(_intpoly_mul(a, b), d)
    b = list(b) + [0] * (d - len(b))
    b += b
    out = [0] * d
    for i, c in enumerate(a):
        if c:
            rot = b[d - i : 2 * d - i]
            if c == 1:
                out = list(map(add, out, rot))
            elif c == -1:
                out = list(map(sub, out, rot))
            else:
                out = [o + c * x for o, x in zip(out, rot)]
    return out


@lru_cache(maxsize=None)
def _local_images(family: str, n: int) -> dict:
    """{d: depth-1 images at d} over d | n, d > 1, of the numerators M_k over D = _common_den_binomials(n).

    M_k = sign * q^qpow * (numerator binomials) * (D / term denominator)
    is t^c_k times a series, c_k the number of its vanishing binomials;
    Phi_d divides D m_d times, so c_k >= m_d, or DenominatorNotCoprime is
    raised.  Image k is the t^m_d coefficient of M_k: () if c_k > m_d, else
    the product of the images of a prefix of the last term's Pochhammer, a
    suffix of D and (1 - q^(6k+1)), read off one prefix and one suffix chain
    per d.  Term k's lists are read once into five numbers and let go.
    """
    full = _common_den_binomials(n)
    records = []
    for k in range(n):
        sign, qpow, num, den = _term_binomials(family, k)
        records.append((sign, qpow, num[-1], len(num) - 1, len(den)))
    pochhammer = num[:-1]
    out = {}
    for d in _divisors(n)[1:]:
        def vanishes(f) -> bool:
            return f[0] == 1 and not f[1] % d

        def times(a: list, f) -> list:
            s, m = f
            return [-m * c for c in a] if vanishes(f) else list(map(sub if s == 1 else add, a, _rotate(a, m)))

        def chain(binomials: list, stops: set) -> dict:
            products = accumulate(binomials[: max(stops)], times, initial=[1] + [0] * (d - 1))
            return {j: p for j, p in enumerate(products) if j in stops}

        num_depth, den_depth = (list(accumulate(map(vanishes, fs), initial=0)) for fs in (pochhammer, full))
        excess = [den_depth[dl] - num_depth[pl] - vanishes(own) for _, _, own, pl, dl in records]
        if max(excess) > 0:
            raise DenominatorNotCoprime(f"Phi_{d} is left in the reduced denominator and divides [{n}]")
        built = [k for k, e in enumerate(excess) if not e]
        pre = chain(pochhammer, {records[k][3] for k in built})
        suf = chain(full[::-1], {len(full) - records[k][4] for k in built})
        images = [()] * n
        for k in built:
            sign, qpow, own, pl, dl = records[k]
            product = times(_cyclic_mul(pre[pl], suf[len(full) - dl], d), own)
            images[k] = tuple(sign * c for c in _rotate(product, qpow))
        out[d] = tuple(images)
    return out


def _reduced_verdict(family: str, n: int, d: int, double: bool) -> list:
    """Verdict at d | n, d > 1: zero iff Phi_d divides the summed numerator more than D does.

    As every c_k >= m_d, the t^m_d coefficient of the single sum is the
    sum of the images, and the t^2m_d coefficient of the double sum over
    D^2 is their pair sum; returned modulo Phi_d.
    """
    images = _local_images(family, n)[d]
    total = _term_sum(images, partial(_cyclic_mul, d=d) if double else None)
    return _int_divmod_unit_lead(total, cyclotomic(d).coeffs)[1]


def reduced_sum_residue(family: str, n: int, double: bool) -> QPoly:
    """Witness modulo [n] of the single or double sum, from the verdict at each d | n.

    [n] is the squarefree product of Phi_d over d | n, d > 1, and the rest
    of D is coprime to it, so the sum vanishes modulo [n] iff every
    verdict does.  Returns ZERO then, otherwise the verdict at the first d
    where it is nonzero, computing none past it: a polynomial in q of
    degree below phi(d); only its vanishing is meaningful.  The d are
    those _local_images builds, ascending, all before the first verdict:
    it raises DenominatorNotCoprime, and ValueError for a family other
    than "c" or "cp", even at n = 1, which has no d but a term 0.  Even n
    raises EvenN: at even d, 1 + q^m also vanishes at zeta_d, and the
    count of vanishing binomials would miss it.
    """
    if n < 1:
        raise ValueError(f"reduced_sum_residue needs n >= 1, got {n}")
    if n % 2 == 0:
        raise EvenN(f"the reduced verdict needs odd n, got {n}")
    for d in _local_images(family, n):
        coeffs = _reduced_verdict(family, n, d, double)
        if coeffs:
            return QPoly._raw(coeffs)
    return ZERO


# ---------------------------------------------------------------------------
# folded sum pipeline in Z[q]/([n])
# ---------------------------------------------------------------------------


def _qint_mul(a: list, b: list, n: int) -> list:
    """Product modulo [n] of two coefficient lists of length at most n, trimmed.

    [n] divides q^n - 1, so the product modulo q^n - 1 by _cyclic_mul,
    reduced once, is the product modulo [n]: q^(n-1) = -(1 + q + ... +
    q^(n-2)) modulo [n], so the top coefficient is subtracted from the
    others; at n = 1 nothing is left.
    """
    *cs, top = _cyclic_mul(a, b, n)
    return _trim([c - top for c in cs] if top else cs)


@lru_cache(maxsize=None)
def _folded_terms(family: str, n: int) -> tuple:
    """Integer images mod [n] of the first n terms over one common denominator.

    Term k is N_k / L with L = prod Phi_d^L_d, where L_d is the largest
    multiplicity of Phi_d in any of the n term denominators, and
    N_k = sign * q^qpow * prod Phi_d^m_k(d), m_k(d) = e_d + L_d >= 0, has
    integer coefficients.  The exponents are read into one dense row per
    term, a column per cyclotomic index.  Numerator Pochhammers grow with
    k and denominator cofactors shrink with k, so most of the m_k are
    shared: _chain_split puts them in one prefix and one suffix chain of
    cyclotomic powers mod [n] and leaves each term a few factors of its
    own; the signed q^qpow rotates the prefix image modulo q^n - 1, and
    the prefix times suffix product reduces it mod [n] with the rest.
    Every image has fewer than n coefficients; at prime n, [n] = Phi_n
    and the terms with k > (n-1)/2 carry Phi_n, so their
    images are empty.  A sum of terms vanishes modulo [n] iff the same
    sum of the N_k does, because L is coprime to [n]: term denominators
    carry only even cyclotomic indices and n is odd.  A denominator
    index d that divides n raises DenominatorNotCoprime.

    Family "cp" is read off "c" and builds no chains: (q^2;q^4)_k =
    (q;q^2)_k (-q;q^2)_k, so c'(k) = (-1)^k q^(-2k^2) B_k c(k), B_k =
    (-q;q^2)_k, over the same L.  L carries only d with 4 | d, which no
    factor 1 + q^(2i+1) of B_k has, as c's exponents are >= 0 at every
    other d: e_1 = 0; at odd d > 1 the numerator has at least as many
    1 - q^(2i+1) with d | 2i+1 as the denominator has 1 - q^(4i) with
    d | i; at d = 2d', d' odd, at least twice as many 1 + q^(2i+1) with
    d' | 2i+1, and no 1 + q^(4i) has such a d.  B_k is kept mod q^n - 1,
    one rotate-and-add by 1 + q^(2k-1) per step; each nonempty image of
    "c" takes one product mod [n] by it, signed and rotated by q^(-2k^2).
    """
    if family == "cp":
        images, b = [], [1] + [0] * (n - 1)
        for k, image in enumerate(_folded_terms("c", n)):
            if k:
                b = list(map(add, b, _rotate(b, 2 * k - 1)))
            if image:
                image = tuple(_qint_mul(image, [(-1) ** k * c for c in _rotate(b, -2 * k * k)], n))
            images.append(image)
        return tuple(images)
    terms = [_reduced_term(family, k) for k in range(n)]
    exps = [dict(e) for _, _, e in terms]
    ds = sorted(set().union(*exps))
    rows = [[e.get(d, 0) for d in ds] for e in exps]
    common = [-min(0, *col) for col in zip(*rows)]
    bad = [d for d, e in zip(ds, common) if e and n % d == 0]
    if bad:
        raise DenominatorNotCoprime(f"term denominators share cyclotomic indices {bad} with q^{n} - 1")
    us, vs, rs = _chain_split([list(map(add, row, common)) for row in rows])
    phis = [_fold_list(cyclotomic(d).coeffs, n) for d in ds]

    def times(image: list, row) -> list:
        for phi, e in zip(phis, row):
            for _ in range(e):
                if not image:  # already a multiple of [n], as at prime n once Phi_n enters
                    return image
                image = _qint_mul(image, phi, n)
        return image

    def chain(parts: list) -> list:
        out, image, have = [], [1], [0] * len(ds)
        for part in parts:
            image = times(image, map(sub, part, have))
            have = part
            out.append(image)
        return out

    images = []
    for (sign, qpow, _), pre, suf, r in zip(terms, chain(us), chain(vs[::-1])[::-1], rs):
        placed = [sign * c for c in _rotate(pre + [0] * (n - len(pre)), qpow)]
        images.append(tuple(times(_qint_mul(placed, suf, n), r)))
    return tuple(images)


def folded_single_sum_residue(family: str, n: int) -> QPoly:
    """Residue modulo [n] of the single sum: the sum of the images of _folded_terms.

    Zero iff the sum is congruent to 0 modulo [n]; the residue is that of
    the sum times the common denominator L of _folded_terms, a unit
    modulo [n], so only its vanishing is meaningful.  The images are
    residues mod [n] already, so their sum is one too, with no division.
    """
    if n < 1:
        raise ValueError(f"folded_single_sum_residue needs n >= 1, got {n}")
    images = _folded_terms(family, n)
    return QPoly(_term_sum(images))


def folded_double_sum_residue(family: str, n: int) -> QPoly:
    """Residue modulo [n] of the double sum, computed in Z[q]/([n]).

    The sum over i + j < n of t(i)t(j) is built by _term_sum from n
    products mod [n] of the images.  Like the single sum, only its
    vanishing is meaningful.
    """
    if n < 1:
        raise ValueError(f"folded_double_sum_residue needs n >= 1, got {n}")
    images = _folded_terms(family, n)
    total = _term_sum(images, partial(_qint_mul, n=n))
    return QPoly(total)
