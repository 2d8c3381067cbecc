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
assembled two independent ways.  The reduced pipeline works over the
binomial common denominator D = sign * prod Phi_d^m_d.  Its congruence
verdict never expands a numerator: [n] is squarefree, so the sum
vanishes modulo [n] iff Phi_d divides the summed numerator N more than
m_d times for every d | n, d > 1, and that valuation is the t-adic
valuation of N at q = zeta_d (1 + t).  Each numerator is built from its
binomials directly as such a local series, truncated just past m_d (2 m_d
for a double sum), and a double sum is n series products with prefix
sums.  q_single_sum and q_double_sum, the canonical oracle, instead
expand the numerators at full degree and cancel every Phi_d by trial
division, building the reduced denominator from the multiplicities
left, never expanding D, to give a canonical QRat.  The folded pipeline
puts every term over the integer common denominator
L = prod Phi_d^(max_k -e_d), which carries only even cyclotomic indices
and so is coprime to [n] for odd n, and builds each numerator from the
exponents as an integer polynomial modulo [n]: every product is taken
modulo q^n - 1 and then reduced modulo [n], which divides it, so the
summed images already are the residue.  On both pipelines the term
numerators share most of their factors, binomials or cyclotomics, so one
plan, _chain_products, builds each from a prefix and a suffix chain,
each grown by its increments, and a few factors of its own, in the
pipeline's own ring.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, and_, sub

from .bigmath import central_binomial
from .errors import DenominatorNotCoprime
from .qring import (
    QPoly,
    QRat,
    ZERO,
    _binomial_cyclotomic_indices,
    _divisors,
    _fold_list,
    _int_divmod_unit_lead,
    _list_mul,
    _product_of_binomials,
    _trim,
    cyclotomic,
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
    """Sum over k < n of x^k * inner_conv_sum(k), exact.

    With x = a/b the sum is (sum_k inner_conv_sum(k) a^k b^(n-1-k)) /
    b^(n-1); the numerator is accumulated by Horner's rule in integers,
    so the only gcd is the one that reduces the final Fraction.
    """
    if n < 1:
        raise ValueError(f"double_sum needs n >= 1, got {n}")
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    acc, ak = 0, 1
    for k in range(n):
        acc = acc * b + inner_conv_sum(k) * ak
        ak *= a
    return Fraction(acc, b ** (n - 1))


# ---------------------------------------------------------------------------
# q-series terms
# ---------------------------------------------------------------------------

# A binomial factor (s, m) stands for the polynomial 1 - s*q^m.


def _term_binomials(family: str, k: int):
    """Numerator/denominator binomial factors of the k-th term, unreduced.

    [6k+1] enters as (1 - q^(6k+1)) in the numerator and (1 - q) in the
    denominator so that everything stays a product of binomials; the
    denominator is then D_{k+1} of _common_den_binomials.
    """
    if family == "c":
        num = [(1, 2 * i + 1) for i in range(k)]
        sign, qpow = (-1) ** k, 3 * k * k
    elif family == "cp":
        num = [(1, 4 * i + 2) for i in range(k)]
        sign, qpow = 1, k * k
    else:
        raise ValueError(f"unknown term family {family!r}")
    num += [(-1, 2 * i + 1) for i in range(k) for _ in range(2)]
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


def _cyclotomic_product(factors) -> list[int]:
    """Integer coefficients of the product of Phi_d^e over (d, e) pairs, e >= 0."""
    out = [1]
    for d, e in factors:
        phi = list(cyclotomic(d).coeffs)
        for _ in range(e):
            out = _list_mul(out, phi)
    return out


def _family_name(term) -> str:
    if term is c_q_term:
        return "c"
    if term is cp_q_term:
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
        coeffs = [0] * qpow + coeffs
        if sign < 0:
            coeffs = [-c for c in coeffs]
        ms.append(tuple(coeffs))
    return tuple(ms)


def _accumulate(acc: list, coeffs) -> None:
    if len(coeffs) > len(acc):
        acc.extend([0] * (len(coeffs) - len(acc)))
    for e, c in enumerate(coeffs):
        if c:
            acc[e] += c


def _term_sum(items, mul, double: bool) -> list:
    """Sum of the n items, or with double of mul(items[i], items[j]) over i + j < n; untrimmed.

    Every single and double sum of terms is assembled here; each caller
    brings its own ring product mul, used only for a double sum.  That
    is taken as the sum over j of mul(items[j], P(n-1-j)), with P(m) the
    prefix sum items[0] + ... + items[m]: n products instead of the
    pairs (i, j).
    """
    if double:
        prefixes, prefix = [], []
        for item in items:
            _accumulate(prefix, item)
            prefixes.append(list(prefix))
        items = (mul(item, prefixes[-1 - j]) for j, item in enumerate(items))
    acc: list = []
    for item in items:
        _accumulate(acc, item)
    return acc


def _chain_split(mults: list) -> tuple[list, list, list]:
    """Split nonnegative factor Counters m_k as u_k + v_k + r_k, all >= 0.

    u_k = min over j >= k of m_j does not decrease with k, and
    v_k = min over j <= k of (m_j - u_j) does not increase, so the
    products of the factors counted by u_k and by v_k are a prefix and a
    suffix chain, each built by multiplying in only its increments; r_k
    is the rest of m_k.
    """
    us = list(accumulate(reversed(mults), and_))[::-1]
    ws = [m - u for m, u in zip(mults, us)]
    vs = list(accumulate(ws, and_))
    return us, vs, [w - v for w, v in zip(ws, vs)]


def _chain_products(mults: list, one, times, mul) -> list:
    """For each factor Counter m_k, the product of its factors, from the chains of _chain_split.

    Every pipeline builds its term numerators here in its own ring: one
    is the unit, times(image, f) multiplies an image by one factor f and
    mul(a, b) multiplies two images.
    """

    def extend(image, factors: Counter):
        for f, e in factors.items():
            for _ in range(e):
                image = times(image, f)
        return image

    def chain(parts) -> list:
        out, image, have = [], one, Counter()
        for part in parts:
            image = extend(image, part - have)
            have = part
            out.append(image)
        return out

    us, vs, rs = _chain_split(mults)
    sufs = chain(vs[::-1])[::-1]
    return [extend(mul(pre, suf), r) for pre, suf, r in zip(chain(us), sufs, rs)]


def _reduce_over_binomials(num: list, den_binomials: list) -> QRat:
    """Reduce an integer numerator against a denominator given in binomial form.

    The denominator factors as sign * prod Phi_d^m_d with no polynomial
    arithmetic, so the gcd is found by trial-dividing the numerator by
    each Phi_d, at most m_d times; a fold modulo q^d - 1 is a cheap
    divisibility pre-filter since Phi_d divides q^d - 1.  The reduced
    denominator is the product of the Phi_d^m_d left uncancelled, built
    directly, and is monic; the sign moves to the numerator.
    """
    sign, mults = _cyclotomic_multiplicities(den_binomials)
    for d in sorted(mults):
        phi = list(cyclotomic(d).coeffs)
        while mults[d]:
            folded = _fold_list(num, d)
            if folded and _int_divmod_unit_lead(folded, phi)[1]:
                break
            num, rem = _int_divmod_unit_lead(num, phi)
            assert not rem, f"fold pre-filter and division disagree at d={d}"
            mults[d] -= 1
    if sign < 0:
        num = [-c for c in num]
    den = _cyclotomic_product(mults.items())
    return QRat._from_reduced(QPoly._raw(num), QPoly._raw(den))


def _summed_numerator(family: str, n: int, double: bool) -> tuple[list, list]:
    """Integer numerator N and binomial denominator D of a single or double sum.

    The single sum of the first n terms is N / D with N the sum of the
    numerators M_k over D = _common_den_binomials(n).  The double sum
    over i + j < n of t(i)t(j) is N / D^2 with N the pair sum of the M_k,
    built by _term_sum from n products.  N is trimmed and not reduced
    against D.
    """
    num = _term_sum(_assembled_numerators(family, n), _list_mul, double)
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
# reduced verdict by local expansion at the roots of unity of [n]
# ---------------------------------------------------------------------------

# A local series stands for a polynomial N expanded at q = x(1 + t) and
# truncated at t^r, with coefficients in Z[x]/(x^d - 1): a flat list whose
# entry j*d + a is the coefficient of t^j x^a.  Reducing each t-coefficient
# modulo Phi_d gives the expansion of N at zeta_d(1 + t), zeta_d a
# primitive d-th root of unity, whose t-adic valuation is v_Phi_d(N)
# because Phi_d has simple roots.


def _series_mul(a: list, b: list, d: int, r: int) -> list:
    """Product of two local series, truncated at t^r."""
    out = [0] * (r * d)
    for i in range(r):
        row = [(u, c) for u, c in enumerate(a[i * d : (i + 1) * d]) if c]
        if not row:
            continue
        for j in range(r - i):
            base = (i + j) * d
            for v, cv in enumerate(b[j * d : (j + 1) * d]):
                if cv:
                    for u, cu in row:
                        out[base + (u + v) % d] += cu * cv
    return out


def _series_qpow(a: list, e: int, d: int, r: int) -> list:
    """A local series times q^e: x^(e mod d) rotates, (1 + t)^e convolves in t."""
    out = [0] * (r * d)
    rot = e % d
    binoms = [comb(e, j) for j in range(r)]
    for i in range(r):
        row = [((u + rot) % d, c) for u, c in enumerate(a[i * d : (i + 1) * d]) if c]
        if not row:
            continue
        for j in range(i, r):
            b = binoms[j - i]
            if not b:
                break
            base = j * d
            for u, cu in row:
                out[base + u] += b * cu
    return out


def _local_terms(family: str, n: int, d: int, r: int) -> list:
    """Local series of the numerators M_k of the first n terms over D = _common_den_binomials(n).

    M_k = sign * q^qpow * (numerator binomials) * (D / term denominator).
    The binomials of each M_k are multiplied in along the shared chains
    of _chain_products, each (1 - s*q^e) as a - s*q^e*a.
    """
    terms = [_term_binomials(family, k) for k in range(n)]
    full = _common_den_binomials(n)
    mults = [Counter(num + full[len(den) :]) for _, _, num, den in terms]

    def times(a: list, binomial) -> list:
        s, e = binomial
        return [u - s * v for u, v in zip(a, _series_qpow(a, e, d, r))]

    one = [1] + [0] * (r * d - 1)
    products = _chain_products(mults, one, times, lambda a, b: _series_mul(a, b, d, r))
    out = []
    for (sign, qpow, _, _), product in zip(terms, products):
        m = _series_qpow(product, qpow, d, r)
        out.append([-c for c in m] if sign < 0 else m)
    return out


def _local_sum(family: str, n: int, double: bool, d: int, r: int) -> list:
    """Local series of the summed numerator N of _summed_numerator, never expanded."""
    return _term_sum(_local_terms(family, n, d, r), lambda a, b: _series_mul(a, b, d, r), double)


def _dense_local(num: list, d: int, r: int) -> list:
    """Local series of a dense integer polynomial: t^j x^a collects c_e C(e, j) over e = a mod d."""
    out = [0] * (r * d)
    for e, c in enumerate(num):
        if c:
            for j in range(min(r, e + 1)):
                out[j * d + e % d] += c * comb(e, j)
    return out


def _local_verdict(local, den_binomials: list, n: int) -> QPoly:
    """Residue-like witness of N / D modulo [n], from the local series of N at each d | n.

    [n] is the squarefree product of Phi_d over d | n, d > 1, and the
    rest of D = sign * prod Phi_d^m_d is coprime to it, so N / D = 0
    (mod [n]) iff v_Phi_d(N) > m_d for every such d.  local(d, r) gives
    the local series of N truncated at t^r; with r = m_d + 1 its first
    m_d coefficients must vanish modulo Phi_d, or Phi_d survives in the
    reduced denominator and DenominatorNotCoprime is raised, and its
    last coefficient is the verdict.  Returns ZERO when every verdict
    vanishes, otherwise the first nonzero one, a polynomial in q of
    degree below phi(d); only its vanishing is meaningful.
    """
    mults = _cyclotomic_multiplicities(den_binomials)[1]
    residue = ZERO
    for d in _divisors(n)[1:]:
        m = mults[d]
        phi = cyclotomic(d).coeffs
        series = local(d, m + 1)
        coeffs = [_int_divmod_unit_lead(series[j * d : (j + 1) * d], phi)[1] for j in range(m + 1)]
        if any(coeffs[:m]):
            raise DenominatorNotCoprime(
                f"Phi_{d} is left in the reduced denominator and divides [{n}]"
            )
        if coeffs[m] and residue.is_zero:
            residue = QPoly._raw(coeffs[m])
    return residue


def reduced_sum_residue(term, n: int, double: bool) -> QPoly:
    """Witness modulo [n] of the single or double sum, by local expansion at each d | n.

    Zero iff the sum is congruent to 0 modulo [n]; only its vanishing is
    meaningful.  No numerator is expanded: each is built as a local
    series from the term binomials.  A reduced denominator sharing a
    factor with [n] raises DenominatorNotCoprime.
    """
    if n < 1:
        raise ValueError(f"reduced_sum_residue needs n >= 1, got {n}")
    family = _family_name(term)
    den = _common_den_binomials(n)
    return _local_verdict(
        lambda d, r: _local_sum(family, n, double, d, r), den * 2 if double else den, n
    )


# ---------------------------------------------------------------------------
# folded sum pipeline in Z[q]/([n])
# ---------------------------------------------------------------------------


def _mod_qint(cs: list, n: int) -> list:
    """A coefficient list of length n reduced modulo [n], trimmed.

    q^(n-1) = -(1 + q + ... + q^(n-2)) modulo [n], so the top
    coefficient is subtracted from the others; at n = 1 nothing is left.
    """
    top = cs.pop()
    if top:
        cs = [c - top for c in cs]
    return _trim(cs)


def _mul_mod_qn(a: list, b: list, n: int) -> list:
    """Product modulo [n] of two coefficient lists of length at most n, trimmed.

    The product is written directly at the exponents (i + j) mod n, that
    is modulo q^n - 1, with no intermediate of degree 2n - 2 to fold: for
    each nonzero a_i of the sparser operand, the other operand rotated by
    i (a slice of it written out twice) is added in a_i times.
    Cyclotomic coefficients are mostly +-1, which add or subtract the
    rotation as it is.  [n] divides q^n - 1, so one pass of _mod_qint
    then leaves the product modulo [n], of degree below n - 1.
    """
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a
    b = list(b) + [0] * (n - len(b))
    b += b
    out = [0] * n
    for i, c in enumerate(a):
        if c:
            rot = b[n - i : 2 * n - i]
            if c == 1:
                out = list(map(add, out, rot))
            elif c == -1:
                out = list(map(sub, out, rot))
            else:
                out = [o + c * x for o, x in zip(out, rot)]
    return _mod_qint(out, n)


@lru_cache(maxsize=None)
def _folded_terms(family: str, n: int) -> tuple:
    """Integer images mod [n] of the first n terms over one common denominator.

    Term k is N_k / L with L = prod Phi_d^L_d, where L_d is the largest
    multiplicity of Phi_d in any of the n term denominators, and
    N_k = sign * q^qpow * prod Phi_d^m_k(d), m_k(d) = e_d + L_d >= 0, has
    integer coefficients.  Numerator Pochhammers grow with k and
    denominator cofactors shrink with k, so most of the m_k are shared:
    _chain_products builds every prod Phi_d^m_k(d) mod [n] from one
    prefix and one suffix chain of cyclotomic powers and a few factors
    of its own, and the product is then rotated by q^qpow, signed and
    reduced mod [n] again.  Every image has fewer than n coefficients;
    at prime n, [n] = Phi_n and the terms with k > (n-1)/2 carry Phi_n,
    so their images are empty.  A sum of terms vanishes modulo [n] iff
    the same sum of the N_k does, because L is coprime to [n]: term
    denominators carry only even cyclotomic indices and n is odd.  A
    denominator index d that divides n raises DenominatorNotCoprime.
    """
    terms = [_reduced_term(family, k) for k in range(n)]
    common = Counter()
    for k, (_, _, exps) in enumerate(terms):
        bad = [d for d, e in exps if e < 0 and n % d == 0]
        if bad:
            raise DenominatorNotCoprime(
                f"term {k} denominator shares cyclotomic indices {bad} with q^{n} - 1"
            )
        for d, e in exps:
            if e < 0:
                common[d] = max(common[d], -e)
    mults = []
    for _, _, exps in terms:
        mult = common.copy()
        for d, e in exps:
            mult[d] += e
        mults.append(mult)
    phis = {d: _fold_list(cyclotomic(d).coeffs, n) for d in set().union(*mults)}
    products = _chain_products(
        mults, [1], lambda a, d: _mul_mod_qn(a, phis[d], n), lambda a, b: _mul_mod_qn(a, b, n)
    )
    images = []
    for (sign, qpow, _), product in zip(terms, products):
        image = [0] * n
        for e, c in enumerate(product):
            image[(e + qpow) % n] = sign * c
        images.append(tuple(_mod_qint(image, n)))
    return tuple(images)


def folded_single_sum_residue(term, n: int) -> QPoly:
    """Residue modulo [n] of the single sum: the sum of the images of _folded_terms.

    Zero iff the sum is congruent to 0 modulo [n]; the residue is that of
    the sum times the common denominator L of _folded_terms, a unit
    modulo [n], so only its vanishing is meaningful.  The images are
    residues mod [n] already, so their sum is one too, with no division.
    """
    if n < 1:
        raise ValueError(f"folded_single_sum_residue needs n >= 1, got {n}")
    images = _folded_terms(_family_name(term), n)
    return QPoly._raw(_trim(_term_sum(images, None, double=False)))


def folded_double_sum_residue(term, n: int) -> QPoly:
    """Residue modulo [n] of the double sum, computed in Z[q]/([n]).

    The sum over i + j < n of t(i)t(j) is built by _term_sum from n
    products mod [n] of the images.  Like the single sum, only its
    vanishing is meaningful.
    """
    if n < 1:
        raise ValueError(f"folded_double_sum_residue needs n >= 1, got {n}")
    images = _folded_terms(_family_name(term), n)
    return QPoly._raw(_trim(_term_sum(images, lambda a, b: _mul_mod_qn(a, b, n), double=True)))
