"""Exact polynomial and rational-function arithmetic in the formal variable q.

QPoly is a dense polynomial over the rationals stored ascending by
exponent with trailing zeros trimmed; coefficients are kept as Python
ints whenever they are integral and only become Fractions when a
genuinely rational value appears.  QRat is a reduced rational function
with a monic denominator.

On top of the ring operations the module provides the objects the
congruence checks are phrased in: the q-integer [n] = 1 + q + ... +
q^(n-1), q-shifted factorial products, cyclotomic polynomials, exponent
folding modulo q^n - 1 (valid before divisibility checks because [n]
divides q^n - 1), and the predicate "f = 0 (mod [n])" for rational
functions, which holds when [n] divides the numerator and is coprime to
the denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .errors import BothZero, DenominatorNotCoprime, DivisionByZeroPoly


def _norm(c):
    """Collapse integral Fractions to int so integer inputs stay on the fast path."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    large.reverse()
    return small + large


@lru_cache(maxsize=None)
def _binomial_cyclotomic_indices(sign: int, m: int) -> tuple[int, ...]:
    """Cyclotomic indices d with Phi_d dividing (1 - sign*q^m), m >= 1.

    1 - q^m is the product of Phi_d over d | m; 1 + q^m = (1 - q^{2m}) /
    (1 - q^m) collects the d dividing 2m but not m.  Both products are
    squarefree, so every listed index has multiplicity one.  Cached, so a
    tuple: every caller gets the same value.
    """
    if sign == 1:
        return tuple(_divisors(m))
    return tuple(d for d in _divisors(2 * m) if m % d)


# ---------------------------------------------------------------------------
# low-level integer-coefficient kernels
# ---------------------------------------------------------------------------


def _intpoly_mul(a: list[int], b: list[int]) -> list[int]:
    """Multiply integer coefficient lists by packing into one big int; untrimmed.

    Coefficients are offset into nonnegative byte-aligned chunks so the
    whole product is a single CPython big-int multiplication; chunk width
    is sized from the exact convolution bound and the largest operand
    coefficient, making recovery lossless.
    """
    amax = max(map(abs, a))
    bmax = max(map(abs, b))
    bound = max(amax * bmax * min(len(a), len(b)), amax, bmax)
    bits = ((bound.bit_length() + 2 + 7) // 8) * 8
    half = 1 << (bits - 1)
    nbytes = bits // 8
    out_len = len(a) + len(b) - 1

    def pack(cs):
        raw = b"".join((c + half).to_bytes(nbytes, "little") for c in cs)
        packed = int.from_bytes(raw, "little")
        rep = ((1 << (bits * len(cs))) - 1) // ((1 << bits) - 1)
        return packed - half * rep

    x = pack(a) * pack(b)
    rep_out = ((1 << (bits * out_len)) - 1) // ((1 << bits) - 1)
    raw = (x + half * rep_out).to_bytes(out_len * nbytes, "little")
    return [
        int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") - half
        for i in range(out_len)
    ]


def _all_int(cs) -> bool:
    """Every coefficient is exactly an int: no bool, int subclass or Fraction."""
    return set(map(type, cs)) <= {int}


def _list_mul(a: list, b: list) -> list:
    """Coefficient-list product, untrimmed; sparse-aware, big-int packed when profitable."""
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    if na > nb:
        a, b, na = b, a, nb
    if na * len(b) > 4096 and _all_int(a) and _all_int(b):
        return _intpoly_mul(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _product_of_binomials(factors) -> list[int]:
    """Expand the product of (1 - s*q^m) factors given as (s, m) pairs."""
    c = [1]
    for s, m in factors:
        c = _trim(list(map(sub if s == 1 else add, c + [0] * m, [0] * m + c)))
    return c


def _int_divmod_unit_lead(a: list, b: list) -> tuple[list, list]:
    """divmod for int or Fraction coefficient lists, b monic."""
    db = len(b) - 1
    r = list(a)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            q[i - db] = c
            r[i] = 0
            base = i - db
            for j in range(db):
                if b[j]:
                    r[base + j] -= c * b[j]
    del r[db:]
    return _trim(q), _trim(r)


def _fold_list(cs, n: int) -> list:
    """Coefficient list reduced modulo q^n - 1 by summing exponents mod n; untrimmed, n coefficients."""
    out = [0] * n
    for e, c in enumerate(cs):
        if c:
            out[e % n] += c
    return out


class _Frozen:
    """Immutable value: fields in __slots__ order, compared and hashed by value.

    Each subclass sets its fields once via object.__setattr__ (a generic
    *args/**kwargs constructor is about twice as slow) and is no tuple, so
    no caller mistakes it for one; QPoly and QRat use its field guards,
    its pickling, which loads through their constructors, and its repr.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# QPoly
# ---------------------------------------------------------------------------


_LAST = ((), "0")  # coefficients and text QPoly.__str__ rendered last; replaced as one pair


class QPoly(_Frozen):
    """Dense polynomial in q over the rationals, ascending exponents.

    The zero polynomial is the empty coefficient tuple and reports
    degree -1.  Instances are immutable and safe to share.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if not _all_int(cs):
            cs = [_norm(c) for c in cs]
        object.__setattr__(self, "coeffs", tuple(_trim(cs)))

    @classmethod
    def _raw(cls, cs) -> "QPoly":
        """Wrap a list built int-normalized and trimmed, so canonical by construction (internal)."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    @classmethod
    def q_power(cls, m: int) -> "QPoly":
        return ONE.shift(m)

    @property
    def degree(self) -> int:
        """Degree, with the sentinel -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, e: int):
        return self.coeffs[e] if 0 <= e < len(self.coeffs) else 0

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        elif not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return QPoly._raw([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            return QPoly._raw([_norm(c * other) if c else 0 for c in self.coeffs])
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly(_list_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result, base = ONE, self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __divmod__(self, other):
        return divrem(self, other)

    def shift(self, m: int) -> "QPoly":
        """Multiply by q^m, m >= 0."""
        if m < 0:
            raise ValueError(f"shift needs m >= 0, got {m}")
        if self.is_zero or m == 0:
            return self
        return QPoly._raw((0,) * m + self.coeffs)

    def monic(self) -> "QPoly":
        if self.is_zero:
            return self
        return self * (1 / Fraction(self.coeffs[-1]))

    def __call__(self, x) -> Fraction:
        """Exact evaluation at a rational point; a float is taken at its exact value."""
        x, acc = Fraction(x), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == QPoly([other]).coeffs
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes like it; zero like 0
        cs = self.coeffs
        return hash(cs) if len(cs) > 1 else hash(cs[0] if cs else 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        global _LAST
        cs = self.coeffs
        done, text = _LAST
        # canonical coefficients fix the text, so an extension of the last one extends its text
        start = len(done) if cs[: len(done)] == done else 0
        terms = "".join(  # every term with its sign: " + 3", " - q", " + 1/2*q^4"
            f" {s} {a}" if not e else f" {s} {m}" if a == 1 else f" {s} {a}*{m}"
            for e, c in enumerate(cs[start:], start) if c
            for s, a in [("+", c) if c > 0 else ("-", -c)]
            for m in ["q" if e == 1 else f"q^{e}"]
        )
        if start:
            text += terms
        else:  # a fresh render reads the first sign off once
            text = terms[3:] if terms[1:2] == "+" else f"-{terms[3:]}" if terms else "0"
        _LAST = cs, text
        return text


ZERO = QPoly._raw(())
ONE = QPoly._raw((1,))


def _as_qpoly(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly([x])
    raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def divrem(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly]:
    """Quotient and remainder with a = q*b + r and degree(r) < degree(b).

    a is divided by the monic b*inv, inv = 1/lead(b), and the quotient is scaled by inv.
    """
    a, b = _as_qpoly(a), _as_qpoly(b)
    if b.is_zero:
        raise DivisionByZeroPoly("polynomial division by zero")
    lead = b.leading
    inv = lead if lead == 1 or lead == -1 else 1 / Fraction(lead)
    qc, rc = _int_divmod_unit_lead(a.coeffs, [c * inv for c in b.coeffs])
    return QPoly(c * inv for c in qc), QPoly(rc)


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic greatest common divisor over the rationals."""
    a, b = _as_qpoly(a), _as_qpoly(b)
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    while not b.is_zero:
        r = divrem(a, b)[1]
        a, b = b, r.monic()
    return a.monic()


# Uncalled in the package; the benchmark's tracer (perfbench/tracing.py) resolves it by name.
def _poly_inverse_mod(f: QPoly, modulus: QPoly) -> QPoly:
    """Inverse of f modulo a polynomial coprime to it, by Euclid keeping only the cofactor of f."""
    r0, r1 = f, modulus
    s0, s1 = ONE, ZERO
    while not r1.is_zero:
        q, r = divrem(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise DenominatorNotCoprime(f"polynomial shares the factor {r0.monic()} with the modulus")
    return divrem(s0 * (1 / Fraction(r0.leading)), modulus)[1]


def q_integer(n: int) -> QPoly:
    """[n] = (1 - q^n)/(1 - q) = 1 + q + ... + q^(n-1); [0] is zero."""
    if n < 0:
        raise ValueError(f"q_integer needs n >= 0, got {n}")
    return QPoly._raw((1,) * n)


def q_pochhammer(sign: int, e: int, step: int, k: int) -> QPoly:
    """The shifted-factorial product over i < k of (1 - sign*q^(e + i*step))."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if e < 0 or step < 1 or k < 0:
        raise ValueError(f"need e >= 0, step >= 1, k >= 0, got ({e}, {step}, {k})")
    return QPoly._raw(_product_of_binomials((sign, e + i * step) for i in range(k)))


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> QPoly:
    """The n-th cyclotomic polynomial (monic, integer coefficients).

    For n > 1, Phi_n is the Moebius product of (1 - q^e)^mu(n/e) over
    e | n, taken as a power series in n coefficients, which is exact
    because deg Phi_n = phi(n) < n.  Over the divisors s of n, ascending,
    mu(1) = 1 and mu(s) is minus the sum of mu(t) over the t | s before
    it.  Each factor with mu != 0 is one sparse step: 1 - q^e is
    c[i] -= c[i - e] for i descending, its inverse c[i] += c[i - e] for
    i ascending, and the steps commute.  The test suite cross-checks the
    product of the Phi_d over d | n against [n].
    """
    if n < 1:
        raise ValueError(f"cyclotomic needs n >= 1, got {n}")
    if n == 1:
        return QPoly._raw([-1, 1])
    mu = {1: 1}  # divisor s of n -> mu(s)
    for s in _divisors(n)[1:]:
        mu[s] = -sum(v for t, v in mu.items() if s % t == 0)
    c = [1] + [0] * (n - 1)
    for s, sign in mu.items():
        e = n // s
        if sign == 1:
            for i in range(n - 1, e - 1, -1):
                c[i] -= c[i - e]
        elif sign == -1:
            for i in range(e, n):
                c[i] += c[i - e]
    return QPoly._raw(_trim(c))


def fold_mod_qn_minus_1(f: QPoly, n: int) -> QPoly:
    """Remainder of f modulo q^n - 1, by summing coefficients of congruent exponents."""
    if n < 1:
        raise ValueError(f"fold needs n >= 1, got {n}")
    return QPoly(_fold_list(f.coeffs, n))


# ---------------------------------------------------------------------------
# rational functions and the congruence predicate
# ---------------------------------------------------------------------------


class QRat(_Frozen):
    """Reduced rational function in q: gcd(num, den) is a unit, den is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_qpoly(num)
        den = ONE if den is None else _as_qpoly(den)
        if den.degree > 0 and not num.is_zero:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = divrem(num, g)[0]
                den = divrem(den, g)[0]
        self._set(num, den)

    def _set(self, num: QPoly, den: QPoly) -> "QRat":
        """Store coprime parts in canonical form: zero as 0/1, the denominator monic."""
        if den.is_zero:
            raise DivisionByZeroPoly("rational function with zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        lead = den.leading
        if lead != 1:
            inv = 1 / Fraction(lead)
            num, den = num * inv, den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def _from_reduced(cls, num: QPoly, den: QPoly) -> "QRat":
        """Wrap parts already known coprime, normalizing the denominator (internal)."""
        return object.__new__(cls)._set(num, den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        total = self.num * other.den + other.num * self.den
        # over a denominator 1 the sum is reduced: gcd(N + P*D, D) = gcd(N, D) = 1
        if self.den == ONE or other.den == ONE:
            return QRat._from_reduced(total, self.den * other.den)
        return QRat(total, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return QRat._from_reduced(-self.num, self.den)

    def __mul__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return QRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise DivisionByZeroPoly("division by the zero rational function")
        return QRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # over 1 it equals its numerator, so it hashes like it
        return hash(self.num) if self.den == ONE else hash((self.num, self.den))

    def evaluate(self, x) -> Fraction:
        """Exact value at a rational point; the denominator must not vanish there."""
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q = {x}")
        return self.num(x) / d

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _as_qrat(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, (QPoly, int, Fraction)):
        return QRat._from_reduced(_as_qpoly(x), ONE)
    return NotImplemented


class Verdict(_Frozen):
    """Outcome of one divisibility check; holds iff the residue is zero."""

    __slots__ = ("modulus", "residue")

    def __init__(self, modulus, residue):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residue", residue)

    @property
    def holds(self) -> bool:
        return not self.residue


def congruent_zero_mod_qint(f, n: int) -> Verdict:
    """Decide whether f = 0 modulo [n] for a polynomial or rational function.

    The congruence holds when [n] divides the numerator and the
    denominator is coprime to [n]; a denominator sharing a factor with
    [n] makes the congruence undefined and raises DenominatorNotCoprime
    rather than returning a failing verdict.  The numerator is folded
    modulo q^n - 1, then divided by [n] in at most one step; the fold
    leaves the remainder unchanged because [n] divides q^n - 1.
    """
    if n < 2:
        raise ValueError(f"congruence modulo [n] needs n >= 2, got {n}")
    num, den = (f.num, f.den) if isinstance(f, QRat) else (_as_qpoly(f), ONE)
    modulus = q_integer(n)
    if den.degree > 0 and poly_gcd(den, modulus).degree > 0:
        raise DenominatorNotCoprime(
            f"denominator {den} shares a factor with [{n}]"
        )
    residue = divrem(fold_mod_qn_minus_1(num, n), modulus)[1]
    return Verdict(modulus, residue)
