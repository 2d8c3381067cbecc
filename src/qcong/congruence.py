"""Instance checks for the eight congruence claims.

eq1-eq4 are q-congruences: single (eq1, eq2) and double (eq3, eq4)
partial sums of the two term families must vanish modulo [n] for odd n.
Each check can run through two pipelines, and the verdicts must agree:

- "folded" (the default) builds every term from its cyclotomic exponents
  over an integer common denominator coprime to [n] and works on the
  numerators folded modulo q^n - 1;
- "reduced" expands the raw binomial products at full degree, reduces
  the sum by trial division with cyclotomic polynomials, and divides the
  reduced numerator by [n].

The two build the sum from different data: the folded path from the
term exponents, never expanding a binomial product or dividing by a
cyclotomic; the reduced path from the expanded binomial products, never
reading the exponents.  They share only the list-product and division
kernels and the cyclotomic factorization of a binomial, so an error in
how either one builds, cancels or combines terms shows as a
disagreement instead of being repeated by the other.

eq5-eq8 are congruences of the rational double sums at the binomial
level: writing S(x, p) for the sum over k < p of x^k times the inner
convolution, the claims are

    eq5:  S(-1/8, p) = 0    (mod p)      eq7:  S(-1/8, p) = -p/2  (mod p^2)
    eq6:  S(1/4,  p) = 0    (mod p)      eq8:  S(1/4,  p) = p     (mod p^2)

for odd primes p.  Rational values are reduced modulo m through the
inverse of the denominator, which must be coprime to m.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .bigmath import is_odd_prime, rational_mod
from .closedform import special_q_neg_half, special_q_one
from .errors import EvenN, NotOddPrime
from .qring import ZERO, QPoly, congruent_zero_mod_qint
from .sums import (
    c_q_term,
    cp_q_term,
    double_sum,
    folded_double_sum_residue,
    folded_single_sum_residue,
    q_double_sum,
    q_single_sum,
)


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of one congruence instance; holds iff the residues agree."""

    claim_id: str
    instance: int
    holds: bool
    lhs_residue: object
    rhs_residue: object
    modulus_description: str
    elapsed_ms: int


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise NotOddPrime(f"instance must be an odd prime, got {p}")


def _prime_power_report(claim_id: str, p: int, weight: Fraction, rhs_value, square: bool) -> CongruenceReport:
    _require_odd_prime(p)
    t0 = time.perf_counter()
    s = double_sum(p, weight)
    cross = special_q_neg_half(p) if weight == Fraction(-1, 8) else special_q_one(p)
    if s != cross:
        raise ArithmeticError(
            f"double_sum({p}, {weight}) disagrees with its closed form: {s} vs {cross}"
        )
    m = p * p if square else p
    lhs = rational_mod(s, m)
    rhs = rational_mod(Fraction(rhs_value), m)
    return CongruenceReport(
        claim_id=claim_id,
        instance=p,
        holds=lhs == rhs,
        lhs_residue=lhs,
        rhs_residue=rhs,
        modulus_description=f"p^2 = {m}" if square else f"p = {m}",
        elapsed_ms=round((time.perf_counter() - t0) * 1000),
    )


def check_eq5(p: int) -> CongruenceReport:
    """Sum with weight (-1/8)^k vanishes mod p."""
    return _prime_power_report("eq5", p, Fraction(-1, 8), 0, square=False)


def check_eq6(p: int) -> CongruenceReport:
    """Sum with weight (1/4)^k vanishes mod p."""
    return _prime_power_report("eq6", p, Fraction(1, 4), 0, square=False)


def check_eq7(p: int) -> CongruenceReport:
    """Sum with weight (-1/8)^k is congruent to -p/2 mod p^2."""
    return _prime_power_report("eq7", p, Fraction(-1, 8), Fraction(-p, 2), square=True)


def check_eq8(p: int) -> CongruenceReport:
    """Sum with weight (1/4)^k is congruent to p mod p^2."""
    return _prime_power_report("eq8", p, Fraction(1, 4), p, square=True)


def _q_congruence_report(claim_id: str, term, n: int, double: bool, method: str) -> CongruenceReport:
    if n < 1:
        raise ValueError(f"{claim_id} needs n >= 1, got {n}")
    if n % 2 == 0:
        raise EvenN(f"{claim_id} is only asserted for odd n, got {n}")
    t0 = time.perf_counter()
    if n == 1:
        # [1] = 1 divides everything; defined to hold so scans stay total
        residue: QPoly = ZERO
        holds = True
    elif method == "folded":
        fold = folded_double_sum_residue if double else folded_single_sum_residue
        residue = fold(term, n)
        holds = residue.is_zero
    elif method == "reduced":
        build = q_double_sum if double else q_single_sum
        verdict = congruent_zero_mod_qint(build(term, n), n)
        residue = verdict.residue
        holds = verdict.holds
    else:
        raise ValueError(f"method must be 'folded' or 'reduced', got {method!r}")
    return CongruenceReport(
        claim_id=claim_id,
        instance=n,
        holds=holds,
        lhs_residue=residue,
        rhs_residue=ZERO,
        modulus_description=f"[{n}]",
        elapsed_ms=round((time.perf_counter() - t0) * 1000),
    )


def check_eq1(n: int, method: str = "folded") -> CongruenceReport:
    """Single sum of the alternating family vanishes mod [n], odd n."""
    return _q_congruence_report("eq1", c_q_term, n, double=False, method=method)


def check_eq2(n: int, method: str = "folded") -> CongruenceReport:
    """Single sum of the non-alternating family vanishes mod [n], odd n."""
    return _q_congruence_report("eq2", cp_q_term, n, double=False, method=method)


def check_eq3(n: int, method: str = "folded") -> CongruenceReport:
    """Double sum of the alternating family vanishes mod [n], odd n."""
    return _q_congruence_report("eq3", c_q_term, n, double=True, method=method)


def check_eq4(n: int, method: str = "folded") -> CongruenceReport:
    """Double sum of the non-alternating family vanishes mod [n], odd n."""
    return _q_congruence_report("eq4", cp_q_term, n, double=True, method=method)
