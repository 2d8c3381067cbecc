"""Instance checks for the eight congruence claims.

eq1-eq4 are q-congruences: single (eq1, eq2) and double (eq3, eq4)
partial sums of the two term families must vanish modulo [n] for odd n.
Each check can run through two pipelines, "folded" (the default) and
"reduced", and the verdicts must agree; a report is untimed, so both
return the same one when the claim holds.  How each pipeline builds its
verdict is in the docstring of sums; that the two stay arithmetically
independent, so that their agreement means something, is pinned by
tests/test_independence.py.

eq5-eq8 are congruences of the rational double sums at the binomial
level: writing S(x, p) for the sum over k < p of x^k times the inner
convolution, the claims are

    eq5:  S(-1/8, p) = 0    (mod p)      eq7:  S(-1/8, p) = -p/2  (mod p^2)
    eq6:  S(1/4,  p) = 0    (mod p)      eq8:  S(1/4,  p) = p     (mod p^2)

for odd primes p.  Rational values are reduced modulo m through the
inverse of the denominator, which must be coprime to m.
"""

from __future__ import annotations

from fractions import Fraction

from .bigmath import is_odd_prime, rational_mod
from .closedform import special_q_neg_half, special_q_one
from .errors import EvenN, NotOddPrime
from .qring import ZERO, _Frozen
from .sums import (
    double_sum,
    folded_double_sum_residue,
    folded_single_sum_residue,
    reduced_sum_residue,
)


class CongruenceReport(_Frozen):
    """Outcome of one congruence instance; holds iff the residues agree."""

    __slots__ = ("claim_id", "instance", "lhs_residue", "rhs_residue", "modulus_description")

    def __init__(self, claim_id: str, instance: int, lhs_residue, rhs_residue,
                 modulus_description: str):
        object.__setattr__(self, "claim_id", claim_id)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "lhs_residue", lhs_residue)
        object.__setattr__(self, "rhs_residue", rhs_residue)
        object.__setattr__(self, "modulus_description", modulus_description)

    @property
    def holds(self) -> bool:
        return self.lhs_residue == self.rhs_residue


def _prime_power_report(claim_id: str, p: int, weight: Fraction, rhs_value, square: bool) -> CongruenceReport:
    if not is_odd_prime(p):
        raise NotOddPrime(f"instance must be an odd prime, got {p}")
    s = double_sum(p, weight)
    cross = special_q_neg_half(p) if weight == Fraction(-1, 8) else special_q_one(p)
    if s != cross:
        raise ArithmeticError(
            f"double_sum({p}, {weight}) disagrees with its closed form: {s} vs {cross}"
        )
    m = p * p if square else p
    lhs = rational_mod(s, m)
    rhs = rational_mod(rhs_value, m)
    return CongruenceReport(
        claim_id=claim_id,
        instance=p,
        lhs_residue=lhs,
        rhs_residue=rhs,
        modulus_description=f"p^2 = {m}" if square else f"p = {m}",
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


# claim -> (term family, double sum)
_Q_CLAIMS = {"eq1": ("c", False), "eq2": ("cp", False), "eq3": ("c", True), "eq4": ("cp", True)}


def _q_congruence_report(claim_id: str, n: int, method: str) -> CongruenceReport:
    family, double = _Q_CLAIMS[claim_id]
    if n % 2 == 0:
        raise EvenN(f"{claim_id} is only asserted for odd n, got {n}")
    if method == "folded":
        fold = folded_double_sum_residue if double else folded_single_sum_residue
        residue = fold(family, n)
    elif method == "reduced":
        residue = reduced_sum_residue(family, n, double)
    else:
        raise ValueError(f"method must be 'folded' or 'reduced', got {method!r}")
    return CongruenceReport(
        claim_id=claim_id,
        instance=n,
        lhs_residue=residue,
        rhs_residue=ZERO,
        modulus_description=f"[{n}]",
    )


def check_eq1(n: int, method: str = "folded") -> CongruenceReport:
    """Single sum of the alternating family vanishes mod [n], odd n."""
    return _q_congruence_report("eq1", n, method)


def check_eq2(n: int, method: str = "folded") -> CongruenceReport:
    """Single sum of the non-alternating family vanishes mod [n], odd n."""
    return _q_congruence_report("eq2", n, method)


def check_eq3(n: int, method: str = "folded") -> CongruenceReport:
    """Double sum of the alternating family vanishes mod [n], odd n."""
    return _q_congruence_report("eq3", n, method)


def check_eq4(n: int, method: str = "folded") -> CongruenceReport:
    """Double sum of the non-alternating family vanishes mod [n], odd n."""
    return _q_congruence_report("eq4", n, method)
