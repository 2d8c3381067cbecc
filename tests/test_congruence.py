"""The eight congruence claims: frozen residues, consistency, and path agreement."""

import copy
import pickle
import time
from fractions import Fraction

import pytest

from qcong import congruence
from qcong.bigmath import odd_primes_up_to, rational_mod
from qcong.congruence import (
    CongruenceReport,
    _prime_power_report,
    check_eq1,
    check_eq2,
    check_eq3,
    check_eq4,
    check_eq5,
    check_eq6,
    check_eq7,
    check_eq8,
)
from qcong.errors import EvenN, NotOddPrime
from qcong.qring import QPoly, QRat, Verdict, congruent_zero_mod_qint
from qcong.sums import double_sum


def test_eq7_frozen_instances():
    r = check_eq7(3)
    assert r.holds and r.lhs_residue == 3 and r.rhs_residue == 3  # -3/2 = -3*5 = 3 (mod 9)
    r = check_eq7(5)
    assert r.holds and r.lhs_residue == 10 and r.rhs_residue == 10  # 35/16 -> 35*11 (mod 25)
    assert r.modulus_description == "p^2 = 25"


def test_eq8_frozen_instances():
    r = check_eq8(3)
    assert r.holds and r.lhs_residue == 3  # sum = 30, 30 = 3 (mod 9)
    assert double_sum(3, Fraction(1, 4)) == 30
    r = check_eq8(5)
    assert r.holds and r.lhs_residue == 5  # sum = 155, 155 = 5 (mod 25)
    assert double_sum(5, Fraction(1, 4)) == 155
    r = check_eq8(7)
    assert r.holds and r.lhs_residue == 7  # sum = 448 = 7 + 9*49
    assert double_sum(7, Fraction(1, 4)) == 448


def test_eq5_eq6_vanish_mod_p():
    for p in odd_primes_up_to(60):
        assert check_eq5(p).holds
        assert check_eq6(p).holds
        assert check_eq5(p).lhs_residue == 0
        assert check_eq6(p).lhs_residue == 0


def test_mod_p_residues_are_reduced_mod_p2_residues():
    for p in odd_primes_up_to(60):
        assert check_eq5(p).lhs_residue == check_eq7(p).lhs_residue % p
        assert check_eq6(p).lhs_residue == check_eq8(p).lhs_residue % p


def test_eq5_to_eq8_negative_controls():
    for p in odd_primes_up_to(97):
        # the wrong right-hand sides: -p/2 - p/2 = -p and p - (-p) = 2p are
        # nonzero mod p^2
        assert not _prime_power_report("eq7", p, Fraction(-1, 8), Fraction(p, 2), square=True).holds
        assert not _prime_power_report("eq8", p, Fraction(1, 4), -p, square=True).holds
        # one term too many: x^p * inner(p) = x * 4 * 1 (mod p), nonzero
        for x in (Fraction(-1, 8), Fraction(1, 4)):
            residue = rational_mod(double_sum(p + 1, x), p)
            assert residue == rational_mod(4 * x, p) != 0, (p, x)


def test_non_odd_prime_instances_rejected():
    for check in (check_eq5, check_eq6, check_eq7, check_eq8):
        for bad in (2, 9, 15, 1, 0):
            with pytest.raises(NotOddPrime):
                check(bad)


def test_sum_denominators_are_powers_of_two():
    # guarantees the p-adic reduction is defined for every odd p
    for n in range(1, 60):
        for x in (Fraction(-1, 8), Fraction(1, 4)):
            den = double_sum(n, x).denominator
            assert den & (den - 1) == 0


def test_q_claims_hold_vacuously_at_n_1():
    for check in (check_eq1, check_eq2, check_eq3, check_eq4):
        for method in ("folded", "reduced"):
            r = check(1, method=method)
            assert r.holds and r.lhs_residue.is_zero
            assert r.modulus_description == "[1]"


def test_q_claims_small_odd_instances():
    assert check_eq1(3).holds
    assert check_eq2(5).holds
    assert check_eq3(3).holds
    assert check_eq4(5).holds


def test_q_claims_reject_even_n():
    for check in (check_eq1, check_eq2, check_eq3, check_eq4):
        with pytest.raises(EvenN):
            check(4)
    with pytest.raises(ValueError):
        check_eq1(0)
    # a negative odd n passes the parity test and must be refused by the pipeline
    for check in (check_eq1, check_eq2, check_eq3, check_eq4):
        for method in ("folded", "reduced"):
            with pytest.raises(ValueError, match="needs n >= 1, got -1"):
                check(-1, method=method)


@pytest.mark.parametrize("method", ["folded", "reduced"])
def test_q_claims_ask_for_their_family_and_sum(monkeypatch, method):
    # both families' single and double sums vanish mod [n] at every odd n,
    # so a claim that checks the wrong one still holds on every instance
    asked = []

    def residue(family, n, double):
        asked.append((family, double))
        return QPoly()

    monkeypatch.setattr(congruence, "folded_single_sum_residue", lambda f, n: residue(f, n, False))
    monkeypatch.setattr(congruence, "folded_double_sum_residue", lambda f, n: residue(f, n, True))
    monkeypatch.setattr(congruence, "reduced_sum_residue", residue)
    for check in (check_eq1, check_eq2, check_eq3, check_eq4):
        assert check(7, method=method).holds
    assert asked == [("c", False), ("cp", False), ("c", True), ("cp", True)]


def test_folded_and_reduced_paths_agree():
    # includes composite n = 9, where the unreduced common denominator
    # shares cyclotomic factors with [n] and reduction really matters
    for check in (check_eq1, check_eq2, check_eq3, check_eq4):
        for n in (1, 3, 5, 7, 9, 45):
            fast = check(n, method="folded")
            slow = check(n, method="reduced")
            # a report is untimed, so both pipelines return the same value
            assert fast == slow and hash(fast) == hash(slow), (check.__name__, n)
            assert fast.holds and fast.lhs_residue.is_zero


def test_report_invariant_holds_iff_residues_match():
    reports = [check_eq7(3), check_eq8(5), check_eq1(3), check_eq3(9)]
    for r in reports:
        assert r.holds == (r.lhs_residue == r.rhs_residue)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        check_eq1(3, method="guess")


def test_q_congruences_wider_scan():
    # beyond acceptance criterion 7 (n <= 25), on its own budget
    start = time.perf_counter()
    for n in (27, 29, 31):
        for check in (check_eq1, check_eq2, check_eq3, check_eq4):
            assert check(n, method="folded").holds, (check.__name__, n, "folded")
            assert check(n, method="reduced").holds, (check.__name__, n, "reduced")
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"wider q-congruence scan took {elapsed:.2f}s (budget 60s)"


def test_q_congruences_composite_scan():
    # composite n, where Phi_d for a proper d | n divides the common
    # denominator to a power m_d > 0 (m_3 = 14 at n = 45); its own budget
    start = time.perf_counter()
    for n in (33, 35, 39, 45):
        for check in (check_eq1, check_eq2, check_eq3, check_eq4):
            assert check(n, method="folded").holds, (check.__name__, n, "folded")
            assert check(n, method="reduced").holds, (check.__name__, n, "reduced")
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"composite q-congruence scan took {elapsed:.2f}s (budget 60s)"


_RECORDS = [
    (Verdict, ("modulus", "residue"), (9, 4)),
    (CongruenceReport,
     ("claim_id", "instance", "lhs_residue", "rhs_residue", "modulus_description"),
     ("eq5", 7, 0, 0, "p = 7")),
]


@pytest.mark.parametrize("cls,fields,values", _RECORDS)
def test_record_classes_behave_as_frozen_dataclasses(cls, fields, values):
    r = cls(*values)
    assert tuple(getattr(r, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == r
    # a tuple would read as a (claim, n) failure marker to callers that sort records by type
    assert not isinstance(r, tuple)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    for name in (fields[0], "holds", "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(AttributeError):
        del r.holds
    with pytest.raises(AttributeError):
        delattr(r, fields[-1])
    assert getattr(r, fields[0]) == values[0]

    class Sub(cls):
        pass

    # equal and hashed by field values, between instances of one class only
    assert r == cls(*values) and hash(r) == hash(cls(*values)) == hash(values)
    # holds is derived from the residues, so changing one flips it
    changed = cls(*({"residue": 0, "lhs_residue": 1}.get(f, v) for f, v in zip(fields, values)))
    assert r != changed and r.holds != changed.holds
    assert r != Sub(*values) and r != values
    args = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(r) == f"{cls.__name__}({args})"
    assert pickle.loads(pickle.dumps(r)) == r


@pytest.mark.parametrize("value", [
    QPoly([1, 2]),
    QPoly([Fraction(1, 3), 0, 2]),
    QRat(QPoly([1, 2]), QPoly([3, 0, 1])),
    QRat(QPoly([Fraction(-5, 2), 1]), QPoly([1, 0, 1])),
    congruent_zero_mod_qint(QPoly([1, 2]), 3),
    check_eq1(5),
], ids=["qpoly", "qpoly-fraction", "qrat", "qrat-fraction", "verdict", "report"])
def test_values_survive_pickle_and_copy(value):
    # immutable values cross process boundaries and are copied whole; a
    # polynomial unpickles through its constructor, like any outside input
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value
        assert hash(clone) == hash(value)
    # and each repr is a constructor call that rebuilds the value
    ns = {"QPoly": QPoly, "QRat": QRat, "Verdict": Verdict,
          "CongruenceReport": CongruenceReport, "Fraction": Fraction}
    assert eval(repr(value), ns) == value
