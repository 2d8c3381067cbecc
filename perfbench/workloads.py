"""The benchmark's workloads: sizes, claim order, the scan, negative controls.

Each workload runs single-process (``--jobs 1``) in a fresh interpreter,
so every lru_cache in qcong starts cold and filling it is part of the
timed scan, as it is for every ``qcong`` invocation.

- ``qfold``: ``qcong verify congruence --id eq1..eq4`` over odd n, the
  scan users run, on the default folded pipeline.  It exercises term
  construction (``_reduced_term``/``_divide_out``), the Fraction inverse
  (``_poly_inverse_mod``) and the products folded mod q^n - 1.
- ``qreduced``: ``check_eq1..eq4(n, method="reduced")`` over odd n,
  claim-major: the oracle half of acceptance criterion 7, which the CLI
  cannot reach.  It spends its time in ``_reduce_over_binomials`` trial
  division and ``_list_mul``, never calls ``_reduced_term`` or
  ``_poly_inverse_mod``, and so is the bypass workload for a change to
  term construction.
- ``scalar``: ``qcong verify identity`` then ``qcong verify congruence
  --id eq5..eq8``.  It exercises ``double_sum``, the integer
  convolutions, ``rational_mod``, the closedform specializations and
  qring's generic path (``poly_gcd``, the Fraction branch of ``divrem``,
  ``QRat``), with almost no integer-kernel work.

The seed permutes the order of the claims and nothing else.  Claims that
share a cache form a group whose leader fills it; the leader stays first
among its group, so every instance does the same work under every seed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import time
from fractions import Fraction

# claim groups: the first claim of a group fills the caches the rest reuse
Q_GROUPS = (("eq1", "eq3"), ("eq2", "eq4"))
IDENTITY_GROUPS = (("eq12", "eq10", "eq11", "eq15", "eq19"), ("eq9",), ("eq21",), ("eq23",))
PRIME_GROUPS = (("eq5", "eq6", "eq7", "eq8"),)

SIZES = {
    "qfold": {"full": {"limit": 15}, "smoke": {"limit": 5}},
    "qreduced": {"full": {"max_n": 13}, "smoke": {"max_n": 5}},
    "scalar": {"full": {"max_n": 200, "limit": 499}, "smoke": {"max_n": 10, "limit": 11}},
}
WORKLOADS = tuple(SIZES)
# instance of the reduced negative control; QRat addition goes through a
# Fraction gcd whose cost explodes with n (0.6 s at n = 7, 4 s at n = 9)
REDUCED_CONTROL_N = 5


def claim_order(groups, rng: random.Random) -> list[str]:
    """A seeded permutation of the claims that keeps each group's leader first."""
    order = rng.sample([c for g in groups for c in g], sum(map(len, groups)))
    for leader, *followers in groups:
        first = min(order.index(c) for c in (leader, *followers))
        i = order.index(leader)
        order[first], order[i] = order[i], order[first]
    return order


def plan(workload: str, size: str, seed: int) -> dict:
    rng = random.Random(seed)
    out = dict(SIZES[workload][size])
    if workload == "scalar":
        out["identity_order"] = claim_order(IDENTITY_GROUPS, rng)
        out["prime_order"] = claim_order(PRIME_GROUPS, rng)
    else:
        out["order"] = claim_order(Q_GROUPS, rng)
    return out


def calibrate() -> float:
    """Seconds a fixed load that does not touch qcong takes on this machine now.

    It mixes the work the scans do: loops over lists of small ints,
    Fraction arithmetic and big-int multiplication.  The cyclic garbage
    collector is off meanwhile, so the time does not depend on how many
    objects the calling process holds.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = [0] * 3000
        for _ in range(400):
            for i in range(3000):
                out[i] += i * i
        for _ in range(30):
            acc, xk = Fraction(0), Fraction(1)
            for k in range(150):
                acc += xk * (k * k + 1)
                xk *= Fraction(-1, 8)
        big = 3 ** 40000
        for j in range(25):
            big * (big + j)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class InstanceTimer:
    """Times each instance with a perf_counter pair and turns a raise into a failure."""

    def __init__(self):
        self.ms: list[float] = []
        self.errors: list[str] = []

    def run(self, fn, arg, label: str, on_error):
        t0 = time.perf_counter()
        try:
            out = fn(arg)
        except Exception as exc:  # an instance that raises is a failed instance
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            out = on_error(exc)
        self.ms.append((time.perf_counter() - t0) * 1000)
        return out

    def wrap_cli(self, cli) -> None:
        """Time cli's per-instance workers; cli.main looks them up at call time."""
        for attr in ("_congruence_instance", "_identity_instance"):
            worker = getattr(cli, attr)

            def timed(args, worker=worker):
                return self.run(worker, args, f"{args[0]} {args[1]}", lambda exc: {
                    "claim": args[0], "instance": args[1], "holds": False,
                    "lhs": f"{type(exc).__name__}: {exc}", "rhs": "", "modulus": "",
                    "elapsed_ms": 0,
                })

            setattr(cli, attr, timed)


def _cli_output(cli, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return buf.getvalue()


def _ids(order) -> list[str]:
    return [arg for claim in order for arg in ("--id", claim)]


def scan(workload: str, p: dict, qcong, timer: InstanceTimer) -> list:
    """Run one workload; returns its raw outputs, which records() reads."""
    if workload == "qfold":
        return [_cli_output(qcong.cli, ["verify", "congruence", *_ids(p["order"]), "--limit",
                                        str(p["limit"]), "--format", "json", "--jobs", "1"])]
    if workload == "scalar":
        return [
            _cli_output(qcong.cli, ["verify", "identity", *_ids(p["identity_order"]), "--max-n",
                                    str(p["max_n"]), "--format", "json", "--jobs", "1"]),
            _cli_output(qcong.cli, ["verify", "congruence", *_ids(p["prime_order"]), "--limit",
                                    str(p["limit"]), "--format", "json", "--jobs", "1"]),
        ]
    reports = []
    for claim in p["order"]:
        check = getattr(qcong.congruence, f"check_{claim}")
        for n in range(1, p["max_n"] + 1, 2):
            reports.append(timer.run(lambda n: check(n, method="reduced"), n, f"{claim} {n}",
                                     lambda exc, claim=claim, n=n: (claim, n)))
    return reports


def records(outputs: list) -> list[tuple]:
    """(claim, instance, holds, lhs, rhs, modulus) of every instance a scan ran."""
    out = []
    for item in outputs:
        if isinstance(item, str):  # json lines from the CLI
            rows = map(json.loads, item.splitlines())
            out += [(r["claim"], r["instance"], r["holds"], r["lhs"], r["rhs"], r["modulus"])
                    for r in rows]
        elif isinstance(item, tuple):  # (claim, n) of a check that raised
            out.append((*item, False, "error", "", ""))
        else:
            out.append((item.claim_id, item.instance, item.holds, str(item.lhs_residue),
                        str(item.rhs_residue), item.modulus_description))
    return out


def controls(workload: str, p: dict, qcong) -> dict[str, bool]:
    """Perturbed claims, through public functions; each must not hold.

    qfold has none: the folded pipeline has no public perturbation point.
    """
    if workload == "qreduced":
        n = REDUCED_CONTROL_N
        return {f"eq1 sum + 1, n={n}": qcong.congruent_zero_mod_qint(
            qcong.q_single_sum(qcong.c_q_term, n) + 1, n).holds}
    if workload == "scalar":
        p_max = qcong.odd_primes_up_to(p["limit"])[-1]
        n = p["max_n"]
        m = p_max * p_max
        wrong_den = 2 * qcong.QPoly([1, -1]) ** 3
        return {
            f"eq7 rhs +p/2, p={p_max}": qcong.rational_mod(
                qcong.double_sum(p_max, Fraction(-1, 8)), m) == qcong.rational_mod(Fraction(p_max, 2), m),
            f"eq9 over 2(1-q)^3, n={n}": qcong.QRat(qcong.closed_form_numerator(n), wrong_den)
            == qcong.QRat(qcong.reduced_double_sum_poly(n)),
        }
    return {}
