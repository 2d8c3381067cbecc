"""Command-line front end: batch verification runs and exact evaluation.

    qcong verify identity   --id eq12 --max-n 300 [--format json] [--out F] [--jobs N]
    qcong verify congruence --id eq7  --limit 499 [--format csv]  [--out F] [--jobs N]
    qcong eval --n 3 --q -1/2

Exit codes: 0 when every checked instance holds, 1 when any fails,
2 on usage errors.  Reports are emitted sorted by claim then instance,
one record per instance; json output is newline-delimited.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import closedform, congruence, sums
from .bigmath import odd_primes_up_to
from .qring import QPoly, QRat

IDENTITY_IDS = ("eq9", "eq10", "eq11", "eq12", "eq15", "eq19", "eq21", "eq23")
CONGRUENCE_IDS = ("eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq7", "eq8")

# claims whose instances start at 0 (indexed by k rather than n)
_ZERO_BASED = {"eq12", "eq15", "eq19"}


@dataclass
class RunConfig:
    range_limit: int = 1
    q_point: Fraction | None = None
    jobs: int = 1
    output_format: str = "text"
    output_path: str | None = None


def _fmt(value) -> str:
    """Stable string form: rationals as num/den in lowest terms, polys ascending."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, (int, QPoly, QRat)):
        return str(value)
    raise TypeError(f"cannot format {type(value).__name__}")


def _record(claim: str, instance: int, holds: bool, lhs, rhs, modulus: str, ms: int) -> dict:
    return {
        "claim": claim,
        "instance": instance,
        "holds": holds,
        "lhs": _fmt(lhs),
        "rhs": _fmt(rhs),
        "modulus": modulus,
        "elapsed_ms": ms,
    }


def _identity_instance(args: tuple[str, int]) -> dict:
    claim, n = args
    t0 = time.perf_counter()
    if claim == "eq12":
        lhs, rhs = sums.inner_conv_sum(n), sums.inner_closed(n)
    elif claim == "eq15":
        lhs, rhs = sums.plain_conv_sum(n), 4**n
    elif claim == "eq19":
        lhs, rhs = sums.weighted_conv_sum(n), 4**n * n * (n - 1) // 8
    elif claim == "eq9":
        lhs = closedform.closed_form(n)
        rhs = QRat(closedform.reduced_double_sum_poly(n))
    elif claim == "eq10":
        lhs = sums.double_sum(n, Fraction(-1, 8))
        rhs = closedform.special_q_neg_half(n)
    elif claim == "eq11":
        lhs = sums.double_sum(n, Fraction(1, 4))
        rhs = closedform.special_q_one(n)
    elif claim == "eq21":
        lhs = closedform.geometric_S(n)
        rhs = QRat(closedform.geometric_S_direct(n))
    elif claim == "eq23":
        lhs = closedform.geometric_T(n)
        rhs = QRat(closedform.geometric_T_direct(n))
    else:
        raise ValueError(f"unknown identity id {claim!r}")
    ms = round((time.perf_counter() - t0) * 1000)
    return _record(claim, n, lhs == rhs, lhs, rhs, "exact", ms)


def _congruence_instance(args: tuple[str, int]) -> dict:
    claim, instance = args
    report = getattr(congruence, f"check_{claim}")(instance)
    return _record(
        report.claim_id,
        report.instance,
        report.holds,
        report.lhs_residue,
        report.rhs_residue,
        report.modulus_description,
        report.elapsed_ms,
    )


def _identity_instances(ids, max_n: int):
    for claim in ids:
        start = 0 if claim in _ZERO_BASED else 1
        for n in range(start, max_n + 1):
            yield claim, n


def _congruence_instances(ids, limit: int):
    primes = None
    for claim in ids:
        if claim in ("eq1", "eq2", "eq3", "eq4"):
            for n in range(1, limit + 1, 2):
                yield claim, n
        else:
            if primes is None:
                primes = odd_primes_up_to(limit)
            for p in primes:
                yield claim, p


def _run(worker, instances: list, jobs: int) -> list[dict]:
    if jobs <= 1 or len(instances) <= 1:
        records = [worker(inst) for inst in instances]
    else:
        chunk = max(1, len(instances) // (jobs * 4))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(worker, instances, chunksize=chunk))
    records.sort(key=lambda r: (int(r["claim"][2:]), r["instance"]))
    return records


def _render(records: list[dict], fmt: str) -> str:
    if fmt == "json":
        return "".join(json.dumps(r) + "\n" for r in records)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["claim", "instance", "holds", "lhs", "rhs", "modulus", "elapsed_ms"])
        for r in records:
            writer.writerow([r["claim"], r["instance"], r["holds"], r["lhs"], r["rhs"], r["modulus"], r["elapsed_ms"]])
        return buf.getvalue()
    lines = []
    for r in records:
        status = "ok " if r["holds"] else "FAIL"
        lines.append(
            f"{r['claim']} instance={r['instance']} {status} "
            f"lhs={r['lhs']} rhs={r['rhs']} modulus={r['modulus']} ({r['elapsed_ms']} ms)"
        )
    failing = sum(1 for r in records if not r["holds"])
    if failing:
        lines.append(f"{len(records)} instances checked: {failing} FAILED")
    else:
        lines.append(f"{len(records)} instances checked: all hold")
    return "".join(line + "\n" for line in lines)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(config: RunConfig, worker, instances) -> int:
    records = _run(worker, list(instances), config.jobs)
    _emit(_render(records, config.output_format), config.output_path)
    return 0 if all(r["holds"] for r in records) else 1


def _cmd_eval(config: RunConfig) -> int:
    n, q0 = config.range_limit, config.q_point
    value = sums.double_sum(n, q0 / 4)
    print(f"double sum   (n={n}, weight (q/4)^k, q={_fmt(q0)}): {_fmt(value)}")
    if q0 == 1:
        print(
            "closed form: q = 1 is a removable singularity of the rational form; "
            f"specialized value n(3n^2-3n+2)/2 = {_fmt(closedform.special_q_one(n))}"
        )
    else:
        cf = closedform.closed_form_at(n, q0)
        print(f"closed form  (n={n}, q={_fmt(q0)}): {_fmt(cf.at_q[1])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact verification of binomial-convolution identities, "
        "supercongruences, and q-congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a batch of checks")
    vsub = verify.add_subparsers(dest="target", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers over instances")

    ident = vsub.add_parser("identity", help="closed forms against direct summation")
    ident.add_argument("--id", dest="ids", action="append", choices=IDENTITY_IDS,
                       help="claim to check (repeatable; default: all)")
    ident.add_argument("--max-n", dest="max_n", type=int, required=True)
    add_common(ident)

    cong = vsub.add_parser("congruence", help="congruence claims over primes or odd n")
    cong.add_argument("--id", dest="ids", action="append", choices=CONGRUENCE_IDS,
                      help="claim to check (repeatable; default: all)")
    cong.add_argument("--limit", type=int, required=True)
    add_common(cong)

    ev = sub.add_parser("eval", help="evaluate the sum and closed form at a rational q")
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--q", type=Fraction, required=True, metavar="RAT")
    # let "--q -1/2" pass as a value instead of an unknown option
    ev._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "eval":
        if args.n < 1:
            parser.error(f"--n must be >= 1, got {args.n}")
        return _cmd_eval(RunConfig(range_limit=args.n, q_point=args.q))

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.target == "identity":
        if args.max_n < 1:
            parser.error(f"--max-n must be >= 1, got {args.max_n}")
        ids = args.ids or list(IDENTITY_IDS)
        config = RunConfig(
            range_limit=args.max_n, jobs=args.jobs, output_format=args.format, output_path=args.out,
        )
        return _cmd_verify(config, _identity_instance, _identity_instances(ids, args.max_n))

    if args.limit < 3:
        parser.error(f"--limit must be >= 3, got {args.limit}")
    ids = args.ids or list(CONGRUENCE_IDS)
    config = RunConfig(
        range_limit=args.limit, jobs=args.jobs, output_format=args.format, output_path=args.out,
    )
    return _cmd_verify(config, _congruence_instance, _congruence_instances(ids, args.limit))


if __name__ == "__main__":
    sys.exit(main())
