"""Command-line front end: batch verification runs and exact evaluation.

    qcong verify identity   --id eq12 --max-n 300 [--format json] [--out F] [--jobs N]
    qcong verify congruence --id eq7  --limit 499 [--format csv]  [--out F] [--jobs N]
    qcong eval --n 3 --q -1/2

Each claim is one table entry, in claim order: an identity's first
instance and its two sides, or a congruence's instances up to --limit.
Records stream as each instance completes, in claim then instance
order whatever the --id order or --jobs; a repeated --id runs once.
One record per instance, timed around its check; json output is
newline-delimited.  The process pool and the multiprocessing modules
under it load only when more than one worker runs, so a --jobs 1 scan
starts without them.  Exit codes: 0 when every checked instance holds,
1 when any fails, 2 on usage errors (an --out that cannot be opened
among them), 3 on any error raised inside a scan or eval (records already
written stay; an OSError, such as a full disk, is reported as a system
error), 141 when the reader closes the output early (a shell's SIGPIPE
status).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import closedform, congruence, sums
from .bigmath import odd_primes_up_to
from .qring import QPoly, QRat

# claim -> (first instance, instance -> (lhs, rhs)), in claim order; each
# side is looked up in its module when the instance runs
_IDENTITIES = {
    "eq9": (1, lambda n: (closedform.closed_form(n), closedform.reduced_double_sum_poly(n))),
    "eq10": (1, lambda n: (sums.double_sum(n, Fraction(-1, 8)), closedform.special_q_neg_half(n))),
    "eq11": (1, lambda n: (sums.double_sum(n, Fraction(1, 4)), closedform.special_q_one(n))),
    "eq12": (0, lambda k: (sums.inner_conv_sum(k), sums.inner_closed(k))),
    "eq15": (0, lambda k: (sums.plain_conv_sum(k), 4**k)),
    "eq19": (0, lambda k: (sums.weighted_conv_sum(k), 4**k * k * (k - 1) // 8)),
    "eq21": (1, lambda n: (closedform.geometric_S(n), closedform.geometric_S_direct(n))),
    "eq23": (1, lambda n: (closedform.geometric_T(n), closedform.geometric_T_direct(n))),
}

# claim -> its instances up to --limit: odd n for the q-congruences, odd primes otherwise
_CONGRUENCES = {
    **{f"eq{i}": lambda limit: range(1, limit + 1, 2) for i in range(1, 5)},
    **{f"eq{i}": odd_primes_up_to for i in range(5, 9)},
}

IDENTITY_IDS = tuple(_IDENTITIES)
CONGRUENCE_IDS = tuple(_CONGRUENCES)

FIELDS = ("claim", "instance", "holds", "lhs", "rhs", "modulus", "elapsed_ms")


def _fmt(value) -> str:
    """Stable string form: rationals as num/den in lowest terms, polys ascending."""
    if isinstance(value, (int, Fraction, QPoly, QRat)):
        return str(value)
    raise TypeError(f"cannot format {type(value).__name__}")


def _record(claim: str, instance: int, lhs, rhs, modulus: str, ms: int) -> dict:
    # an instance holds iff lhs == rhs, for every claim, and equal values print the same text
    holds = lhs == rhs
    lhs_text = _fmt(lhs)
    rhs_text = lhs_text if holds else _fmt(rhs)
    return dict(zip(FIELDS, (claim, instance, holds, lhs_text, rhs_text, modulus, ms)))


def _identity_instance(args: tuple[str, int]) -> dict:
    claim, n = args
    t0 = time.perf_counter()
    lhs, rhs = _IDENTITIES[claim][1](n)
    ms = round((time.perf_counter() - t0) * 1000)
    return _record(claim, n, lhs, rhs, "exact", ms)


def _congruence_instance(args: tuple[str, int]) -> dict:
    claim, instance = args
    t0 = time.perf_counter()
    r = getattr(congruence, f"check_{claim}")(instance)
    ms = round((time.perf_counter() - t0) * 1000)
    return _record(claim, instance, r.lhs_residue, r.rhs_residue, r.modulus_description, ms)


def _run(worker, instances: list, jobs: int):
    """Records in instance order, each yielded as soon as it is ready.

    A pool may start all its workers at once, so it gets no more than
    there are instances or CPUs, whatever --jobs asks for.
    """
    workers = min(jobs, len(instances), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(worker, instances)
    else:
        # imported here, so a one-worker scan never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(instances) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(worker, instances, chunksize=chunk)


def _render(r: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(r) + "\n"
    if fmt == "csv":
        # never quoted: _fmt admits only int, Fraction, QPoly and QRat, whose texts hold no
        # comma, quote or line break, and claims and moduli come from fixed tables
        return ",".join([str(r[field]) for field in FIELDS]) + "\r\n"
    status = "ok " if r["holds"] else "FAIL"
    return (
        f"{r['claim']} instance={r['instance']} {status} "
        f"lhs={r['lhs']} rhs={r['rhs']} modulus={r['modulus']} ({r['elapsed_ms']} ms)\n"
    )


def _cmd_verify(worker, instances: list, jobs: int, fmt: str, out) -> int:
    checked = failing = 0
    with out as fh:
        if fmt == "csv":
            fh.write(",".join(FIELDS) + "\r\n")
        for record in _run(worker, instances, jobs):
            fh.write(_render(record, fmt))
            fh.flush()
            checked += 1
            failing += not record["holds"]
        if fmt == "text":
            verdict = f"{failing} FAILED" if failing else "all hold"
            fh.write(f"{checked} instances checked: {verdict}\n")
    return 1 if failing else 0


def _cmd_eval(n: int, q0: Fraction) -> int:
    value = sums.double_sum(n, q0 / 4)
    print(f"double sum   (n={n}, weight (q/4)^k, q={_fmt(q0)}): {_fmt(value)}")
    closed = closedform.closed_form(n).evaluate(q0)
    # flushed here, so a closed output is seen inside main's try, not at exit
    print(f"closed form  (n={n}, q={_fmt(q0)}): {_fmt(closed)}", flush=True)
    return 0


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # "1/0" is as invalid as "abc"
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


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
        # errors main raises after parsing print this subcommand's usage
        p.set_defaults(usage_error=p.error)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers over instances, at most one per instance and per CPU")

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
    ev.add_argument("--q", type=_rational, required=True, metavar="RAT")
    ev.set_defaults(usage_error=ev.error)
    # let "--q -1/2" and "--q -.5" pass as values instead of unknown options
    ev._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = args.usage_error

    if args.command == "eval":
        if args.n < 1:
            error(f"--n must be >= 1, got {args.n}")
    else:
        if args.jobs < 1:
            error(f"--jobs must be >= 1, got {args.jobs}")
        # the workers are looked up here, when main runs, so they can be wrapped
        if args.target == "identity":
            if args.max_n < 1:
                error(f"--max-n must be >= 1, got {args.max_n}")
            worker = _identity_instance
            instances = [(claim, n) for claim in IDENTITY_IDS if claim in (args.ids or IDENTITY_IDS)
                         for n in range(_IDENTITIES[claim][0], args.max_n + 1)]
        else:
            if args.limit < 3:
                error(f"--limit must be >= 3, got {args.limit}")
            worker = _congruence_instance
            instances = [(claim, n) for claim in CONGRUENCE_IDS if claim in (args.ids or CONGRUENCE_IDS)
                         for n in _CONGRUENCES[claim](args.limit)]
        try:
            out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
        except OSError as exc:
            error(f"cannot open --out {args.out}: {exc.strerror}")
    try:
        if args.command == "eval":
            return _cmd_eval(args.n, args.q)
        return _cmd_verify(worker, instances, args.jobs, args.format, out)
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; let that flush land in /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # a full disk or a failing device is the system's fault, not qcong's
        print(f"qcong: system error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # every input is in-domain, so any error is a fault
        print(f"qcong: internal inconsistency: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
