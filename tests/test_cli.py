"""CLI behavior: exit codes, formats, round-trips, parallel determinism."""

import concurrent.futures
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from qcong import cli
from qcong.cli import IDENTITY_IDS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_identity_eq12_small_run(capsys):
    code, out = run_cli(capsys, "verify", "identity", "--id", "eq12", "--max-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # k = 0, 1, 2 plus the summary
    assert "3 instances checked: all hold" in lines[-1]


def test_identity_eq10_trivial(capsys):
    code, out = run_cli(capsys, "verify", "identity", "--id", "eq10", "--max-n", "1")
    assert code == 0
    assert "lhs=1 rhs=1" in out


def test_identity_eq9_sign_corrected_form(capsys):
    code, out = run_cli(capsys, "verify", "identity", "--id", "eq9", "--max-n", "8")
    assert code == 0
    assert "8 instances checked: all hold" in out


def test_identity_all_ids_default(capsys):
    code, out = run_cli(capsys, "verify", "identity", "--max-n", "2")
    assert code == 0
    recs = out.strip().splitlines()[:-1]
    # zero-based claims contribute max_n+1 instances, the rest max_n
    assert len(recs) == 3 * 3 + 5 * 2
    for claim in IDENTITY_IDS:
        assert any(line.startswith(claim + " ") for line in recs)


def test_congruence_prime_scan_instance_count(capsys):
    code, out = run_cli(capsys, "verify", "congruence", "--id", "eq7", "--id", "eq8",
                        "--limit", "50")
    assert code == 0
    lines = out.strip().splitlines()
    # odd primes up to 50: 3,5,...,47 -> 14 instances per claim
    assert sum(l.startswith("eq7 ") for l in lines) == 14
    assert sum(l.startswith("eq8 ") for l in lines) == 14


def test_congruence_q_scan_instances(capsys):
    code, out = run_cli(capsys, "verify", "congruence", "--id", "eq3", "--limit", "9")
    assert code == 0
    insts = [int(l.split("instance=")[1].split()[0])
             for l in out.strip().splitlines() if l.startswith("eq3 ")]
    assert insts == [1, 3, 5, 7, 9]


def test_json_output_round_trips(capsys, tmp_path):
    path = tmp_path / "report.jsonl"
    code, _ = run_cli(capsys, "verify", "congruence", "--id", "eq7", "--limit", "20",
                      "--format", "json", "--out", str(path))
    assert code == 0
    text = path.read_text()
    records = [json.loads(line) for line in text.splitlines()]
    assert [r["instance"] for r in records] == [3, 5, 7, 11, 13, 17, 19]
    assert all(set(r) == {"claim", "instance", "holds", "lhs", "rhs", "modulus", "elapsed_ms"}
               for r in records)
    # re-serializing the parsed records reproduces the file bit-exactly
    assert "".join(json.dumps(r) + "\n" for r in records) == text


def test_csv_columns_mirror_json_fields(capsys, monkeypatch):
    code, out = run_cli(capsys, "verify", "identity", "--id", "eq11", "--max-n", "3",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["claim", "instance", "holds", "lhs", "rhs", "modulus", "elapsed_ms"]
    assert [r[1] for r in rows[1:]] == ["1", "2", "3"]
    assert rows[2][3] == "8"  # sum at n=2 with weight (1/4)^k

    # every value joined unquoted reads back as its json field, and a csv writer quotes
    # nothing: all eight identities, the congruences, and failing eq9 polynomials and
    # eq10/eq11 Fractions
    scans = [(0, ("identity", "--max-n", "40")), (0, ("congruence", "--limit", "45")),
             (1, ("identity", "--id", "eq9", "--id", "eq10", "--id", "eq11", "--max-n", "6"))]
    for expected, argv in scans:
        if expected:
            # each left-hand side one instance ahead, as in test_identity_negative_controls
            for module, attr in (cli.closedform, "closed_form"), (cli.sums, "double_sum"):
                real = getattr(module, attr)
                monkeypatch.setattr(module, attr, lambda n, *rest, real=real: real(n + 1, *rest))
        code, out = run_cli(capsys, "verify", *argv, "--format", "csv")
        assert code == expected
        code, text = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == expected
        rows = list(csv.reader(io.StringIO(out)))
        records = [json.loads(line) for line in text.splitlines()]
        assert rows[0] == list(cli.FIELDS) and len(rows) == len(records) + 1 > 1
        assert all(len(row) == 7 for row in rows)
        assert [row[:6] for row in rows[1:]] == [
            [str(r[field]) for field in cli.FIELDS[:6]] for r in records]
        assert expected == any(row[2] == "False" for row in rows[1:])
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        assert buf.getvalue() == out


def test_jobs_do_not_change_records(capsys):
    code1, out1 = run_cli(capsys, "verify", "congruence", "--id", "eq5", "--limit", "60",
                          "--format", "json")
    code2, out2 = run_cli(capsys, "verify", "congruence", "--id", "eq5", "--limit", "60",
                          "--format", "json", "--jobs", "3")
    assert code1 == code2 == 0

    def strip_timing(text):
        return [{k: v for k, v in json.loads(l).items() if k != "elapsed_ms"}
                for l in text.splitlines()]

    assert strip_timing(out1) == strip_timing(out2)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize(
    "jobs,cpus,expected",
    [("100000", 4, 4), ("100000", None, None), ("3", 8, 3), ("100000", 64, 6)],
)
def test_jobs_are_bounded_by_cpus_and_instances(capsys, monkeypatch, jobs, cpus, expected):
    # eq12 at --max-n 5 has six instances, k = 0..5
    # cli imports the pool when it runs one, so the patch goes where that import reads it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out = run_cli(capsys, "verify", "identity", "--id", "eq12", "--max-n", "5",
                        "--format", "json", "--jobs", jobs)
    assert code == 0
    assert len(out.splitlines()) == 6
    # an unknown CPU count runs in-process, as --jobs 1 does
    assert _InProcessPool.sizes == ([] if expected is None else [expected])


def test_usage_errors_exit_2(capsys, tmp_path):
    # every usage error, raised by argparse or by main after parsing,
    # prints the usage of the subcommand that owns the flag
    def usage_error(usage, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: qcong {usage} [-h]"), err
        return err

    usage_error("verify congruence", "verify", "congruence", "--id", "eq7", "--limit", "2")
    usage_error("verify identity", "verify", "identity", "--id", "eq77", "--max-n", "3")
    usage_error("verify identity", "verify", "identity", "--id", "eq12", "--max-n", "0")
    usage_error("verify identity", "verify", "identity", "--max-n", "3", "--jobs", "0")
    usage_error("verify congruence", "verify", "congruence", "--limit", "5", "--jobs", "0")
    usage_error("eval", "eval", "--n", "0", "--q", "2")
    # an --out that cannot be opened is refused before any instance runs
    missing = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "congruence", "--id", "eq5", "--limit", "5", "--out", str(missing)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: qcong verify congruence [-h]")
    assert str(missing) in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not missing.parent.exists()
    # a zero denominator is as invalid a rational as a malformed one
    err = usage_error("eval", "eval", "--n", "3", "--q", "1/0")
    assert "invalid Fraction value: '1/0'" in err


def test_eval_examples(capsys):
    # both lines compared whole, so the closed-form line is read on its own
    for n, q, value in (("2", "2", "15"), ("1", "17/3", "1"), ("3", "-1/2", "3"), ("3", "-1/10", "13/25")):
        code, out = run_cli(capsys, "eval", "--n", n, "--q", q)
        assert code == 0
        assert out.splitlines() == [
            f"double sum   (n={n}, weight (q/4)^k, q={q}): {value}",
            f"closed form  (n={n}, q={q}): {value}",
        ]
    # every spelling of a negative rational is a value, not an unknown option
    out = run_cli(capsys, "eval", "--n", "3", "--q", "-1/2")[1]
    for q in ("-0.5", "-.5", "-5e-1"):
        assert run_cli(capsys, "eval", "--n", "3", "--q", q) == (0, out)
    assert run_cli(capsys, "eval", "--n", "3", "--q", "-1e-1") == run_cli(capsys, "eval", "--n", "3", "--q", "-1/10")
    # a float is never a record value: rendering one is refused, not rounded
    with pytest.raises(TypeError):
        cli._fmt(1.5)


def test_eval_prints_the_closed_form_value_at_q_one(capsys):
    code, out = run_cli(capsys, "eval", "--n", "4", "--q", "1")
    assert code == 0
    assert out.splitlines()[1] == "closed form  (n=4, q=1): 76"  # n(3n^2-3n+2)/2 at n=4


def test_failing_instance_exits_1_and_prints_residue(capsys, monkeypatch):
    from qcong import congruence

    real = congruence.check_eq5

    def sabotaged(p):
        r = real(p)
        if p == 7:
            return congruence.CongruenceReport(r.claim_id, r.instance, 4, 0, r.modulus_description)
        return r

    monkeypatch.setattr(congruence, "check_eq5", sabotaged)
    code, out = run_cli(capsys, "verify", "congruence", "--id", "eq5", "--limit", "10")
    assert code == 1
    assert "eq5 instance=7 FAIL lhs=4 rhs=0" in out
    assert "1 FAILED" in out


def test_records_stream_in_claim_order_as_they_complete(tmp_path, monkeypatch):
    path = tmp_path / "report.jsonl"
    real = cli._identity_instance
    written_before = []

    def spy(args):
        written_before.append(len(path.read_text().splitlines()))
        return real(args)

    monkeypatch.setattr(cli, "_identity_instance", spy)
    code = main(["verify", "identity", "--id", "eq15", "--id", "eq12", "--max-n", "3",
                 "--format", "json", "--out", str(path)])
    assert code == 0
    assert written_before == list(range(8))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["claim"], r["instance"]) for r in records] == [
        (claim, k) for claim in ("eq12", "eq15") for k in range(4)
    ]


def test_repeated_ids_run_once_in_claim_order(capsys):
    code, out = run_cli(capsys, "verify", "congruence", "--id", "eq1", "--id", "eq1",
                        "--limit", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert [l.split()[:2] for l in lines[:-1]] == [
        ["eq1", "instance=1"], ["eq1", "instance=3"], ["eq1", "instance=5"],
    ]
    assert lines[-1] == "3 instances checked: all hold"

    code, out = run_cli(capsys, "verify", "congruence", "--id", "eq8", "--id", "eq7",
                        "--id", "eq8", "--limit", "7", "--format", "json")
    assert code == 0
    claims = [(r["claim"], r["instance"]) for r in map(json.loads, out.splitlines())]
    assert claims == [("eq7", 3), ("eq7", 5), ("eq7", 7), ("eq8", 3), ("eq8", 5), ("eq8", 7)]


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    from qcong import congruence

    real = congruence.special_q_one
    monkeypatch.setattr(congruence, "special_q_one", lambda n: real(n) + 1)
    code = main(["verify", "congruence", "--id", "eq6", "--limit", "11"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("qcong: internal inconsistency: double_sum(3, 1/4) disagrees")
    assert captured.out == ""


def test_pipeline_value_error_exits_3_without_traceback(capsys, monkeypatch):
    from qcong import congruence
    from qcong.errors import DenominatorNotCoprime

    real = congruence.folded_single_sum_residue

    def broken(family, n):
        if n >= 3:
            raise DenominatorNotCoprime(f"Phi_3 is left in the reduced denominator of n={n}")
        return real(family, n)

    monkeypatch.setattr(congruence, "folded_single_sum_residue", broken)
    code = main(["verify", "congruence", "--id", "eq1", "--limit", "5", "--format", "json"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "qcong: internal inconsistency: Phi_3 is left in the reduced denominator of n=3\n"
    )
    assert "Traceback" not in captured.err
    # the record written before the fault stays
    assert [json.loads(line)["instance"] for line in captured.out.splitlines()] == [1]


@pytest.mark.parametrize("fault, message", [(TypeError("cannot format NoneType"), "cannot format NoneType"),
                                            (MemoryError(), "MemoryError")],
                         ids=["message", "empty"])
def test_any_fault_inside_a_scan_exits_3(capsys, monkeypatch, fault, message):
    # not only qcong's ArithmeticError and ValueError: an empty message prints the type's name
    from qcong import congruence

    real = congruence.check_eq1

    def broken(n, *rest):
        if n >= 3:
            raise fault
        return real(n, *rest)

    monkeypatch.setattr(congruence, "check_eq1", broken)
    code = main(["verify", "congruence", "--id", "eq1", "--limit", "5", "--format", "json"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == f"qcong: internal inconsistency: {message}\n"
    # the record written before the fault stays
    assert [json.loads(line)["instance"] for line in captured.out.splitlines()] == [1]


def test_a_killed_worker_exits_3():
    # a --jobs worker that dies breaks the pool; that is a fault of the scan, not a failing claim.
    # fork hands the patched check to the workers, and two CPUs are reported so a pool runs
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = """
import multiprocessing, os, sys
from qcong import cli, congruence

multiprocessing.set_start_method("fork")
real = congruence.check_eq1

def dies_at_7(n, *rest):
    if n == 7:
        os._exit(9)
    return real(n, *rest)

congruence.check_eq1 = dies_at_7
os.cpu_count = lambda: 2
sys.exit(cli.main(["verify", "congruence", "--id", "eq1", "--limit", "15", "--jobs", "2"]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("qcong: internal inconsistency: A process in the process pool")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_exits_141_quietly(jobs):
    # a reader that stops early, like `| head -1`, is neither a failed claim nor a crash
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with subprocess.Popen(
        [sys.executable, "-m", "qcong.cli", "verify", "identity", "--max-n", "300",
         "--format", "csv", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    ) as proc:  # closes both pipes on the way out, so none is left to the garbage collector
        assert proc.stdout.readline().startswith(b"claim,instance,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_eval_with_closed_stdout_exits_141_quietly(buffered):
    # eval ends inside main's try as verify does; a buffered stdout is flushed there, not at exit
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the child's stdout now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "qcong.cli", "eval", "--n", "300", "--q", "2"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_a_fault_inside_eval_exits_3(capsys, monkeypatch):
    from qcong import sums

    def broken(n, x):
        raise ZeroDivisionError("division by zero in the double sum")

    monkeypatch.setattr(sums, "double_sum", broken)
    assert main(["eval", "--n", "3", "--q", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "qcong: internal inconsistency: division by zero in the double sum\n"
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_exits_3_as_a_system_error():
    # a write that fails for want of space is the system's fault, not an internal inconsistency
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "qcong.cli", "verify", "identity", "--max-n", "1", "--out", "/dev/full"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["qcong: system error: [Errno 28] No space left on device"]


def test_import_loads_no_pool_and_no_dataclasses():
    # a --jobs 1 scan pays only for what it runs; python -S keeps site-packages out
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    heavy = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "csv")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, qcong.cli; print(*[m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("argv", [("identity", "--max-n", "40"), ("congruence", "--limit", "31")])
def test_record_renders_each_side_as_formatted(capsys, monkeypatch, argv):
    # rhs reuses lhs's text when the values are equal; that text must be rhs's own
    real = cli._record
    seen = []

    def checked(claim, instance, lhs, rhs, modulus, ms):
        record = real(claim, instance, lhs, rhs, modulus, ms)
        assert (record["lhs"], record["rhs"]) == (cli._fmt(lhs), cli._fmt(rhs)), (claim, instance)
        seen.append(claim)
        return record

    monkeypatch.setattr(cli, "_record", checked)
    code, out = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert len(seen) == len(out.splitlines()) > 0
    assert set(seen) == set(IDENTITY_IDS if argv[0] == "identity" else cli.CONGRUENCE_IDS)


# claim -> (module, attribute) of the source of its left-hand side
_IDENTITY_LHS = {
    "eq9": ("closedform", "closed_form"),
    "eq10": ("sums", "double_sum"),
    "eq11": ("sums", "double_sum"),
    "eq12": ("sums", "inner_conv_sum"),
    "eq15": ("sums", "plain_conv_sum"),
    "eq19": ("sums", "weighted_conv_sum"),
    "eq21": ("closedform", "geometric_S"),
    "eq23": ("closedform", "geometric_T"),
}


@pytest.mark.parametrize("claim", IDENTITY_IDS)
def test_identity_negative_controls(capsys, monkeypatch, claim):
    module_name, attr = _IDENTITY_LHS[claim]
    module = getattr(cli, module_name)
    real = getattr(module, attr)
    # shift the left-hand side one instance ahead: f(n) -> f(n + 1)
    monkeypatch.setattr(module, attr, lambda n, *rest: real(n + 1, *rest))
    code, out = run_cli(capsys, "verify", "identity", "--id", claim, "--max-n", "6",
                        "--format", "json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["instance"] for r in records if r["holds"]] == ([0] if claim == "eq19" else [])
    assert [r["instance"] for r in records if r["instance"] >= 1] == list(range(1, 7))


# sha256 of the scalar scans' csv stdout cut to fields 1-6 (elapsed_ms dropped),
# as `cut -d, -f1-6 | sha256sum` prints it
_SCALAR_DIGESTS = {
    ("identity", "--max-n", "200"):
        "3107f2990124522e1e5bb8468066fcd9495a223658b097895ecac534d361be6b",
    ("congruence", "--id", "eq5", "--id", "eq6", "--id", "eq7", "--id", "eq8", "--limit", "499"):
        "3de9adf0cbdc49dcbb516b8a434a35cb1ca180b3b7d762b6905cbd07ef744a56",
}


@pytest.mark.parametrize("argv", list(_SCALAR_DIGESTS), ids=["identity", "congruence"])
def test_scalar_record_stream_is_pinned(capsys, argv):
    code, out = run_cli(capsys, "verify", *argv, "--format", "csv")
    assert code == 0
    # each csv row ends in \r\n, and the \r goes with the dropped seventh field
    cut = "".join(",".join(line.split(",")[:6]) + "\n" for line in out.split("\n")[:-1])
    assert hashlib.sha256(cut.encode()).hexdigest() == _SCALAR_DIGESTS[argv]


def test_q_congruence_record_stream_is_pinned(capsys):
    # eq1..eq4 at odd n <= 45 on the folded pipeline and eq5..eq8 at odd
    # primes p <= 45, as `verify congruence --limit 45 --format csv | cut -d, -f1-6 | sha256sum`
    code, out = run_cli(capsys, "verify", "congruence", "--limit", "45", "--format", "csv")
    assert code == 0
    cut = "".join(",".join(line.split(",")[:6]) + "\n" for line in out.split("\n")[:-1])
    assert hashlib.sha256(cut.encode()).hexdigest() == (
        "8b1676fd2445831fd182f8cd710cc8d0aa19d7a46b545f015c6be3469936d467")
