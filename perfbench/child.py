"""One cold scan of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/child.py WORKLOAD SIZE SEED TRACE SPAWNED_AT

SPAWNED_AT is the parent's time.monotonic() just before the spawn, so
setup_s covers interpreter start and ``import qcong``.  qcong is
imported from the checkout's ``src``.  Prints one JSON object.
"""

import os
import resource
import sys
import time

workload, size, seed, trace, spawned_at = sys.argv[1:6]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import qcong  # noqa: E402
import qcong.cli  # noqa: E402
from qcong import qring, sums  # noqa: E402

import workloads  # noqa: E402

if not os.path.abspath(qcong.__file__).startswith(SRC + os.sep):
    sys.exit(f"qcong imported from {qcong.__file__}, not from {SRC}")

CACHES = {
    "sums.reduced_term": sums._reduced_term,
    "sums.folded_terms": sums._folded_terms,
    "sums.assembled_numerators": sums._assembled_numerators,
    "sums.inner_conv_sum": sums.inner_conv_sum,
    "qring.cyclotomic": qring.cyclotomic,
}

p = workloads.plan(workload, size, int(seed))
tracer = None
patched = None
if trace == "1":
    import tracing

    tracer = tracing.Tracer()
    patched = tracer.install()
timer = workloads.InstanceTimer()
timer.wrap_cli(qcong.cli)

t0 = time.perf_counter()
setup_s = time.monotonic() - float(spawned_at)
try:
    outputs = workloads.scan(workload, p, qcong, timer)
    scan_error = None
except (Exception, SystemExit) as exc:  # a scan that dies (or a usage error) fails every instance
    outputs, scan_error = [], f"{type(exc).__name__}: {exc}"
scan_s = time.perf_counter() - t0
usage = resource.getrusage(resource.RUSAGE_SELF)
cache = {name: list(fn.cache_info()[:2]) for name, fn in CACHES.items()}
stats = None if tracer is None else {k: dict(v) for k, v in tracer.stats.items()}
outermost_s = None if tracer is None else tracer.outermost_s

import hashlib  # noqa: E402
import json  # noqa: E402

calib_s = workloads.calibrate()
try:
    records = workloads.records(outputs)
except (ValueError, KeyError) as exc:  # output the gate cannot read fails every instance
    records, scan_error = [], f"unreadable output: {type(exc).__name__}: {exc}"

t1 = time.perf_counter()
try:
    control_holds = workloads.controls(workload, p, qcong)
except Exception as exc:  # a control that cannot run proves nothing
    control_holds = {"error": f"{type(exc).__name__}: {exc}"}
controls_s = time.perf_counter() - t1


def digest(record) -> str:
    line = json.dumps(list(record), separators=(",", ":"))
    return hashlib.sha256(line.encode()).hexdigest()[:16]


print(json.dumps({
    "plan": p,
    "setup_s": setup_s,
    "scan_s": scan_s,
    "calib_s": calib_s,
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "peak_rss_mib": usage.ru_maxrss / 1024,
    "instance_ms": timer.ms,
    "records": [[f"{r[0]}:{r[1]}", r[2], digest(r)] for r in records],
    "errors": timer.errors + ([scan_error] if scan_error else []),
    "controls": control_holds,
    "controls_s": controls_s,
    "cache": cache,
    "stats": stats,
    "outermost_s": outermost_s,
    "patched": patched,
}))
