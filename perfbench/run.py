"""Cold-start scan benchmark for qcong.

    python3 perfbench/run.py --workload qfold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-reference

Run from the root of a checkout.  Each repetition is one cold scan in a
fresh interpreter (perfbench/child.py) importing qcong from ``src``;
repetitions run one after another until --seconds have passed (at least
MIN_REPS), and each end-to-end metric is the median over them.  With
--trace 1 the run alternates untraced and traced repetitions and prints
the per-layer metrics of the traced one whose scan time is the median.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe
the run.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120
TAIL_ABOVE = 10  # instances the tail percentile must leave above it
# calibration time (workloads.calibrate) that defines a reference second;
# about its median on the 2-core machine the sizes were chosen on
CALIB_REF_S = 0.2

END_TO_END_UNITS = {
    "scan_s": "s",
    "cpu_s": "s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, size: str, seed: int, trace: bool) -> dict:
    """One cold scan in a fresh interpreter.

    calib_s is the mean of two calibrations that bracket the scan: one
    here just before the child starts, one in the child right after its
    scan.
    """
    # fixed string hashing; bytecode caches written and used, as for an installed package
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, size, str(seed),
            "1" if trace else "0"]
    calib_before = workloads.calibrate()
    proc = subprocess.run(argv + [repr(time.monotonic())], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["calib_s"] = (calib_before + rep["calib_s"]) / 2
    return rep


def tail_percentile(n: int) -> int:
    """Highest whole percentile that leaves at least TAIL_ABOVE of n samples above it."""
    return max(0, 100 * (n - TAIL_ABOVE) // n)


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def load_reference() -> dict:
    if not os.path.isfile(REFERENCE):
        raise BenchError(f"missing {REFERENCE}")
    with open(REFERENCE) as fh:
        return json.load(fh)


def gate(rep: dict, expected: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) of one repetition against the reference digests.

    An instance fails if it is missing, does not hold, raised, or its
    record (claim, instance, holds, lhs, rhs, modulus) differs from the
    one captured at the seed commit.  An unexpected or repeated record
    counts as one more failed instance.
    """
    seen = Counter(key for key, _, _ in rep["records"])
    reasons = list(rep["errors"])
    ok = 0
    for key, holds, digest in rep["records"]:
        if key not in expected or seen[key] > 1:
            reasons.append(f"unexpected or repeated record {key}")
        elif not holds:
            reasons.append(f"{key} does not hold")
        elif digest != expected[key]:
            reasons.append(f"{key} differs from the reference record")
        else:
            ok += 1
    reasons += [f"{key} missing" for key in expected if key not in seen]
    attempted = len(expected) + sum(n - (key in expected) for key, n in seen.items())
    return attempted, attempted - ok, reasons


def check_controls(rep: dict) -> list[str]:
    return [f"negative control '{name}' holds" if holds is True else
            f"negative control '{name}': {holds}"
            for name, holds in rep["controls"].items() if holds is not False]


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "loadavg": os.getloadavg(),
    }


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """Medians over the run's cold scans, in reference seconds, and the raw medians.

    Each scan's times are scaled by CALIB_REF_S over the calibration time
    that brackets it (see spawn).  Every scan of a run runs the same
    instances in the same order, so the verdict percentiles are taken
    over each instance's median scaled time.
    """
    scale = [CALIB_REF_S / r["calib_s"] for r in reps]
    per_instance = [statistics.median(ms) for ms in zip(
        *([t * k for t in r["instance_ms"]] for r, k in zip(reps, scale)))]
    per_instance = per_instance or [0.0]  # a scan that ran nothing; the gate fails it
    pct = tail_percentile(len(per_instance))
    values = {key: statistics.median(r[key] * k for r, k in zip(reps, scale))
              for key in ("scan_s", "cpu_s", "setup_s")}
    values["verdict_ms_p50"] = statistics.median(per_instance)
    values["verdict_ms_tail"] = percentile(per_instance, pct)
    values["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in reps)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    raw = {key: statistics.median(r[key] for r in reps) for key in ("scan_s", "cpu_s", "setup_s", "calib_s")}
    notes = {
        "note": f"medians over {len(reps)} cold scans; verdict_ms_tail is p{pct} of "
                f"{len(per_instance)} instances; times scaled by {CALIB_REF_S} s / calib_s",
        "raw_medians_s": raw,
    }
    return metrics, notes


def layer_metrics(rep: dict, untraced_scan_s: float) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics of one traced repetition, its layer self seconds, accounting problems.

    Self times are reported as shares (%) of the traced scan; a span the
    workload never calls reads 0.  The layer shares plus the share of
    unattributed_s add up to 100.
    """
    metrics: dict[str, dict] = {}
    scan_s = rep["scan_s"]

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    layer_s = dict.fromkeys(tracing.MODULES, 0.0)
    for span, stat in rep["stats"].items():
        layer_s[span.split(".")[0]] += stat["s"]
        put(f"{span}.calls", stat["calls"], "count")
        put(f"{span}.share", 100 * stat["s"] / scan_s, "%")
        for counter in tracing.COUNTERS.get(span, ()):
            put(f"{span}.{counter}", stat[counter], "count")
    for name, (hits, misses) in rep["cache"].items():
        put(f"{name}.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("qring.cyclotomic.misses", rep["cache"]["qring.cyclotomic"][1], "count")
    for layer, seconds in layer_s.items():
        put(f"layer.{layer}.share", 100 * seconds / scan_s, "%")
    unattributed = scan_s - rep["outermost_s"]
    put("unattributed_s", unattributed, "s")
    put("traced_scan_s", scan_s, "s")
    put("tracing_overhead_s", scan_s - untraced_scan_s, "s")
    problems = []
    total = sum(layer_s.values()) + unattributed
    if not math.isclose(total, scan_s, rel_tol=1e-9, abs_tol=1e-9) or unattributed < 0:
        problems.append(f"layer self times + unattributed_s = {total} != traced scan_s {scan_s}")
    return metrics, layer_s, problems


def exact_counts(rep: dict) -> dict:
    counts = {f"{span}.{k}": v for span, stat in rep["stats"].items()
              for k, v in stat.items() if k != "s"}
    counts.update({f"{name}.cache": hm for name, hm in rep["cache"].items()})
    return counts


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    expected = load_reference()[workload][size]
    start = time.monotonic()
    info = {"workload": workload, "seed": seed, "size": size, "trace": int(trace),
            "machine_start": machine()}
    untraced, traced = [], []
    while True:
        untraced.append(spawn(workload, size, seed, False))
        if trace:
            traced.append(spawn(workload, size, seed, True))
        enough = len(untraced) >= (MIN_TRACED_PAIRS if trace else MIN_REPS)
        if enough and time.monotonic() - start >= seconds:
            break
    info["machine_end"] = machine()
    info["plan"] = untraced[0]["plan"]
    attempted = failed = 0
    problems: list[str] = []
    for rep in untraced + traced:
        a, f, reasons = gate(rep, expected)
        attempted += a
        failed += f
        problems += reasons + check_controls(rep)
    info["controls"] = untraced[0]["controls"]
    info["controls_s_median"] = statistics.median(r["controls_s"] for r in untraced)
    if trace:
        counts = [exact_counts(r) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts[1:]))
            problems.append(f"exact counts differ between traced runs: {diff}")
        mid = sorted(traced, key=lambda r: r["scan_s"])[(len(traced) - 1) // 2]
        metrics, info["layer_self_s"], accounting = layer_metrics(
            mid, statistics.median(r["scan_s"] for r in untraced))
        problems += accounting
        info["traced_reps"] = len(traced)
        info["patched"] = mid["patched"]
    else:
        metrics, notes = end_to_end(untraced)
        info.update(notes)
    info["reps"] = len(untraced)
    info["failed_frac"] = failed / attempted
    info["problems"] = problems[:20]
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"info": info, "result": result}


def print_run(run: dict) -> None:
    info, result = run["info"], run["result"]
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':42s} {info['failed_frac']:>16.6g} 1  "
          f"({result['failed']} of {result['attempted']} instances)")
    print(json.dumps(result))


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced: shape and correctness only."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ok = True
    for workload in workloads.WORKLOADS:
        for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
            run = measure(workload, seed=0, seconds=0, trace=trace, size="smoke")
            result = run["result"]
            names = {m["name"]: m["unit"] for m in bench[declared]}
            shape = (set(result) == {"correct", "attempted", "failed", "metrics"}
                     and {k: m["unit"] for k, m in result["metrics"].items()} == names)
            good = shape and result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={int(trace)} "
                  f"attempted={result['attempted']} failed={result['failed']} shape={shape} "
                  f"problems={run['info']['problems']}")
    return 0 if ok else 1


def write_reference() -> int:
    """Capture the record digests of every workload and size from the current code."""
    reference = {}
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        for size in ("full", "smoke"):
            rep = spawn(workload, size, 0, False)
            if rep["errors"] or not all(holds for _, holds, _ in rep["records"]):
                raise BenchError(f"{workload}/{size}: not every instance holds: {rep['errors']}")
            reference[workload][size] = {key: digest for key, _, digest in rep["records"]}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qcong", "__init__.py")):
        print(f"no qcong sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.write_reference:
            return write_reference()
        if not args.workload:
            parser.error("--workload is required")
        print_run(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
