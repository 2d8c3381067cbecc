"""Negative controls kept as code: every mutant below must fail its named tests.

    python3 tests/mutants.py

Each entry of MUTANTS is (file under src/qcong, old text, new text,
tests that must fail).  The old text must occur exactly once in the file.
The script copies src/, tests/ and pyproject.toml to a temporary
directory, checks that the clean copy passes every named test, and then,
one mutant at a time, replaces the old text with the new one and runs
only that mutant's tests against the copy.  A mutant is killed when
pytest exits 1 and each named test is among the failures.  The exit
status is 0 when every mutant is killed, and 1 when one survives or
errors.

EQUIVALENT lists mutants that change no value, each with its reason.
None of them is run; the script only checks that its old text is still
there, so the list follows the code.  The file name keeps pytest from
collecting this script.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600  # per pytest run; a mutant that hangs its tests counts as an error

CLI = "tests/test_cli.py::"
QRING = "tests/test_qring.py::"
SUMS = "tests/test_sums.py::"

LOCAL_IMAGES = SUMS + "test_local_images_are_the_leading_local_coefficients"
SIGN_FLIPS = SUMS + "test_reduced_verdict_matches_oracle_on_sign_flips"
FOLDED_IMAGES = SUMS + "test_folded_images_match_full_degree_products"
CENTRAL = SUMS + "test_central_binomial_list_is_math_comb_through_1500"
THREADED_MEMOS = SUMS + "test_memos_grown_by_threads_hold_exact_values"
RENDERER = QRING + "test_qpoly_str_matches_the_term_by_term_renderer"
EXTENDS = QRING + "test_qpoly_str_extends_the_last_text_only_after_an_equal_prefix"

MUTANTS = [
    # reduced images: the prefix chain one Pochhammer binomial too long
    ("sums.py",
     "        pre = chain(pochhammer, {len(terms[k][2]) - 1 for k in built})\n"
     "        suf = chain(full[::-1], {len(full) - len(terms[k][3]) for k in built})\n"
     "        images = [()] * n\n"
     "        for k in built:\n"
     "            sign, qpow, num, den = terms[k]\n"
     "            product = times(_cyclic_mul(pre[len(num) - 1],",
     "        pre = chain(pochhammer, {len(terms[k][2]) for k in built})\n"
     "        suf = chain(full[::-1], {len(full) - len(terms[k][3]) for k in built})\n"
     "        images = [()] * n\n"
     "        for k in built:\n"
     "            sign, qpow, num, den = terms[k]\n"
     "            product = times(_cyclic_mul(pre[len(num)],",
     [LOCAL_IMAGES, SIGN_FLIPS]),
    # reduced images: the suffix chain one binomial of D too long
    ("sums.py",
     "        suf = chain(full[::-1], {len(full) - len(terms[k][3]) for k in built})\n"
     "        images = [()] * n\n"
     "        for k in built:\n"
     "            sign, qpow, num, den = terms[k]\n"
     "            product = times(_cyclic_mul(pre[len(num) - 1], suf[len(full) - len(den)], d), num[-1])",
     "        suf = chain(full[::-1], {len(full) - len(terms[k][3]) + 1 for k in built})\n"
     "        images = [()] * n\n"
     "        for k in built:\n"
     "            sign, qpow, num, den = terms[k]\n"
     "            product = times(_cyclic_mul(pre[len(num) - 1], suf[len(full) - len(den) + 1], d), num[-1])",
     [LOCAL_IMAGES, SIGN_FLIPS]),
    # reduced images: a term's own last binomial 1 - q^(6k+1) dropped
    ("sums.py",
     "product = times(_cyclic_mul(pre[len(num) - 1], suf[len(full) - len(den)], d), num[-1])",
     "product = _cyclic_mul(pre[len(num) - 1], suf[len(full) - len(den)], d)",
     [LOCAL_IMAGES, SIGN_FLIPS]),
    # reduced images: terms deeper than m_d built too, instead of left ()
    ("sums.py",
     "built = [k for k, e in enumerate(excess) if not e]",
     "built = [k for k, e in enumerate(excess) if e <= 0]",
     [LOCAL_IMAGES, SIGN_FLIPS]),
    # folded images: each term's own rest r_k dropped
    ("sums.py",
     "product = times(_qint_mul(pre, suf, n), r)",
     "product = _qint_mul(pre, suf, n)",
     [FOLDED_IMAGES]),
    # chain split: u taken as a prefix minimum instead of a suffix minimum
    ("sums.py",
     "us = list(accumulate(reversed(rows), rowmin))[::-1]",
     "us = list(accumulate(rows, rowmin))",
     [FOLDED_IMAGES, SUMS + "test_chain_split_invariants"]),
    # folded images: L_d taken as max(0, .) instead of -min(0, .)
    ("sums.py",
     "common = [-min(0, *col) for col in zip(*rows)]",
     "common = [max(0, *col) for col in zip(*rows)]",
     [FOLDED_IMAGES]),
    # folded images: both chains started at [] instead of [1]
    ("sums.py",
     "out, image, have = [], [1], [0] * len(ds)",
     "out, image, have = [], [], [0] * len(ds)",
     [FOLDED_IMAGES]),
    # the shared product kernel: one coefficient off by one, only at d > 64
    ("sums.py",
     "                out = [o + c * x for o, x in zip(out, rot)]\n    return out\n",
     "                out = [o + c * x for o, x in zip(out, rot)]\n"
     "    if d > 64:\n        out[0] += 1\n    return out\n",
     [SUMS + "test_cyclic_mul_above_the_packing_threshold"]),
    # central binomials: the ratio C(2j, j) / C(2j-2, j-1) off by one, twice
    ("sums.py",
     "c[j : j + 1] = [c[j - 1] * (4 * j - 2) // j]",
     "c[j : j + 1] = [c[j - 1] * (4 * j - 2) // (j + 1)]",
     [CENTRAL]),
    ("sums.py",
     "c[j : j + 1] = [c[j - 1] * (4 * j - 2) // j]",
     "c[j : j + 1] = [c[j - 1] * (4 * j + 2) // (j + 1)]",
     [CENTRAL]),
    # central binomials: the floor taken before the multiply
    ("sums.py",
     "c[j : j + 1] = [c[j - 1] * (4 * j - 2) // j]",
     "c[j : j + 1] = [c[j - 1] * ((4 * j - 2) // j)]",
     [CENTRAL]),
    # QPoly: trailing zeros kept
    ("qring.py",
     'object.__setattr__(self, "coeffs", tuple(_trim(cs)))',
     'object.__setattr__(self, "coeffs", tuple(cs))',
     [QRING + "test_zero_polynomial_canonical_form",
      QRING + "test_unpickling_runs_the_constructor"]),
    # QPoly: bools let through the all-int fast path unconverted
    ("qring.py",
     "return set(map(type, cs)) <= {int}",
     "return set(map(type, cs)) <= {int, bool}",
     [QRING + "test_zero_polynomial_canonical_form"]),
    # QRat: unpickled through _from_reduced, trusting the bytes to be reduced
    ("qring.py",
     "        self._set(num, den)\n\n    def _set(",
     "        self._set(num, den)\n\n"
     "    def __reduce__(self):\n        return QRat._from_reduced, (self.num, self.den)\n\n"
     "    def _set(",
     [QRING + "test_unpickling_runs_the_constructor"]),
    # the oracle's trial division: a Phi_d divided out only when it leaves a remainder
    ("sums.py",
     "            if rem:\n                break\n",
     "            if not rem:\n                break\n",
     [SUMS + "test_q_single_sum_matches_naive[c_q_term]",
      SUMS + "test_q_double_sum_matches_naive[c_q_term]"]),
    # QRat addition: the gcd skipped even when neither denominator is 1
    ("qring.py",
     "if self.den == ONE or other.den == ONE:",
     "if True:",
     [QRING + "test_qrat_field_arithmetic", QRING + "test_subtraction_ring_laws"]),
    # the kept text extended without checking that it is a prefix
    ("qring.py",
     "start = len(done) if cs[: len(done)] == done else 0",
     "start = len(done)",
     [EXTENDS, CLI + "test_scalar_record_stream_is_pinned[identity]"]),
    # the kept text extended after checking all but its last coefficient
    ("qring.py",
     "start = len(done) if cs[: len(done)] == done else 0",
     "start = len(done) if cs[: len(done) - 1] == done[:-1] else 0",
     [EXTENDS]),
    # folded images: a zero image multiplied on down its chain
    ("sums.py",
     "                if not image:  # already a multiple of [n], as at prime n once Phi_n enters\n"
     "                    return image\n",
     "",
     [SUMS + "test_folded_terms_share_their_products"]),
    # folded images: the zero-image skip returning a nonzero image
    ("sums.py",
     "                    return image\n                image = _qint_mul(image, phi, n)",
     "                    return [1]\n                image = _qint_mul(image, phi, n)",
     [FOLDED_IMAGES]),
    # central binomials: grown by append, so a thread that lags behind misplaces its entries
    ("sums.py",
     "c[j : j + 1] = [c[j - 1] * (4 * j - 2) // j]",
     "c.append(c[-1] * (4 * j - 2) // j)",
     [THREADED_MEMOS]),
    # weights: grown by one list extension, as the central binomials above
    ("sums.py",
     "        for j in range(len(a), k + 1):\n            a[j : j + 1] = [c[j] * (slope * j + intercept)]\n",
     "        a += [c[j] * (slope * j + intercept) for j in range(len(a), k + 1)]\n",
     [THREADED_MEMOS]),
    # Horner numerators: grown by append, as the central binomials above
    ("sums.py",
     "nums[k : k + 1] = [(nums[k - 1] * b if k else 0) + inner_conv_sum(k) * a**k]",
     "nums.append((nums[-1] * b if nums else 0) + inner_conv_sum(k) * a**k)",
     [THREADED_MEMOS]),
    # QPoly text: the monomial q rendered as q^1
    ("qring.py",
     'for m in ["q" if e == 1 else f"q^{e}"]',
     'for m in [f"q^{e}"]',
     [RENDERER, EXTENDS]),
    # binomial products: 1 - q^m and 1 + q^m swapped
    ("qring.py",
     "sub if s == 1 else add",
     "add if s == 1 else sub",
     [QRING + "test_q_pochhammer_examples", QRING + "test_q_pochhammer_against_factor_products"]),
    # coefficients: an int subclass kept as it is, not normalized to int
    ("qring.py",
     "    if isinstance(c, int):\n        return int(c)\n",
     "    if isinstance(c, int):\n        return c\n",
     [QRING + "test_zero_polynomial_canonical_form"]),
    # eq5..eq8: any instance accepted, prime or not
    ("congruence.py",
     "    if not is_odd_prime(p):\n        raise NotOddPrime",
     "    if False:\n        raise NotOddPrime",
     ["tests/test_congruence.py::test_non_odd_prime_instances_rejected"]),
    # csv records: rows ending in \n, not the \r\n of the header and of csv writers
    ("cli.py",
     'for field in FIELDS]) + "\\r\\n"',
     'for field in FIELDS]) + "\\n"',
     [CLI + "test_csv_columns_mirror_json_fields"]),
]

# (file under src/qcong, old text, new text, why no value changes)
EQUIVALENT = [
    ("sums.py",
     "common = [-min(0, *col) for col in zip(*rows)]",
     "common = [-max(0, *col) for col in zip(*rows)]",
     "the prefix chain starts from zero and range(e) skips a negative first step, so "
     "every column still ends at m_k - min_j m_j = e_k + L_d and no image or verdict moves; "
     "only test_folded_terms_split_the_numerator_exponents, which pins the rows, sees it"),
    ("sums.py",
     "c[j : j + 1] = [c[j - 1] * (4 * j - 2) // j]",
     "c[j : j + 1] = [c[j - 1] // j * (4 * j - 2)]",
     "C(2j-2, j-1)/j is the Catalan number C_(j-1), so the division is always exact"),
    ("qring.py",
     "        _LAST = cs, text\n",
     "",
     "with no pair kept every polynomial renders from scratch, as an extension's "
     "text equals a fresh render; only the speed changes"),
]


def _pytest(cwd: str, tests: list) -> tuple[int, set, str]:
    """Run the tests in cwd; return pytest's exit code, the failed node ids and its output.

    No bytecode is written: a mutant of the same size, saved within the
    same second as the source it replaces, would otherwise run stale code.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(cwd, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1, set(), f"timed out after {TIMEOUT_S} s"
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return proc.returncode, failed, proc.stdout + proc.stderr


def _failed(test: str, failed: set) -> bool:
    """The named test, or one of its parametrized cases, failed."""
    return any(f == test or f.startswith(test + "[") for f in failed)


def main() -> int:
    sources = {}
    for name, old, *_ in MUTANTS + EQUIVALENT:
        if name not in sources:
            with open(os.path.join(ROOT, "src", "qcong", name)) as fh:
                sources[name] = fh.read()
        if sources[name].count(old) != 1:
            print(f"error: old text occurs {sources[name].count(old)} times in {name}: {old!r}")
            return 1
    start = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        named = sorted({t for *_, tests in MUTANTS for t in tests})
        code, _, out = _pytest(tmp, named)
        if code != 0:
            print(f"error: the unmutated copy fails its named tests (pytest exit {code})\n{out}")
            return 1
        for i, (name, old, new, tests) in enumerate(MUTANTS, 1):
            path = os.path.join(tmp, "src", "qcong", name)
            with open(path, "w") as fh:
                fh.write(sources[name].replace(old, new))
            code, failed, out = _pytest(tmp, tests)
            with open(path, "w") as fh:
                fh.write(sources[name])
            survivors = [t for t in tests if not _failed(t, failed)]
            killed = code == 1 and not survivors
            bad += not killed
            status = "killed" if killed else "SURVIVED" if code in (0, 1) else "ERROR"
            print(f"{status:8} {i:2} {name}: {new.strip()[:70]!r}")
            if not killed:
                print(f"  pytest exit {code}; not failed: {survivors}\n{out}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed, "
          f"{len(EQUIVALENT)} equivalent listed, in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
