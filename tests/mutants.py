"""Negative controls kept as code: every mutant below must fail its named tests.

    python3 tests/mutants.py

Each entry of MUTANTS is (file under src/qcong, old text, new text,
tests that must fail).  The old text must occur exactly once in the file;
the script lists every old text that does not, then exits 1.
The script copies src/, tests/ and pyproject.toml to a temporary
directory, checks that the clean copy passes every named test, and then,
one mutant at a time, replaces the old text with the new one and runs
only that mutant's tests against the copy.  A mutant is killed when
pytest exits 1 and each named test is among the failures.  The exit
status is 0 when every mutant is killed, and 1 when one survives or
errors; the last line gives the count and the time taken.

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
ONE_TERM_LIVE = SUMS + "test_reduced_build_holds_one_term_of_binomial_lists"
SIGN_FLIPS = SUMS + "test_reduced_verdict_matches_oracle_on_sign_flips"
FOLDED_IMAGES = SUMS + "test_folded_images_match_full_degree_products"
CENTRAL = SUMS + "test_central_binomial_list_is_math_comb_through_1500"
THREADED_MEMOS = SUMS + "test_memos_grown_by_threads_hold_exact_values"
RENDERER = QRING + "test_qpoly_str_matches_the_term_by_term_renderer"
EXTENDS = QRING + "test_qpoly_str_extends_the_last_text_only_after_an_equal_prefix"
PACKED_ZERO = SUMS + "test_cyclic_mul_packed_zero_image_keeps_length_d"
CLAIM_FAMILIES = "tests/test_congruence.py::test_q_claims_ask_for_their_family_and_sum"
FULL_DEGREE = SUMS + "test_failing_folded_residue_is_the_full_degree_remainder"
INDEPENDENCE = "tests/test_independence.py::test_pipelines_reach_only_their_own_code_and_the_shared_kernels"
FOLDED_PAIRS = SUMS + "test_folded_double_sum_pair_sum_and_negative_control"
FLIPPED_PAIRS = SUMS + "test_folded_double_sum_is_the_pair_sum_on_a_sign_flip"
NAIVE_DOUBLE = SUMS + "test_q_double_sum_matches_naive"
FIRST_FAILING = SUMS + "test_reduced_residue_stops_at_the_first_failing_divisor"
NEGATIVE_N = "tests/test_congruence.py::test_q_claims_reject_even_n"
UNREDUCED = SUMS + "test_terms_match_unreduced_products_by_evaluation"
WEIGHT_AT_ONE = SUMS + "test_exponent_form_at_q_one_is_the_scalar_weight"
BRIDGE = SUMS + "test_folded_residues_at_q_one_are_the_scalar_sums_times_the_denominator"
CP_FROM_C = SUMS + "test_cp_exponents_are_those_of_c_times_the_odd_plus_pochhammer"
CYCLOTOMIC = [QRING + "test_cyclotomic_examples", QRING + "test_cyclotomic_against_mobius_oracle",
              QRING + "test_cyclotomic_product_equals_q_integer"]

MUTANTS = [
    # reduced images: the prefix chain one Pochhammer binomial too long
    ("sums.py",
     "        pre = chain(pochhammer, {records[k][3] for k in built})\n"
     "        suf = chain(full[::-1], {len(full) - records[k][4] for k in built})\n"
     "        images = [()] * n\n"
     "        for k in built:\n"
     "            sign, qpow, own, pl, dl = records[k]\n"
     "            product = times(_cyclic_mul(pre[pl],",
     "        pre = chain(pochhammer, {records[k][3] + 1 for k in built})\n"
     "        suf = chain(full[::-1], {len(full) - records[k][4] for k in built})\n"
     "        images = [()] * n\n"
     "        for k in built:\n"
     "            sign, qpow, own, pl, dl = records[k]\n"
     "            product = times(_cyclic_mul(pre[pl + 1],",
     [LOCAL_IMAGES, SIGN_FLIPS]),
    # reduced images: the suffix chain one binomial of D too long
    ("sums.py",
     "        suf = chain(full[::-1], {len(full) - records[k][4] for k in built})\n"
     "        images = [()] * n\n"
     "        for k in built:\n"
     "            sign, qpow, own, pl, dl = records[k]\n"
     "            product = times(_cyclic_mul(pre[pl], suf[len(full) - dl], d), own)",
     "        suf = chain(full[::-1], {len(full) - records[k][4] + 1 for k in built})\n"
     "        images = [()] * n\n"
     "        for k in built:\n"
     "            sign, qpow, own, pl, dl = records[k]\n"
     "            product = times(_cyclic_mul(pre[pl], suf[len(full) - dl + 1], d), own)",
     [LOCAL_IMAGES, SIGN_FLIPS]),
    # reduced images: a term's own last binomial 1 - q^(6k+1) dropped
    ("sums.py",
     "product = times(_cyclic_mul(pre[pl], suf[len(full) - dl], d), own)",
     "product = _cyclic_mul(pre[pl], suf[len(full) - dl], d)",
     [LOCAL_IMAGES, SIGN_FLIPS]),
    # reduced images: a term's Pochhammer length read as its whole numerator's, own binomial included
    ("sums.py",
     "records.append((sign, qpow, num[-1], len(num) - 1, len(den)))",
     "records.append((sign, qpow, num[-1], len(num), len(den)))",
     [LOCAL_IMAGES]),
    # reduced images: a non-vanishing binomial 1 - s*q^m stepped as 1 + s*q^m
    ("sums.py",
     "list(map(sub if s == 1 else add, a, _rotate(a, m)))",
     "list(map(add if s == 1 else sub, a, _rotate(a, m)))",
     [LOCAL_IMAGES]),
    # reduced images: every term's binomial lists made before any is read, so all n stay alive
    ("sums.py",
     "    records = []\n"
     "    for k in range(n):\n"
     "        sign, qpow, num, den = _term_binomials(family, k)\n",
     "    terms = [_term_binomials(family, k) for k in range(n)]\n"
     "    records = []\n"
     "    for sign, qpow, num, den in terms:\n",
     [ONE_TERM_LIVE]),
    # reduced images: terms deeper than m_d built too, instead of left ()
    ("sums.py",
     "built = [k for k, e in enumerate(excess) if not e]",
     "built = [k for k, e in enumerate(excess) if e <= 0]",
     [LOCAL_IMAGES, SIGN_FLIPS]),
    # folded images: each term's own rest r_k dropped
    ("sums.py",
     "images.append(tuple(times(_qint_mul(placed, suf, n), r)))",
     "images.append(tuple(_qint_mul(placed, suf, n)))",
     [FOLDED_IMAGES]),
    # folded images: q^qpow placed as q^-qpow
    ("sums.py",
     "_rotate(pre + [0] * (n - len(pre)), qpow)",
     "_rotate(pre + [0] * (n - len(pre)), -qpow)",
     [FOLDED_IMAGES, FULL_DEGREE]),
    # folded products: the top coefficient kept, so a product is left modulo q^n - 1, not [n]
    ("sums.py",
     "return _trim([c - top for c in cs] if top else cs)",
     "return _trim(cs)",
     [FOLDED_IMAGES, FULL_DEGREE]),
    # folded "cp" images: the sign (-1)^k of c'(k) / c(k) dropped
    ("sums.py",
     "_qint_mul(image, [(-1) ** k * c for c in",
     "_qint_mul(image, [c for c in",
     [FOLDED_IMAGES]),
    # folded "cp" images: B_k rotated by q^(-k^2) instead of q^(-2k^2)
    ("sums.py",
     "_rotate(b, -2 * k * k)]",
     "_rotate(b, -k * k)]",
     [FOLDED_IMAGES]),
    # folded "cp" images: B_k rotated by q^(2k^2) instead of q^(-2k^2)
    ("sums.py",
     "_rotate(b, -2 * k * k)]",
     "_rotate(b, 2 * k * k)]",
     [FOLDED_IMAGES]),
    # folded "cp" images: B_k stepped by 1 + q^(2k+1) instead of 1 + q^(2k-1)
    ("sums.py",
     "b = list(map(add, b, _rotate(b, 2 * k - 1)))",
     "b = list(map(add, b, _rotate(b, 2 * k + 1)))",
     [FOLDED_IMAGES]),
    # folded "cp" images: 1 + q^(2k-1) with n | 2k-1 taken as 1, not 1 + q^0 = 2
    ("sums.py",
     "            if k:\n                b = list(map(add, b,",
     "            if k and (2 * k - 1) % n:\n                b = list(map(add, b,",
     [FOLDED_IMAGES]),
    # folded "cp" images: the product by B_k left modulo q^n - 1, not reduced modulo [n]
    ("sums.py",
     "image = tuple(_qint_mul(image,",
     "image = tuple(_cyclic_mul(image,",
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
     [SUMS + "test_cyclic_mul_below_the_packing_threshold_at_large_d"]),
    # the shared product kernel: the packed product returned unfolded
    ("sums.py",
     "return _fold_list(_intpoly_mul(a, b), d)",
     "return _intpoly_mul(a, b)",
     [SUMS + "test_cyclic_mul_above_the_packing_threshold", PACKED_ZERO]),
    # the fold trimmed, so a packed product with zero top coefficients comes back shorter than d
    ("qring.py",
     "            out[e % n] += c\n    return out\n",
     "            out[e % n] += c\n    return _trim(out)\n",
     [PACKED_ZERO]),
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
     "nums[k : k + 1] = [nums[k - 1] * b + inner_conv_sum(k) * a**k]",
     "nums.append(nums[-1] * b + inner_conv_sum(k) * a**k)",
     [THREADED_MEMOS]),
    # weights: every list seeded with a_0 = 1, so the weighted convolution's a_0 = 0 is lost
    ("sums.py",
     "    return [intercept]\n",
     "    return [1]\n",
     [SUMS + "test_weighted_conv_sum"]),
    # Horner numerators: seeded with 0 in place of N_1 = inner_conv_sum(0)
    ("sums.py",
     "    return [inner_conv_sum(0)]\n",
     "    return [0]\n",
     [SUMS + "test_double_sum_examples"]),
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
    # cyclotomic: a factor 1 - q^e multiplied in ascending, so it reads coefficients it already changed
    ("qring.py",
     "for i in range(n - 1, e - 1, -1):",
     "for i in range(e, n):",
     CYCLOTOMIC),
    # cyclotomic: mu(s) taken as plus, not minus, the sum of mu over the proper divisors of s
    ("qring.py",
     "-sum(v for t, v in mu.items() if s % t == 0)",
     "sum(v for t, v in mu.items() if s % t == 0)",
     CYCLOTOMIC),
    # cyclotomic: mu(s) = 0 taken as -1, so 1 - q^e is divided out for a non-squarefree s too
    ("qring.py",
     "elif sign == -1:",
     "else:",
     [QRING + "test_cyclotomic_against_mobius_oracle", QRING + "test_cyclotomic_product_equals_q_integer"]),
    # cyclotomic: Phi_1 returned as 1 - q
    ("qring.py",
     "return QPoly._raw([-1, 1])",
     "return QPoly._raw([1, -1])",
     [QRING + "test_cyclotomic_examples", QRING + "test_cyclotomic_against_mobius_oracle"]),
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
    # q-claims: eq4 checks the alternating family, eq1 the other one
    ("congruence.py",
     '"eq4": ("cp", True)',
     '"eq4": ("c", True)',
     [CLAIM_FAMILIES, FULL_DEGREE]),
    ("congruence.py",
     '"eq1": ("c", False)',
     '"eq1": ("cp", False)',
     [CLAIM_FAMILIES, FULL_DEGREE, SUMS + "test_single_and_double_sums_share_one_build_per_n"]),
    # reduced images: q^qpow read from the folded path's exponent form, with equal values
    ("sums.py",
     "images[k] = tuple(sign * c for c in _rotate(product, qpow))",
     "images[k] = tuple(sign * c for c in _rotate(product, _reduced_term(family, k)[1]))",
     [INDEPENDENCE]),
    # folded single sum: given the oracle's product, which makes it a double sum taken in Z[q]
    ("sums.py",
     "QPoly(_term_sum(images))",
     "QPoly(_term_sum(images, _list_mul))",
     [INDEPENDENCE, FULL_DEGREE]),
    # folded double sum: no product passed, so its single sum is returned
    ("sums.py",
     "total = _term_sum(images, partial(_qint_mul, n=n))",
     "total = _term_sum(images)",
     [FLIPPED_PAIRS, FULL_DEGREE]),
    # term sums: the double sum taken without a product and the single sum with one
    ("sums.py",
     "        if mul:\n",
     "        if not mul:\n",
     [FULL_DEGREE, NAIVE_DOUBLE]),
    # terms: k = -1 let through to the binomials, which build a term there
    ("sums.py",
     "    if k < 0:\n        raise ValueError(f\"{family}_q_term",
     "    if k < -1:\n        raise ValueError(f\"{family}_q_term",
     [SUMS + "test_terms_reject_negative_k"]),
    # folded images: the coprimality check asks for n % d == 1, so Phi_d with d | n passes it
    ("sums.py",
     "if e and n % d == 0]",
     "if e and n % d == 1]",
     [SUMS + "test_folded_terms_are_integer_and_refuse_shared_denominator_factors"]),
    # folded images: L_d taken as -max(0, .), so the coprimality check reads the numerator's indices
    ("sums.py",
     "common = [-min(0, *col) for col in zip(*rows)]",
     "common = [-max(0, *col) for col in zip(*rows)]",
     [FOLDED_IMAGES]),
    # double sums: term j paired with the prefix P(j) instead of term n-1-j
    ("sums.py",
     "item = mul(items[-1 - j], prefix)",
     "item = mul(items[j], prefix)",
     [FOLDED_PAIRS, NAIVE_DOUBLE, SIGN_FLIPS, CLI + "test_q_congruence_record_stream_is_pinned"]),
    # double sums: the running prefix grown after its product, so term n-1-j meets P(j-1)
    ("sums.py",
     "            _accumulate(prefix, item)\n            item = mul(items[-1 - j], prefix)\n",
     "            product = mul(items[-1 - j], prefix)\n            _accumulate(prefix, item)\n"
     "            item = product\n",
     [FOLDED_PAIRS, NAIVE_DOUBLE, SIGN_FLIPS]),
    # reduced witness: the divisors walked from the top, so a later failing d is returned
    ("sums.py",
     "for d in _local_images(family, n):",
     "for d in reversed(_local_images(family, n)):",
     [SIGN_FLIPS, FIRST_FAILING]),
    # reduced witness: the divisors read off the "c" images, so no other family name is refused
    ("sums.py",
     "for d in _local_images(family, n):",
     'for d in _local_images("c", n):',
     [SUMS + "test_terms_reject_negative_k"]),
    # q-claims: a negative odd n let through the folded single sum, which then sums nothing
    ("sums.py",
     "    if n < 1:\n        raise ValueError(f\"folded_single_sum_residue",
     "    if n == 0:\n        raise ValueError(f\"folded_single_sum_residue",
     [NEGATIVE_N]),
    # q-claims: a negative odd n let through the reduced verdict
    ("sums.py",
     "    if n < 1:\n        raise ValueError(f\"reduced_sum_residue",
     "    if n == 0:\n        raise ValueError(f\"reduced_sum_residue",
     [NEGATIVE_N]),
    # divrem: a divisor with lead -1 passed unscaled to the monic-only kernel
    ("qring.py",
     "inv = lead if lead == 1 or lead == -1",
     "inv = 1 if lead == 1 or lead == -1",
     [QRING + "test_divrem_long_division_oracle",
      QRING + "test_poly_inverse_mod_inverts_coprime_residues"]),
    # exponent form: the "cp" numerator built from 1 - q^(2i+1), as for "c", in place of 1 - q^(4i+2);
    # the folded images of "cp" are read off those of "c", so the q -> 1 bridge no longer sees it
    ("sums.py",
     "scale, sign, qpow = 2, 1, k * k",
     "scale, sign, qpow = 1, 1, k * k",
     [UNREDUCED, WEIGHT_AT_ONE, CP_FROM_C]),
    # exponent form: 1 + q^m for odd m given one Phi_2 too many
    ("qring.py",
     "return tuple(d for d in _divisors(2 * m) if m % d)",
     "return tuple(d for d in _divisors(2 * m) if m % d) + (2,) * (m % 2)",
     [UNREDUCED, WEIGHT_AT_ONE, BRIDGE]),
    # scan faults: only qcong's own error classes turned into exit 3, so others escape with exit 1
    ("cli.py",
     "except Exception as exc:",
     "except (ArithmeticError, ValueError) as exc:",
     [CLI + "test_any_fault_inside_a_scan_exits_3", CLI + "test_a_killed_worker_exits_3"]),
    # closed output: a broken pipe no longer told apart, so it exits 3 with a message
    ("cli.py",
     "except BrokenPipeError:",
     "except ZeroDivisionError:",
     [CLI + "test_closed_stdout_exits_141_quietly"]),
    # eval: the closed form read at the weight q/4 instead of at q
    ("cli.py",
     "_fmt(closedform.closed_form(n).evaluate(q0))",
     "_fmt(closedform.closed_form(n).evaluate(q0 / 4))",
     [CLI + "test_eval_prints_the_closed_form_value_at_q_one", CLI + "test_eval_examples"]),
]

# (file under src/qcong, old text, new text, why no value changes)
EQUIVALENT = [
    ("sums.py",
     "c[j : j + 1] = [c[j - 1] * (4 * j - 2) // j]",
     "c[j : j + 1] = [c[j - 1] // j * (4 * j - 2)]",
     "C(2j-2, j-1)/j is the Catalan number C_(j-1), so the division is always exact"),
    ("qring.py",
     "        _LAST = cs, text\n",
     "",
     "with no pair kept every polynomial renders from scratch, as an extension's "
     "text equals a fresh render; only the speed changes"),
    ("sums.py",
     "if na * d > 2048:",
     "if na * d >= 2048:",
     "both branches are exact, so moving the threshold by one only changes "
     "which of them computes a product at exactly 2048 additions"),
    ("qring.py",
     "        a, b, na = b, a, nb\n",
     "        a, b = b, a\n",
     "both branches are exact, so a stale count of nonzeros, the denser "
     "operand's, only changes which of them computes a product"),
    ("qring.py",
     "                    out[i + j] += ca * cb\n    return out\n",
     "                    out[i + j] += ca * cb\n    return _trim(out)\n",
     "every caller trims the product: QPoly.__mul__ through the constructor, "
     "_summed_numerator after summing the products"),
    ("qring.py",
     "    return [\n"
     "        int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], \"little\") - half\n"
     "        for i in range(out_len)\n"
     "    ]\n",
     "    return _trim([\n"
     "        int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], \"little\") - half\n"
     "        for i in range(out_len)\n"
     "    ])\n",
     "every caller trims the product (_list_mul's, as above) or folds it "
     "to d coefficients (_cyclic_mul)"),
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
    sources, stale = {}, 0
    for name, old, *_ in MUTANTS + EQUIVALENT:
        if name not in sources:
            with open(os.path.join(ROOT, "src", "qcong", name)) as fh:
                sources[name] = fh.read()
        if sources[name].count(old) != 1:
            print(f"error: old text occurs {sources[name].count(old)} times in {name}: {old!r}")
            stale += 1
    if stale:
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
