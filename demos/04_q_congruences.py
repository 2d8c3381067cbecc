"""q-congruences: partial sums divisible by the q-integer [n].

The q-analogue machinery: [n] = 1 + q + ... + q^(n-1), shifted
factorials (a;q)_k, and two families of rational-function terms

    c(k)  with weight q^(3k^2)  (alternating),
    c'(k) with weight q^(k^2)   (non-alternating),

whose single sums and self-convolution double sums over k < n are
divisible by [n] for every odd n.  "Divisible" for a rational function
means: [n] divides the numerator and is coprime to the denominator of
the reduced form.

Each instance is checked through two independent pipelines:
 - folded: every term is put over one integer common denominator L, a
   product of even-index cyclotomics and so coprime to [n] for odd n,
   and the integer numerators are multiplied in Z[q]/([n]): each product
   is taken modulo q^n - 1 and then reduced modulo [n], valid because
   [n] | q^n - 1;
 - reduced: the sum is taken over the binomial common denominator
   D = sign * prod Phi_d^m_d, and the verdict reads the numerator's
   Phi_d-adic valuations at the d | n: [n] is the squarefree product of
   those Phi_d, so the sum vanishes mod [n] iff Phi_d divides the
   numerator more than m_d times for each of them.  No numerator is
   expanded at full degree: at q = zeta_d (1 + t) each is t^c_k times
   a unit, c_k its binomials 1 - q^m with d | m, and the verdict at d
   is the sum of the units' constant terms over the terms with
   c_k = m_d, built from the binomials in Z[x]/(x^d - 1).
"""

from qcong import (
    c_q_term,
    check_eq1,
    check_eq2,
    check_eq3,
    check_eq4,
    cp_q_term,
    cyclotomic,
    q_integer,
    q_single_sum,
)

print("q-integers factor into cyclotomic polynomials:")
print(f"  [9] = {q_integer(9)}")
print(f"      = ({cyclotomic(3)}) * ({cyclotomic(9)})")

print("\nthe first terms of each family (reduced rational functions):")
for k in (0, 1):
    print(f"  c({k})  = {c_q_term(k)}")
    print(f"  c'({k}) = {cp_q_term(k)}")

print("\nan exact single sum, visibly a multiple of [3]:")
s = q_single_sum(c_q_term, 3)
print(f"  sum of c(k), k<3  =  {s}")

print("\nverifying all four claims for odd n, both pipelines:")
print(" n | single-c | single-c' | double-c | double-c'")
print("---+----------+-----------+----------+----------")
for n in (1, 3, 5, 7, 9):
    row = []
    for check in (check_eq1, check_eq2, check_eq3, check_eq4):
        fast = check(n, method="folded")
        slow = check(n, method="reduced")
        assert fast.holds and slow.holds and fast.holds == slow.holds
        row.append("0 mod [n]")
    print(f"{n:2d} | {row[0]:8s} | {row[1]:9s} | {row[2]:8s} | {row[3]}")

print("\nevery residue vanished and the two pipelines agreed on every instance")
