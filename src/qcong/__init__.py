"""Exact-arithmetic verification of central binomial convolution identities,
the supercongruences they imply at odd primes, and the q-congruences they
come from.

Everything is computed over exact integers, rationals, and polynomials;
no check in this package involves floating point.
"""

from .bigmath import (
    binomial,
    central_binomial,
    is_odd_prime,
    mod_inverse,
    odd_primes_up_to,
    rational_mod,
)
from .closedform import (
    closed_form,
    closed_form_numerator,
    geometric_S,
    geometric_S_direct,
    geometric_T,
    geometric_T_direct,
    reduced_double_sum_poly,
    special_q_neg_half,
    special_q_one,
)
from .congruence import (
    CongruenceReport,
    check_eq1,
    check_eq2,
    check_eq3,
    check_eq4,
    check_eq5,
    check_eq6,
    check_eq7,
    check_eq8,
)
from .errors import (
    BothZero,
    DenominatorNotCoprime,
    DivisionByZeroPoly,
    EvenN,
    NotInvertible,
    NotOddPrime,
)
from .qring import (
    QPoly,
    QRat,
    Verdict,
    congruent_zero_mod_qint,
    cyclotomic,
    divrem,
    fold_mod_qn_minus_1,
    poly_gcd,
    q_integer,
    q_pochhammer,
)
from .sums import (
    c_q_term,
    cp_q_term,
    double_sum,
    folded_double_sum_residue,
    folded_single_sum_residue,
    inner_closed,
    inner_conv_sum,
    plain_conv_sum,
    q_double_sum,
    q_single_sum,
    weighted_conv_sum,
)

__version__ = "0.1.0"
