"""Span tracing for one traced scan, installed from outside the package.

Every span is a wrapper around one qcong function.  A span records its
calls and its self time: its duration minus the durations of the spans
it caused.  The self times of all spans therefore add up to the summed
duration of the outermost spans, and the benchmark reports whatever is
left of the scan's wall time as ``unattributed_s``.

A function is wrapped in every namespace that holds it, not only in
its defining module: ``sums`` imports ``_list_mul``,
``_int_divmod_unit_lead``, ``_product_of_binomials``, ``_fold_list`` and
``_poly_inverse_mod`` from ``qring`` by name, ``congruence`` imports the
sum builders, and patching only the defining module would miss those
calls.  ``sums._central`` is an lru_cache built around
``bigmath.central_binomial`` at import time; its cache hits stay in the
self time of ``sums.conv_sums``.
"""

from __future__ import annotations

import sys
import time

MODULES = ("cli", "congruence", "sums", "qring", "closedform", "bigmath")


def _nnz(cs) -> int:
    return len(cs) - cs.count(0)


def _list_mul_ops(stat, args):
    a, b = args
    stat["ops"] += _nnz(a) * _nnz(b)
    return args


def _int_divmod_ops(stat, args):
    a, b = args
    steps = len(a) - (len(b) - 1)
    if steps > 0:
        stat["ops"] += steps * _nnz(b)
    return args


def _product_of_binomials_ops(stat, args):
    # the factors may arrive as a generator; hand the wrapped call a list
    factors = list(args[0])
    length = 1
    for _, m in factors:
        stat["ops"] += length
        length += m
    return (factors,)


def _coeffs(x) -> tuple:
    return x.coeffs if hasattr(x, "coeffs") else ((x,) if x else ())


def _divrem_fraction_calls(stat, args):
    # the calls that take divrem's Fraction branch rather than the integer kernel
    a, b = map(_coeffs, args)
    if b and len(a) >= len(b) and (
        b[-1] not in (1, -1) or set(map(type, a + b)) != {int}
    ):
        stat["fraction_calls"] += 1
    return args


# span name -> (functions as "module.attr" or "module.Class.attr", counter hook)
SPANS = {
    "cli.main": (("cli.main",), None),
    "cli.instance": (("cli._congruence_instance", "cli._identity_instance"), None),
    "cli.render": (("cli._render",), None),
    **{
        f"congruence.check_eq{i}": ((f"congruence.check_eq{i}",), None)
        for i in range(1, 9)
    },
    "sums.reduced_term": (("sums._reduced_term",), None),
    "sums.folded_terms": (("sums._folded_terms",), None),
    "sums.folded_assemble": (
        ("sums.folded_single_sum_residue", "sums.folded_double_sum_residue"), None),
    "sums.assembled_numerators": (("sums._assembled_numerators",), None),
    "sums.q_sum": (("sums.q_single_sum", "sums.q_double_sum"), None),
    "sums.reduce_over_binomials": (("sums._reduce_over_binomials",), None),
    "sums.double_sum": (("sums.double_sum",), None),
    "sums.conv_sums": (
        ("sums.inner_conv_sum", "sums.plain_conv_sum", "sums.weighted_conv_sum"), None),
    "qring.list_mul": (("qring._list_mul",), _list_mul_ops),
    "qring.intpoly_mul": (("qring._intpoly_mul",), None),
    "qring.int_divmod": (("qring._int_divmod_unit_lead",), _int_divmod_ops),
    "qring.product_of_binomials": (("qring._product_of_binomials",), _product_of_binomials_ops),
    "qring.fold": (("qring._fold_list", "qring.fold_mod_qn_minus_1"), None),
    "qring.poly_inverse_mod": (("qring._poly_inverse_mod",), None),
    "qring.poly_gcd": (("qring.poly_gcd",), None),
    "qring.divrem": (("qring.divrem",), _divrem_fraction_calls),
    "qring.qrat": (("qring.QRat.__init__",), None),
    "qring.verdict": (("qring.congruent_zero_mod_qint",), None),
    "qring.cyclotomic": (("qring.cyclotomic",), None),
    "closedform.qrat": (
        ("closedform.closed_form", "closedform.closed_form_numerator",
         "closedform.geometric_S", "closedform.geometric_T"), None),
    "closedform.special": (
        ("closedform.special_q_neg_half", "closedform.special_q_one"), None),
    "closedform.direct": (
        ("closedform.reduced_double_sum_poly", "closedform.geometric_S_direct",
         "closedform.geometric_T_direct"), None),
    "bigmath.rational_mod": (("bigmath.rational_mod",), None),
    "bigmath.primes": (("bigmath.is_odd_prime", "bigmath.odd_primes_up_to"), None),
}

# extra exact counters a span carries besides its calls
COUNTERS = {
    "qring.list_mul": ("ops",),
    "qring.int_divmod": ("ops",),
    "qring.product_of_binomials": ("ops",),
    "qring.divrem": ("fraction_calls",),
}


class Tracer:
    """Call counts and self times of the spans in SPANS, for one process."""

    def __init__(self):
        self.stats = {
            name: {"calls": 0, "s": 0.0, **{c: 0 for c in COUNTERS.get(name, ())}}
            for name in SPANS
        }
        # child-time accumulators of the open spans; [0] sums the outermost spans
        self._stack = [0.0]

    @property
    def outermost_s(self) -> float:
        return self._stack[0]

    def wrap(self, name: str, fn, hook):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                if hook is not None:
                    args = hook(stat, args)
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stack[-1] += dur
                stat["calls"] += 1
                stat["s"] += dur - child

        return traced

    def install(self) -> dict[str, list[str]]:
        """Wrap every SPANS function in every qcong namespace that binds it.

        Returns, per span, the bindings replaced.  Raises RuntimeError if
        a function is bound in no namespace, which means SPANS is stale.
        """
        spaces = _namespaces()
        patched: dict[str, list[str]] = {}
        for name, (targets, hook) in SPANS.items():
            for target in targets:
                original = _resolve(target)
                wrapper = self.wrap(name, original, hook)
                hits = []
                for label, ns in spaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            hits.append(f"{label}.{attr}")
                if not hits:
                    raise RuntimeError(f"{target} is bound in no qcong namespace")
                patched.setdefault(name, []).extend(hits)
        return patched


def _namespaces() -> list[tuple[str, object]]:
    """Every qcong module and every class defined in one."""
    spaces: list[tuple[str, object]] = []
    for modname, mod in sorted(sys.modules.items()):
        if modname == "qcong" or modname.startswith("qcong."):
            spaces.append((modname, mod))
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == modname:
                    spaces.append((f"{modname}.{attr}", value))
    return spaces


def _resolve(target: str):
    module, *path = target.split(".")
    obj: object = sys.modules[f"qcong.{module}"]
    for part in path:
        obj = vars(obj)[part]
    return obj
