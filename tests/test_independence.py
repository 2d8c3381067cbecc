"""The folded and reduced q-congruence pipelines stay arithmetically independent.

Their verdicts agree on every instance, and that agreement means something
only while neither pipeline computes with the other's data or with the
oracle it is checked against.  This reads the package source with ast and
builds a call graph.  Every module-level def or assignment is a node, and
its edges are the names inside it, nested defs and lambdas included, that
resolve to a qcong definition, through `from .x import y` and attributes
of `from . import x`; a local name that shadows one counts too, so the
graph errs toward more edges.  For the partition a class is a leaf node,
a value type: its methods are not followed, so the graph does not see
operator dispatch on QPoly (a * b, a + b, str(a)) or QRat.  The source is
read from the imported package, so a mutated copy of the package is the
code checked.  The same graph, with class bodies followed, also shows that
the package holds no module-level name that nothing reaches.
"""

import ast
import os

import qcong

SRC = os.path.dirname(qcong.__file__)

ENTRY_POINTS = {
    "folded": ("folded_single_sum_residue", "folded_double_sum_residue"),
    "reduced": ("reduced_sum_residue",),
    "oracle": ("q_single_sum", "q_double_sum", "congruent_zero_mod_qint"),
}

# the pipelines each name is reached from, for every name any of them reaches
PARTITION = {
    ("folded",): {
        "folded_single_sum_residue", "folded_double_sum_residue", "_folded_terms", "_chain_split",
        "_qint_mul", "_reduced_term",
    },
    ("reduced",): {"reduced_sum_residue", "_reduced_verdict", "_local_images", "EvenN", "ZERO"},
    ("folded", "reduced"): {"_cyclic_mul", "_rotate"},
    ("folded", "oracle"): {"_cyclotomic_multiplicities", "_binomial_cyclotomic_indices"},
    ("reduced", "oracle"): {"_int_divmod_unit_lead"},
    ("folded", "reduced", "oracle"): {
        "_term_binomials", "_common_den_binomials", "_term_sum", "_accumulate", "_divisors", "_trim",
        "_fold_list", "_intpoly_mul", "cyclotomic", "QPoly", "DenominatorNotCoprime",
    },
    ("oracle",): {
        "q_single_sum", "q_double_sum", "_summed_numerator", "_assembled_numerators",
        "_reduce_over_binomials", "_product_of_binomials", "_list_mul", "_all_int",
        "congruent_zero_mod_qint", "fold_mod_qn_minus_1", "q_integer", "divrem", "poly_gcd",
        "_as_qpoly", "ONE", "QRat", "Verdict", "DivisionByZeroPoly", "BothZero",
    },
}


def call_graph(follow_classes: bool = False) -> dict:
    """{node: the nodes named in its body}; a node is a module-level name, unique in the package.

    A class has no edges unless follow_classes, which adds the names in its
    bases and its methods.
    """
    defs = {}  # node -> (its module, its def, or the value assigned to it)
    names, modules = {}, {}  # module -> {local name: node}, {local name: imported module}
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        names[module], modules[module] = {}, {}
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                imported = modules if stmt.module is None else names
                imported[module].update({a.asname or a.name: a.name for a in stmt.names})
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name: stmt}
            elif isinstance(stmt, ast.Assign):
                own = {t.id: stmt.value for target in stmt.targets for t in ast.walk(target)
                       if isinstance(t, ast.Name)}
            else:
                continue
            for name, body in own.items():
                assert name not in defs, f"{name} is defined twice; the graph keys nodes by name"
                defs[name] = module, body
                names[module][name] = name
    graph = {}
    for name, (module, body) in defs.items():
        edges = set()
        for node in ast.walk(body) if follow_classes or not isinstance(body, ast.ClassDef) else []:
            if isinstance(node, ast.Name):
                edges.add(names[module].get(node.id))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules[module]:
                edges.add(node.attr)
        graph[name] = edges & defs.keys()
    return graph


def reach(graph: dict, roots) -> set:
    seen, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(graph[node])
    return seen


def test_pipelines_reach_only_their_own_code_and_the_shared_kernels():
    graph = call_graph()
    # cut: q_single_sum and q_double_sum take a term function, which
    # _family_name only compares with c_q_term and cp_q_term, calling neither
    for oracle_sum in ("q_single_sum", "q_double_sum"):
        graph[oracle_sum].remove("_family_name")
    reached = {pipeline: reach(graph, roots) for pipeline, roots in ENTRY_POINTS.items()}
    found = {}
    for pipeline, names in reached.items():
        for name in names:
            found[name] = found.get(name, ()) + (pipeline,)
    expected = {name: pipelines for pipelines, names in PARTITION.items() for name in names}
    assert found == expected


def test_q_claims_reach_no_term_function():
    # the claims name a family; the QRat terms are the oracle's and the public API's
    graph = call_graph()
    claims = reach(graph, [f"check_eq{i}" for i in range(1, 5)])
    assert not claims & {"c_q_term", "cp_q_term", "_term_qrat"}
    assert claims >= set(ENTRY_POINTS["folded"] + ENTRY_POINTS["reduced"])


# module-level names that neither the public API nor the CLI reaches, each with its reason
UNREACHED = {
    "__version__": "package metadata, read by no code",
    "_poly_inverse_mod": "no caller in the package; only the benchmark tracer's spans keep it",
}


def test_every_module_level_name_is_reached_from_the_api_or_the_cli():
    graph = call_graph(follow_classes=True)
    exported = {name for name in vars(qcong) if name in graph} - UNREACHED.keys()
    unreached = graph.keys() - reach(graph, exported | {"main"})
    assert unreached == UNREACHED.keys()
