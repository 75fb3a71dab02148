"""The check table: every verification the package reports on G x K_n, each written once.

``CHECKS`` maps a check_name to ``fn(facts, **params) -> (computed, ok)``:
``facts`` is the instance's ``InstanceFacts``, ``computed`` holds only
integers and booleans, and ``ok`` decides the verdict. The sweep, the
``verify-*`` commands, the public ``check_*`` functions and ``rerun_check``
all reach a check through this table. Measured values come from flows or
subset enumeration, never from the closed form they are compared with.
``theorem_battery`` and ``lemma_battery`` decide which checks run on an
instance; each condition for running one is written there and nowhere else.
"""

from __future__ import annotations

import time
from random import Random

from ._kernels import _reach
from .connectivity import brute_force_kappa, is_separator, kappa
from .formula import InstanceFacts, witness_vertices
from .graphio import parse_graph6
from .graphs import Graph, connected_components, delete_vertex, min_degree, odd_cycle_status
from .products import complete_graph
from .reports import VerificationReport, elapsed_ms_since, verdict_of

ORACLES = ("brute", "flow", "both")


def _theorem_equality(f: InstanceFacts, oracle: str = "flow"):
    """The closed form against kappa(G x K_n) measured by the chosen oracles."""
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {ORACLES}, got {oracle!r}")
    value = f.closed_form.value
    computed = {"formula_value": value}
    if oracle in ("flow", "both"):
        computed["kappa_flow"] = kappa(f.product)
    if oracle in ("brute", "both"):
        computed["kappa_brute"] = brute_force_kappa(f.product)
    computed["agree"] = all(computed.get(key, value) == value
                            for key in ("kappa_flow", "kappa_brute"))
    return computed, computed["agree"]


def _witness_soundness(f: InstanceFacts):
    """The closed form's witness has the closed-form size and separates G x K_n."""
    chosen, _ = witness_vertices(f.g, f.closed_form)
    separates = is_separator(f.product, chosen)
    sound = len(chosen) == f.closed_form.value and separates
    return {"witness_size": len(chosen), "formula_value": f.closed_form.value,
            "separates": separates, "agree": sound}, sound


def _weichsel_iff(f: InstanceFacts):
    """Connectedness criterion for direct products, checked both ways: the
    product of two nontrivial factors is connected iff both factors are
    connected and at least one contains an odd cycle."""
    if f.g.vertex_count < 2 or f.h.vertex_count < 2:
        raise ValueError("criterion needs nontrivial factors (two or more vertices each)")
    product_connected = len(connected_components(f.product)) == 1
    factors_connected = f.kappa_g > 0 and len(connected_components(f.h)) == 1
    some_odd_cycle = not all(odd_cycle_status(x).is_bipartite for x in (f.g, f.h))
    predicted = factors_connected and some_odd_cycle
    computed = {
        "product_connected": product_connected,
        "factors_connected": factors_connected,
        "odd_cycle_in_some_factor": some_odd_cycle,
        "predicted_connected": predicted,
        "agree": predicted == product_connected,
    }
    return computed, computed["agree"]


def _degree_product(f: InstanceFacts):
    """Minimum degree of the product vs the product of minimum degrees."""
    delta_h = min_degree(f.h)
    delta_product = min_degree(f.product)
    agree = delta_product == f.delta_g * delta_h
    return {"delta_product": delta_product, "delta_g": f.delta_g,
            "delta_h": delta_h, "agree": agree}, agree


def _deletion_monotonicity(f: InstanceFacts):
    """delta(G - u) >= delta(G) - 1 and kappa(G - u) >= kappa(G) - 1 for
    every vertex u."""
    smaller_graphs = (delete_vertex(f.g, u)[0] for u in range(f.g.vertex_count))
    holds = all(min_degree(smaller) >= f.delta_g - 1 and kappa(smaller) >= f.kappa_g - 1
                for smaller in smaller_graphs)
    return {"kappa_g": f.kappa_g, "delta_g": f.delta_g, "all_hold": holds}, holds


def _quotient_connected(f: InstanceFacts, quotient):
    """Below the closed-form bound, the layer quotient must stay connected."""
    components = len(connected_components(quotient.graph))
    return {"quotient_components": components, "connected": components == 1}, components == 1


def _layer_in_component(f: InstanceFacts, quotient):
    """Below the bound, each layer remainder must land in one component of
    the punctured product (so S cannot split any single layer across parts)."""
    # the quotient has checked that S leaves each layer nonempty
    remainders = [sum(1 << v for v in rem) for rem in quotient.remainders]
    kept = sum(remainders)  # the layers are disjoint
    rows = f.product._adj
    # a remainder lies in one component when the reach from its lowest vertex,
    # inside the kept vertices, covers it
    all_within = all(not rem & ~_reach(rows, rem & -rem, kept) for rem in remainders)
    return {"layers": len(remainders), "all_in_one_component": all_within}, all_within


def _complete_product(f: InstanceFacts):
    """kappa(K_m x K_n) against (m-1)(n-1), measured and closed-form; G is K_m."""
    m = f.g.vertex_count
    if not 2 <= m <= f.n:
        raise ValueError("complete-product check needs 2 <= m <= n")
    formula_value = f.closed_form.value
    measured = kappa(f.product)
    expected = (m - 1) * (f.n - 1)
    agree = measured == expected == formula_value
    return {"kappa_product": measured, "closed_form": expected,
            "formula_value": formula_value, "agree": agree}, agree


def _direct_kappa(f: InstanceFacts):
    """kappa(G x K_n) measured without the closed form (n = 2 allowed); it
    always passes."""
    return {"kappa_product": kappa(f.product)}, True


CHECKS = {
    "theorem_equality": _theorem_equality,
    "witness_soundness": _witness_soundness,
    "weichsel_iff": _weichsel_iff,
    "degree_product": _degree_product,
    "deletion_monotonicity": _deletion_monotonicity,
    "quotient_connected": _quotient_connected,
    "layer_in_component": _layer_in_component,
    "complete_product": _complete_product,
    "direct_kappa": _direct_kappa,
}


def run_check(name: str, facts: InstanceFacts, inputs: dict, **params) -> VerificationReport:
    """Run the table entry ``name`` on ``facts`` and report it under ``inputs``."""
    t0 = time.perf_counter()
    computed, ok = CHECKS[name](facts, **params)
    return VerificationReport(name, inputs, computed, verdict_of(ok), elapsed_ms_since(t0))


def theorem_battery(f: InstanceFacts, oracle: str = "flow"):
    """The closed form against G x K_n's measured connectivity, then the
    closed form's witness when G is connected; below n = 3, where the closed
    form does not apply, the single measured ``direct_kappa`` record."""
    base = {"graph6": f.graph6, "n": f.n}
    if f.n < 3:
        yield run_check("direct_kappa", f, base)
        return
    yield run_check("theorem_equality", f, dict(base), oracle=oracle)
    if f.kappa_g > 0:  # so G has two or more vertices
        yield run_check("witness_soundness", f, dict(base))


def lemma_battery(f: InstanceFacts, seed: int = 0, separator_samples: int = 1):
    """The supporting facts: the connectedness criterion and deletion
    monotonicity on a G with two or more vertices, the minimum-degree
    identity, and for connected G with n >= 3 the two quotient checks on each
    of ``separator_samples`` candidate separators drawn from Random(seed),
    both reading the one quotient built for it."""
    base = {"graph6": f.graph6, "n": f.n}
    nontrivial = f.g.vertex_count >= 2
    if nontrivial:
        yield run_check("weichsel_iff", f, dict(base))
    yield run_check("degree_product", f, dict(base))
    if nontrivial:
        yield run_check("deletion_monotonicity", f, dict(base))
    if f.n >= 3 and f.kappa_g > 0:
        rng = Random(seed)
        for _ in range(separator_samples):
            chosen = f.sample_separator(rng)
            with_s = {**base, "S": sorted(chosen), "seed": seed}
            quotient = f.quotient(chosen)
            yield run_check("quotient_connected", f, with_s, quotient=quotient)
            yield run_check("layer_in_component", f, dict(with_s), quotient=quotient)


#: inputs ``rerun_check`` needs besides G and n: the quotient checks' separator S
_RERUN_INPUTS = {"quotient_connected": ("S",), "layer_in_component": ("S",)}


#: the type of each input ``rerun_check`` reads, S holding integers; no bool
#: passes for an integer
_INPUT_TYPES = {"graph6": str, "m": int, "n": int, "S": list}


def _fits(value, kind) -> bool:
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    return kind is not list or all(_fits(v, int) for v in value)


def rerun_check(report: VerificationReport) -> str:
    """Recompute a report's verdict from its serialised inputs alone: parse the
    instance back from ``inputs`` (and a theorem report's oracles from its
    ``kappa_*`` fields), then run the check's table entry on fresh facts.
    Raises ValueError for a check_name the table does not have, and for
    inputs or computed fields that are not objects, lack what the check
    reads or hold it with the wrong type; an n, m or S entry too large for
    the vertex cap or the product's range is refused as the graphs are built.
    """
    name = report.check_name
    check = CHECKS.get(name) if isinstance(name, str) else None
    if check is None:
        raise ValueError(f"cannot rerun unknown check {name!r}")
    ins = report.inputs
    if not isinstance(ins, dict) or not isinstance(report.computed, dict):
        raise ValueError(f"cannot rerun {name!r}: its inputs and computed must be objects")
    needed = ["m" if "m" in ins else "graph6", "n", *_RERUN_INPUTS.get(name, ())]
    missing = [key for key in needed if ins.get(key) is None]
    if missing:
        raise ValueError(f"cannot rerun {name!r}: its inputs lack {missing[0]!r}")
    wrong = [key for key, kind in _INPUT_TYPES.items() if key in ins and not _fits(ins[key], kind)]
    if wrong:
        raise ValueError(f"cannot rerun {name!r}: input {wrong[0]!r} has the wrong type")
    g = complete_graph(ins["m"]) if "m" in ins else parse_graph6(ins["graph6"])
    facts = InstanceFacts(g, ins["n"])
    params = {"quotient": facts.quotient(ins["S"])} if "S" in _RERUN_INPUTS.get(name, ()) else {}
    oracles = [o for o in ("flow", "brute") if f"kappa_{o}" in report.computed]
    if oracles:
        params["oracle"] = "both" if len(oracles) == 2 else oracles[0]
    _, ok = check(facts, **params)
    return verdict_of(ok)


def check_quotient_connected(g: Graph, n: int, removed) -> VerificationReport:
    """The ``quotient_connected`` check on G x K_n minus ``removed``."""
    return _check_sampled("quotient_connected", g, n, removed)


def check_layer_in_component(g: Graph, n: int, removed) -> VerificationReport:
    """The ``layer_in_component`` check on G x K_n minus ``removed``."""
    return _check_sampled("layer_in_component", g, n, removed)


def _check_sampled(name: str, g: Graph, n: int, removed) -> VerificationReport:
    facts = InstanceFacts(g, n)
    quotient = facts.quotient(removed)
    return run_check(name, facts, {"graph6": facts.graph6, "n": n,
                                   "S": sorted(quotient.removed)}, quotient=quotient)


def check_complete_product(m: int, n: int) -> VerificationReport:
    """The ``complete_product`` check on K_m x K_n."""
    return run_check("complete_product", InstanceFacts(complete_graph(m), n), {"m": m, "n": n})
