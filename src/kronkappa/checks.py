"""The check table: every verification the package reports, each written once.

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
from functools import cached_property
from random import Random

from ._kernels import _reach
from .connectivity import brute_force_kappa, is_separator, kappa
from .formula import (FormulaResult, build_quotient, formula_kappa_product, sample_separator,
                      witness_vertices)
from .graphio import parse_graph6, write_graph6
from .graphs import (
    Graph,
    connected_components,
    delete_vertex,
    min_degree,
    odd_cycle_status,
)
from .products import complete_graph, direct_product
from .reports import VerificationReport, elapsed_ms_since, verdict_of

ORACLES = ("brute", "flow", "both")


class InstanceFacts:
    """One instance's facts: the factor G with its graph6 record, kappa(G),
    delta(G) and bipartiteness, and a second factor H, which is K_n unless
    given. The product G x H and the closed form are computed on first use and
    kept, so the checks of one instance share them. A G on two or more vertices is connected exactly
    when kappa(G) > 0.
    """

    def __init__(self, g: Graph, n: int | None = None, h: Graph | None = None):
        self.g = g
        self.n = n
        self.h = complete_graph(n) if h is None else h
        self.graph6 = write_graph6(g)
        self.kappa_g = kappa(g)
        self.delta_g = min_degree(g)
        self.bipartite = odd_cycle_status(g).is_bipartite

    @cached_property
    def product(self) -> Graph:
        return direct_product(self.g, self.h).graph

    @cached_property
    def closed_form(self) -> FormulaResult:
        return formula_kappa_product(self.kappa_g, self.delta_g, self.n)


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
    some_odd_cycle = not f.bipartite or not odd_cycle_status(f.h).is_bipartite
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


def _quotient_connected(f: InstanceFacts, S):
    """Below the closed-form bound, the layer quotient must stay connected."""
    quotient = build_quotient(f.g, f.n, S, kappa_g=f.kappa_g)
    components = len(connected_components(quotient.graph))
    return {"quotient_components": components, "connected": components == 1}, components == 1


def _layer_in_component(f: InstanceFacts, S):
    """Below the bound, each layer remainder must land in one component of
    the punctured product (so S cannot split any single layer across parts)."""
    quotient = build_quotient(f.g, f.n, S, kappa_g=f.kappa_g)
    # build_quotient has checked that S leaves each layer nonempty
    remainders = [sum(1 << v for v in rem) for rem in quotient.remainders]
    kept = sum(remainders)  # the layers are disjoint
    rows = f.product._adj
    component = 0  # the component reached last
    all_within = True
    for remainder in remainders:
        if not remainder & component:
            component = _reach(rows, remainder & -remainder, kept)
        if remainder & ~component:
            all_within = False
            break
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
    of ``separator_samples`` candidate separators drawn from Random(seed)."""
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
            chosen = sample_separator(f.g, f.n, rng, kappa_g=f.kappa_g)
            with_s = {**base, "S": sorted(chosen), "seed": seed}
            yield run_check("quotient_connected", f, with_s, S=chosen)
            yield run_check("layer_in_component", f, dict(with_s), S=chosen)


#: inputs ``rerun_check`` needs besides the two factors: n where a check reads
#: the closed form or the layer size, and the quotient checks' separator S
_RERUN_INPUTS = {"theorem_equality": ("n",), "witness_soundness": ("n",),
                 "complete_product": ("n",), "quotient_connected": ("n", "S"),
                 "layer_in_component": ("n", "S")}


def rerun_check(report: VerificationReport) -> str:
    """Recompute a report's verdict from its serialised inputs alone: parse the
    instance back from ``inputs`` (and a theorem report's oracles from its
    ``kappa_*`` fields), then run the check's table entry on fresh facts.
    Raises ValueError for a check_name the table does not have, or inputs
    that lack what the check reads.
    """
    check = CHECKS.get(report.check_name)
    if check is None:
        raise ValueError(f"cannot rerun unknown check {report.check_name!r}")
    ins = report.inputs
    needed = ["m" if "m" in ins else "graph6", "graph6_h" if "graph6_h" in ins else "n",
              *_RERUN_INPUTS.get(report.check_name, ())]
    missing = [key for key in needed if ins.get(key) is None]
    if missing:
        raise ValueError(f"cannot rerun {report.check_name!r}: its inputs lack {missing[0]!r}")
    g = complete_graph(ins["m"]) if "m" in ins else parse_graph6(ins["graph6"])
    h = parse_graph6(ins["graph6_h"]) if "graph6_h" in ins else None
    params = {"S": ins["S"]} if "S" in ins else {}
    oracles = [o for o in ("flow", "brute") if f"kappa_{o}" in report.computed]
    if oracles:
        params["oracle"] = "both" if len(oracles) == 2 else oracles[0]
    _, ok = check(InstanceFacts(g, ins.get("n"), h), **params)
    return verdict_of(ok)


def check_weichsel(g: Graph, h: Graph) -> VerificationReport:
    """The ``weichsel_iff`` check on G x H."""
    facts = InstanceFacts(g, h=h)
    return run_check("weichsel_iff", facts,
                     {"graph6": facts.graph6, "graph6_h": write_graph6(h)})


def check_degree_product(g: Graph, h: Graph) -> VerificationReport:
    """The ``degree_product`` check on G x H."""
    facts = InstanceFacts(g, h=h)
    return run_check("degree_product", facts,
                     {"graph6": facts.graph6, "graph6_h": write_graph6(h)})


def check_quotient_connected(g: Graph, n: int, removed) -> VerificationReport:
    """The ``quotient_connected`` check on G x K_n minus ``removed``."""
    return _check_sampled("quotient_connected", g, n, removed)


def check_layer_in_component(g: Graph, n: int, removed) -> VerificationReport:
    """The ``layer_in_component`` check on G x K_n minus ``removed``."""
    return _check_sampled("layer_in_component", g, n, removed)


def _check_sampled(name: str, g: Graph, n: int, removed) -> VerificationReport:
    facts = InstanceFacts(g, n)
    removed = frozenset(removed)
    return run_check(name, facts, {"graph6": facts.graph6, "n": n, "S": sorted(removed)},
                     S=removed)


def check_complete_product(m: int, n: int) -> VerificationReport:
    """The ``complete_product`` check on K_m x K_n."""
    return run_check("complete_product", InstanceFacts(complete_graph(m), n), {"m": m, "n": n})
