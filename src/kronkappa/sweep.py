"""Verification sweeps over graph families.

A sweep walks a family of factors G (exhaustive over all labelled graphs up to
a size cap, or seeded random samples), and for every G and every requested n
runs the whole battery: closed form vs oracle connectivity, witness soundness,
the product connectedness criterion, the minimum-degree identity, deletion
monotonicity, and the two quotient checks on a sampled candidate separator.
Reports serialise to JSON lines; reruns with the same config are byte-identical
because timings are zeroed on the wire by default.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from random import Random

from .connectivity import brute_force_kappa, is_separator, kappa
from .formula import (
    check_layer_in_component,
    check_quotient_connected,
    formula_kappa_product,
    sample_separator,
    witness_cut,
)
from .generators import all_labeled_graphs, random_graph
from .graphio import parse_graph6, write_graph6
from .graphs import Graph, connected_components, delete_vertex, min_degree
from .products import check_degree_product, check_weichsel, complete_graph, direct_product
from .reports import VerificationReport, elapsed_ms_since, verdict_of

MODES = ("exhaustive", "random")
ORACLES = ("brute", "flow", "both")

#: exhaustive mode enumerates 2^C(m,2) graphs per size; 7 is the ceiling
EXHAUSTIVE_VERTEX_CAP = 7

_MASK64 = (1 << 64) - 1
_GRAPH_DRAW_SALT = 0x9E2E_7015_8C8F_B52D


def instance_seed(seed: int, index: int) -> int:
    """splitmix64-style mix of (seed, index); stable across processes, unlike
    Python's salted hash()."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters.

    mode "exhaustive": every labelled graph on 1..max_vertices vertices.
    mode "random": sample_count draws of G(max_vertices, edge_probability).
    oracle picks what the closed form is compared against.
    """

    max_vertices: int
    n_values: tuple[int, ...]
    mode: str
    sample_count: int = 100
    seed: int = 0
    oracle: str = "flow"
    edge_probability: float = 0.5

    def __post_init__(self):
        # configs arrive as parsed JSON, so types are checked before values
        if not isinstance(self.n_values, (list, tuple)):
            raise ValueError(f"n_values must be a list of integers, got {self.n_values!r}")
        for name, value in [("max_vertices", self.max_vertices),
                            ("sample_count", self.sample_count), ("seed", self.seed),
                            *(("n_values entry", n) for n in self.n_values)]:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if (not isinstance(self.edge_probability, (int, float))
                or isinstance(self.edge_probability, bool)):
            raise ValueError(
                f"edge_probability must be a number, got {self.edge_probability!r}")
        object.__setattr__(self, "n_values", tuple(self.n_values))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.oracle not in ORACLES:
            raise ValueError(f"oracle must be one of {ORACLES}, got {self.oracle!r}")
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be at least 1")
        if self.mode == "exhaustive" and self.max_vertices > EXHAUSTIVE_VERTEX_CAP:
            raise ValueError(
                f"exhaustive sweeps are capped at {EXHAUSTIVE_VERTEX_CAP} vertices")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        for n in self.n_values:
            if n < 3:
                raise ValueError(f"sweep n values must be at least 3, got {n}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError("edge_probability must lie in [0, 1]")

    @classmethod
    def from_mapping(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ValueError(f"sweep config must be a JSON object, got {data!r}")
        known = {"max_vertices", "n_values", "mode", "sample_count",
                 "seed", "oracle", "edge_probability"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        missing = {"max_vertices", "n_values", "mode"} - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "SweepConfig":
        with open(path) as handle:
            return cls.from_mapping(json.load(handle))


def _sweep_graphs(config: SweepConfig):
    if config.mode == "exhaustive":
        yield from all_labeled_graphs(config.max_vertices)
    else:
        for i in range(config.sample_count):
            yield random_graph(config.max_vertices, config.edge_probability,
                               instance_seed(config.seed ^ _GRAPH_DRAW_SALT, i))


def run_sweep(config: SweepConfig) -> list[VerificationReport]:
    """All reports for the configured family, in deterministic order."""
    reports = []
    index = 0
    for g in _sweep_graphs(config):
        for n in config.n_values:
            reports.extend(instance_checks(g, n, oracle=config.oracle,
                                           seed=instance_seed(config.seed, index)))
            index += 1
    return reports


def theorem_checks(g: Graph, n: int, *, oracle: str = "flow") -> list[VerificationReport]:
    """Closed form vs measured connectivity, plus witness soundness where a
    witness is defined (connected factor on >= 2 vertices)."""
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {ORACLES}, got {oracle!r}")
    out = []
    base = {"graph6": write_graph6(g), "n": n}
    product = direct_product(g, complete_graph(n)).graph

    t0 = time.perf_counter()
    formula_value = formula_kappa_product(kappa(g), min_degree(g), n).value
    computed = {"formula_value": formula_value}
    ok = True
    if oracle in ("flow", "both"):
        computed["kappa_flow"] = kappa(product)
        ok = ok and computed["kappa_flow"] == formula_value
    if oracle in ("brute", "both"):
        computed["kappa_brute"] = brute_force_kappa(product, cap=product.vertex_count)
        ok = ok and computed["kappa_brute"] == formula_value
    computed["agree"] = ok
    out.append(VerificationReport("theorem_equality", dict(base), computed,
                                  verdict_of(ok), elapsed_ms_since(t0)))

    if g.vertex_count >= 2 and len(connected_components(g)) == 1:
        t0 = time.perf_counter()
        witness = witness_cut(g, n)
        separates = is_separator(product, witness.vertices)
        sound = len(witness.vertices) == formula_value and separates
        computed = {
            "witness_size": len(witness.vertices),
            "formula_value": formula_value,
            "separates": separates,
            "agree": sound,
        }
        out.append(VerificationReport("witness_soundness", dict(base), computed,
                                      verdict_of(sound), elapsed_ms_since(t0)))
    return out


def lemma_checks(g: Graph, n: int, *, seed: int = 0,
                 separator_samples: int = 1) -> list[VerificationReport]:
    """Supporting-fact battery: product connectedness criterion, minimum
    degree identity, deletion monotonicity, and (for connected factors with
    n >= 3) quotient checks on ``separator_samples`` sampled candidate
    separators drawn from Random(seed)."""
    out = []
    m = g.vertex_count
    g6 = write_graph6(g)
    base = {"graph6": g6, "n": n}
    k_n = complete_graph(n)

    if m >= 2:
        out.append(replace(check_weichsel(g, k_n), inputs=dict(base)))
    out.append(replace(check_degree_product(g, k_n), inputs=dict(base)))

    if m >= 2:
        t0 = time.perf_counter()
        kappa_g = kappa(g)
        delta_g = min_degree(g)
        holds = True
        for u in range(m):
            smaller, _ = delete_vertex(g, u)
            if min_degree(smaller) < delta_g - 1 or kappa(smaller) < kappa_g - 1:
                holds = False
                break
        computed = {"kappa_g": kappa_g, "delta_g": delta_g, "all_hold": holds}
        out.append(VerificationReport("deletion_monotonicity", dict(base), computed,
                                      verdict_of(holds), elapsed_ms_since(t0)))

    if separator_samples > 0 and n >= 3 and kappa(g) > 0:
        rng = Random(seed)
        for _ in range(separator_samples):
            chosen = sample_separator(g, n, rng)
            with_s = {"graph6": g6, "n": n, "S": sorted(chosen), "seed": seed}
            out.append(replace(check_quotient_connected(g, n, chosen), inputs=with_s))
            out.append(replace(check_layer_in_component(g, n, chosen), inputs=with_s))
    return out


def instance_checks(g: Graph, n: int, *, oracle: str = "flow",
                    seed: int = 0) -> list[VerificationReport]:
    """The full battery for one factor and one complete-factor size."""
    return (theorem_checks(g, n, oracle=oracle)
            + lemma_checks(g, n, seed=seed, separator_samples=1))


def rerun_check(report: VerificationReport) -> str:
    """Recompute a report's verdict from its serialised inputs alone.

    Supports every check_name the sweep battery emits; raises ValueError for
    anything else.
    """
    name = report.check_name
    ins = report.inputs

    if name == "theorem_equality":
        g = parse_graph6(ins["graph6"])
        n = ins["n"]
        value = formula_kappa_product(kappa(g), min_degree(g), n).value
        product = direct_product(g, complete_graph(n)).graph
        ok = True
        if "kappa_flow" in report.computed:
            ok = ok and kappa(product) == value
        if "kappa_brute" in report.computed:
            ok = ok and brute_force_kappa(product, cap=product.vertex_count) == value
        if not ("kappa_flow" in report.computed or "kappa_brute" in report.computed):
            ok = kappa(product) == value
        return verdict_of(ok)
    if name == "witness_soundness":
        g = parse_graph6(ins["graph6"])
        n = ins["n"]
        value = formula_kappa_product(kappa(g), min_degree(g), n).value
        witness = witness_cut(g, n)
        product = direct_product(g, complete_graph(n)).graph
        return verdict_of(len(witness.vertices) == value
                          and is_separator(product, witness.vertices))
    if name == "weichsel_iff":
        g = parse_graph6(ins["graph6"])
        h = parse_graph6(ins["graph6_h"]) if "graph6_h" in ins else complete_graph(ins["n"])
        return check_weichsel(g, h).verdict
    if name == "degree_product":
        g = parse_graph6(ins["graph6"])
        h = parse_graph6(ins["graph6_h"]) if "graph6_h" in ins else complete_graph(ins["n"])
        return check_degree_product(g, h).verdict
    if name == "deletion_monotonicity":
        g = parse_graph6(ins["graph6"])
        kappa_g = kappa(g)
        delta_g = min_degree(g)
        for u in range(g.vertex_count):
            smaller, _ = delete_vertex(g, u)
            if min_degree(smaller) < delta_g - 1 or kappa(smaller) < kappa_g - 1:
                return "fail"
        return "pass"
    if name == "quotient_connected":
        g = parse_graph6(ins["graph6"])
        return check_quotient_connected(g, ins["n"], ins["S"]).verdict
    if name == "layer_in_component":
        g = parse_graph6(ins["graph6"])
        return check_layer_in_component(g, ins["n"], ins["S"]).verdict
    raise ValueError(f"cannot rerun unknown check {name!r}")
