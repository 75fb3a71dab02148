"""Checks of the program's outputs against networkx, which shares no code
with it.

Each check returns a Tally over the operations (instances) it saw: a failed
operation either raised inside the program or gave a wrong output, and only
the second kind makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import networkx as nx


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, verdict: str) -> None:
        """verdict is "ok", "error" (the program raised) or "wrong"."""
        self.attempted += 1
        if verdict != "ok":
            self.failed += 1
        if verdict == "wrong":
            self.wrong += 1


def factor_graph(m: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(m))
    g.add_edges_from(edges)
    return g


def closed_form(g: nx.Graph, n: int) -> int:
    """min(n * kappa(G), (n - 1) * delta(G)) with networkx's kappa."""
    delta = min(d for _, d in g.degree())
    return min(n * nx.node_connectivity(g), (n - 1) * delta)


def separates(product: nx.Graph, n: int, vertices) -> bool:
    """Whether removing the program's product labels i*n + j leaves a
    disconnected graph or a single vertex."""
    nodes = {divmod(v, n) for v in vertices}
    if len(nodes) != len(vertices) or not nodes <= set(product):
        return False
    rest = product.subgraph(set(product) - nodes)
    if rest.number_of_nodes() == 1:
        return True
    return rest.number_of_nodes() > 1 and not nx.is_connected(rest)


def _tally_rounds(rounds, judge) -> Tally:
    """Apply ``judge(index, output)`` to every output of every round, judging
    each distinct (instance, output) pair once."""
    tally = Tally()
    seen = {}
    for outputs in rounds:
        for index, out in enumerate(outputs):
            key = (index, json.dumps(out, sort_keys=True))
            if key not in seen:
                seen[key] = ("error" if isinstance(out, dict) and "error" in out
                             else _judge_safely(judge, index, out))
            tally.add(seen[key])
    return tally


def _judge_safely(judge, index, out) -> str:
    # an output of the wrong shape is a wrong output, not a checker crash
    try:
        return judge(index, out)
    except (KeyError, TypeError, ValueError):
        return "wrong"


def check_product_kappa(cases, rounds) -> Tally:
    """Each output must be networkx's connectivity of its own G x K_n."""
    expected = [nx.node_connectivity(nx.tensor_product(
        factor_graph(c["m"], c["edges"]), nx.complete_graph(c["n"]))) for c in cases]
    return _tally_rounds(rounds, lambda i, out: "ok" if out == expected[i] else "wrong")


def check_witness(cases, rounds) -> Tally:
    """The direct cut must have networkx's product connectivity as its size,
    the witness the closed form's value, and both must separate the product."""
    products, kappas, values = [], [], []
    for c in cases:
        g = factor_graph(c["m"], c["edges"])
        product = nx.tensor_product(g, nx.complete_graph(c["n"]))
        products.append(product)
        kappas.append(nx.node_connectivity(product))
        values.append(closed_form(g, c["n"]))

    def judge(i, out):
        n = cases[i]["n"]
        ok = (len(out["direct"]) == kappas[i] and separates(products[i], n, out["direct"])
              and len(out["witness"]) == values[i]
              and separates(products[i], n, out["witness"]))
        return "ok" if ok else "wrong"
    return _tally_rounds(rounds, judge)


def labelled_graphs(max_vertices: int):
    """Every labelled graph on 1..max_vertices vertices as a networkx graph."""
    for m in range(1, max_vertices + 1):
        pairs = list(combinations(range(m), 2))
        for subset in range(1 << len(pairs)):
            yield factor_graph(m, [p for bit, p in enumerate(pairs) if subset >> bit & 1])


def sweep_expectations(max_vertices: int, n: int) -> dict[str, int]:
    """graph6 of every labelled factor -> closed-form value of its product."""
    return {nx.to_graph6_bytes(g, header=False).decode().strip(): closed_form(g, n)
            for g in labelled_graphs(max_vertices)}


def _sweep_verdicts(stdout: str, expected: dict[str, int]) -> list[str]:
    """One verdict per expected factor for one round's stdout."""
    try:
        return _parsed_sweep_verdicts(stdout, expected)
    except (KeyError, TypeError, ValueError, StopIteration):
        return ["wrong"] * len(expected)


def _parsed_sweep_verdicts(stdout: str, expected: dict[str, int]) -> list[str]:
    records = [json.loads(line) for line in stdout.splitlines()]
    theorem = [r for r in records if r["check_name"] == "theorem_equality"]
    if (len(theorem) != len(expected)
            or {r["inputs"]["graph6"] for r in theorem} != set(expected)):
        return ["wrong"] * len(expected)
    by_factor = {}
    for r in records:
        by_factor.setdefault(r["inputs"]["graph6"], []).append(r)
    verdicts = []
    for g6, value in expected.items():
        recs = by_factor[g6]
        computed = next(r["computed"] for r in recs if r["check_name"] == "theorem_equality")
        ok = (all(r["verdict"] == "pass" for r in recs)
              and computed["formula_value"] == computed["kappa_flow"]
              == computed["kappa_brute"] == value)
        verdicts.append("ok" if ok else "wrong")
    return verdicts


def check_sweep(config: dict, first_stdout: str, rounds) -> Tally:
    """Round 0's stdout is checked record by record; every round must exit 0
    and repeat round 0's stdout byte for byte. A round that breaks either
    rule, or whose record count is off, fails all its instances."""
    expected = sweep_expectations(config["max_vertices"], config["n_values"][0])
    tally = Tally()
    first = rounds[0][0]
    verdicts = _sweep_verdicts(first_stdout, expected)
    for outputs in rounds:
        out = outputs[0]
        if not isinstance(out["exit"], int):
            round_verdicts = ["error"] * len(expected)
        elif out["exit"] != 0 or out["sha256"] != first["sha256"]:
            round_verdicts = ["wrong"] * len(expected)
        else:
            round_verdicts = verdicts
        for verdict in round_verdicts:
            tally.add(verdict)
    return tally
