"""Command-line interface.

Exit codes: 0 when every check passed (or the command has no verdicts),
1 when any verification verdict is "fail", 2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checks import ORACLES
from .connectivity import kappa, min_vertex_cut
from .formula import FormulaInapplicable, _require_applicable, witness_cut
from .generators import all_labeled_graphs
from .graphio import parse_edge_list, parse_graph6, write_edge_list, write_graph6
from .graphs import Graph
from .products import complete_graph, direct_product
from .sweep import (
    EXHAUSTIVE_VERTEX_CAP,
    SweepConfig,
    instance_seed,
    lemma_checks,
    require_exhaustive_budget,
    run_sweep,
    theorem_checks,
)


def _load_graphs(source: str) -> list[Graph]:
    """Read one edge-list graph or any number of graph6 records.

    '-' reads stdin. A first significant line starting with the token 'p'
    selects the edge-list format; otherwise every nonblank non-comment line
    must be a graph6 record.
    """
    text = sys.stdin.read() if source == "-" else Path(source).read_text()
    significant = [ln for ln in text.splitlines()
                   if ln.split("#", 1)[0].strip()]
    if not significant:
        raise ValueError("no graphs in input")
    if significant[0].split()[0] == "p":
        return [parse_edge_list(text)]
    graphs = []
    for line in significant:
        graphs.append(parse_graph6(line.strip()))
    return graphs


def _emit_reports(reports, timings: bool) -> int:
    code = 0
    for report in reports:
        print(report.to_json(timings=timings))
        if not report.passed:
            code = 1
    return code


def _refuse_small_n(n_values, direct: bool) -> None:
    for n in n_values:
        if not direct:
            _require_applicable(n)
        elif n < 2:
            raise ValueError(f"complete factor needs at least 2 vertices, got n={n}")


def _cmd_kappa(args) -> int:
    for g in _load_graphs(args.file):
        print(kappa(g))
    return 0


def _cmd_product(args) -> int:
    k_n = complete_graph(args.n)
    graphs = _load_graphs(args.file)
    if args.emit == "edges" and len(graphs) > 1:
        raise ValueError("--emit edges works on a single input graph")
    for g in graphs:
        product = direct_product(g, k_n).graph
        if args.emit == "g6":
            print(write_graph6(product))
        else:
            sys.stdout.write(write_edge_list(product))
    return 0


def _cmd_verify_theorem(args) -> int:
    if (args.file is None) == (args.exhaustive is None):
        raise ValueError("give either a graph file or --exhaustive M")
    _refuse_small_n(args.n, args.direct)
    if args.exhaustive is not None:
        if not 1 <= args.exhaustive <= EXHAUSTIVE_VERTEX_CAP:
            raise ValueError(f"--exhaustive must lie in 1..{EXHAUSTIVE_VERTEX_CAP}")
        require_exhaustive_budget(args.exhaustive, args.n, args.oracle)
        graphs = all_labeled_graphs(args.exhaustive)
    else:
        graphs = _load_graphs(args.file)
    return _emit_reports((report for g in graphs for n in args.n
                          for report in theorem_checks(g, n, oracle=args.oracle)),
                         args.timings)


def _cmd_verify_lemmas(args) -> int:
    _refuse_small_n([args.n], args.direct)
    if args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    if args.n < 3:
        print(f"note: n={args.n} is below the closed form's range; "
              "quotient checks are skipped", file=sys.stderr)
    return _emit_reports((report for index, g in enumerate(_load_graphs(args.file))
                          for report in lemma_checks(g, args.n,
                                                     seed=instance_seed(args.seed, index),
                                                     separator_samples=args.samples)),
                         args.timings)


def _cmd_witness(args) -> int:
    _refuse_small_n([args.n], args.direct)
    for g in _load_graphs(args.file):
        if args.direct:
            product = direct_product(g, complete_graph(args.n)).graph
            cut = min_vertex_cut(product)
        else:
            cut = witness_cut(g, args.n)
        payload = {
            "graph6": write_graph6(g),
            "n": args.n,
            "vertices": sorted(cut.vertices),
            "size": len(cut.vertices),
            "branch": cut.branch,
            "residual_verdict": cut.residual_verdict,
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig.from_file(args.config)
    return _emit_reports(run_sweep(config), args.timings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronkappa",
        description="Vertex connectivity of direct products G x K_n: "
                    "closed-form values, witness separators, verification sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kappa", help="vertex connectivity of each input graph")
    p.add_argument("file", help="edge-list file or graph6 records; '-' for stdin")

    p = sub.add_parser("product", help="build G x K_n and print it")
    p.add_argument("file", help="factor graph(s); '-' for stdin")
    p.add_argument("-n", type=int, required=True, metavar="N",
                   help="complete factor size")
    p.add_argument("--emit", choices=("g6", "edges"), default="g6",
                   help="output format (default g6)")

    p = sub.add_parser("verify-theorem",
                       help="closed form vs measured product connectivity")
    p.add_argument("file", nargs="?",
                   help="factor graph(s); omit when using --exhaustive")
    p.add_argument("--exhaustive", type=int, metavar="M",
                   help=f"all labelled graphs on up to M vertices (M <= {EXHAUSTIVE_VERTEX_CAP})")
    p.add_argument("-n", type=int, nargs="+", required=True, metavar="N",
                   help="complete factor sizes")
    p.add_argument("--oracle", choices=ORACLES, default="flow",
                   help="how to measure the product's connectivity (default flow)")
    p.add_argument("--direct", action="store_true",
                   help="allow n < 3: report measured kappa without the closed form")
    p.add_argument("--timings", action="store_true",
                   help="serialise measured elapsed_ms instead of 0")

    p = sub.add_parser("verify-lemmas", help="supporting-fact battery for each factor")
    p.add_argument("file", help="factor graph(s); '-' for stdin")
    p.add_argument("-n", type=int, required=True, metavar="N")
    p.add_argument("--samples", type=int, default=10,
                   help="candidate separators to draw per factor (default 10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--direct", action="store_true",
                   help="allow n = 2 (quotient checks are skipped)")
    p.add_argument("--timings", action="store_true")

    p = sub.add_parser("witness", help="explicit minimum separator of G x K_n")
    p.add_argument("file", help="factor graph(s); '-' for stdin")
    p.add_argument("-n", type=int, required=True, metavar="N")
    p.add_argument("--direct", action="store_true",
                   help="search the product for a minimum cut instead of "
                        "using the closed-form construction (required for n = 2)")

    p = sub.add_parser("sweep", help="run a configured verification sweep")
    p.add_argument("--config", required=True, help="JSON sweep configuration")
    p.add_argument("--timings", action="store_true")
    return parser


_DISPATCH = {
    "kappa": _cmd_kappa,
    "product": _cmd_product,
    "verify-theorem": _cmd_verify_theorem,
    "verify-lemmas": _cmd_verify_lemmas,
    "witness": _cmd_witness,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except FormulaInapplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: pass --direct to measure the built product without the closed form",
              file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
