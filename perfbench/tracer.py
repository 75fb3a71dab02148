"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of ``kronkappa`` modules at every name
where callers look them up (a function imported into four modules is bound
four times), counts calls and accumulates self time: a span's CPU time minus
the CPU time of the wrapped calls inside it. ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _first_arg(args, kwargs):
    return args[0]


def _first_two_args(args, kwargs):
    return args[0], args[1]


@dataclass(frozen=True)
class Layer:
    """One wrapped function.

    ``metric`` prefixes its metric names, ``module`` and ``attr`` say where it
    is defined (``Class.method`` for methods), ``fields`` which metrics are
    reported, and ``key`` which argument identifies the input graph for
    ``distinct_ratio``.
    """

    metric: str
    module: str
    attr: str
    fields: tuple[str, ...] = ("calls", "self_s")
    key: Callable | None = None


LAYERS = (
    Layer("kernels.kappa_from_matrix", "kronkappa._kernels", "kappa_from_matrix"),
    Layer("kernels.brute_force_kappa_bits", "kronkappa._kernels", "brute_force_kappa_bits"),
    Layer("graphs.adjacency_matrix", "kronkappa.graphs", "Graph.adjacency_matrix"),
    Layer("graphs.connected_components", "kronkappa.graphs", "connected_components"),
    Layer("connectivity.kappa", "kronkappa.connectivity", "kappa",
          ("calls", "self_s", "distinct_ratio"), _first_arg),
    Layer("products.direct_product", "kronkappa.products", "direct_product",
          ("calls", "self_s", "distinct_ratio"), _first_two_args),
    Layer("connectivity.min_vertex_cut", "kronkappa.connectivity", "min_vertex_cut"),
    Layer("connectivity.is_separator", "kronkappa.connectivity", "is_separator"),
    Layer("graphio.write_graph6", "kronkappa.graphio", "write_graph6"),
    Layer("reports.to_json", "kronkappa.reports", "VerificationReport.to_json"),
    Layer("formula.witness_cut", "kronkappa.formula", "witness_cut"),
    Layer("formula.build_quotient", "kronkappa.formula", "build_quotient"),
    Layer("sweep.run_sweep", "kronkappa.sweep", "run_sweep", ("self_s",)),
    Layer("sweep.theorem_checks", "kronkappa.sweep", "theorem_checks", ("self_s",)),
    Layer("sweep.lemma_checks", "kronkappa.sweep", "lemma_checks", ("self_s",)),
    Layer("cli.main", "kronkappa.cli", "main", ("self_s",)),
)

#: reported by the traced run next to the layers: traced round CPU time
#: minus the median CPU time of the untraced rounds
OVERHEAD_METRIC = "trace.overhead_s"

UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio"}


def metric_names() -> list[str]:
    return [f"{layer.metric}.{field}" for layer in LAYERS for field in layer.fields]


def unit(name: str) -> str:
    """Unit of a per-layer metric name."""
    return "s" if name == OVERHEAD_METRIC else UNITS[name.rsplit(".", 1)[1]]


class Tracer:
    """Spans for ``LAYERS``; ``instance`` tags distinct-input keys with the
    instance the caller is running."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.instance = None
        self.calls = {layer.metric: 0 for layer in LAYERS}
        self.self_s = {layer.metric: 0.0 for layer in LAYERS}
        self.distinct = {layer.metric: set() for layer in LAYERS if layer.key}
        # one accumulator of child time per open span; the bottom one is the
        # caller outside every span
        self._children = [0.0]
        self._undo = []

    def wrap(self, name: str, func, key=None):
        clock = self.clock
        children = self._children

        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[name] += elapsed - children.pop()
                self.calls[name] += 1
                children[-1] += elapsed
                if key is not None:
                    self.distinct[name].add((self.instance, key(args, kwargs)))

        span.__wrapped__ = func
        return span

    def install(self) -> None:
        """Wrap every layer at every binding in the loaded kronkappa modules."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "kronkappa" or name.startswith("kronkappa.")]
        for layer in LAYERS:
            owner = importlib.import_module(layer.module)
            if "." in layer.attr:
                cls_name, method = layer.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._bind(cls, method, original, self.wrap(layer.metric, original, layer.key))
                continue
            original = getattr(owner, layer.attr)
            wrapper = self.wrap(layer.metric, original, layer.key)
            for mod in modules:
                for attr in [a for a, value in vars(mod).items() if value is original]:
                    self._bind(mod, attr, original, wrapper)

    def _bind(self, holder, attr: str, original, wrapper) -> None:
        self._undo.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer in LAYERS:
            calls = self.calls[layer.metric]
            values = {
                "calls": calls,
                "self_s": self.self_s[layer.metric],
                # no calls means no repeated work
                "distinct_ratio": (len(self.distinct[layer.metric]) / calls
                                   if layer.key and calls else 1.0),
            }
            for field in layer.fields:
                out[f"{layer.metric}.{field}"] = values[field]
        return out
