"""Verification sweeps over graph families.

A sweep walks a family of factors G (exhaustive over all labelled graphs up to
a size cap, or seeded random samples), and for every G and every requested n
runs the theorem and lemma batteries of ``checks`` over one ``InstanceFacts``,
so G x K_n is built once. ``run_sweep`` yields each instance's reports as
soon as it finishes. Reports serialise to JSON lines; reruns with the same
config are byte-identical because timings are zeroed on the wire by default,
and ``checks.rerun_check`` re-verifies any line from its inputs alone.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields

from .checks import ORACLES, InstanceFacts, lemma_battery, theorem_battery
from .connectivity import require_brute_force_budget
from .generators import all_labeled_graphs, random_graph
from .graphs import Graph
from .reports import VerificationReport

MODES = ("exhaustive", "random")

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
    oracle picks what the closed form is compared against; an exhaustive
    family whose brute force would exceed its budget is refused here.
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
        if self.mode == "exhaustive":
            require_exhaustive_budget(self.max_vertices, self.n_values, self.oracle)

    @classmethod
    def from_mapping(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ValueError(f"sweep config must be a JSON object, got {data!r}")
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
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


def run_sweep(config: SweepConfig) -> Iterator[VerificationReport]:
    """Yield every report of the configured family in deterministic order,
    each instance's reports as soon as that instance is done."""
    instances = ((g, n) for g in _sweep_graphs(config) for n in config.n_values)
    for index, (g, n) in enumerate(instances):
        # called by name: perfbench/worker.py rebinds it to time each instance
        yield from instance_checks(g, n, oracle=config.oracle,
                                   seed=instance_seed(config.seed, index))


def require_exhaustive_budget(max_vertices: int, n_values, oracle: str) -> None:
    """Refuse an exhaustive family before any work when the brute force would
    refuse its densest product, K_M x K_N with N the largest n."""
    if oracle != "flow":
        n = max(n_values)
        require_brute_force_budget(max_vertices * n, (max_vertices - 1) * (n - 1))


def theorem_checks(g: Graph, n: int, *, oracle: str = "flow") -> list[VerificationReport]:
    """``checks.theorem_battery`` on G x K_n."""
    return list(theorem_battery(InstanceFacts(g, n), oracle))


def lemma_checks(g: Graph, n: int, *, seed: int = 0,
                 separator_samples: int = 1) -> list[VerificationReport]:
    """``checks.lemma_battery`` on G x K_n, sampling from Random(seed)."""
    return list(lemma_battery(InstanceFacts(g, n), seed, separator_samples))


def instance_checks(g: Graph, n: int, *, oracle: str = "flow",
                    seed: int = 0) -> list[VerificationReport]:
    """Both batteries for one factor and one n, over one ``InstanceFacts``."""
    facts = InstanceFacts(g, n)
    # a list, so a wrapper timing this call times the whole instance
    return [*theorem_battery(facts, oracle), *lemma_battery(facts, seed)]
