"""Verification sweeps over graph families.

A sweep walks a family of factors G (exhaustive over all labelled graphs up to
a size cap, or seeded random samples), and for every G and every requested n
runs the whole battery from the check table in ``checks``: closed form vs
oracle connectivity, witness soundness, the product connectedness criterion,
the minimum-degree identity, deletion monotonicity, and the two quotient
checks on a sampled candidate separator. One ``InstanceFacts`` serves the
whole battery of an instance, so G x K_n is built once. Reports serialise to
JSON lines; reruns with the same config are byte-identical because timings
are zeroed on the wire by default, and ``checks.rerun_check`` re-verifies any
line from its inputs alone.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from random import Random

from .checks import ORACLES, InstanceFacts, run_check
from .formula import sample_separator
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
    return _theorem_reports(InstanceFacts(g, n), oracle)


def lemma_checks(g: Graph, n: int, *, seed: int = 0,
                 separator_samples: int = 1) -> list[VerificationReport]:
    """Supporting-fact battery: product connectedness criterion, minimum
    degree identity, deletion monotonicity, and (for connected factors with
    n >= 3) quotient checks on ``separator_samples`` sampled candidate
    separators drawn from Random(seed)."""
    return _lemma_reports(InstanceFacts(g, n), seed, separator_samples)


def instance_checks(g: Graph, n: int, *, oracle: str = "flow",
                    seed: int = 0) -> list[VerificationReport]:
    """The full battery for one factor and one complete-factor size."""
    facts = InstanceFacts(g, n)
    return _theorem_reports(facts, oracle) + _lemma_reports(facts, seed, 1)


def _theorem_reports(f: InstanceFacts, oracle: str) -> list[VerificationReport]:
    base = {"graph6": f.graph6, "n": f.n}
    out = [run_check("theorem_equality", f, dict(base), oracle=oracle)]
    if f.g.vertex_count >= 2 and f.kappa_g > 0:
        out.append(run_check("witness_soundness", f, dict(base)))
    return out


def _lemma_reports(f: InstanceFacts, seed: int,
                   separator_samples: int) -> list[VerificationReport]:
    base = {"graph6": f.graph6, "n": f.n}
    out = []
    if f.g.vertex_count >= 2:
        out.append(run_check("weichsel_iff", f, dict(base)))
    out.append(run_check("degree_product", f, dict(base)))
    if f.g.vertex_count >= 2:
        out.append(run_check("deletion_monotonicity", f, dict(base)))
    if separator_samples > 0 and f.n >= 3 and f.kappa_g > 0:
        rng = Random(seed)
        for _ in range(separator_samples):
            chosen = sample_separator(f.g, f.n, rng, kappa_g=f.kappa_g)
            with_s = {**base, "S": sorted(chosen), "seed": seed}
            out.append(run_check("quotient_connected", f, with_s, S=chosen))
            out.append(run_check("layer_in_component", f, dict(with_s), S=chosen))
    return out
