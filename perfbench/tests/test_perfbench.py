"""Tests of the benchmark itself: its checker, its tail rule and its tracer.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
for path in (BENCH, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import kronkappa as kk  # noqa: E402
from kronkappa import cli  # noqa: E402

SMALL_SWEEP = {"max_vertices": 3, "n_values": [3], "mode": "exhaustive",
               "oracle": "both", "seed": 4}


def _sweep_stdout(tmp_path: Path) -> str:
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SMALL_SWEEP))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sweep", "--config", str(config)]) == 0
    return out.getvalue()


def _sweep_round(stdout: str) -> list[dict]:
    import hashlib
    return [{"exit": 0, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}]


# -- checker -----------------------------------------------------------------

def test_product_kappa_checker_counts_wrong_kappa():
    cases = inputs.product_kappa_cases(0)[:3]
    right = [kk.kappa(kk.direct_product(kk.Graph(c["m"], c["edges"]),
                                        kk.complete_graph(c["n"])).graph) for c in cases]
    assert checks.check_product_kappa(cases, [right]) == checks.Tally(3, 0, 0)
    tally = checks.check_product_kappa(cases, [right, [right[0] + 1, *right[1:]]])
    assert (tally.attempted, tally.failed, tally.wrong) == (6, 1, 1)


def test_checker_counts_raised_instance_as_failed_not_wrong():
    cases = inputs.product_kappa_cases(0)[:1]
    tally = checks.check_product_kappa(cases, [[{"error": "ValueError: boom"}]])
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_witness_checker_counts_non_separating_cut():
    case = {"family": "cycle-7", "m": 7, "n": 3, "edges": [(i, (i + 1) % 7) for i in range(7)]}
    g = kk.Graph(7, case["edges"])
    good = {"witness": sorted(kk.witness_cut(g, 3).vertices),
            "direct": sorted(kk.min_vertex_cut(
                kk.direct_product(g, kk.complete_graph(3)).graph).vertices)}
    assert checks.check_witness([case], [[good]]).failed == 0
    # same size as a minimum cut, but four product vertices of one layer pair
    # never separate C7 x K3
    bad = dict(good, direct=[0, 1, 3, 4])
    tally = checks.check_witness([case], [[good], [bad]])
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_sweep_checker_accepts_program_output(tmp_path):
    stdout = _sweep_stdout(tmp_path)
    tally = checks.check_sweep(SMALL_SWEEP, stdout, [_sweep_round(stdout)] * 2)
    assert (tally.attempted, tally.failed) == (2 * (1 + 2 + 8), 0)


def test_checker_counts_malformed_output_as_wrong(tmp_path):
    cases = inputs.witness_cases(0)[:1]
    tally = checks.check_witness(cases, [[{"direct": [0]}]])
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    garbage = "not json\n"
    tally = checks.check_sweep(SMALL_SWEEP, garbage, [_sweep_round(garbage)])
    assert tally.wrong == tally.attempted == 11


def test_sweep_checker_counts_wrong_record_count(tmp_path):
    lines = _sweep_stdout(tmp_path).splitlines(keepends=True)
    dropped = next(i for i, ln in enumerate(lines) if '"theorem_equality"' in ln)
    stdout = "".join(lines[:dropped] + lines[dropped + 1:])
    tally = checks.check_sweep(SMALL_SWEEP, stdout, [_sweep_round(stdout)])
    assert tally.failed == tally.wrong == tally.attempted == 11


def test_sweep_checker_counts_wrong_kappa_and_changed_stdout(tmp_path):
    stdout = _sweep_stdout(tmp_path)
    records = [json.loads(ln) for ln in stdout.splitlines()]
    target = next(r for r in records if r["check_name"] == "theorem_equality"
                  and r["computed"]["formula_value"] > 0)
    target["computed"]["kappa_brute"] += 1
    edited = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                     for r in records)
    tally = checks.check_sweep(SMALL_SWEEP, edited, [_sweep_round(edited)])
    assert (tally.attempted, tally.failed) == (11, 1)
    # a later round whose stdout differs from round 0 fails all its instances
    tally = checks.check_sweep(SMALL_SWEEP, stdout,
                               [_sweep_round(stdout), _sweep_round(edited)])
    assert (tally.attempted, tally.failed) == (22, 11)


def test_sweep_expectations_match_program_graph6():
    expected = checks.sweep_expectations(3, 3)
    assert set(expected) == {kk.write_graph6(g) for g in kk.all_labeled_graphs(3)}
    assert len(checks.sweep_expectations(5, 3)) == 1099


# -- metrics -----------------------------------------------------------------

def test_tail_rule_on_known_lists():
    # 1099 values: p99.9 leaves 1 beyond it, p99 leaves exactly 10
    assert run.tail(range(1, 1100)) == (99.0, 1089)
    # 48 values: p90 leaves 4 beyond, p75 leaves 12
    assert run.tail(list(range(48, 0, -1))) == (75.0, 36)
    # 144 values: p95 leaves 7, p90 leaves 14
    assert run.tail(range(144)) == (90.0, 129)
    with pytest.raises(run.BenchError):
        run.tail(range(39))


def test_per_instance_medians():
    rounds = [{"times": [1.0, 5.0]}, {"times": [3.0, 4.0]}, {"times": [2.0, 9.0]}]
    assert run.per_instance_medians(rounds) == [2.0, 5.0]


# -- tracer ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    wrapped_leaf = t.wrap("connectivity.is_separator", leaf)
    wrapped_middle = t.wrap("connectivity.min_vertex_cut", middle)
    clock.now += 10.0  # time outside any span counts nowhere
    wrapped_middle()
    assert t.calls["connectivity.min_vertex_cut"] == 1
    assert t.calls["connectivity.is_separator"] == 2
    assert t.self_s["connectivity.min_vertex_cut"] == pytest.approx(1.5)
    assert t.self_s["connectivity.is_separator"] == pytest.approx(4.0)


def test_self_time_survives_exceptions():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def failing():
        clock.now += 3.0
        raise ValueError("boom")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            wrapped_failing()

    wrapped_failing = t.wrap("connectivity.kappa", failing, lambda a, k: None)
    t.wrap("cli.main", outer)()
    assert t.self_s["cli.main"] == pytest.approx(1.0)
    assert t.self_s["connectivity.kappa"] == pytest.approx(3.0)


def _bindings():
    return {(name, attr): id(value) for name, mod in sys.modules.items()
            if name == "kronkappa" or name.startswith("kronkappa.")
            for attr, value in vars(mod).items()}


def test_wrappers_keep_outputs_and_are_removed(tmp_path):
    before = _bindings()
    methods = (kk.Graph.__dict__["adjacency_matrix"],
               kk.VerificationReport.__dict__["to_json"])
    original_kappa = kk.kappa
    plain = _sweep_stdout(tmp_path)
    t = tracer.Tracer()
    t.install()
    try:
        assert kk.kappa.__wrapped__ is original_kappa
        traced = _sweep_stdout(tmp_path)
    finally:
        t.uninstall()
    assert traced == plain
    assert _bindings() == before
    assert (kk.Graph.__dict__["adjacency_matrix"],
            kk.VerificationReport.__dict__["to_json"]) == methods
    metrics = t.metrics()
    assert metrics["connectivity.kappa.calls"] > 0
    assert metrics["reports.to_json.calls"] == len(plain.splitlines())
    assert 0 < metrics["connectivity.kappa.distinct_ratio"] < 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names() + [
        tracer.OVERHEAD_METRIC]
    assert all(m["unit"] == tracer.unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
