import contextlib
import io
import json
import time

import pytest

from kronkappa import (
    VERTEX_CAP,
    Graph,
    SweepConfig,
    VerificationReport,
    check_complete_product,
    instance_checks,
    instance_seed,
    lemma_checks,
    reports_to_json_lines,
    rerun_check,
    run_sweep,
    theorem_checks,
)
from kronkappa import sweep
from kronkappa.checks import CHECKS
from kronkappa.cli import main


def small_config(**overrides):
    base = dict(max_vertices=3, n_values=(3,), mode="exhaustive",
                seed=5, oracle="both")
    base.update(overrides)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        small_config(mode="all")
    with pytest.raises(ValueError, match="oracle"):
        small_config(oracle="magic")
    with pytest.raises(ValueError, match="capped"):
        small_config(max_vertices=8)
    with pytest.raises(ValueError, match="at least 3"):
        small_config(n_values=(3, 2))
    with pytest.raises(ValueError, match="nonempty"):
        small_config(n_values=())
    with pytest.raises(ValueError, match="sample_count"):
        small_config(mode="random", sample_count=0)
    with pytest.raises(ValueError, match="edge_probability"):
        small_config(mode="random", edge_probability=2.0)
    with pytest.raises(ValueError, match="max_vertices"):
        small_config(max_vertices=0)
    # an exhaustive family holds K_M x K_N: K6 x K4 is over the brute-force
    # budget, K5 x K4 (910,596 subsets) is within it
    with pytest.raises(ValueError, match="budget"):
        small_config(max_vertices=6, n_values=(3, 4))
    with pytest.raises(ValueError, match="budget"):
        small_config(max_vertices=6, n_values=(4,), oracle="brute")
    small_config(max_vertices=5, n_values=(4,))
    small_config(max_vertices=6, n_values=(4,), oracle="flow")
    # random mode has no vertex cap at 7, and its draws decide any refusal
    SweepConfig(max_vertices=12, n_values=(3,), mode="random", sample_count=1,
                oracle="both")


def test_config_from_mapping_strict_keys():
    data = {"max_vertices": 3, "n_values": [3], "mode": "exhaustive"}
    cfg = SweepConfig.from_mapping(data)
    assert cfg.n_values == (3,)
    assert cfg.oracle == "flow"
    with pytest.raises(ValueError, match="unknown"):
        SweepConfig.from_mapping({**data, "typo_key": 1})
    with pytest.raises(ValueError, match="missing"):
        SweepConfig.from_mapping({"mode": "exhaustive"})


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "max_vertices": 4, "n_values": [3, 4], "mode": "random",
        "sample_count": 7, "seed": 2, "oracle": "flow"}))
    cfg = SweepConfig.from_file(path)
    assert cfg.max_vertices == 4
    assert cfg.sample_count == 7


def test_instance_seed_frozen_values():
    # frozen: derived seeds must never drift between releases or processes
    assert instance_seed(0, 0) == 16294208416658607535
    assert instance_seed(0, 1) == 7960286522194355700
    assert instance_seed(5, 123) == 17742714483641628148
    assert instance_seed(9, 0) == 12587370737594032228


def test_exhaustive_sweep_passes_and_counts():
    reports = list(run_sweep(small_config()))
    assert len(reports) == 57
    assert all(r.passed for r in reports)
    names = {r.check_name for r in reports}
    assert names == {"theorem_equality", "witness_soundness", "weichsel_iff",
                     "degree_product", "deletion_monotonicity",
                     "quotient_connected", "layer_in_component"}


def test_sweep_serialisation_is_deterministic():
    cfg = small_config()
    first = reports_to_json_lines(run_sweep(cfg))
    second = reports_to_json_lines(run_sweep(cfg))
    assert first == second
    assert '"elapsed_ms":0' in first.splitlines()[0]

    random_cfg = SweepConfig(max_vertices=5, n_values=(3, 4), mode="random",
                             sample_count=6, seed=31)
    assert (reports_to_json_lines(run_sweep(random_cfg))
            == reports_to_json_lines(run_sweep(random_cfg)))


def test_timings_flag_changes_only_elapsed():
    report = VerificationReport("x", {"n": 3}, {"agree": True}, "pass", elapsed_ms=17)
    assert json.loads(report.to_json())["elapsed_ms"] == 0
    assert json.loads(report.to_json(timings=True))["elapsed_ms"] == 17
    a = json.loads(report.to_json())
    b = json.loads(report.to_json(timings=True))
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_report_json_roundtrip():
    report = VerificationReport("x", {"n": 3}, {"agree": True}, "pass")
    back = VerificationReport.from_json(report.to_json())
    assert back == report


def test_random_sweep_draws_requested_count():
    cfg = SweepConfig(max_vertices=6, n_values=(3,), mode="random",
                      sample_count=5, seed=1)
    reports = list(run_sweep(cfg))
    factors = {r.inputs["graph6"] for r in reports}
    # 5 draws, possibly with repeats, all on 6 vertices
    assert 1 <= len(factors) <= 5
    assert len([r for r in reports if r.check_name == "theorem_equality"]) == 5


@pytest.fixture(scope="module")
def emitted_reports():
    """Reports of every check the package emits: a sweep, the lemma battery
    with K_2 and a larger G, the complete-product check, a brute-force-only
    theorem battery and the verify-theorem --direct record."""
    p3 = Graph(3, [(0, 1), (1, 2)])
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    reports = list(run_sweep(small_config()))
    reports += [*lemma_checks(c4, 2), *lemma_checks(p3, 3), check_complete_product(3, 4)]
    reports += theorem_checks(c4, 4, oracle="brute")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify-theorem", "--exhaustive", "3", "-n", "2", "--direct"]) == 0
    reports += [VerificationReport.from_json(line) for line in out.getvalue().splitlines()]
    return reports


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_rerun_check_reproduces_verdicts(emitted_reports, name):
    reports = [r for r in emitted_reports if r.check_name == name]
    assert reports
    for report in reports:
        assert rerun_check(report) == report.verdict


def test_rerun_check_unknown_name():
    with pytest.raises(ValueError, match="unknown"):
        rerun_check(VerificationReport("no_such_check", {}, {}, "pass"))


@pytest.mark.parametrize("name,inputs,missing", [
    ("theorem_equality", {"graph6": "Bw", "n": None}, "'n'"),
    ("theorem_equality", {"graph6": "Bw"}, "'n'"),
    ("complete_product", {"m": 3}, "'n'"),
    ("quotient_connected", {"graph6": "Bw", "n": 3}, "'S'"),
    ("witness_soundness", {"n": 3}, "'graph6'"),
])
def test_rerun_check_names_a_missing_input(name, inputs, missing):
    with pytest.raises(ValueError, match=f"{name}.*{missing}"):
        rerun_check(VerificationReport(name, inputs, {"agree": True}, "pass"))


@pytest.mark.parametrize("name,inputs,computed", [
    ("theorem_equality", 5, {"agree": True}),
    ("theorem_equality", {"graph6": "Bw", "n": 3}, 5),
    ("theorem_equality", {"graph6": "Bw", "n": "3"}, {"agree": True}),
    ("theorem_equality", {"graph6": "Bw", "n": True}, {"agree": True}),
    ("theorem_equality", {"graph6": 7, "n": 3}, {"agree": True}),
    ("complete_product", {"m": "3", "n": 4}, {"agree": True}),
    ("weichsel_iff", {"graph6": 3, "n": 3}, {"agree": True}),
    ("quotient_connected", {"graph6": "Bw", "n": 3, "S": 4}, {"connected": True}),
    ("quotient_connected", {"graph6": "Bw", "n": 3, "S": ["a"]}, {"connected": True}),
    ("layer_in_component", {"graph6": "Bw", "n": 3, "S": [True]}, {"agree": True}),
    ("witness_soundness", {"graph6": "Bw", "n": 3.0}, {"agree": True}),
    (["theorem_equality"], {"graph6": "Bw", "n": 3}, {"agree": True}),
])
def test_rerun_check_refuses_a_malformed_report(name, inputs, computed):
    with pytest.raises(ValueError, match="cannot rerun"):
        rerun_check(VerificationReport(name, inputs, computed, "pass"))


@pytest.mark.parametrize("name,inputs,message", [
    ("witness_soundness", {"graph6": "Bw", "n": VERTEX_CAP + 1}, "vertex cap"),
    ("complete_product", {"m": VERTEX_CAP + 1, "n": 3}, "vertex cap"),
    ("quotient_connected", {"graph6": "Bw", "n": 3, "S": [10**12]}, "out of range"),
])
def test_rerun_check_refuses_an_over_cap_input(name, inputs, message):
    # refused before any row is allocated for the too-large graph
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        rerun_check(VerificationReport(name, inputs, {"agree": True}, "pass"))
    assert time.perf_counter() - t0 < 0.5


def test_rerun_check_ignores_an_input_its_check_does_not_read():
    report = theorem_checks(Graph(3, [(0, 1), (1, 2)]), 3)[0]
    with_s = VerificationReport(report.check_name, {**report.inputs, "S": [0]},
                                report.computed, report.verdict)
    assert rerun_check(with_s) == report.verdict


def test_report_line_without_a_field_is_refused():
    line = VerificationReport("x", {"n": 3}, {"agree": True}, "pass").to_json()
    with pytest.raises(ValueError, match="verdict"):
        VerificationReport.from_json(line.replace('"verdict"', '"result"'))
    with pytest.raises(ValueError, match="check_name"):
        VerificationReport.from_json("[]")


def test_theorem_checks_oracle_selection():
    g = Graph(3, [(0, 1), (1, 2)])
    flow_only = theorem_checks(g, 3, oracle="flow")[0]
    assert "kappa_flow" in flow_only.computed
    assert "kappa_brute" not in flow_only.computed
    both = theorem_checks(g, 3, oracle="both")[0]
    assert {"kappa_flow", "kappa_brute"} <= set(both.computed)
    with pytest.raises(ValueError):
        theorem_checks(g, 3, oracle="quantum")


def test_lemma_checks_structure():
    g = Graph(3, [(0, 1), (1, 2)])
    reports = lemma_checks(g, 3, seed=4, separator_samples=3)
    names = [r.check_name for r in reports]
    assert names.count("quotient_connected") == 3
    assert names.count("layer_in_component") == 3
    assert names[0] == "weichsel_iff"
    sampled = [r for r in reports if r.check_name == "quotient_connected"]
    assert all(r.inputs["seed"] == 4 for r in sampled)
    assert all(r.passed for r in reports)


def test_instance_checks_covers_both_batteries():
    g = Graph(2, [(0, 1)])
    names = {r.check_name for r in instance_checks(g, 3, oracle="flow", seed=8)}
    assert "theorem_equality" in names
    assert "weichsel_iff" in names


def test_theorem_checks_below_n3_is_the_direct_record(capsys):
    p3 = Graph(3, [(0, 1), (1, 2)])
    reports = theorem_checks(p3, 2)
    assert [r.check_name for r in reports] == ["direct_kappa"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify-theorem", "--exhaustive", "3", "-n", "2", "--direct"]) == 0
    assert reports[0].to_json() + "\n" in out.getvalue().splitlines(keepends=True)


def test_lemma_checks_below_n3_draws_no_quotients():
    p3 = Graph(3, [(0, 1), (1, 2)])
    names = [r.check_name for r in lemma_checks(p3, 2, separator_samples=5)]
    assert names == ["weichsel_iff", "degree_product", "deletion_monotonicity"]


def test_run_sweep_is_lazy(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return instance_checks(*args, **kwargs)

    monkeypatch.setattr(sweep, "instance_checks", counted)
    first = next(run_sweep(small_config()))
    assert first.check_name == "theorem_equality"
    assert len(calls) == 1
