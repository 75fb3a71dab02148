import hashlib
import io
import json
import subprocess
import sys

import pytest

from kronkappa import (
    VERTEX_CAP,
    Graph,
    VerificationReport,
    complete_graph,
    parse_graph6,
    theorem_checks,
    write_graph6,
)
from kronkappa import checks, cli, formula, sweep
from kronkappa.cli import _emit_reports, main


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text("p 3\n0 1\n1 2\n")
    return str(path)


@pytest.fixture
def g6_file(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Bg\nDhc\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kappa_edge_list(capsys, p3_file):
    code, out, _ = run_cli(capsys, "kappa", p3_file)
    assert code == 0
    assert out == "1\n"


def test_kappa_graph6_one_line_per_record(capsys, g6_file):
    code, out, _ = run_cli(capsys, "kappa", g6_file)
    assert code == 0
    assert out == "1\n2\n"


def test_kappa_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bg\n"))
    code, out, _ = run_cli(capsys, "kappa", "-")
    assert code == 0
    assert out == "1\n"


def test_product_graph6_output(capsys, p3_file):
    code, out, _ = run_cli(capsys, "product", p3_file, "-n", "3")
    assert code == 0
    assert out == "HBj?WgW\n"  # frozen: cross-checked against networkx


def test_product_edge_output(capsys, p3_file):
    code, out, _ = run_cli(capsys, "product", p3_file, "-n", "3", "--emit", "edges")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p 9"
    assert lines[1] == "0 4"
    assert len(lines) == 13  # header + 12 edges


def test_product_edges_refuses_multiple_graphs(capsys, g6_file):
    code, _, err = run_cli(capsys, "product", g6_file, "-n", "3", "--emit", "edges")
    assert code == 2
    assert "single input graph" in err


def test_verify_theorem_emits_passing_reports(capsys, p3_file):
    code, out, _ = run_cli(capsys, "verify-theorem", p3_file, "-n", "3", "4")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 4  # (equality + witness) x two n values
    assert {l["check_name"] for l in lines} == {"theorem_equality", "witness_soundness"}
    assert all(l["verdict"] == "pass" for l in lines)
    assert all(l["elapsed_ms"] == 0 for l in lines)


def test_verify_theorem_oracle_both(capsys, p3_file):
    code, out, _ = run_cli(capsys, "verify-theorem", p3_file, "-n", "3",
                           "--oracle", "both")
    assert code == 0
    equality = json.loads(out.splitlines()[0])
    assert {"kappa_flow", "kappa_brute"} <= set(equality["computed"])


def test_verify_theorem_brute_refuses_over_budget(capsys, tmp_path):
    path = tmp_path / "k7.g6"
    path.write_text(write_graph6(complete_graph(7)) + "\n")
    code, out, err = run_cli(capsys, "verify-theorem", str(path), "-n", "3",
                             "--oracle", "brute")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_verify_theorem_keeps_lines_printed_before_a_refusal(capsys, tmp_path):
    # C4 is within the brute-force budget; K7 x K3 is refused
    path = tmp_path / "c4_k7.g6"
    path.write_text("Cl\nF~~~w\n")
    code, out, err = run_cli(capsys, "verify-theorem", str(path), "-n", "3",
                             "--oracle", "both")
    assert code == 2
    assert "budget" in err
    c4_reports = theorem_checks(parse_graph6("Cl"), 3, oracle="both")
    assert len(c4_reports) == 2
    assert out == "".join(r.to_json() + "\n" for r in c4_reports)


def test_sweep_keeps_lines_printed_before_a_refusal(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"max_vertices": 3, "n_values": [3],
                                "mode": "exhaustive", "seed": 5, "oracle": "both"}))
    original = sweep.instance_checks
    finished = []

    def second_call_refused(*args, **kwargs):
        if finished:
            raise ValueError("refused on the second instance")
        finished.extend(original(*args, **kwargs))
        return finished

    monkeypatch.setattr(sweep, "instance_checks", second_call_refused)
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 2
    assert "second instance" in err
    assert finished
    assert out == "".join(r.to_json() + "\n" for r in finished)


def _no_work(*args, **kwargs):
    raise AssertionError("an over-budget family must be refused before any instance runs")


def test_exhaustive_family_over_budget_refused_up_front(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"max_vertices": 6, "n_values": [4],
                                "mode": "exhaustive", "oracle": "both"}))
    monkeypatch.setattr(sweep, "instance_checks", _no_work)
    monkeypatch.setattr(cli, "theorem_checks", _no_work)
    for argv in (("sweep", "--config", str(path)),
                 ("verify-theorem", "--exhaustive", "6", "-n", "4", "--oracle", "both")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "budget" in err


def test_verify_theorem_refuses_n2_without_direct(capsys, p3_file):
    code, _, err = run_cli(capsys, "verify-theorem", p3_file, "-n", "2")
    assert code == 2
    assert "n=2" in err
    assert "--direct" in err


def test_verify_theorem_n2_direct_measures_product(capsys, p3_file):
    code, out, _ = run_cli(capsys, "verify-theorem", p3_file, "-n", "2", "--direct")
    assert code == 0
    line = json.loads(out.strip())
    assert line["check_name"] == "direct_kappa"
    # bipartite factor: the K_2 product is disconnected
    assert line["computed"]["kappa_product"] == 0


def test_verify_theorem_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--exhaustive", "3", "-n", "3")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert sum(1 for l in lines if l["check_name"] == "theorem_equality") == 11
    assert all(l["verdict"] == "pass" for l in lines)


def test_verify_theorem_needs_exactly_one_source(capsys, p3_file):
    code, _, err = run_cli(capsys, "verify-theorem", p3_file, "--exhaustive", "3", "-n", "3")
    assert code == 2
    assert "either" in err
    code, _, err = run_cli(capsys, "verify-theorem", "-n", "3")
    assert code == 2


def test_verify_theorem_exhaustive_cap(capsys):
    code, _, err = run_cli(capsys, "verify-theorem", "--exhaustive", "9", "-n", "3")
    assert code == 2
    assert "1..7" in err


def test_verify_lemmas_deterministic(capsys, p3_file):
    args = ("verify-lemmas", p3_file, "-n", "3", "--samples", "2", "--seed", "9")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    names = [json.loads(l)["check_name"] for l in out1.splitlines()]
    assert names.count("quotient_connected") == 2


def test_verify_lemmas_n2_direct_skips_quotient(capsys, p3_file):
    code, out, err = run_cli(capsys, "verify-lemmas", p3_file, "-n", "2", "--direct")
    assert code == 0
    assert "skipped" in err
    names = {json.loads(l)["check_name"] for l in out.splitlines()}
    assert "quotient_connected" not in names
    assert "weichsel_iff" in names


def test_witness_json_payload(capsys, p3_file):
    code, out, _ = run_cli(capsys, "witness", p3_file, "-n", "3")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload == {
        "graph6": "Bg", "n": 3, "vertices": [4, 5], "size": 2,
        "branch": "neighborhood", "residual_verdict": "disconnected"}


def test_witness_n2_needs_direct(capsys, p3_file):
    code, _, err = run_cli(capsys, "witness", p3_file, "-n", "2")
    assert code == 2
    assert "--direct" in err


def test_witness_n2_direct_searches_product(capsys, p3_file):
    code, out, _ = run_cli(capsys, "witness", p3_file, "-n", "2", "--direct")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["branch"] is None
    assert payload["size"] == 0  # product already disconnected


def test_sweep_cli_deterministic(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "max_vertices": 3, "n_values": [3], "mode": "exhaustive",
        "oracle": "both", "seed": 5}))
    code1, out1, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    code2, out2, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 57


@pytest.mark.parametrize("override,message", [
    ({"n_values": [2]}, "at least 3"),
    ({"n_values": 3}, "n_values must be a list"),
    ({"n_values": [3.5]}, "n_values entry must be an integer"),
    ({"n_values": [True]}, "n_values entry must be an integer"),
    ({"sample_count": "5"}, "sample_count must be an integer"),
    ({"max_vertices": "3"}, "max_vertices must be an integer"),
    ({"max_vertices": True}, "max_vertices must be an integer"),
    ({"seed": 1.0}, "seed must be an integer"),
    ({"edge_probability": "0.5"}, "edge_probability must be a number"),
])
def test_sweep_rejects_bad_config(capsys, tmp_path, override, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"max_vertices": 3, "n_values": [3], "mode": "exhaustive",
                               **override}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert message in err


def test_sweep_rejects_config_that_is_not_an_object(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("3")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert "JSON object" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "kappa", "/nonexistent/graphs.g6")
    assert code == 2
    assert "error" in err


def test_bad_graph6_reports_offset(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("B\n")
    code, _, err = run_cli(capsys, "kappa", str(path))
    assert code == 2
    assert "byte offset" in err


def test_emit_reports_exit_code_on_failure(capsys):
    failing = VerificationReport("x", {}, {"agree": False}, "fail")
    passing = VerificationReport("x", {}, {"agree": True}, "pass")
    assert _emit_reports([passing], timings=False) == 0
    assert _emit_reports([passing, failing], timings=False) == 1
    capsys.readouterr()


def test_console_script_installed():
    proc = subprocess.run(
        ["kronkappa", "kappa", "-"], input="Bg\n",
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


# sha256 of stdout, frozen from the reference implementation: any drift in the
# JSON-lines wire format, the report order, the seeded draws or the chosen
# separators changes them. Each run is an argv in which INPUT names a file
# holding the source: a sweep config (a dict) or graph6 records.
INPUT = "INPUT"
# C4, P3, C5, two triangles joined by an edge, K4, K_{2,3}
WITNESS_FACTORS = "Cl\nBg\nDhc\nExCW\nC~\nD]o\n"
GOLDEN_RUNS = {
    "sweep-exhaustive": (
        ("sweep", "--config", INPUT),
        {"max_vertices": 3, "n_values": [3], "mode": "exhaustive",
         "seed": 5, "oracle": "both"},
        "55da7ade0474d235399dcb9d9c28067da0eae573f98175c9ee02727cb171a4a1"),
    "sweep-random": (
        ("sweep", "--config", INPUT),
        {"max_vertices": 5, "n_values": [3, 4], "mode": "random",
         "sample_count": 6, "seed": 31},
        "9b1f3cb1e29ea5f7add54230700b66cfe7793dd1da2569b41789cae30587d663"),
    "sweep-exhaustive-5-both": (
        ("sweep", "--config", INPUT),
        {"max_vertices": 5, "n_values": [3], "mode": "exhaustive", "oracle": "both"},
        "6f345cfebf82c3728ee045d002732983f46fbf141f20cb75066c95bf433292f3"),
    "sweep-random-9": (
        ("sweep", "--config", INPUT),
        {"max_vertices": 9, "n_values": [3, 4, 5], "mode": "random",
         "sample_count": 40, "seed": 7},
        "b1748146fb1755f63aa9e66a1a670125889bc69d258fddace7fb04079270bf89"),
    "verify-lemmas": (
        ("verify-lemmas", INPUT, "-n", "3", "--samples", "3"),
        "@\nBg\nC`\nDhc\nC~\nDxK\n",
        "ee6435b9d677241d29466a2ea498943a290098da7f3529b1008e23eb1c29a3c1"),
    "witness": (
        ("witness", INPUT, "-n", "3"), WITNESS_FACTORS,
        "62681f0aad19f21185b7d4bb944b4bbf8bf02ea903493cbfc2165c3f2a411efb"),
    "witness-direct": (
        ("witness", INPUT, "-n", "3", "--direct"), WITNESS_FACTORS,
        "48b935226e392e4983c150b1d89fa8a1144c12a0cc2b23078688518fdd9e4f91"),
    "witness-direct-edge-list": (
        ("witness", INPUT, "-n", "3", "--direct"), "p 4\n0 1\n1 2\n2 3\n0 3\n",
        "4829c48204d935fe7d20c1f8c3341f31877b1f6fc0ba71eda773dd3c269bd0bc"),
    "witness-direct-n2": (
        ("witness", INPUT, "-n", "2", "--direct"), WITNESS_FACTORS,
        "aa106a0d532e0d8c417f6f55287a9597696ce0326845688b1eb3ca6ded1e6e5e"),
    "witness-direct-n4": (
        ("witness", INPUT, "-n", "4", "--direct"), WITNESS_FACTORS,
        "4085d9019599dd8ef25430edefa70479a1ea751223c4640c0311f015de23bb5c"),
    # K10 x K10: a dense product, where the lexicographic cut makes 89
    # membership tests, each anchored at up to c of v's 81 neighbours
    "witness-direct-k10-n10": (
        ("witness", INPUT, "-n", "10", "--direct"), "I~~~~~~~w\n",
        "1479c1d917930805195144fbd2d80174f8716ae7908c121064290bc0d03db3f2"),
    "product-n4": (
        ("product", INPUT, "-n", "4"), WITNESS_FACTORS,
        "478cdd591785a54ecfad5ec51815b28c1b3c895f69af3cd0220c233202bca1be"),
    "product-edges-n5": (
        ("product", INPUT, "-n", "5", "--emit", "edges"), "Cl\n",
        "e854c9a4f2fd7d9ab45550d18705c25c674e67ab5d9bc307f03fe68238639c72"),
    "verify-theorem-exhaustive": (
        ("verify-theorem", "--exhaustive", "4", "-n", "3", "4", "5"), "",
        "8c99e6cfdb9ec5fa07ec01ff607bb8dec142cbbc63d7b5818e7f8be94ca36f75"),
    "verify-theorem-direct": (
        ("verify-theorem", INPUT, "-n", "2", "3", "--direct", "--oracle", "both"),
        WITNESS_FACTORS,
        "ab3f7004a3d35beb81d974eb621523375802fcc1f9013686e8d4bb4d7a7e68d3"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_stdout_golden_digest(capsys, tmp_path, name):
    argv, source, digest = GOLDEN_RUNS[name]
    path = tmp_path / "input"
    path.write_text(json.dumps(source) if isinstance(source, dict) else source)
    code, out, _ = run_cli(capsys, *(str(path) if arg == INPUT else arg for arg in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


OVER_CAP = str(VERTEX_CAP + 1)
# 400 x 3 = 1,200 product vertices, while the factor and K_3 are each under the cap
FACTOR_400 = write_graph6(Graph(400)) + "\n"


@pytest.mark.parametrize("argv,source,message", [
    (("kappa", INPUT), f"p {OVER_CAP}\n", "vertex cap"),
    (("product", INPUT, "-n", OVER_CAP), "Bg\n", "vertex cap"),
    (("verify-theorem", INPUT, "-n", OVER_CAP), "Bg\n", "vertex cap"),
    (("verify-theorem", "--exhaustive", "5", "-n", OVER_CAP), "", "vertex cap"),
    # the budget sum stops at the budget instead of adding huge binomials
    (("verify-theorem", "--exhaustive", "5", "-n", OVER_CAP, "--oracle", "both"), "",
     "budget"),
    (("verify-lemmas", INPUT, "-n", OVER_CAP), "Bg\n", "vertex cap"),
    (("witness", INPUT, "-n", OVER_CAP), "Bg\n", "vertex cap"),
    (("witness", INPUT, "-n", OVER_CAP, "--direct"), "Bg\n", "vertex cap"),
    (("sweep", "--config", INPUT),
     {"max_vertices": 3, "n_values": [VERTEX_CAP + 1], "mode": "exhaustive"}, "vertex cap"),
    (("sweep", "--config", INPUT),
     {"max_vertices": VERTEX_CAP + 1, "n_values": [3], "mode": "random"}, "vertex cap"),
    # a graph6 header declaring 1,025 vertices, refused before its body is read
    (("kappa", INPUT), "~?O@\n", "vertex cap"),
    # over-cap instances G x K_3, refused before kappa(G) is computed
    pytest.param(("sweep", "--config", INPUT),
                 {"max_vertices": 400, "n_values": [3], "mode": "random", "sample_count": 1},
                 "1200 vertices is above the vertex cap", id="sweep-400-vertices"),
    pytest.param(("verify-theorem", INPUT, "-n", "3"), FACTOR_400,
                 "1200 vertices is above the vertex cap", id="verify-theorem-400-vertices"),
    pytest.param(("witness", INPUT, "-n", "3"), FACTOR_400,
                 "1200 vertices is above the vertex cap", id="witness-400-vertices"),
    # refusals that are not about size
    (("kappa", INPUT), "# only a comment\n\n", "no graphs in input"),
    (("witness", INPUT, "-n", "1", "--direct"), "Bg\n",
     "complete factor needs at least 2 vertices"),
    (("verify-lemmas", INPUT, "-n", "3", "--samples", "-1"), "Bg\n",
     "--samples must be nonnegative"),
])
def test_over_cap_input_is_refused_before_any_output(capsys, monkeypatch, tmp_path,
                                                     argv, source, message):
    def no_kappa(g):
        raise AssertionError("kappa(G) computed for an input that is refused")

    monkeypatch.setattr(checks, "kappa", no_kappa)
    monkeypatch.setattr(formula, "kappa", no_kappa)
    path = tmp_path / "input"
    path.write_text(json.dumps(source) if isinstance(source, dict) else source)
    code, out, err = run_cli(capsys, *(str(path) if arg == INPUT else arg for arg in argv))
    assert (code, out) == (2, "")
    assert message in err
