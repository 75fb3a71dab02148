"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a kronkappa checkout; it imports the program from
``src`` and needs no build. Each workload runs in its own single-threaded
worker process (worker.py). The worker is started several times to time
set-up, then once more to measure whole rounds for ``--seconds``. Times are
the worker's CPU time, which leaves out a shared VM's steal time. The outputs
are checked against networkx (checks.py). The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics, end-to-end
ones with ``--trace 0`` and per-layer ones with ``--trace 1``. The line
before it, and ``.perfbench_runs/<workload>-seed<N>-trace<T>.result.json``,
record the environment and the details behind each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import networkx

import checks
import inputs
import tracer

HERE = Path(__file__).resolve().parent
RUNS_DIR = ".perfbench_runs"

#: set-up is timed over this many worker starts and reported as the median
SETUP_REPEATS = 7
#: the measuring worker gets this long; its rounds end soon after --seconds
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: candidate tail percentiles, in tenths of a percent, highest first
TAIL_PERMILLE = (999, 990, 950, 900, 750)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(values) -> tuple[float, float]:
    """(percentile, value) at the highest percentile in TAIL_PERMILLE that
    leaves at least ten values beyond it, by nearest rank."""
    ordered = sorted(values)
    count = len(ordered)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * count // 1000)  # ceil without floating point
        if count - rank >= 10:
            return permille / 10, ordered[rank - 1]
    raise BenchError(f"{count} instances leave no percentile with ten beyond it")


def per_instance_medians(rounds) -> list[float]:
    """Each instance's median time over the rounds."""
    columns = {}
    for rnd in rounds:
        for index, seconds in enumerate(rnd["times"]):
            columns.setdefault(index, []).append(seconds)
    return [statistics.median(columns[i]) for i in sorted(columns)]


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args: list[str], root: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready <cpu>`` line; returns the
    process and the CPU seconds it spent from start to ready."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=root, env=worker_env(root), stdout=subprocess.PIPE)
    word, _, cpu = proc.stdout.readline().decode().partition(" ")
    if word != "ready":
        finish_worker(proc, 30)
        raise BenchError("worker failed during set-up")
    return proc, float(cpu)


def finish_worker(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {timeout} s") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def check(workload: str, seed: int, rounds) -> checks.Tally:
    outputs = [rnd["outputs"] for rnd in rounds]
    if workload == "sweep-exhaustive":
        first_stdout = Path(outputs[0][0]["stdout"]).read_text()
        return checks.check_sweep(inputs.sweep_config(seed), first_stdout, outputs)
    cases = inputs.cases(workload, seed)
    if workload == "product-kappa":
        return checks.check_product_kappa(cases, outputs)
    return checks.check_witness(cases, outputs)


def measure(args, root: Path) -> tuple[dict, dict]:
    """Run the workload; returns (final result line, details)."""
    runs = root / RUNS_DIR
    runs.mkdir(exist_ok=True)
    stem = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--out", str(stem.with_suffix(".worker.json"))]

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, setup_s = start_worker([*worker_args, "--setup-only"], root)
        finish_worker(proc, 60)
        setups.append(setup_s)
    proc, setup_s = start_worker(
        [*worker_args, "--seconds", str(args.seconds), "--trace", str(args.trace)], root)
    setups.append(setup_s)
    finish_worker(proc, WORKER_TIMEOUT_S)
    result = json.loads(stem.with_suffix(".worker.json").read_text())

    rounds = result["rounds"]
    checked = rounds + ([result["traced_round"]] if args.trace else [])
    tally = check(args.workload, args.seed, checked)
    per_instance = per_instance_medians(rounds)
    tail_percentile, tail_s = tail(per_instance)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "instances_per_s": sum(len(r["times"]) for r in rounds) / sum(r["cpu_s"] for r in rounds),
        "instance_p50_ms": 1000 * statistics.median(per_instance),
        "instance_tail_ms": 1000 * tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": tracer.unit(name)}
                   for name, value in result["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**result["env"], "networkx": networkx.__version__,
                "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(root)},
        "rounds": len(rounds),
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "round_wall_s": [r["wall_s"] for r in rounds],
        "instances_per_round": len(per_instance),
        "tail_percentile": tail_percentile,
        "setup_samples_s": setups,
        "wrong": tally.wrong,
        "end_to_end": end_to_end,
        "layers": result.get("layers"),
    }
    stem.with_suffix(".result.json").write_text(json.dumps(details, indent=1))
    line = {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kronkappa" / "__init__.py").is_file():
        print("error: run from the root of a kronkappa checkout "
              "(src/kronkappa/__init__.py not found)", file=sys.stderr)
        return 2
    try:
        line, details = measure(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({key: details[key] for key in
                      ("workload", "seed", "env", "rounds", "instances_per_round",
                       "tail_percentile")}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
