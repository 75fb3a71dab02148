"""One workload in its own process: set up, measure whole rounds, write results.

Started by run.py with ``src`` on PYTHONPATH. It prints ``ready <cpu>`` on
stdout once the inputs are built and the warm-up call is done, where <cpu> is
the CPU time the process has used so far. It then runs rounds of the same
instances until ``--seconds`` of wall time have passed. With ``--trace 1`` one
more round runs under the tracer. Results go to the JSON file named by
``--out``; checking them is run.py's job.

Times are the process's CPU time (``time.process_time``). The worker is
single-threaded, so on an otherwise idle machine CPU time and wall time
agree; on a shared VM, wall time also counts the time the hypervisor gives
the CPU to other guests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
from tracer import OVERHEAD_METRIC, Tracer


class Round:
    """Per-instance times and outputs of one pass over a workload's instances."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.times = []
        self.outputs = []
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def timed(self, func):
        """``func`` with each call timed as one instance."""
        def instance(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.instance = len(self.times)
            start = time.process_time()
            try:
                return func(*args, **kwargs)
            finally:
                self.times.append(time.process_time() - start)
        return instance

    def record(self, func, *args) -> None:
        """Run one instance; an exception is its output, so the checker counts
        it as failed."""
        try:
            out = self.timed(func)(*args)
        except Exception as exc:  # noqa: BLE001 - one failed instance must not end the run
            out = {"error": f"{type(exc).__name__}: {exc}"}
        self.outputs.append(out)

    def to_json(self) -> dict:
        return {"cpu_s": self.cpu_s, "wall_s": self.wall_s, "times": self.times,
                "outputs": self.outputs}


def _product_kappa(kk, g, n):
    # what `kronkappa product | kronkappa kappa` computes
    return kk.kappa(kk.direct_product(g, kk.complete_graph(n)).graph)


def _witnesses(kk, g, n):
    # `kronkappa witness`, then the product search of `kronkappa witness --direct`
    witness = kk.witness_cut(g, n)
    direct = kk.min_vertex_cut(kk.direct_product(g, kk.complete_graph(n)).graph)
    return {"witness": sorted(witness.vertices), "direct": sorted(direct.vertices)}


def product_kappa(kk, graphs, rnd: Round) -> None:
    for g, n in graphs:
        rnd.record(_product_kappa, kk, g, n)


def witness_direct(kk, graphs, rnd: Round) -> None:
    for g, n in graphs:
        rnd.record(_witnesses, kk, g, n)


class SweepRunner:
    """The sweep CLI entry point in-process, stdout sent to a file.

    Each call of ``sweep.instance_checks`` is one instance. Round 0's stdout
    is kept for the checker; later rounds are compared to it by digest.
    """

    def __init__(self, config_path: Path, stdout_stem: Path):
        self.argv = ["sweep", "--config", str(config_path)]
        self.stdout_stem = stdout_stem
        self.rounds = 0

    def stdout_path(self, index: int) -> Path:
        return self.stdout_stem.with_name(
            f"{self.stdout_stem.name}-{'first' if index == 0 else 'later'}.jsonl")

    def __call__(self, kk, graphs, rnd: Round) -> None:
        from kronkappa import cli, sweep
        path = self.stdout_path(self.rounds)
        self.rounds += 1
        original = sweep.instance_checks
        sweep.instance_checks = rnd.timed(original)
        try:
            with open(path, "w") as handle, contextlib.redirect_stdout(handle):
                code = cli.main(self.argv)
        except Exception as exc:  # noqa: BLE001 - a crashed round fails all its instances
            code = f"{type(exc).__name__}: {exc}"
        finally:
            sweep.instance_checks = original
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        rnd.outputs.append({"exit": code, "sha256": digest, "stdout": str(path)})


def environment() -> dict:
    import numpy
    from kronkappa import _kernels
    try:
        import numba  # noqa: F401
        numba_imported = True
    except ImportError:
        numba_imported = False
    kernel = _kernels.kappa_from_matrix
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "numba_imported": numba_imported,
        # a numba dispatcher is not a plain Python function
        "backend": "python" if type(kernel).__name__ == "function" else "numba",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import kronkappa as kk

    if args.workload == "sweep-exhaustive":
        config_path = args.out.with_suffix(".config.json")
        config_path.write_text(json.dumps(inputs.sweep_config(args.seed)))
        graphs = []
        run_round = SweepRunner(config_path, args.out.with_suffix(""))
    else:
        graphs = [(kk.Graph(case["m"], case["edges"]), case["n"])
                  for case in inputs.cases(args.workload, args.seed)]
        run_round = product_kappa if args.workload == "product-kappa" else witness_direct
    # warm-up: where numba is present this pays the compile or cache load
    kk.kappa(kk.direct_product(kk.complete_graph(3), kk.complete_graph(3)).graph)
    print(f"ready {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    def measured_round(tracer=None) -> Round:
        rnd = Round(tracer)
        cpu, wall = time.process_time(), time.perf_counter()
        run_round(kk, graphs, rnd)
        rnd.cpu_s = time.process_time() - cpu
        rnd.wall_s = time.perf_counter() - wall
        return rnd

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(measured_round())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"env": environment(), "peak_rss_mb": peak_rss_mb,
              "rounds": [r.to_json() for r in rounds]}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measured_round(tracer)
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        layers[OVERHEAD_METRIC] = traced.cpu_s - statistics.median(r.cpu_s for r in rounds)
        result["traced_round"] = traced.to_json()
        result["layers"] = layers
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
