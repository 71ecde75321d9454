"""The repository benchmark: one workload, its metrics, its output checks.

Run from the repository root::

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``paper-study``, ``grid-scan``,
``skew-queries``.  Everything runs in this one process on the ``serial``
backend, except the set-up samples, which are fresh interpreters.

``--trace 0`` measures the end-to-end metrics untraced: set-up time
(median of several fresh interpreters), cold-pass and warm re-run
throughput, closed-loop single-query latency (p50/p90), peak RSS, and
the fidelity ledger against the paper's Figs. 8-10.  Times are in
reference seconds: each timed interval is scaled by a probe run just
before and after it, on the one CPU the run is pinned to (see
``calibrate.py``); the raw figures are kept in the record.

``--trace 1`` is a separate run that records spans around each layer's
entry points and reports the per-layer metrics (see ``layers.py``) with
the tracing overhead.  Either way the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; every output check
counts as an operation and a failing one makes the exit code 1.  A
record with the machine fingerprint is appended to
``.perfbench/records.jsonl``.

``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

#: Fresh interpreters timed per run; their median is ``setup_s``.
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
#: Floor on single-point queries, so p90 keeps ten samples beyond it
#: even in a short window.
MIN_QUERIES = 200

UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "resweep_scenarios_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "fig8_speedup_err_pct": "%",
    "fig9_fastmoe_saving_err_pp": "pp",
    "fig9_fastermoe_saving_err_pp": "pp",
    "fig10_bound_ratio_max": "ratio",
}


def machine_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "probe_s": calibrate.probe_s(),
    }


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(raw seconds, scale) from spawning a fresh interpreter to the
    workload being ready, per sample."""
    times = []
    for _ in range(SETUP_SAMPLES):
        before = calibrate.probe_s()
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.close()
            code = child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        times.append((elapsed, calibrate.scale(before, calibrate.probe_s())))
    return times


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method, as statistics.quantiles)."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(wl, seconds: float, ledger) -> tuple[dict, dict]:
    """The timed window: cold/warm rounds, each followed by a burst of
    single-point queries when the workload issues them."""
    from workloads import Pass, empty_context_pool, run_query

    wl.warm_up()
    queries = wl.queries() if wl.round_share < 1 else None
    start = time.perf_counter()
    # Latencies come from query bursts, or from a query stream's cold passes.
    cold, warm, bursts = [], [], []
    while True:
        round_start = time.perf_counter()
        cold_pass, warm_passes = wl.round(ledger)
        cold.append(cold_pass)
        warm.extend(warm_passes)
        if cold_pass.latencies_ms is not None:
            bursts.append(cold_pass)
        if queries is not None:
            # A burst of single-point queries after every round, so the
            # latencies sample the same stretch of host time as the
            # passes; a short tail of queries alone would catch one
            # moment of a host whose speed drifts.
            burst_s = ((time.perf_counter() - round_start)
                       * (1 - wl.round_share) / wl.round_share)
            empty_context_pool()

            def issue():
                latencies = []
                burst_start = time.perf_counter()
                while time.perf_counter() - burst_start < burst_s:
                    objective, scenario = next(queries)
                    q0 = time.perf_counter()
                    results = run_query(objective, scenario)
                    latencies.append((time.perf_counter() - q0) * 1e3)
                    wl.check_query(results, ledger)
                return latencies

            latencies, wall, scale = calibrate.timed(issue)
            bursts.append(Pass(len(latencies), wall, scale, latencies))
        if (time.perf_counter() - start >= seconds
                and sum(len(p.latencies_ms) for p in bursts) >= MIN_QUERIES):
            break
    scaled = [v * p.scale for p in bursts for v in p.latencies_ms]
    raw = [v for p in bursts for v in p.latencies_ms]
    metrics = {
        "scenarios_per_s": statistics.median(p.rate for p in cold),
        "resweep_scenarios_per_s": statistics.median(p.rate for p in warm),
        "query_p50_ms": statistics.median(scaled),
        "query_p90_ms": percentile(scaled, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "cold_passes": len(cold),
        "warm_passes": len(warm),
        "points_per_cold_pass": cold[0].points,
        "queries": len(scaled),
        "queries_beyond_p90": sum(v > metrics["query_p90_ms"] for v in scaled),
        "median_scale": statistics.median(p.scale for p in (*cold, *warm, *bursts)),
        "raw": {
            "scenarios_per_s": statistics.median(p.raw_rate for p in cold),
            "resweep_scenarios_per_s": statistics.median(p.raw_rate for p in warm),
            "query_p50_ms": statistics.median(raw),
            "query_p90_ms": percentile(raw, 90),
        },
        "cold_walls_s": [p.wall_s for p in cold],
        "warm_walls_s": [p.wall_s for p in warm],
    }
    return metrics, samples


def run_e2e(args, ledger, workdir) -> tuple[dict, dict]:
    setup = measure_setup(args.workload)
    from fidelity import ledger as fidelity_ledger
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir)
    metrics, samples = measure(wl, args.seconds, ledger)
    metrics["setup_s"] = statistics.median(raw * scale for raw, scale in setup)
    samples["raw"]["setup_s"] = statistics.median(raw for raw, _ in setup)
    samples["setup_samples_s"] = setup
    fidelity, lines = fidelity_ledger()
    metrics.update(fidelity)
    print("fidelity ledger (model vs paper):")
    for line in lines:
        print("  " + line)
    print("samples: " + json.dumps(
        {k: v for k, v in samples.items() if not k.endswith("walls_s")}))
    return {name: (metrics[name], UNITS[name]) for name in UNITS}, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-study", "grid-scan", "skew-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and the set-up interpreters it spawns, so
    # each interval runs where its calibration probes ran: on a shared
    # host the vCPUs' speeds drift independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    fingerprint = machine_fingerprint()
    print(f"fingerprint: {json.dumps(fingerprint)}")
    from workloads import Ledger

    ledger = Ledger()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from layers import profile

            metrics, samples = profile(args, ledger, workdir, OUT)
        else:
            metrics, samples = run_e2e(args, ledger, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in ledger.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "timestamp": time.time(),
        "fingerprint": fingerprint, "samples": samples,
        "problems": ledger.problems, **result,
    }
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
