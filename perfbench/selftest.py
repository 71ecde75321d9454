"""Self-test of the benchmark, in a quick mode (a few minutes).

Checks that:

1. each workload's untraced run, and a traced run, print every metric
   ``BENCHMARK.json`` names, with its unit, and pass their own checks;
2. every output check fires on a deliberately corrupted result:
   paper-study's warm/cold JSON identity, grid-scan's bit-for-bit
   serial re-pricing and re-scan identity, skew-queries' Eq. 5 memory
   check, and failure rows;
3. changing the seed changes the skew-queries stream (and the same seed
   repeats it);
4. without the ``src/`` tree next to it the benchmark exits non-zero and
   prints no result.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    GridScan, Ledger, PaperStudy, SkewQueries, WORKLOADS, run_query,
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def result_line(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group, trace in (("end_to_end", 0), ("per_layer", 1)):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        names = WORKLOADS if trace == 0 else ("grid-scan",)
        for workload in names:
            code, result = result_line([
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace),
            ])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{workload} --trace {trace}: every {group} "
                                  f"metric with its unit")
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload} --trace {trace}: output checks pass")


def _nudged(row, key: str):
    """The row with one float value moved by one ulp (or set, if int)."""
    values = dict(row.values)
    value = values[key]
    values[key] = math.nextafter(value, math.inf) if isinstance(value, float) \
        else value + 1
    return dataclasses.replace(row, values=values)


def _fires(check, *args) -> bool:
    ledger = Ledger()
    check(*args, ledger)
    return ledger.failed > 0


def check_checks_fire(workdir: pathlib.Path) -> None:
    from repro.api import ResultSet

    paper = PaperStudy(1, workdir)
    cache_dir = workdir / "paper"
    cold = paper.study(cache_dir).run()
    warm = paper.study(cache_dir).run()
    expect(not _fires(paper.check_warm, cold.to_json(), warm),
           "paper-study warm check passes on real results")
    corrupt = ResultSet([_nudged(warm[0], "iteration_time"), *warm[1:]])
    expect(_fires(paper.check_warm, cold.to_json(), corrupt),
           "paper-study warm check fires on one corrupted value")

    grid = GridScan(1, workdir)
    grid.check_sample = 16
    timeline, eq10 = grid.scan()
    expect(not _fires(grid.check_serial, timeline, eq10),
           "grid-scan serial check passes on real results")
    corrupt = ResultSet([_nudged(row, "makespan") for row in timeline])
    expect(_fires(grid.check_serial, corrupt, eq10),
           "grid-scan serial check fires on one-ulp makespan changes")
    expect(not _fires(grid.check_same, timeline, eq10)
           and not _fires(grid.check_same, timeline, eq10),
           "grid-scan re-scan check passes on an identical re-scan")
    corrupt = ResultSet([_nudged(timeline[0], "makespan"), *timeline[1:]])
    expect(_fires(grid.check_same, corrupt, eq10),
           "grid-scan re-scan check fires on one one-ulp makespan change")

    skew = SkewQueries(1, workdir)
    objective, scenario = next(
        (o, sc) for o, sc in skew.stream(1) if o == "eq10"
    )
    results = run_query(objective, scenario)
    expect(not _fires(skew.check_query, results),
           "skew-queries Eq. 5 check passes on a real query")
    row = results[0]
    over = dict(row.values, feasible=True, memory_bytes=10**15)
    corrupt = ResultSet([dataclasses.replace(row, values=over)])
    expect(_fires(skew.check_query, corrupt),
           "skew-queries Eq. 5 check fires on a point over device memory")
    failed = ResultSet([dataclasses.replace(row, ok=False, values={},
                                            error={"type": "ScenarioError"})])
    expect(_fires(skew.check_query, failed),
           "a failure row counts as a failed operation")


def check_seeded_stream() -> None:
    def stream(seed):
        return [(o, sc) for o, sc in SkewQueries(seed, None).stream(2)]

    expect(stream(1) == stream(1), "the same seed repeats the skew-queries stream")
    expect(stream(1) != stream(2), "another seed changes the skew-queries stream")


def check_bare_directory(workdir: pathlib.Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grid-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    printed_result = '"metrics"' in done.stdout
    expect(done.returncode != 0 and not printed_result,
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    workdir = run.OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    layers.REPS = 1
    run.SETUP_SAMPLES = 1
    try:
        print("metric names and units:")
        check_metric_names()
        print("output checks fire on corrupted results:")
        check_checks_fire(workdir)
        print("seeded inputs:")
        check_seeded_stream()
        print("bare directory:")
        check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failure(s)" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
