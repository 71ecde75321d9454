"""Benchmark-harness plumbing.

Every ``bench_figXX_*.py`` regenerates one table/figure of the paper's
evaluation (Sec. V).  Results are printed and also persisted to
``benchmarks/results/<name>.txt`` so a ``--benchmark-only`` run leaves
the full set of paper-style tables on disk.  The fidelity ledger that
``perfbench/fidelity.py`` builds from the Fig. 8-10 tables (printed by
``python3 perfbench/run.py --workload paper-study ...``) sets the
headlines against the paper's numbers.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.utils import Table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, table: Table) -> str:
    """Print a figure's table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = table.render()
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}")
    return text


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The quantities of interest are *simulated* times computed by ``fn``;
    wall-clock timing of the harness itself only needs one round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def paper_world():
    """The paper's full testbed: 8 nodes x 8 A100s."""
    from repro.systems.base import SystemContext

    return SystemContext(world_size=64)
