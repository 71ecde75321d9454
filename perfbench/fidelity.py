"""Fidelity ledger: the modelled design against the paper's quoted numbers.

Deterministic model outputs, reduced from the rows that the figure
benchmarks ``benchmarks/bench_fig08_speedup.py``,
``bench_fig09_memory_reduction.py`` and ``bench_fig10_saving_ratio.py``
compute on their own grids:

* ``fig8_speedup_err_pct`` — ``|mean PipeMoE/FasterMoE - 2.26| / 2.26``
  in %, over 3 models x B in {4k, 8k, 16k} on 64 GPUs (paper: 2.26x).
* ``fig9_fastmoe_saving_err_pp`` / ``fig9_fastermoe_saving_err_pp`` —
  mean of the absolute gaps between MPipeMoE's average and maximum
  memory saving and the paper's 23%/40% (vs FastMoE) and 27%/47% (vs
  FasterMoE), in percentage points.
* ``fig10_bound_ratio_max`` — max over the Fig. 10 grid of the metered
  executor's achieved saving divided by the Eq. 6 bound; above 1.0 the
  measurement beats the physics (paper: <= 1.0, ~0.95).
"""

from __future__ import annotations

import pathlib
import sys

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    # The figure benchmarks import their helpers as ``conftest``.
    sys.path.append(str(BENCHMARKS))

import bench_fig08_speedup as fig08  # noqa: E402
import bench_fig09_memory_reduction as fig09  # noqa: E402
import bench_fig10_saving_ratio as fig10  # noqa: E402

PAPER_FIG8_SPEEDUP = 2.26
PAPER_FIG9_FASTMOE = (23.0, 40.0)  # avg / max saving, %
PAPER_FIG9_FASTERMOE = (27.0, 47.0)


def fig8_speedup_err_pct() -> tuple[float, float]:
    """(error %, mean PipeMoE/FasterMoE speedup)."""
    # Rows hold speedups over FastMoE: FasterMoE at [2], PipeMoE at [4].
    speedups = [row[4] / row[2] for row in fig08.compute_speedups()]
    mean = sum(speedups) / len(speedups)
    return abs(mean - PAPER_FIG8_SPEEDUP) / PAPER_FIG8_SPEEDUP * 100, mean


def fig9_saving_errs_pp() -> dict[str, tuple[float, float, float]]:
    """Per baseline: (error pp, avg saving %, max saving %)."""
    # Rows hold memory normalized to FastMoE: FasterMoE at [2], MPipeMoE at [4].
    rows = fig09.compute()
    out = {}
    for baseline, paper, savings in (
        ("fastmoe", PAPER_FIG9_FASTMOE, [100 * (1 - r[4]) for r in rows]),
        ("fastermoe", PAPER_FIG9_FASTERMOE, [100 * (1 - r[4] / r[2]) for r in rows]),
    ):
        avg, top = sum(savings) / len(savings), max(savings)
        out[baseline] = ((abs(avg - paper[0]) + abs(top - paper[1])) / 2, avg, top)
    return out


def fig10_bound_ratio_max() -> float:
    # Rows are (model, n, B, theoretical, achieved, achieved/theoretical).
    return max(row[5] for row in fig10.compute() if row[3])


def ledger() -> tuple[dict[str, float], list[str]]:
    """The four fidelity metrics and a printable line per paper figure."""
    fig8, mean = fig8_speedup_err_pct()
    fig9 = fig9_saving_errs_pp()
    fig10_max = fig10_bound_ratio_max()
    metrics = {
        "fig8_speedup_err_pct": fig8,
        "fig9_fastmoe_saving_err_pp": fig9["fastmoe"][0],
        "fig9_fastermoe_saving_err_pp": fig9["fastermoe"][0],
        "fig10_bound_ratio_max": fig10_max,
    }
    lines = [
        f"Fig. 8  PipeMoE/FasterMoE speedup  model {mean:.3f}x   "
        f"paper {PAPER_FIG8_SPEEDUP}x        err {fig8:.2f}%",
    ]
    for baseline, paper in (("fastmoe", PAPER_FIG9_FASTMOE),
                            ("fastermoe", PAPER_FIG9_FASTERMOE)):
        err, avg, top = fig9[baseline]
        lines.append(
            f"Fig. 9  saving vs {baseline:<9} model {avg:.1f}%/{top:.1f}%  "
            f"paper {paper[0]:g}%/{paper[1]:g}%  err {err:.2f} pp (avg/max)"
        )
    lines.append(
        f"Fig. 10 achieved / Eq. 6 bound     model max {fig10_max:.3f}  "
        f"paper <= 1.0 (~0.95)"
    )
    return metrics, lines
