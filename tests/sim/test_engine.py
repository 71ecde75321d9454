"""Fluid discrete-event engine semantics."""

import struct

import pytest

from repro.comm.cost import NcclCostModel
from repro.config import DGX_A100_CLUSTER, MOE_GPT3_XL
from repro.hardware.device import A100_SXM_40GB
from repro.hardware.hetero import DeviceRates, DeviceRateTable
from repro.hardware.interference import InterferenceModel, StreamKind
from repro.hardware.topology import ClusterTopology
from repro.pipeline.schedule import MoEStageCosts, build_timeline, compile_timeline
from repro.sim.engine import (
    Op,
    SimEngine,
    SimResult,
    compile_dag,
    replay_schedule,
)

COMP, COMM, MEM = StreamKind.COMP, StreamKind.COMM, StreamKind.MEM

#: Interference-free model so timing assertions are exact.
NO_INTERFERENCE = InterferenceModel(
    table={(v, i): 1.0 for v in ("comp", "comm", "mem")
           for i in ("comp", "comm", "mem", "all")}
)


def run(ops, interference=None):
    return SimEngine(interference or NO_INTERFERENCE).run(ops)


class TestBasics:
    def test_single_op(self):
        res = run([Op("a", 0, COMP, 2.0)])
        assert res.makespan == pytest.approx(2.0)

    def test_lane_fifo_serializes(self):
        a = Op("a", 0, COMP, 1.0)
        b = Op("b", 0, COMP, 1.0)
        res = run([a, b])
        assert res.makespan == pytest.approx(2.0)
        recs = {r.name: r for r in res.records}
        assert recs["b"].start == pytest.approx(recs["a"].end)

    def test_different_lanes_overlap(self):
        res = run([Op("a", 0, COMP, 1.0), Op("b", 0, COMM, 1.0)])
        assert res.makespan == pytest.approx(1.0)

    def test_different_devices_overlap(self):
        res = run([Op("a", 0, COMP, 1.0), Op("b", 1, COMP, 1.0)])
        assert res.makespan == pytest.approx(1.0)

    def test_dependency_enforced(self):
        a = Op("a", 0, COMP, 1.0)
        b = Op("b", 0, COMM, 1.0, deps=(a,))
        res = run([a, b])
        assert res.makespan == pytest.approx(2.0)

    def test_zero_work_op_is_pure_dependency(self):
        a = Op("a", 0, COMP, 1.0)
        barrier = Op("x", 0, COMP, 0.0, deps=(a,))
        b = Op("b", 0, COMM, 1.0, deps=(barrier,))
        res = run([a, barrier, b])
        assert res.makespan == pytest.approx(2.0)

    def test_zero_work_chain(self):
        a = Op("a", 0, COMP, 0.0)
        b = Op("b", 0, COMP, 0.0, deps=(a,))
        c = Op("c", 0, COMP, 0.5, deps=(b,))
        assert run([a, b, c]).makespan == pytest.approx(0.5)


class TestPipelineShapes:
    def test_two_stage_pipeline_overlap(self):
        # 4 micro-batches through comm->comp: makespan = comm + n*comp
        # when comp is the bottleneck and lanes overlap perfectly.
        n, tc, tp = 4, 1.0, 2.0
        ops = []
        prev_comm = None
        for j in range(n):
            deps = []
            s = Op(f"s{j}", 0, COMM, tc, tuple(deps))
            c = Op(f"c{j}", 0, COMP, tp, (s,))
            ops += [s, c]
            prev_comm = s
        res = run(ops)
        assert res.makespan == pytest.approx(tc + n * tp)

    def test_sequential_vs_pipelined(self):
        def mk(seq):
            ops = []
            prev = None
            for j in range(3):
                deps = [prev] if (seq and prev is not None) else []
                s = Op(f"s{j}", 0, COMM, 1.0, tuple(deps))
                c = Op(f"c{j}", 0, COMP, 1.0, (s,))
                ops += [s, c]
                prev = c
            return ops

        assert run(mk(True)).makespan == pytest.approx(6.0)
        assert run(mk(False)).makespan == pytest.approx(4.0)


class TestInterference:
    def test_paper_interference_slows_comm(self):
        # comm alongside comp runs at 0.72 of full speed.
        a = Op("comm", 0, COMM, 0.72)
        b = Op("comp", 0, COMP, 10.0)
        res = SimEngine().run([a, b])
        recs = {r.name: r for r in res.records}
        assert recs["comm"].duration == pytest.approx(1.0, rel=1e-6)

    def test_rates_change_when_lane_goes_idle(self):
        # comp also slows (0.96) next to comm; once comp finishes, the
        # remaining comm work runs at full speed.
        comp = Op("comp", 0, COMP, 1.0)
        comm = Op("comm", 0, COMM, 1.0)
        res = SimEngine().run([comp, comm])
        recs = {r.name: r for r in res.records}
        comp_end = 1.0 / 0.96
        expected = comp_end + (1.0 - 0.72 * comp_end)
        assert recs["comp"].end == pytest.approx(comp_end, rel=1e-6)
        assert recs["comm"].end == pytest.approx(expected, rel=1e-6)

    def test_interference_is_per_device(self):
        a = Op("comm", 0, COMM, 1.0)
        b = Op("comp", 1, COMP, 1.0)
        res = SimEngine().run([a, b])
        assert res.makespan == pytest.approx(1.0)


class TestValidation:
    def test_cycle_detected(self):
        a = Op("a", 0, COMP, 1.0)
        b = Op("b", 0, COMM, 1.0, deps=(a,))
        a.deps = (b,)
        with pytest.raises(ValueError, match="cycle"):
            run([a, b])

    def test_missing_dep_detected(self):
        ghost = Op("ghost", 0, COMP, 1.0)
        a = Op("a", 0, COMP, 1.0, deps=(ghost,))
        with pytest.raises(ValueError, match="not submitted"):
            run([a])

    def test_duplicate_op_detected(self):
        a = Op("a", 0, COMP, 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            run([a, a])

    def test_copied_op_sharing_uid_detected(self):
        import dataclasses

        a = Op("a", 0, COMP, 1.0)
        b = dataclasses.replace(a, name="b", work=2.0)  # copies uid
        with pytest.raises(ValueError, match="uid"):
            run([a, b])

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            Op("a", 0, COMP, -1.0)


def _pipeline_dag():
    """A small multi-lane DAG with deps, a zero-work barrier, and FIFO heads."""
    a = Op("a", 0, COMP, 1.0)
    b = Op("b", 0, COMM, 0.5, deps=(a,))
    x = Op("x", 0, COMP, 0.0, deps=(b,))
    c = Op("c", 1, COMP, 2.0, deps=(x,))
    d = Op("d", 1, MEM, 0.25, deps=(c,))
    e = Op("e", 0, COMP, 0.75)
    return [a, b, x, c, d, e]


class TestMakespanMode:
    def test_no_records_same_makespan(self):
        ops = _pipeline_dag()
        full = SimEngine().run(_pipeline_dag())
        bare = SimEngine().run_compiled(compile_dag(ops))
        assert bare.makespan == full.makespan
        assert bare.records == []

    def test_makespan_convenience(self):
        assert SimEngine().makespan(_pipeline_dag()) == SimEngine().run(
            _pipeline_dag()
        ).makespan

    def test_reference_makespan_parity(self):
        from repro.sim.engine import ReferenceSimEngine

        got = ReferenceSimEngine().makespan(_pipeline_dag())
        assert got == pytest.approx(SimEngine().makespan(_pipeline_dag()), rel=1e-9)

    def test_interference_still_applied(self):
        a = Op("comm", 0, COMM, 0.72)
        b = Op("comp", 0, COMP, 10.0)
        assert SimEngine().makespan([a, b]) == pytest.approx(
            SimEngine().run([Op("comm", 0, COMM, 0.72), Op("comp", 0, COMP, 10.0)])
            .makespan
        )


class TestCompiledDag:
    def test_matches_op_run_exactly(self):
        ops = _pipeline_dag()
        dag = compile_dag(ops)
        assert SimEngine().compiled_makespan(dag) == SimEngine().run(ops).makespan

    def test_works_override_reprices_same_topology(self):
        ops = [Op("a", 0, COMP, 1.0), Op("b", 0, COMP, 1.0)]
        dag = compile_dag(ops)
        engine = SimEngine(NO_INTERFERENCE)
        assert engine.compiled_makespan(dag) == pytest.approx(2.0)
        assert engine.compiled_makespan(dag, [3.0, 4.0]) == pytest.approx(7.0)
        # The original default vector is untouched by overrides.
        assert engine.compiled_makespan(dag) == pytest.approx(2.0)

    def test_zero_work_override_acts_as_barrier(self):
        a = Op("a", 0, COMP, 1.0)
        b = Op("b", 0, COMM, 1.0, deps=(a,))
        dag = compile_dag([a, b])
        engine = SimEngine(NO_INTERFERENCE)
        assert engine.compiled_makespan(dag, [0.0, 1.0]) == pytest.approx(1.0)

    def test_recorded_compiled_trace_matches_op_run(self):
        ops = _pipeline_dag()
        dag = compile_dag(ops)
        via_ops = SimEngine().run(ops)
        via_dag = SimEngine().run_compiled(dag, record=True)
        assert via_dag.makespan == via_ops.makespan
        assert via_dag.records == via_ops.records

    def test_work_count_mismatch_rejected(self):
        dag = compile_dag([Op("a", 0, COMP, 1.0)])
        with pytest.raises(ValueError, match="expected 1 works"):
            SimEngine().compiled_makespan(dag, [1.0, 2.0])

    def test_negative_work_rejected(self):
        dag = compile_dag([Op("a", 0, COMP, 1.0)])
        with pytest.raises(ValueError, match="non-negative"):
            SimEngine().compiled_makespan(dag, [-1.0])

    def test_invalid_dag_rejected_at_compile(self):
        a = Op("a", 0, COMP, 1.0)
        b = Op("b", 0, COMM, 1.0, deps=(a,))
        a.deps = (b,)
        with pytest.raises(ValueError, match="cycle"):
            compile_dag([a, b])


class TestResultQueries:
    def _result(self) -> SimResult:
        a = Op("a", 0, COMP, 2.0)
        b = Op("b", 0, COMP, 1.0, deps=(a,))
        c = Op("c", 0, COMM, 1.0, tag="S")
        return run([a, b, c])

    def test_busy_time_merges_intervals(self):
        res = self._result()
        assert res.device_busy_time(0, COMP) == pytest.approx(3.0)
        assert res.device_busy_time(0) == pytest.approx(3.0)  # comm inside comp span

    def test_utilization(self):
        res = self._result()
        assert res.utilization(0, COMP) == pytest.approx(1.0)
        assert res.utilization(0, COMM) == pytest.approx(1.0 / 3.0)

    def test_by_tag(self):
        res = self._result()
        assert [r.name for r in res.by_tag("S")] == ["c"]


# Every compile_timeline topology the system models price: PipeMoE /
# MPipeMoE at n and S1–S4, FastMoE's sequential chain, FasterMoE's
# decomposed All-to-All.
_TEMPLATES = [
    pytest.param(n, strategy, decomposed, sequential, id=f"n{n}-{label}")
    for n in (1, 2, 4, 8, 16)
    for label, strategy, decomposed, sequential in (
        ("none", "none", False, False),
        ("S1", "S1", False, False),
        ("S2", "S2", False, False),
        ("S3", "S3", False, False),
        ("S4", "S4", False, False),
        ("sequential", "none", False, True),
        ("decomposed", "none", True, False),
    )
]
_RATE_TABLES = [
    pytest.param(None, id="homogeneous"),
    pytest.param(
        DeviceRateTable(entries=((0, DeviceRates(comp=0.5, mem=0.8)),)),
        id="straggler",
    ),
]


@pytest.mark.parametrize("device_rates", _RATE_TABLES)
@pytest.mark.parametrize("n,strategy,decomposed,sequential", _TEMPLATES)
def test_every_entry_point_is_the_compiled_loop(
    n, strategy, decomposed, sequential, device_rates
):
    """run(ops) is the compiled recorded run, and a one-row replay of the
    recorded schedule prices bit-for-bit what compiled_makespan does."""
    comm = NcclCostModel(ClusterTopology(DGX_A100_CLUSTER), 64)
    costs = MoEStageCosts.compute(MOE_GPT3_XL, 8192, n, A100_SXM_40GB, comm)
    flags = dict(decomposed_comm=decomposed, sequential=sequential)
    compiled = compile_timeline(n, strategy, **flags)
    works = compiled.works(costs)
    engine = SimEngine(device_rates=device_rates)

    assert (
        engine.run(build_timeline(costs, n, strategy, **flags)).records
        == engine.run_compiled(compiled.dag, works, record=True).records
    )
    spans, valid = replay_schedule(
        engine.record_compiled_schedule(compiled.dag, works), [works]
    )
    assert valid[0]
    assert struct.pack("<d", float(spans[0])) == struct.pack(
        "<d", engine.compiled_makespan(compiled.dag, works)
    )
