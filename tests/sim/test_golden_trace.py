"""Golden-trace regression tests pinning the engine's realized schedules.

The expected values were captured from the original (pre-fast-path)
fluid engine and are asserted on both the production :class:`SimEngine`
and the retained :class:`ReferenceSimEngine`, proving the event-heap
rewrite is behaviour-preserving op by op.

The no-interference DAG uses dyadic work values, so its trace is bitwise
reproducible and compared with ``==``.  The interference timeline
involves non-dyadic rates (0.72, 0.96, ...) whose accumulation order
differs legitimately between the two engines; it is pinned to 1e-12.
"""

import pytest

from repro.hardware.interference import InterferenceModel
from repro.pipeline.schedule import build_timeline, compile_timeline
from repro.sim.engine import ReferenceSimEngine, SimEngine, compile_dag

from .golden_dags import GOLDEN_COSTS, exact_dag, interference_timeline

NO_INTERFERENCE = InterferenceModel(
    table={(v, i): 1.0 for v in ("comp", "comm", "mem")
           for i in ("comp", "comm", "mem", "all")}
)

ENGINES = [SimEngine, ReferenceSimEngine]

#: (name, device) -> (start, end), captured from the pre-PR engine.
EXACT_GOLDEN = {
    ("a", 0): (0.0, 1.0),
    ("b", 0): (1.0, 1.5),
    ("c", 0): (0.0, 2.0),
    ("i", 0): (3.0, 3.25),
    ("d", 1): (1.0, 1.25),
    ("e", 1): (1.25, 2.25),
    ("z", 1): (2.25, 2.25),
    ("f", 2): (2.25, 3.0),
    ("g", 2): (0.0, 1.5),
    ("h", 2): (2.0, 2.5),
}
EXACT_MAKESPAN = 3.25

INTERFERENCE_GOLDEN = {
    ("C0", 0): (1.0, 3.062793427230047),
    ("C1", 0): (3.062793427230047, 5.147300469483568),
    ("Cb0", 0): (7.984800469483568, 11.05082159624413),
    ("Cb1", 0): (11.05082159624413, 14.106377151799686),
    ("D_tdi0", 0): (1.0, 1.352112676056338),
    ("D_tdi1", 0): (4.471244131455399, 4.726346172271725),
    ("D_tm0", 0): (3.062793427230047, 4.471244131455399),
    ("D_tm1", 0): (5.147300469483568, 6.397300469483568),
    ("H_tdi0", 0): (6.422300469483568, 6.734800469483568),
    ("H_tdi1", 0): (7.984800469483568, 8.336913145539906),
    ("H_tm0", 0): (6.734800469483568, 7.984800469483568),
    ("H_tm1", 0): (8.336913145539906, 9.563468908690236),
    ("R0", 0): (3.062793427230047, 4.471244131455399),
    ("R1", 0): (5.147300469483568, 6.422300469483568),
    ("Rb0", 0): (6.422300469483568, 7.70435175153485),
    ("Rb1", 0): (7.70435175153485, 9.085152582159624),
    ("S0", 0): (0.0, 1.0),
    ("S1", 0): (1.0, 2.3937793427230045),
    ("Sb0", 0): (11.05082159624413, 12.43971048513302),
    ("Sb1", 0): (14.106377151799686, 15.106377151799686),
    ("loss", 0): (6.422300469483568, 6.422300469483568),
    ("C0", 1): (1.0, 3.0555555555555554),
    ("C1", 1): (3.0555555555555554, 5.111111111111111),
    ("Cb0", 1): (8.11111111111111, 11.666666666666666),
    ("Cb1", 1): (13.666666666666666, 17.166666666666664),
    ("R0", 1): (3.0555555555555554, 4.444444444444445),
    ("R1", 1): (5.111111111111111, 6.111111111111111),
    ("Rb0", 1): (6.111111111111111, 7.111111111111112),
    ("Rb1", 1): (8.11111111111111, 9.5),
    ("S'_0", 1): (7.111111111111112, 8.11111111111111),
    ("S'_1", 1): (12.666666666666666, 13.666666666666666),
    ("S0", 1): (0.0, 1.0),
    ("S1", 1): (1.0, 2.388888888888889),
    ("Sb0", 1): (11.666666666666666, 12.666666666666666),
    ("Sb1", 1): (17.166666666666664, 18.166666666666664),
    ("loss", 1): (6.111111111111111, 6.111111111111111),
}
INTERFERENCE_MAKESPAN = 18.166666666666664


def trace_of(result):
    got = {(r.name, r.device): (r.start, r.end) for r in result.records}
    assert len(got) == len(result.records), "duplicate (name, device) in trace"
    return got


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestGoldenTraces:
    def test_exact_dag_trace(self, engine_cls):
        res = engine_cls(NO_INTERFERENCE).run(exact_dag())
        assert res.makespan == EXACT_MAKESPAN
        assert trace_of(res) == EXACT_GOLDEN

    def test_interference_timeline_trace(self, engine_cls):
        res = engine_cls().run(interference_timeline())
        assert res.makespan == pytest.approx(INTERFERENCE_MAKESPAN, rel=1e-12)
        got = trace_of(res)
        assert set(got) == set(INTERFERENCE_GOLDEN)
        for key, (start, end) in INTERFERENCE_GOLDEN.items():
            assert got[key][0] == pytest.approx(start, rel=1e-12, abs=1e-12), key
            assert got[key][1] == pytest.approx(end, rel=1e-12, abs=1e-12), key


class TestEngineModesAgree:
    """Every engine mode — recorded, makespan(), compiled, reference —
    must realize the same (golden) makespan on the pinned DAGs."""

    def _makespans(self, build, interference=None):
        fast = SimEngine(interference)
        return {
            "recorded": fast.run(build()).makespan,
            "makespan()": fast.makespan(build()),
            "compiled": fast.compiled_makespan(compile_dag(build())),
            "compiled_recorded": fast.run_compiled(
                compile_dag(build()), record=True
            ).makespan,
            "reference": ReferenceSimEngine(interference).run(build()).makespan,
        }

    def test_exact_dag_all_modes(self):
        got = self._makespans(exact_dag, NO_INTERFERENCE)
        assert got == {mode: EXACT_MAKESPAN for mode in got}

    def test_interference_timeline_all_modes(self):
        got = self._makespans(interference_timeline)
        # The fast-engine modes agree bit-exactly with each other.
        fast_modes = {v for k, v in got.items() if k != "reference"}
        assert len(fast_modes) == 1
        for mode, value in got.items():
            assert value == pytest.approx(INTERFERENCE_MAKESPAN, rel=1e-12), mode

    def test_compiled_timeline_equals_op_dag_on_golden_costs(self):
        """compile_timeline prices exactly what build_timeline + run price,
        for every (n, strategy, ablation-flag) topology."""
        engine = SimEngine()
        for n in (1, 2, 4):
            for strategy in ("none", "S1", "S2", "S3", "S4"):
                for decomposed in (False, True):
                    for sequential in (False, True):
                        ops = build_timeline(
                            GOLDEN_COSTS, n, strategy,
                            decomposed_comm=decomposed, sequential=sequential,
                        )
                        compiled = compile_timeline(
                            n, strategy,
                            decomposed_comm=decomposed, sequential=sequential,
                        )
                        assert compiled.makespan(GOLDEN_COSTS, engine) == engine.run(
                            ops
                        ).makespan, (n, strategy, decomposed, sequential)

    def test_compiled_recorded_trace_is_the_golden_trace(self):
        dag = compile_dag(interference_timeline())
        res = SimEngine().run_compiled(dag, record=True)
        got = trace_of(res)
        assert set(got) == set(INTERFERENCE_GOLDEN)
        for key, (start, end) in INTERFERENCE_GOLDEN.items():
            assert got[key][0] == pytest.approx(start, rel=1e-12, abs=1e-12), key
            assert got[key][1] == pytest.approx(end, rel=1e-12, abs=1e-12), key


class TestEnginesAgree:
    """The fast path and the reference must realize identical schedules
    on randomized layered DAGs, not just the two pinned ones."""

    def test_random_dags_identical_schedules(self):
        import random

        from repro.hardware.interference import StreamKind
        from repro.sim.engine import Op

        rng = random.Random(7)
        kinds = list(StreamKind)
        for trial in range(6):
            ops: list[Op] = []
            layers: list[list[Op]] = []
            for layer in range(5):
                row = []
                for k in range(rng.randint(2, 6)):
                    deps = ()
                    if layers:
                        pool = layers[-1]
                        deps = tuple(
                            rng.sample(pool, rng.randint(0, min(2, len(pool))))
                        )
                    work = rng.choice([0.0, 0.25, 0.5, 1.0, 1.75, 3.0])
                    row.append(
                        Op(
                            f"t{trial}l{layer}k{k}",
                            rng.randrange(3),
                            rng.choice(kinds),
                            work,
                            deps,
                        )
                    )
                ops += row
                layers.append(row)
            fast = SimEngine().run(ops)
            ref = ReferenceSimEngine().run(ops)
            assert fast.makespan == pytest.approx(ref.makespan, rel=1e-9)
            assert trace_of(fast).keys() == trace_of(ref).keys()
            ref_trace = trace_of(ref)
            for key, (start, end) in trace_of(fast).items():
                assert start == pytest.approx(ref_trace[key][0], rel=1e-9, abs=1e-12)
                assert end == pytest.approx(ref_trace[key][1], rel=1e-9, abs=1e-12)
