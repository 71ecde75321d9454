"""Placement contracts: row conservation and contiguous byte-identity.

Two laws keep the placement refactor honest:

1. **Conservation** — the per-rank row vector sums to the routed total
   for *every* placement, skew and geometry (including ``E % W != 0``
   and ``W > E``): placement moves rows, it never creates or drops them.
2. **Contiguous == seed** — the contiguous strategy is *defined* as the
   pre-placement model, so a workload carrying the default
   :class:`PlacementSpec` must price byte-identically to one carrying
   no placement at all, through every layer: the stage costs, all four
   fast engine modes, the warm and cold evaluator paths, the Eq. 10
   closed form, and the sweep's serialized scenarios.
"""

import json
from dataclasses import replace

import pytest

from repro.comm.cost import NcclCostModel
from repro.config import DGX_A100_CLUSTER, MOE_GPT3_S, MOE_GPT3_XL
from repro.hardware.device import A100_SXM_40GB
from repro.hardware.topology import ClusterTopology
from repro.perfmodel.cost import HardwareRates, PerfModel
from repro.perfmodel.placement import PlacementSpec
from repro.perfmodel.workload import WorkloadSpec
from repro.pipeline.schedule import MoEStageCosts, build_timeline, compile_timeline
from repro.sim.engine import SimEngine, compile_dag
from repro.systems.base import SystemContext

#: (E, W) geometries: divisible, E % W != 0, and W > E.
GEOMETRIES = ((8, 4), (8, 3), (5, 3), (3, 8), (64, 64))
SKEWS = (1.0, 2.0, 4.0, 16.0)
PLACEMENTS = (
    PlacementSpec.contiguous(),
    PlacementSpec.round_robin(),
    PlacementSpec.shadowed(),
)


def geometry_spec(num_experts: int):
    return replace(MOE_GPT3_S, name=f"geom-E{num_experts}",
                   num_experts=num_experts)


class TestRankRowConservation:
    @pytest.mark.parametrize("num_experts,world", GEOMETRIES)
    @pytest.mark.parametrize("imbalance", SKEWS)
    def test_every_placement_conserves_routed_rows(
        self, num_experts, world, imbalance
    ):
        spec = geometry_spec(num_experts)
        batch = 4096
        for placement in PLACEMENTS:
            if placement.strategy == "shadowed" and world < 2:
                continue
            wl = WorkloadSpec(imbalance=imbalance, placement=placement)
            load = wl.load(spec, batch, world)
            assert sum(load.rank_rows()) == pytest.approx(
                load.routed_rows, rel=1e-12
            ), (num_experts, world, imbalance, placement.strategy)

    @pytest.mark.parametrize("num_experts,world", GEOMETRIES)
    def test_explicit_placements_conserve_too(self, num_experts, world):
        spec = geometry_spec(num_experts)
        # A deliberately lopsided explicit map (everything reversed).
        assignment = tuple(
            (world - 1) - (e % world) for e in range(num_experts)
        )
        wl = WorkloadSpec(
            imbalance=4.0, placement=PlacementSpec.explicit(assignment)
        )
        load = wl.load(spec, 8191, world)  # non-divisible batch
        assert sum(load.rank_rows()) == pytest.approx(
            load.routed_rows, rel=1e-12
        )

    @pytest.mark.parametrize("num_experts,world", GEOMETRIES)
    def test_anchored_rows_cover_device_rows(self, num_experts, world):
        """The scalar the pricing layers consume is the worst anchored
        rank (up to its ceil) — never more, never less."""
        spec = geometry_spec(num_experts)
        for placement in PLACEMENTS:
            if placement.strategy == "shadowed" and world < 2:
                continue
            wl = WorkloadSpec(imbalance=4.0, placement=placement)
            load = wl.load(spec, 4096, world)
            worst = max(load.anchored_rank_rows())
            if placement.is_default:
                # Default contiguous runs the scalar seed path.
                assert load.placement is None
                worst = max(
                    wl.load(spec, 4096, world).device_rows, worst
                )
            else:
                import math

                assert load.device_rows == max(
                    load.routed_rows
                    if load.placement.shadow is None else 1,
                    math.ceil(worst),
                )

    def test_uniform_routing_anchors_every_hosting_rank_to_routed(self):
        spec = geometry_spec(8)
        wl = WorkloadSpec(placement=PlacementSpec.round_robin())
        load = wl.load(spec, 2048, 3)
        for rows, count in zip(
            load.anchored_rank_rows(), load.effective_placement().counts()
        ):
            if count:
                assert rows == pytest.approx(2048.0)
            else:
                assert rows == 0.0


NO_PLACEMENT = WorkloadSpec(imbalance=4.0)
CONTIGUOUS = WorkloadSpec(imbalance=4.0, placement=PlacementSpec.contiguous())


class TestContiguousIsTheSeedModel:
    """Default-contiguous workloads take the exact pre-placement paths."""

    @pytest.mark.parametrize("spec", [MOE_GPT3_S, MOE_GPT3_XL],
                             ids=lambda s: s.name)
    def test_stage_costs_identical(self, spec):
        comm = NcclCostModel(ClusterTopology(DGX_A100_CLUSTER), 64)
        for batch in (4096, 16383):
            a = MoEStageCosts.compute(
                spec, batch, 4, A100_SXM_40GB, comm, workload=NO_PLACEMENT
            )
            b = MoEStageCosts.compute(
                spec, batch, 4, A100_SXM_40GB, comm, workload=CONTIGUOUS
            )
            assert a == b, (spec.name, batch)

    def test_all_four_engine_modes_identical(self):
        """recorded / makespan() / compiled realize the
        same number for the contiguous and the placement-free timeline."""
        comm = NcclCostModel(ClusterTopology(DGX_A100_CLUSTER), 64)
        engine = SimEngine()
        makespans = {}
        for tag, workload in (("none", NO_PLACEMENT), ("contig", CONTIGUOUS)):
            costs = MoEStageCosts.compute(
                MOE_GPT3_XL, 8192, 4, A100_SXM_40GB, comm, workload=workload
            )
            ops = build_timeline(costs, 4, "S1")
            makespans[tag] = {
                "recorded": engine.run(ops).makespan,
                "makespan()": engine.makespan(ops),
                "compiled": engine.compiled_makespan(compile_dag(ops)),
            }
        assert makespans["none"] == makespans["contig"]
        assert len(set(makespans["none"].values())) == 1

    def test_warm_and_cold_evaluator_paths_identical(self):
        ctx = SystemContext(world_size=64)
        cold = SystemContext(world_size=64)
        cold.evaluator.enabled = False
        for evaluator in (ctx.evaluator, cold.evaluator):
            for strategy in ("none", "S1", "S4"):
                a = evaluator.makespan(
                    MOE_GPT3_XL, 8192, 4, strategy, workload=NO_PLACEMENT
                )
                b = evaluator.makespan(
                    MOE_GPT3_XL, 8192, 4, strategy, workload=CONTIGUOUS
                )
                assert a == b, (strategy, evaluator.enabled)

    def test_eq10_iteration_costs_identical(self):
        from repro.memory.strategies import STRATEGIES

        comm = NcclCostModel(ClusterTopology(DGX_A100_CLUSTER), 64)
        rates = HardwareRates.from_cluster(A100_SXM_40GB, comm)
        a = PerfModel(MOE_GPT3_XL, rates, workload=NO_PLACEMENT,
                      world_size=64)
        b = PerfModel(MOE_GPT3_XL, rates, workload=CONTIGUOUS,
                      world_size=64)
        for name, strategy in STRATEGIES.items():
            assert a.iteration_cost(strategy, 8192, 4) == \
                b.iteration_cost(strategy, 8192, 4), name

    def test_contiguous_scenarios_price_like_placement_free_ones(self):
        from repro.sweep import Scenario, evaluate_timeline

        base = dict(system="timeline", spec="GPT-XL", world_size=64,
                    batch=8192, n=4, strategy="S1", imbalance=4.0)
        free = evaluate_timeline(Scenario(**base))
        contig = evaluate_timeline(Scenario(**base, placement="contiguous"))
        assert contig["makespan"] == free["makespan"]

    def test_placement_free_scenarios_serialize_without_the_field(self):
        """Old cache entries, digests and result JSON stay byte-stable:
        placement=None is omitted from every serialized payload."""
        from repro.sweep import Scenario
        from repro.sweep.grid import scenario_payload

        base = dict(system="timeline", spec="GPT-S", world_size=8,
                    batch=1024, n=1, strategy="S1")
        free = Scenario(**base)
        payload = scenario_payload(free)
        assert "placement" not in payload
        assert Scenario(**payload) == free
        placed = Scenario(**base, placement="round_robin")
        assert scenario_payload(placed)["placement"] == "round_robin"
        assert placed.key() != free.key()
        # And the digest is a pure function of the payload JSON.
        assert free.key() == Scenario(**base, placement=None).key()

    def test_non_default_placement_changes_the_price_under_skew(self):
        """The refactor is not a no-op: a placement that moves the hot
        expert off the fat rank prices differently once skew exists."""
        ctx = SystemContext(world_size=4)
        spec = geometry_spec(8)
        skew = WorkloadSpec(
            imbalance=8.0, placement=PlacementSpec.round_robin()
        )
        a = ctx.evaluator.makespan(spec, 4096, 2, "S1", workload=NO_PLACEMENT)
        b = ctx.evaluator.makespan(spec, 4096, 2, "S1", workload=skew)
        assert a != b


class TestPlacedSweepPaths:
    def test_batched_and_serial_placed_scenarios_agree(self):
        """Placed scenarios ride the scalar fallback inside the batched
        evaluator — same numbers as the serial path, to the last bit."""
        from repro.perfmodel.batcheval import batch_evaluate_timeline
        from repro.sweep import Scenario, evaluate_timeline

        scenarios = [
            Scenario(system="timeline", spec="GPT-S", world_size=8,
                     batch=batch, n=n, strategy="S1", imbalance=4.0,
                     placement=placement)
            for batch in (1024, 2048)
            for n in (1, 2)
            for placement in (None, "contiguous", "round_robin", "shadowed")
        ]
        batched = batch_evaluate_timeline(scenarios)
        serial = [evaluate_timeline(s) for s in scenarios]

        def physical(row):
            # Cache provenance legitimately differs between the batched
            # and the serial pass; the priced values must not.
            return {k: v for k, v in row.items() if k != "_evaluator_cache"}

        assert [physical(r) for r in batched] == \
            [physical(r) for r in serial]

    def test_optimized_scenarios_lower_to_an_explicit_assignment(self):
        from repro.sweep import Scenario, evaluate_timeline, scenario_workload

        sc = Scenario(system="timeline", spec="GPT-S", world_size=8,
                      batch=2048, n=2, strategy="S1", imbalance=4.0,
                      straggler="single-slow-gpu", severity=0.5,
                      placement="optimized")
        wl = scenario_workload(sc)
        assert wl is not None and wl.placement.strategy == "explicit"
        # The hot expert (index 0) avoids the 0.5x rank 0.
        assert wl.placement.assignment[0] != 0
        out = evaluate_timeline(sc)
        degraded = evaluate_timeline(replace(sc, placement=None))
        assert out["makespan"] < degraded["makespan"]
