"""Fluid discrete-event engine over per-device stream lanes.

Semantics
---------
* Every :class:`Op` belongs to one ``(device, stream)`` lane.  Ops in a
  lane start in submission order (CUDA stream FIFO).
* An op becomes *ready* when all its dependencies completed and it is at
  the head of its lane.
* All running ops on a device progress simultaneously; the progress rate
  of an op equals the interference slowdown of its stream kind given the
  set of stream kinds currently active on that device (paper Fig. 3).
* The engine advances to the earliest op completion, re-evaluates rates
  (they change when lanes go idle/busy), and repeats — a standard fluid
  simulation.

This reproduces the paper's cost model (Eq. 10) in the steady state
while also capturing pipeline ramp-up/drain effects that the closed-form
max() ignores.

Two implementations share these semantics:

* :class:`SimEngine` — the production engine: one completion-event heap
  loop with lazy invalidation, per-lane head cursors, and interference
  rates recomputed only for devices whose active stream-kind set
  changed.  Per-event cost is O(affected ops + log heap) instead of a
  full rescan.  The loop runs over a :class:`CompiledDag` — the DAG
  topology (lane order, dependency lists, stream kinds) flattened once
  by :func:`compile_dag` into index arrays and re-runnable with
  different per-op work vectors, which is what lets ``build_timeline``
  topologies be compiled per ``(n, strategy)`` and re-priced per
  scenario without reconstructing thousands of :class:`Op` objects.
  Every entry point is that loop: :meth:`SimEngine.run` compiles the
  submitted ops and records a trace, :meth:`SimEngine.compiled_makespan`
  allocates no records, and :meth:`SimEngine.record_compiled_schedule`
  logs the schedule for :func:`replay_schedule`.  Simultaneous
  completions break ties on submission position (for DAGs built and
  submitted in creation order this is the ``Op.uid`` order).
* :class:`ReferenceSimEngine` — the original straight-line fluid loop
  (rescan all lanes and recompute all rates every event).  Kept as the
  behavioural oracle for the golden-trace tests and as the baseline that
  ``benchmarks/bench_sim_engine.py`` measures the fast path against.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Sequence

from repro.hardware.hetero import DeviceRateTable
from repro.hardware.interference import InterferenceModel, PAPER_INTERFERENCE, StreamKind

_EPS = 1e-15


def _active_rate_table(device_rates: DeviceRateTable | None) -> DeviceRateTable | None:
    """Collapse identity tables to ``None`` — the homogeneous fast path.

    A degenerate heterogeneous spec (every multiplier 1.0) must run the
    exact seed code path, bit for bit; dropping the table here is what
    guarantees it.
    """
    if device_rates is not None and device_rates.is_identity:
        return None
    return device_rates


@dataclass
class Op:
    """One kernel-granularity operation in the simulated timeline."""

    name: str
    device: int
    stream: StreamKind
    work: float  # seconds at unimpeded speed
    deps: tuple["Op", ...] = ()
    tag: str = ""  # free-form grouping label (e.g. "S", "C", "R", "H", "D")
    uid: int = field(default_factory=itertools.count().__next__)

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"op {self.name!r} has negative work {self.work}")
        self.deps = tuple(self.deps)

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other) -> bool:
        return self is other


@dataclass(frozen=True)
class OpRecord:
    """Realized schedule entry for one op."""

    name: str
    device: int
    stream: StreamKind
    tag: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SimResult:
    """Outcome of a simulation run."""

    makespan: float
    records: list[OpRecord]

    def device_busy_time(self, device: int, stream: StreamKind | None = None) -> float:
        """Total busy seconds of a device lane (or all lanes merged)."""
        intervals = sorted(
            (r.start, r.end)
            for r in self.records
            if r.device == device and (stream is None or r.stream == stream)
        )
        busy = 0.0
        cursor = -1.0
        for start, end in intervals:
            if start > cursor:
                busy += end - start
                cursor = end
            elif end > cursor:
                busy += end - cursor
                cursor = end
        return busy

    def utilization(self, device: int, stream: StreamKind = StreamKind.COMP) -> float:
        """Fraction of the makespan a lane was busy."""
        if self.makespan <= 0:
            return 0.0
        return self.device_busy_time(device, stream) / self.makespan

    def by_tag(self, tag: str) -> list[OpRecord]:
        return [r for r in self.records if r.tag == tag]


def _validate(ops: list[Op]) -> dict[Op, list[Op]]:
    """Check the submitted DAG and return the children adjacency.

    The adjacency is built exactly once and shared by the run loop (the
    reference engine previously rebuilt it for validation and again for
    the dependency countdown).
    """
    op_set = set(ops)
    if len(op_set) != len(ops):
        raise ValueError("duplicate op submitted")
    if len({op.uid for op in ops}) != len(ops):
        # dataclasses.replace() copies uid; compile_dag maps children to
        # positions by uid, so distinct ops sharing one are rejected.
        raise ValueError("distinct ops share a uid (copied Op?); uids must be unique")
    children: dict[Op, list[Op]] = {}
    for op in ops:
        for dep in op.deps:
            if dep not in op_set:
                raise ValueError(
                    f"op {op.name!r} depends on {dep.name!r} which was not submitted"
                )
            children.setdefault(dep, []).append(op)
    # Cycle check via Kahn count.
    indeg = {op: len(op.deps) for op in ops}
    queue = [op for op, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        op = queue.pop()
        seen += 1
        for child in children.get(op, ()):
            indeg[child] -= 1
            if indeg[child] == 0:
                queue.append(child)
    if seen != len(ops):
        raise ValueError("dependency cycle detected in submitted ops")
    return children


def _deadlock_error(stuck: list[str]) -> RuntimeError:
    """The error for a run that ended with the ops named ``stuck`` unfinished."""
    return RuntimeError(
        f"simulation deadlocked with {len(stuck)} ops pending, "
        f"e.g. {stuck[:8]} — check for dependency cycles or cross-lane ordering"
    )


_KIND_INDEX = {StreamKind.COMP: 0, StreamKind.COMM: 1, StreamKind.MEM: 2}
_KIND_BY_INDEX = (StreamKind.COMP, StreamKind.COMM, StreamKind.MEM)


@dataclass(frozen=True)
class CompiledDag:
    """A validated Op DAG flattened into index arrays.

    Ops are addressed by their submission position.  The topology (lane
    membership and order, dependency counts, children) is fixed at
    compile time; only the per-op work vector varies between runs, so a
    single compilation can price arbitrarily many scenarios via
    :meth:`SimEngine.compiled_makespan`.
    """

    names: tuple[str, ...]
    tags: tuple[str, ...]
    lane_ops: tuple[tuple[int, ...], ...]  # per lane: op indices, FIFO order
    lane_device: tuple[int, ...]
    lane_kidx: tuple[int, ...]  # stream-kind index (comp=0, comm=1, mem=2)
    op_lane: tuple[int, ...]  # per op: its lane index
    dep_count: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    works: tuple[float, ...]  # the template's own work vector (default run)

    @property
    def num_ops(self) -> int:
        return len(self.names)

    def stream_of(self, i: int) -> StreamKind:
        return _KIND_BY_INDEX[self.lane_kidx[self.op_lane[i]]]


def compile_dag(ops: Sequence[Op]) -> CompiledDag:
    """Validate ``ops`` once and flatten the topology into a :class:`CompiledDag`."""
    ops = list(ops)
    children_map = _validate(ops)
    index = {op.uid: i for i, op in enumerate(ops)}

    lane_ids: dict[int, int] = {}
    lane_ops: list[list[int]] = []
    lane_device: list[int] = []
    lane_kidx: list[int] = []
    op_lane: list[int] = []
    for i, op in enumerate(ops):
        kidx = _KIND_INDEX[op.stream]
        key = op.device * 4 + kidx
        lane = lane_ids.get(key)
        if lane is None:
            lane = len(lane_ops)
            lane_ids[key] = lane
            lane_ops.append([])
            lane_device.append(op.device)
            lane_kidx.append(kidx)
        lane_ops[lane].append(i)
        op_lane.append(lane)

    return CompiledDag(
        names=tuple(op.name for op in ops),
        tags=tuple(op.tag for op in ops),
        lane_ops=tuple(tuple(q) for q in lane_ops),
        lane_device=tuple(lane_device),
        lane_kidx=tuple(lane_kidx),
        op_lane=tuple(op_lane),
        dep_count=tuple(len(op.deps) for op in ops),
        children=tuple(
            tuple(index[c.uid] for c in children_map.get(op, ())) for op in ops
        ),
        works=tuple(op.work for op in ops),
    )


class SimEngine:
    """Runs a DAG of :class:`Op` to completion and returns a :class:`SimResult`.

    Fast path: completion times live in an event heap; a heap entry is
    valid only while its op's rate is unchanged, which the engine tracks
    with a per-op token bumped whenever the op's device changes its
    active stream-kind set.  Between events only the lanes unblocked by
    the finished op and the devices whose active set changed are touched.

    ``device_rates`` makes the engine heterogeneous: the effective rate
    of an op is the interference slowdown of its (kind, active-set)
    *times* its device's multiplier for that kind, so a DAG spanning
    devices realizes per-device speeds (straggler studies).  Identity
    tables are dropped up front — homogeneous runs execute the exact
    same arithmetic as before, bit for bit.
    """

    def __init__(
        self,
        interference: InterferenceModel | None = None,
        device_rates: DeviceRateTable | None = None,
    ) -> None:
        self.interference = interference or PAPER_INTERFERENCE
        self.device_rates = _active_rate_table(device_rates)
        self._flat_rates: list[float] | None = None
        self._dev_flat: dict[int, list[float]] = {}

    def makespan(self, ops: Sequence[Op]) -> float:
        """Makespan of the DAG without building any trace records."""
        return self.compiled_makespan(compile_dag(ops))

    def run(self, ops: Sequence[Op]) -> SimResult:
        """Validate and compile the DAG, then run it recording every op."""
        return self.run_compiled(compile_dag(ops), record=True)

    def _rate_table(self) -> list[float]:
        """Flat slowdown table indexed ``kidx * 8 + active_bitmask``.

        At most 3 kinds x 8 masks exist; built once per engine since it
        is a pure function of the interference model.
        """
        if self._flat_rates is None:
            kinds = {0: StreamKind.COMP, 1: StreamKind.COMM, 2: StreamKind.MEM}
            table = [1.0] * 24
            for kidx, victim in kinds.items():
                for mask in range(1, 8):
                    active = {kinds[i] for i in range(3) if mask & (1 << i)}
                    table[kidx * 8 + mask] = self.interference.slowdown(
                        victim, active | {victim}
                    )
            self._flat_rates = table
        return self._flat_rates

    def _flat_rates_for(self, device: int) -> list[float]:
        """Per-device flat table: base slowdowns x the device multipliers.

        Only consulted when a (non-identity) ``device_rates`` table is
        installed; built lazily per device and cached for the engine's
        lifetime, like :meth:`_rate_table`.
        """
        table = self._dev_flat.get(device)
        if table is None:
            base = self._rate_table()
            mult = self.device_rates.multipliers(device)
            table = [base[k * 8 + m] * mult[k] for k in range(3) for m in range(8)]
            self._dev_flat[device] = table
        return table

    def compiled_makespan(
        self, dag: CompiledDag, works: Sequence[float] | None = None
    ) -> float:
        """Makespan of a :class:`CompiledDag` with ``works`` plugged in."""
        return self.run_compiled(dag, works, record=False).makespan

    def run_compiled(
        self,
        dag: CompiledDag,
        works: Sequence[float] | None = None,
        record: bool = False,
    ) -> SimResult:
        """Run a :class:`CompiledDag` with per-op ``works`` plugged in.

        ``record=True`` builds the full :class:`OpRecord` trace; the
        default makespan-only mode allocates nothing per op.
        """
        if not record:
            return SimResult(makespan=self._loop(dag, works, None, None), records=[])
        records: list[OpRecord] = []
        makespan = self._loop(dag, works, records, None)
        records.sort(key=lambda r: (r.start, r.device, r.stream.value))
        return SimResult(makespan=makespan, records=records)

    def record_compiled_schedule(
        self, dag: CompiledDag, works: Sequence[float] | None = None
    ) -> "ScheduleTrace":
        """Run ``works`` through the compiled loop, recording its schedule.

        On top of executing the schedule it logs every start, re-rate and
        completion into a :class:`ScheduleTrace` that
        :func:`replay_schedule` can re-price for a whole batch of work
        vectors.
        """
        if works is None:
            works = dag.works
        log: list = []
        self._loop(dag, works, None, log)
        return ScheduleTrace(
            num_ops=dag.num_ops,
            zero_pattern=tuple(w <= _EPS for w in works),
            prologue=log[0],
            events=tuple(log[1:]),
        )

    def _loop(
        self,
        dag: CompiledDag,
        works: Sequence[float] | None,
        records: list[OpRecord] | None,
        log: list | None,
    ) -> float:
        """The event loop: run ``works`` over ``dag`` and return the makespan.

        ``records`` (when a list) receives one unsorted :class:`OpRecord`
        per op.  ``log`` (when a list) receives the schedule: first the
        t=0 frontier settle ``(starts, updates)``, then one
        ``(finished_op, others, starts, updates)`` entry per event.
        """
        if works is None:
            works = dag.works
        num = dag.num_ops
        if len(works) != num:
            raise ValueError(f"expected {num} works, got {len(works)}")
        if num and min(works) < 0:
            raise ValueError("op works must be non-negative")
        rates = self._rate_table()
        device_rates = self.device_rates
        lane_ops, lane_device, lane_kidx = dag.lane_ops, dag.lane_device, dag.lane_kidx
        op_lane, children = dag.op_lane, dag.children
        if records is not None:
            names, tags = dag.names, dag.tags
            lane_stream = tuple(_KIND_BY_INDEX[k] for k in lane_kidx)
            started_at = [0.0] * num
        starts: list[int] = []
        updates: list[tuple[int, float, float]] = []

        dep_rem = list(dag.dep_count)
        lane_pos = [0] * len(lane_ops)
        finished = bytearray(num)
        running = bytearray(num)
        # ``rem`` is settled only when an op's rate changes, so a valid
        # heap entry always predicts the true finish time.
        rem = [0.0] * num
        rate = [0.0] * num
        synced_at = [0.0] * num
        token = [0] * num
        dev_running: dict[int, list[tuple[int, int]]] = {}
        dev_mask: dict[int, int] = {}
        dirty: set[int] = set()
        heap: list[tuple[float, int, int]] = []
        pending: list[int] = list(range(len(lane_ops)))
        done_count = 0
        now = 0.0
        heappush, heappop = heapq.heappush, heapq.heappop

        def settle_frontier() -> None:
            """Start startable lane heads, then re-rate dirty devices.

            The lane-head scan, zero-work completion, and device refresh
            are inlined (not helper calls): this body runs once per
            event and per-event Python call overhead dominates it.
            """
            nonlocal done_count
            while pending:
                lane = pending.pop()
                queue = lane_ops[lane]
                pos = lane_pos[lane]
                while True:
                    while pos < len(queue) and finished[queue[pos]]:
                        pos += 1
                    lane_pos[lane] = pos
                    if pos >= len(queue):
                        break
                    i = queue[pos]
                    if running[i] or dep_rem[i] > 0:
                        break
                    if works[i] <= _EPS:
                        # Zero-work op: completes instantly, may unblock
                        # children (their lanes join ``pending``).
                        if records is not None:
                            records.append(
                                OpRecord(names[i], lane_device[lane],
                                         lane_stream[lane], tags[i], now, now)
                            )
                        finished[i] = 1
                        done_count += 1
                        for child in children[i]:
                            dep_rem[child] -= 1
                            if dep_rem[child] == 0:
                                pending.append(op_lane[child])
                        pos += 1
                        lane_pos[lane] = pos
                        continue
                    device, kidx = lane_device[lane], lane_kidx[lane]
                    running[i] = 1
                    rem[i] = works[i]
                    rate[i] = 0.0
                    synced_at[i] = now
                    if records is not None:
                        started_at[i] = now
                    if log is not None:
                        starts.append(i)
                    token[i] = 0
                    dev_running.setdefault(device, []).append((i, kidx))
                    dev_mask[device] = dev_mask.get(device, 0) | (1 << kidx)
                    dirty.add(device)
                    break
            if dirty:
                for device in dirty:
                    mask = dev_mask.get(device, 0)
                    rtab = (
                        rates
                        if device_rates is None
                        else self._flat_rates_for(device)
                    )
                    for i, kidx in dev_running.get(device, ()):
                        new_rate = rtab[kidx * 8 + mask]
                        old_rate = rate[i]
                        if new_rate == old_rate:
                            continue
                        if old_rate > 0.0:
                            remaining = rem[i] - (now - synced_at[i]) * old_rate
                            rem[i] = remaining if remaining > 0.0 else 0.0
                        rate[i] = new_rate
                        synced_at[i] = now
                        tok = token[i] + 1
                        token[i] = tok
                        heappush(heap, (now + rem[i] / new_rate, i, tok))
                        if log is not None:
                            updates.append((i, old_rate, new_rate))
                dirty.clear()

        settle_frontier()
        if log is not None:
            log.append((tuple(starts), tuple(updates)))
            starts.clear()
            updates.clear()
        while heap:
            pred_finish, i, entry_token = heappop(heap)
            if not running[i] or entry_token != token[i]:
                continue
            now = pred_finish
            if log is not None:
                # Heap order is (time, op): op ``i`` wins against a lower-
                # indexed running op only strictly, against a higher-
                # indexed one also on ties.  Replay re-checks these
                # guards per row.
                others = tuple(
                    (j, j < i)
                    for lst in dev_running.values()
                    for (j, _k) in lst
                    if j != i
                )
            running[i] = 0
            lane = op_lane[i]
            device, kidx = lane_device[lane], lane_kidx[lane]
            dev_running[device].remove((i, kidx))
            dev_mask[device] &= ~(1 << kidx)
            dirty.add(device)
            if records is not None:
                records.append(
                    OpRecord(names[i], device, lane_stream[lane], tags[i],
                             started_at[i], now)
                )
            finished[i] = 1
            done_count += 1
            for child in children[i]:
                dep_rem[child] -= 1
                if dep_rem[child] == 0:
                    pending.append(op_lane[child])
            pending.append(lane)
            settle_frontier()
            if log is not None:
                log.append((i, others, tuple(starts), tuple(updates)))
                starts.clear()
                updates.clear()

        if done_count != num:
            stuck = [dag.names[i] for i in range(num) if not finished[i]]
            raise _deadlock_error(stuck)
        return now


@dataclass(frozen=True)
class ScheduleTrace:
    """The control flow of one :meth:`SimEngine.run_compiled` execution.

    Interference rates are a pure function of the (stream kind, active
    stream set) pair — they never depend on the work values — so once
    the discrete schedule (which op finishes next, which ops start,
    which re-rates fire) is fixed, pricing it is straight-line float
    arithmetic.  :func:`replay_schedule` runs that arithmetic over a
    whole matrix of work vectors at once, validating per scenario that
    the recorded event order is the order the scalar engine would have
    chosen (exact lexicographic heap tie-breaks included); scenarios
    whose ordering diverges are flagged invalid, never mispriced.

    ``prologue`` is the initial frontier settle at t=0; each event is
    ``(finished_op, others, starts, updates)`` where ``others`` holds
    ``(op, strict)`` ordering guards against the other running ops and
    ``updates`` holds ``(op, old_rate, new_rate)`` re-rates.
    """

    num_ops: int
    zero_pattern: tuple[bool, ...]  # per op: work <= _EPS in the recording
    prologue: tuple[tuple[int, ...], tuple[tuple[int, float, float], ...]]
    events: tuple[
        tuple[
            int,
            tuple[tuple[int, bool], ...],
            tuple[int, ...],
            tuple[tuple[int, float, float], ...],
        ],
        ...,
    ]


def replay_schedule(trace: ScheduleTrace, works_matrix) -> tuple:
    """Price a :class:`ScheduleTrace` over many work vectors at once.

    ``works_matrix`` is (scenarios, num_ops).  Returns ``(makespans,
    valid)`` — both (scenarios,) — where ``valid[s]`` is True iff the
    recorded event order is exactly what the scalar engine would
    execute for row ``s``: the zero-work pattern matches and, at every
    event, the finishing op's predicted completion wins the heap's
    ``(time, op)`` lexicographic order against every other running op.
    For valid rows the makespan is bit-for-bit what
    :meth:`SimEngine.compiled_makespan` computes (identical IEEE ops in
    identical order); invalid rows hold garbage and must be re-run
    under a different trace (see ``repro.perfmodel.batcheval``).
    """
    import numpy as np

    W = np.asarray(works_matrix, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != trace.num_ops:
        raise ValueError(
            f"expected a (scenarios, {trace.num_ops}) works matrix, got {W.shape}"
        )
    pattern = np.asarray(trace.zero_pattern, dtype=bool)
    valid = np.all((W <= _EPS) == pattern, axis=1)

    num = trace.num_ops
    rem: list = [None] * num
    synced: list = [0.0] * num
    fin: list = [None] * num

    def apply(now, starts, updates) -> None:
        # Mirrors one settle_frontier: starts first, then re-rates.
        # ``rem[j] - (now - synced[j]) * old`` and ``now + rem[j] / new``
        # reproduce run_compiled's expressions operation for operation.
        for j in starts:
            rem[j] = W[:, j]
            synced[j] = now
        for j, old, new in updates:
            rj = rem[j]
            if old > 0.0:
                r = rj - (now - synced[j]) * old
                rj = np.where(r > 0.0, r, 0.0)
                rem[j] = rj
            synced[j] = now
            fin[j] = now + rj / new

    apply(0.0, *trace.prologue)
    now = None
    for c, others, starts, updates in trace.events:
        now = fin[c]
        for j, strict in others:
            fj = fin[j]
            valid &= (now < fj) if strict else (now <= fj)
        apply(now, starts, updates)
    if now is None:  # every op had zero work: makespan stays 0.0
        return np.zeros(W.shape[0]), valid
    return now, valid


class ReferenceSimEngine:
    """The original fluid loop: full-lane rescan and global re-rating at
    every event.  O(lanes + running) per event — kept as the oracle the
    fast path is proven against and benchmarked over.  Accepts the same
    per-device ``device_rates`` table so heterogeneous runs can be
    cross-checked against it too."""

    def __init__(
        self,
        interference: InterferenceModel | None = None,
        device_rates: DeviceRateTable | None = None,
    ) -> None:
        self.interference = interference or PAPER_INTERFERENCE
        self.device_rates = _active_rate_table(device_rates)

    def makespan(self, ops: Sequence[Op]) -> float:
        """API parity with :meth:`SimEngine.makespan` (full run, no shortcut)."""
        return self.run(ops).makespan

    def run(self, ops: Sequence[Op]) -> SimResult:
        ops = list(ops)
        children = _validate(ops)

        # Lane FIFO queues in submission order.
        lanes: dict[tuple[int, StreamKind], list[Op]] = {}
        for op in ops:
            lanes.setdefault((op.device, op.stream), []).append(op)
        lane_pos = {key: 0 for key in lanes}

        remaining_deps = {op: len(op.deps) for op in ops}
        done: set[Op] = set()
        running: dict[Op, float] = {}  # op -> remaining work (seconds)
        started_at: dict[Op, float] = {}
        records: list[OpRecord] = []
        now = 0.0

        def dep_ready(op: Op) -> bool:
            return remaining_deps[op] == 0

        def start_ready() -> None:
            """Start every lane-head op whose dependencies are satisfied.

            ``lane_pos`` always points at the first op of the lane that has
            not *completed*; a lane runs at most one op at a time (CUDA
            stream FIFO), so the head may start only once its predecessor
            finished.  Zero-work ops complete instantly, which can unblock
            further ops — hence the fixed-point loop.
            """
            progressed = True
            while progressed:
                progressed = False
                for key, queue in lanes.items():
                    pos = lane_pos[key]
                    while pos < len(queue) and queue[pos] in done:
                        pos += 1
                    lane_pos[key] = pos
                    if pos >= len(queue):
                        continue
                    op = queue[pos]
                    if op in running or not dep_ready(op):
                        continue
                    if op.work <= _EPS:
                        # Pure-dependency op: completes instantly.
                        done.add(op)
                        for child in children.get(op, ()):
                            remaining_deps[child] -= 1
                        records.append(
                            OpRecord(op.name, op.device, op.stream, op.tag, now, now)
                        )
                        lane_pos[key] = pos + 1
                        progressed = True
                    else:
                        running[op] = op.work
                        started_at[op] = now

        start_ready()
        while running:
            rates = self._rates(running)
            # Earliest completion under current rates.
            dt = min(rem / rates[op] for op, rem in running.items())
            now += dt
            finished = []
            for op in list(running):
                running[op] -= dt * rates[op]
                if running[op] <= _EPS * max(1.0, op.work):
                    finished.append(op)
            for op in finished:
                del running[op]
                done.add(op)
                records.append(
                    OpRecord(op.name, op.device, op.stream, op.tag, started_at[op], now)
                )
                for child in children.get(op, ()):
                    remaining_deps[child] -= 1
            start_ready()

        if len(done) != len(ops):
            raise _deadlock_error([op.name for op in ops if op not in done])
        records.sort(key=lambda r: (r.start, r.device, r.stream.value))
        return SimResult(makespan=now, records=records)

    # -- helpers ---------------------------------------------------------------
    def _rates(self, running: dict[Op, float]) -> dict[Op, float]:
        """Progress rate of each running op given per-device active lanes."""
        active_by_device: dict[int, set[StreamKind]] = {}
        for op in running:
            active_by_device.setdefault(op.device, set()).add(op.stream)
        rates = {
            op: self.interference.slowdown(op.stream, active_by_device[op.device])
            for op in running
        }
        if self.device_rates is not None:
            for op in rates:
                mult = self.device_rates.multipliers(op.device)
                rates[op] *= mult[_KIND_INDEX[op.stream]]
        return rates
