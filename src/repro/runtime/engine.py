"""The reactive coordination engine (paper §III.B, §IV.D).

One :class:`CoordinatorEngine` drives one connected protocol instance.  It
holds one or more *regions* (see :mod:`repro.automata.partition`); each
region is either

* an :class:`EagerRegion` — a fully composed "large automaton" (the
  existing compilation approach, ahead-of-time composition), or
* a :class:`LazyRegion` — a :class:`~repro.automata.lazy.LazyProduct`
  expanded just-in-time (the new approach, §IV.D).

Execution model (caller-driven, as in compiled Reo): a task's send/recv
registers a pending operation and then *drains* — repeatedly firing enabled
transitions until quiescence — before blocking.  Every firing completes the
operations of the boundary vertices in its label and may enable further
transitions (including internal τ-steps with empty labels, which the drain
loop also fires).  One loop, :meth:`CoordinatorEngine._drain_region`,
drains both step tiers: a region's compiled per-state table where it has
one (:mod:`repro.compiler.steps`), the interpreter
(:meth:`CoordinatorEngine._fire_one_interp`) where it does not.

Concurrency model (docs/INTERNALS.md §"Engine concurrency model")
-----------------------------------------------------------------
Regions are the unit of concurrency.  The partitioning optimization (paper
§V.C point 3) guarantees that distinct regions share no vertices — they
interact only through the buffers of decoupled fifo halves, and each such
buffer has exactly one pushing and one popping region.  The engine exploits
that independence:

* a **vertex→region routing table** (``_route``, built at construction)
  sends every submission straight to the owning region;
* **per-region locks**: a submission takes only its region's lock, drains
  only its region, and signals regions coupled through a shared buffer by
  marking them *dirty* and chasing them afterwards (one lock at a time) —
  independent regions fire concurrently on separate OS threads;
* **incremental candidate scanning**: each region maintains its
  pending-vertex set (``region.pend``) as ops enqueue/dequeue, so a
  drain never rebuilds a global pending list, and a region
  whose dirty flag is clear is skipped without any scan at all;
* **parking slots**: every blocked operation parks on its own raw
  ``_thread`` lock, released exactly once by whoever resolves that
  operation — no global ``notify_all`` thundering herd, no engine-wide lock
  on the park path, and no polling: deadlock detection runs when a park
  completes the party count (see :meth:`_deadlock_check`).

Lock order (outermost first): the registry lock ``_lock`` → region locks in
ascending ``region.idx`` → leaf locks (tracer, dead-letter buffer, the
metrics stat lock).  The submission hot path takes a single region lock and
nothing above it; cold paths (close, checkpoint/restore, reconfigure,
drain-mode flips, party registration, deadlock delivery) stop the world by
taking ``_lock`` plus every region lock, which is also what lets the
deadlock detector aggregate a consistent snapshot across regions without
deadlocking against the hot path.

A connector built without partitioning (``use_partitioning=False``) is
one globally composed region under one lock, on the same hot path.

Fault tolerance
---------------
Blocking operations take an optional ``timeout``; a timed-out operation is
*withdrawn* from its queue before :class:`ProtocolTimeoutError` is raised,
so it can never enable a transition on behalf of a task that gave up.
Tasks (via their ports, see :meth:`repro.runtime.ports._Port.set_owner`)
may register as *parties* of the engine; deadlock is then detected
precisely — every registered party blocked on a committed operation, engine
quiescent — without the caller having to pass ``expected_parties``.  When a
supervised peer crashed, the detection delivers :class:`PeerFailedError`
(naming the dead task) instead of a bare :class:`DeadlockError`.

Overload protection
-------------------
Per-vertex :class:`~repro.runtime.overload.OverloadPolicy` objects bound
the pending-op deques: ``fail_fast`` rejects an operation that would exceed
``max_pending`` with :class:`OverloadError`; ``shed_newest``/``shed_oldest``
drop the newest/oldest queued *send* value into a bounded dead-letter
buffer (:meth:`dead_letters`) and report success to the submitter.  The
default (no policy, or kind ``"block"``) is exactly the pre-overload
behaviour.  :meth:`begin_drain` flips the engine into *draining* mode —
new sends are refused with :class:`PortClosedError` while receives keep
flushing buffered values; :attr:`drained` reports when everything user-
visible has left the protocol (see :meth:`RuntimeConnector.drain`).

Observability
-------------
When constructed with ``metrics=`` (a
:class:`~repro.runtime.metrics.ConnectorMetrics` hook bundle), the engine
counts submissions, firings, completion latencies, scan effort, sheds, and
rejections, and exposes queue depths / buffer occupancy as sampled gauges —
all behind single ``if self._metrics is not None`` guards so the
unobserved hot path is unchanged (design notes: docs/INTERNALS.md §8).
"""

from __future__ import annotations

import threading
import time
from _thread import allocate_lock as _new_slot
from collections import deque
from typing import Sequence

from repro.automata.automaton import ConstraintAutomaton
from repro.automata.constraint import DEFAULT_REGISTRY, FunctionRegistry
from repro.automata.lazy import LazyProduct
from repro.automata.simplify import FiringPlan, commandify
from repro.runtime.buffers import BufferStore
from repro.runtime.metrics import LATENCY_STRIDE
from repro.runtime.overload import DeadLetterBuffer, OverloadPolicy
from repro.runtime.recovery import Checkpoint, RegionState
from repro.runtime.trace import render_deadlock_diagnostic
from repro.util.errors import (
    CheckpointError,
    CompileError,
    DeadlockError,
    OverloadError,
    PeerFailedError,
    PortClosedError,
    ProtocolTimeoutError,
    RuntimeProtocolError,
)

#: Bitmask for the sampled latency histogram (LATENCY_STRIDE is a power
#: of two; ``steps & mask == 0`` is measurably cheaper than ``%``).
_LAT_MASK = LATENCY_STRIDE - 1
assert LATENCY_STRIDE & _LAT_MASK == 0, "LATENCY_STRIDE must be a power of two"

#: Per-region cap on the number of control states the compiled tier keeps
#: specialized step tables for (JIT regions compile per visited state).
#: States beyond the cap are simply interpreted — correctness never depends
#: on a table hit.
_STATE_TABLE_CAP = 4096


class _Op:
    """One pending send/receive operation.

    ``t_enq``/``steps_enq`` record when the op entered its queue (wall
    clock and engine step count) — the watchdog's raw material for telling
    a *stalled* party (old op, engine still firing) from a deadlock.
    ``slot`` is the op's parking slot: a raw lock, acquired and installed
    under the owner region lock only when the submitter actually parks.
    A resolver (firing, failure, shed, deadlock delivery) or a wake-up
    call (:meth:`CoordinatorEngine._wake_all_locked`) clears the field
    under that lock and then releases the slot, so each installation is
    released at most once.
    """

    __slots__ = ("vertex", "value", "done", "error", "t_enq", "steps_enq",
                 "slot")

    def __init__(self, vertex: str, value=None):
        self.vertex = vertex
        self.value = value
        self.done = False
        self.error: Exception | None = None
        self.t_enq = 0.0
        self.steps_enq = 0
        self.slot = None  # parking slot (a _thread lock) while parked


class _Party:
    """One registered party (task) of the engine, refcounted by port.

    ``last_active``/``steps_active`` record the party's last *protocol
    activity* — submitting an operation or having one completed by a firing
    — as a wall-clock instant and an engine step count.  A party that stays
    inactive while the step count advances is stalled or pathologically
    slow (watchdog material); one that stays inactive while nothing moves
    anywhere is deadlock material.
    """

    __slots__ = ("name", "refs", "vertices", "last_active", "steps_active")

    def __init__(self, name: str):
        self.name = name
        self.refs = 0
        self.vertices: set[str] = set()
        self.last_active = time.monotonic()
        self.steps_active = 0


class EagerRegion:
    """Region backed by a fully composed automaton."""

    def __init__(self, automaton: ConstraintAutomaton):
        self.automaton = automaton
        self.state: int = automaton.initial
        # Per-state round-robin cursors for fairness (see _fire_one_interp):
        # a cursor is an index into one state's candidate list, so sharing a
        # single cursor across states aliases lists of different length and
        # order — which is exactly what starved a competing sender behind a
        # resonating pair (the pre-region engine's rr drift bug).
        self.cursors: dict = {}

    @property
    def vertices(self) -> frozenset[str]:
        return self.automaton.vertices

    def buffer_names(self) -> frozenset[str]:
        return frozenset(b.name for b in self.automaton.buffers)

    def candidates(self):
        """The state's outgoing transitions, in automaton order.

        Dense enumeration deliberately matches the compiled step tier's
        per-state tables item for item: the round-robin fairness cursors
        (and the checkpoints that carry them, see ``rr`` in
        :class:`~repro.runtime.recovery.RegionState`) index a candidate
        list by position, so a checkpoint written under one tier restores
        the same fairness choices under the other only if both tiers
        enumerate identically.
        """
        return self.automaton.outgoing(self.state)

    def advance(self, step) -> None:
        self.state = step.target


class LazyRegion:
    """Region backed by a just-in-time product."""

    def __init__(self, lazy: LazyProduct):
        self.lazy = lazy
        self.state = lazy.initial
        self.cursors: dict = {}  # per-state fairness cursors (see EagerRegion)

    @property
    def vertices(self) -> frozenset[str]:
        return self.lazy.vertices

    def buffer_names(self) -> frozenset[str]:
        names: set[str] = set()
        for a in self.lazy.automata:
            names.update(b.name for b in a.buffers)
        return frozenset(names)

    def candidates(self):
        return self.lazy.outgoing(self.state)

    def advance(self, step) -> None:
        self.state = step.successor(self.state)


class CoordinatorEngine:
    """Reactive state machine driving one protocol instance.

    ``sources`` are boundary vertices bound to outports (tasks send there);
    ``sinks`` are bound to inports.  Deadlock detection runs in one of two
    modes:

    * **declared** — ``expected_parties`` names the total party count (the
      seed behaviour): when that many parties are simultaneously blocked on
      committed operations and no transition is enabled, every blocked
      operation fails with :class:`DeadlockError`;
    * **registered** — parties register via :meth:`register_party` (ports do
      this for their owning task, see
      :class:`repro.runtime.tasks.SupervisedTaskGroup`): detection triggers
      when *every currently registered* party is blocked, after a
      ``detection_grace`` confirmation window that absorbs staggered task
      start-up.  Registration takes precedence over ``expected_parties``
      because it tracks party exits precisely.

    ``default_timeout`` bounds every blocking operation that does not pass
    its own ``timeout``.
    """

    def __init__(
        self,
        regions: Sequence[EagerRegion | LazyRegion],
        buffers: BufferStore,
        sources: frozenset[str],
        sinks: frozenset[str],
        registry: FunctionRegistry | None = None,
        expected_parties: int | None = None,
        tracer=None,
        default_timeout: float | None = None,
        detection_grace: float = 0.05,
        overload: "OverloadPolicy | dict[str, OverloadPolicy] | None" = None,
        metrics=None,
        compiled: str = "auto",
    ):
        if compiled not in ("auto", "off", "require"):
            raise ValueError(
                f"compiled must be 'auto', 'off' or 'require', not {compiled!r}"
            )
        self.buffers = buffers
        self.sources = sources
        self.sinks = sinks
        self.registry = registry or DEFAULT_REGISTRY
        self.expected_parties = expected_parties
        self.tracer = tracer
        # ConnectorMetrics hook bundle (repro.runtime.metrics) or None.
        # Every hot-path use is guarded by one `is not None` check, so an
        # unobserved engine runs the pre-observability code path.
        self._metrics = metrics
        # Timing stamps and liveness marks on the post path exist for the
        # observability layer and the watchdog; with neither attached they
        # are skipped (parties arriving later re-enable them dynamically —
        # see _post).
        self._observing = metrics is not None or tracer is not None
        self.default_timeout = default_timeout
        self.detection_grace = detection_grace
        # Compiled step tier (repro.compiler.steps): "auto" compiles what it
        # can and demotes the rest to the interpretive engine, "off" forces
        # interpretation everywhere, "require" raises CompileError instead
        # of demoting (tests and tooling).
        self._compiled = compiled
        self._step_compiler = None

        # Registry lock — outermost in the lock order.  Guards the party
        # registry and the deadlock suspect; cold paths additionally take
        # every region lock under it.  The park path never takes it.
        self._lock = threading.Lock()
        # Leaf locks: shared metric structures (latency histogram, shed /
        # rejected memo dicts) and cross-region trace causality.
        self._stat_lock = threading.Lock()
        self._trace_lock = threading.Lock()

        self._pending_send: dict[str, deque[_Op]] = {v: deque() for v in sources}
        self._pending_recv: dict[str, deque[_Op]] = {v: deque() for v in sinks}
        self._closed_vertices: set[str] = set()
        self._vertex_errors: dict[str, Exception] = {}
        self._closed = False
        # One entry per installed parking slot: appended when a slot is
        # installed, popped when it is released or withdrawn, always under
        # the op's region lock (or every lock).  A deque because append,
        # pop and len are atomic, so regions count without a shared lock;
        # under stop-the-world the length is exact.
        self._parked: deque = deque()

        self._policies = self._normalize_policies(overload, sources, sinks)
        self.dead = DeadLetterBuffer()
        self._draining = False
        # Baseline buffered-value count: token-ring connectors permanently
        # hold protocol tokens, so "drained" means back *down to* this
        # occupancy, not necessarily empty.
        self._initial_occupancy = sum(
            buffers.occupancy(n) for n in buffers.names()
        )

        self._parties: dict[object, _Party] = {}
        self._vertex_party: dict[str, _Party] = {}
        self._party_gen = 0  # bumped on every (un)registration
        self._peer_failures: list[PeerFailedError] = []
        # Candidate deadlock sighting awaiting confirmation:
        # ((steps, party_gen, stuck), first_seen_monotonic, raiser_op).
        self._suspect: tuple | None = None

        self._plans: dict[tuple, FiringPlan] = {}
        # steps/scan totals are summed over the live regions plus a base
        # carried across restore/reconfigure; _steps_approx is a racily
        # maintained shortcut for hot-path liveness stamps.
        self._steps_base = 0
        self._scan_base = 0
        self._steps_approx = 0

        self._adopt_regions(regions)

        if metrics is not None:
            metrics.attach_engine(self)

        # Fire anything enabled from the very start (e.g. token rings with
        # initialized fifos feeding internal vertices).
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                for r in self.regions:
                    r.dirty = True
                self._drain_all_locked()
            finally:
                self._release(locks)

    # ------------------------------------------------------------------ API

    @staticmethod
    def _normalize_policies(
        overload, sources: frozenset[str], sinks: frozenset[str]
    ) -> dict[str, OverloadPolicy]:
        """Expand the ``overload`` option into a per-vertex policy map.

        A bare :class:`OverloadPolicy` applies to every *source* vertex
        (shedding a receive is meaningless — there is no value to capture);
        a dict maps vertex names explicitly and may put ``block`` or
        ``fail_fast`` on sinks too.
        """
        if overload is None:
            return {}
        if isinstance(overload, OverloadPolicy):
            return {v: overload for v in sources}
        policies: dict[str, OverloadPolicy] = {}
        for vertex, pol in overload.items():
            if vertex not in sources and vertex not in sinks:
                raise RuntimeProtocolError(
                    f"overload policy for unknown boundary vertex {vertex!r}"
                )
            if pol.sheds and vertex in sinks:
                raise RuntimeProtocolError(
                    f"policy {pol.kind!r} on sink vertex {vertex!r}: shedding "
                    "applies to sends only (a receive has no value to capture)"
                )
            policies[vertex] = pol
        return policies

    def submit_send(
        self,
        vertex: str,
        value,
        timeout: float | None = None,
        policy: OverloadPolicy | None = None,
    ) -> None:
        """Blocking send; raises :class:`ProtocolTimeoutError` when
        ``timeout`` (or the engine's ``default_timeout``) elapses first.
        ``policy`` overrides the vertex's configured overload policy for
        this one operation."""
        op = _Op(vertex, value)
        self._submit(self._pending_send[vertex], op, timeout,
                     policy=policy, is_send=True)

    def try_submit_send(self, vertex: str, value) -> bool:
        """Non-blocking send: complete only if a transition fires with it
        immediately; otherwise withdraw the offer and return ``False``."""
        op = _Op(vertex, value)
        return self._try_submit(self._pending_send[vertex], op, is_send=True)

    def submit_recv(self, vertex: str, timeout: float | None = None):
        """Blocking receive returning the delivered value; raises
        :class:`ProtocolTimeoutError` when the timeout elapses first."""
        op = _Op(vertex)
        self._submit(self._pending_recv[vertex], op, timeout)
        return op.value

    def try_submit_recv(self, vertex: str) -> tuple[bool, object]:
        """Non-blocking receive; returns ``(completed, value)``."""
        op = _Op(vertex)
        ok = self._try_submit(self._pending_recv[vertex], op)
        return (ok, op.value if ok else None)

    def post_send(self, vertex: str, value, policy: "OverloadPolicy | None" = None):
        """Asynchronous send: enqueue the operation, drain, and return its
        handle without ever blocking the caller.

        Unlike :meth:`try_submit_send` the offer is *not* withdrawn when no
        transition fires immediately — it stays pending, exactly as a
        blocked :meth:`submit_send` would, and completes when a later
        firing consumes it.  The returned handle exposes ``done`` /
        ``value`` / ``error``.  This is what lets a single OS thread drive
        all parties of a synchronous step (the differential-fuzzing
        harness's deterministic scheduler, :mod:`repro.fuzz.harness`): post
        every operation of the step in a fixed order, and the final post's
        drain fires the transition synchronously in the posting thread.

        A non-``block`` ``policy`` (or configured vertex policy) is applied
        exactly as in the blocking path: a posted send that cannot complete
        in the submission drain is shed or rejected immediately.
        """
        op = _Op(vertex, value)
        self._post(self._pending_send[vertex], op, policy, True)
        return op

    def post_recv(self, vertex: str):
        """Asynchronous receive; see :meth:`post_send`.  The delivered value
        appears as ``handle.value`` once ``handle.done`` is true."""
        op = _Op(vertex)
        self._post(self._pending_recv[vertex], op, None, False)
        return op

    def _post(self, queue: deque, op: _Op, policy, is_send: bool) -> None:
        spill: list = []
        try:
            region = self._acquire_owner(op.vertex)
            if region is None:
                raise KeyError(op.vertex)
            try:
                self._check_open(op.vertex)
                if is_send and self._draining:
                    raise PortClosedError(
                        f"vertex {op.vertex!r} rejected: connector draining"
                    )
                if self._observing or self._parties:
                    # Timing stamps and liveness marks feed metrics, the
                    # tracer's wait spans, and the watchdog; with none of
                    # those attached, skip the clock reads.  No wakeup
                    # Event is installed on this path at all — a post
                    # handle is polled (``done``/``error``), never waited
                    # on, and allocating an Event per post dominated the
                    # single-threaded firing cost.
                    op.t_enq = time.monotonic()
                    op.steps_enq = self._steps_approx
                    self._mark_active(op.vertex, op.t_enq)
                    mx = self._metrics
                    if mx is not None:
                        child = (mx.sub_send if is_send
                                 else mx.sub_recv).get(op.vertex)
                        if child is not None:
                            child.value += 1.0
                queue.append(op)
                region.pend[op.vertex] = None
                region.dirty = True
                self._drain_region(region, spill)
                if not op.done and op.error is None:
                    pol = (policy if policy is not None
                           else self._policies.get(op.vertex))
                    if (
                        pol is not None
                        and pol.kind != "block"
                        and len(queue) > pol.max_pending
                    ):
                        self._overflow(queue, op, pol, region)
            finally:
                region.lock.release()
        finally:
            if spill:
                self._chase(spill)

    def register_party(self, key, name: str = "", vertex: str | None = None) -> None:
        """Declare a party (task) of this protocol instance.

        One registration per (party, port); re-registrations are refcounted.
        While any parties are registered, precise deadlock detection is
        armed: all registered parties blocked + quiescent engine (stable for
        ``detection_grace`` seconds) fails every blocked operation.
        """
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                party = self._parties.get(key)
                if party is None:
                    party = self._parties[key] = _Party(name)
                party.refs += 1
                if name and not party.name:
                    party.name = name
                if vertex is not None:
                    party.vertices.add(vertex)
                    self._vertex_party[vertex] = party
                party.last_active = time.monotonic()
                party.steps_active = self._steps_approx
                self._party_gen += 1
                self._suspect = None
            finally:
                self._release(locks)

    def unregister_party(self, key, vertex: str | None = None) -> None:
        """Drop one registration of ``key`` (a party exits, or one of its
        ports closes).  Wakes blocked waiters so detection re-evaluates
        against the smaller party set."""
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                party = self._parties.get(key)
                if party is None:
                    return
                if vertex is not None:
                    party.vertices.discard(vertex)
                    if self._vertex_party.get(vertex) is party:
                        del self._vertex_party[vertex]
                party.refs -= 1
                if party.refs <= 0:
                    del self._parties[key]
                self._party_gen += 1
                self._suspect = None
                self._wake_all_locked()
            finally:
                self._release(locks)

    def close_vertex(self, vertex: str, error: Exception | None = None) -> None:
        """Close one boundary vertex.  Pending and future operations on it
        fail with ``error`` (default :class:`PortClosedError`); a
        :class:`PeerFailedError` is additionally remembered so that peers
        detected as stuck later blame the dead task, not a bare deadlock."""
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                self._closed_vertices.add(vertex)
                if error is not None:
                    self._vertex_errors[vertex] = error
                    if isinstance(error, PeerFailedError):
                        self._peer_failures.append(error)
                self._fail_queue(self._pending_send.get(vertex), error,
                                 is_send=True)
                self._fail_queue(self._pending_recv.get(vertex), error,
                                 is_send=False)
                region = self._route.get(vertex)
                if region is not None:
                    region.pend.pop(vertex, None)
                self._suspect = None
                self._wake_all_locked()
            finally:
                self._release(locks)

    def close(self) -> None:
        """Shut the whole connector down; all blocked tasks get
        :class:`PortClosedError`."""
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                self._closed = True
                for q in self._pending_send.values():
                    self._fail_queue(q, is_send=True)
                for q in self._pending_recv.values():
                    self._fail_queue(q, is_send=False)
                for r in self.regions:
                    r.pend.clear()
                self._wake_all_locked()
            finally:
                self._release(locks)

    # --------------------------------------------------- region plumbing

    def _adopt_regions(self, regions: Sequence[EagerRegion | LazyRegion]) -> None:
        """Stamp runtime fields onto ``regions`` and rebuild the routing
        table, the shared-buffer watcher map, and the ordered lock list.
        Callers other than ``__init__`` hold ``_lock`` plus every *old*
        region lock."""
        self.regions = list(regions)
        route: dict[str, EagerRegion | LazyRegion] = {}
        watchers: dict[str, list] = {}
        for i, r in enumerate(self.regions):
            # Position in ``engine.regions`` — stable identity for the
            # tracer and checkpoint code (no O(#regions) ``list.index`` on
            # the hot path).
            r.idx = i
            r.lock = threading.Lock()
            # Incrementally maintained pending-vertex set (insertion-ordered
            # dict used as an ordered set, for deterministic candidate
            # order).
            r.pend = {}
            # Set when this region may have a newly enabled transition (an
            # op enqueued, or a shared buffer changed); cleared by the drain
            # that scans it.  A clean region is skipped without a scan.
            r.dirty = False
            # False once a reconfigure replaced this region — a late chaser
            # must not fire on discarded protocol structure.
            r.live = True
            # Steps fired by this region (``engine.steps`` sums these).
            r.fired = 0
            # Candidates examined before fired steps (metrics; advanced
            # only when metered, like the pre-region ``_scan_count``).
            r.scanned = 0
            # Compiled step tier (repro.compiler.steps): ``ctable`` maps a
            # control state to its tuple of specialized CompiledStep
            # functions; ``compiled`` is False when this region was demoted
            # to the interpretive engine (compile refusal, or
            # ``compiled="off"``).
            r.compiled = False
            r.ctable = None
            for v in r.vertices:
                route[v] = r
            for b in r.buffer_names():
                watchers.setdefault(b, []).append(r)
        if self.regions:
            # Boundary vertices can drop out of eager region vertex sets
            # (hide() keeps only label-visible ones); route them to the
            # first region so submissions never dangle.
            fallback = self.regions[0]
            for v in self.sources:
                route.setdefault(v, fallback)
            for v in self.sinks:
                route.setdefault(v, fallback)
        self._route = route
        # Only buffers visible to >1 region need cross-region signalling;
        # single-region connectors keep an empty map and skip the whole
        # watcher walk after every firing.
        self._watchers: dict[str, tuple] = {
            b: tuple(rs) for b, rs in watchers.items() if len(rs) > 1
        }
        self._all_locks: tuple = tuple(r.lock for r in self.regions)
        # (Re)compile the step tier against the objects just adopted — both
        # construction and reconfigure land here, so the emitted closures
        # always bind the engine's *current* queues/buffers/closed set.
        self._compile_regions()

    def _compile_regions(self) -> None:
        """Install specialized step tables on every region that compiles
        (see :mod:`repro.compiler.steps`).  ``compiled="auto"`` demotes a
        region whose transitions cannot be specialized — the interpretive
        engine is the always-correct fallback; ``"require"`` raises the
        :class:`~repro.util.errors.CompileError` instead."""
        self._step_compiler = None
        if self._compiled == "off":
            return
        # Imported here, not at module level: repro.compiler's package init
        # pulls in the textual-compilation stack, which transitively imports
        # runtime modules — a cycle at import time, but not at run time.
        from repro.compiler.steps import StepCompiler

        compiler = StepCompiler(
            self._pending_send,
            self._pending_recv,
            self.buffers,
            self.sources,
            self.sinks,
            self.registry,
            self._closed_vertices,
            self._wake,
            self._plan_for,
        )
        self._step_compiler = compiler
        for r in self.regions:
            r.compiled = True
            if isinstance(r, LazyRegion):
                # Lazy regions specialize per visited state, starting with
                # the initial one — an up-front probe so obvious refusals
                # demote before the first firing.
                r.ctable = {}
                self._compile_region_state(r)
                continue
            try:
                # Eager regions are fully known: compile every state now
                # (the existing approach's compile-time share, like
                # precompile_plans).
                r.ctable = compiler.compile_automaton(r.automaton)
            except CompileError:
                if self._compiled == "require":
                    raise
                r.compiled = False

    @staticmethod
    def _acquire(locks) -> None:
        for lock in locks:
            lock.acquire()

    @staticmethod
    def _release(locks) -> None:
        for lock in reversed(locks):
            lock.release()

    def _acquire_owner(self, vertex: str):
        """Lock and return the region owning ``vertex``, re-resolving the
        route until it is stable (a reconfigure may swap regions between
        the lookup and the acquire).  Returns ``None`` when the vertex left
        the signature."""
        while True:
            region = self._route.get(vertex)
            if region is None:
                return None
            region.lock.acquire()
            if self._route.get(vertex) is region:
                return region
            region.lock.release()

    def _wake_all_locked(self) -> None:
        """Wake every parked submitter (all region locks held) by releasing
        its slot.  A waiter whose op is still unresolved re-parks, and the
        last one to re-park re-runs the deadlock detector against the
        changed party set, closed vertices or drain mode."""
        for qmap in (self._pending_send, self._pending_recv):
            for q in qmap.values():
                for op in q:
                    self._wake(op)

    def _wake(self, op: _Op) -> None:
        """Release ``op``'s parking slot if one is installed (its region
        lock, or every lock, held).  Clearing the field before the release
        is what makes each installed slot released at most once.  A
        suspect's raiser is therefore parked for as long as the suspect
        stands (see :meth:`_maybe_deadlock`)."""
        slot = op.slot
        if slot is not None:
            op.slot = None
            self._parked.pop()
            suspect = self._suspect
            if suspect is not None and suspect[2] is op:
                # Only the raiser re-checks a suspect, and once released it
                # may never park again (a timeout, a shed): drop the
                # suspect so that the next park raises a fresh one.
                self._suspect = None
            slot.release()

    # ------------------------------------------------------- recovery layer

    def _pending_count(self) -> int:
        return sum(len(q) for q in self._pending_send.values()) + sum(
            len(q) for q in self._pending_recv.values()
        )

    @property
    def steps(self) -> int:
        """Global execution steps fired (the Fig. 12 metric) — the sum of
        the per-region counters plus the base carried across restores."""
        return self._steps_base + sum(r.fired for r in self.regions)

    @steps.setter
    def steps(self, value: int) -> None:
        for r in self.regions:
            r.fired = 0
        self._steps_base = value
        self._steps_approx = value

    @property
    def scan_total(self) -> int:
        """Candidates examined before fired steps (advanced only when
        metered, see :mod:`repro.runtime.metrics`)."""
        return self._scan_base + sum(r.scanned for r in self.regions)

    # Pre-region-parallel name, kept for compatibility (tests and the
    # metrics docstrings reference it).
    _scan_count = scan_total

    @property
    def quiescent(self) -> bool:
        """True when no operation is pending and no party is blocked."""
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                return self._pending_count() == 0 and not self._parked
            finally:
                self._release(locks)

    def _require_quiescent(self, action: str) -> None:
        """Caller holds ``_lock`` and every region lock."""
        pending = self._pending_count()
        if pending or self._parked:
            raise CheckpointError(
                f"{action} requires a quiescent engine: {pending} pending "
                f"operation(s), {len(self._parked)} blocked waiter(s)"
            )
        if self._closed or self._closed_vertices:
            raise CheckpointError(
                f"{action} requires a fully open connector: "
                + ("engine closed" if self._closed
                   else f"closed vertices {sorted(self._closed_vertices)}")
            )
        if self._draining:
            raise CheckpointError(
                f"{action} rejected: connector is draining (a drain ends in "
                "close, so the snapshot could never be resumed here — "
                "checkpoint at a quiescent point before draining instead)"
            )

    def checkpoint(self, name: str = "") -> Checkpoint:
        """Snapshot the complete protocol state at a quiescent point.

        The snapshot covers each region's control state and round-robin
        cursor, every buffer's contents, the global step count, and the
        registered-party registry.  Raises :class:`CheckpointError` unless
        the engine is quiescent (no pending operations, no blocked waiters,
        nothing closed) — a mid-firing snapshot would not be a protocol
        state at all.
        """
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                self._require_quiescent("checkpoint")
                # regions are snapshotted in idx order (identical to list
                # order by construction — see _adopt_regions).  ``rr``
                # carries the per-state fairness cursor table so a restored
                # run makes the same nondeterministic choices the original
                # would have.
                regions = tuple(
                    RegionState(
                        "eager", r.state, tuple(sorted(r.cursors.items()))
                    )
                    if isinstance(r, EagerRegion)
                    else RegionState(
                        "lazy", tuple(r.state),
                        tuple(sorted(r.cursors.items())),
                    )
                    for r in self.regions
                )
                parties = tuple(
                    (p.name or f"party{i}", tuple(sorted(p.vertices)))
                    for i, p in enumerate(self._parties.values())
                )
                return Checkpoint(
                    connector=name,
                    regions=regions,
                    buffers=self.buffers.snapshot(),
                    steps=self.steps,
                    parties=parties,
                    boundary=(
                        tuple(sorted(self.sources)),
                        tuple(sorted(self.sinks)),
                    ),
                )
            finally:
                self._release(locks)

    def restore(self, cp: Checkpoint) -> None:
        """Restore a checkpoint into this engine (same or structurally
        identical connector).

        Validates region kinds/state domains and the buffer signature
        before touching anything, so a failed restore leaves the engine
        unchanged.  An attached tracer is cleared: events fired before the
        restore (e.g. a fresh connector's constructor drain) predate the
        restored state.
        """
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                self._require_quiescent("restore")
                if cp.boundary:
                    here = (
                        tuple(sorted(self.sources)),
                        tuple(sorted(self.sinks)),
                    )
                    if tuple(cp.boundary) != here:
                        raise CheckpointError(
                            "checkpoint boundary signature "
                            f"{tuple(cp.boundary)!r} does not match engine "
                            f"{here!r} — the snapshot was taken from a "
                            "structurally different connector (e.g. before "
                            "a re-parametrization)"
                        )
                if len(cp.regions) != len(self.regions):
                    raise CheckpointError(
                        f"checkpoint has {len(cp.regions)} regions, engine has "
                        f"{len(self.regions)}"
                    )
                validated = []
                for rs, region in zip(cp.regions, self.regions):
                    if isinstance(region, EagerRegion):
                        if rs.kind != "eager":
                            raise CheckpointError(
                                f"region kind mismatch: checkpoint {rs.kind!r}, "
                                "engine 'eager' (same composition mode required)"
                            )
                        n = region.automaton.n_states
                        if not isinstance(rs.state, int) or not (0 <= rs.state < n):
                            raise CheckpointError(
                                f"state {rs.state!r} out of range for "
                                f"{n}-state region"
                            )
                        validated.append(rs.state)
                    else:
                        if rs.kind != "lazy":
                            raise CheckpointError(
                                f"region kind mismatch: checkpoint {rs.kind!r}, "
                                "engine 'lazy' (same composition mode required)"
                            )
                        try:
                            validated.append(region.lazy.validate_state(rs.state))
                        except ValueError as exc:
                            raise CheckpointError(str(exc)) from None
                try:
                    self.buffers.restore(cp.buffers)
                except Exception as exc:
                    raise CheckpointError(f"buffer restore failed: {exc}") from exc
                for region, rs, state in zip(self.regions, cp.regions, validated):
                    region.state = state
                    # int accepted for hand-built pre-cursor-table states.
                    region.cursors = (
                        {} if isinstance(rs.rr, int) else dict(rs.rr)
                    )
                self.steps = cp.steps
                self._suspect = None
                if self.tracer is not None:
                    self.tracer.clear()
                # A quiescent-point snapshot has no internal transition
                # enabled, so this drain is a no-op in the normal case — it
                # only matters if a caller restores a hand-built checkpoint.
                for r in self.regions:
                    r.dirty = True
                self._drain_all_locked()
                self._wake_all_locked()
            finally:
                self._release(locks)

    def reconfigure(
        self,
        regions: Sequence["EagerRegion | LazyRegion"],
        buffers: BufferStore,
        sources: frozenset[str],
        sinks: frozenset[str],
        vertex_map: dict[str, str],
        expected_delta: int = 0,
        initial_occupancy: int | None = None,
    ) -> None:
        """Replace this engine's protocol wholesale — the re-parametrization
        primitive.

        Called with the regions/buffers of the connector re-instantiated at
        its new arity and ``vertex_map`` mapping every *surviving* old
        boundary vertex to its new name.  Pending operations of surviving
        parties are migrated to their renamed vertices **reusing the same
        deque objects**, so a concurrently timing-out waiter (which removes
        its op from the deque it captured) can never leave a stale entry in
        a queue the engine still consults.  Operations on departed vertices
        fail with :class:`PortClosedError`; recorded peer failures are
        cleared (the departure *is* the recovery), and the drain at the end
        fires anything the smaller protocol now enables — unblocking
        survivors that were parked mid-barrier.

        Locking: the world stops under ``_lock`` plus every *old* region
        lock; the new regions' fresh locks are additionally taken before the
        new routing table is published, so a concurrent submitter that
        resolves the new route parks on its region lock until the swap —
        including the closing drain — has completed.
        """
        with self._lock:
            old_locks = self._all_locks
            self._acquire(old_locks)
            new_acquired: tuple = ()
            try:
                self._steps_base = self.steps
                self._scan_base = self.scan_total
                old_send, old_recv = self._pending_send, self._pending_recv
                for r in self.regions:
                    r.live = False
                self.buffers = buffers
                self.sources = sources
                self.sinks = sinks
                self._pending_send = {v: deque() for v in sources}
                self._pending_recv = {v: deque() for v in sinks}
                for old_map, new_map, was_send in (
                    (old_send, self._pending_send, True),
                    (old_recv, self._pending_recv, False),
                ):
                    for v, q in old_map.items():
                        nv = vertex_map.get(v)
                        if nv is None or nv not in new_map:
                            self._fail_queue(
                                q,
                                PortClosedError(
                                    f"vertex {v!r} left the protocol signature"
                                ),
                                is_send=was_send,
                            )
                            continue
                        for op in q:
                            op.vertex = nv
                        new_map[nv] = q  # reuse the deque: see docstring
                self._closed_vertices = {
                    vertex_map[v] for v in self._closed_vertices if v in vertex_map
                }
                self._vertex_errors = {
                    vertex_map[v]: e
                    for v, e in self._vertex_errors.items()
                    if v in vertex_map
                }
                self._peer_failures.clear()
                self._vertex_party = {}
                for party in self._parties.values():
                    party.vertices = {
                        vertex_map[v] for v in party.vertices if v in vertex_map
                    }
                    for v in party.vertices:
                        self._vertex_party[v] = party
                if self.expected_parties is not None:
                    self.expected_parties = max(
                        0, self.expected_parties - expected_delta
                    )
                self._policies = {
                    vertex_map[v]: p
                    for v, p in self._policies.items()
                    if v in vertex_map
                }
                self.dead.remap(vertex_map)
                if initial_occupancy is not None:
                    # The re-instantiated connector's token baseline (captured
                    # by the caller *before* buffer migration) replaces the
                    # old one.
                    self._initial_occupancy = initial_occupancy
                self._party_gen += 1
                self._suspect = None
                self._plans.clear()
                self._adopt_regions(regions)
                # Fresh locks, unreachable until now: acquiring them under
                # the old locks cannot deadlock.
                self._acquire(self._all_locks)
                new_acquired = self._all_locks
                for qmap in (self._pending_send, self._pending_recv):
                    for v, q in qmap.items():
                        if q:
                            owner = self._route.get(v)
                            if owner is not None:
                                owner.pend[v] = None
                if self._metrics is not None:
                    # The boundary signature changed: rebind the per-vertex
                    # metric children and sampled gauges to the new vertex set.
                    self._metrics.attach_engine(self)
                for r in self.regions:
                    r.dirty = True
                self._drain_all_locked()
                self._wake_all_locked()
            finally:
                self._release(new_acquired)
                self._release(old_locks)

    # ------------------------------------------------------------ internals

    def _mark_active(self, vertex: str, now: float | None = None) -> None:
        """Record protocol activity for the party owning ``vertex`` (owner
        region lock held): submitting an op or having one completed by a
        firing."""
        party = self._vertex_party.get(vertex)
        if party is not None:
            party.last_active = now if now is not None else time.monotonic()
            party.steps_active = self._steps_approx

    def _count_withdrawn(self, vertex: str, is_send: bool) -> None:
        """Count one submitted-but-never-completed operation (timeout,
        failed try_* probe, or failure delivery).  Callers hold the owning
        region's lock (or every lock), matching the submit-side counters."""
        mx = self._metrics
        if mx is not None:
            child = (mx.wd_send if is_send else mx.wd_recv).get(vertex)
            if child is not None:  # vertex unknown only mid-reconfigure
                child.value += 1.0

    def _fail_queue(self, queue: deque | None, error: Exception | None = None,
                    *, is_send: bool) -> None:
        if not queue:
            return
        while queue:
            op = queue.popleft()
            op.error = error or PortClosedError(f"vertex {op.vertex!r} closed")
            self._count_withdrawn(op.vertex, is_send)
            self._wake(op)

    def _check_open(self, vertex: str) -> None:
        if self._closed or vertex in self._closed_vertices:
            raise self._vertex_errors.get(vertex) or PortClosedError(
                f"vertex {vertex!r} closed"
            )

    # ------------------------------------------------- submission hot path

    def _try_submit(self, queue: deque, op: _Op, is_send: bool = False) -> bool:
        spill: list = []
        try:
            region = self._acquire_owner(op.vertex)
            if region is None:
                raise KeyError(op.vertex)
            try:
                self._check_open(op.vertex)
                if is_send and self._draining:
                    raise PortClosedError(
                        f"vertex {op.vertex!r} rejected: connector draining"
                    )
                self._mark_active(op.vertex)
                mx = self._metrics
                if mx is not None:
                    child = (mx.sub_send if is_send else mx.sub_recv).get(op.vertex)
                    if child is not None:  # vertex unknown only mid-reconfigure
                        child.value += 1.0
                queue.append(op)
                region.pend[op.vertex] = None
                region.dirty = True
                self._drain_region(region, spill)
                if op.done:
                    return True
                if op.error is not None:
                    raise op.error
                queue.remove(op)
                if not queue:
                    region.pend.pop(op.vertex, None)
                self._count_withdrawn(op.vertex, is_send)
                return False
            finally:
                region.lock.release()
        finally:
            if spill:
                self._chase(spill)

    def _submit(
        self,
        queue: deque,
        op: _Op,
        timeout: float | None,
        policy: OverloadPolicy | None = None,
        is_send: bool = False,
    ) -> None:
        if timeout is None:
            timeout = self.default_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        vertex = op.vertex
        spill: list = []
        try:
            region = self._acquire_owner(vertex)
            if region is None:
                raise KeyError(vertex)
            try:
                self._check_open(vertex)
                if is_send and self._draining:
                    raise PortClosedError(
                        f"vertex {vertex!r} rejected: connector draining"
                    )
                op.t_enq = time.monotonic()
                op.steps_enq = self._steps_approx
                self._mark_active(vertex, op.t_enq)
                mx = self._metrics
                if mx is not None:
                    child = (mx.sub_send if is_send else mx.sub_recv).get(vertex)
                    if child is not None:  # vertex unknown only mid-reconfigure
                        child.value += 1.0
                queue.append(op)
                region.pend[vertex] = None
                region.dirty = True
                self._drain_region(region, spill)
                if not op.done and op.error is None:
                    pol = (policy if policy is not None
                           else self._policies.get(vertex))
                    if (
                        pol is not None
                        and pol.kind != "block"
                        and len(queue) > pol.max_pending
                    ):
                        self._overflow(queue, op, pol, region)
                    if not op.done and op.error is None:
                        # Park: install the op's slot, already acquired,
                        # while still under the region lock, so any later
                        # firing or failure is guaranteed to release it.
                        slot = _new_slot()
                        slot.acquire()
                        op.slot = slot
                        self._parked.append(None)
            finally:
                region.lock.release()
        finally:
            if spill:
                self._chase(spill)
        if op.done:
            return
        if op.error is not None:
            raise op.error
        self._wait_blocked(queue, op, slot, timeout, deadline, is_send)

    def _wait_blocked(self, queue: deque, op: _Op, slot, timeout, deadline,
                      is_send: bool) -> None:
        """Parked-submitter loop (no locks held): sleep on the op's slot
        until it is released or the deadline passes.  A release that left
        the op unresolved is a wake-up call: re-install the slot and
        re-check for deadlock, as a park does.  ``recheck`` is set while
        this waiter owns a deadlock suspect awaiting confirmation."""
        recheck = self._deadlock_check(op)
        while True:
            wait = -1.0 if deadline is None else max(
                0.0, deadline - time.monotonic())
            if recheck is not None and (wait < 0 or recheck < wait):
                wait = recheck
            woke = slot.acquire(True, wait)
            if op.done:
                return
            if op.error is not None:
                raise op.error
            if woke:
                parked = False
                region = self._acquire_owner(op.vertex)
                if region is not None:  # None: the vertex left; op failed
                    try:
                        parked = not op.done and op.error is None
                        if parked:
                            op.slot = slot
                            self._parked.append(None)
                    finally:
                        region.lock.release()
                if parked:
                    recheck = self._deadlock_check(op)
                else:
                    # Resolved while the waiter was awake, so nobody will
                    # release the slot: hand it back for the next acquire.
                    slot.release()
                    recheck = None
            elif deadline is not None and time.monotonic() >= deadline:
                if self._withdraw_expired(queue, op, is_send):
                    raise ProtocolTimeoutError(op.vertex, timeout)
            elif recheck is not None:
                recheck = self._maybe_deadlock(op)

    def _withdraw_expired(self, queue: deque, op: _Op, is_send: bool) -> bool:
        """Cancel a timed-out op under its owner region's lock; ``False``
        when a firing or failure resolved it first (the caller's loop then
        observes the resolution)."""
        region = self._acquire_owner(op.vertex)
        if region is None:
            # The vertex left the signature; reconfigure failed the op.
            return op.error is None and not op.done
        try:
            if op.done or op.error is not None:
                return False
            try:
                queue.remove(op)
            except ValueError:
                pass
            if not queue:
                region.pend.pop(op.vertex, None)
            self._wake(op)  # drop the slot: its waiter is the caller
            self._count_withdrawn(op.vertex, is_send)
            return True
        finally:
            region.lock.release()

    def _overflow(self, queue: deque, op: _Op, pol: OverloadPolicy,
                  region) -> None:
        """Apply a non-``block`` policy to an over-bound queue (owner lock
        held).

        ``fail_fast`` withdraws ``op`` and raises; the shed kinds capture a
        value into the dead-letter buffer and complete its operation as if
        sent — the protocol never sees a shed value, but the submitter is
        released rather than parked (degrade predictably, don't fall over).
        """
        if pol.kind == "fail_fast":
            queue.remove(op)
            if not queue:
                region.pend.pop(op.vertex, None)
            if self._metrics is not None:
                with self._stat_lock:
                    self._metrics.rejected(op.vertex)
            raise OverloadError(op.vertex, pol.max_pending)
        if pol.kind == "shed_newest":
            victim = op
            queue.remove(op)
        else:  # shed_oldest: drop-head; the incoming op takes the freed slot
            victim = queue.popleft()
        if not queue:
            region.pend.pop(op.vertex, None)
        self.dead.capture(
            victim.vertex, victim.value, pol.kind, self.steps,
            pol.dead_letter_capacity,
        )
        if self._metrics is not None:
            with self._stat_lock:
                self._metrics.shed(victim.vertex, pol.kind)
        victim.done = True
        self._wake(victim)

    # ------------------------------------------------------ overload layer

    def dead_letters(self, vertex: str | None = None):
        """Shed values retained per vertex (or all, in shed order)."""
        return self.dead.of(vertex) if vertex is not None else self.dead.all()

    def shed_count(self, vertex: str | None = None) -> int:
        """Exact count of values ever shed (survives dead-letter eviction)."""
        return self.dead.count(vertex)

    def begin_drain(self) -> None:
        """Stop admitting new sends; receives keep flushing buffered values.

        Already-queued sends complete normally (they were admitted); new
        ``send``/``try_send`` calls raise :class:`PortClosedError` so
        producers see a clean close instead of a hang.
        """
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                self._draining = True
                self._wake_all_locked()
            finally:
                self._release(locks)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def drained(self) -> bool:
        """True when no send is pending and the buffered-value count is
        back down to the connector's initial occupancy (initialized tokens
        of ring connectors are protocol state, not user data)."""
        locks = self._all_locks
        self._acquire(locks)
        try:
            if any(self._pending_send.values()):
                return False
            occupancy = sum(
                self.buffers.occupancy(n) for n in self.buffers.names()
            )
            return occupancy <= self._initial_occupancy
        finally:
            self._release(locks)

    def party_progress(self) -> tuple[list[dict], int]:
        """Watchdog probe: one row per registered party.

        Each row reports the party's pending-operation count, how long its
        *oldest* pending op has waited (``waited``), how long since the
        party's last protocol activity (``idle`` — a submitted op or a
        firing that completed one), and how many global steps the engine
        fired since that activity (``steps_since_active``).  ``idle`` high
        while ``steps_since_active > 0`` is the stall signature: this party
        went quiet while its peers kept firing — covering both a task
        wedged in application code (no pending op at all) and one starved
        behind an old pending op.  When nothing fires anywhere the step
        count freezes too, and that case belongs to the deadlock detector.
        Returns ``(rows, engine_steps)``.
        """
        with self._lock:
            locks = self._all_locks
            self._acquire(locks)
            try:
                now = time.monotonic()
                steps = self.steps
                rows = []
                for i, party in enumerate(self._parties.values()):
                    pending = 0
                    oldest_t: float | None = None
                    for v in party.vertices:
                        for q in (self._pending_send.get(v),
                                  self._pending_recv.get(v)):
                            if not q:
                                continue
                            for o in q:
                                pending += 1
                                if oldest_t is None or o.t_enq < oldest_t:
                                    oldest_t = o.t_enq
                    rows.append({
                        "name": party.name or f"party{i}",
                        "vertices": tuple(sorted(party.vertices)),
                        "pending": pending,
                        "waited": (now - oldest_t) if oldest_t is not None else 0.0,
                        "idle": now - party.last_active,
                        "steps_since_active": steps - party.steps_active,
                    })
                return rows, steps
            finally:
                self._release(locks)

    # -------------------------------------------------- deadlock detection

    def _deadlock_check(self, waiter: _Op):
        """Run the detector when parked slots have reached the party
        threshold (no locks held; lock-free otherwise).  Every park and
        re-park calls this, so the park that completes a deadlock — or the
        last re-park after a wake-up call — is the one that finds it.
        Returns :meth:`_maybe_deadlock`'s result."""
        threshold = len(self._parties) or self.expected_parties
        if threshold is None or len(self._parked) < threshold:
            return None
        return self._maybe_deadlock(waiter)

    def _maybe_deadlock(self, waiter: _Op):
        """Deadlock detection — caller holds *no* locks.  Takes the
        registry lock, then every region lock, for a globally consistent
        snapshot of queues, parked slots, and region states.

        ``waiter`` is the calling waiter's op.  Returns the seconds until
        that waiter should call again when it raised a registered-mode
        suspect that is still inside its ``detection_grace`` window, else
        ``None``."""
        with self._lock:
            if self._parties:
                threshold = len(self._parties)
                grace = self.detection_grace
            elif self.expected_parties is not None:
                threshold = self.expected_parties
            else:
                return None
            if not self._parties:
                grace = 0.0
            locks = self._all_locks
            self._acquire(locks)
            try:
                # Self-heal: finish any signalled-but-unchased cross-region
                # work first (a chaser that died mid-exception leaves dirty
                # flags behind; draining them here keeps detection sound).
                for r in self.regions:
                    if r.dirty:
                        self._drain_all_locked()
                        break
                # ``stuck`` counts committed (queued, not-yet-completed)
                # operations; completed operations are popped at firing time,
                # and withdrawn (timed-out / non-blocking) operations are
                # removed under their region lock.  Requiring the count of
                # parked slots to agree means a posted op, a non-blocking
                # probe or a waiter awake between wake-up and re-park can
                # never inflate the count into a spurious detection.
                stuck = self._pending_count()
                if stuck < threshold or len(self._parked) < threshold:
                    self._suspect = None
                    return None
                if grace > 0.0:
                    # Confirmation window: a party that has not *registered*
                    # yet (e.g. a task the group is still spawning) must get
                    # a chance to appear before we conclude the registered
                    # set is complete.  Any firing or (un)registration resets
                    # the sighting.  The waiter that raised it calls again
                    # once the window has passed; a release of its slot
                    # drops the suspect (see _wake).
                    mark = (self.steps, self._party_gen, stuck)
                    now = time.monotonic()
                    if self._suspect is None or self._suspect[0] != mark:
                        self._suspect = (mark, now, waiter)
                        return grace
                    _, since, raiser = self._suspect
                    if now - since < grace:
                        return since + grace - now if raiser is waiter else None
                err = self._stuck_error(threshold)
                for qmap, was_send in (
                    (self._pending_send, True),
                    (self._pending_recv, False),
                ):
                    for q in qmap.values():
                        for op in q:
                            op.error = err
                            self._count_withdrawn(op.vertex, was_send)
                            self._wake(op)
                        q.clear()
                for r in self.regions:
                    r.pend.clear()
                self._suspect = None
                return None
            finally:
                self._release(locks)

    def _stuck_error(self, threshold: int) -> Exception:
        """The error delivered to all blocked parties: a PeerFailedError
        blaming the first crashed peer when supervision recorded one, else a
        DeadlockError with a full diagnostic dump."""
        diagnostic = render_deadlock_diagnostic(
            pending_sends={v: len(q) for v, q in self._pending_send.items() if q},
            pending_recvs={v: len(q) for v, q in self._pending_recv.items() if q},
            region_states=[r.state for r in self.regions],
            parties={
                (p.name or f"party{i}"): sorted(p.vertices)
                for i, p in enumerate(self._parties.values())
            },
            blocked=len(self._parked),
            events=self.tracer.events[-8:] if self.tracer is not None else (),
        )
        if self._peer_failures:
            first = self._peer_failures[0]
            return PeerFailedError(
                first.task,
                first.cause,
                message=(
                    f"peer task {first.task!r} failed ({first.cause!r}); "
                    f"all remaining parties blocked\n{diagnostic}"
                ),
            )
        return DeadlockError(
            f"all {threshold} parties blocked with no enabled transition",
            diagnostic=diagnostic,
        )

    # ------------------------------------------------------- firing engine

    def _drain_region(self, region, spill: list | None) -> None:
        """Fire ``region`` until quiescent (its lock held).

        One loop serves both tiers: round-robin over the current state's
        compiled table (see :mod:`repro.compiler.steps` and
        docs/COMPILER.md); a table miss JIT-compiles the state (lazy regions
        reach states discovered only at run time), and a demoted region or
        a state past the table cap fires once through the interpreter —
        mid-drain and per state, with identical behaviour.

        Regions whose shared buffers changed are marked dirty and appended
        to ``spill`` for the caller to chase after releasing this lock;
        ``None`` means the caller holds every region lock and will consult
        dirty flags directly.
        """
        region.dirty = False
        pend = region.pend
        cursors = region.cursors
        ctable = region.ctable  # re-read only after a miss (JIT, demotion)
        watchers = self._watchers
        # Hoisted: metrics and the tracer are bound at construction, and
        # parties only (un)register under every region lock.
        obs = self._observing or bool(self._vertex_party)
        trace_lock = self._trace_lock if self.tracer is not None else None
        while True:
            state = region.state
            entries = None if ctable is None else ctable.get(state)
            if entries is None:
                if ctable is not None:
                    entries = self._compile_region_state(region)
                    ctable = region.ctable
                if entries is None:
                    if self._fire_one_interp(region, pend, spill, obs):
                        continue
                    return
            n = len(entries)
            if n == 0:
                return
            start = cursors.get(state, 0) % n
            # Cross-region trace causality: the trace lock is held across
            # the probe loop (coarser than the interpreter's probe→record
            # section, with the same guarantee).
            if trace_lock is not None:
                trace_lock.acquire()
            try:
                for k in range(n):
                    e = entries[(start + k) % n]
                    r = e.fire(pend, obs)
                    if r is None:
                        continue
                    region.state = e.target
                    cursors[state] = (start + k + 1) % n
                    region.fired += 1
                    self._steps_approx += 1
                    if watchers:
                        self._signal(region, e.touched, spill)
                    if r is not True:
                        self._observe_fire(region, e.label, r, k)
                    break
                else:
                    return
            finally:
                if trace_lock is not None:
                    trace_lock.release()

    def _chase(self, spill: list) -> None:
        """Drain the regions a firing signalled, one lock at a time (no
        other locks held).  Newly signalled regions are appended to
        ``spill`` while iterating; already-clean entries are skipped, so the
        loop terminates when the signal cascade dies out."""
        i = 0
        while i < len(spill):
            region = spill[i]
            i += 1
            if not region.dirty or not region.live:
                continue
            region.lock.acquire()
            try:
                if region.dirty and region.live:
                    self._drain_region(region, spill)
            finally:
                region.lock.release()

    def _drain_all_locked(self) -> None:
        """Drain every dirty region to quiescence (all region locks held —
        construction, restore, reconfigure, and detection self-heal)."""
        again = True
        while again:
            again = False
            for region in self.regions:
                if region.dirty:
                    again = True
                    self._drain_region(region, None)

    def _compile_region_state(self, region):
        """JIT-compile the region's current control state.  Returns the
        new table entry, or ``None`` after demoting the region / hitting
        the state cap — the caller then interprets."""
        if len(region.ctable) >= _STATE_TABLE_CAP:
            return None
        try:
            entries = self._step_compiler.compile_state(
                region.candidates(),
                region.state,
                lazy=isinstance(region, LazyRegion),
            )
        except CompileError:
            if self._compiled == "require":
                raise
            region.compiled = False
            region.ctable = None
            return None
        region.ctable[region.state] = entries
        return entries

    def _signal(self, region, touched, spill: list | None) -> None:
        """Mark dirty the other regions watching a buffer a firing of
        ``region`` mutated (pushes/pops only — guard probes don't change
        contents), appending them to ``spill`` (see :meth:`_drain_region`)."""
        watchers = self._watchers
        for b in touched:
            ws = watchers.get(b)
            if ws:
                for w in ws:
                    if w is not region and not w.dirty:
                        w.dirty = True
                        if spill is not None:
                            spill.append(w)

    def _observe_fire(self, region, label, fired, k: int) -> None:
        """The observed epilogue of one firing, shared by both tiers:
        liveness stamps, metrics, and the tracer record, so checkpoints and
        traces round-trip across tiers.  ``fired`` is ``(completed_sends,
        completed_recvs, deliveries, enq)`` with ``deliveries`` the
        ``(vertex, value)`` pairs (materialised only by the tracer) and
        ``enq`` the ``(vertex, t_enq)`` pairs of the completed ops in label
        order; ``k`` is the
        number of candidates skipped before this one; ``region.fired`` has
        already been advanced."""
        sends, recvs, deliveries, enq = fired
        # One clock read per fired step, shared by liveness stamping, the
        # latency histogram, and the tracer.
        t = time.monotonic()
        if self._vertex_party:
            for v in sends:
                self._mark_active(v, t)
            for v in recvs:
                self._mark_active(v, t)
        mx = self._metrics
        if mx is not None:
            # Plain int: pull-sampled (with engine.steps) at collect time,
            # so step totals cost the hot path nothing beyond this add.
            region.scanned += k + 1
            done = mx.done
            for v in sends:
                child = done.get(v)
                if child is not None:
                    child.value += 1.0
            for v in recvs:
                child = done.get(v)
                if child is not None:
                    child.value += 1.0
            # The latency histogram samples every LATENCY_STRIDE-th fired
            # step: a full observe per step is the single largest metric
            # cost, and the distribution doesn't need every step.
            if enq and (region.fired - 1) & _LAT_MASK == 0:
                # Age of the oldest completed op; 0.0 when every completed
                # op was non-blocking (t_enq unstamped).
                min_te = 0.0
                for _v, te in enq:
                    if te and (not min_te or te < min_te):
                        min_te = te
                with self._stat_lock:
                    mx.latency_child.observe(t - min_te if min_te else 0.0)
        if self.tracer is not None:
            self.tracer.record(
                region.idx,
                label,
                list(sends),
                list(recvs),
                deliveries,
                t=t,
                waits=tuple((v, t - te if te else 0.0) for v, te in enq),
            )

    def _fire_one_interp(self, region, pending, spill, obs) -> bool:
        """The interpretive firing engine — the always-correct tier every
        region can fall back to (plan evaluation via
        :class:`~repro.automata.simplify.FiringPlan`).  Fires at most one
        transition; ``obs`` requests the observed epilogue."""
        steps = region.candidates()
        n = len(steps)
        if n == 0:
            return False
        # Cross-region trace causality: holding the trace lock from probe to
        # record means a consumer region can only observe (and record) a
        # value strictly after its producer's record — the tracer's sequence
        # numbers then respect buffer causality even across OS threads.
        trace_lock = self._trace_lock if self.tracer is not None else None
        # Fairness: round-robin over the candidate list, with one cursor
        # *per control state*.  A cursor is an index into this state's
        # candidate list; the old engine shared one cursor per region, so a
        # cycle of states whose lists differ in length/order could revisit
        # the choice state at the same index forever and starve a competing
        # candidate (regression: test_engine.py rr-rotation tests).  After
        # a firing the cursor moves just past the fired candidate, so every
        # persistently enabled candidate at a recurring state is scanned
        # first within n visits.
        state0 = region.state
        start = region.cursors.get(state0, 0) % n
        for k in range(n):
            step = steps[(start + k) % n]
            label = step.label
            offers = None
            enabled = True
            for v in label:
                if v in self._closed_vertices:
                    enabled = False
                    break
                sq = self._pending_send.get(v)
                if sq is not None:
                    if not sq:
                        enabled = False
                        break
                    if offers is None:
                        offers = {}
                    offers[v] = sq[0].value
                    continue
                rq = self._pending_recv.get(v)
                if rq is not None and not rq:
                    enabled = False
                    break
            if not enabled:
                continue
            plan = self._plan_for(step)
            if trace_lock is not None:
                trace_lock.acquire()
            try:
                slots = plan.evaluate(offers or {}, self.buffers)
                if slots is None:
                    continue
                # Fire!
                deliveries = plan.commit(self.buffers, slots)
                completed_sends: list[str] = []
                completed_recvs: list[str] = []
                enq: list | None = [] if obs else None
                for v in label:
                    sq = self._pending_send.get(v)
                    if sq is not None:
                        op = sq.popleft()
                        op.done = True
                        self._wake(op)
                        completed_sends.append(v)
                        if not sq:
                            pending.pop(v, None)
                    else:
                        rq = self._pending_recv.get(v)
                        if rq is None:
                            continue
                        op = rq.popleft()
                        op.value = deliveries.get(v)
                        op.done = True
                        self._wake(op)
                        completed_recvs.append(v)
                        if not rq:
                            pending.pop(v, None)
                    if enq is not None:
                        enq.append((v, op.t_enq))
                region.advance(step)
                region.cursors[state0] = (start + k + 1) % n
                region.fired += 1
                self._steps_approx += 1
                if self._watchers:
                    self._signal(region, plan.touched, spill)
                if obs:
                    self._observe_fire(
                        region, label,
                        (completed_sends, completed_recvs,
                         deliveries.items(), enq),
                        k,
                    )
            finally:
                if trace_lock is not None:
                    trace_lock.release()
            return True
        return False

    def _plan_for(self, step) -> FiringPlan:
        key = (step.label, step.atoms, step.effects)
        plan = self._plans.get(key)
        if plan is None:
            plan = commandify(
                step.label,
                step.atoms,
                step.effects,
                self.sources,
                self.sinks,
                self.registry,
            )
            self._plans[key] = plan
        return plan

    def precompile_plans(self) -> int:
        """Compile plans for every transition of every eager region now
        (the existing approach's compile-time share).  Returns the number of
        plans compiled."""
        count = 0
        for region in self.regions:
            if isinstance(region, EagerRegion):
                for t in region.automaton.transitions:
                    self._plan_for(t)
                    count += 1
        return count

    # ------------------------------------------------------------- sampling

    def pending_depths(self) -> list[tuple[str, str, int]]:
        """Queue-depth rows ``(vertex, "send"|"recv", depth)`` for the
        metrics gauges, read under the region locks."""
        locks = self._all_locks
        self._acquire(locks)
        try:
            rows = [(v, "send", len(q)) for v, q in self._pending_send.items()]
            rows += [(v, "recv", len(q)) for v, q in self._pending_recv.items()]
            return rows
        finally:
            self._release(locks)

    def buffered_total(self) -> int:
        """Total buffered-value count across the store (metrics gauge)."""
        locks = self._all_locks
        self._acquire(locks)
        try:
            return sum(
                self.buffers.occupancy(n) for n in self.buffers.names()
            )
        finally:
            self._release(locks)

    # ------------------------------------------------------------- stats

    def stats(self) -> dict:
        out = {
            "steps": self.steps,
            "plans": len(self._plans),
            "regions": len(self.regions),
            "parties": len(self._parties),
            "blocked": len(self._parked),
            "shed": self.dead.count(),
            "draining": self._draining,
            "step_tier": self._compiled,
        }
        expansions = 0
        cache_len = 0
        compiled_regions = 0
        compiled_states = 0
        for r in self.regions:
            if isinstance(r, LazyRegion):
                expansions += r.lazy.expansions
                cache_len += len(r.lazy.cache)
            if r.compiled:
                compiled_regions += 1
                compiled_states += len(r.ctable)
        out["expansions"] = expansions
        out["cached_states"] = cache_len
        out["compiled_regions"] = compiled_regions
        out["compiled_states"] = compiled_states
        return out

