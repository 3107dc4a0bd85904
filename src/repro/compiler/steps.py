"""Run-time specialization of the firing hot path ("step compilation").

:mod:`repro.automata.simplify` compiles a transition's declarative data
constraint into an *interpreted* :class:`~repro.automata.simplify.FiringPlan`
— the commandification of ref [30].  This module goes one tier further: it
emits a **specialized Python step function per transition**, closing over
the exact run-time objects the firing touches (the pending-op deques of the
label's boundary vertices, the buffer deques, the resolved registry
callables), and ``exec``-utes it once at compile time.  Firing then costs
one generated-function call — no candidate allocation, no plan-key hashing,
no interpretive walk over guards/assigns/checks, no ``dict.get`` per label
vertex.

Pipeline position (docs/COMPILER.md has the full walkthrough)::

    text ──parse──▶ AST ──flatten/normalize──▶ medium automata
         ──product/partition──▶ regions ──commandify──▶ FiringPlan (IR)
         ──this module──▶ specialized step functions (per region state)

The :class:`~repro.automata.simplify.FiringPlan` is the compile IR — taken
from the engine's plan cache, which the interpreter shares: the emitted body
is a straight-line transcription of its guards, slot assigns, checks,
effects, and deliveries, plus the enabledness probe and operation
completion that :meth:`CoordinatorEngine._fire_one_interp` performs around
the plan.  The engine's one firing loop (``_drain_region``) calls the
emitted functions and runs the bookkeeping and observed epilogue for both
tiers.  Semantics are identical by construction — the differential-fuzzing
modes ``regions-compiled``/``global-compiled`` (:mod:`repro.fuzz.harness`)
hold the two tiers to trace equivalence.

Compile-or-fall-back contract
-----------------------------
Compilation is *best effort*: anything this module cannot specialize raises
:class:`~repro.util.errors.CompileError`, and the engine demotes the
affected region to the always-correct interpretive tier (nothing else
catches that type — see docs/COMPILER.md "When compilation refuses").
Genuine refusals:

* a constraint referencing a function/predicate name not registered yet —
  the interpreter resolves names at *first fire*, so late registration must
  keep working (the compiled tier would have to resolve at connect time);
* a constraint :func:`~repro.automata.simplify.commandify` itself rejects
  (e.g. a push of an undetermined value) — the interpreter surfaces that
  :class:`~repro.util.errors.ConstraintError` at first fire, and demotion
  preserves exactly that behaviour;
* a region over the compile budget (:data:`TRANSITION_BUDGET`) — emitting
  and ``exec``-ing tens of thousands of functions would cost more than it
  saves.

The generated closures bind deque/set **objects**, so every code path that
replaces such an object must recompile or mutate in place:
``reconfigure`` swaps queues and the closed-vertex set, and recompiles via
``_adopt_regions``; ``BufferStore.set_contents`` (checkpoint restore)
mutates its deques in place for precisely this reason.
"""

from __future__ import annotations

from repro.automata.constraint import (
    App,
    FunctionRegistry,
    Pred,
    Push,
    Term,
)
from repro.automata.simplify import (
    _APPLY,
    _CONST,
    _PEEK,
    _SEND,
    FiringPlan,
)
from repro.util.errors import CompileError, ConstraintError

#: Per-region bound on transitions compiled ahead of time.  An eager region
#: beyond this is demoted wholesale (exec-ing that many functions would
#: dwarf any firing speedup); lazy regions compile per *visited* state and
#: are bounded by the engine's state-table cap instead.
TRANSITION_BUDGET = 20_000


class CompiledStep:
    """One transition's specialized step function plus its firing metadata.

    ``fire(pending, obs)`` runs probe → guards → checks → effects →
    operation completion and returns

    * ``None`` — not enabled (nothing was mutated);
    * ``True`` — fired, unobserved fast path (``obs`` falsy);
    * a 4-tuple ``(completed_sends, completed_recvs, deliveries, enq)`` —
      fired with ``obs`` truthy; the engine drives the observability
      epilogue (metrics, liveness stamps, tracer record) from it.

    ``target`` is the precomputed successor control state (an ``int`` for
    eager regions, a state tuple for lazy ones); ``touched`` the buffers a
    firing mutates (for cross-region signalling); ``source`` the emitted
    Python text (artifact uploads, docs, ``tools/dump_compiled_steps.py``).
    """

    __slots__ = ("label", "target", "touched", "fire", "source")

    def __init__(self, label, target, touched, fire, source):
        self.label = label
        self.target = target
        self.touched = touched
        self.fire = fire
        self.source = source


def _constraint_names(atoms, effects) -> tuple[set[str], set[str]]:
    """Function/predicate names a transition's constraint references."""
    functions: set[str] = set()
    predicates: set[str] = set()

    def walk(t: Term) -> None:
        if isinstance(t, App):
            functions.add(t.func)
            walk(t.arg)

    for a in atoms:
        if isinstance(a, Pred):
            predicates.add(a.pred)
            walk(a.arg)
        else:
            for attr in ("left", "right"):
                term = getattr(a, attr, None)
                if term is not None:
                    walk(term)
    for e in effects:
        if isinstance(e, Push):
            walk(e.term)
    return functions, predicates


class StepCompiler:
    """Specializes transitions against one engine's concrete run-time state.

    Bound (at construction) to the engine's pending-op queue maps, buffer
    store, boundary signature, registry, closed-vertex set, and wake
    function — the exact objects the emitted closures capture — and to the
    engine's plan cache ``plan_for`` (``step -> FiringPlan``), which both
    tiers share, so a transition is commandified once.  The engine builds a
    fresh compiler in ``_adopt_regions`` so construction *and* reconfigure
    bind current objects.
    """

    def __init__(
        self,
        pending_send: dict,
        pending_recv: dict,
        buffers,
        sources: frozenset[str],
        sinks: frozenset[str],
        registry: FunctionRegistry,
        closed_vertices: set,
        wake,
        plan_for,
    ):
        self._pending_send = pending_send
        self._pending_recv = pending_recv
        self._buffers = buffers
        self._sources = sources
        self._sinks = sinks
        self._registry = registry
        self._closed = closed_vertices
        self._wake = wake
        self._plan_for = plan_for

    # ------------------------------------------------------------------

    def compile_state(self, steps, state, lazy: bool) -> tuple:
        """Compile one control state's candidate transitions, in candidate
        order (round-robin cursors index this list identically in both
        tiers).  Raises :class:`CompileError` on the first refusal — the
        caller demotes the whole region, per the module contract."""
        out = []
        for step in steps:
            target = step.successor(state) if lazy else step.target
            out.append(self.compile_transition(step, target))
        return tuple(out)

    def compile_automaton(self, automaton) -> dict:
        """Compile every state of an eager region's large automaton into a
        ``{state: (CompiledStep, ...)}`` table."""
        if len(automaton.transitions) > TRANSITION_BUDGET:
            raise CompileError(
                f"region has {len(automaton.transitions)} transitions, over "
                f"the step-compile budget of {TRANSITION_BUDGET}"
            )
        return {
            s: self.compile_state(automaton.outgoing(s), s, lazy=False)
            for s in range(automaton.n_states)
        }

    # ------------------------------------------------------------------

    def compile_transition(self, step, target) -> CompiledStep:
        """Emit and ``exec`` the specialized step function for one
        transition (a :class:`~repro.automata.automaton.Transition` or a
        :class:`~repro.automata.product.ComposedStep`)."""
        label = step.label
        # Late-registration probe: commandify would raise KeyError here,
        # but the interpreter resolves names at first fire — demote so a
        # registration between connect and first fire keeps working.
        functions, predicates = _constraint_names(step.atoms, step.effects)
        for name in sorted(functions):
            if self._registry.try_function(name) is None:
                raise CompileError(
                    f"function {name!r} not registered at compile time"
                )
        for name in sorted(predicates):
            if self._registry.try_predicate(name) is None:
                raise CompileError(
                    f"predicate {name!r} not registered at compile time"
                )
        try:
            plan = self._plan_for(step)
        except ConstraintError as exc:
            # The interpreter would surface this at first fire; demoting
            # the region preserves that behaviour exactly.
            raise CompileError(f"unplannable constraint: {exc}") from exc
        return self._emit(label, target, plan)

    # ------------------------------------------------------------------

    def _emit(self, label, target, plan: FiringPlan) -> CompiledStep:
        ns: dict = {}  # exec namespace: closure bindings by stable name
        lines: list[str] = ["def _fire(pending, obs):"]
        body: list[str] = []

        def bind(prefix: str, obj, memo: dict) -> str:
            key = id(obj)
            name = memo.get(key)
            if name is None:
                name = f"_{prefix}{len(memo)}"
                memo[key] = name
                ns[name] = obj
            return name

        buf_memo: dict = {}
        misc_memo: dict = {}

        def buf(name: str) -> str:
            return bind("b", self._buffers.queue(name), buf_memo)

        if plan.never:
            body.append("return None")  # statically false constraint

        # --- enabledness probe (the interpreter's per-label-vertex scan,
        # with the send/recv/internal classification done *here*) ---------
        sends: list[str] = []   # label order, like the interpreter's loop
        recvs: list[str] = []
        qvar: dict[str, str] = {}
        if not plan.never:
            boundary = [v for v in label
                        if v in self._sources or v in self._sinks]
            if boundary:
                probe = " or ".join(f"{v!r} in _closed" for v in boundary)
                ns["_closed"] = self._closed
                body.append("if _closed:")
                body.append(f"    if {probe}:")
                body.append("        return None")
            for v in label:
                if v in self._sources:
                    q = bind("sq", self._pending_send[v], misc_memo)
                    sends.append(v)
                    qvar[v] = q
                    body.append(f"if not {q}:")
                    body.append("    return None")
                elif v in self._sinks:
                    q = bind("rq", self._pending_recv[v], misc_memo)
                    recvs.append(v)
                    qvar[v] = q
                    body.append(f"if not {q}:")
                    body.append("    return None")
                # internal vertices: no queue, nothing to probe

            # --- buffer guards (plan order) ------------------------------
            for g in plan.guards:
                q = buf(g.buffer)
                if g.not_full:
                    cap = self._buffers.capacity(g.buffer)
                    if cap is not None:
                        body.append(f"if len({q}) >= {cap}:")
                        body.append("    return None")
                else:
                    body.append(f"if not {q}:")
                    body.append("    return None")

            # --- slot assigns (plan order) --------------------------------
            for slot, kind, payload in plan.assigns:
                if kind == _SEND:
                    body.append(f"_s{slot} = {qvar[payload]}[0].value")
                elif kind == _PEEK:
                    body.append(f"_s{slot} = {buf(payload)}[0]")
                elif kind == _CONST:
                    k = bind("k", payload, misc_memo)
                    body.append(f"_s{slot} = {k}")
                else:  # _APPLY
                    fn, src = payload
                    f = bind("f", fn, misc_memo)
                    body.append(f"_s{slot} = {f}(_s{src})")

            # --- checks (plan order) --------------------------------------
            for check in plan.checks:
                if check[0] == "eq":
                    body.append(f"if _s{check[1]} != _s{check[2]}:")
                else:  # ("pred", fn, slot, negate)
                    _, fn, slot, negate = check
                    f = bind("f", fn, misc_memo)
                    neg = "" if negate else "not "
                    body.append(f"if {neg}{f}(_s{slot}):")
                body.append("    return None")

            # --- effects: the point of no return --------------------------
            for b in plan.pops:
                body.append(f"{buf(b)}.popleft()")
            for b, slot in plan.pushes:
                body.append(f"{buf(b)}.append(_s{slot})")

            # --- operation completion (label order, like the interpreter) -
            deliver = dict(plan.deliveries)  # sink vertex -> slot
            opvar: dict[str, str] = {}
            for i, v in enumerate([u for u in label if u in qvar]):
                op = f"_op{i}"
                opvar[v] = op
                body.append(f"{op} = {qvar[v]}.popleft()")
                if v in deliver:
                    body.append(f"{op}.value = _s{deliver[v]}")
                body.append(f"{op}.done = True")
                # A parked submitter is woken through the engine, which
                # releases its slot at most once.
                ns["_wake"] = self._wake
                body.append(f"if {op}.slot is not None:")
                body.append(f"    _wake({op})")
                body.append(f"if not {qvar[v]}:")
                body.append(f"    pending.pop({v!r}, None)")

            # --- observed return: the engine's epilogue raw material ------
            body.append("if obs:")
            cs = "(" + "".join(f"{v!r}, " for v in sends) + ")"
            cr = "(" + "".join(f"{v!r}, " for v in recvs) + ")"
            dl = "(" + "".join(
                f"({v!r}, _s{slot}), " for v, slot in plan.deliveries
            ) + ")"
            enq = "(" + "".join(
                f"({v!r}, {opvar[v]}.t_enq), " for v in label if v in opvar
            ) + ")"
            body.append(f"    return ({cs}, {cr}, {dl}, {enq})")
            body.append("return True")

        lines.extend("    " + b for b in body)
        source = "\n".join(lines) + "\n"
        code = compile(source, f"<compiled step {sorted(label)}>", "exec")
        exec(code, ns)  # noqa: S102 - the whole point of this module
        fire = ns["_fire"]
        return CompiledStep(label, target, plan.touched, fire, source)


def region_sources(engine) -> list[tuple[int, object, str, str]]:
    """Emitted sources of every compiled step currently installed on
    ``engine`` — rows of ``(region_idx, state, label, source)``.  Used by
    ``tools/dump_compiled_steps.py`` (CI artifacts) and docs examples."""
    rows: list[tuple[int, object, str, str]] = []
    for region in engine.regions:
        table = getattr(region, "ctable", None)
        if not table:
            continue
        for state in sorted(table, key=repr):
            for entry in table[state]:
                rows.append(
                    (region.idx, state,
                     "{" + ",".join(sorted(entry.label)) + "}",
                     entry.source)
                )
    return rows
