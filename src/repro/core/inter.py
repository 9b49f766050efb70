"""The greedy inter-thread register allocator (paper section 6, Figure 8).

Starting from every thread's upper bounds ``(MaxPR_i, MaxSR_i)`` the loop
reduces the global requirement ``sum_i PR_i + max_i SR_i`` one register at
a time until it fits ``Nreg``:

* reducing ``PR_i`` of any one thread lowers the sum directly;
* reducing SR lowers the max only when *every* thread currently at the max
  reduces together (and only if each of them can).

Each candidate direction is *probed* by the threads' intra-thread
allocators, which report the move-instruction cost of the reduced context;
the loop commits the direction with the smallest cost increase.  Probes are
cached: committing a reduction to thread ``i`` invalidates only thread
``i``'s probes, which is what makes the paper's incremental-context scheme
pay off.

``zero_cost_only`` implements the Figure-14 experiment: keep reducing only
while some direction costs no moves at all, ignoring the register budget;
the end state is the smallest no-move register requirement.

``policy="round_robin"`` is an ablation: instead of probing costs it
reduces the widest thread's PR (then SR) blindly, so benchmarks can show
what the cost-probing buys.

The budget ``Nreg`` appears ONLY in the stop condition: the reduction
trajectory itself is budget-independent.  :class:`SharedDescent` (and the
convenience driver :func:`allocate_threads_descent`) exploits that to run
the descent ONCE, checkpoint the per-thread contexts at every requirement
level, and materialize an :class:`InterThreadResult` for *any* budget --
byte-identical to a fresh :func:`allocate_threads` at that budget, because
both walk the exact same committed prefix.  Checkpoints are O(1): the
intra allocators replace (never mutate) their accepted
:class:`~repro.core.context.AllocContext`, so snapshotting is taking a
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.analysis import ThreadAnalysis
from repro.core.bounds import Bounds
from repro.core.context import AllocContext
from repro.core.intra import IntraAllocator, ReduceResult, bounds_context
from repro.errors import AllocationError
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics


@dataclass
class ThreadAllocation:
    """Final per-thread allocation facts."""

    analysis: ThreadAnalysis
    bounds: Bounds
    pr: int
    sr: int
    context: AllocContext
    move_cost: int

    @property
    def r(self) -> int:
        return self.pr + self.sr

    @property
    def name(self) -> str:
        return self.analysis.program.name


@dataclass
class InterThreadResult:
    """Outcome of the inter-thread allocation across one PU."""

    threads: List[ThreadAllocation]
    nreg: int

    @property
    def sgr(self) -> int:
        """Globally shared registers: the max of per-thread SR demands."""
        return max((t.sr for t in self.threads), default=0)

    @property
    def total_private(self) -> int:
        return sum(t.pr for t in self.threads)

    @property
    def total_registers(self) -> int:
        return self.total_private + self.sgr

    @property
    def total_moves(self) -> int:
        return sum(t.move_cost for t in self.threads)

    def fits(self) -> bool:
        return self.total_registers <= self.nreg


@dataclass
class _Step:
    """One committed reduction of the descent."""

    step: int  #: 1-based commit number
    kind: str  #: ``"pr"`` | ``"sr"`` | ``"shift"``
    involved: List[int]
    delta: int  #: move-cost increase the commit was chosen at


#: ``advance`` statuses besides a committed :class:`_Step`.
_EXHAUSTED = "exhausted"  #: no candidate direction remains
_POSITIVE = "positive"  #: cheapest direction costs moves (zero-cost stop)


class _DescentEngine:
    """The Figure-8 loop's mechanics, one committed reduction at a time.

    Owns the intra-thread allocators, the per-thread probe caches, and the
    step counter; knows nothing about register budgets.  Both the classic
    :func:`allocate_threads` driver and :class:`SharedDescent` advance the
    same engine, which is what makes their trajectories identical by
    construction rather than by parallel maintenance.
    """

    def __init__(
        self,
        analyses: Sequence[ThreadAnalysis],
        policy: str = "greedy",
        bounds: Optional[Sequence[Bounds]] = None,
        _max_steps: Optional[int] = None,
    ):
        if policy not in ("greedy", "round_robin"):
            raise ValueError(f"unknown policy {policy!r}")
        if bounds is not None and len(bounds) != len(analyses):
            raise ValueError("bounds must match analyses one-to-one")
        self.policy = policy
        bs = list(bounds) if bounds is not None else [None] * len(analyses)
        # Threads running one program share its cached analysis and
        # bounds objects.  Their common start context is built and
        # validated once; each of them gets its own copy, whose maps are
        # cloned on first write, so no thread sees another's steps.
        keys = [(id(a), id(b)) for a, b in zip(analyses, bs)]
        starts: Dict[Tuple[int, int], AllocContext] = {}
        self.allocators = []
        for key, a, b in zip(keys, analyses, bs):
            if b is None or keys.count(key) < 2:
                self.allocators.append(IntraAllocator(a, b))
                continue
            start = starts.get(key)
            if start is None:
                start = starts[key] = bounds_context(a, b)
            self.allocators.append(IntraAllocator(a, b, start.copy()))
        self.nthd = len(self.allocators)
        self.step_no = 0
        self.exhausted = False
        # Safety cap only: every committed step retires at least one unit
        # of reducible slack (a PR, a shiftable color, or the shared max),
        # so any driver must stop earlier -- via budget satisfaction,
        # bound exhaustion, or the zero-cost cutoff.  Reaching the cap
        # means that invariant broke; drivers turn it into a loud failure
        # instead of silently returning a half-reduced allocation.
        self.max_steps = (
            _max_steps
            if _max_steps is not None
            else sum(b.bounds.max_r for b in self.allocators) + self.nthd + 8
        )
        # Probe caches: thread index -> ReduceResult (None if infeasible).
        self._pr_cache: Dict[int, Optional[ReduceResult]] = {}
        self._sr_cache: Dict[int, Optional[ReduceResult]] = {}
        self._shift_cache: Dict[int, Optional[ReduceResult]] = {}

    # ------------------------------------------------------------------
    # State read-offs.
    # ------------------------------------------------------------------
    def prs(self) -> List[int]:
        return [al.context.pr for al in self.allocators]

    def srs(self) -> List[int]:
        return [al.context.sr for al in self.allocators]

    def requirement(self) -> int:
        return sum(self.prs()) + (max(self.srs()) if self.allocators else 0)

    def move_cost(self) -> int:
        return sum(al.context.move_cost() for al in self.allocators)

    def contexts(self) -> Tuple[AllocContext, ...]:
        """The accepted per-thread contexts.  ``IntraAllocator.commit``
        *replaces* its context (probes work on copies), so this tuple is
        an immutable snapshot -- checkpointing is O(1)."""
        return tuple(al.context for al in self.allocators)

    def materialize(
        self, contexts: Iterable[AllocContext], nreg: int
    ) -> InterThreadResult:
        threads = [
            ThreadAllocation(
                analysis=al.analysis,
                bounds=al.bounds,
                pr=ctx.pr,
                sr=ctx.sr,
                context=ctx,
                move_cost=ctx.move_cost(),
            )
            for al, ctx in zip(self.allocators, contexts)
        ]
        return InterThreadResult(threads=threads, nreg=nreg)

    # ------------------------------------------------------------------
    # Probes (cached; see module docstring).
    # ------------------------------------------------------------------
    def _probe(
        self,
        kind: str,
        i: int,
        cache: Dict[int, Optional[ReduceResult]],
    ) -> Optional[ReduceResult]:
        em = obs.get_emitter()
        if i not in cache:
            if em.enabled:
                reg = obs_metrics.registry()
                # The unlabeled total stays byte-identical to the
                # pre-label telemetry; the ``kind`` breakdown and the
                # hit/miss counter are additive (docs/OBSERVABILITY.md).
                reg.counter("inter.probes").inc()
                reg.counter("inter.probes", kind=kind).inc()
                reg.counter("inter.probe_cache", result="miss").inc()
            al = self.allocators[i]
            if kind == "pr":
                cache[i] = al.probe_reduce_pr()
            elif kind == "sr":
                cache[i] = al.probe_reduce_sr()
            else:
                cache[i] = al.probe_shift()
        elif em.enabled:
            obs_metrics.registry().counter(
                "inter.probe_cache", result="hit"
            ).inc()
        return cache[i]

    def probe_pr(self, i: int) -> Optional[ReduceResult]:
        return self._probe("pr", i, self._pr_cache)

    def probe_sr(self, i: int) -> Optional[ReduceResult]:
        return self._probe("sr", i, self._sr_cache)

    def probe_shift(self, i: int) -> Optional[ReduceResult]:
        return self._probe("shift", i, self._shift_cache)

    def invalidate(self, i: int) -> None:
        self._pr_cache.pop(i, None)
        self._sr_cache.pop(i, None)
        self._shift_cache.pop(i, None)

    # ------------------------------------------------------------------
    # One iteration of the Figure-8 loop.
    # ------------------------------------------------------------------
    def advance(
        self, stop_on_positive: bool = False
    ) -> Tuple[str, Optional[_Step]]:
        """Probe every direction, pick one, and (usually) commit it.

        Returns ``("step", step)`` after a commit, ``(_EXHAUSTED, None)``
        when no direction remains, and -- only with ``stop_on_positive``
        (the zero-cost cutoff) -- ``(_POSITIVE, None)`` *without
        committing* when the cheapest direction costs moves.
        """
        allocators = self.allocators
        candidates: List[Tuple[int, str, int, List[ReduceResult]]] = []
        cur_srs = self.srs()
        max_sr = max(cur_srs) if cur_srs else 0

        # Probe threads with the most slack above their lower bounds
        # first: their reductions are the likeliest to be free, and a
        # zero-cost candidate is unbeatable, so probing can stop there
        # (cached probes keep later iterations cheap either way).
        order = sorted(
            range(self.nthd),
            key=lambda i: (
                allocators[i].bounds.min_pr - allocators[i].context.pr,
                i,
            ),
        )
        found_free = False
        for i in order:
            # Candidate: shift one thread's private color into the shared
            # range.  Free in total registers whenever the thread's SR is
            # strictly below the global max (the shared pool already has
            # the extra register), and usually cheaper than a PR
            # reduction, since only boundary pieces must vacate the color.
            if cur_srs[i] < max_sr:
                res = self.probe_shift(i)
                if res is not None:
                    delta = res.cost - allocators[i].context.move_cost()
                    candidates.append((delta, "shift", i, [res]))
                    if delta <= 0:
                        found_free = True
                        break
            # Candidate: reduce this thread's PR outright.
            res = self.probe_pr(i)
            if res is not None:
                delta = res.cost - allocators[i].context.move_cost()
                candidates.append((delta, "pr", i, [res]))
                if delta <= 0:
                    found_free = True
                    break

        # Candidate: reduce SR of every thread at the current max.
        if max_sr > 0 and not found_free:
            at_max = [i for i in range(self.nthd) if cur_srs[i] == max_sr]
            results = [self.probe_sr(i) for i in at_max]
            if all(r is not None for r in results):
                delta = sum(
                    r.cost - allocators[i].context.move_cost()  # type: ignore[union-attr]
                    for i, r in zip(at_max, results)
                )
                candidates.append((delta, "sr", -1, results))  # type: ignore[arg-type]

        if not candidates:
            self.exhausted = True
            return _EXHAUSTED, None

        if self.policy == "round_robin":
            # Ablation: ignore costs, prefer shrinking the widest PR.
            pr_cands = [c for c in candidates if c[1] == "pr"]
            if pr_cands:
                prs = self.prs()
                chosen = max(pr_cands, key=lambda c: prs[c[2]])
            else:
                chosen = candidates[-1]
        else:
            chosen = min(candidates, key=lambda c: (c[0], c[1], c[2]))

        delta, kind, idx, results = chosen
        if stop_on_positive and delta > 0:
            return _POSITIVE, None
        if kind in ("pr", "shift"):
            allocators[idx].commit(results[0])
            self.invalidate(idx)
            involved = [idx]
        else:
            at_max = [i for i in range(self.nthd) if self.srs()[i] == max_sr]
            for i, res in zip(at_max, results):
                allocators[i].commit(res)
                self.invalidate(i)
            involved = at_max
        self.step_no += 1
        return "step", _Step(
            step=self.step_no, kind=kind, involved=involved, delta=delta
        )


def _step_cap_error(steps: int, max_steps: int) -> AllocationError:
    return AllocationError(
        f"inter-thread reduction stopped by the step cap "
        f"({steps} steps, cap {max_steps}) instead of budget "
        f"satisfaction or bound exhaustion"
    )


def _exhausted_error(requirement: int, nreg: int) -> AllocationError:
    return AllocationError(
        f"cannot fit {requirement} required registers into "
        f"{nreg}: all reductions are at their lower bounds",
        requirement=requirement,
    )


def allocate_threads(
    analyses: Sequence[ThreadAnalysis],
    nreg: int,
    zero_cost_only: bool = False,
    policy: str = "greedy",
    bounds: Optional[Sequence[Bounds]] = None,
    _max_steps: Optional[int] = None,
) -> InterThreadResult:
    """Run the Figure-8 loop over one PU's threads.

    Args:
        analyses: one :class:`ThreadAnalysis` per hardware thread.
        nreg: total physical registers of the PU.
        zero_cost_only: Figure-14 mode -- reduce only while free, ignore
            ``nreg``.
        policy: ``"greedy"`` (paper) or ``"round_robin"`` (ablation).
        bounds: optional precomputed per-thread bounds (same order as
            ``analyses``); estimated here when omitted.
        _max_steps: test hook overriding the safety step cap; leave None
            outside tests.

    Raises:
        AllocationError: the programs cannot fit ``nreg`` registers even at
            their lower bounds (``exc.requirement`` carries the residual
            requirement) -- or, as a loud invariant failure, the loop was
            stopped by the safety step cap instead of budget satisfaction
            or bound exhaustion.
    """
    engine = _DescentEngine(
        analyses, policy=policy, bounds=bounds, _max_steps=_max_steps
    )
    em = obs.get_emitter()
    if em.enabled:
        em.emit(
            "inter.start",
            requirement=engine.requirement(),
            nreg=nreg,
            pr=engine.prs(),
            sr=engine.srs(),
            policy=policy,
            zero_cost_only=zero_cost_only,
        )
    for _ in range(engine.max_steps):
        if not zero_cost_only and engine.requirement() <= nreg:
            break
        status, step = engine.advance(stop_on_positive=zero_cost_only)
        if status == _EXHAUSTED:
            if zero_cost_only:
                break
            raise _exhausted_error(engine.requirement(), nreg)
        if status == _POSITIVE:
            break
        assert step is not None
        if em.enabled:
            em.emit(
                "inter.step",
                step=step.step,
                kind=step.kind,
                threads=step.involved,
                delta=step.delta,
                requirement=engine.requirement(),
                nreg=nreg,
                pr=engine.prs(),
                sr=engine.srs(),
                move_cost=engine.move_cost(),
            )
            reg = obs_metrics.registry()
            reg.counter("inter.steps").inc()
            reg.counter("inter.steps", kind=step.kind).inc()
            reg.histogram("inter.step_delta").observe(step.delta)
    else:
        if em.enabled:
            em.emit(
                "inter.step_cap",
                steps=engine.step_no,
                max_steps=engine.max_steps,
                requirement=engine.requirement(),
                nreg=nreg,
                zero_cost_only=zero_cost_only,
            )
            obs_metrics.registry().counter("inter.step_cap").inc()
        raise _step_cap_error(engine.step_no, engine.max_steps)

    if em.enabled:
        em.emit(
            "inter.done",
            steps=engine.step_no,
            requirement=engine.requirement(),
            nreg=nreg,
            fits=engine.requirement() <= nreg,
            pr=engine.prs(),
            sr=engine.srs(),
        )
    return engine.materialize(engine.contexts(), nreg)


class SharedDescent:
    """One budget-independent Figure-8 descent serving every budget.

    The greedy loop reads ``nreg`` only in its stop condition, so a fresh
    :func:`allocate_threads` at budget ``B`` commits exactly the first
    steps of this descent until the requirement first drops to ``B``.
    ``SharedDescent`` runs those commits once, records an O(1) context
    checkpoint after each (every committed step lowers the requirement by
    exactly one register, so checkpoints cover every reachable budget),
    and materializes results on demand:

    * :meth:`result` -- the :class:`InterThreadResult` for a budget,
      byte-identical to a fresh run (or the identical
      :class:`~repro.errors.AllocationError` when infeasible);
    * :meth:`zero_cost_result` -- the Figure-14 ``zero_cost_only``
      answer, read off the same trajectory: the state just before the
      first committed step whose chosen delta costs moves;
    * :meth:`reachable` -- the smallest satisfiable budget at or above a
      requested one, replacing allocate-until-success probing.

    The descent is resumable and monotonic: queries only ever extend the
    committed prefix, so an instance can be cached and shared
    (:meth:`repro.core.cache.AnalysisCache.descent`) -- repeated budget
    queries on a warm trajectory are dictionary lookups.  Probe caches
    stay live across checkpoints; telemetry reports committed steps as
    ``descent.step`` events under the shared ``inter.steps`` /
    ``inter.probes`` counters.
    """

    def __init__(
        self,
        analyses: Sequence[ThreadAnalysis],
        policy: str = "greedy",
        bounds: Optional[Sequence[Bounds]] = None,
        _max_steps: Optional[int] = None,
    ):
        self._engine = _DescentEngine(
            analyses, policy=policy, bounds=bounds, _max_steps=_max_steps
        )
        #: Requirement levels in committed order (strictly descending).
        self._trajectory: List[int] = []
        self._states: Dict[int, Tuple[AllocContext, ...]] = {}
        self._steps_at: Dict[int, int] = {}
        #: Requirement of the zero-cost stop state, once known.
        self._zero_requirement: Optional[int] = None
        self._record()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def requirement(self) -> int:
        """The current (lowest reached so far) register requirement."""
        return self._engine.requirement()

    @property
    def initial_requirement(self) -> int:
        return self._trajectory[0]

    @property
    def steps(self) -> int:
        """Committed reductions so far."""
        return self._engine.step_no

    @property
    def exhausted(self) -> bool:
        """True once every reduction direction hit its lower bound."""
        return self._engine.exhausted

    # ------------------------------------------------------------------
    # Descent drivers.
    # ------------------------------------------------------------------
    def _record(self) -> None:
        req = self._engine.requirement()
        if req not in self._states:
            self._trajectory.append(req)
            self._states[req] = self._engine.contexts()
            self._steps_at[req] = self._engine.step_no

    def _advance_once(self) -> bool:
        """Commit one more reduction; False once the descent is done."""
        engine = self._engine
        if engine.step_no >= engine.max_steps:
            self._emit_step_cap(engine.step_no, engine.requirement())
            raise _step_cap_error(engine.step_no, engine.max_steps)
        prev_req = engine.requirement()
        status, step = engine.advance()
        if status == _EXHAUSTED:
            if self._zero_requirement is None:
                self._zero_requirement = prev_req
            return False
        assert step is not None
        if self._zero_requirement is None and step.delta > 0:
            # A fresh zero_cost_only run stops HERE, before committing:
            # its answer is the state this commit descended from.
            self._zero_requirement = prev_req
        em = obs.get_emitter()
        if em.enabled:
            em.emit(
                "descent.step",
                step=step.step,
                kind=step.kind,
                threads=step.involved,
                delta=step.delta,
                requirement=engine.requirement(),
                pr=engine.prs(),
                sr=engine.srs(),
                move_cost=engine.move_cost(),
            )
            reg = obs_metrics.registry()
            reg.counter("inter.steps").inc()
            reg.counter("inter.steps", kind=step.kind).inc()
            reg.histogram("inter.step_delta").observe(step.delta)
        self._record()
        return True

    def run_to(self, budget: int) -> bool:
        """Extend the descent until ``budget`` is satisfied (True) or the
        bounds are exhausted first (False)."""
        while self._engine.requirement() > budget:
            if self._engine.exhausted or not self._advance_once():
                return False
        return True

    def run_zero_cost(self) -> int:
        """Extend the descent past the zero-cost boundary; returns the
        requirement of the zero-cost stop state."""
        while self._zero_requirement is None:
            self._advance_once()
        return self._zero_requirement

    # ------------------------------------------------------------------
    # Read-offs.
    # ------------------------------------------------------------------
    def reachable(self, nreg: int) -> int:
        """The smallest budget >= ``nreg`` the loop actually satisfies
        (the final requirement when ``nreg`` is below the loop's reach)."""
        return nreg if self.run_to(nreg) else self._engine.requirement()

    def result(self, nreg: int) -> InterThreadResult:
        """The allocation at budget ``nreg`` -- byte-identical to a fresh
        :func:`allocate_threads` there, including the
        :class:`~repro.errors.AllocationError` when infeasible."""
        if not self.run_to(nreg):
            raise _exhausted_error(self._engine.requirement(), nreg)
        req = next(r for r in self._trajectory if r <= nreg)
        self._check_cap(self._steps_at[req])
        return self._engine.materialize(self._states[req], nreg)

    def zero_cost_result(self, nreg: int = 128) -> InterThreadResult:
        """The ``zero_cost_only`` (Figure-14) allocation, stamped with
        ``nreg`` -- byte-identical to a fresh zero-cost run."""
        req = self.run_zero_cost()
        self._check_cap(self._steps_at[req])
        return self._engine.materialize(self._states[req], nreg)

    # ------------------------------------------------------------------
    # Step-cap fidelity (the `_max_steps` test hook).
    # ------------------------------------------------------------------
    def _check_cap(self, steps_needed: int) -> None:
        # A fresh run needs one loop iteration beyond its last commit to
        # notice it is done, so it trips the cap whenever
        # ``max_steps <= commits``; mirror that here so the hook behaves
        # identically whichever driver runs the descent.
        max_steps = self._engine.max_steps
        if max_steps <= steps_needed:
            at = min(max_steps, len(self._trajectory) - 1)
            self._emit_step_cap(max_steps, self._trajectory[at])
            raise _step_cap_error(max_steps, max_steps)

    def _emit_step_cap(self, steps: int, requirement: int) -> None:
        em = obs.get_emitter()
        if em.enabled:
            em.emit(
                "inter.step_cap",
                steps=steps,
                max_steps=self._engine.max_steps,
                requirement=requirement,
            )
            obs_metrics.registry().counter("inter.step_cap").inc()


def allocate_threads_descent(
    analyses: Sequence[ThreadAnalysis],
    budgets: Sequence[int],
    zero_cost: bool = False,
    policy: str = "greedy",
    bounds: Optional[Sequence[Bounds]] = None,
    _max_steps: Optional[int] = None,
) -> SharedDescent:
    """One shared Figure-8 descent covering every budget in ``budgets``.

    Runs the greedy loop once from the upper bounds, checkpointing as it
    crosses each requested budget (and the zero-cost boundary when
    ``zero_cost`` is set), and returns the :class:`SharedDescent`:
    call :meth:`~SharedDescent.result` / :meth:`~SharedDescent.zero_cost_result`
    to materialize the per-budget outcomes.  Infeasible budgets do not
    raise here -- they raise the fresh-run-identical error from
    ``result`` -- so one unreachable point never aborts a whole sweep.
    """
    descent = SharedDescent(
        analyses, policy=policy, bounds=bounds, _max_steps=_max_steps
    )
    for nreg in sorted(set(budgets), reverse=True):
        descent.run_to(nreg)
    if zero_cost:
        descent.run_zero_cost()
    return descent
