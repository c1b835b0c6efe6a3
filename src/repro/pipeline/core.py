"""Cycle-level out-of-order core with pluggable runahead execution.

The machine is a value-based Tomasulo+ROB design (see ``rob.py``) staged
as fetch → (6-cycle front end) → dispatch → issue/execute → complete →
commit, processed in reverse order each cycle so results flow with
realistic timing.  Runahead mode (the paper's Fig. 6) changes three
things, all implemented here with policy delegated to the attached
:class:`~repro.runahead.base.RunaheadController`:

* the stalling load's destination is poisoned (INV) and the load
  pseudo-retires immediately, unblocking the window;
* commit becomes *pseudo-retire*: results update the (checkpointed)
  register file, stores go to the runahead cache, nothing reaches
  architectural memory;
* branches with INV sources are predicted but **never resolved** — the
  SPECRUN attack surface — while valid branches resolve as in normal
  mode.

On exit the checkpoint is restored and fetch resumes at the stalling
load.  The only surviving side effects are cache fills.

Scheduling is *wakeup-driven* (docs/PERFORMANCE.md): every dispatched
instruction knows how many of its source producers are still in flight
(``pending_srcs``), producers carry wakeup lists of their consumers, and
``_ready`` is a seq-ordered heap of instructions whose operands are all
available.  The issue stage pops from that heap instead of scanning the
issue queue, so a cycle's issue work is proportional to what can
actually issue — the behaviour (issue order, FU arbitration, stats) is
bit-identical to the scan it replaced, which the golden-stats tests
(``tests/pipeline/test_golden_stats.py``) pin down.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional

from ..branch.btb import BranchTargetBuffer
from ..branch.predictors import make_direction_predictor
from ..branch.rsb import ReturnStackBuffer
from ..branch.unit import BranchUnit
from ..isa.instructions import (ALU_EVAL, INSTR_BYTES, WORD_BYTES, FuKind,
                                Opcode, eval_branch, to_signed64,
                                to_unsigned64)
from ..isa.program import Program
from ..isa.registers import (NUM_ARCH_REGS, REG_SP, REG_ZERO,
                             make_register_file)
from ..memory.hierarchy import (LEVEL_L1, LEVEL_MEM, LEVEL_PENDING,
                                MemoryHierarchy)
from ..memory.main_memory import MainMemory
from ..obs.events import (EV_COMMIT as _EV_COMMIT,
                          EV_DISPATCH as _EV_DISPATCH,
                          EV_FETCH as _EV_FETCH, EV_INV as _EV_INV,
                          EV_ISSUE as _EV_ISSUE,
                          EV_MISPREDICT as _EV_MISPREDICT,
                          EV_PSEUDO_RETIRE as _EV_PSEUDO_RETIRE,
                          EV_RA_ENTER as _EV_RA_ENTER,
                          EV_RA_EXIT as _EV_RA_EXIT,
                          EV_SQUASH as _EV_SQUASH)
from ..runahead.base import NoRunahead, RunaheadController, resolve_hooks
from ..runahead.checkpoint import Checkpoint
from ..runahead.runahead_cache import RunaheadCache
from .config import CoreConfig
from .functional_units import FunctionalUnitPool
from .rob import DISPATCHED, DONE, ISSUED, ReorderBuffer, RobEntry
from .stats import CoreStats

MODE_NORMAL = "normal"
MODE_RUNAHEAD = "runahead"

#: Pseudo-levels recorded on load entries.
LEVEL_FORWARD = "fwd"     # store-to-load forwarding
LEVEL_RUNAHEAD = "rac"    # runahead-cache hit
LEVEL_SL = "sl"           # SL-cache hit (secure runahead)

_MASK64 = (1 << 64) - 1

# Hot-path opcode/FU constants (module-level binding beats repeated
# enum-class attribute lookups inside the per-cycle loops).
_HALT = Opcode.HALT
_RET = Opcode.RET
_CALL = Opcode.CALL
_JMP = Opcode.JMP
_JR = Opcode.JR
_NOP = Opcode.NOP
_FENCE = Opcode.FENCE
_RDTSC = Opcode.RDTSC
_CLFLUSH = Opcode.CLFLUSH
_VSTORE = Opcode.VSTORE
_FSTORE = Opcode.FSTORE
_FU_MEM = FuKind.MEM
_FU_BRANCH = FuKind.BRANCH

_PC_SHIFT = INSTR_BYTES.bit_length() - 1   # pc -> instruction index

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Sentinel returned through the issue path when an entry parked itself
#: on a store's wakeup list: it neither issued nor needs a retry — the
#: store's issue will re-queue it.
_WAIT = object()


class SimulationError(RuntimeError):
    """Raised on internal inconsistencies (never on wrong-path garbage)."""


class _Fetched:
    """One front-end slot: instruction plus fetch-time prediction."""

    __slots__ = ("pc", "instr", "prediction", "ready_cycle")

    def __init__(self, pc, instr, prediction, ready_cycle):
        self.pc = pc
        self.instr = instr
        self.prediction = prediction
        self.ready_cycle = ready_cycle


class Core:
    """The simulated processor."""

    def __init__(self, program: Program, memory_image=None,
                 config: Optional[CoreConfig] = None,
                 runahead: Optional[RunaheadController] = None,
                 initial_sp: Optional[int] = None, warm_icache=False,
                 hierarchy: Optional[MemoryHierarchy] = None):
        self.program = program
        self.config = config or CoreConfig.paper()
        if hierarchy is None:
            hierarchy = MemoryHierarchy(self.config.hierarchy)
        elif hierarchy.config != self.config.hierarchy:
            # A multi-core system hands each core a view of the shared
            # hierarchy; its geometry must be the one the core config
            # describes, else latency bookkeeping silently diverges.
            raise ValueError("hierarchy config disagrees with core config")
        self.hierarchy = hierarchy
        if warm_icache:
            # Steady-state assumption for micro-timing experiments: the
            # code is hot (a real attacker's loop would have warmed it).
            self.hierarchy.warm_code_range(
                0, max(program.end_pc, INSTR_BYTES))
        self.memory = MainMemory(memory_image)
        self.branch_unit = BranchUnit(
            direction=make_direction_predictor(self.config.predictor),
            btb=BranchTargetBuffer(self.config.btb_index_bits,
                                   self.config.btb_tag_bits),
            rsb=ReturnStackBuffer(self.config.rsb_entries))
        self.rob = ReorderBuffer(self.config.rob_size)
        self.fus = FunctionalUnitPool(self.config.functional_units)

        self.arch_regs = make_register_file()
        if initial_sp is not None:
            self.arch_regs[REG_SP] = to_unsigned64(initial_sp)
        self.arch_inv = [False] * NUM_ARCH_REGS
        self.rat: List[Optional[RobEntry]] = [None] * NUM_ARCH_REGS
        self._rename_free = {"int": self.config.rename_int,
                             "fp": self.config.rename_fp,
                             "vec": self.config.rename_vec}

        #: Issue-queue occupancy.  An entry sits in the IQ exactly while
        #: its state is DISPATCHED, so a count is all the IQ needs.
        self.iq_count = 0
        # Load/store queues in program order: retire pops the left end,
        # a squash pops the right.
        self.lq: Deque[RobEntry] = deque()
        self.sq: Deque[RobEntry] = deque()
        # Front-end queue: deque because dispatch consumes from the left
        # every cycle (O(1) popleft vs O(n) list.pop(0)).
        self.frontend: Deque[_Fetched] = deque()
        self.fetch_pc = 0
        self.fetch_stall_until = 0
        self.fetch_halted = False
        self._last_inst_line = None

        self.cycle = 0
        self.seq = 0
        self.mode = MODE_NORMAL
        self.halted = False
        self.checkpoint: Optional[Checkpoint] = None
        self.runahead = runahead or NoRunahead()
        self.runahead.attach(self)
        # Per-instruction controller hooks, ``None`` where the controller
        # keeps the RunaheadController default (see resolve_hooks).
        hooks = resolve_hooks(self.runahead)
        self._filter_dispatch = hooks["filter_dispatch"]
        self._runahead_load_fill = hooks["runahead_load_fill"]
        self._runahead_load_override = hooks["runahead_load_override"]
        self._on_runahead_load = hooks["on_runahead_load"]
        self._on_normal_load = hooks["on_normal_load"]
        self._on_pseudo_retire = hooks["on_pseudo_retire"]
        self._normal_load_override = hooks["normal_load_override"]
        self._on_branch_resolved = hooks["on_branch_resolved"]
        self.runahead_cache = RunaheadCache(self.config.runahead.cache_entries)

        self.stats = CoreStats()
        #: Observability sink (repro.obs.sink) — ``None`` means tracing
        #: is off and every emit site is a single is-None test.  Sinks
        #: observe only; nothing on the result path reads them.
        self.trace = None
        self._completions = []      # heap of (completion, seq, entry)
        #: Heap records whose entry has been squashed (they stay in
        #: ``_completions`` until popped or compacted away).
        self._squashed_completions = 0
        #: Wakeup-driven scheduler: heap of (seq, entry) whose operands
        #: are all available and which have not issued yet.
        self._ready = []
        self._activity = False
        # Transient-window tracking (Fig. 10): base seq of the current
        # memory-stall episode and the deepest younger dispatch seen.
        self._stall_base_seq = None
        self._window_max = 0

    # ------------------------------------------------------------------ utils --

    def reg_read(self, reg):
        """Architectural read honouring the zero register and INV bits."""
        if reg == REG_ZERO:
            return 0, False
        return self.arch_regs[reg], self.arch_inv[reg]

    def _operand(self, entry, index):
        """Read source ``index`` of ``entry``: (value, inv)."""
        producer = entry.src_producers[index]
        if producer is None:
            return self.reg_read(entry.instr.srcs[index])
        return producer.value, producer.inv

    def _operand_ready(self, entry):
        """All source producers have completed (wakeup counter is zero)."""
        return entry.pending_srcs == 0

    def _mark_done(self, entry):
        """Complete ``entry`` and wake every consumer waiting on it."""
        entry.state = DONE
        consumers = entry.consumers
        if consumers:
            entry.consumers = None
            ready = self._ready
            for consumer in consumers:
                pending = consumer.pending_srcs - 1
                consumer.pending_srcs = pending
                if pending == 0 and not consumer.squashed and \
                        consumer.state == DISPATCHED:
                    _heappush(ready, (consumer.seq, consumer))

    @property
    def transient_window_max(self):
        return self._window_max

    # ------------------------------------------------------------------- step --

    def step(self):
        """Advance one cycle.

        Each stage call is gated on a cheap emptiness check here — with
        cycle skipping active most invocations run only one or two
        stages, and the guards are exactly the stages' own first-line
        early exits hoisted to the caller.
        """
        now = self.cycle
        self._activity = False
        hierarchy = self.hierarchy
        if now >= hierarchy.next_fill:
            hierarchy.apply_completed(now)

        if self.mode == MODE_RUNAHEAD and self.runahead.should_exit(self, now):
            self._exit_runahead(now)

        if self.rob:
            self._commit(now)
            if self.halted:
                self.stats.cycles = now + 1
                return
        completions = self._completions
        if completions and completions[0][0] <= now:
            self._complete(now)
        if self._ready:
            self._issue(now)
        frontend = self.frontend
        if frontend and frontend[0].ready_cycle <= now:
            self._dispatch(now)
        if not self.fetch_halted and now >= self.fetch_stall_until:
            self._fetch(now)
        self.cycle = now + 1

    def run(self, max_cycles=5_000_000):
        """Run to HALT (or quiescence/ceiling); returns the stats object."""
        step = self.step
        cores = (self,)
        while not self.halted and self.cycle < max_cycles:
            step()
            if not self._activity and not self.halted:
                wake = wake_cycle(cores, max_cycles - 1)
                if wake is None:
                    break                      # quiescent: nothing can happen
                self.skip_to(wake)
        self.stats.cycles = self.cycle
        return self.stats

    def skip_to(self, cycle):
        """Resume at ``cycle``, the next step after an idle one.

        ``cycle`` comes from :func:`wake_cycle`.  A paced core would have
        been stepped every other cycle in between, and each of those
        steps found the same blocked front-end head; a blocked fence
        counts one fence stall per step, so those steps are credited.
        """
        if self._paced() and self.frontend[0].instr.opcode is _FENCE and \
                (self.rob or self.mode == MODE_RUNAHEAD):
            self.stats.fence_stalls += (cycle - self.cycle - 1) >> 1
        self.cycle = cycle

    def _paced(self):
        """After an idle step: the front-end head was ready but could not
        dispatch (full ROB, IQ, LQ or SQ, no free rename register, or a
        fence), so the schedule steps every other cycle until an event
        frees it."""
        frontend = self.frontend
        return bool(frontend) and frontend[0].ready_cycle < self.cycle

    def _next_event(self):
        """Earliest pending event after an idle step, or ``None``.

        Called with ``self.cycle`` one past the idle step.  The events
        are the next completion, the next fill, the front-end head
        becoming ready, fetch resuming and, in runahead mode, the
        stalling load's return.  A head that was already ready at the
        idle step is blocked, not pending: it makes the core
        :meth:`_paced` instead.

        The result is floored at ``self.cycle + 1``: after an idle step
        at ``c`` the next step is never before ``c + 2``, so an event due
        at ``c + 1`` is handled a cycle late.  That floor is part of the
        model (docs/PERFORMANCE.md, "Step schedule"); this is the cycle
        the schedule acts on next, not the earliest cycle at which
        anything can change.
        """
        best = None
        completions = self._completions
        while completions and completions[0][2].squashed:
            _heappop(completions)
            self._squashed_completions -= 1
        if completions:
            best = completions[0][0]
        event = self.hierarchy.next_event()
        if event is not None and (best is None or event < best):
            best = event
        cycle = self.cycle
        if self.frontend:
            ready_cycle = self.frontend[0].ready_cycle
            if ready_cycle >= cycle and (best is None or ready_cycle < best):
                best = ready_cycle
        if not self.fetch_halted and self.fetch_stall_until >= cycle:
            # A fetch stall lifting exactly at the current cycle must still
            # be a wake-up source, else a skip jumps over the resume point.
            resume = self.fetch_stall_until
            if resume <= cycle:
                resume = cycle + 1
            if best is None or resume < best:
                best = resume
        if self.mode == MODE_RUNAHEAD and self.checkpoint is not None:
            stall = self.checkpoint.stalling_completion
            if best is None or stall < best:
                best = stall
        if best is None:
            return None
        floor = cycle + 1
        return best if best > floor else floor

    # ----------------------------------------------------------------- commit --

    def _commit(self, now):
        committed = 0
        width = self.config.width
        rob = self.rob
        while committed < width and rob:
            head = rob[0]
            if head.state != DONE:
                if self.mode == MODE_NORMAL:
                    # Inline precondition of _maybe_enter_runahead: most
                    # not-done heads are not memory-stalled loads.
                    if head.is_load and head.state == ISSUED and \
                            (head.mem_level == LEVEL_MEM or
                             head.mem_level == LEVEL_PENDING):
                        self._maybe_enter_runahead(head, now)
                        if self.mode == MODE_RUNAHEAD:
                            continue   # head was poisoned; pseudo-retire it
                elif self._poison_stalled_head(head):
                    continue           # runahead never stalls on misses
                break
            if self.mode == MODE_RUNAHEAD:
                self._pseudo_retire(head, now)
                committed += 1
                continue
            self._commit_one(head, now)
            committed += 1
            if self.halted:
                break
        if committed:
            self._activity = True

    def _commit_one(self, head, now):
        instr = head.instr
        if instr.opcode is _HALT:
            self.halted = True
            self._retire_entry(head)
            self.stats.committed += 1
            if self.trace is not None:
                self.trace.emit(now, _EV_COMMIT, head.seq, head.pc)
            return
        if head.is_store and head.mem_addr is not None:
            if instr.opcode is _VSTORE:
                lanes = head.store_value
                self.memory.write_word(head.mem_addr, lanes[0])
                self.memory.write_word(head.mem_addr + WORD_BYTES, lanes[1])
            else:
                self.memory.write_word(head.mem_addr, head.store_value)
            # Write-allocate at commit; latency absorbed by a write buffer.
            self.hierarchy.access_data(head.mem_addr, now)
        dest = instr.dest
        if dest is not None and dest != REG_ZERO:
            self.arch_regs[dest] = head.value
            self.arch_inv[dest] = False
        self._retire_entry(head)
        self.stats.committed += 1
        if self.trace is not None:
            self.trace.emit(now, _EV_COMMIT, head.seq, head.pc)
        # End of a stall episode once the stalling load itself commits.
        if self._stall_base_seq is not None and head.is_load:
            self._stall_base_seq = None

    def _pseudo_retire(self, head, now):
        """Runahead-mode commit: update the checkpointed state, never memory."""
        instr = head.instr
        dest = instr.dest
        if head.is_store:
            if head.mem_addr is not None:
                self.runahead_cache.write(head.mem_addr, head.store_value,
                                          inv=head.inv)
        if dest is not None and dest != REG_ZERO:
            self.arch_regs[dest] = head.value if not head.inv else 0
            self.arch_inv[dest] = head.inv
        if self._on_pseudo_retire is not None:
            self._on_pseudo_retire(self, head)
        self._retire_entry(head)
        self.stats.pseudo_retired += 1
        self.stats.transient_executed += 1
        if self.trace is not None:
            self.trace.emit(now, _EV_PSEUDO_RETIRE, head.seq, head.pc)

    def _retire_entry(self, head):
        """Pop the head and release its resources."""
        self.rob.popleft()
        instr = head.instr
        rename = instr.rename_class
        if rename is not None:
            self._rename_free[rename] += 1
        dest = instr.dest
        if dest is not None and self.rat[dest] is head:
            self.rat[dest] = None
        # Older entries have all retired, so a queued head is at the left.
        if head.is_load and self.lq and self.lq[0] is head:
            self.lq.popleft()
        if head.is_store and self.sq and self.sq[0] is head:
            self.sq.popleft()

    def _poison_stalled_head(self, head):
        """Runahead mode: a memory-level load at the head is INV'd and
        pseudo-retired instead of blocking — its miss continues as a
        prefetch (Mutlu'03)."""
        if not (head.is_load and head.state == ISSUED and
                head.mem_level in (LEVEL_MEM, LEVEL_PENDING)):
            return False
        self._mark_done(head)
        head.inv = True
        if self.trace is not None:
            self.trace.emit(self.cycle, _EV_INV, head.seq, head.pc)
        if head.instr.opcode is _RET:
            head.inv = False
            head.actual_target = None
            self.stats.inv_branches += 1
            self.runahead.on_inv_branch(self, head)
        self.stats.runahead_prefetches += 1
        return True

    # -------------------------------------------------------- runahead entry/exit --

    def _maybe_enter_runahead(self, head, now):
        """Check the Fig. 6 trigger: memory-level load stalled at ROB head."""
        if not (head.is_load and head.state == ISSUED and
                head.mem_level in (LEVEL_MEM, LEVEL_PENDING)):
            return
        # Track the transient window for Fig. 10 even without runahead.
        if self._stall_base_seq is None:
            self._stall_base_seq = head.seq
        if not self.runahead.should_enter(self, head):
            return
        self.checkpoint = Checkpoint(
            arch_regs=list(self.arch_regs),
            branch_snapshot=self.branch_unit.snapshot(),
            stalling_pc=head.pc,
            stalling_line=self.hierarchy.line_of(head.mem_addr or 0),
            stalling_completion=head.completion,
            entry_cycle=now,
        )
        self.mode = MODE_RUNAHEAD
        self.stats.runahead_episodes += 1
        if self.trace is not None:
            self.trace.emit(now, _EV_RA_ENTER, head.seq, head.pc)
        # Poison the stalling load: its result is INV, and it pseudo-retires
        # immediately, converting the blocked window into a running one.
        head.inv = True
        self._mark_done(head)
        self.runahead.on_enter(self)
        if head.instr.opcode is _RET:
            # The stack-pointer update is valid; only the return target is
            # unknown, leaving the RSB prediction unresolvable (Fig. 4c).
            head.inv = False
            head.actual_target = None
            self.stats.inv_branches += 1
            self.runahead.on_inv_branch(self, head)

    def _exit_runahead(self, now):
        checkpoint = self.checkpoint
        self.runahead.on_exit(self)
        victims = self.rob.clear()
        for victim in victims:
            if victim.state != DISPATCHED:
                self.stats.transient_executed += 1
        self.stats.squashed += len(victims)
        if self.trace is not None:
            if victims:
                self.trace.emit(now, _EV_SQUASH, len(victims),
                                checkpoint.stalling_pc)
            self.trace.emit(now, _EV_RA_EXIT,
                            now - checkpoint.entry_cycle,
                            checkpoint.stalling_pc)
        self.iq_count = 0
        self.lq.clear()
        self.sq.clear()
        self.frontend.clear()
        self._completions = []
        self._squashed_completions = 0
        self._ready = []
        self.arch_regs = list(checkpoint.arch_regs)
        self.arch_inv = [False] * NUM_ARCH_REGS
        self.rat = [None] * NUM_ARCH_REGS
        self._rename_free = {"int": self.config.rename_int,
                             "fp": self.config.rename_fp,
                             "vec": self.config.rename_vec}
        self.branch_unit.restore(checkpoint.branch_snapshot)
        self.runahead_cache.clear()
        self.fetch_pc = checkpoint.stalling_pc
        self.fetch_halted = False
        self.fetch_stall_until = now + self.config.runahead.exit_overhead
        self._last_inst_line = None
        self.mode = MODE_NORMAL
        self.checkpoint = None
        self.stats.runahead_cycles += now - checkpoint.entry_cycle
        self._stall_base_seq = None
        self._activity = True

    def extend_stall(self, completion):
        """Push the runahead exit later (stalling line was flushed in
        flight and must be re-fetched from memory — Fig. 10 case ③)."""
        if self.checkpoint is not None and \
                completion > self.checkpoint.stalling_completion:
            self.checkpoint.stalling_completion = completion

    # ---------------------------------------------------------------- complete --

    def _complete(self, now):
        completions = self._completions
        while completions and completions[0][0] <= now:
            entry = _heappop(completions)[2]
            if entry.squashed:
                self._squashed_completions -= 1
                continue
            if entry.state != ISSUED:
                continue
            self._mark_done(entry)
            self._activity = True
            if entry.is_branch and not entry.resolved:
                self._resolve_branch(entry, now)
                if self.halted:
                    return

    def _resolve_branch(self, entry, now):
        instr = entry.instr
        unresolvable = entry.inv or entry.actual_target is None and \
            (instr.opcode is _RET or instr.opcode is _JR)
        if self.mode == MODE_RUNAHEAD and unresolvable:
            # The SPECRUN vulnerability: an INV-source branch is predicted
            # but never resolved — the prediction stands for the whole
            # runahead interval (paper §2.1, §4.2 step 3).  Mitigations
            # may override on_inv_branch to skip the branch instead.
            self.stats.inv_branches += 1
            entry.resolved = False
            self.runahead.on_inv_branch(self, entry)
            return
        if entry.inv:
            # INV branch outside runahead mode cannot happen (INV bits only
            # exist in runahead mode).
            raise SimulationError("INV branch in normal mode")
        entry.resolved = True
        train = self.mode == MODE_NORMAL or \
            self.config.runahead.train_in_runahead
        mispredicted = self.branch_unit.resolve(
            entry.pc, instr, entry.actual_taken, entry.actual_target,
            entry.prediction, train=train)
        if self._on_branch_resolved is not None:
            self._on_branch_resolved(self, entry, mispredicted)
        if not mispredicted:
            return
        self.stats.branch_mispredicts += 1
        if self.trace is not None:
            self.trace.emit(now, _EV_MISPREDICT, entry.seq, entry.pc)
        self._recover_from_branch(entry, now)

    def _squash_younger(self, entry):
        """Remove everything younger than ``entry`` and clean bookkeeping."""
        victims = self.rob.squash_younger(entry.seq)
        squashed_in_heap = 0
        for victim in victims:
            state = victim.state
            if state == DISPATCHED:
                self.iq_count -= 1
            else:
                self.stats.transient_executed += 1
                if state == ISSUED:
                    # Its completion record is still in the heap; it will
                    # be skipped lazily or compacted away below.
                    squashed_in_heap += 1
            rename = victim.instr.rename_class
            if rename is not None:
                self._rename_free[rename] += 1
        self.stats.squashed += len(victims)
        if victims and self.trace is not None:
            self.trace.emit(self.cycle, _EV_SQUASH, len(victims),
                            entry.pc)
        if victims:
            # The victims are the youngest entries: the queues' right ends.
            lq = self.lq
            while lq and lq[-1].squashed:
                lq.pop()
            sq = self.sq
            while sq and sq[-1].squashed:
                sq.pop()
            self._squashed_completions += squashed_in_heap
            self._compact_completions()
        # Rebuild the alias table from the surviving entries.
        self.rat = [None] * NUM_ARCH_REGS
        rat = self.rat
        for survivor in self.rob:
            dest = survivor.instr.dest
            if dest is not None and dest != REG_ZERO:
                rat[dest] = survivor
        self.frontend.clear()

    def _compact_completions(self):
        """Drop squashed records once they dominate the completion heap.

        Long misprediction storms can fill ``_completions`` with dead
        entries faster than ``_complete`` pops them; compacting at the
        half-full threshold keeps every heap operation O(log live)
        amortized instead of O(log total-ever-squashed).
        """
        if self._squashed_completions * 2 > len(self._completions):
            self._completions = [record for record in self._completions
                                 if not record[2].squashed]
            heapq.heapify(self._completions)
            self._squashed_completions = 0

    def _recover_from_branch(self, entry, now):
        """Squash the wrong path and redirect fetch."""
        self.branch_unit.restore(entry.prediction.snapshot)
        self.branch_unit.reapply(entry.pc, entry.instr, entry.actual_taken)
        self._squash_younger(entry)
        target = entry.actual_target if entry.actual_taken \
            else entry.pc + INSTR_BYTES
        self.fetch_pc = target
        self.fetch_halted = False
        self.fetch_stall_until = now + 1
        self._last_inst_line = None
        self._activity = True

    def force_branch_outcome(self, entry, taken, target):
        """Mitigation hook: steer an unresolvable branch to a fixed
        outcome (squash its speculative path and redirect fetch)."""
        entry.actual_taken = taken
        entry.actual_target = target
        entry.resolved = True
        self._recover_from_branch(entry, self.cycle)

    def stop_runahead_fetch(self, entry=None):
        """Mitigation hook: kill the speculative path of an unresolvable
        branch and stop fetching for the rest of the runahead interval
        (exit resets fetch state)."""
        if entry is not None:
            self.branch_unit.restore(entry.prediction.snapshot)
            self._squash_younger(entry)
        self.fetch_halted = True

    # ------------------------------------------------------------------- issue --

    def _issue(self, now):
        """Issue from the wakeup-driven ready heap, oldest first.

        Entries land in ``_ready`` exactly once — at dispatch when their
        operands are already available, or in :meth:`_mark_done` when
        their last producer completes.  Entries that lose FU arbitration
        are deferred and re-queued for the next cycle, preserving the
        seq-order retry semantics of the scan this replaced.
        """
        ready = self._ready
        if not ready:
            return
        issued = 0
        width = self.config.issue_width
        stats = self.stats
        trace = self.trace
        fus = self.fus
        fus.new_cycle(now)          # issue is the pool's only user
        normal_mode = self.mode == MODE_NORMAL
        deferred = None
        while ready and issued < width:
            record = _heappop(ready)
            entry = record[1]
            if entry.squashed or entry.state != DISPATCHED:
                continue
            if normal_mode and not fus.can_issue(entry.instr.fu):
                # Cheap FU pre-check: every issue sub-path starts with
                # exactly this test, so losing arbitration here is the
                # same outcome for a fraction of the work.  (Runahead
                # mode must not pre-check — INV-source instructions
                # issue without consuming any unit.)
                result = False
            else:
                result = self._try_issue(entry, now)
            if result is _WAIT:
                continue    # parked on a store's wakeup list
            if result is False:
                if deferred is None:
                    deferred = [record]
                else:
                    deferred.append(record)
                continue
            self.iq_count -= 1
            entry.state = ISSUED
            entry.issue_cycle = now
            _heappush(self._completions,
                      (entry.completion, entry.seq, entry))
            issued += 1
            stats.issued += 1
            if trace is not None:
                trace.emit(now, _EV_ISSUE, entry.seq, entry.pc)
            self._activity = True
            if entry.is_store and entry.store_waiters is not None:
                # This store's address is now known: re-queue the loads
                # that were parked behind it.  Their seqs are larger, so
                # they are popped later in this very loop — preserving
                # the same-cycle, seq-ordered retry the scan used to do.
                waiters = entry.store_waiters
                entry.store_waiters = None
                for waiter in waiters:
                    if not waiter.squashed and waiter.state == DISPATCHED:
                        _heappush(ready, (waiter.seq, waiter))
        if deferred is not None:
            for record in deferred:
                _heappush(ready, record)

    def _try_issue(self, entry, now):
        """Execute ``entry`` if resources allow; sets value/completion."""
        instr = entry.instr
        fu = instr.fu

        # INV-source instructions consume no functional unit (they are
        # dropped into a 1-cycle INV move, per Mutlu'03).
        if self.mode == MODE_RUNAHEAD and not entry.filtered:
            arch_inv = self.arch_inv
            srcs = instr.srcs
            for index, producer in enumerate(entry.src_producers):
                if (producer.inv if producer is not None
                        else arch_inv[srcs[index]]):
                    return self._issue_inv(entry, now)

        if fu is _FU_MEM:
            return self._issue_mem(entry, now)
        if fu is _FU_BRANCH:
            return self._issue_branch(entry, now)

        fus = self.fus
        if not fus.can_issue(fu):
            return False
        latency = fus.issue(fu)
        entry.completion = now + latency
        entry.value = self._execute_alu(entry)
        return True

    def _issue_inv(self, entry, now):
        """Poisoned instruction: propagate INV in one cycle, no FU."""
        entry.inv = True
        self.stats.inv_instructions += 1
        if self.trace is not None:
            self.trace.emit(now, _EV_INV, entry.seq, entry.pc)
        instr = entry.instr
        opcode = instr.opcode
        if opcode is _CALL or opcode is _RET:
            entry.value = 0
            entry.actual_target = None
        elif instr.store:
            entry.mem_addr = None
        entry.value = entry.value if entry.value is not None else 0
        entry.completion = now + 1
        return True

    def _execute_alu(self, entry):
        """Evaluate a non-memory, non-branch instruction."""
        instr = entry.instr
        alu = ALU_EVAL[instr.op]
        if alu is not None:
            # Integer ALU / MUL / DIV family — the common case, table-
            # dispatched on the integer opcode.
            n_srcs = instr.n_srcs
            a = _as_int(self._operand(entry, 0)[0]) if n_srcs else 0
            b = _as_int(self._operand(entry, 1)[0]) if n_srcs > 1 else None
            return alu(a, b, instr.imm)
        opcode = instr.opcode
        if opcode is _NOP or opcode is _FENCE or opcode is _HALT:
            return None
        if opcode is _RDTSC:
            return self.cycle
        values = [self._operand(entry, i)[0]
                  for i in range(instr.n_srcs)]
        if opcode in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
            a, b = float(values[0]), float(values[1])
            if opcode is Opcode.FADD:
                return a + b
            if opcode is Opcode.FSUB:
                return a - b
            if opcode is Opcode.FMUL:
                return a * b
            return a / b if b else float("inf")
        if opcode is Opcode.FCVT:
            return float(to_signed64(_as_int(values[0])))
        if opcode is Opcode.FMOV:
            return float(values[0])
        if opcode in (Opcode.VADD, Opcode.VMUL):
            a, b = _as_vec(values[0]), _as_vec(values[1])
            if opcode is Opcode.VADD:
                return (to_unsigned64(a[0] + b[0]),
                        to_unsigned64(a[1] + b[1]))
            return (to_unsigned64(a[0] * b[0]), to_unsigned64(a[1] * b[1]))
        if opcode is Opcode.VSPLAT:
            value = _as_int(values[0])
            return (value, value)
        if opcode is Opcode.VEXTRACT:
            return _as_vec(values[0])[instr.imm & 1]
        raise SimulationError(f"unexpected ALU opcode: {opcode!r}")

    # -- branches -------------------------------------------------------------------

    def _issue_branch(self, entry, now):
        instr = entry.instr
        opcode = instr.opcode
        if not self.fus.can_issue(_FU_BRANCH):
            return False

        if opcode is _CALL:
            return self._issue_call(entry, now)
        if opcode is _RET:
            return self._issue_ret(entry, now)

        self.fus.issue(_FU_BRANCH)
        if instr.cond_branch:
            a = _as_int(self._operand(entry, 0)[0])
            b = _as_int(self._operand(entry, 1)[0])
            entry.actual_taken = eval_branch(opcode, a, b)
            entry.actual_target = instr.target if entry.actual_taken \
                else entry.pc + INSTR_BYTES
        elif opcode is _JMP:
            entry.actual_taken = True
            entry.actual_target = instr.target
        elif opcode is _JR:
            entry.actual_taken = True
            entry.actual_target = _as_int(self._operand(entry, 0)[0]) & ~3
        entry.completion = now + 1
        entry.value = None
        return True

    def _issue_call(self, entry, now):
        """call = push return address (store) + direct jump."""
        blocker = self._blocking_store(entry)
        if blocker is not None:
            return self._wait_on_store(entry, blocker)
        self.fus.issue(_FU_BRANCH)
        sp, _ = self._operand(entry, 0)
        new_sp = to_unsigned64(_as_int(sp) - WORD_BYTES)
        entry.mem_addr = new_sp & ~(WORD_BYTES - 1)
        entry.store_value = entry.pc + INSTR_BYTES
        entry.value = new_sp
        entry.actual_taken = True
        entry.actual_target = entry.instr.target
        entry.completion = now + 1
        return True

    def _issue_ret(self, entry, now):
        """ret = pop return address (load) + indirect jump."""
        sp, _ = self._operand(entry, 0)
        addr = _as_int(sp) & ~(WORD_BYTES - 1)
        outcome = self._load_value(entry, addr, now, as_type="int")
        if outcome is None:
            return False
        if outcome is _WAIT:
            return _WAIT
        value, completion, poisoned = outcome
        entry.value = to_unsigned64(_as_int(sp) + WORD_BYTES)
        entry.actual_taken = True
        entry.actual_target = None if poisoned else value & ~3
        entry.completion = completion
        return True

    # -- memory ------------------------------------------------------------------------

    def _issue_mem(self, entry, now):
        instr = entry.instr
        opcode = instr.opcode
        fus = self.fus
        if not fus.can_issue(_FU_MEM):
            return False

        if opcode is _CLFLUSH:
            base, _ = self._operand(entry, 0)
            addr = to_unsigned64(_as_int(base) + instr.imm)
            fus.issue(_FU_MEM)
            self.hierarchy.flush_line(addr)
            if self.mode == MODE_RUNAHEAD and self.checkpoint is not None \
                    and self.hierarchy.line_of(addr) == \
                    self.checkpoint.stalling_line:
                # Flushing the stalling line drops its in-flight fill; the
                # data must be re-fetched, prolonging runahead (Fig. 10 ③).
                refetch = self.hierarchy.access_data(addr, now, prefetch=True)
                self.extend_stall(refetch.completion)
            entry.completion = now + 1
            return True

        if instr.store:
            if len(self.sq) > self.config.sq_size:
                raise SimulationError("store queue overflow")
            value, _ = self._operand(entry, 0)
            base, _ = self._operand(entry, 1)
            addr = to_unsigned64(_as_int(base) + instr.imm) & \
                ~(WORD_BYTES - 1)
            fus.issue(_FU_MEM)
            entry.mem_addr = addr
            entry.store_value = _typed_store_value(opcode, value)
            entry.completion = now + 1
            return True

        # Loads.
        base, _ = self._operand(entry, 0)
        addr = to_unsigned64(_as_int(base) + instr.imm) & ~(WORD_BYTES - 1)
        outcome = self._load_value(entry, addr, now, as_type=instr.load_type)
        if outcome is None:
            return False
        if outcome is _WAIT:
            return _WAIT
        value, completion, poisoned = outcome
        entry.value = value
        entry.inv = entry.inv or poisoned
        entry.completion = completion
        return True

    def _blocking_store(self, entry):
        """Oldest older store whose address is still unknown, or None.

        Conservative disambiguation: a load (or call) may not issue
        until every older store has computed its address.
        """
        seq = entry.seq
        for store in self.sq:
            if store.seq >= seq:
                break
            if store.state == DISPATCHED:
                return store
        return None

    def _wait_on_store(self, entry, blocker):
        """Park ``entry`` on ``blocker``'s wakeup list; returns ``_WAIT``.

        The entry leaves the ready heap entirely — it is re-queued the
        moment the blocking store issues (same cycle, in seq order)
        instead of being re-attempted every cycle.
        """
        if blocker.store_waiters is None:
            blocker.store_waiters = [entry]
        else:
            blocker.store_waiters.append(entry)
        return _WAIT

    @staticmethod
    def _store_covers(store, addr):
        """True if ``store`` writes the word at ``addr``."""
        mem_addr = store.mem_addr
        if mem_addr is None:
            return False
        if store.instr.opcode is _VSTORE:
            return addr == mem_addr or addr == mem_addr + WORD_BYTES
        return addr == mem_addr

    def _forward_from_store(self, entry, addr):
        """Youngest older store covering the same word, if any."""
        best = None
        seq = entry.seq
        for store in self.sq:
            if store.seq >= seq:
                break
            if self._store_covers(store, addr):
                best = store
        return best

    def _forwarded_value(self, store, addr, as_type):
        value = store.store_value
        if store.instr.opcode is _VSTORE:
            value = value[1] if addr == store.mem_addr + WORD_BYTES \
                else value[0]
        return _typed_load_value(as_type, value)

    def _load_value(self, entry, addr, now, as_type):
        """Common load path (loads and ret).

        Returns ``(value, completion, poisoned)`` or None if the load
        cannot issue yet.  Claims the MEM port on success.
        """
        fus = self.fus
        if not fus.can_issue(_FU_MEM):
            return None
        blocker = self._blocking_store(entry)
        if blocker is not None:
            return self._wait_on_store(entry, blocker)
        entry.mem_addr = addr

        if as_type == "vec":
            # A vector load overlapping any in-flight store waits for the
            # store to drain (conservative; avoids partial forwarding).
            seq = entry.seq
            for store in self.sq:
                if store.seq >= seq:
                    break
                if self._store_covers(store, addr) or \
                        self._store_covers(store, addr + WORD_BYTES):
                    return None
        else:
            store = self._forward_from_store(entry, addr)
            if store is not None:
                fus.issue(_FU_MEM)
                entry.mem_level = LEVEL_FORWARD
                if store.inv:
                    return 0, now + 1, True
                return self._forwarded_value(store, addr, as_type), \
                    now + 1, False

        if self.mode == MODE_RUNAHEAD:
            cached = self.runahead_cache.read(addr)
            if cached is not None:
                fus.issue(_FU_MEM)
                entry.mem_level = LEVEL_RUNAHEAD
                value, inv = cached
                latency = self.config.hierarchy.l1d.latency
                if inv:
                    return 0, now + latency, True
                return _typed_load_value(as_type, value), now + latency, False
            hook = self._runahead_load_override
            override = None if hook is None else hook(self, entry, addr, now)
            if override is not None:
                fus.issue(_FU_MEM)
                entry.mem_level = LEVEL_SL
                value = self._read_memory_word(addr, as_type)
                return value, now + override, False

        if self.mode == MODE_NORMAL:
            hook = self._normal_load_override
            override = None if hook is None else hook(self, entry, addr, now)
            if override is not None:
                if override is BLOCKED:
                    return None
                fus.issue(_FU_MEM)
                entry.mem_level = LEVEL_SL
                value = self._read_memory_word(addr, as_type)
                return value, now + override, False

        fus.issue(_FU_MEM)
        fill = True
        if self.mode == MODE_RUNAHEAD and self._runahead_load_fill is not None:
            fill = self._runahead_load_fill(self, entry)
        result = self.hierarchy.access_data(
            addr, now, fill=fill, prefetch=self.mode == MODE_RUNAHEAD)
        entry.mem_level = result.level

        if self.mode == MODE_RUNAHEAD:
            if self._on_runahead_load is not None:
                self._on_runahead_load(self, entry, result)
            if result.is_memory_level:
                # Mutlu'03: runahead loads that miss to memory launch the
                # prefetch but return INV without waiting.
                self.stats.runahead_prefetches += 1
                latency = self.config.hierarchy.l1d.latency
                return 0, now + latency, True
        elif self._on_normal_load is not None:
            self._on_normal_load(self, entry, result)

        value = self._read_memory_word(addr, as_type)
        return value, now + result.latency, False

    def _read_memory_word(self, addr, as_type):
        word = self.memory.read_word(addr)
        if as_type == "vec":
            second = self.memory.read_word(addr + WORD_BYTES)
            return (_as_int(word), _as_int(second))
        if as_type == "float":
            return float(word)
        return _as_int(word)

    # ---------------------------------------------------------------- dispatch --

    def _dispatch(self, now):
        frontend = self.frontend
        if not frontend or frontend[0].ready_cycle > now:
            return
        dispatched = 0
        config = self.config
        width = config.width
        lq_size = config.lq_size
        sq_size = config.sq_size
        iq_size = config.iq_size
        rob = self.rob
        rob_capacity = rob.capacity
        lq = self.lq
        sq = self.sq
        iq_count = self.iq_count
        rat = self.rat
        rat_of = rat.__getitem__
        rename_free = self._rename_free
        stats = self.stats
        trace = self.trace
        runahead_mode = self.mode == MODE_RUNAHEAD
        keep = self._filter_dispatch if runahead_mode else None
        while dispatched < width and frontend:
            slot = frontend[0]
            if slot.ready_cycle > now:
                break
            instr = slot.instr
            opcode = instr.opcode

            if opcode is _FENCE and (len(rob) != 0 or runahead_mode):
                # A fence waits for all older loads — including, in
                # runahead mode, the stalling load itself, which by
                # definition completes only at exit: runahead cannot
                # pseudo-retire past a serialization point.
                stats.fence_stalls += 1
                break
            if len(rob) >= rob_capacity:
                break
            rename = instr.rename_class
            if rename is not None and rename_free[rename] <= 0:
                break
            is_load = instr.pipe_load
            is_store = instr.pipe_store
            if is_load and len(lq) >= lq_size:
                break
            if is_store and len(sq) >= sq_size:
                break
            immediate = instr.immediate
            if not immediate and iq_count >= iq_size:
                break

            frontend.popleft()
            self.seq += 1
            entry = RobEntry(self.seq, slot.pc, instr)
            entry.prediction = slot.prediction
            # Wakeup registration: count in-flight producers and hook
            # this entry onto their wakeup lists.
            pending = 0
            srcs = instr.srcs
            if srcs:
                producers = tuple(map(rat_of, srcs))
                entry.src_producers = producers
                for producer in producers:
                    if producer is not None and producer.state != DONE:
                        pending += 1
                        if producer.consumers is None:
                            producer.consumers = [entry]
                        else:
                            producer.consumers.append(entry)
                entry.pending_srcs = pending
            else:
                entry.src_producers = ()
            entry.is_fence = opcode is _FENCE
            dest = instr.dest
            if dest is not None and dest != REG_ZERO:
                rat[dest] = entry
            if rename is not None:
                rename_free[rename] -= 1
            rob.append(entry)
            stats.dispatched += 1
            dispatched += 1
            if trace is not None:
                trace.emit(now, _EV_DISPATCH, entry.seq, slot.pc)

            if immediate:
                entry.state = DONE
                entry.value = None
                continue
            if keep is not None and not keep(self, instr, slot.pc):
                # Precise runahead: outside the stall slice — complete
                # immediately with an INV result, using no backend resources.
                entry.filtered = True
                entry.inv = True
                entry.value = 0
                entry.state = ISSUED
                entry.completion = now + 1
                _heappush(self._completions,
                          (entry.completion, entry.seq, entry))
                stats.filtered_instructions += 1
                continue
            iq_count += 1
            if pending == 0:
                _heappush(self._ready, (entry.seq, entry))
            if is_load:
                lq.append(entry)
            if is_store:
                sq.append(entry)
        self.iq_count = iq_count
        if dispatched:
            self._activity = True
            # Seqs grow, so the last dispatch is the deepest.
            if self._stall_base_seq is not None:
                depth = self.seq - self._stall_base_seq
                if depth > self._window_max:
                    self._window_max = depth

    # ------------------------------------------------------------------- fetch --

    def _fetch(self, now):
        if self.fetch_halted or now < self.fetch_stall_until:
            return
        config = self.config
        fetch_queue = config.fetch_queue
        if len(self.frontend) >= fetch_queue:
            return
        fetched = 0
        width = config.width
        frontend_depth = config.frontend_depth
        frontend = self.frontend
        # Program.fetch and MemoryHierarchy.line_of, inlined.
        instructions = self.program.instructions
        n_instructions = len(instructions)
        hierarchy = self.hierarchy
        phys_base = hierarchy.phys_base
        line_mask = ~(hierarchy.config.line_bytes - 1)
        stats = self.stats
        trace = self.trace
        while fetched < width and len(frontend) < fetch_queue:
            pc = self.fetch_pc
            if pc & (INSTR_BYTES - 1):
                raise ValueError(f"misaligned pc: {pc:#x}")
            index = pc >> _PC_SHIFT
            if not 0 <= index < n_instructions:
                self.fetch_halted = True
                break
            instr = instructions[index]
            line = (pc + phys_base) & line_mask
            if line != self._last_inst_line:
                result = hierarchy.access_inst(pc, now)
                if result.level != LEVEL_L1:
                    self.fetch_stall_until = result.completion
                    break
                self._last_inst_line = line
            prediction = None
            if instr.branch:
                prediction = self.branch_unit.predict(pc, instr)
            frontend.append(
                _Fetched(pc, instr, prediction, now + frontend_depth))
            stats.fetched += 1
            fetched += 1
            if trace is not None:
                trace.emit(now, _EV_FETCH, pc)
            if instr.opcode is _HALT:
                self.fetch_halted = True
                break
            if prediction is not None and prediction.taken:
                self.fetch_pc = prediction.target
                self._last_inst_line = None
                break
            self.fetch_pc = pc + INSTR_BYTES
        if fetched:
            self._activity = True

    # ------------------------------------------------------------------ results --

    def architectural_state(self):
        """Return (registers, memory snapshot) for differential testing."""
        return list(self.arch_regs), self.memory.snapshot()


#: Sentinel returned by ``normal_load_override`` to stall the load (the
#: SL cache's "wait for branch resolution" in Algorithm 1).
BLOCKED = object()


def _as_int(value):
    if type(value) is int:
        return value & _MASK64
    if isinstance(value, tuple):
        return to_unsigned64(value[0])
    return to_unsigned64(int(value))


def _as_vec(value):
    if isinstance(value, tuple):
        return value
    return (_as_int(value), _as_int(value))


def _typed_store_value(opcode, value):
    if opcode is _FSTORE:
        return float(value)
    if opcode is _VSTORE:
        return value if isinstance(value, tuple) else (_as_int(value), 0)
    return _as_int(value)


def _typed_load_value(as_type, value):
    if as_type == "float":
        return float(value) if not isinstance(value, tuple) else \
            float(value[0])
    if as_type == "vec":
        return value if isinstance(value, tuple) else (_as_int(value), 0)
    return _as_int(value)


def run_on_core(program, memory_image=None, config=None, runahead=None,
                initial_sp=None, max_cycles=5_000_000):
    """Build a core, run the program, return the core (stats inside)."""
    core = Core(program, memory_image=memory_image, config=config,
                runahead=runahead, initial_sp=initial_sp)
    core.run(max_cycles=max_cycles)
    return core


def wake_cycle(cores, until, fill=None):
    """Cycle of the next step after every core in ``cores`` stepped idle.

    ``cores`` share one clock, one past the idle step ``c``.  With no
    paced core (:meth:`Core._paced`) this is the earliest of their next
    events (:meth:`Core._next_event`), or ``None`` when there is none and
    nothing can ever happen again.

    A paced core is stepped at ``c + 2``, ``c + 4``, ... until an event
    frees its front-end head.  While no core has a ready entry to retry,
    those steps change nothing but fence stalls, which
    :meth:`Core.skip_to` credits, so the schedule jumps straight to the
    first of them at or after the earliest event.  ``fill`` is the
    earliest pending fill of the hierarchy views the cores share (a
    multi-core system installs every view's fills each step).  The jump
    never passes ``until``, the last cycle the caller needs reached on
    the schedule: the last step under a cycle ceiling, or a poll the
    caller makes between steps.
    """
    best = None
    paced = polled = False
    for core in cores:
        event = core._next_event()
        if event is not None and (best is None or event < best):
            best = event
        if core._paced():
            paced = True
        if core._ready:
            polled = True
    if not paced:
        return best
    floor = cores[0].cycle + 1
    if polled:
        return floor           # ready entries retry on every step
    if fill is not None and (best is None or fill < best):
        best = fill
    # Steps fall on c + 2k: round the event up and the limit down to it.
    wake = until - ((until - floor) & 1)
    if best is not None and best + ((best - floor) & 1) < wake:
        wake = best + ((best - floor) & 1)
    return wake if wake > floor else floor

