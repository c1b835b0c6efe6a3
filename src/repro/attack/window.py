"""Transient-window measurement (Fig. 10, §5.3).

Three scenarios measure how many instructions can execute transiently
behind a flushed load:

* ① normal machine, flush once — bounded by the ROB (paper: N1 = 255);
* ② runahead machine, flush once — pseudo-retirement logically extends
  the ROB (paper: N2 = 480);
* ③ runahead machine, the stalling line flushed again *while the
  processor is in runahead mode* — the in-flight fill is dropped and
  must be re-fetched, prolonging the runahead interval (paper: N3 = 840).

Scenario ③ is driven by a co-resident attacker thread in the paper
("the attacker must wait until all instructions in the ROB have retired
before immediately flushing x and repeating this process ... a
probabilistic event").  The harness models that second thread as an
*asynchronous flusher*: while the core is in runahead mode it flushes the
stalling line (and restarts its fetch) a bounded number of times.  An
**unbounded** self-flushing program genuinely livelocks a runahead
machine — `clflush` younger than the stalling load re-executes after
every exit and re-drops the fill; see
``tests/attack/test_window.py::test_self_flush_livelocks`` — which is why
the paper calls case ③ probabilistic.

The measured quantity is the deepest younger instruction (in program
order, counted from the stalling load) that entered the window before the
load's data architecturally returned — the core tracks it as
``transient_window_max``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.assembler import assemble
from ..isa.memory_image import MemoryImage
from ..pipeline.config import CoreConfig
from ..pipeline.core import MODE_RUNAHEAD, Core, wake_cycle
from ..runahead.base import NoRunahead
from ..runahead.original import OriginalRunahead


@dataclass
class WindowMeasurement:
    scenario: str
    window: int            # deepest transient instruction reached
    pseudo_retired: int
    runahead_episodes: int
    cycles: int


def window_program(sled=4096, self_flushes=0):
    """``clflush x; load x; nop sled`` (the Fig. 10 code snippets).

    ``self_flushes`` inserts in-stream clflushes after the load — used
    only by the livelock demonstration, never by the measurements.
    """
    image = MemoryImage()
    image.alloc_array("x_word", 2)
    mid = "\n".join("    clflush r1, 0" for _ in range(self_flushes))
    source = f"""
        li r1, @x_word
        clflush r1, 0
        fence
        load r2, r1, 0       # the stalling load
    {mid}
        .repeat {sled}, nop
        halt
    """
    return assemble(source, memory_image=image), image


class AsyncFlusher:
    """Models the co-resident attacker thread of scenario ③.

    While the core is in runahead mode, it flushes the stalling line and
    re-requests it (what the victim's outstanding miss logic would do),
    extending the runahead interval; at most ``budget`` times.  Timing is
    everything: a flush issued right after the miss barely extends the
    window (the re-fetch starts while the memory channel is still nearly
    free), so — like the paper's attacker, who waits for retirement
    before re-flushing — the flusher fires just before the in-flight
    fill would return.
    """

    def __init__(self, core, line_addr, budget, margin=8):
        self.core = core
        self.line = line_addr
        self.budget = budget
        self.margin = margin
        self.flushes = 0

    def due(self):
        """First cycle at which :meth:`poll` fires while the core's state
        holds, or ``None`` when it cannot fire."""
        core = self.core
        checkpoint = core.checkpoint
        if self.budget <= 0 or core.mode != MODE_RUNAHEAD or \
                checkpoint is None:
            return None
        return checkpoint.stalling_completion - self.margin

    def poll(self):
        core = self.core
        due = self.due()
        if due is None or core.cycle < due:
            return
        core.hierarchy.flush_line(self.line)
        refetch = core.hierarchy.access_data(self.line, core.cycle,
                                             prefetch=True)
        core.extend_stall(refetch.completion)
        self.budget -= 1
        self.flushes += 1


def measure_window(runahead=None, async_flushes=0, sled=4096, config=None) \
        -> WindowMeasurement:
    """Run one Fig. 10 scenario and return the measured window."""
    program, image = window_program(sled=sled)
    controller = runahead if runahead is not None else NoRunahead()
    core = Core(program, memory_image=image,
                config=config or CoreConfig.paper(), runahead=controller,
                warm_icache=True)
    flusher = AsyncFlusher(core, image.address_of("x_word"),
                           budget=async_flushes)
    max_cycles = 2_000_000
    cores = (core,)
    while not core.halted and core.cycle < max_cycles:
        core.step()
        flusher.poll()
        if not core._activity and not core.halted:
            # A paced schedule polls between its steps too: never jump
            # past the flusher's next firing.
            until = max_cycles - 1
            due = flusher.due()
            if due is not None and due < until:
                until = due
            wake = wake_cycle(cores, until)
            if wake is None:
                break
            core.skip_to(wake)
            flusher.poll()   # cycle skips may land inside its window
    if not core.halted:
        raise RuntimeError("window probe did not halt")
    core.stats.cycles = core.cycle
    name = controller.name
    if async_flushes:
        name += f"+{async_flushes}async-flush"
    return WindowMeasurement(
        scenario=name,
        window=core.transient_window_max,
        pseudo_retired=core.stats.pseudo_retired,
        runahead_episodes=core.stats.runahead_episodes,
        cycles=core.stats.cycles)


def measure_fig10(config=None, sled=4096, n3_flushes=1):
    """All three Fig. 10 scenarios; returns ``(n1, n2, n3)`` measurements."""
    n1 = measure_window(NoRunahead(), sled=sled, config=config)
    n2 = measure_window(OriginalRunahead(), sled=sled, config=config)
    n3 = measure_window(OriginalRunahead(), async_flushes=n3_flushes,
                        sled=sled, config=config)
    return n1, n2, n3
