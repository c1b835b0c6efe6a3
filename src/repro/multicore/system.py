"""Round-robin lockstep execution of N cores over one shared hierarchy.

Each :class:`~repro.pipeline.core.Core` owns its private pipeline state
and its view of the :class:`~repro.memory.hierarchy.SharedHierarchy`;
this module supplies the missing piece — a global clock.  Every global
cycle the scheduler first installs all completed fills (so one core's
fill is visible to another core's L3 lookup in the same cycle,
deterministically, regardless of step order), then steps each
non-halted core once in slot order.

Cycle skipping is preserved from the single-core ``Core.run`` loop but
lifted to the system level: when *no* core reported activity, the clock
jumps to the next cycle any core's step schedule acts on
(:func:`~repro.pipeline.core.wake_cycle`).  A system where one core is
always busy (a streaming co-runner) therefore degrades gracefully to
true cycle-by-cycle lockstep, while a victim-plus-idle-attacker pair
runs as fast as a single core.

Co-runner slots can be marked ``restart=True``: when their program
halts, the slot's factory builds a fresh core on the *same* hierarchy
view (caches stay warm) and execution continues at the current global
cycle — a co-runner is an endless background process, not a one-shot
kernel.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..pipeline.core import Core, wake_cycle
from ..memory.hierarchy import SharedHierarchy


class CoreSlot:
    """One scheduled core: the live instance plus its rebuild recipe."""

    __slots__ = ("factory", "name", "restart", "core", "respawns")

    def __init__(self, factory: Callable[[], Core], name: str,
                 restart: bool):
        self.factory = factory
        self.name = name
        self.restart = restart
        self.core = factory()
        self.respawns = 0

    def respawn(self, now: int) -> Core:
        """Rebuild the core (fresh pipeline, same hierarchy view) and
        join the global clock at ``now``."""
        self.core = self.factory()
        self.core.cycle = now
        self.respawns += 1
        return self.core


class MultiCoreSystem:
    """Lockstep scheduler for cores sharing one :class:`SharedHierarchy`."""

    def __init__(self, shared: SharedHierarchy):
        self.shared = shared
        self.slots: List[CoreSlot] = []
        self.cycle = 0

    def add_core(self, factory: Callable[[], Core], name: str = "",
                 restart: bool = False) -> CoreSlot:
        """Register a core built by ``factory`` (zero-arg, returns a
        :class:`Core` bound to a view of this system's hierarchy)."""
        slot = CoreSlot(factory, name or f"core{len(self.slots)}", restart)
        if slot.core.hierarchy.shared is not self.shared:
            raise ValueError(
                f"slot {slot.name!r}: core is not bound to this system's "
                "shared hierarchy")
        self.slots.append(slot)
        return slot

    def run(self, max_cycles: int = 5_000_000, primary: int = 0) -> Core:
        """Run all cores in lockstep until the primary halts.

        Returns the primary core (statistics inside).  Secondary cores
        that halt simply stop consuming cycles (or respawn, for
        ``restart`` slots); a fully quiescent system — nothing can ever
        happen again — also ends the run, leaving the primary's
        ``halted`` flag False for the caller to inspect.
        """
        slots = self.slots
        if not slots:
            raise ValueError("no cores scheduled")
        primary_slot = slots[primary]
        if primary_slot.restart:
            raise ValueError("the primary core cannot be a restart slot")
        shared = self.shared
        now = self.cycle
        while now < max_cycles:
            shared.apply_completed(now)
            active = False
            for slot in slots:
                core = slot.core
                if core.halted:
                    if slot is primary_slot or not slot.restart:
                        continue
                    core = slot.respawn(now)
                    active = True
                core.cycle = now
                core.step()
                if core._activity:
                    active = True
            if primary_slot.core.halted:
                break
            now += 1
            if active:
                continue
            # Global cycle skip: every core idle — jump to the next cycle
            # the schedule of any of them acts on.
            live = [slot.core for slot in slots if not slot.core.halted]
            wake = wake_cycle(live, max_cycles - 1, shared.next_event())
            if wake is None:
                break              # system quiescent: nothing can happen
            if wake < max_cycles:
                # Past the ceiling the run ends and each core keeps the
                # clock of its last step.
                for core in live:
                    core.skip_to(wake)
            now = wake
        self.cycle = now
        for slot in slots:
            slot.core.stats.cycles = slot.core.cycle
        return primary_slot.core
