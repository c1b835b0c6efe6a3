"""Reorder buffer entries and the value-based in-flight state.

The core is a value-based Tomasulo machine: every ROB entry carries the
computed result of its instruction, the register alias table maps each
architectural register to its newest in-flight producer, and operands are
read either from a producer entry or from the architectural file.

``inv`` implements the runahead INV bit (Mutlu HPCA'03): results derived
from the stalling load are poisoned and propagate invalidity instead of
values.  An INV *branch* is the SPECRUN attack surface — it is predicted
but never resolved.

Scheduling is wakeup-driven: ``pending_srcs`` counts source producers
whose results are still outstanding, and ``consumers`` is the producer's
wakeup list — when a producer's result arrives, the core decrements each
consumer's counter and queues the ones that reached zero for issue.  The
issue stage therefore never scans the issue queue asking "are your
operands ready yet?".
"""

from __future__ import annotations

from collections import deque
from typing import Optional

# Entry lifecycle states.
DISPATCHED = 0   # in the ROB + issue queue, waiting for operands/FU
ISSUED = 1       # executing; result arrives at `completion`
DONE = 2         # result available (or pseudo-value for stores)


class RobEntry:
    """One in-flight instruction."""

    __slots__ = (
        "seq", "pc", "instr", "state", "value", "inv", "completion",
        "prediction", "resolved", "actual_taken", "actual_target",
        "mem_addr", "store_value", "mem_level", "is_fence", "squashed",
        "src_producers", "filtered", "taint", "btag", "issue_cycle",
        "waiting_sl", "is_branch", "is_load", "is_store",
        "pending_srcs", "consumers", "store_waiters",
    )

    def __init__(self, seq, pc, instr):
        self.seq = seq
        self.pc = pc
        self.instr = instr
        self.state = DISPATCHED
        self.value = None
        self.inv = False
        self.completion = 0
        self.prediction = None       # branch Prediction from fetch
        self.resolved = False
        self.actual_taken = None
        self.actual_target = None
        self.mem_addr = None         # effective address once computed
        self.store_value = None
        self.mem_level = None        # hierarchy level that served a load
        self.is_fence = False
        self.squashed = False
        self.src_producers = None    # tuple: RobEntry | None per source
        self.filtered = False        # precise runahead: dropped from slice
        self.taint = None            # defense: taint label set
        self.btag = None             # defense: (branch scope id, m) tag
        self.issue_cycle = None
        self.waiting_sl = None       # defense: blocked on SL-cache USL wait
        # Decode-time classification, copied from the instruction so the
        # commit/queue paths read one attribute instead of two.
        self.is_branch = instr.branch
        self.is_load = instr.pipe_load
        self.is_store = instr.pipe_store
        # Wakeup scheduling state (see module docstring).
        self.pending_srcs = 0        # outstanding source producers
        self.consumers = None        # entries to wake when this completes
        self.store_waiters = None    # loads waiting for this store's address

    def __repr__(self):
        return (f"RobEntry(seq={self.seq}, pc={self.pc:#x}, "
                f"{self.instr.opcode.mnemonic}, state={self.state})")


class ReorderBuffer(deque):
    """Bounded FIFO of :class:`RobEntry` (in program order).

    A ``deque`` subclass so the core's per-cycle ``len``, ``[0]``,
    ``append`` and ``popleft`` are C calls; ``push`` is the checked
    append for callers that do not test the capacity themselves.
    """

    __slots__ = ("capacity",)

    def __init__(self, capacity):
        super().__init__()
        self.capacity = capacity

    @property
    def full(self):
        return len(self) >= self.capacity

    @property
    def empty(self):
        return not self

    def head(self) -> Optional[RobEntry]:
        return self[0] if self else None

    def push(self, entry: RobEntry):
        if len(self) >= self.capacity:
            raise OverflowError("ROB overflow")
        self.append(entry)

    def pop_head(self) -> RobEntry:
        return self.popleft()

    def squash_younger(self, seq):
        """Remove every entry younger than ``seq``; returns the victims."""
        victims = []
        while self and self[-1].seq > seq:
            victim = self.pop()
            victim.squashed = True
            victims.append(victim)
        return victims

    def clear(self):
        """Remove everything (runahead exit); returns the victims."""
        victims = list(self)
        for victim in victims:
            victim.squashed = True
        super().clear()
        return victims
