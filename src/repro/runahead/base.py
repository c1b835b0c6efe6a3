"""Runahead controller interface.

The core owns the mechanics (checkpoint, INV propagation, pseudo-retire,
exit restore); a :class:`RunaheadController` decides the *policy*: when to
enter and exit, which instructions execute in runahead mode (precise
runahead filters to stall slices), what extra prefetches to issue (vector
runahead), and — for the secure variant of §6 — where runahead fills go
and what happens when branches resolve after exit.

:class:`NoRunahead` is the baseline machine: the stall simply blocks the
pipeline, and transient execution is bounded by the ROB (Fig. 5a).
"""

from __future__ import annotations

#: The per-instruction hooks.  The core looks each one up once, when it
#: is built (:func:`resolve_hooks`), instead of calling it on every
#: dispatch, load, pseudo-retire or branch resolution.
CORE_HOOKS = (
    "filter_dispatch", "runahead_load_fill", "runahead_load_override",
    "on_runahead_load", "on_normal_load", "on_pseudo_retire",
    "normal_load_override", "on_branch_resolved")


def resolve_hooks(controller):
    """``{name: hook}`` for :data:`CORE_HOOKS`: ``controller``'s bound
    method where its class overrides the hook, ``None`` where the class
    keeps the :class:`RunaheadController` default."""
    cls = type(controller)
    return {name: getattr(controller, name)
            if getattr(cls, name) is not getattr(RunaheadController, name)
            else None
            for name in CORE_HOOKS}


class RunaheadController:
    """Default policy hooks; subclasses override selectively.

    Hook contract: ``should_enter``, ``on_enter``, ``should_exit``,
    ``on_exit`` and ``on_inv_branch`` are called every time.  The
    :data:`CORE_HOOKS` are resolved once when the core is built: a hook
    the subclass does not override is never called (the core acts on
    the default result below), and replacing a hook after the core is
    built does not reach that core.  ``should_exit`` is polled on
    stepped cycles only; the step schedule wakes for
    ``checkpoint.stalling_completion``, so an override that turns true
    at another cycle is seen late.
    """

    name = "base"

    def __init__(self):
        self.core = None

    def attach(self, core):
        """Called once by the core during construction."""
        self.core = core

    # -- entry / exit ------------------------------------------------------------

    def should_enter(self, core, head_entry) -> bool:
        """Decide whether a memory-stalled ROB-head load triggers runahead."""
        return False

    def on_enter(self, core):
        """Called after the core has checkpointed and switched modes."""

    def should_exit(self, core, now) -> bool:
        """Default: exit when the stalling load's data has returned."""
        checkpoint = core.checkpoint
        return checkpoint is not None and now >= checkpoint.stalling_completion

    def on_exit(self, core):
        """Called just before the core restores the checkpoint."""

    # -- runahead-mode execution ----------------------------------------------------

    def filter_dispatch(self, core, instr, pc) -> bool:
        """Return False to drop the instruction from runahead execution
        (it completes immediately with an INV destination and consumes no
        backend resources) — precise runahead's stall-slice filter."""
        return True

    def runahead_load_fill(self, core, entry) -> bool:
        """Whether runahead-mode misses install lines into the caches.

        The insecure variants return True (that *is* the prefetching
        benefit — and the attack surface); the secure variant redirects
        fills to the SL cache and returns False here.
        """
        return True

    def runahead_load_override(self, core, entry, addr, now):
        """Optionally service a runahead-mode load without touching the
        hierarchy (returns a latency or None).  The secure controller
        serves SL-cache hits here so repeated episodes do not re-request
        already-quarantined lines from memory."""
        return None

    def on_runahead_load(self, core, entry, result):
        """Called for every runahead-mode load that accessed the hierarchy."""

    def on_normal_load(self, core, entry, result):
        """Called for every normal-mode load that accessed the hierarchy
        (observer only; used by vector runahead's stride trainer)."""

    def on_pseudo_retire(self, core, entry):
        """Called when an instruction pseudo-retires in runahead mode."""

    def on_inv_branch(self, core, entry):
        """Called when a branch becomes unresolvable (INV sources) in
        runahead mode.  Default: the prediction stands — the SPECRUN
        vulnerability.  The branch-skip mitigation overrides this."""

    # -- normal-mode hooks (used by the defense) --------------------------------------

    def normal_load_override(self, core, entry, addr, now):
        """Optionally service a normal-mode load (returns an AccessResult
        substitute or None).  The SL cache intercepts loads here."""
        return None

    def on_branch_resolved(self, core, entry, mispredicted):
        """Called for every resolved branch in any mode."""


class NoRunahead(RunaheadController):
    """Baseline: never enter runahead; the ROB bounds speculation."""

    name = "no-runahead"
