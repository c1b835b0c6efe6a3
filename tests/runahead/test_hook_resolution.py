"""The per-instruction controller hooks are resolved once, at core build.

An overridden hook must see exactly the calls it saw when the core
looked every hook up on every use; a hook left at the
``RunaheadController`` default must never be called at all.
"""

import hashlib

import pytest

from repro import Core, CoreConfig
from repro.harness.registry import get_workload, make_controller
from repro.pipeline.core import BLOCKED
from repro.runahead.base import CORE_HOOKS, RunaheadController

#: Per-hook call counts and a digest of the full ``(hook, cycle,
#: result)`` log, recorded while the core still called every hook
#: through the controller on each use.
RECORDED = {
    ("mcf", "secure"): (
        {"filter_dispatch": 26220, "runahead_load_fill": 956,
         "runahead_load_override": 4020, "on_runahead_load": 956,
         "on_normal_load": 711, "on_pseudo_retire": 25651,
         "normal_load_override": 1476, "on_branch_resolved": 1079},
        "f53652243be8f19a"),
    ("gems", "precise"): (
        {"filter_dispatch": 7558, "runahead_load_fill": 1025,
         "runahead_load_override": 1025, "on_runahead_load": 1025,
         "on_normal_load": 1142, "on_pseudo_retire": 7601,
         "normal_load_override": 1142, "on_branch_resolved": 280},
        "062f08b82115b6fc"),
}


def run_workload(workload, controller):
    program, image, sp = get_workload(workload).materialize()
    core = Core(program, memory_image=image, config=CoreConfig.small(),
                runahead=controller, initial_sp=sp, warm_icache=True)
    core.run()
    assert core.halted
    return core


def recording(controller):
    """Re-class ``controller`` so it overrides every hook in
    :data:`CORE_HOOKS` with a logging pass-through."""
    calls = []
    base = type(controller)

    def override(name):
        inner = getattr(base, name)

        def hook(self, core, *args):
            result = inner(self, core, *args)
            calls.append((name, core.cycle,
                          "BLOCKED" if result is BLOCKED else repr(result)))
            return result
        return hook

    controller.__class__ = type(f"Recording{base.__name__}", (base,),
                                {name: override(name) for name in CORE_HOOKS})
    return controller, calls


@pytest.mark.parametrize("workload,name", sorted(RECORDED))
def test_overridden_hooks_see_the_same_calls(workload, name):
    controller, calls = recording(make_controller(name))
    run_workload(workload, controller)
    counts, digest = RECORDED[workload, name]
    assert {hook: sum(1 for call in calls if call[0] == hook)
            for hook in CORE_HOOKS} == counts
    assert hashlib.sha256(repr(calls).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("name", ["none", "original", "precise", "vector",
                                  "secure", "branch-skip"])
def test_default_hooks_are_never_called(name, monkeypatch):
    called = []
    for hook in CORE_HOOKS:
        default = getattr(RunaheadController, hook)

        def counted(self, core, *args, hook=hook, default=default):
            called.append(hook)
            return default(self, core, *args)
        monkeypatch.setattr(RunaheadController, hook, counted)
    controller = make_controller(name)
    plain = run_workload("mcf", controller)
    assert called == []
    monkeypatch.undo()
    # Nothing but the calls changed: the run matches one with every
    # hook overridden (and so called).
    recorded, _ = recording(make_controller(name))
    assert run_workload("mcf", recorded).stats == plain.stats
