"""Step schedule: the drivers against a reference that takes every step.

After a step that changed nothing at cycle ``c``, the reference driver
steps at ``c + 2`` while the front-end head is ready (it could not
dispatch), and otherwise at ``Core._next_event()``; the fence stall of
a blocked fence is counted by each of those steps.  ``Core.run``,
``MultiCoreSystem.run`` and ``measure_window`` jump the steps of such a
stall that change nothing.  Their results must be identical to the
reference's, and they may take no more steps.
"""

import dataclasses

import pytest

from repro import Core, CoreConfig, MemoryImage, assemble
from repro.attack import window
from repro.attack.gadgets import build_attack
from repro.defense import SecureRunahead
from repro.harness.registry import get_workload, make_controller
from repro.memory.hierarchy import PHYS_WINDOW_STRIDE, SharedHierarchy
from repro.multicore.scenario import Topology, build_attack_system
from repro.multicore.system import MultiCoreSystem
from repro.obs.sink import MemorySink
from repro.runahead import NoRunahead, OriginalRunahead

MAX_CYCLES = 2_000_000


def _head_ready(core):
    frontend = core.frontend
    return bool(frontend) and frontend[0].ready_cycle < core.cycle


def reference_run(core, max_cycles=MAX_CYCLES):
    while not core.halted and core.cycle < max_cycles:
        core.step()
        if not core._activity and not core.halted:
            wake = core.cycle + 1 if _head_ready(core) \
                else core._next_event()
            if wake is None:
                break
            core.cycle = wake
    core.stats.cycles = core.cycle


def reference_system_run(system, max_cycles=MAX_CYCLES):
    slots = system.slots
    primary = slots[0]
    now = system.cycle
    while now < max_cycles:
        system.shared.apply_completed(now)
        active = False
        for slot in slots:
            core = slot.core
            if core.halted:
                if slot is primary or not slot.restart:
                    continue
                core = slot.respawn(now)
                active = True
            core.cycle = now
            core.step()
            active = active or core._activity
        if primary.core.halted:
            break
        now += 1
        if active:
            continue
        live = [slot.core for slot in slots if not slot.core.halted]
        if any(_head_ready(core) for core in live):
            now += 1
            continue
        events = [event for event in (core._next_event() for core in live)
                  if event is not None]
        if not events:
            break
        now = min(events)
    system.cycle = now
    for slot in slots:
        slot.core.stats.cycles = slot.core.cycle


def reference_window_run(core, flusher, max_cycles=MAX_CYCLES):
    while not core.halted and core.cycle < max_cycles:
        core.step()
        flusher.poll()
        if not core._activity and not core.halted:
            wake = core.cycle + 1 if _head_ready(core) \
                else core._next_event()
            if wake is None:
                break
            core.cycle = wake
            flusher.poll()
    core.stats.cycles = core.cycle


def snapshot(core):
    return (dataclasses.asdict(core.stats),
            dataclasses.asdict(core.hierarchy.stats),
            core.cycle, core.transient_window_max,
            core.architectural_state())


@pytest.fixture
def step_counter(monkeypatch):
    """Counts every ``Core.step`` call made while the test runs."""
    counter = {"steps": 0}
    step = Core.step

    def counted(core):
        counter["steps"] += 1
        step(core)

    monkeypatch.setattr(Core, "step", counted)
    return counter


def stall_program(body, prologue=""):
    """``load x`` misses to memory; ``body`` queues up behind it."""
    image = MemoryImage()
    image.alloc_array("x_word", 2)
    image.alloc_array("tbl", 64)
    source = f"""
        li r1, @x_word
        clflush r1, 0
        fence
        {prologue}
        load r2, r1, 0
    {body}
        halt
    """
    return assemble(source, memory_image=image), image


STALLS = {
    "fence-normal": ("fence\n.repeat 8, nop", NoRunahead, None),
    "fence-runahead": ("fence\n.repeat 8, nop", OriginalRunahead, None),
    "full-rob": (".repeat 300, nop", NoRunahead, None),
    "full-iq": (".repeat 60, add r3, r2, r2", NoRunahead, None),
    "no-rename-register": (".repeat 60, li r3, 1", NoRunahead, None),
    "full-lq-small": (".repeat 12, load r4, r1, 8", NoRunahead,
                      CoreConfig.small()),
}


def run_both(make_core, step_counter, max_cycles=MAX_CYCLES):
    reference = make_core()
    before = step_counter["steps"]
    reference_run(reference, max_cycles)
    reference_steps = step_counter["steps"] - before
    core = make_core()
    before = step_counter["steps"]
    core.run(max_cycles=max_cycles)
    steps = step_counter["steps"] - before
    assert core.halted or max_cycles < MAX_CYCLES
    assert snapshot(core) == snapshot(reference)
    assert steps <= reference_steps
    return core, steps, reference_steps


@pytest.mark.parametrize("name", sorted(STALLS))
def test_hand_built_stall_is_jumped_exactly(name, step_counter):
    body, controller, config = STALLS[name]
    program, image = stall_program(body)

    def make_core():
        return Core(program, memory_image=image,
                    config=config or CoreConfig.paper(),
                    runahead=controller(), warm_icache=True)

    core, steps, reference_steps = run_both(make_core, step_counter)
    assert steps < reference_steps       # the stall was jumped
    if name.startswith("fence"):
        assert core.stats.fence_stalls > 0


@pytest.mark.parametrize("max_cycles", [150, 151])
def test_cycle_ceiling_inside_a_stall(max_cycles, step_counter):
    """A run cut off by ``max_cycles`` mid-stall ends on the same cycle
    with the same fence stalls, whatever the ceiling's parity."""
    program, image = stall_program("fence\n.repeat 8, nop")

    def make_core():
        return Core(program, memory_image=image, config=CoreConfig.paper(),
                    runahead=NoRunahead(), warm_icache=True)

    core, _, _ = run_both(make_core, step_counter, max_cycles)
    assert not core.halted and core.stats.fence_stalls > 0


def test_blocked_secure_load_is_still_polled(step_counter):
    """A USL load the SL cache holds back (``BLOCKED``) stays in the
    ready heap and is retried on every step, each retry one USL wait.
    The fence behind it keeps the schedule paced, but while the heap is
    non-empty no step may be jumped."""
    image = MemoryImage()
    image.alloc_array("cold", 2)
    image.alloc_array("tbl", 64)
    source = """
        li r10, @cold
        li r11, @tbl
        li r13, 1
        load r1, r10, 0      # stalling load
        .repeat 4, div r1, r1, r13
        blt r1, r0, over     # INV scope branch, resolves late after exit
        load r2, r11, 512    # USL inside the scope, retried until then
    over:
        fence
        halt
    """
    program = assemble(source, memory_image=image)
    controllers = []

    def make_core():
        controllers.append(SecureRunahead())
        return Core(program, memory_image=image, config=CoreConfig.small(),
                    runahead=controllers[-1], warm_icache=True)

    core, _, _ = run_both(make_core, step_counter)
    reference, jumped = (dataclasses.asdict(c.sl.stats) for c in controllers)
    assert reference["usl_waits"] > 0 and core.stats.fence_stalls > 0
    assert jumped == reference


@pytest.mark.parametrize("workload,controller", [
    ("mcf", "none"), ("mcf", "original"), ("mcf", "secure"),
    ("gems", "precise"), ("zeusmp", "vector"),
])
def test_workload_runs_match_the_reference(workload, controller,
                                           step_counter):
    program, image, sp = get_workload(workload).materialize()

    def make_core():
        return Core(program, memory_image=image, config=CoreConfig.small(),
                    runahead=make_controller(controller), initial_sp=sp,
                    warm_icache=True)

    run_both(make_core, step_counter)


def _system_snapshot(system):
    return ([snapshot(slot.core) for slot in system.slots],
            [dataclasses.asdict(view.stats) for view in system.shared.views],
            system.cycle)


@pytest.mark.parametrize("controller,receiver_name,topology", [
    ("original", "flush-reload", Topology(cores=2)),
    ("secure", "flush-reload", Topology(cores=2)),
    ("original", "prime-probe", Topology(cores=2)),
    ("original", "flush-reload", Topology(cores=3, corunner="reference")),
])
def test_multicore_attack_matches_the_reference(controller, receiver_name,
                                                topology, step_counter):
    """The attacker's view belongs to no core; prime+probe leaves its
    priming fills pending there while the victim runs."""
    attack = build_attack("pht", secret_value=83, external_probe=True,
                          flush_probe_array=receiver_name == "flush-reload")

    def make_system():
        system, receiver = build_attack_system(
            attack, make_controller(controller), CoreConfig.paper(),
            receiver_name, topology)
        receiver.prepare()
        return system, receiver

    reference, reference_receiver = make_system()
    before = step_counter["steps"]
    reference_system_run(reference)
    reference_steps = step_counter["steps"] - before
    system, receiver = make_system()
    before = step_counter["steps"]
    system.run(max_cycles=MAX_CYCLES)
    steps = step_counter["steps"] - before
    assert system.slots[0].core.halted
    assert _system_snapshot(system) == _system_snapshot(reference)
    now = system.cycle
    assert receiver.measure(now) == reference_receiver.measure(now)
    assert steps <= reference_steps


@pytest.mark.parametrize("body", ["fence\n.repeat 8, nop", ""])
@pytest.mark.parametrize("max_cycles", [MAX_CYCLES, 100, 101])
def test_multicore_stall_with_a_coreless_fill(body, max_cycles,
                                             step_counter):
    """A view no core owns has a fill due while the core waits for its
    miss: a paced wait must step the cycle the fill is installed on, as
    the reference does.  ``body`` is a blocked fence (paced) or nothing
    (plain skip); small ``max_cycles`` stop the run inside the wait."""
    program, image = stall_program(body)
    config = CoreConfig.paper()

    def make_system():
        shared = SharedHierarchy(config.hierarchy, cores=0)
        view = shared.add_core(phys_base=0)
        bystander = shared.add_core(phys_base=PHYS_WINDOW_STRIDE)
        bystander.trace = MemorySink()
        bystander.access_data(0x40000, 0)
        system = MultiCoreSystem(shared)
        system.add_core(lambda: Core(
            program, memory_image=image, config=config,
            runahead=NoRunahead(), warm_icache=True, hierarchy=view))
        return system, bystander

    reference, reference_view = make_system()
    before = step_counter["steps"]
    reference_system_run(reference, max_cycles)
    reference_steps = step_counter["steps"] - before
    system, view = make_system()
    before = step_counter["steps"]
    system.run(max_cycles=max_cycles)
    steps = step_counter["steps"] - before
    assert _system_snapshot(system) == _system_snapshot(reference)
    assert view.trace.events == reference_view.trace.events
    assert steps <= reference_steps
    if max_cycles == MAX_CYCLES:
        assert view.trace.events             # the fill was installed


@pytest.mark.parametrize("lead", range(4))
@pytest.mark.parametrize("flushes", [1, 3])
def test_async_flusher_window_matches_the_reference(lead, flushes,
                                                    monkeypatch,
                                                    step_counter):
    """A fence behind the stalling load paces runahead mode while the
    flusher is armed, so the flusher's polls land between paced steps;
    ``lead`` shifts the fire cycle across both step parities."""
    built = []

    def fenced_program(sled=4096, self_flushes=0):
        built.append(stall_program("fence\n.repeat 64, nop",
                                   prologue="nop\n" * lead))
        return built[-1]

    cores = []

    class RecordedCore(Core):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            cores.append(self)

    monkeypatch.setattr(window, "window_program", fenced_program)
    monkeypatch.setattr(window, "Core", RecordedCore)
    before = step_counter["steps"]
    measured = window.measure_window(OriginalRunahead(),
                                     async_flushes=flushes)
    steps = step_counter["steps"] - before

    program, image = built[-1]
    reference = Core(program, memory_image=image, config=CoreConfig.paper(),
                     runahead=OriginalRunahead(), warm_icache=True)
    flusher = window.AsyncFlusher(reference, image.address_of("x_word"),
                                  budget=flushes)
    before = step_counter["steps"]
    reference_window_run(reference, flusher)
    reference_steps = step_counter["steps"] - before

    assert flusher.flushes > 0
    assert snapshot(cores[-1]) == snapshot(reference)
    assert measured.cycles == reference.stats.cycles
    assert steps < reference_steps
