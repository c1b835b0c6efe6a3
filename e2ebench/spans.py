"""Traced runs: wrap the program's public entry points from outside.

Nothing under ``src/`` knows about this module.  :class:`traced`
replaces a fixed list of public functions and methods with wrappers
for the duration of a ``with`` block and restores every original on
exit, so an untraced pass in the same process runs the unmodified
code.  Each wrapper records one of three things into a :class:`Tracer`
held in memory:

* a *span* (name, start, end, parent span, pid) for calls made at most
  a few times per trial — trials, core runs, checker runs;
* an *aggregate* (calls, inclusive and self seconds per name) for the
  hot leaf calls — memory accesses and runahead-controller hooks —
  whose individual spans would outweigh the work they measure;
* a *count* for ``Core.step``, which is only counted, never timed, so
  the step loop stays as cheap as the wrapper allows.

Self time is a call's duration minus the time its traced children
took, whatever kind they are.  Spans are written to a JSON file when a
traced pass ends.  Campaign workers are forked from the traced parent
and so inherit the wrappers: :func:`worker_run_trial`, passed to
``Campaign.run(runner=...)``, gives each worker its own tracer and
writes one span file per worker process when that process exits.
:func:`layer_metrics` merges the files and derives the per-layer
metrics.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import pkgutil
import statistics
import sys
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

# Span and aggregate names.  The per-layer metrics are derived from
# these in layer_metrics().
RUN_TRIAL = "harness.run_trial"
PLAN = "harness.plan"
CACHE_GET = "harness.cache_get"
CACHE_PUT = "harness.cache_put"
JOURNAL = "campaign.journal_append"
RESULT_WRITE = "campaign.result_write"
CORE_INIT = "pipeline.core_init"
CORE_RUN = "pipeline.core_run"
WINDOW_RUN = "pipeline.measure_window"
WORKLOAD_RUN = "workloads.run"
MEMORY = "memory.access"
CONTROLLER = "runahead.hook"
ATTACK_RUN = "attack.run"
MEASURE = "channel.measure"
DECODE = "channel.decode"
MULTICORE_RUN = "multicore.run"
CHECK = "verify.check"
CROSSCHECK = "verify.crosscheck"
GEN = "verify.gen"
ASSEMBLE = "isa.assemble"

#: The RunaheadController hooks the core calls (``attach`` runs once
#: per core and is left out).
CONTROLLER_HOOKS = (
    "should_enter", "on_enter", "should_exit", "on_exit",
    "filter_dispatch", "runahead_load_fill", "runahead_load_override",
    "on_runahead_load", "on_normal_load", "on_pseudo_retire",
    "on_inv_branch", "normal_load_override", "on_branch_resolved")


class Tracer:
    """Spans, aggregates and counters of one process."""

    def __init__(self, out_dir: Path, role: str = "main"):
        self.out_dir = Path(out_dir)
        self.role = role
        self.pid = os.getpid()
        self.stack: List[list] = []          # [child seconds, span id]
        self.spans: List[tuple] = []         # (id, parent, name, start, end)
        self.next_id = 0
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.count: Dict[str, float] = defaultdict(float)
        self.run_keys: set = set()
        self.cores: list = []                # built, not yet harvested
        self.runahead_since: Dict[int, int] = {}
        self.first_done: Optional[float] = None

    def reset(self, role: str) -> None:
        """Start over in a forked child.  Containers are cleared in place
        because the installed wrappers hold references to them."""
        self.role = role
        self.pid = os.getpid()
        self.next_id = 0
        self.first_done = None
        for container in (self.stack, self.spans, self.total,
                          self.self_time, self.calls, self.count,
                          self.run_keys, self.cores, self.runahead_since):
            container.clear()

    def harvest_cores(self) -> None:
        """Fold the finished cores' simulated work into the counters."""
        for core in self.cores:
            self.count["sim_cycles"] += core.cycle
            self.count["dispatched"] += core.stats.dispatched
            self.count["committed"] += core.stats.committed
        self.cores.clear()

    def dump(self) -> Path:
        """Write everything recorded to ``<out_dir>/spans-<pid>.json``."""
        self.harvest_cores()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        payload = {
            "pid": self.pid, "role": self.role,
            "spans": [{"id": i, "parent": p, "name": n, "start": s,
                       "end": e} for i, p, n, s, e in self.spans],
            "total": dict(self.total), "self": dict(self.self_time),
            "calls": dict(self.calls), "count": dict(self.count),
            "run_keys": sorted(self.run_keys),
            "first_done": self.first_done,
        }
        path.write_text(json.dumps(payload))
        return path


def _wrap(tracer: Tracer, name: str, fn: Callable, keep_span: bool,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    """Timed wrapper around ``fn`` recording into ``tracer``.

    ``before(args, kwargs)`` runs first; ``after(args, kwargs, result)``
    runs once ``fn`` has returned normally.
    """
    clock = time.monotonic

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        stack = tracer.stack
        parent = stack[-1][1] if stack else None
        span_id = parent
        if keep_span:
            span_id = tracer.next_id
            tracer.next_id += 1
        frame = [0.0, span_id]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            tracer.total[name] += duration
            tracer.self_time[name] += duration - frame[0]
            tracer.calls[name] += 1
            if keep_span:
                tracer.spans.append((span_id, parent, name, start, end))
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _import_all_repro() -> None:
    """Load every repro module, so that patching a function in every
    module that bound it by name leaves no later importer holding the
    original or, after restore, the wrapper."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _run_key(args, kwargs) -> str:
    """(kernel, controller, config, budget) identity of a Workload.run."""
    workload = args[0]
    runahead = kwargs.get("runahead", args[1] if len(args) > 1 else None)
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    budget = kwargs.get("max_cycles", args[3] if len(args) > 3 else None)
    knobs = {}
    if runahead is not None:
        knobs = {key: value for key, value in sorted(vars(runahead).items())
                 if isinstance(value, (bool, int, float, str, type(None)))}
    return json.dumps([workload.name, type(runahead).__name__, knobs,
                       repr(config), budget], sort_keys=True)


#: The tracer of the traced pass in progress (one per process).
_ACTIVE: Optional[Tracer] = None


class traced:
    """``with traced(out_dir) as tracer:`` — the program's entry points
    wrapped into one :class:`Tracer` inside the block; on exit every
    original is restored and the tracer's span file written."""

    def __init__(self, out_dir: Path):
        self.tracer = Tracer(out_dir)
        self._undo: List[tuple] = []

    def __enter__(self) -> Tracer:
        global _ACTIVE
        _ACTIVE = self.tracer
        try:
            self._install()
        except BaseException:
            self._restore()
            _ACTIVE = None
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        self._restore()
        self.tracer.dump()
        _ACTIVE = None

    # ------------------------------------------------------ patching

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _function(self, module_name: str, attr: str, name: str,
                  keep_span: bool = True, before=None, after=None) -> None:
        """Wrap a module-level function in every repro module that
        bound it by name (``from x import f`` copies the reference)."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(self.tracer, name, original, keep_span,
                        before, after)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _method(self, cls, attr: str, name: str, keep_span: bool = True,
                before=None, after=None) -> None:
        """Wrap ``cls.attr`` and every subclass override of it."""
        for klass in [cls] + _subclasses(cls):
            if attr in vars(klass):
                self._set(klass, attr, _wrap(
                    self.tracer, name, vars(klass)[attr], keep_span,
                    before, after))

    def _install(self) -> None:
        _import_all_repro()
        from repro.campaign.journal import CampaignDir
        from repro.channel.receiver import Receiver
        from repro.harness.cache import CacheBackend
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.multicore.system import MultiCoreSystem
        from repro.pipeline.core import Core
        from repro.attack.specrun import SpecRunAttack
        from repro.runahead.base import RunaheadController
        from repro.workloads.base import Workload

        tracer = self.tracer
        count = tracer.count

        # harness
        self._function("repro.harness.runner", "run_trial", RUN_TRIAL,
                       after=lambda a, k, r: tracer.harvest_cores())
        self._function("repro.harness.executor", "plan_sweep", PLAN)

        def cache_get_after(args, kwargs, result):
            count["cache_hits"] += result is not None
        self._method(CacheBackend, "get", CACHE_GET, keep_span=False,
                     after=cache_get_after)
        self._method(CacheBackend, "put", CACHE_PUT, keep_span=False)

        # campaign (parent side)
        def journal_after(args, kwargs, result):
            event = args[1]
            if event.get("event") == "retry":
                count["retries"] += 1
            if tracer.first_done is None and event.get("event") == "trial" \
                    and event.get("status") == "done":
                tracer.first_done = time.monotonic()
        self._method(CampaignDir, "append_event", JOURNAL, keep_span=False,
                     after=journal_after)
        self._method(CampaignDir, "write_result", RESULT_WRITE)

        # pipeline
        self._method(Core, "__init__", CORE_INIT,
                     after=lambda a, k, r: tracer.cores.append(a[0]))
        self._method(Core, "run", CORE_RUN)
        self._function("repro.attack.window", "measure_window", WINDOW_RUN)
        step = Core.step

        def counted_step(core):
            count["steps"] += 1
            return step(core)
        self._set(Core, "step", counted_step)

        # workloads
        self._method(Workload, "run", WORKLOAD_RUN,
                     before=lambda a, k: tracer.run_keys.add(_run_key(a, k)))

        # memory
        def data_access(args, kwargs):
            count["data_accesses"] += 1

        def inst_access(args, kwargs):
            count["inst_accesses"] += 1
        for attr in ("access_data", "probe_latency"):
            self._method(MemoryHierarchy, attr, MEMORY, keep_span=False,
                         before=data_access)
        self._method(MemoryHierarchy, "access_inst", MEMORY,
                     keep_span=False, before=inst_access)

        # runahead and defense controllers
        def entered(args, kwargs):
            count["episodes"] += 1
            tracer.runahead_since[id(args[0])] = args[1].cycle

        def exited(args, kwargs):
            since = tracer.runahead_since.pop(id(args[0]), None)
            if since is not None:
                count["runahead_cycles"] += args[1].cycle - since
        for hook in CONTROLLER_HOOKS:
            self._method(RunaheadController, hook, CONTROLLER,
                         keep_span=False,
                         before={"on_enter": entered,
                                 "on_exit": exited}.get(hook))

        # attack, channel, multicore
        self._method(SpecRunAttack, "run", ATTACK_RUN)
        self._method(Receiver, "measure", MEASURE)
        self._function("repro.channel.decode", "decode_trials", DECODE)
        self._method(MultiCoreSystem, "run", MULTICORE_RUN)

        # verify and isa
        def checked(args, kwargs, result):
            count["verify_steps"] += result.arch_steps + result.window_steps
            count["verify_forks"] += result.spec_forks + result.runahead_forks
        self._function("repro.verify.engine", "check_program", CHECK,
                       after=checked)
        self._function("repro.verify.crosscheck", "cross_check_case",
                       CROSSCHECK)
        self._function("repro.verify.gen", "gen_target", GEN)
        self._function("repro.isa.assembler", "assemble", ASSEMBLE)

    def _restore(self) -> None:
        while self._undo:
            owner, attr, value, had = self._undo.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def worker_run_trial(trial):
    """Campaign trial runner for traced passes.

    Campaign workers are forked from the traced parent, so the wrappers
    are already in place; on its first trial a worker resets the
    inherited tracer (it holds the parent's records) and registers a
    finalizer that writes the worker's span file when its process exits.
    """
    tracer = _ACTIVE
    if tracer is None:
        raise RuntimeError("campaign workers must be forked from a parent "
                           "inside traced()")
    if tracer.pid != os.getpid():
        tracer.reset("worker")
        mp_util.Finalize(None, tracer.dump, exitpriority=10)
    from repro.harness import runner
    return runner.run_trial(trial)


# ------------------------------------------------------------ metrics

def load_span_files(out_dir: Path) -> List[Dict[str, Any]]:
    return [json.loads(path.read_text())
            for path in sorted(Path(out_dir).glob("spans-*.json"))]


def _percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1]


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    if samples < 20:
        return 50
    return int(100 * (1 - 10 / samples))


def layer_metrics(files: List[Dict[str, Any]], wall_s: float,
                  workers: int, started: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``files`` are the span files of the parent and its workers,
    ``wall_s`` the traced pass's host wall time, ``workers`` the
    processes that ran trials and ``started`` the pass's start on the
    shared monotonic clock.
    """
    total: Dict[str, float] = defaultdict(float)
    self_t: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    count: Dict[str, float] = defaultdict(float)
    run_keys: set = set()
    trial_ms: List[float] = []
    busy = gaps = 0.0
    first_done = None
    for data in files:
        for name, value in data["total"].items():
            total[name] += value
        for name, value in data["self"].items():
            self_t[name] += value
        for name, value in data["calls"].items():
            calls[name] += value
        for name, value in data["count"].items():
            count[name] += value
        run_keys.update(data["run_keys"])
        if data["first_done"] is not None:
            first_done = data["first_done"]
        trials = sorted((s["start"], s["end"]) for s in data["spans"]
                        if s["name"] == RUN_TRIAL)
        trial_ms.extend(1e3 * (end - start) for start, end in trials)
        if data["role"] == "worker":
            busy += sum(end - start for start, end in trials)
            gaps += sum(later[0] - earlier[1]
                        for earlier, later in zip(trials, trials[1:]))

    def ratio(num, den):
        return num / den if den else 0.0

    steps = count["steps"]
    sim_cycles = count["sim_cycles"]
    loop_s = self_t[CORE_RUN] + self_t[WINDOW_RUN] + self_t[MULTICORE_RUN]
    trial_ms.sort()
    tail = tail_percentile(len(trial_ms))
    gets = calls[CACHE_GET]
    run_trial_s = total[RUN_TRIAL]
    return {
        "pipeline.run_s": self_t[CORE_RUN] + self_t[WINDOW_RUN],
        "pipeline.stepped_cycles": steps,
        "pipeline.simulated_cycles": sim_cycles,
        "pipeline.skipped_share": ratio(sim_cycles - steps, sim_cycles),
        "pipeline.us_per_stepped_cycle": ratio(1e6 * loop_s, steps),
        "pipeline.us_per_dispatched": ratio(1e6 * loop_s,
                                            count["dispatched"]),
        "pipeline.dispatched_per_committed": ratio(count["dispatched"],
                                                   count["committed"]),
        "pipeline.cores_built": calls[CORE_INIT],
        "pipeline.core_init_s": total[CORE_INIT],
        "workloads.runs": calls[WORKLOAD_RUN],
        "workloads.runs_distinct": len(run_keys),
        "memory.data_accesses": count["data_accesses"],
        "memory.inst_accesses": count["inst_accesses"],
        "memory.access_s": total[MEMORY],
        "runahead.episodes": count["episodes"],
        "runahead.cycle_share": ratio(count["runahead_cycles"], sim_cycles),
        "runahead.controller_s": self_t[CONTROLLER],
        "attack.run_s": self_t[ATTACK_RUN],
        "channel.measure_s": self_t[MEASURE],
        "channel.decode_s": self_t[DECODE],
        "multicore.run_s": self_t[MULTICORE_RUN],
        "verify.checks": calls[CHECK],
        "verify.check_s": total[CHECK],
        "verify.steps": count["verify_steps"],
        "verify.us_per_step": ratio(1e6 * total[CHECK],
                                    count["verify_steps"]),
        "verify.forks": count["verify_forks"],
        "verify.crosscheck_s": self_t[CROSSCHECK],
        "verify.gen_s": total[GEN],
        "isa.assembles": calls[ASSEMBLE],
        "isa.assemble_s": total[ASSEMBLE],
        "harness.plan_s": total[PLAN],
        "harness.cache_gets": gets,
        "harness.cache_get_s": total[CACHE_GET],
        "harness.cache_puts": calls[CACHE_PUT],
        "harness.cache_put_s": total[CACHE_PUT],
        "harness.cache_hit_share": ratio(count["cache_hits"], gets),
        "harness.run_trial_s": run_trial_s,
        "harness.overhead_s": workers * wall_s - run_trial_s,
        "harness.trial_p50_ms": (statistics.median(trial_ms)
                                 if trial_ms else 0.0),
        "harness.trial_tail_ms": (_percentile(trial_ms, tail)
                                  if trial_ms else 0.0),
        "harness.trial_tail_pct": tail,
        "harness.trial_samples": len(trial_ms),
        "campaign.journal_appends": calls[JOURNAL],
        "campaign.journal_s": total[JOURNAL],
        "campaign.result_write_s": total[RESULT_WRITE],
        "campaign.worker_busy_s": busy,
        "campaign.worker_util": ratio(busy, workers * wall_s) if busy
        else 0.0,
        "campaign.queue_wait_s": gaps,
        "campaign.first_done_s": (first_done - started
                                  if first_done is not None else 0.0),
        "campaign.retries": count["retries"],
    }
