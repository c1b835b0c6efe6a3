"""Trial execution: turn a :class:`~repro.harness.spec.Trial` into a
JSON-serializable result record.

Every trial kind resolves its named parameters through
:mod:`repro.harness.registry`, builds fresh simulator objects, runs the
measurement, and returns plain data.  Nothing here keeps state between
trials — that is what makes trials safe to fan out across processes and
to cache by content hash.  The one exception is opt-in and owned by the
caller: an in-process executor may hand :func:`run_trial` a *run memo*
for one sweep execution, so that identical core runs inside ``ipc`` and
``run`` trials (the shared no-runahead baseline of the §6 cost trials)
are computed once (see :func:`run_spec`).

Trial kinds and their parameters (all optional unless noted):

``attack``
    ``variant`` (required), ``runahead`` + ``runahead_kwargs``,
    ``config_base``/``config``, ``secret_value``, ``nop_padding``;
    optionally ``receiver``/``noise``/``trials``/``seed`` to measure
    through a :mod:`repro.channel` receiver instead of the in-program
    probe, and ``cores``/``corunner``/``smt``/``corunner_runahead`` to
    place victim, attacker and co-runners on a shared-L3 multi-core
    topology (:class:`repro.multicore.scenario.Topology`).
``extract``
    ``secret`` (required: string or list of byte values), ``variant``,
    ``receiver``, ``noise``, ``trials``, ``runahead`` +
    ``runahead_kwargs``, ``config_base``/``config``, ``seed``, plus the
    same ``cores``/``corunner``/``smt``/``corunner_runahead`` topology
    params — the multi-byte covert-channel extraction of
    :func:`repro.channel.extract.extract_secret`.
``ipc``
    ``workload`` (required), ``baseline`` (default no-runahead),
    ``contender`` (default original) + ``contender_kwargs``,
    ``config_base``/``config``, ``max_cycles``.

Wherever a workload name is accepted (``workload``/``corunner``), the
registry also resolves the synthetic trace suite (``trace-mcf``,
``trace-stream``, ``trace-gcc``, ``trace-zipf``) and saved trace files
(``trace:<path>``) — see :mod:`repro.trace`.
``window``
    ``runahead``, ``async_flushes``, ``sled``,
    ``config_base``/``config``.
``run``
    ``workload`` (required), ``runahead`` + ``runahead_kwargs``,
    ``config_base``/``config``, ``max_cycles``.
``taint``
    no parameters — the Fig. 12 worked example.
``verify``
    ``target`` (required: a :mod:`repro.verify.targets` name or
    ``gen:<family>:<seed>``), ``defense`` (default "original"),
    ``windows``, ``spec_depth``/``runahead_len``/``max_window_forks``/
    ``max_arch_steps``, ``shard`` (``[k, n]``: explore only window
    forks with ``index % n == k`` — merge shards with
    :func:`repro.verify.merge_reports`), ``cross_check`` (bool: also
    run the target on the cycle simulator and hold the
    :mod:`repro.verify.crosscheck` contract), ``max_cycles`` (the
    cross-check simulation budget).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, NamedTuple, Optional

from ..attack.specrun import SpecRunAttack
from ..attack.window import measure_window
from ..channel.extract import extract_secret
from ..defense.taint_demo import run_fig12
from ..pipeline.stats import CoreStats
from .registry import get_workload, make_config, make_controller
from .spec import TRIAL_KINDS, Trial


class TrialError(RuntimeError):
    """A trial failed; carries the trial label for diagnostics."""


#: Multi-core placement params shared by the attack and extract kinds.
_TOPOLOGY_KEYS = ("cores", "corunner", "smt", "corunner_runahead")


def _stats_dict(stats) -> Dict[str, Any]:
    return dataclasses.asdict(stats)


def _config_from(params) -> Any:
    return make_config(params.get("config_base", "paper"),
                       params.get("config"))


def _run_attack(trial: Trial) -> Dict[str, Any]:
    params = trial.params
    controller = make_controller(params.get("runahead", "original"),
                                 **params.get("runahead_kwargs", {}))
    gadget_kwargs = {}
    for key in ("secret_value", "nop_padding"):
        if key in params:
            gadget_kwargs[key] = params[key]
    for key in _TOPOLOGY_KEYS:
        if key in params:
            gadget_kwargs[key] = params[key]
    attack = SpecRunAttack(variant=params["variant"], runahead=controller,
                           config=_config_from(params),
                           receiver=params.get("receiver"),
                           noise=params.get("noise"),
                           trials=params.get("trials", 1),
                           seed=params.get("seed", trial.seed),
                           **gadget_kwargs)
    result = attack.run(max_cycles=params.get("max_cycles", 3_000_000))
    record = {
        "variant": params["variant"],
        "runahead": result.runahead_name,
        "secret": attack.attack.secret_value,
        "leaked": result.leaked,
        "recovered": result.recovered_secret,
        "succeeded": result.succeeded,
        "latencies": list(result.latencies),
        "stats": _stats_dict(result.stats),
    }
    if result.channel is not None:
        record["channel"] = result.channel.to_dict()
    return record


def _run_extract(trial: Trial) -> Dict[str, Any]:
    params = trial.params
    make_runahead = (lambda: make_controller(
        params.get("runahead", "original"),
        **params.get("runahead_kwargs", {})))
    gadget_kwargs = {key: params[key] for key in ("nop_padding",)
                     if key in params}
    topology_kwargs = {key: params[key] for key in _TOPOLOGY_KEYS
                       if key in params}
    result = extract_secret(
        params["secret"],
        variant=params.get("variant", "pht"),
        receiver=params.get("receiver", "flush-reload"),
        noise=params.get("noise"),
        trials=params.get("trials", 1),
        runahead=make_runahead,
        config=_config_from(params),
        seed=params.get("seed", trial.seed),
        max_cycles=params.get("max_cycles", 3_000_000),
        **topology_kwargs, **gadget_kwargs)
    return result.to_dict()


class CoreRun(NamedTuple):
    """What the ``ipc`` and ``run`` records read of one finished core.

    The run memo stores these, never the :class:`~repro.pipeline.core.Core`
    itself, so it costs one stats record per distinct run.
    """

    stats: CoreStats
    halted: bool


#: Run memo: :func:`run_spec` key -> finished :class:`CoreRun`.
RunMemo = Dict[str, CoreRun]


def run_spec(params: Dict[str, Any], role: str, default: str) -> str:
    """Canonical key of one core run of an ``ipc``/``run`` trial.

    It holds every param the run depends on: the workload, the
    controller named by ``role`` (``runahead``, ``baseline`` or
    ``contender``, defaulting to ``default``) with its kwargs,
    ``config_base``/``config`` and the cycle ceiling.  The simulator is
    deterministic, so two runs with one key are the same computation.
    """
    return json.dumps({
        "workload": params["workload"],
        "runahead": params.get(role, default),
        "runahead_kwargs": params.get(f"{role}_kwargs", {}),
        "config_base": params.get("config_base", "paper"),
        "config": params.get("config"),
        "max_cycles": params.get("max_cycles", 5_000_000),
    }, sort_keys=True)


def _core_run(workload, controller, config, params: Dict[str, Any],
              role: str, default: str, memo: Optional[RunMemo]) -> CoreRun:
    """Run ``workload`` once, or serve an identical finished run from
    ``memo``.  A run that raises (it hit its cycle ceiling) is not
    stored, so every repeat raises the same way."""
    key = None
    if memo is not None:
        key = run_spec(params, role, default)
        if key in memo:
            return memo[key]
    core = workload.run(runahead=controller, config=config,
                        max_cycles=params.get("max_cycles", 5_000_000))
    run = CoreRun(core.stats, core.halted)
    if key is not None:
        memo[key] = run
    return run


def _run_ipc(trial: Trial, memo: Optional[RunMemo] = None) \
        -> Dict[str, Any]:
    params = trial.params
    workload = get_workload(params["workload"])
    config = _config_from(params)
    baseline = make_controller(params.get("baseline", "none"),
                               **params.get("baseline_kwargs", {}))
    contender = make_controller(params.get("contender", "original"),
                                **params.get("contender_kwargs", {}))
    base = _core_run(workload, baseline, config, params, "baseline",
                     "none", memo)
    cont = _core_run(workload, contender, config, params, "contender",
                     "original", memo)
    speedup = (cont.stats.ipc / base.stats.ipc) if base.stats.ipc else 0.0
    return {
        "workload": workload.name,
        "memory_bound": workload.memory_bound,
        "baseline": baseline.name,
        "contender": contender.name,
        "ipc_base": base.stats.ipc,
        "ipc_contender": cont.stats.ipc,
        "speedup": speedup,
        "episodes": cont.stats.runahead_episodes,
        "prefetches": cont.stats.runahead_prefetches,
        "stats_base": _stats_dict(base.stats),
        "stats_contender": _stats_dict(cont.stats),
    }


def _run_window(trial: Trial) -> Dict[str, Any]:
    params = trial.params
    controller = make_controller(params.get("runahead", "none"),
                                 **params.get("runahead_kwargs", {}))
    measurement = measure_window(
        controller,
        async_flushes=params.get("async_flushes", 0),
        sled=params.get("sled", 4096),
        config=_config_from(params))
    return dataclasses.asdict(measurement)


def _run_workload(trial: Trial, memo: Optional[RunMemo] = None) \
        -> Dict[str, Any]:
    params = trial.params
    workload = get_workload(params["workload"])
    controller = make_controller(params.get("runahead", "none"),
                                 **params.get("runahead_kwargs", {}))
    run = _core_run(workload, controller, _config_from(params), params,
                    "runahead", "none", memo)
    return {
        "workload": workload.name,
        "runahead": controller.name,
        "halted": run.halted,
        "cycles": run.stats.cycles,
        "ipc": run.stats.ipc,
        "stats": _stats_dict(run.stats),
    }


def resolve_verify_target(name: str):
    """Resolve a verify target name (registry or ``gen:...``) to a case."""
    from ..verify.targets import build_target
    if name.startswith("gen:"):
        from ..verify.gen import gen_target
        return gen_target(name)
    return build_target(name)


def verify_record(case, result, shard=None) -> Dict[str, Any]:
    """The deterministic ``verify`` payload (shared-record pattern)."""
    record = {
        "target": case.name,
        "defense": result.defense,
        "windows": list(result.windows),
        "clean": result.clean,
        "n_reports": len(result.reports),
        "reports": [r.to_dict() for r in result.reports],
        "arch_steps": result.arch_steps,
        "window_steps": result.window_steps,
        "spec_forks": result.spec_forks,
        "runahead_forks": result.runahead_forks,
        "suppressed": result.suppressed,
    }
    if shard is not None:
        record["shard"] = list(shard)
    return record


def _run_verify(trial: Trial) -> Dict[str, Any]:
    from ..verify import VerifyOptions, check_program
    from ..verify.report import WINDOWS

    params = trial.params
    case = resolve_verify_target(params["target"])
    defense = params.get("defense", "original")
    options = VerifyOptions()
    for key in ("spec_depth", "runahead_len", "max_arch_steps",
                "max_window_forks"):
        if key in params:
            setattr(options, key, params[key])
    shard = params.get("shard")
    fork_filter = None
    if shard is not None:
        index, count = shard
        if params.get("cross_check"):
            raise TrialError("verify trial cannot combine shard with "
                             "cross_check: the contract needs the full "
                             "report set")
        fork_filter = lambda fork: fork % count == index
    windows = params.get("windows", list(WINDOWS))
    result = check_program(
        case.program, case.image, secret_addrs=case.secret_addrs,
        initial_sp=case.initial_sp, defense=defense, windows=windows,
        options=options, fork_filter=fork_filter)
    record = verify_record(case, result, shard=shard)
    if params.get("cross_check"):
        from ..verify.crosscheck import cross_check_cell
        # The contract judges the full-window verdict: reuse this one
        # when it is that, else compute it.
        verdict = result
        if set(windows) != set(WINDOWS):
            verdict = check_program(
                case.program, case.image, secret_addrs=case.secret_addrs,
                initial_sp=case.initial_sp, defense=defense,
                options=options)
        cell, problems = cross_check_cell(
            case, defense, verdict,
            max_cycles=params.get("max_cycles", 3_000_000))
        record["cross_check"] = cell.to_dict()
        record["ok"] = not problems
        record["disagreements"] = problems
    return record


def _run_taint(trial: Trial) -> Dict[str, Any]:
    rows = [list(row) for row in run_fig12()]
    mismatches = [label for label, want_btag, got_btag, want_is, got_is
                  in rows
                  if want_btag is not None
                  and (got_btag != want_btag or got_is != want_is)]
    return {"rows": rows, "mismatches": mismatches}


_RUNNERS = {
    "attack": _run_attack,
    "ipc": _run_ipc,
    "window": _run_window,
    "run": _run_workload,
    "taint": _run_taint,
    "extract": _run_extract,
    "verify": _run_verify,
}


#: Trial kinds whose core runs can be served from a run memo.
_MEMO_KINDS = frozenset({"ipc", "run"})


def run_trial(trial: Trial, memo: Optional[RunMemo] = None) \
        -> Dict[str, Any]:
    """Execute one trial and return its result payload (pure data).

    ``memo`` is internal to the in-process executors: a dict owned by
    one sweep execution that serves repeated identical core runs.
    The result is the same with or without it.
    """
    try:
        runner = _RUNNERS[trial.kind]
    except KeyError:
        # Same wording and kind order as Trial.__post_init__ — a test
        # pins the two lists against each other and against _RUNNERS.
        raise TrialError(
            f"no runner for trial kind {trial.kind!r}; expected one of "
            f"{TRIAL_KINDS}") from None
    try:
        if memo is not None and trial.kind in _MEMO_KINDS:
            return runner(trial, memo)
        return runner(trial)
    except TrialError:
        raise
    except Exception as exc:
        raise TrialError(f"trial {trial.label!r} failed: {exc}") from exc
