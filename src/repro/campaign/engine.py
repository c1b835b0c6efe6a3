"""Fault-tolerant, resumable campaign execution.

A *campaign* is one or more :class:`~repro.harness.spec.Sweep`\\ s run
as a journaled job in a self-contained directory (see
:mod:`repro.campaign.journal`).  The engine guarantees:

* **Work stealing** — pending trials sit in one shared queue; worker
  processes pull the next trial the moment they finish the last one,
  so stragglers never idle a shard the way pre-split chunks would.
* **Fault tolerance** — a worker that dies (SIGKILL, OOM), hangs past
  the per-trial timeout, or raises a non-deterministic infrastructure
  error gets its trial re-queued with bounded exponential-backoff
  retries and a replacement worker spawned.  Deterministic
  :class:`~repro.harness.runner.TrialError`\\ s are *not* retried —
  rerunning a deterministic failure can only fail the same way — they
  abort the campaign (journaled, so ``status`` shows what broke).
* **Resumability** — results live in the campaign's content-addressed
  :class:`~repro.harness.cache.CacheBackend` and completions are
  journaled write-ahead; a campaign killed at any instant resumes by
  skipping everything cached and finishes **byte-identical** to an
  uninterrupted run at any worker count.
* **Graceful degradation** — if process spawning is unavailable the
  engine falls back to serial in-process execution with the same
  retry semantics (minus timeouts, which need a killable worker).

:class:`CampaignExecutor` adapts all of this to the
:class:`~repro.harness.executor.Executor` protocol, so a campaign can
run anywhere a plain executor does.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from queue import Empty
from typing import Any, Callable, Dict, List, Optional

from ..harness.cache import CacheBackend, resolve_cache
from ..harness.executor import (Executor, SweepResult, default_workers,
                                plan_sweep)
from ..harness.runner import TrialError, run_trial
from ..harness.spec import Sweep, Trial
from ..obs.metrics import get_registry
from .journal import CampaignDir, CampaignError
from .netretry import backoff_delay

#: Default bound on per-trial re-executions after transient failures.
DEFAULT_RETRIES = 2
#: Default first-retry backoff base; the actual delay is drawn with
#: full jitter from [0, min(cap, base * 2**(attempt-1))] — see
#: :func:`repro.campaign.netretry.backoff_delay`.
DEFAULT_BACKOFF = 0.25
#: How long the pool tolerates total silence with idle workers before
#: re-queueing unclaimed work (covers a worker killed between pulling
#: a task and acknowledging it).
_STALL_GRACE = 2.0

TrialRunner = Callable[[Trial], Dict[str, Any]]


def _campaign_worker(worker_id: int, tasks, results,
                     runner: TrialRunner) -> None:
    """Worker loop: pull (index, trial) items until the None sentinel.

    Every pulled task is acknowledged with a ``claim`` message before
    execution so the parent can re-queue it if this process dies
    mid-trial.  Deterministic failures (:class:`TrialError`) and
    infrastructure failures travel back on separate message types —
    only the latter are retried.
    """
    while True:
        item = tasks.get()
        if item is None:
            break
        index, trial_dict = item
        results.put(("claim", worker_id, index, None))
        try:
            payload = runner(Trial.from_dict(trial_dict))
        except TrialError as exc:
            results.put(("trial-error", worker_id, index, str(exc)))
        except BaseException as exc:   # pickling, MemoryError, ...
            results.put(("worker-error", worker_id, index,
                         f"{type(exc).__name__}: {exc}"))
        else:
            results.put(("done", worker_id, index, payload))


class _WorkStealingPool:
    """Parent-side driver of the shared-queue worker pool."""

    def __init__(self, trials: Dict[int, Trial], workers: int,
                 timeout: Optional[float], max_retries: int,
                 backoff: float, runner: TrialRunner,
                 on_done: Callable[[int, Dict[str, Any], int, float], None],
                 on_retry: Callable[[int, int, str], None]):
        self.trials = trials
        self.workers = workers
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.runner = runner
        self.on_done = on_done
        self.on_retry = on_retry

        self.ctx = multiprocessing.get_context()
        self.tasks = self.ctx.Queue()
        self.results = self.ctx.Queue()
        self.procs: Dict[int, Any] = {}
        self.next_worker_id = 0
        self.in_flight: Dict[int, int] = {}          # worker -> index
        self.started_at: Dict[int, float] = {}       # index -> monotonic
        self.waiting: set = set()                    # queued, unclaimed
        self.remaining = set(trials)
        self.retries: Dict[int, int] = {}
        self.delayed: List = []                      # (ready_time, index)
        self.last_activity = time.monotonic()

    # ------------------------------------------------------ plumbing

    def _spawn(self) -> None:
        worker_id = self.next_worker_id
        self.next_worker_id += 1
        proc = self.ctx.Process(
            target=_campaign_worker,
            args=(worker_id, self.tasks, self.results, self.runner),
            daemon=True)
        proc.start()
        self.procs[worker_id] = proc

    def _enqueue(self, index: int) -> None:
        self.tasks.put((index, self.trials[index].to_dict()))
        self.waiting.add(index)

    def _schedule_retry(self, index: int, reason: str) -> None:
        self.started_at.pop(index, None)
        if index not in self.remaining:
            return                      # a duplicate already finished it
        attempt = self.retries.get(index, 0) + 1
        if attempt > self.max_retries:
            raise CampaignError(
                f"trial {self.trials[index].label!r} failed "
                f"{self.max_retries + 1} times; last failure: {reason}")
        self.retries[index] = attempt
        self.on_retry(index, attempt, reason)
        # Capped full-jitter backoff, seeded per trial: simultaneous
        # failures spread out instead of retrying in lockstep, and no
        # attempt ever waits past the cap.
        delay = backoff_delay(self.backoff, attempt, key=("pool", index))
        heapq.heappush(self.delayed, (time.monotonic() + delay, index))

    def _kill_worker(self, worker_id: int) -> None:
        proc = self.procs.pop(worker_id, None)
        self.in_flight.pop(worker_id, None)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5)

    # ------------------------------------------------------ the loop

    def run(self) -> None:
        for index in sorted(self.trials):
            self._enqueue(index)
        try:
            for _ in range(min(self.workers, len(self.trials))):
                self._spawn()
        except (OSError, MemoryError) as exc:
            raise _PoolUnavailable(str(exc)) from exc
        try:
            while self.remaining:
                self._release_delayed()
                self._drain_results()
                self._reap_dead_workers()
                self._enforce_timeouts()
                self._reconcile_stall()
        finally:
            self._shutdown()

    def _release_delayed(self) -> None:
        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, index = heapq.heappop(self.delayed)
            if index in self.remaining:
                self._enqueue(index)

    def _drain_results(self) -> None:
        block = True
        while True:
            try:
                message = self.results.get(timeout=0.05 if block else 0)
            except Empty:
                return
            block = False
            self.last_activity = time.monotonic()
            kind, worker_id, index, payload = message
            if kind == "claim":
                self.waiting.discard(index)
                if worker_id in self.procs:
                    self.in_flight[worker_id] = index
                    self.started_at[index] = time.monotonic()
                else:                    # claimed by a worker we killed
                    self._schedule_retry(index, "worker died after claim")
            elif kind == "done":
                self.in_flight.pop(worker_id, None)
                if index in self.remaining:
                    self.remaining.discard(index)
                    elapsed = time.monotonic() - self.started_at.pop(
                        index, self.last_activity)
                    self.on_done(index, payload,
                                 self.retries.get(index, 0), elapsed)
            elif kind == "trial-error":
                self.in_flight.pop(worker_id, None)
                if index in self.remaining:
                    raise TrialError(payload)
            elif kind == "worker-error":
                self.in_flight.pop(worker_id, None)
                self._schedule_retry(index, payload)

    def _reap_dead_workers(self) -> None:
        for worker_id, proc in list(self.procs.items()):
            if proc.is_alive():
                continue
            del self.procs[worker_id]
            index = self.in_flight.pop(worker_id, None)
            if index is not None:
                self._schedule_retry(
                    index, f"worker died (exit code {proc.exitcode})")
            self.last_activity = time.monotonic()
        while self.remaining and \
                len(self.procs) < min(self.workers, len(self.remaining)):
            try:
                self._spawn()
            except (OSError, MemoryError) as exc:
                if self.procs:
                    break       # keep going with the workers we have
                raise _PoolUnavailable(str(exc)) from exc

    def _enforce_timeouts(self) -> None:
        if not self.timeout:
            return
        now = time.monotonic()
        for worker_id, index in list(self.in_flight.items()):
            started = self.started_at.get(index)
            if started is not None and now - started > self.timeout:
                self._kill_worker(worker_id)
                self._schedule_retry(
                    index, f"timeout after {self.timeout:g}s")

    def _reconcile_stall(self) -> None:
        """Re-queue tasks lost in the get→claim window of a dead worker.

        If workers are idle (nothing in flight), nothing is scheduled
        for retry, yet unclaimed work exists and the pool has been
        silent past the grace period, those queue items are gone —
        re-enqueueing is safe because duplicate completions are
        idempotent in :meth:`_drain_results`.
        """
        if self.in_flight or self.delayed or not self.remaining:
            return
        stalled = self.waiting & self.remaining
        if not stalled:
            return
        if time.monotonic() - self.last_activity < _STALL_GRACE:
            return
        for index in sorted(stalled):
            self.tasks.put((index, self.trials[index].to_dict()))
        self.last_activity = time.monotonic()

    def _shutdown(self) -> None:
        for _ in self.procs:
            try:
                self.tasks.put(None)
            except (OSError, ValueError):
                break
        deadline = time.monotonic() + 1.0
        for proc in self.procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
        self.procs.clear()
        for q in (self.tasks, self.results):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass


class _PoolUnavailable(RuntimeError):
    """Worker processes could not be spawned; degrade to serial."""


def _run_serial(trials: Dict[int, Trial], max_retries: int,
                backoff: float, runner: TrialRunner,
                on_done, on_retry) -> None:
    """In-process fallback with the same retry semantics (no timeout —
    a hung trial cannot be killed without a separate process)."""
    for index in sorted(trials):
        attempt = 0
        while True:
            started = time.monotonic()
            try:
                payload = runner(trials[index])
            except TrialError:
                raise
            except Exception as exc:
                attempt += 1
                if attempt > max_retries:
                    raise CampaignError(
                        f"trial {trials[index].label!r} failed "
                        f"{max_retries + 1} times; last failure: "
                        f"{type(exc).__name__}: {exc}") from exc
                on_retry(index, attempt, f"{type(exc).__name__}: {exc}")
                time.sleep(backoff_delay(backoff, attempt,
                                         key=("serial", index)))
            else:
                on_done(index, payload, attempt,
                        time.monotonic() - started)
                break


def _resolve_campaign_cache(spec: Any, base: CampaignDir) -> CacheBackend:
    """Backend from a manifest cache URI, relative paths anchored at
    the campaign directory (so a campaign dir can be moved around).
    Remote ``http:``/``https:`` URIs pass through untouched — there is
    nothing to anchor."""
    if isinstance(spec, CacheBackend):
        return spec
    if isinstance(spec, str) and ":" in spec:
        scheme, _, location = spec.partition(":")
        if scheme in ("http", "https"):
            return resolve_cache(spec)
        path = base.path / location
        return resolve_cache(f"{scheme}:{path}") \
            if not location.startswith("/") else resolve_cache(spec)
    raise CampaignError(f"campaign cache must be a dir:/sqlite:/http: "
                        f"URI or a CacheBackend, got {spec!r}")


class Campaign:
    """One campaign directory: manifest, journal, cache, results."""

    def __init__(self, cdir: CampaignDir, manifest: Dict[str, Any]):
        self.cdir = cdir
        self.manifest = manifest

    # ---------------------------------------------------- lifecycle

    @classmethod
    def create(cls, directory, sweeps, cache=None,
               workers: Optional[int] = None,
               timeout: Optional[float] = None,
               max_retries: int = DEFAULT_RETRIES,
               backoff: float = DEFAULT_BACKOFF,
               name: Optional[str] = None) -> "Campaign":
        """Lay down a new campaign directory for these sweeps.

        ``cache`` is a ``dir:``/``sqlite:`` URI (relative paths live
        inside the campaign directory) or a :class:`CacheBackend`;
        the default is ``dir:cache`` — a directory backend inside the
        campaign dir, making the whole campaign self-contained.
        """
        if isinstance(sweeps, Sweep):
            sweeps = [sweeps]
        if not sweeps:
            raise CampaignError("a campaign needs at least one sweep")
        names = [s.name for s in sweeps]
        if len(set(names)) != len(names):
            raise CampaignError(f"sweep names must be unique, got {names}")
        cdir = CampaignDir(directory)
        if cdir.exists():
            raise CampaignError(
                f"{cdir.path} already holds a campaign — use "
                f"Campaign.open / `repro campaign resume` to continue it")
        if cache is None:
            cache_uri = "dir:cache"
        elif isinstance(cache, CacheBackend):
            cache_uri = cache.uri()
        else:
            cache_uri = str(cache)
        manifest = {
            "version": 1,
            "name": name or "+".join(names),
            "cache": cache_uri,
            "workers": workers,
            "timeout": timeout,
            "max_retries": max_retries,
            "backoff": backoff,
            "sweeps": [s.to_dict() for s in sweeps],
            "signatures": {s.name: s.signature() for s in sweeps},
            "total_trials": sum(len(s) for s in sweeps),
        }
        cdir.write_manifest(manifest)
        cdir.append_event({"event": "created", "name": manifest["name"],
                           "sweeps": names, "cache": cache_uri,
                           "total_trials": manifest["total_trials"]})
        return cls(cdir, manifest)

    @classmethod
    def open(cls, directory) -> "Campaign":
        """Open an existing campaign, verifying manifest integrity."""
        cdir = CampaignDir(directory)
        manifest = cdir.read_manifest()
        for sweep in cdir.sweeps(manifest):
            want = manifest.get("signatures", {}).get(sweep.name)
            if want is not None and sweep.signature() != want:
                raise CampaignError(
                    f"manifest signature mismatch for sweep "
                    f"{sweep.name!r} — {cdir.manifest_path} was edited "
                    f"after creation")
        return cls(cdir, manifest)

    @classmethod
    def create_or_open(cls, directory, sweeps, **kwargs) -> "Campaign":
        """Open when the directory already holds the *same* sweeps
        (resume); create otherwise."""
        cdir = CampaignDir(directory)
        if not cdir.exists():
            return cls.create(directory, sweeps, **kwargs)
        campaign = cls.open(directory)
        if isinstance(sweeps, Sweep):
            sweeps = [sweeps]
        want = {s.name: s.signature() for s in sweeps}
        if want != campaign.manifest.get("signatures"):
            raise CampaignError(
                f"{cdir.path} holds a different campaign "
                f"({sorted(campaign.manifest.get('signatures', {}))}); "
                f"pick a fresh --dir for {sorted(want)}")
        return campaign

    # --------------------------------------------------- properties

    @property
    def name(self) -> str:
        return self.manifest["name"]

    @property
    def directory(self):
        return self.cdir.path

    def sweeps(self) -> List[Sweep]:
        return self.cdir.sweeps(self.manifest)

    def backend(self) -> CacheBackend:
        return _resolve_campaign_cache(self.manifest["cache"], self.cdir)

    # ---------------------------------------------------- execution

    def run(self, workers: Optional[int] = None,
            progress: Optional[Callable[[str], None]] = None,
            force: bool = False, runner: Optional[TrialRunner] = None,
            serial: bool = False) -> List[SweepResult]:
        """Execute (or resume) every sweep; returns ordered results.

        Already-cached trials are skipped — running this on a killed
        campaign completes exactly the work that is missing, and the
        written ``<sweep>.result.json`` files are byte-identical to an
        uninterrupted run at any worker count.
        """
        workers = self.manifest.get("workers") if workers is None \
            else workers
        workers = default_workers() if workers is None else max(1, workers)
        timeout = self.manifest.get("timeout")
        max_retries = self.manifest.get("max_retries", DEFAULT_RETRIES)
        backoff = self.manifest.get("backoff", DEFAULT_BACKOFF)
        runner = runner or run_trial
        run_id = 1 + sum(1 for e in self.cdir.events()
                         if e.get("event") == "start")

        store = self.backend()
        started = time.monotonic()
        plans = [plan_sweep(sweep, cache=store, force=force,
                            progress=progress)
                 for sweep in self.sweeps()]
        self.cdir.append_event({
            "event": "start", "run": run_id, "workers": workers,
            "pending": sum(len(p.pending) for p in plans),
            "cached": sum(sum(p.cached_flags) for p in plans)})
        for plan in plans:
            for index, flag in enumerate(plan.cached_flags):
                if flag:
                    self.cdir.append_event({
                        "event": "trial", "run": run_id,
                        "sweep": plan.sweep.name, "index": index,
                        "spec_hash": plan.sweep.trials[index].spec_hash(),
                        "status": "cached", "retries": 0})

        results: List[SweepResult] = []
        for plan in plans:
            sweep_started = time.monotonic()
            self._run_plan(plan, run_id, workers, timeout, max_retries,
                           backoff, runner, serial)
            result = plan.result(
                workers=workers, elapsed=time.monotonic() - sweep_started)
            self.cdir.write_result(plan.sweep.name, result.to_json())
            self.cdir.append_event({
                "event": "sweep-done", "run": run_id,
                "sweep": plan.sweep.name,
                "trials": len(plan.sweep.trials),
                "computed": len(plan.pending)})
            results.append(result)
        self.cdir.append_event({
            "event": "finish", "run": run_id,
            "elapsed": time.monotonic() - started,
            "cache": store.stats()})
        return results

    def _run_plan(self, plan, run_id: int, workers: int,
                  timeout: Optional[float], max_retries: int,
                  backoff: float, runner: TrialRunner,
                  serial: bool) -> None:
        if not plan.pending:
            return
        trials = {index: trial for index, trial in plan.pending}
        sweep_name = plan.sweep.name
        registry = get_registry()
        queue_gauge = registry.gauge(
            "repro_campaign_queue_depth",
            "Pending (not yet completed) trials of the running sweep")
        trial_timer = registry.histogram(
            "repro_campaign_trial_seconds",
            "Per-trial compute wall time inside the campaign engine")
        retry_counter = registry.counter(
            "repro_campaign_retries_total",
            "Trial retries scheduled by the campaign engine")
        remaining = [len(trials)]
        queue_gauge.set(remaining[0])

        def on_done(index: int, payload: Dict[str, Any],
                    retries: int, elapsed: float) -> None:
            plan.finish(index, trials[index], payload)
            remaining[0] -= 1
            queue_gauge.set(remaining[0])
            trial_timer.observe(elapsed)
            self.cdir.append_event({
                "event": "trial", "run": run_id, "sweep": sweep_name,
                "index": index, "spec_hash": trials[index].spec_hash(),
                "status": "done", "retries": retries,
                "elapsed": round(elapsed, 6)})

        def on_retry(index: int, attempt: int, reason: str) -> None:
            retry_counter.inc()
            self.cdir.append_event({
                "event": "retry", "run": run_id, "sweep": sweep_name,
                "index": index, "attempt": attempt, "reason": reason})

        try:
            if serial or workers == 1 or len(trials) == 1:
                _run_serial(trials, max_retries, backoff, runner,
                            on_done, on_retry)
            else:
                try:
                    _WorkStealingPool(
                        trials, workers, timeout, max_retries, backoff,
                        runner, on_done, on_retry).run()
                except _PoolUnavailable as exc:
                    self.cdir.append_event({
                        "event": "degraded", "run": run_id,
                        "reason": f"worker pool unavailable ({exc}); "
                                  f"running serially"})
                    _run_serial({i: t for i, t in trials.items()
                                 if i in _unfinished(plan)},
                                max_retries, backoff, runner,
                                on_done, on_retry)
        except (TrialError, CampaignError) as exc:
            self.cdir.append_event({
                "event": "error", "run": run_id, "sweep": sweep_name,
                "message": str(exc)})
            raise


def _unfinished(plan) -> set:
    return {i for i, r in enumerate(plan.records) if r is None}


class CampaignExecutor(Executor):
    """:class:`Executor` adapter: run one sweep as a resumable campaign.

    ``execute(sweep, cache)`` creates the campaign directory on first
    use and resumes it on every later call with the same sweep.  With
    ``cache="auto"`` the campaign uses its own self-contained store
    (``<dir>/cache``) rather than the global result cache — pass an
    explicit URI or backend to share state across campaigns.
    """

    def __init__(self, directory, workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 runner: Optional[TrialRunner] = None,
                 serial: bool = False):
        self.directory = directory
        self.workers = workers
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.runner = runner
        self.serial = serial

    def execute(self, sweep: Sweep, cache="auto", force: bool = False,
                progress: Optional[Callable[[str], None]] = None) \
            -> SweepResult:
        campaign = Campaign.create_or_open(
            self.directory, [sweep],
            cache=None if cache == "auto" else cache,
            workers=self.workers, timeout=self.timeout,
            max_retries=self.max_retries, backoff=self.backoff)
        results = campaign.run(workers=self.workers, progress=progress,
                               force=force, runner=self.runner,
                               serial=self.serial)
        return results[0]
