"""The per-sweep run memo: identical core runs are computed once.

In-process executors hand :func:`repro.harness.runner.run_trial` a memo
owned by one ``execute`` call.  The reference everywhere here is
``run_trial(trial)`` per trial, with no memo.
"""

import pytest

from repro.harness import presets
from repro.harness.executor import SerialExecutor, SweepResult, make_record
from repro.harness.runner import TrialError, run_spec, run_trial
from repro.harness.spec import Trial
from repro.workloads.base import Workload

#: The presets with ``ipc`` or ``run`` trials; the memo does nothing
#: for the other kinds.
MEMO_PRESETS = ("fig7", "fig7_traces", "sec6", "table1")


def reference_json(sweep) -> str:
    records = [make_record(t, run_trial(t)) for t in sweep.trials]
    return SweepResult(name=sweep.name, records=records).to_json()


@pytest.fixture(scope="module")
def sec6_twice():
    """Two serial executes of sec6 --quick in one process, counting the
    ``Workload.run`` calls of each."""
    original = Workload.run
    calls = []

    def counted(self, *args, **kwargs):
        calls[-1] += 1
        return original(self, *args, **kwargs)

    Workload.run = counted
    try:
        results = []
        for _ in range(2):
            calls.append(0)
            results.append(SerialExecutor().execute(
                presets.get("sec6").build(quick=True), cache=None))
    finally:
        Workload.run = original
    return results, calls


def test_sec6_computes_each_distinct_run_once(sec6_twice):
    # 3 ipc trials = 6 core runs, of which the no-runahead baseline
    # repeats: 4 distinct.
    _, calls = sec6_twice
    assert calls == [4, 4]      # the second execute starts a fresh memo


@pytest.mark.parametrize("name", MEMO_PRESETS)
def test_quick_preset_memo_matches_reference(name, sec6_twice):
    sweep = presets.get(name).build(quick=True)
    if name == "sec6":
        memoised = sec6_twice[0][0]
    else:
        memoised = SerialExecutor().execute(sweep, cache=None)
    assert memoised.to_json() == reference_json(sweep)


def test_run_spec_keys_every_run_knob():
    params = {"workload": "mcf", "baseline": "none", "contender": "secure"}
    base = run_spec(params, "baseline", "none")
    assert base == run_spec({"workload": "mcf"}, "runahead", "none")
    assert base != run_spec(params, "contender", "original")
    for knob, value in (("workload", "gems"), ("config_base", "small"),
                        ("config", {"rob_size": 64}),
                        ("max_cycles", 10), ("baseline_kwargs", {"x": 1})):
        assert run_spec(dict(params, **{knob: value}),
                        "baseline", "none") != base, knob


def test_non_halting_run_is_not_memoised():
    trial = Trial("run", {"workload": "reference", "runahead": "none",
                          "config_base": "small", "max_cycles": 2})
    memo = {}
    errors = []
    for _ in range(2):
        with pytest.raises(TrialError) as caught:
            run_trial(trial, memo=memo)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert "did not halt" in errors[0]
    assert memo == {}
