"""Acceptance gate: every shipped criterion must pass end to end.

Each criterion runs as its own case so a regression points at the exact
check that broke.  The details string carries the measured margins.
"""

import pytest

from harmonic_schwarz import acceptance
from harmonic_schwarz.acceptance import CRITERIA, run_suite


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion_passes(name):
    result = run_suite([name])[0]
    assert result.passed, f"{result.name}: {result.detail}"


def test_runtime_budget_fails_only_the_slow_criterion(monkeypatch):
    honest = {res.name: res for res in run_suite(["heinz", "taylor"])}
    # heinz appears to take 2 s against its 1 s budget, taylor 1000 s with none
    ticks = iter([0.0, 2.0, 10.0, 1010.0])
    monkeypatch.setattr(acceptance, "perf_counter", lambda: next(ticks))
    slow = {res.name: res for res in run_suite(["heinz", "taylor"])}
    assert honest["heinz"].passed and not slow["heinz"].passed
    assert (slow["heinz"].elapsed, slow["taylor"].elapsed) == (2.0, 1000.0)
    for name in ("heinz", "taylor"):
        for field in ("measured", "budget", "detail"):
            assert getattr(slow[name], field) == getattr(honest[name], field)
    assert slow["taylor"].passed


def test_unknown_criterion_raises_before_any_criterion_runs(monkeypatch):
    monkeypatch.setitem(acceptance._REGISTRY, "heinz", lambda: pytest.fail("heinz ran"))
    with pytest.raises(ValueError, match="bogus"):
        run_suite(["heinz", "bogus"])
    with pytest.raises(ValueError, match="bogus"):
        run_suite(["bogus"])
