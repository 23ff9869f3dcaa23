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
    honest = {res.name: res for res in run_suite(["heinz", "signs"])}
    # heinz appears to take 2 s against its 1 s budget, signs 1000 s with none
    ticks = iter([0.0, 2.0, 10.0, 1010.0])
    monkeypatch.setattr(acceptance, "perf_counter", lambda: next(ticks))
    slow = {res.name: res for res in run_suite(["heinz", "signs"])}
    assert honest["heinz"].passed and not slow["heinz"].passed
    assert (slow["heinz"].elapsed, slow["signs"].elapsed) == (2.0, 1000.0)
    for name in ("heinz", "signs"):
        for field in ("measured", "budget", "detail"):
            assert getattr(slow[name], field) == getattr(honest[name], field)
    assert slow["signs"].passed


def test_determinants_fails_on_a_perturbed_mean_block(monkeypatch):
    honest_jacobian = acceptance.jacobian_RI

    def perturbed(*args):
        jac = honest_jacobian(*args).copy()
        jac[0, 1] *= 1.0 + 1e-6  # one off-diagonal entry of the mean block
        return jac

    monkeypatch.setattr(acceptance, "jacobian_RI", perturbed)
    result = run_suite(["determinants"])[0]
    assert not result.passed
    assert result.measured > 1e-9


def test_unknown_criterion_raises_before_any_criterion_runs(monkeypatch):
    monkeypatch.setitem(acceptance._REGISTRY, "heinz", lambda: pytest.fail("heinz ran"))
    with pytest.raises(ValueError, match="bogus"):
        run_suite(["heinz", "bogus"])
    with pytest.raises(ValueError, match="bogus"):
        run_suite(["bogus"])
