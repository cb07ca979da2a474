"""Best-response dynamics: stepping, verdicts, stability probes, traces."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qualdyn import (
    ConfigurationError,
    DynamicsConfig,
    EconomyConfig,
    FixedPoint,
    GaussianHalfspace,
    GroupSpec,
    LimitCycle,
    NonConverged,
    ParameterError,
    PreconditionError,
    QualificationState,
    Uniform01,
    UniformThreshold,
    classify_stability,
    cycle_average,
    dynamics_from_config,
    individual_best_response,
    iterate,
    step,
    trace_lines,
)


def uniform_reference():
    economy = EconomyConfig(wage=0.6)
    groups = (
        GroupSpec(id="a1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="a2", proportion=0.5, cost=Uniform01()),
    )
    model = UniformThreshold((("a1", 0.4), ("a2", 0.8)))
    return economy, groups, model


def cycle_reference():
    economy = EconomyConfig(wage=0.8, payoff_tp=1.0, cost_fp=2.0)
    groups = (
        GroupSpec(id="g1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="g2", proportion=0.5, cost=Uniform01()),
    )
    model = GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (0.0, 1.0))))
    return economy, groups, model


def test_step_joint_reproduces_separating_cut():
    economy, groups, model = uniform_reference()
    state = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    theta, after = step(economy, groups, model, state)
    assert theta == pytest.approx(0.4, abs=1e-9)
    # cut at 0.4 gives a1 full net benefit and a2 half of it
    assert after.rate("a1") == pytest.approx(0.6, abs=1e-9)
    assert after.rate("a2") == pytest.approx(0.3, abs=1e-9)


def test_step_decoupled_uses_per_group_cuts():
    economy, groups, model = uniform_reference()
    state = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    theta, after = step(economy, groups, model, state, mode="decoupled")
    assert set(theta) == {"a1", "a2"}
    assert theta["a1"] == pytest.approx(0.4, abs=1e-9)
    assert theta["a2"] == pytest.approx(0.8, abs=1e-9)
    # each group now faces its own separating cut, so both reach G(w)
    assert after.rate("a1") == pytest.approx(0.6, abs=1e-9)
    assert after.rate("a2") == pytest.approx(0.6, abs=1e-9)


def test_individual_response_floors_negative_net_benefit():
    class InvertedRates:
        def tpr_fpr(self, group, theta):
            return 0.1, 0.9

    economy = EconomyConfig(wage=0.5)
    groups = (GroupSpec(id="a", proportion=1.0, cost=Uniform01()),)
    state = individual_best_response(economy, groups, InvertedRates(), 0.5)
    assert state.rate("a") == 0.0


def test_iterate_settles_on_fixed_point():
    economy, groups, model = uniform_reference()
    start = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    outcome = iterate(economy, groups, model, start, DynamicsConfig())
    assert isinstance(outcome.verdict, FixedPoint)
    assert outcome.verdict.residual <= 1e-9
    assert outcome.verdict.state.rate("a1") == pytest.approx(0.6, abs=1e-9)
    assert outcome.verdict.state.rate("a2") == pytest.approx(0.3, abs=1e-9)
    assert outcome.stability == "NotAssessed"


def test_iterate_decoupled_converges_groupwise():
    economy, groups, model = uniform_reference()
    start = QualificationState(ids=("a1", "a2"), rates=(0.1, 0.1))
    outcome = iterate(economy, groups, model, start, DynamicsConfig(mode="decoupled"))
    assert isinstance(outcome.verdict, FixedPoint)
    assert outcome.verdict.state.rate("a1") == pytest.approx(0.6, abs=1e-9)
    assert outcome.verdict.state.rate("a2") == pytest.approx(0.6, abs=1e-9)


def test_iterate_detects_period_two_cycle():
    economy, groups, model = cycle_reference()
    start = QualificationState(ids=("g1", "g2"), rates=(0.7, 0.2))
    outcome = iterate(economy, groups, model, start, DynamicsConfig())
    assert isinstance(outcome.verdict, LimitCycle)
    assert outcome.verdict.period == 2
    corners = sorted(tuple(s.rates) for s in outcome.verdict.states)
    assert corners[0] == (pytest.approx(0.0, abs=1e-9), pytest.approx(0.8, abs=1e-9))
    assert corners[1] == (pytest.approx(0.8, abs=1e-9), pytest.approx(0.0, abs=1e-9))
    avg = cycle_average(outcome)
    assert avg.rate("g1") == pytest.approx(0.4, abs=1e-9)
    assert avg.rate("g2") == pytest.approx(0.4, abs=1e-9)


def test_iterate_reports_nonconvergence_when_budget_runs_out():
    economy, groups, model = uniform_reference()
    start = QualificationState(ids=("a1", "a2"), rates=(0.9, 0.9))
    outcome = iterate(economy, groups, model, start, DynamicsConfig(max_iters=1))
    assert isinstance(outcome.verdict, NonConverged)
    assert outcome.verdict.last == outcome.final_state


def test_micro_cycle_collapses_to_fixed_point(monkeypatch):
    # A damped oscillation can cross the tolerance so that the lag-2 matcher
    # fires while the one-step test still fails. The matched "cycle" states
    # then agree within fix_tol and the verdict must be a fixed point, not a
    # spurious two-cycle. Scripted linear map with contraction 0.55 around
    # 0.3, phase tuned so the crossing lands in that window.
    import qualdyn.dynamics as dyn

    rho, target, tol = 0.55, 0.3, 1e-3

    def scripted_step(economy, groups, model, state, mode="joint", *, grid_size=2001, tie_tol=1e-9):
        new = target - rho * (state.rates[0] - target)
        return 0.0, QualificationState(ids=state.ids, rates=(new,))

    class Passive:
        def tpr_fpr(self, group, theta):
            return 1.0, 0.0

    monkeypatch.setattr(dyn, "step", scripted_step)
    start = QualificationState(ids=("a",), rates=(target + 1.1e-3 / (1.55 * rho**9),))
    groups = (GroupSpec(id="a", proportion=1.0, cost=Uniform01()),)
    outcome = dyn.iterate(
        EconomyConfig(wage=0.5), groups, Passive(), start, DynamicsConfig(fix_tol=tol)
    )
    assert isinstance(outcome.verdict, FixedPoint)
    assert 0.0 < outcome.verdict.residual <= tol
    # the final recorded jump exceeds fix_tol, so only the cycle collapse
    # (not the one-step test) can have produced the fixed point
    last_jump = outcome.trace[-1].state.sup_distance(outcome.trace[-2].state)
    assert last_jump > tol


def test_classify_stability_labels_the_separating_points():
    economy, groups, model = uniform_reference()
    low = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    assert classify_stability(economy, groups, model, low) == "Stable"
    not_fixed = QualificationState(ids=("a1", "a2"), rates=(0.9, 0.9))
    with pytest.raises(PreconditionError):
        classify_stability(economy, groups, model, not_fixed)


def test_cycle_average_requires_a_cycle():
    economy, groups, model = uniform_reference()
    start = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    outcome = iterate(economy, groups, model, start, DynamicsConfig())
    with pytest.raises(PreconditionError):
        cycle_average(outcome)


def test_trace_lines_are_deterministic_json():
    economy, groups, model = cycle_reference()
    start = QualificationState(ids=("g1", "g2"), rates=(0.7, 0.2))
    config = DynamicsConfig()
    first = trace_lines(iterate(economy, groups, model, start, config), model)
    second = trace_lines(iterate(economy, groups, model, start, config), model)
    assert first == second
    records = [json.loads(line) for line in first]
    assert records[0]["t"] == 0
    assert records[0]["theta"] is None
    for t, rec in enumerate(records[:-1]):
        assert rec["t"] == t
        assert set(rec["pi"]) == {"g1", "g2"}
        if rec["theta"] is not None:
            # halfspace rules serialize as the arc fraction, a scalar
            assert isinstance(rec["theta"], float)
            assert 0.0 <= rec["theta"] <= 1.0
        rates = list(rec["pi"].values())
        assert rec["balance"] == pytest.approx(max(rates) - min(rates))
    summary = records[-1]
    assert summary["verdict"] == "LimitCycle"
    assert summary["period"] == 2
    assert summary["stability"] == "NotAssessed"
    assert set(summary["cycle_average"]) == {"g1", "g2"}


def test_trace_lines_fixed_point_summary():
    economy, groups, model = uniform_reference()
    start = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    outcome = iterate(economy, groups, model, start, DynamicsConfig())
    summary = json.loads(trace_lines(outcome, model)[-1])
    assert summary["verdict"] == "FixedPoint"
    assert summary["state"]["a1"] == pytest.approx(0.6, abs=1e-9)
    assert summary["residual"] <= 1e-9


def test_dynamics_config_validation():
    with pytest.raises(ParameterError):
        DynamicsConfig(mode="sideways")
    with pytest.raises(ParameterError):
        DynamicsConfig(max_iters=0)
    with pytest.raises(ParameterError):
        DynamicsConfig(fix_tol=0.0)
    with pytest.raises(ParameterError):
        DynamicsConfig(cycle_window=1)
    with pytest.raises(ParameterError):
        DynamicsConfig(theta_grid=2)
    with pytest.raises(ParameterError):
        DynamicsConfig(perturb_eps=-1.0)
    with pytest.raises(ParameterError):
        DynamicsConfig(max_iters=True)
    with pytest.raises(ParameterError):
        DynamicsConfig(fix_tol=float("inf"))


def test_dynamics_config_round_trip_and_errors():
    config = DynamicsConfig(mode="decoupled", max_iters=77, fix_tol=1e-7)
    assert dynamics_from_config(config.to_config()) == config
    with pytest.raises(ConfigurationError, match="dynamics.bogus"):
        dynamics_from_config({"bogus": 1})
    with pytest.raises(ConfigurationError, match="dynamics.max_iters"):
        dynamics_from_config({"max_iters": 2.5})
    with pytest.raises(ConfigurationError, match="dynamics.fix_tol"):
        dynamics_from_config({"fix_tol": "tiny"})
    with pytest.raises(ConfigurationError, match="dynamics.fix_tol: expected a finite number"):
        dynamics_from_config(json.loads('{"fix_tol": 1e999}'))
    with pytest.raises(ConfigurationError, match="dynamics.max_iters: expected an integer"):
        dynamics_from_config(json.loads('{"max_iters": true}'))
    with pytest.raises(ConfigurationError, match="dynamics"):
        dynamics_from_config({"mode": "sideways"})


def test_per_group_utility_never_worse_decoupled():
    economy, groups, model = uniform_reference()
    state = QualificationState(ids=("a1", "a2"), rates=(0.35, 0.55))
    joint_theta, _ = step(economy, groups, model, state)
    split_theta, _ = step(economy, groups, model, state, mode="decoupled")

    def group_term(g, pi, th):
        tpr, fpr = model.tpr_fpr(g.id, th)
        return economy.payoff_tp * tpr * pi - economy.cost_fp * fpr * (1.0 - pi)

    for g, pi in zip(groups, state.rates):
        assert group_term(g, pi, split_theta[g.id]) >= group_term(g, pi, joint_theta) - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    r1=st.floats(min_value=0.0, max_value=1.0),
    r2=st.floats(min_value=0.0, max_value=1.0),
)
def test_one_step_stays_in_unit_box_and_is_deterministic(r1, r2):
    economy, groups, model = uniform_reference()
    state = QualificationState(ids=("a1", "a2"), rates=(r1, r2))
    theta_a, after_a = step(economy, groups, model, state)
    theta_b, after_b = step(economy, groups, model, state)
    assert theta_a == theta_b
    assert after_a.rates == after_b.rates
    assert all(0.0 <= r <= 1.0 for r in after_a.rates)
