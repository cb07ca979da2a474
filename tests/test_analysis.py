"""Closed forms, equilibrium scans, subsidy reports."""

import bisect
import copy
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qualdyn import (
    AssumptionError,
    BetaScore,
    ConfigurationError,
    DynamicsConfig,
    EconomyConfig,
    EmpiricalScore,
    FixedPoint,
    GaussianHalfspace,
    GroupScores,
    GroupSpec,
    LimitCycle,
    NonConverged,
    ParameterError,
    PreconditionError,
    QualificationState,
    ScoreModel,
    Scaled,
    Shifted,
    TruncatedNormal,
    Uniform01,
    UniformThreshold,
    balance,
    beta_of_pi,
    find_equilibria_scan,
    gaussian_closed_forms,
    iterate,
    near_realizability_bound,
    response_rate,
    step,
    subsidize,
    subsidy_equilibrium_shift,
    uniform_closed_forms,
)
from qualdyn import analysis, dynamics, verification
from qualdyn.dynamics import settled_state
from qualdyn.features import _sign_change


def test_uniform_closed_forms_golden_values():
    forms = uniform_closed_forms(0.4, 0.8, 0.6)
    assert forms.w_lo == pytest.approx(0.545455, abs=1e-6)
    assert forms.w_hi == pytest.approx(0.692308, abs=1e-6)
    assert forms.g == pytest.approx(0.1714285714285716, abs=1e-12)
    assert forms.h_mid == pytest.approx(0.5714285714285716, abs=1e-12)
    by_label = {r.label: r for r in forms.records}
    assert set(by_label) == {"h1", "h2", "h_mid"}
    low = by_label["h1"]
    assert low.theta == pytest.approx(0.4)
    assert low.state.rate("a1") == pytest.approx(0.6, abs=1e-12)
    assert low.state.rate("a2") == pytest.approx(0.3, abs=1e-12)
    assert low.stability == "Stable"
    high = by_label["h2"]
    assert high.state.rate("a1") == pytest.approx(0.2, abs=1e-12)
    assert high.state.rate("a2") == pytest.approx(0.6, abs=1e-12)
    mid = by_label["h_mid"]
    assert mid.stability == "Unstable"
    assert mid.state.rate("a1") == pytest.approx(mid.state.rate("a2"), abs=1e-12)
    assert mid.state.rate("a1") == pytest.approx(3.0 / 7.0, abs=1e-9)


def test_uniform_closed_forms_record_presence_tracks_the_wage():
    # below the lower bound only the upper cut survives, above the upper
    # bound only the lower cut
    low_wage = uniform_closed_forms(0.4, 0.8, 0.5)
    assert {r.label for r in low_wage.records} == {"h2"}
    assert low_wage.g is None and low_wage.h_mid is None
    high_wage = uniform_closed_forms(0.4, 0.8, 0.75)
    assert {r.label for r in high_wage.records} == {"h1"}


def test_uniform_closed_forms_respects_caller_group_ids():
    forms = uniform_closed_forms(0.4, 0.8, 0.6, group_ids=("z1", "a9"))
    low = {r.label: r for r in forms.records}["h1"]
    # first id named gets the first group's rate even though z1 sorts last
    assert low.state.rate("z1") == pytest.approx(0.6, abs=1e-12)
    assert low.state.rate("a9") == pytest.approx(0.3, abs=1e-12)


def test_uniform_closed_forms_assumption_checks():
    with pytest.raises(AssumptionError):
        uniform_closed_forms(0.8, 0.4, 0.6)  # h1 > h2
    with pytest.raises(AssumptionError):
        uniform_closed_forms(0.2, 0.7, 0.6)  # h2 <= 1 - h1
    with pytest.raises(ParameterError):
        uniform_closed_forms(0.4, 0.8, 0.6, economy=EconomyConfig(wage=0.6))
    groups = (
        GroupSpec(id="a1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="a2", proportion=0.5, cost=Uniform01()),
    )
    with pytest.raises(AssumptionError, match="wage mismatch"):
        uniform_closed_forms(0.4, 0.8, 0.6, economy=EconomyConfig(wage=0.7), groups=groups)
    with pytest.raises(AssumptionError, match="balanced-economy"):
        uniform_closed_forms(
            0.4, 0.8, 0.6, economy=EconomyConfig(wage=0.6, payoff_tp=2.0), groups=groups
        )
    # satisfied checks pass through and adopt the group ids
    forms = uniform_closed_forms(0.4, 0.8, 0.6, economy=EconomyConfig(wage=0.6), groups=groups)
    assert {r.label for r in forms.records} == {"h1", "h2", "h_mid"}


def test_uniform_closed_forms_take_the_groups_in_the_callers_order():
    # Group b holds the lower threshold, though a sorts first by id: passed
    # as (b, a), b is the h1 group and every record maps to itself.
    model = UniformThreshold({"a": 0.8, "b": 0.4})
    economy = EconomyConfig(wage=0.6, payoff_tp=1.0, cost_fp=1.0)
    a, b = (GroupSpec(id=g, proportion=0.5, cost=Uniform01()) for g in "ab")
    forms = uniform_closed_forms(0.4, 0.8, 0.6, economy, (b, a))
    assert {r.label for r in forms.records} == {"h1", "h2", "h_mid"}
    for rec in forms.records:
        _, after = step(economy, (a, b), model, rec.state, "joint")
        assert after.sup_distance(rec.state) <= 1e-12, rec.label


def test_gaussian_closed_forms_stable_pair_regime():
    forms = gaussian_closed_forms(
        (1.0, 0.0), (0.0, 1.0), 0.8, Uniform01(),
        EconomyConfig(wage=0.8, payoff_tp=2.0, cost_fp=1.0),
    )
    assert forms.regime == "stable_pair"
    assert forms.angle == pytest.approx(0.5)
    by_label = {r.label: r for r in forms.records}
    assert set(by_label) == {"h1", "h2", "h_mid"}
    assert by_label["h1"].state.rates == (pytest.approx(0.8), pytest.approx(0.0))
    assert by_label["h2"].state.rates == (pytest.approx(0.0), pytest.approx(0.8))
    assert by_label["h1"].stability == "Stable"
    mid = by_label["h_mid"]
    assert mid.stability == "Unstable"
    assert mid.state.rates == (pytest.approx(0.4), pytest.approx(0.4))
    np.testing.assert_allclose(mid.theta, [math.sqrt(0.5), math.sqrt(0.5)])


def test_gaussian_closed_forms_limit_cycle_regime():
    forms = gaussian_closed_forms(
        (1.0, 0.0), (0.0, 1.0), 0.8, Uniform01(),
        EconomyConfig(wage=0.8, payoff_tp=1.0, cost_fp=2.0),
    )
    assert forms.regime == "limit_cycle"
    by_label = {r.label: r for r in forms.records}
    assert set(by_label) == {"h_mid", "cycle"}
    cyc = by_label["cycle"]
    assert cyc.kind == "LimitCycle"
    assert cyc.period == 2
    corners = sorted(tuple(s.rates) for s in cyc.cycle)
    assert corners[0] == (pytest.approx(0.0), pytest.approx(0.8))
    assert corners[1] == (pytest.approx(0.8), pytest.approx(0.0))
    assert cyc.state.rates == (pytest.approx(0.4), pytest.approx(0.4))


def test_gaussian_closed_forms_refuses_the_knife_edge():
    with pytest.raises(AssumptionError):
        gaussian_closed_forms(
            (1.0, 0.0), (0.0, 1.0), 0.8, Uniform01(), EconomyConfig(wage=0.8)
        )
    with pytest.raises(PreconditionError):
        gaussian_closed_forms(
            (1.0, 0.0), (2.0, 0.0), 0.8, Uniform01(),
            EconomyConfig(wage=0.8, payoff_tp=2.0),
        )


def test_gaussian_closed_forms_refuse_a_wage_mismatch():
    # as uniform_closed_forms does: w and economy.wage are one wage
    economy = EconomyConfig(wage=0.8, payoff_tp=2.0, cost_fp=1.0)
    with pytest.raises(AssumptionError, match="wage mismatch"):
        gaussian_closed_forms((1.0, 0.0), (0.0, 1.0), 0.5, Uniform01(), economy)


def steep_cost_scenario():
    model = ScoreModel((("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),))
    group = GroupSpec(id="g", proportion=1.0, cost=TruncatedNormal(mu=0.6, sigma=0.1))
    return EconomyConfig(wage=1.0), group, model


def test_beta_of_pi_curve_shape():
    economy, _, model = steep_cost_scenario()
    curve = beta_of_pi(model, economy)
    # at even odds the cut is 0.5, where beta = F0(0.5) - F1(0.5) = 0.78125
    assert curve.beta_at(0.5) == pytest.approx(0.78125, abs=1e-9)
    # the likelihood ratio vanishes at the top score, so the top slice is
    # profitable at any positive rate: no accept-no-one plateau
    assert curve.pi_bar == 0.0
    # at full qualification the institution accepts everyone and beta vanishes
    assert abs(curve.betas[-1]) <= 1e-4
    assert all(0.0 <= t <= 1.0 for t in curve.thetas)


def test_beta_of_pi_accept_no_one_plateau():
    # qualified scores 2x on [0, 1], unqualified uniform: phi(1) = 1/2, so
    # at even payoffs rejection is optimal until pi reaches 1/3; above it the
    # interior cut is (1-pi)/(2pi) and beta = cut * (1 - cut)
    model = ScoreModel((("g", GroupScores(y1=BetaScore(2.0, 1.0), y0=BetaScore(1.0, 1.0))),))
    curve = beta_of_pi(model, EconomyConfig(wage=1.0))
    assert curve.pi_bar == pytest.approx(1.0 / 3.0, abs=0.01)
    low = [b for x, b in zip(curve.pis, curve.betas) if x <= curve.pi_bar]
    assert all(abs(b) <= 1e-12 for b in low)
    assert curve.beta_at(0.5) == pytest.approx(0.25, abs=1e-5)


def test_beta_of_pi_input_checks():
    economy, _, _ = steep_cost_scenario()
    two_group = ScoreModel(
        (
            ("a", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),
            ("b", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),
        )
    )
    with pytest.raises(ConfigurationError):
        beta_of_pi(two_group, economy)
    _, _, model = steep_cost_scenario()
    with pytest.raises(ParameterError):
        beta_of_pi(model, economy, grid_size=5)


def test_scan_finds_both_interior_roots_of_the_steep_cost_map():
    economy, group, model = steep_cost_scenario()
    records = find_equilibria_scan(economy, (group,), model)
    nonzero = [r for r in records if r.nonzero]
    assert len(nonzero) == 2
    lo, hi = sorted(nonzero, key=lambda r: r.state.rates[0])
    assert lo.state.rates[0] == pytest.approx(0.0236, abs=2e-3)
    assert hi.state.rates[0] == pytest.approx(0.8249, abs=2e-3)
    for rec in nonzero:
        assert rec.residual is not None and rec.residual <= 1e-6
    # the upper root sits on a steep branch: the derivative test rejects it
    assert hi.derivative_stable is False
    assert hi.stability == "Unstable"


def test_scan_separating_threshold_equilibria():
    model = UniformThreshold((("a", 0.5),))
    group = GroupSpec(id="a", proportion=1.0, cost=Uniform01())
    records = find_equilibria_scan(EconomyConfig(wage=0.7), (group,), model)
    by_rate = sorted(records, key=lambda r: r.state.rates[0])
    assert len(by_rate) == 2
    zero, full = by_rate
    assert zero.state.rates[0] == pytest.approx(0.0, abs=1e-12)
    # separation is free here, so any positive mass escapes upward
    assert zero.stability == "Unstable"
    assert full.state.rates[0] == pytest.approx(0.7, abs=1e-9)
    assert full.theta == pytest.approx(0.5, abs=1e-9)
    assert full.stability == "Stable"
    assert full.derivative_stable is True


def test_scan_rejects_conflicting_mode():
    model = UniformThreshold((("a", 0.5),))
    group = GroupSpec(id="a", proportion=1.0, cost=Uniform01())
    from qualdyn import DynamicsConfig

    with pytest.raises(ConfigurationError):
        find_equilibria_scan(
            EconomyConfig(wage=0.7), (group,), model,
            mode="joint", config=DynamicsConfig(mode="decoupled"),
        )


def test_near_realizability_bound_value_and_hypotheses():
    assert near_realizability_bound(0.05, 0.25, 0.5, Uniform01()) == pytest.approx(
        0.4, abs=1e-12
    )
    with pytest.raises(ParameterError):
        near_realizability_bound(0.0, 0.25, 0.5, Uniform01())
    with pytest.raises(ParameterError):
        near_realizability_bound(0.05, 0.6, 0.5, Uniform01())
    with pytest.raises(ParameterError):
        near_realizability_bound(0.05, 0.25, 0.0, Uniform01())
    with pytest.raises(AssumptionError):
        near_realizability_bound(0.4, 0.45, 0.5, Uniform01())


def test_near_realizability_warns_without_lipschitz_metadata():
    class BareCost:
        def cdf(self, x):
            return min(1.0, max(0.0, x))

    with pytest.warns(UserWarning):
        value = near_realizability_bound(0.05, 0.25, 0.5, BareCost())
    assert value == pytest.approx(0.4, abs=1e-12)


def test_subsidy_shift_improves_the_separating_equilibrium():
    model = UniformThreshold((("a", 0.5),))
    group = GroupSpec(id="a", proportion=1.0, cost=Uniform01())
    report = subsidy_equilibrium_shift(
        EconomyConfig(wage=0.7), (group,), model, Uniform01(), Shifted(Uniform01(), 0.05)
    )
    assert report.gaussian_check is None
    assert len(report.improvements) == 1
    imp = report.improvements[0]
    assert imp.base.state.rates[0] == pytest.approx(0.7, abs=1e-9)
    assert imp.match is not None
    assert imp.match.state.rates[0] == pytest.approx(0.75, abs=1e-9)
    assert imp.improved and not imp.unchanged


def test_subsidy_shift_preconditions():
    model = UniformThreshold((("a", 0.5),))
    group = GroupSpec(id="a", proportion=1.0, cost=Uniform01())
    economy = EconomyConfig(wage=0.7)
    with pytest.raises(PreconditionError):
        subsidy_equilibrium_shift(
            economy, (group,), model, Shifted(Uniform01(), 0.05), Uniform01()
        )
    with pytest.raises(ConfigurationError):
        subsidy_equilibrium_shift(
            economy, (group,), model,
            Shifted(Uniform01(), 0.0), Shifted(Uniform01(), 0.05),
        )


def test_compare_equilibria_ranks_the_three_cut_points():
    # The paper's ordering of the uniform family's three equilibria: each
    # group does best at its own cut, and the interior point is balanced.
    recs = {r.label: r.state for r in uniform_closed_forms(0.4, 0.8, 0.6).records}
    a1 = {label: state.rates[0] for label, state in recs.items()}
    a2 = {label: state.rates[1] for label, state in recs.items()}
    gap = {label: balance(state) for label, state in recs.items()}
    assert a1["h1"] > a1["h_mid"] > a1["h2"]
    assert a2["h2"] > a2["h_mid"] > a2["h1"]
    assert gap["h_mid"] < gap["h1"] < gap["h2"]
    assert gap["h_mid"] == pytest.approx(0.0, abs=1e-12)


def test_scan_finds_a_root_inside_the_first_grid_step():
    # The trivial root psi(0) = 0 shares the first step of a 101-point grid
    # with a root near 0.0098; the scan still brackets and reports it.
    model = ScoreModel((("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),))
    group = GroupSpec(id="g", proportion=1.0, cost=TruncatedNormal(mu=0.52, sigma=0.1))
    records = find_equilibria_scan(EconomyConfig(wage=1.0), (group,), model, grid=101)
    roots = sorted(r.state.rates[0] for r in records)
    assert len(roots) == 3
    assert roots[0] == 0.0
    assert roots[1] == pytest.approx(0.00978, abs=1e-4)
    assert roots[2] == pytest.approx(0.88265, abs=1e-4)


@pytest.mark.parametrize("mu", [0.52, 0.6])
def test_steep_cost_roots_meet_fix_tol_and_are_assessed(mu):
    model = ScoreModel((("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),))
    group = GroupSpec(id="g", proportion=1.0, cost=TruncatedNormal(mu=mu, sigma=0.1))
    records = find_equilibria_scan(EconomyConfig(wage=1.0), (group,), model)
    nonzero = [r for r in records if r.nonzero]
    assert len(nonzero) == 2
    for rec in nonzero:
        assert rec.residual <= DynamicsConfig().fix_tol
        assert rec.stability in ("Stable", "Unstable")


def near_realizable_scenario():
    """Criterion 04's model at wage 0.5. Below pi = 1/20 the utility rises
    up to theta = 1, so the institution rejects everyone and Phi = 0; above
    it the cut is 0.5, and Phi = G(0.5 (0.95 - 0.05)) = 0.45."""
    model = ScoreModel(
        {
            "g": GroupScores(
                y1=EmpiricalScore(((0.0, 0.0), (0.5, 0.05), (1.0, 1.0))),
                y0=EmpiricalScore(((0.0, 0.0), (0.5, 0.95), (1.0, 1.0))),
            )
        }
    )
    group = GroupSpec(id="g", proportion=1.0, cost=Uniform01())
    return EconomyConfig(wage=0.5), group, model


def test_scan_rejects_the_jump_of_a_piecewise_map():
    # Phi(pi) - pi changes sign at the jump, so the scan narrows a candidate
    # there; its residual (about 0.4) marks it as no root.
    economy, group, model = near_realizable_scenario()
    records = find_equilibria_scan(economy, (group,), model)
    assert [r.state.rates[0] for r in records] == [0.0, pytest.approx(0.45, abs=1e-12)]
    assert all(r.residual <= 1e-12 for r in records)


def test_scan_leaves_roots_above_fix_tol_not_assessed():
    # The steep-cost roots have residuals of about 1e-16, above this fix_tol,
    # so they are reported without a stability probe; root 0 is exact.
    economy, group, model = steep_cost_scenario()
    config = DynamicsConfig(fix_tol=1e-18)
    records = find_equilibria_scan(economy, (group,), model, grid=101, config=config)
    assert records[0].state.rates == (0.0,)
    assert [r.stability for r in records] == ["Stable", "NotAssessed", "NotAssessed"]
    assert all(0.0 < r.residual <= 1e-15 for r in records[1:])


def test_scan_warns_when_its_stability_tests_disagree():
    # A kick of 0.1 carries pi = 0 past the jump at 1/20, so the basin probe
    # calls the trivial root Unstable, where Phi is flat and the derivative
    # test calls it Stable.
    economy, group, model = near_realizable_scenario()
    config = DynamicsConfig(perturb_eps=0.1)
    with pytest.warns(UserWarning, match="disagree at pi=0: derivative test says Stable"):
        records = find_equilibria_scan(economy, (group,), model, config=config)
    zero = records[0]
    assert zero.state.rates == (0.0,)
    assert zero.derivative_stable is True and zero.stability == "Unstable"


@settings(max_examples=20, deadline=None)
@given(
    angle_deg=st.floats(min_value=60.0, max_value=120.0, exclude_min=True, exclude_max=True),
    wage=st.floats(min_value=0.6, max_value=0.9, exclude_min=True, exclude_max=True),
    ratio=st.floats(min_value=1.3, max_value=2.0),
    high_payoff=st.booleans(),
)
def test_halfspace_scan_meets_fix_tol_and_the_closed_forms(angle_deg, wage, ratio, high_payoff):
    # The halfspace-find family: two equal groups with Uniform01 costs,
    # payoff ratio on either side of 1.
    phi = math.radians(angle_deg)
    h1, h2 = (1.0, 0.0), (math.cos(phi), math.sin(phi))
    payoff_tp, cost_fp = (ratio, 1.0) if high_payoff else (1.0, ratio)
    economy = EconomyConfig(wage=wage, payoff_tp=payoff_tp, cost_fp=cost_fp)
    groups = tuple(GroupSpec(id=g, proportion=0.5, cost=Uniform01()) for g in ("g1", "g2"))
    model = GaussianHalfspace((("g1", h1), ("g2", h2)))
    config = DynamicsConfig()
    records = find_equilibria_scan(economy, groups, model, grid=7, config=config)
    for rec in records:
        if rec.kind == "FixedPoint":
            assert rec.residual <= config.fix_tol
    forms = gaussian_closed_forms(h1, h2, wage, Uniform01(), economy, group_ids=("g1", "g2"))
    for want in forms.records:
        assert any(
            rec.kind == want.kind
            and rec.period == want.period
            and rec.state.sup_distance(want.state) <= 1e-9
            for rec in records
        ), want.label


def _phi_grid_scan(economy, group, model, grid):
    """find_equilibria_scan on the Phi grid, the path every one-group model
    took before the theta-curve."""
    with mock.patch.object(analysis, "_theta_curve_roots", lambda *args: None):
        return find_equilibria_scan(economy, (group,), model, grid=grid)


@st.composite
def _mlr_beta_scans(draw):
    """A one-group scan that the theta-curve serves: a strict-MLR Beta pair,
    a truncated-normal cost, shifted by a subsidy in some draws, and a wage."""
    a0, b1 = draw(st.floats(1.5, 4.0)), draw(st.floats(1.5, 4.0))
    a1, b0 = a0 + draw(st.floats(0.5, 4.0)), b1 + draw(st.floats(0.5, 4.0))
    cost = TruncatedNormal(mu=draw(st.floats(0.3, 0.8)), sigma=draw(st.floats(0.05, 0.25)))
    shift = draw(st.none() | st.floats(0.0, 0.2))
    if shift is not None:
        cost = subsidize(cost, shift=shift)
    model = ScoreModel({"g": GroupScores(y1=BetaScore(a1, b1), y0=BetaScore(a0, b0))})
    group = GroupSpec(id="g", proportion=1.0, cost=cost)
    return EconomyConfig(wage=draw(st.floats(0.6, 1.4))), group, model


@pytest.mark.filterwarnings("ignore:stability tests disagree")
@settings(max_examples=25, deadline=None)
@given(_mlr_beta_scans())
def test_theta_curve_records_match_the_phi_grid(scan):
    # The precision contract in find_equilibria_scan's docstring. Each path
    # brackets the sign changes on its own grid, so neither sees two roots
    # inside one of its steps, where the other may: a record that only one
    # path reports must sit in such a step of the other path's grid. Every
    # other record matches: pi within fix_tol, the same stability, and theta,
    # the solver's answer at pi, within fix_tol, or within one step of the
    # solver's grid when one of the two is a grid point (where the
    # refinement's gain test flips between states closer than fix_tol). A
    # trivial record (pi <= 1e-6) has no theta bound: there the solver's
    # answer swings from reject-all at pi = 0 to interior cuts within fix_tol
    # of it. A record whose residual exceeds fix_tol is a near-root where the
    # solver's map jumps by less than 1e-6; both paths report it NotAssessed,
    # with pi within 1e-6.
    economy, group, model = scan
    grid, config = 101, DynamicsConfig()
    tol, step_size = config.fix_tol, 1.0 / (config.theta_grid - 1)
    curve = find_equilibria_scan(economy, (group,), model, grid=grid)
    reference = _phi_grid_scan(economy, group, model, grid)

    points = np.linspace(0.0, 1.0, grid).tolist()
    phi = analysis._phi_single(economy, group, model, config.theta_grid)
    y1, y0 = model.scores("g").y1, model.scores("g").y0

    def psi(x):
        return phi(x)[0] - x

    def h(theta):  # Phi(pi) - pi at pi = pi_inst(theta), with p = c = 1
        benefit = response_rate(group.cost, economy.wage, *model.tpr_fpr("g", theta))
        return benefit - y0.slope(theta) / (y1.slope(theta) + y0.slope(theta))

    def unseen_by_phi_grid(x):
        i = min(bisect.bisect_right(points, x), grid - 1)
        lo = points[i - 1]
        if lo == 0.0 and psi(0.0) == 0.0:
            lo = analysis._NONZERO_TOL  # the Phi grid's probe
        return psi(lo) * psi(points[i]) > 0.0

    def unseen_by_curve(theta):
        i = bisect.bisect_right(points, theta)
        return 1 < i < grid - 1 and h(points[i - 1]) * h(points[i]) > 0.0

    def on_solver_grid(theta):
        return (theta * (config.theta_grid - 1)).is_integer()

    def twin_in(records, rec):
        radius = tol if rec.residual <= tol else analysis._NONZERO_TOL
        pi = rec.state.rates[0]
        return next((q for q in records if abs(q.state.rates[0] - pi) <= radius), None)

    matched = 0
    for rec in curve:
        assert rec.residual <= tol or rec.stability == "NotAssessed"
        twin = twin_in(reference, rec)
        if twin is None:
            assert unseen_by_phi_grid(rec.state.rates[0]), rec
            continue
        matched += 1
        assert rec.stability == twin.stability, (rec, twin)
        gap = abs(rec.theta - twin.theta)
        assert not rec.nonzero or gap <= tol or (
            gap <= step_size and (on_solver_grid(rec.theta) or on_solver_grid(twin.theta))
        ), (rec, twin)
    for rec in reference:
        if twin_in(curve, rec) is None:
            assert unseen_by_curve(rec.theta), rec
    if matched == len(curve) == len(reference):
        assert [r.label for r in curve] == [q.label for q in reference]


@pytest.mark.parametrize(
    "y1, y0, grid, payoff_tp",
    [
        ((5.0, 2.0), (2.0, 2.0), 101, 1.0),  # weak MLR: b1 = b0
        ((2.0, 5.0), (5.0, 2.0), 101, 1.0),  # the likelihood ratio falls
        ((5.0, 2.0), (2.0, 5.0), 2, 1.0),  # no interior theta point
        ((400.0, 2.0), (300.0, 5.0), 101, 1.0),  # both densities underflow
        ((5.0, 2.0), (2.0, 5.0), 101, 1e15),  # pi_inst below the probe everywhere
    ],
)
def test_models_off_the_theta_curve_take_the_phi_grid(y1, y0, grid, payoff_tp):
    economy = EconomyConfig(wage=1.0, payoff_tp=payoff_tp)
    group = GroupSpec(id="g", proportion=1.0, cost=TruncatedNormal(mu=0.6, sigma=0.1))
    model = ScoreModel({"g": GroupScores(y1=BetaScore(*y1), y0=BetaScore(*y0))})
    phi = analysis._phi_single(economy, group, model, DynamicsConfig().theta_grid)
    psi = lambda x: phi(x)[0] - x
    low = (analysis._NONZERO_TOL, psi(analysis._NONZERO_TOL))
    assert analysis._theta_curve_roots(economy, group, model, grid, psi, low, psi(1.0)) is None


def test_theta_curve_and_phi_grid_agree_on_the_score_anchor():
    economy, group, model = steep_cost_scenario()
    tol = DynamicsConfig().fix_tol
    for grid in (101, 401):
        curve = find_equilibria_scan(economy, (group,), model, grid=grid)
        reference = _phi_grid_scan(economy, group, model, grid)
        assert [(r.label, r.stability) for r in curve] == [
            (q.label, q.stability) for q in reference
        ]
        for rec, twin in zip(curve, reference):
            assert rec.residual <= tol
            assert abs(rec.state.rates[0] - twin.state.rates[0]) <= tol
            assert abs(rec.theta - twin.theta) <= tol


@settings(max_examples=15, deadline=None)
@given(
    h1=st.floats(min_value=0.3, max_value=0.5),
    h2=st.floats(min_value=0.7, max_value=0.9),
    wage=st.floats(min_value=0.5, max_value=0.7),
    n1=st.floats(min_value=0.4, max_value=0.6),
)
def test_uniform_scan_fixed_points_meet_fix_tol(h1, h2, wage, n1):
    # The uniform-plateau family: two groups with Uniform01 costs and a
    # balanced economy, n1 * payoff_tp = (1 - n1) * cost_fp.
    economy = EconomyConfig(wage=wage, payoff_tp=1.0, cost_fp=n1 / (1.0 - n1))
    groups = (
        GroupSpec(id="a1", proportion=n1, cost=Uniform01()),
        GroupSpec(id="a2", proportion=1.0 - n1, cost=Uniform01()),
    )
    model = UniformThreshold((("a1", h1), ("a2", h2)))
    config = DynamicsConfig()
    records = find_equilibria_scan(economy, groups, model, grid=7, config=config)
    assert records
    for rec in records:
        if rec.kind == "FixedPoint":
            _, after = step(economy, groups, model, rec.state)
            assert after.sup_distance(rec.state) <= config.fix_tol


def _bisection(f, lo, hi):
    """The bracket plain bisection ends on for f(lo) > 0 >= f(hi), and the
    number of evaluations it takes."""
    evals = 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return (lo, hi), evals
        evals += 1
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _check_sign_change(f, lo, hi, monotone):
    """_sign_change's contract on f(lo) > 0 >= f(hi): an adjacent-float sign
    change inside [lo, hi], within 2 * n + 2 evaluations where bisection takes
    n, and bisection's own bracket, bit for bit, when f is monotone, within
    n + 2 evaluations when it is also 0 at hi. Returns both evaluation
    counts."""
    calls = []
    a, b = _sign_change(lambda x: calls.append(x) or f(x), lo, hi, f(lo), f(hi))
    assert lo <= a < b <= hi and math.nextafter(a, hi) == b
    assert f(a) > 0.0 >= f(b)
    want, n_bisect = _bisection(f, lo, hi)
    if monotone:
        assert (a.hex(), b.hex()) == (want[0].hex(), want[1].hex())
        if f(hi) == 0.0:
            assert len(calls) <= n_bisect + 3
    assert len(calls) <= 2 * n_bisect + 2
    return len(calls), n_bisect


def _reference_root(f, lo, hi, flo):
    # the scan's root bisection without its step cap: an exact zero returns
    # at once, otherwise it runs to adjacent floats
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid


def test_sign_change_on_the_root_scan_functions():
    model = ScoreModel((("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),))
    group = GroupSpec(id="g", proportion=1.0, cost=TruncatedNormal(mu=0.52, sigma=0.1))
    phi = analysis._phi_single(EconomyConfig(wage=1.0), group, model, 2001)
    fs = [  # (f, monotone, smooth)
        (lambda x: phi(x)[0] - x, False, True),  # monotone only up to rounding
        (lambda x: x - 0.3, True, True),
        (lambda x: x - 0.5, True, True),  # an exact zero at the first midpoint
        (lambda x: x ** 3 - 1e-3, True, True),
        (lambda x: 1.0 if x > 1.0 / 3.0 else -1.0, True, False),  # a jump, never zero
        (lambda x: 0.7 - x, True, True),
    ]
    third = 1.0 / 3.0
    brackets = [(0.0, 1.0), (0.005, 0.015), (0.85, 0.9), (third, math.nextafter(third, 1.0))]
    checked = 0
    for f, monotone, smooth in fs:
        for lo, hi in brackets:
            flo, fhi = f(lo), f(hi)
            if flo * fhi >= 0.0:
                continue
            sign = 1.0 if flo > 0.0 else -1.0
            evals, n_bisect = _check_sign_change(lambda x, f=f: sign * f(x), lo, hi, monotone)
            if smooth and n_bisect > 2:
                # the secant converges superlinearly where bisection halves
                assert evals <= n_bisect // 2
            root = analysis._scan_root(f, lo, hi, flo, fhi)
            assert type(root) is float and lo <= root <= hi
            if monotone:
                assert root.hex() == _reference_root(f, lo, hi, flo).hex()
            checked += 1
    assert checked >= 8


def test_sign_change_stays_within_twice_bisection_on_adversarial_functions():
    # Regula falsi alone creeps along a bracket whose values differ by 300
    # orders of magnitude, and its Illinois halving underflows on subnormal
    # values (a zero denominator); both must stay within the bound.
    for f in (
        lambda x: 1e-300 if x < 0.7 else -5.0,
        lambda x: 5.0 if x < 0.7 else -1e-300,
        lambda x: 1e-310 * (0.3 - x),
        lambda x: 1e-310 * (0.3 - x ** 3),
        lambda x: 0.5 - min(1.0, 2.0 * x),  # exactly 0 on [0.25, 1]
    ):
        for lo, hi in ((0.0, 1.0), (0.1, 0.9), (1e-300, 1.0)):
            _check_sign_change(f, lo, hi, monotone=True)


def test_sign_change_inverts_cost_cdfs_as_bisection_does():
    # The uniform plateau's beta: the smallest benefit where G(beta) >= pi.
    rng = np.random.default_rng(11)
    costs = [Uniform01()]
    for _ in range(30):
        normal = TruncatedNormal(mu=rng.uniform(0.2, 0.8), sigma=rng.uniform(0.05, 0.3))
        costs += [
            normal,
            Shifted(Uniform01(), rng.uniform(0.0, 0.5)),
            Scaled(Uniform01(), rng.uniform(1.0, 3.0)),
            Shifted(normal, rng.uniform(0.0, 0.3)),
            Scaled(normal, rng.uniform(1.0, 2.0)),
        ]
    inverted = 0
    for cost in costs:
        levels = (*rng.uniform(0.0, 1.0, 8), 1e-7 * rng.uniform(), 1.0 - 1e-9 * rng.uniform(), 1.0)
        for pi in levels:
            pi, w = float(pi), float(rng.uniform(0.3, 1.5))
            f = lambda x: pi - cost.cdf(x)
            if not f(0.0) > 0.0 >= f(w):
                continue
            _check_sign_change(f, 0.0, w, monotone=True)
            inverted += 1
    assert inverted >= 1000


@st.composite
def _decreasing_functions(draw):
    """A drawn non-increasing f with f(lo) > 0 >= f(hi): a linear term plus
    downward steps, times a scale from subnormal to huge. Each term is
    non-increasing and float rounding keeps a sum of them so.

    The bracket is drawn first and f is built around it: the linear term
    crosses zero and the steps drop at or below hi, so f(hi) <= 0; when that
    leaves f(lo) = 0, one more step drops at hi; and the scale is drawn
    from the powers of ten that keep f(lo) from underflowing to 0."""
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
    slope = draw(st.sampled_from([0.0, 1.0, draw(st.floats(1e-3, 1e3))]))
    cross = draw(st.floats(0.0, hi))
    steps = draw(st.lists(st.tuples(st.floats(0.0, hi), st.floats(1e-300, 1e3)), max_size=4))

    def total(x):
        value = slope * (cross - x)
        for at, drop in steps:
            if x < at:
                value += drop
        return value

    if not total(lo) > 0.0:
        steps.append((hi, 2.0 * -total(lo) + draw(st.floats(1e-300, 1e3))))
    assert total(lo) > 0.0 >= total(hi)
    least = -320
    while not 10.0 ** least * total(lo) > 0.0:
        least += 1
    scale = 10.0 ** draw(st.integers(least, 300))

    def f(x):
        return scale * total(x)

    return f, lo, hi


@settings(max_examples=200, deadline=None)
@given(_decreasing_functions())
def test_sign_change_matches_bisection_on_drawn_monotone_functions(drawn):
    f, lo, hi = drawn
    _check_sign_change(f, lo, hi, monotone=True)


def test_score_scan_roots_are_python_floats():
    model = ScoreModel((("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),))
    group = GroupSpec(id="g", proportion=1.0, cost=TruncatedNormal(mu=0.6, sigma=0.1))
    records = find_equilibria_scan(EconomyConfig(wage=1.0), [group], model, grid=101)
    assert len(records) == 3
    for rec in records:
        assert type(rec.state.rates[0]) is float
        assert type(rec.residual) is float
        assert rec.derivative_stable is None or type(rec.derivative_stable) is bool


@settings(max_examples=15, deadline=None)
@given(
    h1=st.floats(min_value=0.3, max_value=0.5),
    h2=st.floats(min_value=0.7, max_value=0.9),
    wage=st.floats(min_value=0.5, max_value=0.7),
    n1=st.floats(min_value=0.4, max_value=0.6),
    start=st.tuples(*[st.floats(min_value=1e-3, max_value=1.0)] * 2),
)
def test_uniform_decoupled_rates_never_fall_below_joint_rates(h1, h2, wage, n1, start):
    # The uniform-plateau family: per-group cuts give each group its best
    # benefit w (TPR 1, FPR 0), which a shared cut can only match.
    economy = EconomyConfig(wage=wage, payoff_tp=1.0, cost_fp=n1 / (1.0 - n1))
    groups = (
        GroupSpec(id="a1", proportion=n1, cost=Uniform01()),
        GroupSpec(id="a2", proportion=1.0 - n1, cost=Uniform01()),
    )
    model = UniformThreshold((("a1", h1), ("a2", h2)))
    state = QualificationState(ids=("a1", "a2"), rates=start)
    settled = {
        mode: settled_state(iterate(economy, groups, model, state, DynamicsConfig(mode=mode)))
        for mode in ("joint", "decoupled")
    }
    assert settled["joint"] is not None and settled["decoupled"] is not None
    for joint, decoupled in zip(settled["joint"].rates, settled["decoupled"].rates):
        assert decoupled >= joint


# ---------------------------------------------------------------------------
# Multi-group scan: starts resolved from their first image
# ---------------------------------------------------------------------------

CRITERION_10 = DynamicsConfig(max_iters=300, fix_tol=1e-6, theta_grid=401)


def full_run_verdicts(economy, groups, model, starts, config):
    """Reference scan loop without images: every start runs in full, all on
    one shared memo."""
    ids = tuple(g.id for g in groups)
    memo: dict = {}
    return [
        iterate(economy, groups, model, QualificationState(ids, s), config, memo=memo).verdict
        for s in starts
    ]


def resolved(economy, groups, model, starts, config):
    """Each start's verdict as the scan resolves it, and whether it ran in
    full (its outcome's trace starts at the start itself)."""
    outcomes = list(analysis._start_outcomes(economy, groups, model, starts, config))
    return (
        [o.verdict for o in outcomes],
        [o.trace[0].state.rates == s for o, s in zip(outcomes, starts)],
    )


def unequal_halfspace():
    """The criterion-05 halfspace anchor with group sizes 0.4 and 0.6. Its
    angle weights 0.4 (1 + pi_1) and 0.6 (1 + pi_2) tie on grid starts such
    as (0.5, 0.0) and (0.65, 0.1), so the scan meets the weight-gap tie."""
    economy, (g1, g2), model = verification._halfspace_scenario(2.0, 1.0)
    groups = (
        GroupSpec(id=g1.id, proportion=0.4, cost=g1.cost),
        GroupSpec(id=g2.id, proportion=0.6, cost=g2.cost),
    )
    return economy, groups, model


def three_group_uniform():
    """tests/golden/uniform_three.json: with three groups the scan starts on
    the diagonal and on the axis lines through 0.5."""
    groups = tuple(
        GroupSpec(id=g, proportion=n, cost=Uniform01())
        for g, n in (("a1", 0.4), ("a2", 0.3), ("a3", 0.3))
    )
    return EconomyConfig(wage=0.6), groups, UniformThreshold({"a1": 0.4, "a2": 0.6, "a3": 0.8})


def scan_cases():
    """(name, scenario, config, grid, edge): with edge, some start at exactly
    fix_tol from a traced state shares that trace's rule, so the scan meets
    its guard's boundary. A power-of-two fix_tol makes that distance exact
    from a nonzero rate, not only from a rate of 0."""
    uniform = verification._uniform_reference()
    pair = verification._halfspace_scenario(2.0, 1.0)
    cycle = verification._halfspace_scenario(1.0, 2.0)
    exact = DynamicsConfig(fix_tol=2.0**-30)
    return [
        ("uniform three groups", three_group_uniform(), DynamicsConfig(), 21, False),
        ("uniform joint", uniform, DynamicsConfig(), 21, False),
        ("uniform joint, fix_tol 2^-30", uniform, exact, 21, True),
        ("uniform decoupled", uniform, DynamicsConfig(mode="decoupled"), 21, False),
        ("halfspace stable pair", pair, DynamicsConfig(), 21, True),
        ("halfspace period 2", cycle, DynamicsConfig(), 21, True),
        ("halfspace period 2, fix_tol 2^-30", cycle, exact, 21, True),
        ("halfspace unequal sizes", unequal_halfspace(), DynamicsConfig(), 21, True),
        ("two-valley score", verification._two_valley_scenario(), CRITERION_10, 5, True),
    ]


def edge_starts(verdicts, fix_tol):
    """For each fixed point and cycle state t in verdicts, and each rate of t
    that can move by exactly fix_tol inside [0, 1]: (t, t with that rate
    moved fix_tol, t with it moved one float farther)."""
    traced = []
    for v in verdicts:
        if isinstance(v, FixedPoint):
            states = (v.state,)
        else:
            states = v.states if isinstance(v, LimitCycle) else ()
        for state in states:
            if state.rates not in traced:
                traced.append(state.rates)
    edges = []
    for t in traced:
        for j, rate in enumerate(t):
            for sign in (1.0, -1.0):
                at = rate + sign * fix_tol
                if 0.0 <= at <= 1.0 and abs(at - rate) == fix_tol:
                    past = math.nextafter(at, sign * math.inf)
                    edges.append((t, t[:j] + (at,) + t[j + 1:], t[:j] + (past,) + t[j + 1:]))
    return edges


@pytest.mark.parametrize("case", scan_cases(), ids=lambda case: case[0])
def test_inherited_verdicts_match_full_runs(case):
    _, (economy, groups, model), config, grid, edge = case
    groups = tuple(sorted(groups, key=lambda g: g.id))
    starts = analysis._multi_starts(len(groups), grid)
    want = full_run_verdicts(economy, groups, model, starts, config)
    edges = edge_starts(want, config.fix_tol)
    extra = [s for triple in edges for s in triple]
    want += full_run_verdicts(economy, groups, model, extra, config)
    got, full = resolved(economy, groups, model, starts + extra, config)
    # repr tells -0.0 from 0.0, so this is a match bit for bit
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert not all(full)  # some starts did inherit
    met = [full[i:i + 3] for i in range(len(starts), len(full), 3)]
    assert all(at_trace for at_trace, _, _ in met)  # a traced state runs in full
    if edge:
        # the guard tests > fix_tol: the start at fix_tol runs in full, the
        # one a float farther inherits
        assert [True, True, False] in met


def reference_clusters(outcomes, radius):
    """The scan's fixed-point clustering, visiting every verdict: each
    cluster's (state, residual), sorted by rates."""
    fixed = []
    for outcome in outcomes:
        v = outcome.verdict
        if isinstance(v, FixedPoint):
            for i, (state, residual) in enumerate(fixed):
                if v.state.sup_distance(state) <= radius:
                    if v.residual < residual:
                        fixed[i] = (v.state, v.residual)
                    break
            else:
                fixed.append((v.state, v.residual))
    return sorted(fixed, key=lambda item: item[0].rates)


def scripted_scan(monkeypatch, script):
    """The records _scan_multi_group makes of a scripted outcome sequence on
    the uniform reference; a callable entry makes a fresh outcome, held by
    nothing but the scan once it is yielded."""

    def outcomes(*args):
        for entry in script:
            yield entry() if callable(entry) else entry

    monkeypatch.setattr(analysis, "_start_outcomes", outcomes)
    return analysis._scan_multi_group(
        *verification._uniform_reference(), 2, DynamicsConfig(), 0
    )


def fixed_at(rate, residual):
    state = QualificationState(("a1", "a2"), (rate, 0.3))
    return dynamics.DynamicsOutcome(trace=(), verdict=FixedPoint(state, residual))


def fixed_records(records):
    return [(r.state, r.residual) for r in records if r.kind == "FixedPoint"]


def test_the_scan_revisits_an_outcome_after_a_replacement(monkeypatch):
    # The cluster radius is 10 fix_tol = 1e-8. A starts its own cluster next
    # to X's; B then replaces X's representative with a state within 1e-8
    # of A, so A's second visit falls in X's cluster and, with the smaller
    # residual, replaces B there. Skipping that visit would keep B.
    x, a, b = fixed_at(0.3, 5e-10), fixed_at(0.3 + 1.5e-8, 1e-10), fixed_at(0.3 + 0.8e-8, 3e-10)
    corners = tuple(QualificationState(("a1", "a2"), rates) for rates in ((0.8, 0.0), (0.0, 0.8)))
    cycle = dynamics.DynamicsOutcome(trace=(), verdict=LimitCycle(corners, 2))
    script = [x, a, cycle, b, a, a, cycle]
    records = scripted_scan(monkeypatch, script)
    want = reference_clusters(script, 1e-8)
    assert want == [(a.verdict.state, 1e-10)] * 2
    assert fixed_records(records) == want
    assert [r.kind for r in records].count("LimitCycle") == 1


def test_the_scan_keys_no_freed_outcome(monkeypatch):
    # Fresh outcome objects, each freed once the scan has read it unless the
    # scan keeps it: a freed outcome's id can come back for the next one,
    # which must still be visited.
    script = [lambda k=k: fixed_at(0.05 * k, 0.0) for k in range(20)]
    records = scripted_scan(monkeypatch, script)
    assert fixed_records(records) == reference_clusters([f() for f in script], 1e-8)
    assert len(records) == 20


def test_a_start_at_a_fixed_point_runs_in_full():
    economy, groups, model = verification._uniform_reference()
    starts = [(0.6, 0.3)]  # the h1 corner: its image is itself
    got, full = resolved(economy, groups, model, starts, DynamicsConfig())
    assert full == [True]
    assert got == full_run_verdicts(economy, groups, model, starts, DynamicsConfig())
    assert isinstance(got[0], FixedPoint)


def test_a_start_on_its_images_cycle_runs_in_full():
    # Period-2 regime: the start is one corner of the cycle, so its image is
    # the other corner and the image run's trace comes back to the start.
    # The image run's cycle begins at the wrong corner, so inheriting would
    # change the verdict.
    economy, groups, model = verification._halfspace_scenario(1.0, 2.0)
    corner = (float(Uniform01().cdf(0.8)), 0.0)
    config = DynamicsConfig()
    got, full = resolved(economy, groups, model, [corner], config)
    want = full_run_verdicts(economy, groups, model, [corner], config)
    assert full == [True]
    assert got == want
    assert isinstance(want[0], LimitCycle) and want[0].states[0].rates == corner
    image = step(economy, groups, model, QualificationState(("g1", "g2"), corner))[1]
    assert iterate(economy, groups, model, image, config).verdict != want[0]


@pytest.mark.parametrize("max_iters, verdict", [(3, LimitCycle), (2, NonConverged)])
def test_an_image_run_near_the_budget_is_not_inherited(max_iters, verdict):
    # From (0.7, 0.2) the period-2 map goes to one corner; the run from that
    # image closes its cycle at t = 2. That is max_iters - 1 steps at
    # max_iters = 3, and the whole budget at max_iters = 2, where the
    # start's own run ends NonConverged.
    economy, groups, model = verification._halfspace_scenario(1.0, 2.0)
    config = DynamicsConfig(max_iters=max_iters)
    starts = [(0.7, 0.2)]
    got, full = resolved(economy, groups, model, starts, config)
    assert full == [True]
    assert got == full_run_verdicts(economy, groups, model, starts, config)
    assert isinstance(got[0], verdict)
    # one more step of budget and the start inherits
    roomy = DynamicsConfig(max_iters=max_iters + 2)
    got, full = resolved(economy, groups, model, starts, roomy)
    assert full == [False]
    assert got == full_run_verdicts(economy, groups, model, starts, roomy)


def start_rules(economy, groups, model, starts, config):
    """Each start's rule, read from the scan's (index, table) pair."""
    index, table = analysis._start_rules(economy, groups, model, starts, config)
    assert len(index) == len(starts)
    return [table[i] for i in index]


def test_the_scan_logs_its_starts_and_the_ones_it_drops(caplog):
    # Period-2 regime with a budget of 2 steps: no image run may be
    # inherited, and every start off the cycle's corners runs out of steps.
    economy, groups, model = verification._halfspace_scenario(1.0, 2.0)
    config = DynamicsConfig(max_iters=2)
    starts = analysis._multi_starts(2, 5)
    want = full_run_verdicts(economy, groups, model, starts, config)
    dropped = [s for s, v in zip(starts, want) if isinstance(v, NonConverged)]
    assert len(dropped) == 20
    quiet = find_equilibria_scan(economy, groups, model, grid=5, config=config)
    assert not caplog.records  # silent at the default level
    caplog.set_level(logging.DEBUG, logger="qualdyn.analysis")
    assert find_equilibria_scan(economy, groups, model, grid=5, config=config) == quiet
    (logged,) = caplog.records
    assert logged.name == "qualdyn.analysis" and logged.levelno == logging.DEBUG
    # starts, distinct rules, image runs, full runs, dropped, the first five
    assert logged.args == (25, 3, 3, 25, 20, dropped[:5])
    caplog.clear()
    assert find_equilibria_scan(*verification._halfspace_scenario(2.0, 1.0), grid=5)
    (logged,) = caplog.records
    assert logged.args == (25, 3, 3, 0, 0, [])


def test_the_unequal_halfspace_scan_meets_weight_ties():
    economy, groups, model = unequal_halfspace()
    starts = analysis._multi_starts(2, 21)
    rules = start_rules(economy, groups, model, starts, DynamicsConfig())
    ties = [s for s, rule in zip(starts, rules) if rule is model._arc[1]]
    assert (0.5, 0.0) in ties and (0.65, 0.1) in ties
    assert not any(a == b for a, b in ties)  # weight ties, off the diagonal


_rates = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=60, deadline=None)
@given(
    angle=st.floats(min_value=0.05, max_value=0.95),
    wage=st.floats(min_value=0.2, max_value=2.0),
    payoff_tp=st.floats(min_value=0.2, max_value=3.0),
    cost_fp=st.one_of(st.none(), st.floats(min_value=0.2, max_value=3.0)),  # None: = payoff_tp
    n1=st.one_of(st.just(0.5), st.floats(min_value=0.1, max_value=0.9)),
    starts=st.lists(
        st.one_of(st.tuples(_rates, _rates), _rates.map(lambda r: (r, r))),  # diagonal: ties
        min_size=1, max_size=20,
    ),
)
def test_array_rules_are_the_per_start_rules(angle, wage, payoff_tp, cost_fp, n1, starts):
    # The scan keys halfspace rules by identity, so the array pass must hand
    # back the very table vectors a per-start best response returns.
    cost_fp = payoff_tp if cost_fp is None else cost_fp
    economy = EconomyConfig(wage=wage, payoff_tp=payoff_tp, cost_fp=cost_fp)
    groups = (
        GroupSpec(id="a", proportion=n1, cost=Uniform01()),
        GroupSpec(id="b", proportion=1.0 - n1, cost=Uniform01()),
    )
    turn = math.pi * angle
    model = GaussianHalfspace((("a", (1.0, 0.0)), ("b", (math.cos(turn), math.sin(turn)))))
    if payoff_tp != cost_fp:
        # each start's weight-tie partner: 0 = n1 (c + (p - c) pi_1) - n2 (c + (p - c) pi_2)
        for pi1, _ in list(starts):
            pi2 = (n1 * (cost_fp + (payoff_tp - cost_fp) * pi1) / (1.0 - n1) - cost_fp) / (
                payoff_tp - cost_fp
            )
            if 0.0 <= pi2 <= 1.0:
                starts.append((pi1, pi2))
    config = DynamicsConfig()
    rules = start_rules(economy, groups, model, starts, config)
    for rates, rule in zip(starts, rules):
        state = QualificationState(ids=("a", "b"), rates=rates)
        want = dynamics._rule(
            economy, groups, model, state, "joint", config.theta_grid, config.tie_tol
        )
        assert rule is want


def test_array_rules_keep_the_two_group_error():
    economy, _, _ = verification._halfspace_scenario(2.0, 1.0)
    groups = tuple(GroupSpec(id=g, proportion=1.0 / 3.0, cost=Uniform01()) for g in "abc")
    model = GaussianHalfspace({"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (1.0, 1.0)})
    with pytest.raises(ConfigurationError, match="supports exactly two groups"):
        find_equilibria_scan(economy, groups, model, grid=3)


def test_rule_keys():
    key = analysis._rule_key
    assert key(0.0) != key(-0.0)
    assert key(0.4) == key(0.4)
    assert key({"a": 0.4, "b": 0.8}) == key({"b": 0.8, "a": 0.4})
    assert key({"a": 0.0, "b": 0.8}) != key({"a": -0.0, "b": 0.8})
    _, _, model = verification._halfspace_scenario(2.0, 1.0)
    ends, midpoint, _ = model._arc
    assert key(midpoint) == key(midpoint)
    assert key(midpoint) != key(midpoint.copy())
    assert key(ends[0]) != key(ends[1])


def test_zero_and_negative_zero_rules_get_their_own_images(monkeypatch):
    economy, groups, model = verification._uniform_reference()
    images = []
    real_response = analysis._population_response

    def scripted_rule(economy, groups, model, state, *args):
        return 0.0 if state.rates[0] < 0.5 else -0.0

    def counting_response(economy, groups, model, theta):
        images.append(theta)
        return real_response(economy, groups, model, theta)

    monkeypatch.setattr(analysis, "_rule", scripted_rule)
    monkeypatch.setattr(analysis, "_population_response", counting_response)
    starts = analysis._multi_starts(2, 5)
    list(analysis._start_outcomes(economy, groups, model, starts, DynamicsConfig()))
    assert [math.copysign(1.0, th) for th in images] == [1.0, -1.0]


def test_a_deep_copied_halfspace_model_scans_to_the_same_records():
    # The copy's table vectors are new objects, so its rules key apart from
    # the original's and its rates take the checked path.
    for payoff_tp, cost_fp in ((2.0, 1.0), (1.0, 2.0)):
        economy, groups, model = verification._halfspace_scenario(payoff_tp, cost_fp)
        twin = copy.deepcopy(model)
        assert twin._arc[1] is not model._arc[1]
        got = find_equilibria_scan(economy, groups, twin)
        want = find_equilibria_scan(economy, groups, model)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.label, a.kind, a.state, a.stability, a.residual, a.cycle, a.period) == (
                b.label, b.kind, b.state, b.stability, b.residual, b.cycle, b.period
            )
            assert np.array_equal(
                np.asarray(a.theta, dtype=float), np.asarray(b.theta, dtype=float), equal_nan=True
            )


@settings(max_examples=10, deadline=None)
@given(
    n_a=st.floats(min_value=0.3, max_value=0.7),
    a=st.tuples(st.floats(min_value=3.5, max_value=5.5), st.floats(min_value=1.5, max_value=2.5)),
    b=st.tuples(st.floats(min_value=3.5, max_value=5.5), st.floats(min_value=1.5, max_value=2.5)),
    mu=st.floats(min_value=0.45, max_value=0.65),
)
def test_two_group_score_scan_fixed_points_meet_fix_tol(n_a, a, b, mu):
    # Two score groups with mirrored Beta scores and one steep cost, scanned
    # on the 5 x 5 grid with criterion 10's settings. Cheaper costs (mu near
    # 0.3) make most starts chaotic: they run all 300 steps and end
    # NonConverged, and one scan takes seconds.
    economy = EconomyConfig(wage=1.0)
    cost = TruncatedNormal(mu=mu, sigma=0.1)
    groups = (
        GroupSpec(id="a", proportion=n_a, cost=cost),
        GroupSpec(id="b", proportion=1.0 - n_a, cost=cost),
    )
    model = ScoreModel(
        {
            "a": GroupScores(y1=BetaScore(*a), y0=BetaScore(a[1], a[0])),
            "b": GroupScores(y1=BetaScore(*b), y0=BetaScore(b[1], b[0])),
        }
    )
    records = find_equilibria_scan(economy, groups, model, grid=5, config=CRITERION_10)
    for rec in records:
        if rec.kind == "FixedPoint":
            assert rec.residual <= CRITERION_10.fix_tol
            _, after = step(
                economy, groups, model, rec.state, grid_size=CRITERION_10.theta_grid
            )
            assert after.sup_distance(rec.state) <= CRITERION_10.fix_tol
