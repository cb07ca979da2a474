"""Best-response dynamics: stepping, verdicts, stability probes, traces."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qualdyn import (
    BetaScore,
    ConfigurationError,
    DynamicsConfig,
    EconomyConfig,
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
    TruncatedNormal,
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
from qualdyn import dynamics, verification
from qualdyn.analysis import find_equilibria_scan, gaussian_closed_forms, uniform_closed_forms


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


def full_length_verdict(economy, groups, model, fixed_point, config, seed=0):
    """Reference stability rule without early stops: run every probe through
    a full iterate and pass it if any state after the start lies within the
    return ball."""
    eps = config.perturb_eps
    base = np.array(fixed_point.rates)
    probes = []
    for i in range(len(base)):
        for sign in (+1.0, -1.0):
            cand = base.copy()
            cand[i] = min(1.0, max(0.0, cand[i] + sign * eps))
            if np.max(np.abs(cand - base)) > 0.0:
                probes.append(cand)
    rng = np.random.default_rng(seed)
    joint = np.clip(base + rng.uniform(-eps, eps, size=base.size), 0.0, 1.0)
    if np.max(np.abs(joint - base)) > 0.0:
        probes.append(joint)
    return_tol = max(config.fix_tol, 1e-3 * eps)
    for cand in probes:
        start = QualificationState(ids=fixed_point.ids, rates=tuple(float(x) for x in cand))
        trace = iterate(economy, groups, model, start, config).trace
        if not any(rec.state.sup_distance(fixed_point) <= return_tol for rec in trace[1:]):
            return "Unstable"
    return "Stable"


def score_anchor_roots():
    """The criterion-07 steep-cost score map and its three roots, in order."""
    economy, groups, model = verification._steep_cost_scenario()
    records = find_equilibria_scan(economy, groups, model)
    roots = sorted((r.state for r in records), key=lambda s: s.rates[0])
    return economy, groups, model, roots


def stability_cases():
    """(name, economy, groups, model, fixed point) for each reference root."""
    cases = []
    economy, groups, model = uniform_reference()
    for rec in uniform_closed_forms(0.4, 0.8, 0.6, economy, groups).records:
        cases.append((f"uniform {rec.label}", economy, groups, model, rec.state))
    economy, groups, model, roots = score_anchor_roots()
    for i, root in enumerate(roots):
        cases.append((f"score root {i}", economy, groups, model, root))
    economy = EconomyConfig(wage=0.8, payoff_tp=2.0, cost_fp=1.0)
    groups = (
        GroupSpec(id="a1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="a2", proportion=0.5, cost=Uniform01()),
    )
    model = GaussianHalfspace((("a1", (1.0, 0.0)), ("a2", (0.0, 1.0))))
    forms = gaussian_closed_forms((1.0, 0.0), (0.0, 1.0), 0.8, Uniform01(), economy)
    for rec in forms.records:
        cases.append((f"gaussian {rec.label}", economy, groups, model, rec.state))
    return cases


def test_early_stopped_probes_give_the_full_length_verdicts():
    got, config = {}, DynamicsConfig()
    for name, economy, groups, model, state in stability_cases():
        want = full_length_verdict(economy, groups, model, state, config)
        assert classify_stability(economy, groups, model, state, config) == want, name
        got[name] = want
    assert got == {
        "uniform h1": "Stable", "uniform h2": "Stable", "uniform h_mid": "Unstable",
        "score root 0": "Stable", "score root 1": "Unstable", "score root 2": "Unstable",
        "gaussian h1": "Stable", "gaussian h2": "Stable", "gaussian h_mid": "Unstable",
    }
    # perturb_eps = 1e-3 puts the escape radius at 1, beyond every state,
    # so only the return stop acts
    economy, groups, model, roots = score_anchor_roots()
    wide = DynamicsConfig(perturb_eps=1e-3)
    for root in roots:
        want = full_length_verdict(economy, groups, model, root, wide)
        assert classify_stability(economy, groups, model, root, wide) == want


def count_steps(monkeypatch):
    calls = []
    real = dynamics.step

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", counting)
    return calls


def test_stable_probes_stop_at_their_first_return(monkeypatch):
    economy, groups, model = uniform_reference()
    corner = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    calls = count_steps(monkeypatch)
    assert classify_stability(economy, groups, model, corner) == "Stable"
    # one step checks the fixed point, then one step for each of the five
    # probes (+/- eps on each coordinate and one joint kick)
    assert len(calls) == 1 + 5


def test_unstable_probes_stop_once_they_escape(monkeypatch):
    economy, groups, model, roots = score_anchor_roots()
    calls = count_steps(monkeypatch)
    # run to the end, the first probe of this root is chaotic for all
    # max_iters = 500 steps; it leaves the escape ball within a few
    assert classify_stability(economy, groups, model, roots[1]) == "Unstable"
    assert len(calls) <= 20


def numpy_probe_starts(rates, eps, seed):
    """The probe starts built with numpy arrays: the reference that
    dynamics._probe_starts matches bit for bit."""
    base = np.array(rates)
    probes = []
    for i in range(len(base)):
        for sign in (+1.0, -1.0):
            cand = base.copy()
            cand[i] = min(1.0, max(0.0, cand[i] + sign * eps))
            if np.max(np.abs(cand - base)) > 0.0:
                probes.append(cand)
    rng = np.random.default_rng(seed)
    joint = np.clip(base + rng.uniform(-eps, eps, size=base.size), 0.0, 1.0)
    if np.max(np.abs(joint - base)) > 0.0:
        probes.append(joint)
    return [tuple(float(x) for x in cand) for cand in probes]


def float_bits(starts):
    """Each start's entries as hex strings, which tell -0.0 from 0.0."""
    return [tuple(x.hex() for x in start) for start in starts]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from((0.0, -0.0, 1.0, 5e-324)),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from((1e-12, 1e-4, 0.5, 2.0)),
    st.integers(min_value=0, max_value=4),
)
def test_probe_starts_match_the_numpy_construction_bit_for_bit(rates, eps, seed):
    rates = tuple(rates)
    want = numpy_probe_starts(rates, eps, seed)
    # twice: a kick drawn, then the same kick read from the cache
    assert float_bits(dynamics._probe_starts(rates, eps, seed)) == float_bits(want)
    assert float_bits(dynamics._probe_starts(rates, eps, seed)) == float_bits(want)
    fresh = np.random.default_rng(seed).uniform(-eps, eps, len(rates))
    assert [k.hex() for k in dynamics._joint_kick(seed, eps, len(rates))] == [
        float(k).hex() for k in fresh
    ]


def test_a_repeated_probe_draws_no_generator(monkeypatch):
    economy, groups, model = uniform_reference()
    corner = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or real(seed))
    dynamics._joint_kick.cache_clear()
    for _ in range(3):
        assert classify_stability(economy, groups, model, corner, seed=7) == "Stable"
    assert made == [7]
    # a seed that is not an int is drawn afresh, as numpy would draw it
    for _ in range(2):
        classify_stability(economy, groups, model, corner, seed=np.int64(7))
    assert len(made) == 3


def memo_cases():
    """(name, economy, groups, model, config, two starts) for each family."""
    criterion_10 = dict(max_iters=300, fix_tol=1e-6, theta_grid=401)
    uniform = verification._uniform_reference()
    score = verification._two_valley_scenario()
    halfspace = verification._halfspace_scenario(1.0, 2.0)
    return [
        ("uniform joint", *uniform, DynamicsConfig(), (0.9, 0.9), (0.2, 0.7)),
        ("score joint", *score, DynamicsConfig(**criterion_10), (0.3, 0.3), (0.5, 0.5)),
        ("halfspace joint", *halfspace, DynamicsConfig(), (0.7, 0.2), (0.1, 0.9)),
        ("uniform decoupled", *uniform, DynamicsConfig(mode="decoupled"),
         (0.05, 0.05), (0.3, 0.8)),
        ("score decoupled", *score, DynamicsConfig(mode="decoupled", **criterion_10),
         (0.3, 0.3), (0.5, 0.5)),
    ]


@pytest.mark.parametrize("case", memo_cases(), ids=lambda case: case[0])
def test_a_shared_memo_leaves_every_trace_unchanged(monkeypatch, case):
    _, economy, groups, model, config, a, b = case
    ids = tuple(g.id for g in groups)
    first = QualificationState(ids=ids, rates=a)
    # the third start lies on the first run's path, so its run is all memo hits
    middle = iterate(economy, groups, model, first, config).trace
    starts = [first, QualificationState(ids=ids, rates=b), middle[len(middle) // 2].state]
    calls = count_steps(monkeypatch)
    fresh = [trace_lines(iterate(economy, groups, model, s, config), model) for s in starts]
    fresh_steps = len(calls)
    calls.clear()
    memo: dict = {}
    shared = [
        trace_lines(iterate(economy, groups, model, s, config, memo=memo), model)
        for s in starts
    ]
    assert shared == fresh
    assert len(calls) == len(memo) < fresh_steps


def theta_bits(theta):
    if isinstance(theta, dict):
        return {gid: theta_bits(th) for gid, th in theta.items()}
    return np.asarray(theta, dtype=float).tobytes()


def record_bits(rec):
    return (
        rec.t, [r.hex() for r in rec.state.rates],
        None if rec.theta is None else theta_bits(rec.theta),
        None if rec.utility is None else rec.utility.hex(), rec.balance.hex(),
    )


def eager_records(economy, groups, model, start, config, n):
    """The first n trace records of a run from start, each step's utility and
    balance evaluated as the step is taken."""
    records = [dynamics.TraceRecord(0, start, None, None, dynamics.balance(start))]
    state = start
    for t in range(1, n):
        theta, state = step(
            economy, groups, model, state, config.mode,
            grid_size=config.theta_grid, tie_tol=config.tie_tol,
        )
        utility = dynamics.institutional_utility(economy, groups, model, theta, state)
        records.append(dynamics.TraceRecord(t, state, theta, utility, dynamics.balance(state)))
    return records


@pytest.mark.parametrize("case", memo_cases(), ids=lambda case: case[0])
def test_the_trace_is_built_on_read_with_the_eager_records(monkeypatch, case):
    _, economy, groups, model, config, a, b = case
    ids = tuple(g.id for g in groups)
    utilities = []
    real = dynamics.institutional_utility

    def counted(*args):
        utilities.append(None)
        return real(*args)

    monkeypatch.setattr(dynamics, "institutional_utility", counted)
    for rates in (a, b):
        start = QualificationState(ids=ids, rates=rates)
        out = iterate(economy, groups, model, start, config)
        n = len(out.trace)
        final = out.final_state
        assert utilities == []  # len and final_state build no record
        want = [record_bits(rec) for rec in eager_records(economy, groups, model, start, config, n)]
        utilities.clear()
        assert [record_bits(rec) for rec in out.trace] == want
        assert len(utilities) == n - 1  # built once, on the first read
        assert record_bits(out.trace[-1]) == want[-1] and out.trace[-1].state is final
        assert [record_bits(rec) for rec in out.trace[1:3]] == want[1:3]
        assert len(utilities) == n - 1
        utilities.clear()


@pytest.mark.parametrize("mode", ["joint", "decoupled"])
@pytest.mark.parametrize("family", ["uniform", "score", "halfspace"])
def test_step_gives_the_same_bits_at_zero_and_negative_zero(family, mode):
    # 0.0 and -0.0 are one memo key, so step must not tell them apart
    economy, groups, model = {
        "uniform": verification._uniform_reference,
        "score": verification._two_valley_scenario,
        "halfspace": lambda: verification._halfspace_scenario(2.0, 1.0),
    }[family]()
    ids = tuple(g.id for g in groups)
    for other in (0.0, 0.3, 0.8, 1.0):
        for i in range(2):
            plus, minus = [other, other], [other, other]
            plus[i], minus[i] = 0.0, -0.0
            theta_p, after_p = step(
                economy, groups, model, QualificationState(ids, tuple(plus)), mode
            )
            theta_m, after_m = step(
                economy, groups, model, QualificationState(ids, tuple(minus)), mode
            )
            assert theta_bits(theta_p) == theta_bits(theta_m)
            assert [r.hex() for r in after_p.rates] == [r.hex() for r in after_m.rates]


def test_the_multi_group_scan_steps_each_distinct_state_once(monkeypatch):
    # criterion-05 anchor: after the first step of each of the 21 x 21
    # starts, nearly every run is at a state another start has stepped
    economy, groups, model = verification._halfspace_scenario(2.0, 1.0)
    calls = count_steps(monkeypatch)
    records = find_equilibria_scan(economy, groups, model)
    assert sorted(r.stability for r in records) == ["Stable", "Stable", "Unstable"]
    assert len(calls) <= 21 * 21 + 20


def test_escape_fails_a_stable_root_whose_probes_overshoot(monkeypatch):
    # The stated risk of the escape radius, pinned: a stable linear map (both
    # eigenvalues 0.5) whose shear turns a kick of 1e-4 along the second
    # coordinate into a 0.2 move along the first, outside the 0.1 escape
    # radius, before both coordinates decay back to the fixed point.
    center = 0.5

    def sheared_step(economy, groups, model, state, mode="joint", *, grid_size=2001, tie_tol=1e-9):
        x, y = (r - center for r in state.rates)
        rates = (center + 0.5 * x + 2000.0 * y, center + 0.5 * y)
        return 0.0, QualificationState(ids=state.ids, rates=rates)

    class Passive:
        def tpr_fpr(self, group, theta):
            return 1.0, 0.0

    monkeypatch.setattr(dynamics, "step", sheared_step)
    economy = EconomyConfig(wage=0.5)
    groups = (
        GroupSpec(id="a", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="b", proportion=0.5, cost=Uniform01()),
    )
    fixed = QualificationState(ids=("a", "b"), rates=(center, center))
    config = DynamicsConfig()
    assert full_length_verdict(economy, groups, Passive(), fixed, config) == "Stable"
    assert classify_stability(economy, groups, Passive(), fixed, config) == "Unstable"


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


def test_trace_of_an_int_state_writes_floats():
    # A state built with an int rate stores it as a float, so a run from it
    # writes the trace a run from the float state writes.
    economy = EconomyConfig(wage=0.6)
    groups = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)
    model = UniformThreshold({"g": 0.5})
    traces = [
        trace_lines(
            iterate(economy, groups, model, QualificationState(ids=("g",), rates=(rate,))),
            model,
        )
        for rate in (1, 1.0)
    ]
    assert '"balance": 0.0' in traces[0][0] and '"pi": {"g": 1.0}' in traces[0][0]
    assert traces[0] == traces[1]


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


STEP_FAMILIES = {
    "uniform": verification._uniform_reference(),
    "score": verification._two_valley_scenario(),
    "one-group score": verification._steep_cost_scenario(),
    "halfspace": verification._halfspace_scenario(2.0, 1.0),
}


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(STEP_FAMILIES)),
    mode=st.sampled_from(["joint", "decoupled"]),
    # 0 and 1 often: pi = 1 starts plateaus in the scalar families
    rates=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        min_size=2, max_size=2,
    ),
)
def test_one_step_stays_in_unit_box_and_is_deterministic(family, mode, rates):
    economy, groups, model = STEP_FAMILIES[family]
    state = QualificationState(ids=tuple(g.id for g in groups), rates=tuple(rates[: len(groups)]))
    theta_a, after_a = step(economy, groups, model, state, mode)
    theta_b, after_b = step(economy, groups, model, state, mode)
    assert theta_bits(theta_a) == theta_bits(theta_b)
    assert after_a.rates == after_b.rates
    assert all(0.0 <= r <= 1.0 for r in after_a.rates)


_unit = st.floats(min_value=0.0, max_value=1.0)
_costs = st.one_of(
    st.just(Uniform01()),
    st.builds(TruncatedNormal, mu=st.floats(0.1, 0.9), sigma=st.floats(0.05, 0.3)),
)


@st.composite
def _drawn_models(draw):
    """A drawn halfspace or score economy with its groups and model: any
    boundary angle, payoffs and sizes; Beta scores without the likelihood
    ratio order, for one or two groups."""
    economy = EconomyConfig(
        wage=draw(st.floats(0.2, 2.0)),
        payoff_tp=draw(st.floats(0.2, 3.0)),
        cost_fp=draw(st.floats(0.2, 3.0)),
    )
    if draw(st.booleans()):
        n1 = draw(st.floats(0.1, 0.9))
        groups = (
            GroupSpec(id="a", proportion=n1, cost=draw(_costs)),
            GroupSpec(id="b", proportion=1.0 - n1, cost=draw(_costs)),
        )
        turn = math.pi * draw(st.floats(0.05, 0.95))
        model = GaussianHalfspace({"a": (1.0, 0.0), "b": (math.cos(turn), math.sin(turn))})
        return economy, groups, model
    ids = "ab"[: draw(st.integers(1, 2))]
    sizes = (1.0,) if len(ids) == 1 else (0.5, 0.5)
    groups = tuple(GroupSpec(id=g, proportion=n, cost=draw(_costs)) for g, n in zip(ids, sizes))
    beta = st.builds(BetaScore, st.floats(1.0, 6.0), st.floats(1.0, 6.0))
    model = ScoreModel({g: GroupScores(y1=draw(beta), y0=draw(beta)) for g in ids})
    return economy, groups, model


@settings(max_examples=40, deadline=None)
@given(
    drawn=_drawn_models(),
    mode=st.sampled_from(["joint", "decoupled"]),
    rates=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), _unit), min_size=2, max_size=2),
)
def test_a_step_of_a_drawn_model_stays_in_the_unit_box(drawn, mode, rates):
    economy, groups, model = drawn
    state = QualificationState(ids=tuple(g.id for g in groups), rates=tuple(rates[: len(groups)]))
    theta, after = step(economy, groups, model, state, mode)
    assert all(0.0 <= r <= 1.0 for r in after.rates)
    for th in theta.values() if isinstance(theta, dict) else (theta,):
        if isinstance(model, GaussianHalfspace):
            assert abs(float(np.linalg.norm(th)) - 1.0) <= 1e-12
        else:
            assert 0.0 <= th <= 1.0
