"""Named verification suites that exercise the engine end to end.

Each check rebuilds a small scenario whose behavior is known in closed
form or pinned down qualitatively, runs the dynamics, and compares the
outcome against the expected values. ``run_suite`` powers the ``verify``
subcommand of the command line; the histogram fit round-trip is run by
the test suite directly.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .analysis import (
    beta_of_pi,
    find_equilibria_scan,
    near_realizability_bound,
    subsidy_equilibrium_shift,
    uniform_closed_forms,
)
from .core import EconomyConfig, GroupSpec, QualificationState
from .costs import BimodalNormal, TruncatedNormal, Uniform01, dominates, inverse_cdf, subsidize
from .dynamics import (
    STABLE,
    DynamicsConfig,
    FixedPoint,
    LimitCycle,
    classify_stability,
    iterate,
    settled_state,
    step,
)
from .errors import ConfigurationError
from .features import (
    BetaScore,
    EmpiricalScore,
    GaussianHalfspace,
    GroupScores,
    ScoreModel,
    UniformThreshold,
    normalized_angle,
)
from .ingest import fit_beta, load_histogram


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, fn) -> CheckResult:
    """Run one check; any exception becomes a failed result, not a crash."""
    try:
        passed, detail = fn()
    except Exception as exc:  # noqa: BLE001
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
    return CheckResult(name, bool(passed), detail)


def _fmt_rates(state: QualificationState) -> str:
    return "(" + ", ".join(f"{r:.6f}" for r in state.rates) + ")"


# ---------------------------------------------------------------------------
# Two uniformly-scored groups (corner values and the interior equilibrium)
# ---------------------------------------------------------------------------


def _uniform_reference():
    economy = EconomyConfig(wage=0.6, payoff_tp=1.0, cost_fp=1.0)
    groups = (
        GroupSpec(id="a1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="a2", proportion=0.5, cost=Uniform01()),
    )
    model = UniformThreshold((("a1", 0.4), ("a2", 0.8)))
    return economy, groups, model


def criterion_uniform_golden() -> list[CheckResult]:
    economy, groups, model = _uniform_reference()
    config = DynamicsConfig(mode="joint")
    checks = []

    def corner_values():
        cf = uniform_closed_forms(0.4, 0.8, 0.6, economy, groups)
        lo = next(r for r in cf.records if r.label == "h1")
        hi = next(r for r in cf.records if r.label == "h2")
        want_lo = QualificationState.of({"a1": 0.6, "a2": 0.3})
        want_hi = QualificationState.of({"a1": 0.2, "a2": 0.6})
        ok = (
            lo.state.sup_distance(want_lo) <= 1e-12
            and hi.state.sup_distance(want_hi) <= 1e-12
        )
        return ok, f"h1 corner {_fmt_rates(lo.state)}, h2 corner {_fmt_rates(hi.state)}"

    checks.append(_check("corner values from the closed forms", corner_values))

    cases = (
        ((0.6, 0.3), 0.4),
        ((0.2, 0.6), 0.8),
    )
    for init, want_theta in cases:
        want = QualificationState.of({"a1": init[0], "a2": init[1]})

        def fixed_point(want=want, want_theta=want_theta):
            out = iterate(economy, groups, model, want, config)
            if not isinstance(out.verdict, FixedPoint):
                return False, f"verdict {out.verdict.name}"
            state = out.verdict.state
            theta = out.trace[-1].theta
            ok = state.sup_distance(want) <= 1e-6 and abs(theta - want_theta) <= 1e-6
            return ok, f"theta={theta:.6f}, pi={_fmt_rates(state)}"

        def stable(want=want):
            label = classify_stability(economy, groups, model, want, config)
            return label == STABLE, f"probe verdict {label}"

        checks.append(_check(f"fixed point from {init}", fixed_point))
        checks.append(_check(f"stability from {init}", stable))
    return checks


def criterion_uniform_unstable() -> list[CheckResult]:
    economy, groups, model = _uniform_reference()
    config = DynamicsConfig(mode="joint")
    checks = []
    cf = uniform_closed_forms(0.4, 0.8, 0.6)
    mid = next((r for r in cf.records if r.label == "h_mid"), None)

    def threshold_position():
        if cf.h_mid is None:
            return False, "no interior record"
        return abs(cf.h_mid - 0.571429) <= 1e-5, f"h_mid={cf.h_mid:.6f}"

    def balanced_rates():
        if mid is None:
            return False, "no interior record"
        off = max(abs(r - 0.428571) for r in mid.state.rates)
        return off <= 1e-5, f"pi={_fmt_rates(mid.state)}"

    def stationary():
        if mid is None:
            return False, "no interior record"
        state = mid.state
        drift = 0.0
        for _ in range(500):
            _, state = step(economy, groups, model, state, "joint")
            drift = max(drift, state.sup_distance(mid.state))
        return drift <= 1e-6, f"max drift over 500 steps {drift:.3g}"

    def perturbed():
        if mid is None:
            return False, "no interior record"
        corners = (
            QualificationState.of({"a1": 0.6, "a2": 0.3}),
            QualificationState.of({"a1": 0.2, "a2": 0.6}),
        )
        hits = []
        for gid in ("a1", "a2"):
            for delta in (1e-3, -1e-3):
                rates = dict(mid.state.as_mapping())
                rates[gid] = min(1.0, max(0.0, rates[gid] + delta))
                out = iterate(economy, groups, model, QualificationState.of(rates), config)
                state = settled_state(out)
                if state is None or not isinstance(out.verdict, FixedPoint):
                    return False, f"{gid}{delta:+g} gave {out.verdict.name}"
                dists = [state.sup_distance(c) for c in corners]
                if min(dists) > 1e-6:
                    return False, f"{gid}{delta:+g} settled at {_fmt_rates(state)}"
                hits.append("h1" if dists[0] < dists[1] else "h2")
        return True, "corners reached: " + ", ".join(hits)

    checks.append(_check("interior threshold position", threshold_position))
    checks.append(_check("interior balanced rates", balanced_rates))
    checks.append(_check("interior point is stationary", stationary))
    checks.append(_check("perturbed interior reaches a corner", perturbed))
    return checks


# ---------------------------------------------------------------------------
# Realizable and near-realizable feature spaces
# ---------------------------------------------------------------------------


def criterion_realizable() -> list[CheckResult]:
    checks = []
    economy = EconomyConfig(wage=0.7, payoff_tp=1.0, cost_fp=1.0)

    shared_groups = (
        GroupSpec(id="a1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="a2", proportion=0.5, cost=Uniform01()),
    )
    shared_model = UniformThreshold((("a1", 0.5), ("a2", 0.5)))

    sep_groups = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)
    sep_model = ScoreModel(
        {
            "g": GroupScores(
                y1=EmpiricalScore(((0.0, 0.0), (0.5, 0.0), (1.0, 1.0))),
                y0=EmpiricalScore(((0.0, 0.0), (0.5, 1.0), (1.0, 1.0))),
            )
        }
    )

    def shared_runs():
        config = DynamicsConfig(mode="joint")
        worst = 0.0
        for r1 in np.linspace(0.05, 1.0, 5):
            for r2 in np.linspace(0.05, 1.0, 5):
                start = QualificationState.of({"a1": float(r1), "a2": float(r2)})
                out = iterate(economy, shared_groups, shared_model, start, config)
                if not isinstance(out.verdict, FixedPoint):
                    return False, f"verdict {out.verdict.name} from ({r1:.2f}, {r2:.2f})"
                worst = max(worst, max(abs(r - 0.7) for r in out.verdict.state.rates))
        return worst <= 1e-9, f"25 starts, max |pi - G(w)| = {worst:.3g}"

    def shared_scan():
        records = find_equilibria_scan(economy, shared_groups, shared_model)
        nonzero = [r for r in records if r.nonzero]
        if len(nonzero) != 1:
            return False, f"{len(nonzero)} non-zero equilibria"
        off = max(abs(r - 0.7) for r in nonzero[0].state.rates)
        return off <= 1e-9, f"unique non-zero at {_fmt_rates(nonzero[0].state)}"

    def separating_runs():
        config = DynamicsConfig(mode="joint")
        worst = 0.0
        for r in (0.05, 0.3, 0.75, 1.0):
            start = QualificationState.of({"g": r})
            out = iterate(economy, sep_groups, sep_model, start, config)
            if not isinstance(out.verdict, FixedPoint):
                return False, f"verdict {out.verdict.name} from {r}"
            worst = max(worst, abs(out.verdict.state.rate("g") - 0.7))
        return worst <= 1e-9, f"4 starts, max |pi - G(w)| = {worst:.3g}"

    def separating_scan():
        records = find_equilibria_scan(economy, sep_groups, sep_model)
        nonzero = [r for r in records if r.nonzero]
        if len(nonzero) != 1:
            return False, f"{len(nonzero)} non-zero equilibria"
        off = abs(nonzero[0].state.rate("g") - 0.7)
        return off <= 1e-9, f"unique non-zero at {_fmt_rates(nonzero[0].state)}"

    checks.append(_check("shared-threshold runs reach G(w)", shared_runs))
    checks.append(_check("shared-threshold scan finds one non-zero equilibrium", shared_scan))
    checks.append(_check("separating-score runs reach G(w)", separating_runs))
    checks.append(_check("separating-score scan finds one non-zero equilibrium", separating_scan))
    return checks


def criterion_near_realizable() -> list[CheckResult]:
    checks = []
    eps, s = 0.05, 0.25
    economy = EconomyConfig(wage=0.5, payoff_tp=1.0, cost_fp=1.0)
    groups = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)
    model = ScoreModel(
        {
            "g": GroupScores(
                y1=EmpiricalScore(((0.0, 0.0), (0.5, eps), (1.0, 1.0))),
                y0=EmpiricalScore(((0.0, 0.0), (0.5, 1.0 - eps), (1.0, 1.0))),
            )
        }
    )
    bound = near_realizability_bound(eps, s, economy.wage, Uniform01())

    def bound_value():
        return abs(bound - 0.4) <= 1e-12, f"G(w(1 - eps/s)) = {bound:.6f}"

    def trajectories():
        config = DynamicsConfig(mode="joint")
        rates = []
        for r in (0.25, 0.5, 0.75):
            out = iterate(economy, groups, model, QualificationState.of({"g": r}), config)
            if not isinstance(out.verdict, FixedPoint):
                return False, f"verdict {out.verdict.name} from {r}"
            rates.append(out.verdict.state.rate("g"))
        ok = all(r >= bound - 1e-9 for r in rates)
        return ok, "settled rates " + ", ".join(f"{r:.6f}" for r in rates)

    checks.append(_check("bound value G(w(1 - eps/s))", bound_value))
    checks.append(_check("trajectories clear the bound", trajectories))
    return checks


# ---------------------------------------------------------------------------
# Two-direction halfspace family (corner equilibria and the period-2 cycle)
# ---------------------------------------------------------------------------


def _halfspace_scenario(payoff_tp: float, cost_fp: float):
    economy = EconomyConfig(wage=0.8, payoff_tp=payoff_tp, cost_fp=cost_fp)
    groups = (
        GroupSpec(id="g1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="g2", proportion=0.5, cost=Uniform01()),
    )
    model = GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (0.0, 1.0))))
    return economy, groups, model


def criterion_gaussian_equilibria() -> list[CheckResult]:
    economy, groups, model = _halfspace_scenario(2.0, 1.0)
    records = find_equilibria_scan(economy, groups, model)
    checks = []
    expected = (
        ((0.8, 0.0), STABLE),
        ((0.0, 0.8), STABLE),
        ((0.4, 0.4), "Unstable"),
    )
    for rates, want_label in expected:
        target = QualificationState.of({"g1": rates[0], "g2": rates[1]})

        def located(target=target, want_label=want_label):
            best, dist = None, math.inf
            for rec in records:
                d = rec.state.sup_distance(target)
                if d < dist:
                    best, dist = rec, d
            if best is None or dist > 1e-4:
                return False, f"nothing within 1e-4 (closest {dist:.3g})"
            ok = best.stability == want_label
            return ok, f"found at {_fmt_rates(best.state)}, label {best.stability}"

        checks.append(_check(f"equilibrium near {rates} is {want_label}", located))
    return checks


def criterion_gaussian_cycle() -> list[CheckResult]:
    economy, groups, model = _halfspace_scenario(1.0, 2.0)
    config = DynamicsConfig(mode="joint")
    checks = []
    out = iterate(
        economy, groups, model, QualificationState.of({"g1": 0.7, "g2": 0.2}), config
    )

    def period_two():
        if not isinstance(out.verdict, LimitCycle):
            return False, f"verdict {out.verdict.name}"
        return out.verdict.period == 2, f"period {out.verdict.period}"

    def alternates():
        if not isinstance(out.verdict, LimitCycle) or out.verdict.period != 2:
            return False, "no period-2 cycle"
        h1, h2 = model.vector("g1"), model.vector("g2")
        thetas = [np.asarray(tr.theta, dtype=float) for tr in out.trace[-2:]]
        labels = []
        for theta in thetas:
            if normalized_angle(theta, h1) <= 1e-9:
                labels.append("h1")
            elif normalized_angle(theta, h2) <= 1e-9:
                labels.append("h2")
            else:
                return False, "cut direction off both group vectors"
        if set(labels) != {"h1", "h2"}:
            return False, f"directions {labels}"
        want = (
            QualificationState.of({"g1": 0.8, "g2": 0.0}),
            QualificationState.of({"g1": 0.0, "g2": 0.8}),
        )
        spread = min(
            max(s.sup_distance(w) for s, w in zip(out.verdict.states, pair))
            for pair in (want, want[::-1])
        )
        return spread <= 1e-4, f"directions {labels}, corner rates within {spread:.3g}"

    def no_stable_fixed_point():
        records = find_equilibria_scan(economy, groups, model)
        fixed = [r for r in records if r.kind == "FixedPoint"]
        bad = [r for r in fixed if r.stability == STABLE]
        detail = f"{len(fixed)} fixed points, labels " + (
            ", ".join(r.stability for r in fixed) if fixed else "none"
        )
        return not bad, detail

    checks.append(_check("period-2 cycle from an uneven start", period_two))
    checks.append(_check("cycle alternates between group directions", alternates))
    checks.append(_check("no stable fixed point in the init scan", no_stable_fixed_point))
    return checks


# ---------------------------------------------------------------------------
# Single-group score model with multiple equilibria, and subsidies
# ---------------------------------------------------------------------------


def _steep_cost_scenario():
    economy = EconomyConfig(wage=1.0, payoff_tp=1.0, cost_fp=1.0)
    cost = TruncatedNormal(mu=0.6, sigma=0.1)
    groups = (GroupSpec(id="g", proportion=1.0, cost=cost),)
    model = ScoreModel(
        {"g": GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))}
    )
    return economy, groups, model


def criterion_multiple_equilibria() -> list[CheckResult]:
    economy, groups, model = _steep_cost_scenario()
    cost = groups[0].cost
    checks = []

    def gain_exceeds_quantile():
        bp = beta_of_pi(model, economy, cost=cost)
        beta_mid = bp.beta_at(0.5)
        quantile = inverse_cdf(cost, 0.5)
        ok = abs(beta_mid - 0.78125) <= 1e-9 and quantile < economy.wage * beta_mid
        return ok, f"beta(0.5)={beta_mid:.6f}, cost quantile {quantile:.6f}"

    def scan_two_nonzero():
        records = find_equilibria_scan(economy, groups, model)
        nonzero = [r for r in records if r.nonzero]
        detail = "; ".join(
            f"{_fmt_rates(r.state)} {r.stability}" for r in nonzero
        ) or "none"
        return len(nonzero) >= 2, f"{len(nonzero)} non-zero: {detail}"

    def sign_changes():
        xs = np.linspace(0.0, 1.0, 401)
        psi = []
        for x in xs:
            state = QualificationState.of({"g": float(x)})
            _, moved = step(economy, groups, model, state, "joint")
            psi.append(moved.rate("g") - float(x))
        signs = [s for s in np.sign(psi) if s != 0]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        records = find_equilibria_scan(economy, groups, model)
        nonzero = sum(1 for r in records if r.nonzero)
        ok = flips >= 2 and flips == nonzero
        return ok, f"{flips} sign changes vs {nonzero} non-zero equilibria"

    checks.append(_check("response gain exceeds the cost quantile", gain_exceeds_quantile))
    checks.append(_check("scan finds two non-zero equilibria", scan_two_nonzero))
    checks.append(_check("displacement sign changes match", sign_changes))
    return checks


def criterion_subsidy_improvement() -> list[CheckResult]:
    economy, groups, model = _steep_cost_scenario()
    base = groups[0].cost
    cheaper = subsidize(base, shift=0.05)
    checks = []

    def dominance():
        return dominates(cheaper, base), "shift(G, 0.05) vs G on 1001 points"

    def improvements():
        report = subsidy_equilibrium_shift(economy, groups, model, base, cheaper)
        if not report.improvements:
            return False, "no non-zero equilibria to match"
        parts = []
        for rec in report.improvements:
            before = rec.base.state.rate("g")
            after = rec.match.state.rate("g") if rec.match else float("nan")
            parts.append(f"{before:.4f} -> {after:.4f}")
        ok = all(r.improved for r in report.improvements)
        return ok, "; ".join(parts)

    checks.append(_check("cheaper costs dominate pointwise", dominance))
    checks.append(_check("every non-zero equilibrium improves", improvements))
    return checks


def criterion_unequal_costs() -> list[CheckResult]:
    half = math.sqrt(0.5)
    economy = EconomyConfig(wage=0.8, payoff_tp=2.0, cost_fp=1.0)
    expensive = TruncatedNormal(mu=0.9, sigma=0.1)
    groups = (
        GroupSpec(id="g1", proportion=0.5, cost=expensive),
        GroupSpec(id="g2", proportion=0.5, cost=Uniform01()),
    )
    model = GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (half, half))))
    checks = []
    w = economy.wage
    far = w * (1.0 - 2.0 * model.pair_angle)

    def precondition():
        own, bar = expensive.cdf(w), Uniform01().cdf(far)
        return own < bar, f"G1(w)={own:.4f} < rate bar G2(w(1-2a))={bar:.4f}"

    def single_corner():
        records = find_equilibria_scan(economy, groups, model)
        nonzero = [r for r in records if r.nonzero]
        if len(nonzero) != 1:
            return False, f"{len(nonzero)} non-zero equilibria"
        rec = nonzero[0]
        want = QualificationState.of({"g1": expensive.cdf(far), "g2": Uniform01().cdf(w)})
        if rec.state.sup_distance(want) > 1e-4:
            return False, f"rates {_fmt_rates(rec.state)} off {_fmt_rates(want)}"
        theta = np.asarray(rec.theta, dtype=float)
        at_h2 = normalized_angle(theta, model.vector("g2")) <= 1e-6
        ok = at_h2 and rec.stability == STABLE
        return ok, f"at h2, rates {_fmt_rates(rec.state)}, label {rec.stability}"

    def subsidy_restores():
        report = subsidy_equilibrium_shift(
            economy, groups, model, expensive, subsidize(expensive, shift=0.1)
        )
        gc = report.gaussian_check
        if gc is None:
            return False, "no corner check produced"
        ok = gc.precondition_holds and gc.reappears and gc.own_boundary_equilibrium_found
        return ok, (
            f"pre G1(w)={gc.pre_rates[0]:.4f} < {gc.pre_rates[1]:.4f}, "
            f"post {gc.post_rates[0]:.4f} > {gc.post_rates[1]:.4f}, "
            f"own-boundary equilibrium {'found' if gc.own_boundary_equilibrium_found else 'missing'}"
        )

    checks.append(_check("rate-bar precondition holds", precondition))
    checks.append(_check("one surviving corner equilibrium", single_corner))
    checks.append(_check("subsidy restores the lost corner", subsidy_restores))
    return checks


# ---------------------------------------------------------------------------
# Decoupled rules: common ceiling, dominance, and the sign-flipping gap
# ---------------------------------------------------------------------------


def _two_valley_scenario():
    cost = BimodalNormal(mu1=0.25, sigma1=0.12, mu2=0.6, sigma2=0.12, mix=0.5)
    economy = EconomyConfig(wage=1.0, payoff_tp=1.0, cost_fp=1.0)
    groups = (
        GroupSpec(id="a", proportion=0.7, cost=cost),
        GroupSpec(id="b", proportion=0.3, cost=cost),
    )
    model = ScoreModel(
        {
            "a": GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0)),
            "b": GroupScores(y1=BetaScore(4.0, 2.5), y0=BetaScore(2.5, 4.0)),
        }
    )
    return economy, groups, model


def criterion_decoupling() -> list[CheckResult]:
    economy, groups, model = _uniform_reference()
    checks = []

    def common_ceiling():
        config = DynamicsConfig(mode="decoupled")
        worst = 0.0
        for init in ((0.05, 0.05), (0.3, 0.8), (1.0, 1.0)):
            start = QualificationState.of({"a1": init[0], "a2": init[1]})
            out = iterate(economy, groups, model, start, config)
            if not isinstance(out.verdict, FixedPoint):
                return False, f"verdict {out.verdict.name} from {init}"
            worst = max(worst, max(abs(r - 0.6) for r in out.verdict.state.rates))
        return worst <= 1e-9, f"3 starts, max |pi - G(w)| = {worst:.3g}"

    def dominates_joint():
        records = find_equilibria_scan(economy, groups, model)
        margin = min(
            0.6 - rate for rec in records for rate in rec.state.rates
        )
        return margin >= -1e-9, f"{len(records)} joint equilibria, worst margin {margin:+.3g}"

    def gap_changes_sign():
        econ2, groups2, model2 = _two_valley_scenario()
        joint_cfg = DynamicsConfig(mode="joint", max_iters=300, fix_tol=1e-6, theta_grid=401)
        dec_cfg = DynamicsConfig(mode="decoupled", max_iters=300, fix_tol=1e-6, theta_grid=401)
        deltas = []
        for r in np.linspace(0.0, 1.0, 11):
            start = QualificationState.of({"a": float(r), "b": float(r)})
            joint = settled_state(iterate(econ2, groups2, model2, start, joint_cfg))
            dec = settled_state(iterate(econ2, groups2, model2, start, dec_cfg))
            if joint is None or dec is None:
                return False, f"run from {float(r):.1f} did not settle"
            deltas.append(dec.rate("b") - joint.rate("b"))
        ok = min(deltas) <= -0.01 and max(deltas) >= 0.01
        return ok, f"group-b gap spans [{min(deltas):+.4f}, {max(deltas):+.4f}] over 11 starts"

    checks.append(_check("separate rules reach the common ceiling", common_ceiling))
    checks.append(_check("separate rules dominate joint equilibria", dominates_joint))
    checks.append(_check("pooled-vs-separate gap changes sign", gap_changes_sign))
    return checks


# ---------------------------------------------------------------------------
# Histogram fit round-trip
# ---------------------------------------------------------------------------


def _beta_bin_counts(alpha: float, beta: float, bins: int, total: int) -> np.ndarray:
    """Integer bin counts proportional to exact Beta bin masses."""
    from scipy import stats

    edges = np.linspace(0.0, 1.0, bins + 1)
    mass = np.diff(stats.beta.cdf(edges, alpha, beta))
    counts = np.rint(mass * total).astype(int)
    counts[int(np.argmax(counts))] += total - int(counts.sum())
    return counts


def criterion_fit_roundtrip() -> list[CheckResult]:
    bins, total = 100, 1_000_000
    edges = np.linspace(0.0, 1.0, bins + 1)[:-1]
    series = {
        ("g", 1): _beta_bin_counts(5.0, 2.0, bins, total),
        ("g", 0): _beta_bin_counts(2.0, 5.0, bins, total),
        ("u", 1): np.full(bins, total // bins, dtype=int),
        ("u", 0): np.full(bins, total // bins, dtype=int),
    }
    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hist.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "label", "score", "count"])
            for (group, label), counts in series.items():
                for left, count in zip(edges, counts):
                    writer.writerow([group, label, f"{left:.10g}", int(count)])
        hist = load_histogram(path)

        cases = (
            ("right-skewed histogram recovers (5, 2)", "g", 1, (5.0, 2.0)),
            ("left-skewed histogram recovers (2, 5)", "g", 0, (2.0, 5.0)),
            ("flat histogram recovers (1, 1)", "u", 1, (1.0, 1.0)),
        )
        for name, group, label, want in cases:

            def roundtrip(group=group, label=label, want=want):
                fit = fit_beta(hist, group, label)
                off = max(abs(fit.alpha - want[0]), abs(fit.beta - want[1]))
                ok = off <= 0.02 and fit.converged
                return ok, f"alpha={fit.alpha:.4f}, beta={fit.beta:.4f} (off {off:.2g})"

            checks.append(_check(name, roundtrip))
    return checks


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


SUITES = {
    "uniform": (criterion_uniform_golden, criterion_uniform_unstable),
    "realizable": (criterion_realizable,),
    "near-realizable": (criterion_near_realizable,),
    "gaussian": (criterion_gaussian_equilibria, criterion_gaussian_cycle),
    "multi-eq": (criterion_multiple_equilibria,),
    "subsidy": (criterion_subsidy_improvement, criterion_unequal_costs),
    "decoupling": (criterion_decoupling,),
}


def run_suite(name: str) -> tuple[CheckResult, ...]:
    """Run one named suite and return its check results."""
    try:
        fns = SUITES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown verification suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        ) from None
    results: list[CheckResult] = []
    for fn in fns:
        try:
            results.extend(fn())
        except Exception as exc:  # noqa: BLE001
            results.append(
                CheckResult(fn.__name__, False, f"raised {type(exc).__name__}: {exc}")
            )
    return tuple(results)
