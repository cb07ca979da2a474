"""Benchmarks of every layer of the qualdyn loop, from one case table.

The layers: cost CDF -> feature rates (`tpr_fpr` / `rates_grid`) ->
institution best response (grid argmax, local refinement, plateau
tie-break) -> population response -> `step` -> `iterate` ->
`classify_stability` -> `find_equilibria_scan` -> CLI command. Each entry
of CASES names its layer, the call and a check on the call's result. The
scenarios are the `verification` anchors of acceptance criteria 01
(uniform thresholds), 05 (halfspaces), 07 (a score model) and 10 (two
valleys); the CLI cases run `find` on tests/golden/uniform.json and on
tests/golden/score_anchor.json (at grid 101) and check their stdout against
the golden files.

The file name keeps it out of the default `test_*.py` collection, so the
tier-1 run does not time it. Under pytest-benchmark it times every case
(`--benchmark-disable` runs each once, for its check alone):

    PYTHONPATH=src python -m pytest benches/ -o python_files='bench_*.py' --benchmark-json=out.json

Run as a script, it runs every case once under the call counters, prints
the counts as JSON, and exits non-zero if a check fails. The counts do not
depend on the machine. Three distributions follow the cases' counts: slope
calls per refinement over 2000 seeded states on the score and two-valley
anchors; for the one-group scan of the score anchor at grid 101, its Phi
evaluations, its root searches on Phi and the Phi evaluations in each, and
its root searches on the theta-curve's h (after the curve's one array pass
over the grid's interior) and the h evaluations in each; and cost-CDF
calls per best response at the h_mid states of 200 seeded uniform
scenarios. Point PYTHONPATH at another checkout's src to count that version
(a version without the theta-curve makes no curve searches):

    PYTHONPATH=src python benches/bench_layers.py
"""

import contextlib
import io
import json
import random
import statistics
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import qualdyn
from qualdyn import (
    EconomyConfig,
    GroupSpec,
    QualificationState,
    Uniform01,
    UniformThreshold,
    analysis,
    cli,
    core,
    costs,
    dynamics,
    features,
    ingest,
    verification,
)

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

UNIFORM = verification._uniform_reference()
HALFSPACE = verification._halfspace_scenario(2.0, 1.0)
HALFSPACE_CYCLE = verification._halfspace_scenario(1.0, 2.0)
SCORE = verification._steep_cost_scenario()
TWO_VALLEY = verification._two_valley_scenario()
CRITERION_10 = dynamics.DynamicsConfig(max_iters=300, fix_tol=1e-6, theta_grid=401)


def _at(scenario, *rates) -> QualificationState:
    return QualificationState(ids=tuple(g.id for g in scenario[1]), rates=rates)


def _h_mid(economy, groups, h1, h2):
    """The interior indifference state of a balanced uniform scenario, or None."""
    records = analysis.uniform_closed_forms(h1, h2, economy.wage, economy, groups).records
    return next((r.state for r in records if r.label == "h_mid"), None)


def _root_bracket():
    """The score anchor's upper root of Phi(pi) - pi: its 101-point grid
    bracket and the values at both ends."""
    economy, groups, model = SCORE
    phi = analysis._phi_single(economy, groups[0], model, features.DEFAULT_GRID)
    f = lambda x: phi(x)[0] - x
    xs = np.linspace(0.0, 1.0, 101)
    psi = [f(float(x)) for x in xs]
    i = max(i for i in range(100) if psi[i] * psi[i + 1] < 0.0)
    return f, float(xs[i]), float(xs[i + 1]), psi[i], psi[i + 1]


H_MID = _h_mid(*UNIFORM[:2], 0.4, 0.8)
BOUNDARY, TIE = _at(HALFSPACE, 0.8, 0.0), _at(HALFSPACE, 0.4, 0.4)
ROOT = _root_bracket()
STABLE_ROOT, UNSTABLE_ROOT = sorted(
    (r.state for r in analysis.find_equilibria_scan(*SCORE)), key=lambda s: s.rates[0]
)[:2]
THETAS = np.linspace(0.0, 1.0, features.DEFAULT_GRID)


def _best_response(scenario, state, **kw):
    economy, groups, model = scenario
    return features.institution_best_response(model, economy, groups, state, **kw)


def _cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _stabilities(records) -> list[str]:
    return sorted(r.stability for r in records)


class Case(NamedTuple):
    name: str
    layer: str
    call: Callable[[], object]
    check: Callable[[object], bool]


CASES = [
    Case(
        "score_cost_cdf", "cost cdf",
        lambda: [SCORE[1][0].cost.cdf(i / 10) for i in range(11)],
        lambda g: g[0] == 0.0 and g[-1] == 1.0 and g == sorted(g),
    ),
    Case(
        # two cuts in turn, so that each call evaluates both and none is
        # answered by the model's last-answer memo
        "score_tpr_fpr", "feature rates",
        lambda: [SCORE[2].tpr_fpr("g", theta) for theta in (0.25, 0.5)][-1],
        # 1 - I_0.5(5, 2) and 1 - I_0.5(2, 5)
        lambda r: abs(r[0] - 57 / 64) < 1e-12 and abs(r[1] - 7 / 64) < 1e-12,
    ),
    Case(
        "score_rates_grid", "feature rates",
        lambda: SCORE[2].rates_grid("g", THETAS),
        lambda r: r[0][0] == 1.0 and r[0][-1] == 0.0 and bool(np.all(np.diff(r[0]) <= 0.0)),
    ),
    Case(
        "score_best_response", "best response (refinement)",
        lambda: _best_response(SCORE, _at(SCORE, 0.5)),
        lambda theta: 0.0 < theta < 1.0,
    ),
    Case(
        "sweep_best_response", "best response (refinement)",
        lambda: _best_response(TWO_VALLEY, _at(TWO_VALLEY, 0.5, 0.5), grid_size=401),
        lambda theta: 0.0 < theta < 1.0,
    ),
    Case(
        "plateau_response", "best response (plateau)",
        lambda: _best_response(UNIFORM, H_MID),
        lambda theta: 0.4 < theta < 0.8,
    ),
    Case(
        # the population responds least short of pi = 1 at the stretch's top
        "score_plateau_response", "best response (plateau)",
        lambda: _best_response(SCORE, _at(SCORE, 1.0)),
        lambda theta: 0.0 < theta <= 0.0005,
    ),
    Case(
        "uniform_population_response", "population response",
        lambda: dynamics.individual_best_response(*UNIFORM, 0.4),
        lambda state: state.rates == (0.6, 0.3),
    ),
    Case(
        "boundary_step", "step",
        lambda: dynamics.step(*HALFSPACE, BOUNDARY),
        lambda r: HALFSPACE[2].arc_fraction(r[0]) == 0.0 and r[1].sup_distance(BOUNDARY) < 1e-9,
    ),
    Case(
        "midpoint_tie_step", "step",
        lambda: dynamics.step(*HALFSPACE, TIE),
        lambda r: abs(HALFSPACE[2].arc_fraction(r[0]) - 0.5) < 1e-12
        and r[1].sup_distance(TIE) < 1e-9,
    ),
    Case(
        # the tie-break keeps the indifference state where it is
        "plateau_step", "step",
        lambda: dynamics.step(*UNIFORM, H_MID),
        lambda r: r[1].sup_distance(H_MID) < 1e-9,
    ),
    Case(
        # U is flat on [0, h1]; its response closest to (1, 1) is at the peak h1
        "non_fixed_plateau_step", "step",
        lambda: dynamics.step(*UNIFORM, _at(UNIFORM, 1.0, 1.0)),
        lambda r: r[0] == 0.4 and r[1].rates == (0.6, 0.3),
    ),
    Case(
        "corner_step", "step",
        lambda: dynamics.step(*UNIFORM, _at(UNIFORM, 0.6, 0.3)),
        lambda r: r[0] == 0.4,
    ),
    Case(
        "halfspace_cycle_iterate", "iterate",
        lambda: dynamics.iterate(*HALFSPACE_CYCLE, _at(HALFSPACE_CYCLE, 0.7, 0.2)),
        lambda out: isinstance(out.verdict, dynamics.LimitCycle) and out.verdict.period == 2,
    ),
    Case(
        # the orbit from 0.5 never settles: max_iters steps, each matched
        # against the cycle window
        "score_iterate", "iterate",
        lambda: dynamics.iterate(*SCORE, _at(SCORE, 0.5)),
        lambda out: isinstance(out.verdict, dynamics.NonConverged) and len(out.trace) == 501,
    ),
    Case(
        "stable_classify", "classify_stability",
        lambda: dynamics.classify_stability(*SCORE, STABLE_ROOT),
        lambda verdict: verdict == "Stable",
    ),
    Case(
        # the low interior root, whose probes turn chaotic
        "unstable_classify", "classify_stability",
        lambda: dynamics.classify_stability(*SCORE, UNSTABLE_ROOT),
        lambda verdict: verdict == "Unstable",
    ),
    Case(
        "score_root", "find_equilibria_scan (one group)",
        lambda: features._sign_change(*ROOT),
        lambda bracket: abs(ROOT[0](bracket[1])) <= 1e-9,
    ),
    Case(
        "uniform_scan", "find_equilibria_scan",
        lambda: analysis.find_equilibria_scan(*UNIFORM, grid=21),
        lambda records: _stabilities(records) == ["Stable", "Stable", "Unstable"],
    ),
    Case(
        "halfspace_scan", "find_equilibria_scan",
        lambda: analysis.find_equilibria_scan(*HALFSPACE, grid=21),
        lambda records: _stabilities(records) == ["Stable", "Stable", "Unstable"],
    ),
    Case(
        "two_valley_scan", "find_equilibria_scan",
        lambda: analysis.find_equilibria_scan(*TWO_VALLEY, grid=11, config=CRITERION_10),
        lambda records: sorted(r.kind for r in records) == ["FixedPoint", "LimitCycle"],
    ),
    Case(
        "uniform_find", "cli",
        lambda: _cli("find", "--config", str(GOLDEN / "uniform.json")),
        lambda r: r == (0, (GOLDEN / "uniform.find.txt").read_text()),
    ),
    Case(
        "score_find", "cli",
        lambda: _cli("find", "--config", str(GOLDEN / "score_anchor.json"), "--grid", "101"),
        lambda r: r == (0, (GOLDEN / "score_anchor.find-grid101.txt").read_text()),
    ),
]


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_layer(benchmark, case):
    assert case.check(benchmark(case.call))


# Counts, when run as a script. Every namespace that holds a counted
# function: the package's modules, and the classes whose methods are counted.
HOLDERS = (
    qualdyn, core, costs, features, dynamics, analysis, cli, ingest, verification,
    costs.CostModel, features.UniformThreshold, features.ScoreModel, features.GaussianHalfspace,
    core.QualificationState,
)


def _weight(name: str, result) -> int:
    """What one call adds to a count: 1, except that the array pass of a
    joint halfspace scan adds the number of start rules it resolves: the
    length of the index in its (index, table) pair, or of the list of rules
    that versions before the pair return. A one-state call of that kernel
    returns one rule vector and adds nothing; any other result is an error,
    so a new return shape cannot make the count read 0."""
    if name != "_halfspace_rule":
        return 1
    if isinstance(result, np.ndarray):
        return 0
    if isinstance(result, tuple):
        return len(result[0])
    if isinstance(result, list):
        return len(result)
    raise TypeError(f"_halfspace_rule returned a {type(result).__name__}")


@contextlib.contextmanager
def counting(name: str, inner=False, during=None):
    """Count the calls of the function `name`, wrapped in every holder that
    has it, while the block runs; yields a one-item list with the count.
    A dotted name, `Class.name`, counts that class of `features` alone.
    With `inner`, the function returns a function, whose calls are counted
    instead; with `during`, a call adds the growth of that other count
    while it runs."""
    owner, _, name = name.rpartition(".")
    holders = (getattr(features, owner),) if owner else HOLDERS
    tally = [0]

    def wrap(real):
        def counted(*args, **kw):
            before = during[0] if during else 0
            result = real(*args, **kw)
            if inner:
                def result(*a, _f=result):
                    tally[0] += 1
                    return _f(*a)
            else:
                tally[0] += during[0] - before if during else _weight(name, result)
            return result

        return counted

    saved = [(holder, vars(holder)[name]) for holder in holders if name in vars(holder)]
    for holder, real in saved:
        setattr(holder, name, wrap(real))
    try:
        yield tally
    finally:
        for holder, real in saved:
            setattr(holder, name, real)


# Each count in a case's record, and the function it counts.
COUNTS = {
    "cdf_calls": "cdf",
    "beta_cdf_calls": "BetaScore.cdf",
    "tpr_fpr_calls": "tpr_fpr",
    "rates_grid_calls": "rates_grid",
    "best_responses": "institution_best_response",
    "decoupled_best_responses": "decoupled_best_response",
    "plateau_point_calls": "_plateau_point",
    "array_pass_rules": "_halfspace_rule",
    "population_responses": "_population_response",
    "steps": "step",
    "iterate_runs": "iterate",
    "stability_probes": "classify_stability",
    "sup_distance_calls": "sup_distance",
    "rule_key_calls": "_rule_key",
}


def case_counts(case: Case) -> tuple[object, dict]:
    """The case's result and its counts, over one call."""
    with contextlib.ExitStack() as stack:
        tallies = {key: stack.enter_context(counting(name)) for key, name in COUNTS.items()}
        result = case.call()
    return result, {"layer": case.layer, **{key: t[0] for key, t in tallies.items()}}


def _summary(counts):
    counts = sorted(counts)
    return {
        "n": len(counts),
        "mean": round(statistics.fmean(counts), 3),
        "median": statistics.median(counts),
        "p90": counts[int(0.9 * (len(counts) - 1))],
        "max": counts[-1],
    }


def _per_call(name: str, calls, inner=False) -> list[int]:
    """The count of `name` over each of the calls that makes one."""
    per = []
    with counting(name, inner=inner) as tally:
        for call in calls:
            before = tally[0]
            call()
            if tally[0] > before:
                per.append(tally[0] - before)
    return per


def _plateau_responses(draws=200, seed=0):
    """Best responses at the h_mid states of seeded balanced uniform scenarios."""
    rng = random.Random(seed)
    groups = tuple(GroupSpec(id=i, proportion=0.5, cost=Uniform01()) for i in ("a1", "a2"))
    for _ in range(draws):
        h1, h2, wage = rng.uniform(0.35, 0.45), rng.uniform(0.75, 0.85), rng.uniform(0.55, 0.65)
        economy = EconomyConfig(wage=wage)
        mid = _h_mid(economy, groups, h1, h2)
        if mid is not None:
            model = UniformThreshold((("a1", h1), ("a2", h2)))
            yield lambda s=(model, economy, groups, mid): features.institution_best_response(*s)


@contextlib.contextmanager
def root_searches(phi):
    """Each `analysis._scan_root` search made while the block runs, as a
    pair: the evaluations of the function it narrows, and how many of them
    were Phi evaluations (phi is the tally of a `_phi_single` count). A
    search on the theta-curve's scalar h makes none."""
    searches = []
    real = analysis._scan_root

    def counted(f, *args):
        record = [0, phi[0]]
        searches.append(record)

        def evaluated(x):
            record[0] += 1
            return f(x)

        try:
            return real(evaluated, *args)
        finally:
            record[1] = phi[0] - record[1]

    analysis._scan_root = counted
    try:
        yield searches
    finally:
        analysis._scan_root = real


def distributions() -> dict:
    rng = random.Random(0)
    score = [_at(SCORE, rng.random()) for _ in range(2000)]
    sweep = [_at(TWO_VALLEY, rng.random(), rng.random()) for _ in range(2000)]
    slope = {
        "score_anchor": [lambda s=s: _best_response(SCORE, s) for s in score],
        "sweep_anchor": [lambda s=s: _best_response(TWO_VALLEY, s, grid_size=401) for s in sweep],
    }
    with counting("_phi_single", inner=True) as phi, root_searches(phi) as searches:
        analysis.find_equilibria_scan(*SCORE, grid=101)
    on_phi = [evals for evals, phi_evals in searches if phi_evals]
    on_curve = [evals for evals, phi_evals in searches if not phi_evals]
    return {
        "slope_calls_per_refinement": {
            anchor: _summary(_per_call("_utility_slope", calls, inner=True))
            for anchor, calls in slope.items()
        },
        "phi_evals": {
            "per_scan": phi[0],
            "searches": len(on_phi),
            "per_root": statistics.fmean(on_phi) if on_phi else None,
            "curve_searches": len(on_curve),
            "curve_evals_per_root": statistics.fmean(on_curve) if on_curve else None,
        },
        "cdf_calls_per_plateau_response": _summary(_per_call("cdf", _plateau_responses())),
    }


def main() -> int:
    cases, failed = {}, []
    for case in CASES:
        result, cases[case.name] = case_counts(case)
        if not case.check(result):
            failed.append(case.name)
    json.dump({"cases": cases, **distributions()}, sys.stdout, indent=1)
    print()
    if failed:
        print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
