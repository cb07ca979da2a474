"""Micro-benchmarks and counts of the sign-change search (`features._sign_change`).

The search narrows three brackets to adjacent floats: the score best
response's sign change of dU/dtheta, the uniform plateau's cost-CDF
inversion, and the one-group scan's roots of Phi(pi) - pi. This file times
one call of each, at:
- the score anchor (Beta(5,2)/Beta(2,5) scores, TruncatedNormal(0.6, 0.1)
  costs, wage 1; criterion 07's scenario), state pi = 0.5;
- the decoupled-sweep anchor (criterion 10's two-valley scenario, theta
  grid 401), state (0.5, 0.5);
- the uniform reference's interior indifference state h_mid (a plateau);
- the score anchor's upper root of Phi(pi) - pi, from its 101-point grid
  bracket.

The file name keeps it out of the default `test_*.py` collection, so the
tier-1 run does not time it. Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_refine.py --benchmark-json=out.json

or, to check only that every case still runs, with `--benchmark-disable`.

Run as a script, it prints the machine-independent counts as one JSON
object, plus microseconds per score best response:

    PYTHONPATH=src python benches/bench_refine.py

- slope evaluations per refinement (mean, median, p90, max) over 2000
  seeded states on each anchor;
- Phi evaluations per root, and per one-group scan at grid 101;
- cost-CDF calls per uniform plateau response, at the h_mid states of 200
  seeded uniform scenarios.
Point PYTHONPATH at another checkout's src to count that version: the
counts go through `_utility_slope`, `_phi_single` and `CostModel.cdf`,
which the search does not replace.
"""

import json
import random
import statistics
import sys
import time

import numpy as np

from qualdyn import (
    DynamicsConfig,
    EconomyConfig,
    GroupSpec,
    QualificationState,
    Uniform01,
    UniformThreshold,
    analysis,
    costs,
    features,
    verification,
)
from qualdyn.analysis import find_equilibria_scan, uniform_closed_forms
from qualdyn.features import institution_best_response

SCORE = verification._steep_cost_scenario()
SWEEP = verification._two_valley_scenario()
SWEEP_GRID = DynamicsConfig(max_iters=300, fix_tol=1e-6, theta_grid=401).theta_grid
STATES = 2000


def _score_state(pi):
    return QualificationState(ids=("g",), rates=(pi,))


def _sweep_state(pa, pb):
    return QualificationState(ids=("a", "b"), rates=(pa, pb))


def _plateau(h1, h2, wage):
    """(economy, groups, model, h_mid) of a balanced uniform scenario, or None
    when it has no interior indifference state."""
    economy = EconomyConfig(wage=wage)
    groups = (
        GroupSpec(id="a1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="a2", proportion=0.5, cost=Uniform01()),
    )
    records = uniform_closed_forms(h1, h2, wage, economy, groups).records
    mid = [r.state for r in records if r.label == "h_mid"]
    model = UniformThreshold((("a1", h1), ("a2", h2)))
    return (economy, groups, model, mid[0]) if mid else None


PLATEAU = _plateau(0.4, 0.8, 0.6)


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


def test_score_best_response(benchmark):
    economy, groups, model = SCORE
    theta = benchmark(institution_best_response, model, economy, groups, _score_state(0.5))
    assert 0.0 < theta < 1.0


def test_sweep_best_response(benchmark):
    economy, groups, model = SWEEP
    theta = benchmark(
        institution_best_response, model, economy, groups, _sweep_state(0.5, 0.5),
        grid_size=SWEEP_GRID,
    )
    assert 0.0 < theta < 1.0


def test_plateau_response(benchmark):
    economy, groups, model, mid = PLATEAU
    theta = benchmark(institution_best_response, model, economy, groups, mid)
    assert 0.4 < theta < 0.8


def test_score_root(benchmark):
    f, lo, hi, flo, fhi = _root_bracket()
    lo, hi = benchmark(features._sign_change, f, lo, hi, flo, fhi)
    assert abs(f(hi)) <= 1e-9


# ---------------------------------------------------------------------------
# Counts, when run as a script
# ---------------------------------------------------------------------------


def _summary(counts):
    counts = sorted(counts)
    return {
        "n": len(counts),
        "mean": round(statistics.fmean(counts), 3),
        "median": statistics.median(counts),
        "p90": counts[int(0.9 * (len(counts) - 1))],
        "max": counts[-1],
    }


def slope_calls_per_refinement(scenario, states, grid_size):
    """Slope evaluations of each best response that refines, over states."""
    economy, groups, model = scenario
    original = features._utility_slope
    calls, per_refinement = [0], []

    def counted(*args):
        slope = original(*args)

        def wrapper(theta):
            calls[0] += 1
            return slope(theta)

        return wrapper

    features._utility_slope = counted
    try:
        for state in states:
            calls[0] = 0
            institution_best_response(model, economy, groups, state, grid_size=grid_size)
            if calls[0]:
                per_refinement.append(calls[0])
    finally:
        features._utility_slope = original
    return _summary(per_refinement)


def phi_evals_per_root(grid=101):
    """Phi evaluations per one-group scan of the score anchor at grid 101 (as
    `find --grid 101` runs it), and per root search inside that scan."""
    economy, groups, model = SCORE
    # The root search's name in this checkout (_bisect_root before the
    # sign-change search replaced its bisection).
    root_name = "_scan_root" if hasattr(analysis, "_scan_root") else "_bisect_root"
    original_phi, original_root = analysis._phi_single, getattr(analysis, root_name)
    calls, in_root, searches = [0], [0], [0]

    def counted_phi(*args):
        phi = original_phi(*args)

        def wrapper(x):
            calls[0] += 1
            return phi(x)

        return wrapper

    def counted_root(f, *args):
        searches[0] += 1
        before = calls[0]
        try:
            return original_root(f, *args)
        finally:
            in_root[0] += calls[0] - before

    analysis._phi_single = counted_phi
    setattr(analysis, root_name, counted_root)
    try:
        find_equilibria_scan(economy, groups, model, grid=grid)
    finally:
        analysis._phi_single = original_phi
        setattr(analysis, root_name, original_root)
    return {"per_scan": calls[0], "searches": searches[0], "per_root": in_root[0] / searches[0]}


def cdf_calls_per_plateau_response(draws=200, seed=0):
    """Cost-CDF calls (every call, as perfbench's tracer counts them) per best
    response at the h_mid states of seeded balanced uniform scenarios."""
    rng = random.Random(seed)
    original = costs.CostModel.cdf
    calls, per_response = [0], []

    def counted(self, x):
        calls[0] += 1
        return original(self, x)

    costs.CostModel.cdf = counted
    try:
        for _ in range(draws):
            found = _plateau(
                rng.uniform(0.35, 0.45), rng.uniform(0.75, 0.85), rng.uniform(0.55, 0.65)
            )
            if found is None:
                continue
            economy, groups, model, mid = found
            calls[0] = 0
            institution_best_response(model, economy, groups, mid)
            per_response.append(calls[0])
    finally:
        costs.CostModel.cdf = original
    return _summary(per_response)


def us_per_score_best_response(states, repeats=5):
    """Microseconds per score best response over states, the best of repeats."""
    economy, groups, model = SCORE
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for state in states:
            institution_best_response(model, economy, groups, state)
        best = min(best, time.perf_counter() - t0)
    return round(1e6 * best / len(states), 2)


def main() -> None:
    rng = random.Random(0)
    score_states = [_score_state(rng.random()) for _ in range(STATES)]
    sweep_states = [_sweep_state(rng.random(), rng.random()) for _ in range(STATES)]
    record = {
        "slope_calls_per_refinement": {
            "score_anchor": slope_calls_per_refinement(SCORE, score_states, features.DEFAULT_GRID),
            "sweep_anchor": slope_calls_per_refinement(SWEEP, sweep_states, SWEEP_GRID),
        },
        "phi_evals": phi_evals_per_root(),
        "cdf_calls_per_plateau_response": cdf_calls_per_plateau_response(),
        "us_per_score_best_response": us_per_score_best_response(score_states),
    }
    json.dump(record, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
