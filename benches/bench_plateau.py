"""Micro-benchmarks of the plateau tie-break and the steps around it.

Times one `step` at the uniform reference indifference state (h_mid, where
the institution's utility is flat and a cut from a group's tent reproduces
the state), one at the plateau state (1, 1), which is not a fixed point, so
no cut reproduces it and the closest response is found between the kinks,
one at a corner state (a unique kink winner), and one score best response
at pi = 1 on the score anchor (Beta(5,2)/Beta(2,5) scores, TruncatedNormal
(0.6, 0.1) costs, wage 1), where U = p TPR is flat on the grid points at
which F1 rounds to 0: score-find meets it once per task.

The file name keeps it out of the default `test_*.py` collection, so the
tier-1 run does not time it. Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_plateau.py --benchmark-json=out.json

or, to check only that every case still runs, with `--benchmark-disable`.

Run as a script, it prints each case's call counts as JSON, which do not
depend on the machine: `CostModel.cdf` calls (the population's responses
included) and `features._plateau_point` calls:

    PYTHONPATH=src python benches/bench_plateau.py
"""

import json

from qualdyn import (
    EconomyConfig,
    GroupSpec,
    QualificationState,
    Uniform01,
    UniformThreshold,
    costs,
    dynamics,
    features,
    institution_best_response,
    verification,
)
from qualdyn.analysis import uniform_closed_forms

ECONOMY = EconomyConfig(wage=0.6)
MODEL = UniformThreshold((("a1", 0.4), ("a2", 0.8)))


GROUPS = (
    GroupSpec(id="a1", proportion=0.5, cost=Uniform01()),
    GroupSpec(id="a2", proportion=0.5, cost=Uniform01()),
)
H_MID = next(
    r.state for r in uniform_closed_forms(0.4, 0.8, 0.6, ECONOMY, GROUPS).records
    if r.label == "h_mid"
)
CORNER = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
FULL = QualificationState(ids=("a1", "a2"), rates=(1.0, 1.0))

SCORE_ECONOMY, SCORE_GROUPS, SCORE_MODEL = verification._steep_cost_scenario()
SCORE_FULL = QualificationState(ids=("g",), rates=(1.0,))

# Each case's call, shared by the timed tests and the count mode.
CASES = {
    "plateau_step": (dynamics.step, ECONOMY, GROUPS, MODEL, H_MID),
    "non_fixed_plateau_step": (dynamics.step, ECONOMY, GROUPS, MODEL, FULL),
    "corner_step": (dynamics.step, ECONOMY, GROUPS, MODEL, CORNER),
    "score_plateau_response": (
        institution_best_response, SCORE_MODEL, SCORE_ECONOMY, SCORE_GROUPS, SCORE_FULL,
    ),
}


def test_plateau_step(benchmark):
    _, after = benchmark(*CASES["plateau_step"])
    # the tie-break keeps the indifference state where it is
    assert after.sup_distance(H_MID) < 1e-9


def test_non_fixed_plateau_step(benchmark):
    theta, after = benchmark(*CASES["non_fixed_plateau_step"])
    # U is flat on [0, h1]; its response closest to (1, 1) is at the peak h1
    assert theta == 0.4 and after.rates == (0.6, 0.3)


def test_corner_step(benchmark):
    theta, _ = benchmark(*CASES["corner_step"])
    assert theta == 0.4


def test_score_plateau_response(benchmark):
    theta = benchmark(*CASES["score_plateau_response"])
    # the population responds least short of pi = 1 at the stretch's top
    assert 0.0 < theta <= 0.0005


def counts() -> dict[str, dict[str, int]]:
    """Each case's cost-CDF and plateau-rule calls, over one call."""
    real_cdf, real_plateau = costs.CostModel.cdf, features._plateau_point
    out = {}
    for case, (fn, *args) in CASES.items():
        tally = {"cdf_calls": 0, "plateau_point_calls": 0}

        def cdf(self, x):
            tally["cdf_calls"] += 1
            return real_cdf(self, x)

        def plateau_point(*a, **kw):
            tally["plateau_point_calls"] += 1
            return real_plateau(*a, **kw)

        costs.CostModel.cdf, features._plateau_point = cdf, plateau_point
        try:
            fn(*args)
        finally:
            costs.CostModel.cdf, features._plateau_point = real_cdf, real_plateau
        out[case] = tally
    return out


if __name__ == "__main__":
    print(json.dumps(counts(), indent=1))
