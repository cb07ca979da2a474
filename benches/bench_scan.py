"""Micro-benchmarks of the multi-group scan, and its call counts.

Times `find_equilibria_scan` on three two-group anchors:
- the uniform reference (thresholds h1 = 0.4, h2 = 0.8, wage 0.6, equal
  group sizes, Uniform01 costs) at grid 21, a 21 x 21 grid of starts;
- the criterion-05 halfspace anchor (orthogonal boundaries, wage 0.8,
  payoff_tp 2, cost_fp 1, Uniform01 costs) at grid 21;
- the two-valley score scenario of criterion 10 (bimodal costs, its
  max_iters 300, fix_tol 1e-6 and theta_grid 401) at grid 11.
Each start is resolved from its first image, one run per distinct rule,
and all runs share one iterate memo; then the fixed points are probed.

The file name keeps it out of the default `test_*.py` collection, so the
tier-1 run does not time it. Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_scan.py --benchmark-json=out.json

or, to check only that every case still runs, with `--benchmark-disable`.

Run as a script, it prints the same scans' call counts as JSON, which do
not depend on the machine: iterate runs, steps (memo misses), institution
best responses, rules resolved in the joint halfspace scan's array pass and
population responses per scan:

    PYTHONPATH=src python benches/bench_scan.py
"""

import json

from qualdyn import DynamicsConfig, analysis, cli, dynamics, features, verification
from qualdyn.analysis import find_equilibria_scan

UNIFORM = verification._uniform_reference()
HALFSPACE = verification._halfspace_scenario(2.0, 1.0)
TWO_VALLEY = verification._two_valley_scenario()
CRITERION_10 = DynamicsConfig(max_iters=300, fix_tol=1e-6, theta_grid=401)

CASES = {
    "uniform": (UNIFORM, dict(grid=21)),
    "halfspace": (HALFSPACE, dict(grid=21)),
    "two_valley": (TWO_VALLEY, dict(grid=11, config=CRITERION_10)),
}


def test_uniform_scan(benchmark):
    records = benchmark(find_equilibria_scan, *UNIFORM, grid=21)
    assert sorted(r.stability for r in records) == ["Stable", "Stable", "Unstable"]


def test_halfspace_scan(benchmark):
    records = benchmark(find_equilibria_scan, *HALFSPACE, grid=21)
    assert sorted(r.stability for r in records) == ["Stable", "Stable", "Unstable"]


def test_two_valley_scan(benchmark):
    records = benchmark(find_equilibria_scan, *TWO_VALLEY, grid=11, config=CRITERION_10)
    assert sorted(r.kind for r in records) == ["FixedPoint", "LimitCycle"]


def once(result) -> int:
    return 1


def array_rules(result) -> int:
    # the scan's pass returns a list of rules; a one-state call, one rule
    return len(result) if isinstance(result, list) else 0


# Each counted function, with the modules that hold a reference to it, and
# what one call adds to its count.
COUNTED = {
    "iterate_runs": ("iterate", (dynamics, analysis, cli), once),
    "steps": ("step", (dynamics, analysis, cli), once),
    "best_responses": ("institution_best_response", (features, dynamics, analysis), once),
    "array_pass_rules": ("_halfspace_rule", (features, analysis), array_rules),
    "decoupled_best_responses": ("decoupled_best_response", (features, dynamics), once),
    "population_responses": ("_population_response", (dynamics, analysis), once),
}


def counts() -> dict[str, dict[str, int]]:
    """Each counted function's count during one scan of each anchor."""
    out = {}
    for case, (scenario, kwargs) in CASES.items():
        tally = dict.fromkeys(COUNTED, 0)
        saved = []
        for key, (name, modules, weight) in COUNTED.items():
            real = getattr(modules[0], name)

            def counting(*args, _key=key, _real=real, _weight=weight, **kw):
                result = _real(*args, **kw)
                tally[_key] += _weight(result)
                return result

            for module in modules:
                if getattr(module, name, None) is real:
                    saved.append((module, name, real))
                    setattr(module, name, counting)
        try:
            find_equilibria_scan(*scenario, **kwargs)
        finally:
            for module, name, real in saved:
                setattr(module, name, real)
        out[case] = tally
    return out


if __name__ == "__main__":
    print(json.dumps(counts(), indent=1))
