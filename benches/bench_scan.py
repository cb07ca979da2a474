"""Micro-benchmarks of the multi-group scan.

Times `find_equilibria_scan` on two two-group anchors:
- the uniform reference (thresholds h1 = 0.4, h2 = 0.8, wage 0.6, equal
  group sizes, Uniform01 costs) at grid 21, a 21 x 21 grid of starts;
- the two-valley score scenario of criterion 10 (bimodal costs, its
  max_iters 300, fix_tol 1e-6 and theta_grid 401) at grid 11.
The scan's runs share one iterate memo, so these time the distinct states
the dynamics reach from the grid, plus stability probes.

The file name keeps it out of the default `test_*.py` collection, so the
tier-1 run does not time it. Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_scan.py --benchmark-json=out.json

or, to check only that every case still runs, with `--benchmark-disable`.
"""

from qualdyn import DynamicsConfig, verification
from qualdyn.analysis import find_equilibria_scan

UNIFORM = verification._uniform_reference()
TWO_VALLEY = verification._two_valley_scenario()
CRITERION_10 = DynamicsConfig(max_iters=300, fix_tol=1e-6, theta_grid=401)


def test_uniform_scan(benchmark):
    records = benchmark(find_equilibria_scan, *UNIFORM, grid=21)
    assert sorted(r.stability for r in records) == ["Stable", "Stable", "Unstable"]


def test_two_valley_scan(benchmark):
    records = benchmark(find_equilibria_scan, *TWO_VALLEY, grid=11, config=CRITERION_10)
    assert sorted(r.kind for r in records) == ["FixedPoint", "LimitCycle"]
