"""Micro-benchmarks of the stability probe.

Times one `classify_stability` call on a stable root and one on an unstable
root of the criterion-07 steep-cost score map (Beta(5,2)/Beta(2,5) scores,
TruncatedNormal(0.6, 0.1) costs): the trivial root pi = 0, which is Stable,
and the low interior root pi ~ 0.0236, which is Unstable and whose probes
turn chaotic.

The file name keeps it out of the default `test_*.py` collection, so the
tier-1 run does not time it. Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_stability.py --benchmark-json=out.json

or, to check only that every case still runs, with `--benchmark-disable`.
"""

import pytest

from qualdyn import dynamics, verification
from qualdyn.analysis import find_equilibria_scan

ECONOMY, GROUPS, MODEL = verification._steep_cost_scenario()
ROOTS = sorted(
    (r.state for r in find_equilibria_scan(ECONOMY, GROUPS, MODEL)), key=lambda s: s.rates[0]
)


@pytest.mark.parametrize(
    "root, verdict", [(ROOTS[0], "Stable"), (ROOTS[1], "Unstable")], ids=["stable", "unstable"]
)
def test_classify_stability(benchmark, root, verdict):
    got = benchmark(dynamics.classify_stability, ECONOMY, GROUPS, MODEL, root)
    assert got == verdict
