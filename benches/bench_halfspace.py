"""Micro-benchmarks of the halfspace family.

Times one `step` of the criterion-05 anchor (orthogonal boundaries, wage
0.8, payoff_tp 2, cost_fp 1, Uniform01 costs) at the stable boundary state
(0.8, 0), where the institution answers with the first group's boundary,
one at the midpoint tie (0.4, 0.4), and one `find_equilibria_scan` of the
anchor (a 21 x 21 grid of starts, then stability probes).

The file name keeps it out of the default `test_*.py` collection, so the
tier-1 run does not time it. Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_halfspace.py --benchmark-json=out.json

or, to check only that every case still runs, with `--benchmark-disable`.
"""

from qualdyn import QualificationState, dynamics, verification
from qualdyn.analysis import find_equilibria_scan

ECONOMY, GROUPS, MODEL = verification._halfspace_scenario(2.0, 1.0)
BOUNDARY = QualificationState(ids=("g1", "g2"), rates=(0.8, 0.0))
TIE = QualificationState(ids=("g1", "g2"), rates=(0.4, 0.4))


def test_boundary_step(benchmark):
    theta, after = benchmark(dynamics.step, ECONOMY, GROUPS, MODEL, BOUNDARY)
    assert MODEL.arc_fraction(theta) == 0.0
    assert after.sup_distance(BOUNDARY) < 1e-9


def test_midpoint_tie_step(benchmark):
    theta, after = benchmark(dynamics.step, ECONOMY, GROUPS, MODEL, TIE)
    assert abs(MODEL.arc_fraction(theta) - 0.5) < 1e-12
    assert after.sup_distance(TIE) < 1e-9


def test_scan(benchmark):
    records = benchmark(find_equilibria_scan, ECONOMY, GROUPS, MODEL)
    assert sorted(r.stability for r in records) == ["Stable", "Stable", "Unstable"]
