"""Micro-benchmarks of the plateau tie-break and the steps around it.

Times one `step` at the uniform reference indifference state (h_mid, where
the institution's utility is flat and a cut from a group's tent reproduces
the state), one at the plateau state (1, 1), which is not a fixed point, so
no cut reproduces it and the stretch is searched, one at a corner state (a
unique kink winner), and that search's 1025-point response-distance pass
under each cost kind.

The file name keeps it out of the default `test_*.py` collection, so the
tier-1 run does not time it. Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_plateau.py --benchmark-json=out.json

or, to check only that every case still runs, with `--benchmark-disable`.
"""

import numpy as np
import pytest

from qualdyn import (
    BimodalNormal,
    EconomyConfig,
    EmpiricalCdf,
    GroupSpec,
    QualificationState,
    Scaled,
    Shifted,
    TruncatedNormal,
    Uniform01,
    UniformThreshold,
)
from qualdyn import dynamics, features
from qualdyn.analysis import uniform_closed_forms

ECONOMY = EconomyConfig(wage=0.6)
MODEL = UniformThreshold((("a1", 0.4), ("a2", 0.8)))


def uniform_groups(cost):
    return (
        GroupSpec(id="a1", proportion=0.5, cost=cost),
        GroupSpec(id="a2", proportion=0.5, cost=cost),
    )


GROUPS = uniform_groups(Uniform01())
H_MID = next(
    r.state for r in uniform_closed_forms(0.4, 0.8, 0.6, ECONOMY, GROUPS).records
    if r.label == "h_mid"
)
CORNER = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
FULL = QualificationState(ids=("a1", "a2"), rates=(1.0, 1.0))

COST_KINDS = [
    Uniform01(),
    TruncatedNormal(mu=0.3, sigma=0.15),
    BimodalNormal(mu1=0.1, sigma1=0.05, mu2=0.5, sigma2=0.1, mix=0.4),
    EmpiricalCdf(((0.0, 0.0), (0.1, 0.05), (0.3, 0.5), (0.6, 1.0))),
    Shifted(TruncatedNormal(mu=0.4, sigma=0.2), 0.05),
    Scaled(EmpiricalCdf(((0.05, 0.0), (0.2, 0.4), (0.9, 1.0))), 1.5),
]


def test_plateau_step(benchmark):
    _, after = benchmark(dynamics.step, ECONOMY, GROUPS, MODEL, H_MID)
    # the tie-break keeps the indifference state where it is
    assert after.sup_distance(H_MID) < 1e-9


def test_non_fixed_plateau_step(benchmark):
    theta, after = benchmark(dynamics.step, ECONOMY, GROUPS, MODEL, FULL)
    # U is flat on [0, h1]; its response closest to (1, 1) is at the peak h1
    assert theta == 0.4 and after.rates == (0.6, 0.3)


def test_corner_step(benchmark):
    theta, _ = benchmark(dynamics.step, ECONOMY, GROUPS, MODEL, CORNER)
    assert theta == 0.4


@pytest.mark.parametrize("cost", COST_KINDS, ids=lambda c: c.kind)
def test_response_distances(benchmark, cost):
    groups = uniform_groups(cost)
    thetas = np.linspace(0.4, 0.8, 1025)
    dists = benchmark(features._response_distances, MODEL, ECONOMY, groups, H_MID, thetas)
    assert dists.shape == thetas.shape and np.all(dists >= 0.0)
