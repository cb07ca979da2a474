"""Tests of the benchmark itself: every answer check rejects a corrupted
answer, and every seed the generators accept yields a valid scenario.

Run from the repository root (about 15 s):

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import copy
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from qualdyn import analysis, cli, costs, dynamics, features  # noqa: E402
from qualdyn.core import QualificationState  # noqa: E402

SEEDS = range(12)


def family(name, seed, tmp_path):
    return run.setup(workloads.WORKLOADS[name], seed, tmp_path)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_seeded(name):
    w = workloads.WORKLOADS[name]
    first = [i["config"] for i in workloads.generate(w, 3)]
    assert first == [i["config"] for i in workloads.generate(w, 3)]
    assert first != [i["config"] for i in workloads.generate(w, 4)]
    assert len(first) == w.size


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_scenarios_meet_the_closed_form_preconditions(seed, tmp_path):
    for item in family("uniform-plateau", seed, tmp_path):
        sc, p = item["scenario"], item["params"]
        table = analysis.uniform_closed_forms(p["h1"], p["h2"], p["wage"], sc.economy, sc.groups)
        assert {r.label for r in table.records} == {"h1", "h2", "h_mid"}


@pytest.mark.parametrize("seed", SEEDS)
def test_halfspace_scenarios_meet_the_closed_form_preconditions(seed, tmp_path):
    for item in family("halfspace-find", seed, tmp_path):
        sc = item["scenario"]
        g1, g2 = sc.groups
        assert g1.proportion == g2.proportion
        assert g1.cost.to_config() == g2.cost.to_config()
        table = analysis.gaussian_closed_forms(
            sc.model.vector("g1"), sc.model.vector("g2"), sc.economy.wage, g1.cost, sc.economy,
        )
        # Fixed-point and cycle regimes alternate through the family.
        want = "stable_pair" if item["index"] % 2 == 0 else "limit_cycle"
        assert table.regime == want


@pytest.mark.parametrize("seed", SEEDS)
def test_score_scenarios_meet_the_two_root_preconditions(seed, tmp_path):
    for item in family("score-find", seed, tmp_path):
        sc = item["scenario"]
        (group,) = sc.groups
        half = QualificationState(ids=("g",), rates=(0.5,))
        theta = features.institution_best_response(sc.model, sc.economy, sc.groups, half)
        tpr, fpr = sc.model.tpr_fpr("g", theta)
        assert sc.economy.wage * (tpr - fpr) > costs.inverse_cdf(group.cost, 0.5)
        # The lower root lies beyond find's first grid step.
        low = QualificationState(ids=("g",), rates=(0.015,))
        _, moved = dynamics.step(sc.economy, sc.groups, sc.model, low)
        assert moved.rates[0] < 0.015


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_costs_have_two_valleys(seed, tmp_path):
    xs = np.linspace(0.0, 1.0, 2001)
    for item in family("decoupled-sweep", seed, tmp_path):
        cost = item["scenario"].groups[0].cost
        density = np.diff([cost.cdf(float(x)) for x in xs])
        peaks = np.sum((density[1:-1] > density[:-2]) & (density[1:-1] > density[2:]))
        assert peaks == 2


# ---------------------------------------------------------------------------
# Answer checks reject corrupted answers
# ---------------------------------------------------------------------------


def checked(name, index, tmp_path):
    w = workloads.WORKLOADS[name]
    item = run.setup(w, 0, tmp_path)[index]
    output = w.run(item)
    ok, detail = w.check(item, output)
    assert ok, detail
    return w, item, output


def rejects(w, item, output) -> bool:
    ok, _ = w.check(item, output)
    return not ok


def test_score_check_rejects_corrupted_answers(tmp_path):
    w, item, (code, text) = checked("score-find", 1, tmp_path)
    lines = text.splitlines()
    root = max(i for i, line in enumerate(lines) if "pi: g=" in line)
    moved = lines[:root] + [re.sub(r"pi: g=\S+", "pi: g=0.5", lines[root])] + lines[root + 1:]
    assert rejects(w, item, (code, "\n".join(moved)))
    dropped = lines[:root] + lines[root + 1:]
    assert rejects(w, item, (code, "\n".join(dropped)))
    assert rejects(w, item, (1, text))


def test_uniform_check_rejects_corrupted_answers(tmp_path):
    w, item, output = checked("uniform-plateau", 0, tmp_path)
    drifting = dict(output, drift=1e-3)
    assert rejects(w, item, drifting)
    relabelled = copy.deepcopy(output)
    state, expected, _ = relabelled["corners"]["h1"]
    relabelled["corners"]["h1"] = (state, expected, "Unstable")
    assert rejects(w, item, relabelled)
    stuck = copy.deepcopy(output)
    stuck["settled"][0] = ("NonConverged", None)
    assert rejects(w, item, stuck)
    off = copy.deepcopy(output)
    verdict, final = off["settled"][1]
    off["settled"][1] = (verdict, QualificationState(ids=final.ids, rates=(0.5, 0.5)))
    assert rejects(w, item, off)


@pytest.mark.parametrize("index", [0, 1])  # stable-pair and limit-cycle regimes
def test_halfspace_check_rejects_corrupted_answers(index, tmp_path):
    w, item, (code, text) = checked("halfspace-find", index, tmp_path)
    assert rejects(w, item, (code, text.replace("Unstable", "Stable", 1)))
    assert rejects(w, item, (code, re.sub(r"discrepancy: \S+", "discrepancy: 1e-06", text)))
    scan_end = text.index("closed forms (")
    scan, rest = text[:scan_end], text[scan_end:]
    unmatched = re.sub(r"pi: g1=\S+", "pi: g1=0.9999", scan)
    assert rejects(w, item, (code, unmatched + rest))
    assert rejects(w, item, (2, text))


def test_sweep_check_rejects_corrupted_answers(tmp_path):
    w, item, (code, text) = checked("decoupled-sweep", 0, tmp_path)
    lines = text.strip().splitlines()
    k = item["sample_row"] + 1
    cells = lines[k].split(",")
    cells[1] = repr(float(cells[1]) + 1e-12)
    altered = lines[:k] + [",".join(cells)] + lines[k + 1:]
    assert rejects(w, item, (code, "\n".join(altered)))
    assert rejects(w, item, (code, "\n".join(lines[:-1])))
    other = 1 if k != 1 else 2
    stuck = lines[other].replace("FixedPoint", "NonConverged").replace("LimitCycle", "NonConverged")
    assert rejects(w, item, (code, "\n".join(lines[:other] + [stuck] + lines[other + 1:])))
    assert rejects(w, item, (1, text))


def test_cli_is_the_program_under_test():
    assert Path(cli.__file__).resolve().parent == (HERE.parent / "src" / "qualdyn").resolve()
