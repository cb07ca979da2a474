"""Seeded scenario families, the task each workload times, and its answer check.

Every family starts with its anchor scenario from ``qualdyn.verification``
(copied here as literal parameters, so a refactor of that module cannot
change the benchmark's inputs), followed by seeded variants. Variants are
drawn and validated with the benchmark's own arithmetic, never with the
program under test, so a change to the program cannot change the inputs.

A workload object offers:

* ``generate(seed)`` -> list of items (each holds a scenario config and the
  parameters its check needs);
* ``run(item)`` -> the task's output, the only part that is timed;
* ``check(item, output)`` -> ``(ok, detail)``, run after the timed region;
* ``labels(output)`` -> the stability labels the task reported.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import replace

import numpy as np
from scipy import special

from qualdyn import analysis, cli, dynamics
from qualdyn.core import QualificationState

# Acceptance residual of a one-group root in `find` (analysis._NONZERO_TOL):
# a root whose one-step residual exceeds it is not reported.
SCAN_ACCEPT = 1e-6


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rel * rng.uniform(-1.0, 1.0))


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run the `qualdyn` command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Parsing the `find` report
# ---------------------------------------------------------------------------

_RECORD = re.compile(
    r"^\s+(?P<label>\S+)\s+(?P<kind>FixedPoint|LimitCycle)\s+(?P<stability>\S+)\s+"
    r"residual=(?P<residual>\S+)\s+theta=(?P<theta>.*?)\s+pi: (?P<pi>.*?)"
    r"(?: period=(?P<period>\d+))?\s*$"
)


def parse_find(text: str) -> dict:
    """Split `find` output into scan records, closed-form records and the
    printed worst closed-form discrepancy."""
    scan, closed, discrepancy = [], [], None
    section = None
    for line in text.splitlines():
        if line.startswith("equilibria ("):
            section = scan
        elif line.startswith("closed forms ("):
            section = closed
        elif line.startswith("max closed-form discrepancy:"):
            discrepancy = float(line.split(":", 1)[1])
            section = None
        elif section is not None:
            m = _RECORD.match(line)
            if m:
                rates = {}
                for part in m.group("pi").split():
                    gid, value = part.split("=")
                    rates[gid] = float(value)
                section.append(
                    {
                        "kind": m.group("kind"),
                        "stability": m.group("stability"),
                        "state": QualificationState.of(rates),
                        "period": int(m.group("period")) if m.group("period") else None,
                    }
                )
    return {"scan": scan, "closed": closed, "discrepancy": discrepancy}


def _find_labels(output) -> list[str]:
    code, text = output
    return [r["stability"] for r in parse_find(text)["scan"] if r["kind"] == "FixedPoint"]


# ---------------------------------------------------------------------------
# score-find: one group, Beta scores, steep truncated-normal costs
# ---------------------------------------------------------------------------


def score_config(a1, b1, a0, b0, mu, sigma, wage) -> dict:
    return {
        "version": 1,
        "economy": {"wage": wage, "payoff_tp": 1.0, "cost_fp": 1.0},
        "groups": [
            {
                "id": "g",
                "proportion": 1.0,
                "cost": {"kind": "truncated_normal", "mu": mu, "sigma": sigma},
            }
        ],
        "features": {
            "variant": "score",
            "groups": {"g": {"y1": {"alpha": a1, "beta": b1}, "y0": {"alpha": a0, "beta": b0}}},
        },
    }


def truncnorm_cdf(x, mu, sigma):
    lo, hi = special.ndtr((0.0 - mu) / sigma), special.ndtr((1.0 - mu) / sigma)
    return (special.ndtr((np.asarray(x) - mu) / sigma) - lo) / (hi - lo)


def score_phi(p: dict, pi: float) -> float:
    """Phi(pi) = G(w * (TPR - FPR)) at the institution's best cut for one
    group, on the benchmark's own 20001-point grid, independent of the
    solver under test."""
    thetas = np.linspace(0.0, 1.0, 20001)
    tpr = 1.0 - special.betainc(p["a1"], p["b1"], thetas)
    fpr = 1.0 - special.betainc(p["a0"], p["b0"], thetas)
    utility = pi * tpr - (1.0 - pi) * fpr
    best = int(np.argmax(utility))
    if utility[best] <= 0.0:
        return 0.0  # reject everyone: no gain, and the cost CDF is 0 at 0
    gain = p["wage"] * (tpr[best] - fpr[best])
    return float(truncnorm_cdf(gain, p["mu"], p["sigma"]))


def score_preconditions(p: dict) -> bool:
    """Criterion 07's precondition for two interior roots: at pi = 1/2 the
    gain beats the cost median, so Phi(1/2) > 1/2. And the lower root must
    lie above 0.015, where `find --grid 101` can bracket it: a root inside
    the first grid step shares that step with the trivial root at 0, and the
    scan, which brackets sign changes, cannot see it."""
    return score_phi(p, 0.5) > 0.5 and score_phi(p, 0.015) < 0.015


class ScoreFind:
    """`qualdyn find --grid 101` on one-group score scenarios (criterion 07)."""

    name = "score-find"
    size = 16  # a 30 s run gets through the family about once on a 2-core box
    trace_round = 4
    grid = 101
    # Sign changes of Phi(pi) - pi are counted on this grid, offset from the
    # scan's own 101-point grid so the count is an independent check. Its
    # first point sits below any root: there the institution rejects everyone
    # and Phi - pi = -pi < 0, so a low root is counted however close to 0.
    check_grid = np.concatenate(([1e-6], np.linspace(0.0, 1.0, 97)[1:]))
    anchors = (dict(a1=5.0, b1=2.0, a0=2.0, b0=5.0, mu=0.6, sigma=0.1, wage=1.0),)

    def draw(self, rng: random.Random, index: int) -> dict:
        return {k: _jitter(rng, v, 0.05) for k, v in self.anchors[0].items()}

    def valid(self, p: dict) -> bool:
        return score_preconditions(p)

    def config(self, p: dict) -> dict:
        return score_config(**p)

    def run(self, item):
        return call_cli(["find", "--config", item["path"], "--grid", str(self.grid)])

    labels = staticmethod(_find_labels)

    def _sign_changes(self, item) -> int:
        if "sign_changes" not in item:
            sc = item["scenario"]
            psi = []
            for x in self.check_grid:
                state = QualificationState(ids=("g",), rates=(float(x),))
                _, moved = dynamics.step(sc.economy, sc.groups, sc.model, state, "joint")
                psi.append(moved.rates[0] - float(x))
            signs = [s for s in np.sign(psi) if s != 0]
            item["sign_changes"] = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        return item["sign_changes"]

    def check(self, item, output):
        code, text = output
        if code != 0:
            return False, f"exit code {code}"
        records = parse_find(text)["scan"]
        if not records:
            return False, "no equilibria reported"
        sc = item["scenario"]
        for rec in records:
            _, moved = dynamics.step(sc.economy, sc.groups, sc.model, rec["state"], "joint")
            residual = moved.sup_distance(rec["state"])
            if residual > SCAN_ACCEPT:
                return False, f"reported root {rec['state'].rates} has residual {residual:.3g}"
        nonzero = sum(1 for r in records if max(r["state"].rates) > SCAN_ACCEPT)
        flips = self._sign_changes(item)
        if nonzero != flips:
            return False, f"{nonzero} non-zero roots vs {flips} sign changes"
        return True, f"{nonzero} non-zero roots"


# ---------------------------------------------------------------------------
# uniform-plateau: two groups, uniform thresholds, the interior plateau
# ---------------------------------------------------------------------------


def uniform_config(h1, h2, wage, n1, payoff_tp, cost_fp) -> dict:
    return {
        "version": 1,
        "economy": {"wage": wage, "payoff_tp": payoff_tp, "cost_fp": cost_fp},
        "groups": [
            {"id": "a1", "proportion": n1, "cost": {"kind": "uniform01"}},
            {"id": "a2", "proportion": 1.0 - n1, "cost": {"kind": "uniform01"}},
        ],
        "features": {"variant": "uniform_threshold", "thresholds": {"a1": h1, "a2": h2}},
    }


def uniform_preconditions(p: dict) -> bool:
    """The closed-form table's preconditions, plus both stable corners and
    the interior indifference point existing (the formulas of
    `analysis.uniform_closed_forms`, written out independently)."""
    h1, h2, w = p["h1"], p["h2"], p["wage"]
    if not (0.0 < h1 < h2 < 1.0 and h2 > 1.0 - h1 and w > 0.0):
        return False
    lhs, rhs = p["n1"] * p["payoff_tp"], (1.0 - p["n1"]) * p["cost_fp"]
    if abs(lhs - rhs) > 1e-12 * max(1.0, lhs, rhs):
        return False
    expr_a = (1.0 - h1) ** 2 / ((1.0 - h2) * h2 + (1.0 - h1) ** 2)
    expr_b = h2 * (1.0 - h1) / (h2 ** 2 + h1 * (1.0 - h1))
    g = (1.0 - h1) * (-w * h2 ** 2 + h2 * (1.0 - h1) - w * h1 * (1.0 - h1)) / (
        w * ((1.0 - h1) ** 2 - h2 ** 2)
    )
    # Margins keep every draw clear of the regime boundaries.
    return w > expr_b + 0.01 and w < expr_a - 0.01 and 0.05 < g < h2 - h1 - 0.05


class UniformPlateau:
    """Library calls in criterion 02's pattern on two-group uniform scenarios:
    repeated `step` at the interior indifference point, `classify_stability`
    at both corners, and runs from perturbations of the interior point."""

    name = "uniform-plateau"
    size = 16
    trace_round = 8
    kick = 1e-3
    # `steps` is how many times a task steps the interior point. Tasks of
    # varied length keep the median task time moving smoothly, rather than
    # jumping, when other tenants slow the machine for part of a run; the
    # counts form a fixed ladder so every seed's family has the same mix.
    anchors = (dict(h1=0.4, h2=0.8, wage=0.6, n1=0.5, payoff_tp=1.0, cost_fp=1.0, steps=25),)

    def draw(self, rng: random.Random, index: int) -> dict:
        n1 = rng.uniform(0.4, 0.6)
        return dict(
            h1=rng.uniform(0.3, 0.5),
            h2=rng.uniform(0.7, 0.9),
            wage=rng.uniform(0.5, 0.7),
            n1=n1,
            payoff_tp=1.0,
            cost_fp=n1 / (1.0 - n1),  # balanced economy: n1 * p = n2 * c
            steps=5 + round(40 * (index - 1) / (self.size - 2)),
        )

    def valid(self, p: dict) -> bool:
        return uniform_preconditions(p)

    def config(self, p: dict) -> dict:
        return uniform_config(**{k: v for k, v in p.items() if k != "steps"})

    def run(self, item):
        sc, p = item["scenario"], item["params"]
        economy, groups, model, config = sc.economy, sc.groups, sc.model, sc.dynamics
        table = analysis.uniform_closed_forms(p["h1"], p["h2"], p["wage"], economy, groups)
        records = {r.label: r for r in table.records}
        mid = records["h_mid"].state
        state, drift = mid, 0.0
        for _ in range(p["steps"]):
            _, state = dynamics.step(economy, groups, model, state, "joint")
            drift = max(drift, state.sup_distance(mid))
        corners = {
            label: (records[label].state, records[label].stability,
                    dynamics.classify_stability(economy, groups, model,
                                                records[label].state, config))
            for label in ("h1", "h2")
        }
        settled = []
        for i in range(len(mid.rates)):
            for sign in (1.0, -1.0):
                rates = list(mid.rates)
                rates[i] = min(1.0, max(0.0, rates[i] + sign * self.kick))
                start = QualificationState(ids=mid.ids, rates=tuple(rates))
                out = dynamics.iterate(economy, groups, model, start, config)
                final = out.verdict.state if out.verdict.name == "FixedPoint" else None
                settled.append((out.verdict.name, final))
        return {"drift": drift, "corners": corners, "settled": settled}

    def labels(self, output) -> list[str]:
        return [label for _, _, label in output["corners"].values()]

    def check(self, item, output):
        if output["drift"] > 1e-6:
            return False, f"interior drift {output['drift']:.3g}"
        for label, (_, expected, got) in output["corners"].items():
            if got != expected:
                return False, f"corner {label} labelled {got}, closed form says {expected}"
        corner_states = [state for state, _, _ in output["corners"].values()]
        for verdict, final in output["settled"]:
            if final is None:
                return False, f"perturbed run ended {verdict}"
            if min(final.sup_distance(c) for c in corner_states) > 1e-6:
                return False, f"perturbed run settled off the corners at {final.rates}"
        return True, "interior stationary, corners reached and stable"


# ---------------------------------------------------------------------------
# halfspace-find: two groups, Gaussian features, halfspace rules
# ---------------------------------------------------------------------------


def halfspace_config(angle_deg, wage, payoff_tp, cost_fp) -> dict:
    phi = math.radians(angle_deg)
    return {
        "version": 1,
        "economy": {"wage": wage, "payoff_tp": payoff_tp, "cost_fp": cost_fp},
        "groups": [
            {"id": "g1", "proportion": 0.5, "cost": {"kind": "uniform01"}},
            {"id": "g2", "proportion": 0.5, "cost": {"kind": "uniform01"}},
        ],
        "features": {
            "variant": "gaussian_halfspace",
            "vectors": {"g1": [1.0, 0.0], "g2": [math.cos(phi), math.sin(phi)]},
        },
    }


def halfspace_preconditions(p: dict) -> bool:
    """`gaussian_closed_forms` applies: equal group sizes and one shared cost
    (fixed by the config), distinct non-opposite boundaries, and
    payoff_tp != cost_fp."""
    return 0.0 < p["angle_deg"] < 180.0 and p["wage"] > 0.0 and p["payoff_tp"] != p["cost_fp"]


class HalfspaceFind:
    """`qualdyn find` on two-group halfspace scenarios whose payoff ratio
    alternates around 1: fixed-point tasks and period-2-cycle tasks take
    turns."""

    name = "halfspace-find"
    size = 16
    trace_round = 8
    # Criteria 05 and 06: the stable-pair and the limit-cycle regime.
    anchors = (
        dict(angle_deg=90.0, wage=0.8, payoff_tp=2.0, cost_fp=1.0),
        dict(angle_deg=90.0, wage=0.8, payoff_tp=1.0, cost_fp=2.0),
    )

    def draw(self, rng: random.Random, index: int) -> dict:
        ratio = rng.uniform(1.3, 2.0)
        high_payoff = index % 2 == 0
        return dict(
            angle_deg=rng.uniform(60.0, 120.0),
            wage=rng.uniform(0.6, 0.9),
            payoff_tp=ratio if high_payoff else 1.0,
            cost_fp=1.0 if high_payoff else ratio,
        )

    def valid(self, p: dict) -> bool:
        return halfspace_preconditions(p)

    def config(self, p: dict) -> dict:
        return halfspace_config(**p)

    def run(self, item):
        return call_cli(["find", "--config", item["path"]])

    labels = staticmethod(_find_labels)

    def check(self, item, output):
        code, text = output
        if code != 0:
            return False, f"exit code {code}"
        report = parse_find(text)
        if not report["closed"]:
            return False, "no closed-form records printed"
        if report["discrepancy"] is None or report["discrepancy"] > 1e-9:
            return False, f"closed-form discrepancy {report['discrepancy']}"
        for want in report["closed"]:
            match = [
                r for r in report["scan"]
                if r["kind"] == want["kind"]
                and r["period"] == want["period"]
                and r["state"].sup_distance(want["state"]) <= 1e-4
            ]
            if not match:
                return False, f"no scan match for closed-form {want['kind']} {want['state'].rates}"
            if all(r["stability"] != want["stability"] for r in match):
                return False, (
                    f"closed-form {want['state'].rates} is {want['stability']}, "
                    f"scan says {match[0]['stability']}"
                )
        return True, f"{len(report['closed'])} closed-form records matched"


# ---------------------------------------------------------------------------
# decoupled-sweep: two groups, score model, two-valley bimodal costs
# ---------------------------------------------------------------------------


def sweep_config(mu1, sigma1, mu2, sigma2, mix, n_a, a, b) -> dict:
    cost = {
        "kind": "bimodal_normal",
        "mu1": mu1, "sigma1": sigma1, "mu2": mu2, "sigma2": sigma2, "mix": mix,
    }
    return {
        "version": 1,
        "economy": {"wage": 1.0, "payoff_tp": 1.0, "cost_fp": 1.0},
        "groups": [
            {"id": "a", "proportion": n_a, "cost": cost},
            {"id": "b", "proportion": 1.0 - n_a, "cost": cost},
        ],
        "features": {
            "variant": "score",
            "groups": {
                "a": {"y1": {"alpha": a[0], "beta": a[1]}, "y0": {"alpha": a[1], "beta": a[0]}},
                "b": {"y1": {"alpha": b[0], "beta": b[1]}, "y0": {"alpha": b[1], "beta": b[0]}},
            },
        },
        # Criterion 10's settings.
        "dynamics": {"max_iters": 300, "fix_tol": 1e-6, "theta_grid": 401},
    }


def two_valleys(p: dict) -> bool:
    """The cost density has two separated modes (criterion 10's shape)."""
    spread = max(p["sigma1"], p["sigma2"])
    return 0.0 < p["mu1"] < p["mu2"] < 1.0 and p["mu2"] - p["mu1"] > 2.0 * spread and (
        0.2 <= p["mix"] <= 0.8
    )


class DecoupledSweep:
    """`qualdyn sweep --grid 6 --decoupled`: joint and per-group rules from
    six shared starts, rows run on the command's thread pool.

    Not listed in BENCHMARK.json: its two threads make it the most exposed
    to other tenants on a 2-core box, and its ten-seed spreads exceeded the
    largest bound the benchmark may set. Run it by name to measure the pool.
    """

    name = "decoupled-sweep"
    size = 8
    trace_round = 3
    rows = 6
    anchors = (dict(mu1=0.25, sigma1=0.12, mu2=0.6, sigma2=0.12, mix=0.5, n_a=0.7,
                    a=(5.0, 2.0), b=(4.0, 2.5)),)

    def draw(self, rng: random.Random, index: int) -> dict:
        return dict(
            mu1=_jitter(rng, 0.25, 0.05),
            sigma1=_jitter(rng, 0.12, 0.1),
            mu2=_jitter(rng, 0.6, 0.05),
            sigma2=_jitter(rng, 0.12, 0.1),
            mix=_jitter(rng, 0.5, 0.1),
            n_a=rng.uniform(0.64, 0.72),
            a=(_jitter(rng, 5.0, 0.05), _jitter(rng, 2.0, 0.05)),
            b=(_jitter(rng, 4.0, 0.05), _jitter(rng, 2.5, 0.05)),
        )

    def valid(self, p: dict) -> bool:
        return two_valleys(p)

    def config(self, p: dict) -> dict:
        return sweep_config(**p)

    def run(self, item):
        return call_cli(
            ["sweep", "--config", item["path"], "--grid", str(self.rows), "--decoupled"]
        )

    def labels(self, output) -> list[str]:
        return []  # sweep rows carry verdicts, not stability labels

    def _serial_row(self, item) -> list[str]:
        """The sampled row recomputed with serial library calls."""
        if "serial_row" not in item:
            sc = item["scenario"]
            r = float(np.linspace(0.0, 1.0, self.rows)[item["sample_row"]])
            start = QualificationState(ids=("a", "b"), rates=(r, r))
            row = [repr(r)]
            settled = []
            for mode in ("joint", "decoupled"):
                config = replace(sc.dynamics, mode=mode)
                out = dynamics.iterate(sc.economy, sc.groups, sc.model, start, config)
                v = out.verdict
                if v.name == "FixedPoint":
                    state = v.state
                elif v.name == "LimitCycle":
                    state = dynamics.cycle_average(out)
                else:
                    state = v.last
                settled.append(state)
                row += [repr(x) for x in state.rates] + [v.name]
            row += [repr(d - j) for d, j in zip(settled[1].rates, settled[0].rates)]
            item["serial_row"] = row
        return item["serial_row"]

    def check(self, item, output):
        code, text = output
        if code != 0:
            return False, f"exit code {code}"
        lines = text.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != self.rows:
            return False, f"{len(rows)} rows, expected {self.rows}"
        header = lines[0].split(",")
        verdict_cols = [i for i, h in enumerate(header) if h.endswith("_verdict")]
        for row in rows:
            for i in verdict_cols:
                if row[i] not in ("FixedPoint", "LimitCycle"):
                    return False, f"row from {row[0]} ended {row[i]}"
        want = self._serial_row(item)
        got = rows[item["sample_row"]]
        if got != want:
            return False, f"row {item['sample_row']} differs from a serial re-run"
        return True, f"{len(rows)} rows, row {item['sample_row']} matches a serial re-run"


WORKLOADS = {w.name: w for w in (ScoreFind(), UniformPlateau(), HalfspaceFind(), DecoupledSweep())}


def generate(workload, seed: int, max_draws: int = 1000) -> list[dict]:
    """The workload's seeded family: anchor(s) first, then valid variants.

    Draws that fail the family's preconditions are redrawn from the same
    seeded stream; a seed that cannot fill the family is refused.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    params = list(workload.anchors)
    draws = 0
    while len(params) < workload.size:
        draws += 1
        if draws > max_draws:
            raise ValueError(f"seed {seed} yields no valid {workload.name} scenario")
        p = workload.draw(rng, len(params))
        if workload.valid(p):
            params.append(p)
    items = []
    for i, p in enumerate(params):
        item = {"index": i, "params": p, "config": workload.config(p)}
        if isinstance(workload, DecoupledSweep):
            item["sample_row"] = rng.randrange(workload.rows)
        items.append(item)
    return items
