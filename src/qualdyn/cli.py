"""Command-line front end for qualification-dynamics experiments.

Subcommands: run (one trajectory), sweep (initial-condition sweeps), find
(equilibrium enumeration with closed-form cross-checks), fit (score
histograms to Beta curves), verify (built-in assertion suites).

Scenario files are JSON with a top-level version field. Unknown fields are
rejected with a field-path diagnostic so a typo surfaces immediately
instead of silently running a different experiment.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import (
    EquilibriumRecord,
    find_equilibria_scan,
    gaussian_closed_forms,
    uniform_closed_forms,
)
from .core import (
    EconomyConfig,
    GroupSpec,
    QualificationState,
    _check_fields,
    _config_fields,
    _number,
    normalize_groups,
)
from .costs import from_config as cost_from_config
from .costs import subsidize
from .dynamics import (
    DynamicsConfig,
    FixedPoint,
    LimitCycle,
    NonConverged,
    _theta_json,
    cycle_average,
    dynamics_from_config,
    iterate,
    settled_state,
    step,
    trace_lines,
)
from .errors import (
    AssumptionError,
    ConfigurationError,
    ParameterError,
    ParseError,
    PreconditionError,
    QualdynError,
)
from .features import GaussianHalfspace, ScoreModel, UniformThreshold
from .features import from_config as features_from_config

CONFIG_VERSION = 1

_TOP_FIELDS = {"version", "economy", "groups", "features", "dynamics", "intervention", "seed"}
_TOP_REQUIRED = {"version", "economy", "groups", "features"}
_INTERVENTION_FIELDS = {"decouple", "subsidy"}
_SUBSIDY_FIELDS = {"group", "transform"}


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsidySpec:
    """Cost intervention for one group: shift the CDF left by a fixed delta
    or compress it by a factor, both of which weakly raise every quantile's
    take-up."""

    group: str
    method: str  # "shift" | "scale"
    amount: float


@dataclass(frozen=True)
class Scenario:
    economy: EconomyConfig
    groups: tuple[GroupSpec, ...]
    model: object
    dynamics: DynamicsConfig
    seed: int = 0
    decouple: bool = False
    subsidy: SubsidySpec | None = None

    def effective_groups(self) -> tuple[GroupSpec, ...]:
        """Groups with the subsidy intervention applied, if any."""
        if self.subsidy is None:
            return self.groups
        kwargs = {self.subsidy.method: self.subsidy.amount}
        return tuple(
            replace(g, cost=subsidize(g.cost, **kwargs))
            if g.id == self.subsidy.group
            else g
            for g in self.groups
        )

    def run_config(self, force_decoupled: bool = False) -> DynamicsConfig:
        if force_decoupled or self.decouple:
            return replace(self.dynamics, mode="decoupled")
        return self.dynamics


def _economy_from_config(obj, path: str = "economy") -> EconomyConfig:
    _check_fields(obj, path, *_config_fields(EconomyConfig))
    try:
        return EconomyConfig(**{k: _number(v, f"{path}.{k}") for k, v in obj.items()})
    except ParameterError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _group_from_config(obj, path: str) -> GroupSpec:
    _check_fields(obj, path, *_config_fields(GroupSpec))
    if not isinstance(obj["id"], str):
        raise ConfigurationError(f"{path}.id: expected a string, got {obj['id']!r}")
    try:
        return GroupSpec(
            id=obj["id"],
            proportion=_number(obj["proportion"], f"{path}.proportion"),
            cost=cost_from_config(obj["cost"], path=f"{path}.cost"),
        )
    except ParameterError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _subsidy_from_config(obj, groups: Sequence[GroupSpec], path: str) -> SubsidySpec:
    _check_fields(obj, path, _SUBSIDY_FIELDS, _SUBSIDY_FIELDS)
    group = obj["group"]
    ids = [g.id for g in groups]
    if group not in ids:
        raise ConfigurationError(
            f"{path}.group: {group!r} is not one of the declared groups {sorted(ids)}"
        )
    transform = _check_fields(obj["transform"], f"{path}.transform", ("shift", "scale"))
    if len(transform) != 1:
        raise ConfigurationError(
            f"{path}.transform: expected exactly one of shift or scale, got {sorted(transform)}"
        )
    ((method, amount),) = transform.items()
    amount = _number(amount, f"{path}.transform.{method}")
    try:
        subsidize(groups[ids.index(group)].cost, **{method: amount})
    except ParameterError as exc:
        raise ConfigurationError(f"{path}.transform.{method}: {exc}") from exc
    return SubsidySpec(group=group, method=method, amount=amount)


def scenario_from_config(obj) -> Scenario:
    """Validate and build a scenario from a parsed config mapping."""
    _check_fields(obj, "", _TOP_FIELDS, _TOP_REQUIRED)
    if type(obj["version"]) is not int or obj["version"] != CONFIG_VERSION:
        raise ConfigurationError(
            f"version: unsupported config version {obj['version']!r}; expected {CONFIG_VERSION}"
        )

    economy = _economy_from_config(obj["economy"])
    raw_groups = obj["groups"]
    if not isinstance(raw_groups, Sequence) or isinstance(raw_groups, (str, bytes)):
        raise ConfigurationError("groups: expected a list of group entries")
    parsed = [_group_from_config(entry, f"groups[{i}]") for i, entry in enumerate(raw_groups)]
    try:
        groups = normalize_groups(parsed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"groups: {exc}") from exc
    group_ids = tuple(g.id for g in groups)
    model = features_from_config(obj["features"], group_ids, path="features")
    dynamics = dynamics_from_config(obj.get("dynamics", {}), path="dynamics")

    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigurationError(f"seed: expected a non-negative integer, got {seed!r}")

    inter = _check_fields(obj.get("intervention", {}), "intervention", _INTERVENTION_FIELDS)
    decouple = inter.get("decouple", False)
    if not isinstance(decouple, bool):
        raise ConfigurationError(f"intervention.decouple: expected a boolean, got {decouple!r}")
    subsidy = None
    if "subsidy" in inter:
        subsidy = _subsidy_from_config(inter["subsidy"], groups, "intervention.subsidy")

    return Scenario(
        economy=economy,
        groups=groups,
        model=model,
        dynamics=dynamics,
        seed=seed,
        decouple=decouple,
        subsidy=subsidy,
    )


def scenario_to_config(scenario: Scenario) -> dict:
    """Serialize a scenario back to its canonical config mapping."""
    cfg: dict = {
        "version": CONFIG_VERSION,
        "economy": asdict(scenario.economy),
        "groups": [
            {"id": g.id, "proportion": g.proportion, "cost": g.cost.to_config()}
            for g in scenario.groups
        ],
        "features": scenario.model.to_config(),
        "dynamics": scenario.dynamics.to_config(),
        "seed": scenario.seed,
    }
    intervention: dict = {}
    if scenario.decouple:
        intervention["decouple"] = True
    if scenario.subsidy is not None:
        intervention["subsidy"] = {
            "group": scenario.subsidy.group,
            "transform": {scenario.subsidy.method: scenario.subsidy.amount},
        }
    if intervention:
        cfg["intervention"] = intervention
    return cfg


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_config(obj)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _parse_init(text: str, groups: tuple[GroupSpec, ...]) -> QualificationState:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParameterError(f"--init: expected comma-separated numbers, got {text!r}") from None
    if len(values) == 1:
        values = values * len(groups)
    if len(values) != len(groups):
        raise ParameterError(
            f"--init: expected 1 or {len(groups)} rates for groups "
            f"{[g.id for g in groups]}, got {len(values)}"
        )
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"--init: rates must lie in [0, 1], got {v}")
    return QualificationState(
        ids=tuple(g.id for g in groups), rates=tuple(values)
    )


def _fmt_state(state: QualificationState) -> str:
    return " ".join(f"{gid}={rate:.10g}" for gid, rate in zip(state.ids, state.rates))


def _fmt_theta(model, theta) -> str:
    """A rule as the trace writes it (dynamics._theta_json), in short form."""

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, dict):
            return " ".join(f"{g}:{fmt(t)}" for g, t in value.items())
        if isinstance(value, list):
            return "(" + ",".join(f"{x:.4g}" for x in value) + ")"
        return f"arc={value:.6g}" if isinstance(model, GaussianHalfspace) else f"{value:.6g}"

    return fmt(_theta_json(model, theta))


def _write_output(text: str, out: str | None, summary: Sequence[str]) -> None:
    """Write a command's output to the file `out` and print `summary` to
    stdout, or, with no `out`, write the output to stdout alone."""
    if out:
        Path(out).write_text(text)
        for line in summary:
            print(line)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    groups = scenario.effective_groups()
    config = scenario.run_config(args.decoupled)
    if args.init:
        initial = _parse_init(args.init, groups)
    else:
        initial = QualificationState(
            ids=tuple(g.id for g in groups), rates=(0.5,) * len(groups)
        )
    outcome = iterate(scenario.economy, groups, scenario.model, initial, config)
    verdict = outcome.verdict
    summary = [f"verdict: {verdict.name}"]
    if isinstance(verdict, FixedPoint):
        summary += [f"pi: {_fmt_state(verdict.state)}", f"residual: {verdict.residual:.6g}"]
    elif isinstance(verdict, LimitCycle):
        summary.append(f"period: {verdict.period}")
        summary.append(f"cycle average: {_fmt_state(cycle_average(outcome))}")
    else:
        summary.append(f"last: {_fmt_state(verdict.last)}")
    summary.append(f"trace: {len(outcome.trace)} records -> {args.out}")
    _write_output("\n".join(trace_lines(outcome, scenario.model)) + "\n", args.out, summary)
    return 2 if isinstance(verdict, NonConverged) else 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_starts(args, groups) -> list[tuple[list[float], QualificationState]]:
    ids = tuple(g.id for g in groups)
    if args.init:
        starts = []
        for chunk in args.init.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            state = _parse_init(chunk, groups)
            starts.append((list(state.rates), state))
        if not starts:
            raise ParameterError("--init: no start vectors given")
        return starts
    if args.grid < 2:
        raise ParameterError(f"--grid: a sweep needs at least 2 points, got {args.grid}")
    rates = np.linspace(0.0, 1.0, args.grid)
    return [
        (
            [float(r)],
            QualificationState(ids=ids, rates=(float(r),) * len(ids)),
        )
        for r in rates
    ]


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    groups = scenario.effective_groups()
    ids = [g.id for g in groups]
    want_decoupled = args.decoupled or scenario.decouple
    starts = _sweep_starts(args, groups)
    per_group_init = args.init is not None

    joint_cfg = replace(scenario.dynamics, mode="joint")
    dec_cfg = replace(scenario.dynamics, mode="decoupled")
    economy, model = scenario.economy, scenario.model

    header = (
        [f"init_{gid}" for gid in ids] if per_group_init else ["init"]
    ) + [f"joint_pi_{gid}" for gid in ids] + ["joint_verdict"]
    if want_decoupled:
        header += [f"decoupled_pi_{gid}" for gid in ids]
        header += ["decoupled_verdict"]
        header += [f"delta_{gid}" for gid in ids]

    def resting(outcome) -> QualificationState:
        state = settled_state(outcome)
        return outcome.verdict.last if state is None else state

    joint_memo: dict = {}
    dec_memo: dict = {}

    def one_row(start) -> list[str]:
        init_cells, state = start
        joint = iterate(economy, groups, model, state, joint_cfg, memo=joint_memo)
        joint_pi = resting(joint)
        row = [repr(v) for v in init_cells]
        row += [repr(r) for r in joint_pi.rates]
        row.append(joint.verdict.name)
        if want_decoupled:
            dec = iterate(economy, groups, model, state, dec_cfg, memo=dec_memo)
            dec_pi = resting(dec)
            row += [repr(r) for r in dec_pi.rates]
            row.append(dec.verdict.name)
            row += [repr(d - j) for d, j in zip(dec_pi.rates, joint_pi.rates)]
        return row

    rows = [one_row(start) for start in starts]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_output(buffer.getvalue(), args.out, [f"sweep: {len(rows)} rows -> {args.out}"])
    return 0


# ---------------------------------------------------------------------------
# find
# ---------------------------------------------------------------------------


def _shared_cost(groups):
    first = groups[0].cost
    if all(g.cost == first for g in groups[1:]):
        return first
    return None


def _closed_form_records(scenario, groups):
    """Closed-form equilibria for the solvable variants, or a refusal note."""
    model, economy = scenario.model, scenario.economy
    if isinstance(model, ScoreModel):
        return None, None
    if len(groups) != 2:
        return None, "closed forms cover exactly two groups"
    cost = _shared_cost(groups)
    if cost is None:
        return None, "closed forms need one cost model shared by both groups"
    g0, g1 = groups
    if isinstance(model, UniformThreshold):
        pairs = sorted(((model.threshold(g.id), g) for g in groups), key=lambda p: p[0])
        (h_lo, grp_lo), (h_hi, grp_hi) = pairs
        try:
            table = uniform_closed_forms(
                h_lo, h_hi, economy.wage, economy, (grp_lo, grp_hi), cost=cost
            )
        except (AssumptionError, PreconditionError, ParameterError) as exc:
            return None, str(exc)
        return table.records, None
    try:
        table = gaussian_closed_forms(
            model.vector(g0.id),
            model.vector(g1.id),
            economy.wage,
            cost,
            economy,
            group_ids=(g0.id, g1.id),
        )
    except (AssumptionError, PreconditionError, ParameterError) as exc:
        return None, str(exc)
    return table.records, None


def _map_residual(economy, groups, model, rec: EquilibriumRecord, cfg) -> float:
    """Sup-norm residual of a closed-form record under one joint step."""

    def advance(state):
        _, nxt = step(
            economy, groups, model, state, "joint",
            grid_size=cfg.theta_grid, tie_tol=cfg.tie_tol,
        )
        return nxt

    if rec.kind == "FixedPoint":
        return advance(rec.state).sup_distance(rec.state)
    s1, s2 = rec.cycle
    return max(advance(s1).sup_distance(s2), advance(s2).sup_distance(s1))


def _print_record(model, rec: EquilibriumRecord, residual: float | None) -> None:
    res = "-" if residual is None else f"{residual:.3g}"
    extra = f" period={rec.period}" if rec.kind == "LimitCycle" else ""
    print(
        f"  {rec.label:<10} {rec.kind:<11} {rec.stability:<12} "
        f"residual={res:<10} theta={_fmt_theta(model, rec.theta):<16} "
        f"pi: {_fmt_state(rec.state)}{extra}"
    )


def _check_seed(seed: int | None) -> None:
    # the scenario's `seed` field refuses a negative seed too
    if seed is not None and seed < 0:
        raise ParameterError(f"--seed: expected a non-negative integer, got {seed}")


def cmd_find(args) -> int:
    _check_seed(args.seed)
    scenario = load_scenario(args.config)
    groups = scenario.effective_groups()
    config = scenario.run_config(args.decoupled)
    mode = config.mode
    seed = args.seed if args.seed is not None else scenario.seed

    records = find_equilibria_scan(
        scenario.economy, groups, scenario.model, args.grid, config=config, seed=seed
    )
    print(f"equilibria ({mode} scan):")
    if not records:
        print("  none found")
    for rec in records:
        _print_record(scenario.model, rec, rec.residual)

    if mode != "joint":
        return 0
    closed, note = _closed_form_records(scenario, groups)
    if note is not None:
        print(f"closed forms unavailable: {note}")
    elif closed is not None:
        print("closed forms (residual = sup distance after one joint step):")
        worst = 0.0
        for rec in closed:
            residual = _map_residual(scenario.economy, groups, scenario.model, rec, config)
            worst = max(worst, residual)
            _print_record(scenario.model, rec, residual)
        print(f"max closed-form discrepancy: {worst:.6g}")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    # imported here, as verify imports its suites: no other command needs it
    from .ingest import fit_beta, fit_beta_resampled, load_histogram, to_score_model

    _check_seed(args.seed)
    hist = load_histogram(args.histogram)
    fits: dict[str, dict[int, object]] = {}
    diagnostics: list[str] = []
    for group in sorted(hist.groups):
        fits[group] = {}
        for label in (1, 0):
            if args.resample is not None:
                fit = fit_beta_resampled(hist, group, label, args.resample, args.seed)
            else:
                fit = fit_beta(hist, group, label)
            fits[group][label] = fit
            diagnostics.append(
                f"group {group} label {label}: alpha={fit.alpha:.6g} beta={fit.beta:.6g} "
                f"loglik={fit.log_likelihood:.6g} iterations={fit.iterations}"
            )
    model = to_score_model(fits)
    if not args.out:
        for line in diagnostics:
            print(line, file=sys.stderr)
    snippet = json.dumps(model.to_config(), indent=2, sort_keys=True) + "\n"
    _write_output(snippet, args.out, [*diagnostics, f"feature block -> {args.out}"])
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import verification

    results = verification.run_suite(args.suite)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name:<{width}}  {r.detail}")
    passed = sum(1 for r in results if r.passed)
    print(f"suite {args.suite}: {passed}/{len(results)} passed")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; 2 is reserved for
    non-convergence here, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qualdyn argument parser, built on the first call and shared by
    every later one: parsing keeps no state in it, so main may run many
    commands in one process. Callers must not modify it."""
    parser = _Parser(prog="qualdyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = sub.add_parser("run", help="run one trajectory and write its trace")
    run_p.add_argument("--config", required=True, help="scenario file (JSON)")
    run_p.add_argument(
        "--init",
        help="initial rates, one number or comma-separated per group in id order "
        "(default 0.5 everywhere)",
    )
    run_p.add_argument("--out", help="trace destination (default: stdout)")
    run_p.add_argument("--decoupled", action="store_true", help="force per-group rules")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep initial rates and tabulate outcomes")
    sweep_p.add_argument("--config", required=True, help="scenario file (JSON)")
    sweep_p.add_argument("--grid", type=int, default=11, help="number of shared starts (>= 2)")
    sweep_p.add_argument(
        "--init",
        help="explicit start vectors instead of the shared grid, "
        "semicolon-separated (e.g. '0.2,0.7;0.5,0.5')",
    )
    sweep_p.add_argument("--out", help="CSV destination (default: stdout)")
    sweep_p.add_argument(
        "--decoupled", action="store_true", help="also run decoupled dynamics and report deltas"
    )
    sweep_p.set_defaults(func=cmd_sweep)

    find_p = sub.add_parser("find", help="enumerate equilibria and cross-check closed forms")
    find_p.add_argument("--config", required=True, help="scenario file (JSON)")
    find_p.add_argument(
        "--grid", type=int, default=None,
        help="scan points per axis (default 401 for one group, 21 for several; "
        "not used by a halfspace scan, which starts from its response table). "
        "One group with strict-MLR Beta scores (features._strict_mlr_beta: y1 alpha > "
        "y0 alpha and y1 beta < y0 beta) is scanned on the theta-curve, where GRID "
        "counts cut points theta and no best response is solved for them; any other "
        "one-group model is scanned on rates pi. The two scans' records agree within "
        "the scenario's fix_tol, and every assessed record's one-step residual is "
        "<= fix_tol; a record's theta agrees within fix_tol too, except at a flat top "
        "of the utility and near pi = 0 where the utility at the first-order cut "
        "rounds to <= 0 (see find_equilibria_scan)",
    )
    find_p.add_argument("--seed", type=int, default=None, help="seed for stability probes")
    find_p.add_argument("--decoupled", action="store_true", help="scan decoupled dynamics")
    find_p.set_defaults(func=cmd_find)

    fit_p = sub.add_parser("fit", help="fit Beta score curves to a histogram CSV")
    fit_p.add_argument("histogram", help="CSV with columns group,label,score,count")
    fit_p.add_argument("--out", help="feature-block destination (default: stdout)")
    fit_p.add_argument(
        "--resample", type=int, default=None,
        help="fit on N resampled draws instead of bin masses",
    )
    fit_p.add_argument("--seed", type=int, default=0, help="resampling seed")
    fit_p.set_defaults(func=cmd_fit)

    verify_p = sub.add_parser("verify", help="run a built-in assertion suite")
    verify_p.add_argument(
        "suite",
        help="one of: realizable, near-realizable, uniform, gaussian, "
        "multi-eq, subsidy, decoupling",
    )
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except QualdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
