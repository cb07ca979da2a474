"""Best-response dynamics: the population responds to the institution's rule,
the institution re-optimizes, and the loop either settles, cycles, or runs out
of budget.

One time step is institution-first: theta_t best-responds to pi_{t-1}, then
every group best-responds to theta_t. The composed map is deterministic (all
tie-breaking is fixed), so traces are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .core import (
    EconomyConfig,
    GroupSpec,
    QualificationState,
    RATE_TOL,
    _check_fields,
    _config_fields,
    _is_finite_real,
    _number,
    balance,
    institutional_utility,
    normalize_groups,
    response_rate,
)
from .errors import ConfigurationError, ParameterError, PreconditionError
from .features import (
    DEFAULT_GRID,
    GaussianHalfspace,
    decoupled_best_response,
    institution_best_response,
)

Mode = Literal["joint", "decoupled"]
Stability = Literal["Stable", "Unstable", "NotAssessed"]

STABLE: Stability = "Stable"
UNSTABLE: Stability = "Unstable"
NOT_ASSESSED: Stability = "NotAssessed"


@dataclass(frozen=True)
class DynamicsConfig:
    """Iteration budget and detection tolerances for the dynamics loop.

    fix_tol is a sup-norm tolerance on qualification rates, used for
    fixed-point/cycle detection and as the floor of the return radius in
    stability probes. perturb_eps is the size of a probe's kick and sets
    both probe radii: a probe returns within perturb_eps / 1000 and escapes
    beyond 1000 * perturb_eps (see classify_stability). theta_grid and
    tie_tol are passed through to the institution's solver.
    """

    mode: Mode = "joint"
    max_iters: int = 500
    fix_tol: float = 1e-9
    cycle_window: int = 64
    perturb_eps: float = 1e-4
    theta_grid: int = DEFAULT_GRID
    tie_tol: float = RATE_TOL

    def __post_init__(self) -> None:
        if self.mode not in ("joint", "decoupled"):
            raise ParameterError(f"mode must be 'joint' or 'decoupled', got {self.mode!r}")
        for name, least in (("max_iters", 1), ("cycle_window", 2), ("theta_grid", 3)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("fix_tol", "perturb_eps", "tie_tol"):
            value = getattr(self, name)
            if not (_is_finite_real(value) and value > 0):
                raise ParameterError(f"{name} must be a positive finite real, got {value!r}")

    def to_config(self) -> dict:
        return asdict(self)


def dynamics_from_config(obj: Mapping, path: str = "dynamics") -> DynamicsConfig:
    """Build a DynamicsConfig from a scenario-config mapping. Every field is
    optional, and each value must have the type of the field's default."""
    kwargs = {}
    for key, value in _check_fields(obj, path, _config_fields(DynamicsConfig)[0]).items():
        default = getattr(DynamicsConfig, key)
        if isinstance(default, float):
            value = _number(value, f"{path}.{key}")
        elif isinstance(default, int) and (not isinstance(value, int) or isinstance(value, bool)):
            raise ConfigurationError(f"{path}.{key}: expected an integer, got {value!r}")
        kwargs[key] = value
    try:
        return DynamicsConfig(**kwargs)
    except ParameterError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class TraceRecord:
    """One dynamics step: theta_t answers the previous state, state is the
    population's response, and utility is evaluated at (theta_t, state)."""

    t: int
    state: QualificationState
    theta: object | None  # scalar, unit vector, or group->theta mapping; None at t=0
    utility: float | None
    balance: float


@dataclass(frozen=True)
class FixedPoint:
    state: QualificationState
    residual: float
    name = "FixedPoint"


@dataclass(frozen=True)
class LimitCycle:
    states: tuple[QualificationState, ...]
    period: int
    name = "LimitCycle"


@dataclass(frozen=True)
class NonConverged:
    last: QualificationState
    name = "NonConverged"


Verdict = FixedPoint | LimitCycle | NonConverged


@dataclass(frozen=True)
class DynamicsOutcome:
    trace: tuple[TraceRecord, ...]
    verdict: Verdict
    stability: Stability = NOT_ASSESSED

    @property
    def final_state(self) -> QualificationState:
        return self.trace[-1].state


# ---------------------------------------------------------------------------
# The map
# ---------------------------------------------------------------------------


def individual_best_response(
    economy: EconomyConfig,
    groups: Sequence[GroupSpec],
    model,
    theta,
) -> QualificationState:
    """Each group's response to the assessment rule: G_a(wage * (TPR - FPR)),
    with the argument floored at zero (a negative net benefit attracts no
    one, since qualification costs are positive).

    theta may be a single parameter shared by all groups or a mapping
    group id -> parameter for decoupled rules.
    """
    groups = normalize_groups(groups)
    rates = []
    for g in groups:
        th = theta[g.id] if isinstance(theta, Mapping) else theta
        tpr, fpr = model.tpr_fpr(g.id, th)
        rates.append(response_rate(g.cost, economy.wage, tpr, fpr))
    return QualificationState(ids=tuple(g.id for g in groups), rates=tuple(rates))


def step(
    economy: EconomyConfig,
    groups: Sequence[GroupSpec],
    model,
    state: QualificationState,
    mode: Mode = "joint",
    *,
    grid_size: int = DEFAULT_GRID,
    tie_tol: float = RATE_TOL,
):
    """One round: the institution re-optimizes, then the population responds.

    Returns (theta, next_state); in decoupled mode theta is a mapping
    group id -> per-group parameter.
    """
    groups = normalize_groups(groups)
    if mode == "joint":
        theta = institution_best_response(
            model, economy, groups, state, grid_size=grid_size, tie_tol=tie_tol
        )
    elif mode == "decoupled":
        theta = {
            g.id: decoupled_best_response(model, economy, g, pi, grid_size=grid_size)
            for g, pi in zip(groups, state.rates)
        }
    else:
        raise ParameterError(f"mode must be 'joint' or 'decoupled', got {mode!r}")
    return theta, individual_best_response(economy, groups, model, theta)


def iterate(
    economy: EconomyConfig,
    groups: Sequence[GroupSpec],
    model,
    initial: QualificationState,
    config: DynamicsConfig = DynamicsConfig(),
    *,
    stop: Callable[[QualificationState], bool] | None = None,
) -> DynamicsOutcome:
    """Run the dynamics from an initial state until a fixed point, a cycle,
    or the iteration budget.

    A fixed point is declared when one step moves the state by at most
    fix_tol in sup norm, and is then re-checked by applying the map once
    more. Cycles are detected by matching the newest state against the last
    cycle_window states (smallest lag wins) and verified by stepping one
    full period.

    stop, if given, is asked about each new state before those tests; the
    run ends NonConverged at the first state it accepts.
    """
    groups = normalize_groups(groups)
    state = initial
    trace: list[TraceRecord] = [
        TraceRecord(t=0, state=state, theta=None, utility=None, balance=balance(state))
    ]
    states: list[QualificationState] = [state]

    def advance(s: QualificationState):
        return step(
            economy, groups, model, s, config.mode,
            grid_size=config.theta_grid, tie_tol=config.tie_tol,
        )

    for t in range(1, config.max_iters + 1):
        theta, new_state = advance(state)
        trace.append(
            TraceRecord(
                t=t,
                state=new_state,
                theta=theta,
                utility=institutional_utility(economy, groups, model, theta, new_state),
                balance=balance(new_state),
            )
        )
        if stop is not None and stop(new_state):
            return DynamicsOutcome(trace=tuple(trace), verdict=NonConverged(last=new_state))
        if new_state.sup_distance(state) <= config.fix_tol:
            _, once_more = advance(new_state)
            residual = once_more.sup_distance(new_state)
            if residual <= config.fix_tol:
                return DynamicsOutcome(
                    trace=tuple(trace),
                    verdict=FixedPoint(state=new_state, residual=residual),
                )
        states.append(new_state)
        period = _match_cycle(states, config)
        if period is not None:
            cycle = _verify_cycle(advance, new_state, period, config.fix_tol)
            if cycle is not None:
                spread = max(
                    a.sup_distance(b) for i, a in enumerate(cycle) for b in cycle[i + 1:]
                )
                if spread <= config.fix_tol:
                    # All cycle states coincide at the declared tolerance: a
                    # fixed point the one-step test missed (the map dithers
                    # below fix_tol around a flat utility maximum).
                    return DynamicsOutcome(
                        trace=tuple(trace),
                        verdict=FixedPoint(state=new_state, residual=spread),
                    )
                return DynamicsOutcome(trace=tuple(trace), verdict=LimitCycle(cycle, period))
        state = new_state

    return DynamicsOutcome(trace=tuple(trace), verdict=NonConverged(last=state))


def _match_cycle(states: list[QualificationState], config: DynamicsConfig) -> int | None:
    newest = states[-1]
    max_lag = min(config.cycle_window, len(states) - 1)
    for lag in range(2, max_lag + 1):
        if newest.sup_distance(states[-1 - lag]) <= config.fix_tol:
            return lag
    return None


def _verify_cycle(advance, start: QualificationState, period: int, tol: float):
    """Step one full period from the matched state; confirm it closes."""
    cycle = [start]
    s = start
    for _ in range(period):
        _, s = advance(s)
        cycle.append(s)
    if cycle[-1].sup_distance(start) <= tol:
        return tuple(cycle[:-1])
    return None


def classify_stability(
    economy: EconomyConfig,
    groups: Sequence[GroupSpec],
    model,
    fixed_point: QualificationState,
    config: DynamicsConfig = DynamicsConfig(),
    *,
    seed: int = 0,
) -> Stability:
    """Basin probe: perturb each coordinate by +/- perturb_eps (clamped to
    [0, 1]) plus one seeded joint random perturbation, iterate each start,
    and report Stable only if every probe re-enters the return ball around
    the fixed point within max_iters steps without first leaving the escape
    ball.

    The return radius is perturb_eps / 1000 (floored at fix_tol):
    re-converging to a thousandth of the kick is attraction, while demanding
    fix_tol itself would fail on maps whose best-response refinement dithers
    a few ulps above it. The escape radius is 1000 * perturb_eps: a probe
    farther than that from the fixed point fails at once. Each probe stops
    at its first state inside the return ball or outside the escape ball.

    Only the escape can move a verdict against running every probe to the
    end: a probe that leaves the escape ball and later comes back inside the
    return ball is a pass for the full run but a fail here. That takes a
    chaotic orbit that re-enters the ball, or a multi-group stable spiral
    that amplifies the kick more than 1000 times. With perturb_eps >= 1e-3
    the escape ball holds all of [0, 1]^n, so the escape never fires. The
    one-group scan cross-checks each verdict against the derivative test
    and warns when they disagree."""
    groups = normalize_groups(groups)
    _, mapped = step(
        economy, groups, model, fixed_point, config.mode,
        grid_size=config.theta_grid, tie_tol=config.tie_tol,
    )
    if mapped.sup_distance(fixed_point) > config.fix_tol:
        raise PreconditionError(
            f"state is not a fixed point: one step moves it by {mapped.sup_distance(fixed_point)}"
        )

    eps = config.perturb_eps
    base = np.array(fixed_point.rates)
    probes: list[np.ndarray] = []
    for i in range(len(base)):
        for sign in (+1.0, -1.0):
            cand = base.copy()
            cand[i] = min(1.0, max(0.0, cand[i] + sign * eps))
            if np.max(np.abs(cand - base)) > 0.0:
                probes.append(cand)
    rng = np.random.default_rng(seed)
    joint = np.clip(base + rng.uniform(-eps, eps, size=base.size), 0.0, 1.0)
    if np.max(np.abs(joint - base)) > 0.0:
        probes.append(joint)

    return_tol = max(config.fix_tol, 1e-3 * eps)
    escape = 1e3 * eps

    def decided(state: QualificationState) -> bool:
        distance = state.sup_distance(fixed_point)
        return distance <= return_tol or distance > escape

    for cand in probes:
        start = QualificationState(ids=fixed_point.ids, rates=tuple(float(x) for x in cand))
        last = iterate(economy, groups, model, start, config, stop=decided).trace[-1].state
        if last.sup_distance(fixed_point) > return_tol:
            return UNSTABLE
    return STABLE


def cycle_average(outcome: DynamicsOutcome) -> QualificationState:
    """Coordinate-wise mean over one period of a limit cycle."""
    if not isinstance(outcome.verdict, LimitCycle):
        raise PreconditionError(
            f"cycle_average needs a LimitCycle verdict, got {outcome.verdict.name}"
        )
    states = outcome.verdict.states
    mean = np.mean([s.rates for s in states], axis=0)
    return QualificationState(ids=states[0].ids, rates=tuple(float(x) for x in mean))


def settled_state(outcome: DynamicsOutcome) -> QualificationState | None:
    """Resting state of a run: the fixed point, the cycle average, or None
    when the run never settled."""
    if isinstance(outcome.verdict, FixedPoint):
        return outcome.verdict.state
    if isinstance(outcome.verdict, LimitCycle):
        return cycle_average(outcome)
    return None


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


def _theta_json(model, theta):
    if theta is None:
        return None
    if isinstance(theta, Mapping):
        return {gid: _theta_json(model, th) for gid, th in sorted(theta.items())}
    if isinstance(model, GaussianHalfspace) and not np.isscalar(theta):
        return float(model.arc_fraction(theta))
    return float(theta)


def _state_json(state: QualificationState) -> dict:
    return {gid: rate for gid, rate in zip(state.ids, state.rates)}


def trace_lines(outcome: DynamicsOutcome, model) -> list[str]:
    """Line-delimited JSON trace: one record per step plus a final summary.

    Halfspace thetas are written as the arc fraction between the two group
    boundaries so records stay scalar-valued.
    """
    lines = []
    for rec in outcome.trace:
        lines.append(
            json.dumps(
                {
                    "t": rec.t,
                    "pi": _state_json(rec.state),
                    "theta": _theta_json(model, rec.theta),
                    "utility": rec.utility,
                    "balance": rec.balance,
                },
                sort_keys=True,
            )
        )
    summary: dict = {"verdict": outcome.verdict.name, "stability": outcome.stability}
    if isinstance(outcome.verdict, FixedPoint):
        summary["state"] = _state_json(outcome.verdict.state)
        summary["residual"] = outcome.verdict.residual
    elif isinstance(outcome.verdict, LimitCycle):
        summary["period"] = outcome.verdict.period
        summary["states"] = [_state_json(s) for s in outcome.verdict.states]
        summary["cycle_average"] = _state_json(cycle_average(outcome))
    else:
        summary["last"] = _state_json(outcome.verdict.last)
    lines.append(json.dumps(summary, sort_keys=True))
    return lines
