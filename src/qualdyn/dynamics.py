"""Best-response dynamics: the population responds to the institution's rule,
the institution re-optimizes, and the loop either settles, cycles, or runs out
of budget.

One time step is institution-first: theta_t best-responds to pi_{t-1}, then
every group best-responds to theta_t. The composed map is deterministic (all
tie-breaking is fixed), so traces are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from .core import (
    EconomyConfig,
    GroupSpec,
    QualificationState,
    RATE_TOL,
    _check_count,
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
    MIN_GRID,
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
    tie_tol are passed through to the institution's solver: theta_grid
    applies to ScoreModel only (UniformThreshold is solved in closed form),
    tie_tol to GaussianHalfspace only.
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
        for name, least in (("max_iters", 1), ("cycle_window", 2), ("theta_grid", MIN_GRID)):
            _check_count(getattr(self, name), name, least)
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


class _Trace(Sequence):
    """An iterate run's trace records, built once, on the first read of any
    of them (an index, a slice, iteration, equality, hash or repr): the run
    keeps only each step's (theta, state), so a run whose records are never
    read, a stability probe's or a scan's, evaluates no utility. len()
    counts the states and builds nothing."""

    __slots__ = ("_states", "_thetas", "_context", "_records")

    def __init__(self, states: list, thetas: list, context: tuple) -> None:
        self._states, self._thetas, self._context = states, thetas, context
        self._records: tuple[TraceRecord, ...] | None = None

    def _built(self) -> tuple[TraceRecord, ...]:
        records = self._records
        if records is None:
            economy, groups, model = self._context
            first = self._states[0]
            records = self._records = (
                TraceRecord(t=0, state=first, theta=None, utility=None, balance=balance(first)),
                *(
                    TraceRecord(
                        t=t,
                        state=s,
                        theta=theta,
                        utility=institutional_utility(economy, groups, model, theta, s),
                        balance=balance(s),
                    )
                    for t, (theta, s) in enumerate(zip(self._thetas, self._states[1:]), 1)
                ),
            )
        return records

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Trace)):
            return self._built() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


@dataclass(frozen=True)
class DynamicsOutcome:
    """A run's trace records and verdict. The trace iterate gives builds its
    records on first read (see _Trace); any sequence of TraceRecords may be
    given instead."""

    trace: Sequence[TraceRecord]
    verdict: Verdict
    stability: Stability = NOT_ASSESSED

    @property
    def final_state(self) -> QualificationState:
        """The last record's state, read without building the records."""
        trace = self.trace
        return trace._states[-1] if isinstance(trace, _Trace) else trace[-1].state


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
    return _population_response(economy, normalize_groups(groups), model, theta)


def _population_response(
    economy: EconomyConfig, groups: tuple[GroupSpec, ...], model, theta
) -> QualificationState:
    """individual_best_response for groups already in canonical order. The
    image of a GaussianHalfspace table vector is stored in the slot the model
    keys by that vector's id() (features module docstring, Caches) and read
    from it while theta, economy and groups are the objects it was computed
    for; the slot holds theta, so a reused id is never served another
    vector's image."""
    halfspace = isinstance(model, GaussianHalfspace)
    if halfspace:
        slot = model._images.get(id(theta))
        if slot is not None and slot[0] is theta and slot[1] is economy and slot[2] is groups:
            return slot[3]
    rates = []
    for g in groups:
        th = theta[g.id] if isinstance(theta, Mapping) else theta
        tpr, fpr = model.tpr_fpr(g.id, th)
        rates.append(response_rate(g.cost, economy.wage, tpr, fpr))
    image = QualificationState(ids=tuple(g.id for g in groups), rates=tuple(rates))
    if halfspace and id(theta) in model._images:
        model._images[id(theta)] = (theta, economy, groups, image)
    return image


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
    theta = _rule(economy, groups, model, state, mode, grid_size, tie_tol)
    return theta, _population_response(economy, groups, model, theta)


def _rule(
    economy: EconomyConfig,
    groups: tuple[GroupSpec, ...],
    model,
    state: QualificationState,
    mode: Mode,
    grid_size: int,
    tie_tol: float,
):
    """The institution's half of step, for groups already in canonical
    order: its best response to state, or in decoupled mode the mapping
    group id -> each group's own best response."""
    if mode == "joint":
        return institution_best_response(
            model, economy, groups, state, grid_size=grid_size, tie_tol=tie_tol
        )
    if mode == "decoupled":
        return {
            g.id: decoupled_best_response(model, economy, g, pi, grid_size=grid_size)
            for g, pi in zip(groups, state.rates)
        }
    raise ParameterError(f"mode must be 'joint' or 'decoupled', got {mode!r}")


def iterate(
    economy: EconomyConfig,
    groups: Sequence[GroupSpec],
    model,
    initial: QualificationState,
    config: DynamicsConfig = DynamicsConfig(),
    *,
    stop: Callable[[QualificationState], bool] | None = None,
    memo: dict | None = None,
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

    Each distinct state is stepped once: memo maps a state's rates to that
    step's (theta, next state), and the fixed-point and cycle checks read
    it. Without a memo the run keeps its own. Callers that run many starts
    pass one dict to all of them, so a state any run has reached is not
    stepped again. The contract:

    - a memo is valid for one (economy, groups, model, config) only, and
      its entries are private to this module;
    - step must stay pure, a function of the state alone; a warning raised
      inside it shows once per location under the default filter, so a
      skipped repeat hides none;
    - thetas, decoupled mappings included, are shared between the trace
      records of every run that reaches the same state, and must not be
      mutated;
    - it grows by one entry per distinct state stepped: a grid-21 joint
      scan of the two-valley score model (criterion 10's config) stores
      about 10800, some 4.4 MB with the states and thetas they hold.

    The outcome's trace holds the states and thetas; its records, with
    each step's utility and balance, are built on the first read of one
    (see DynamicsOutcome), from the same functions, so with the same bits.
    """
    groups = normalize_groups(groups)
    if memo is None:
        memo = {}

    def advance(s: QualificationState):
        """(theta, next state) for one step from s."""
        entry = memo.get(s.rates)
        if entry is None:
            entry = memo[s.rates] = step(
                economy, groups, model, s, config.mode,
                grid_size=config.theta_grid, tie_tol=config.tie_tol,
            )
        return entry

    state = initial
    states: list[QualificationState] = [state]
    thetas: list = []

    def outcome(verdict: Verdict) -> DynamicsOutcome:
        return DynamicsOutcome(
            trace=_Trace(states, thetas, (economy, groups, model)), verdict=verdict
        )

    for _ in range(config.max_iters):
        theta, new_state = advance(state)
        thetas.append(theta)
        states.append(new_state)
        if stop is not None and stop(new_state):
            return outcome(NonConverged(last=new_state))
        if new_state.sup_distance(state) <= config.fix_tol:
            residual = advance(new_state)[1].sup_distance(new_state)
            if residual <= config.fix_tol:
                return outcome(FixedPoint(state=new_state, residual=residual))
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
                    return outcome(FixedPoint(state=new_state, residual=spread))
                return outcome(LimitCycle(cycle, period))
        state = new_state

    return outcome(NonConverged(last=state))


def _match_cycle(states: list[QualificationState], config: DynamicsConfig) -> int | None:
    """The smallest lag >= 2 at which the newest state is within fix_tol of
    an earlier one, by sup_distance's arithmetic on the rates (every state
    of a run has the same ids), or None."""
    newest = states[-1].rates
    tol = config.fix_tol
    for lag in range(2, min(config.cycle_window, len(states) - 1) + 1):
        if max(abs(a - b) for a, b in zip(newest, states[-1 - lag].rates)) <= tol:
            return lag
    return None


def _verify_cycle(advance, start: QualificationState, period: int, tol: float):
    """Step one full period from the matched state; confirm it closes."""
    cycle = [start]
    s = start
    for _ in range(period):
        s = advance(s)[1]
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
    at its first state inside the return ball or outside the escape ball,
    and the probes share one iterate memo.

    Only the escape can move a verdict against running every probe to the
    end: a probe that leaves the escape ball and later comes back inside the
    return ball is a pass for the full run but a fail here. That takes a
    chaotic orbit that re-enters the ball, or a multi-group stable spiral
    that amplifies the kick more than 1000 times. With perturb_eps >= 1e-3
    the escape ball holds all of [0, 1]^n, so the escape never fires. The
    one-group scan cross-checks each verdict against the derivative test
    and warns when they disagree.

    The probe starts are built from the fixed point's float rates, axis
    probes first (group order, + before -), then the joint one. Each entry
    is min(1.0, max(0.0, rate + kick)), and a start equal to the fixed
    point (a kick clamped away at 0 or 1) is dropped. The joint kick is
    np.random.default_rng(seed).uniform(-perturb_eps, perturb_eps, n) for
    n groups; for an int seed it is drawn once per (seed, perturb_eps, n)
    and kept in a small bounded module cache, so repeated calls make no
    Generator. Any other seed numpy accepts is drawn afresh each call."""
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
    return_tol = max(config.fix_tol, 1e-3 * eps)
    escape = 1e3 * eps

    def decided(state: QualificationState) -> bool:
        distance = state.sup_distance(fixed_point)
        return distance <= return_tol or distance > escape

    memo: dict = {}
    for rates in _probe_starts(fixed_point.rates, eps, seed):
        start = QualificationState(ids=fixed_point.ids, rates=rates)
        last = iterate(
            economy, groups, model, start, config, stop=decided, memo=memo
        ).final_state
        if last.sup_distance(fixed_point) > return_tol:
            return UNSTABLE
    return STABLE


def _probe_starts(base: tuple[float, ...], eps: float, seed) -> list[tuple[float, ...]]:
    """classify_stability's probe starts around the rates `base`: each
    coordinate moved by +eps and by -eps, then the seeded joint kick, each
    entry clamped to [0, 1], and a start equal to base dropped."""
    starts = []
    for i, rate in enumerate(base):
        for sign in (+1.0, -1.0):
            moved = min(1.0, max(0.0, rate + sign * eps))
            if moved != rate:
                starts.append(base[:i] + (moved,) + base[i + 1:])
    draw = _joint_kick if isinstance(seed, int) else _joint_kick.__wrapped__
    joint = tuple(
        min(1.0, max(0.0, rate + k)) for rate, k in zip(base, draw(seed, eps, len(base)))
    )
    if joint != base:
        starts.append(joint)
    return starts


@functools.lru_cache(maxsize=64, typed=True)
def _joint_kick(seed, eps: float, n: int) -> tuple[float, ...]:
    """classify_stability's seeded joint kick, uniform on [-eps, eps]^n, as
    floats: drawn once per (seed, eps, n) while it stays in the cache."""
    return tuple(np.random.default_rng(seed).uniform(-eps, eps, size=n).tolist())


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
    """A rule as JSON: None, a number, or a mapping group id -> rule in id
    order. A halfspace vector is written as its arc fraction between the two
    group boundaries, or as its list of entries when the model has more
    groups and so no arc."""
    if theta is None:
        return None
    if isinstance(theta, Mapping):
        return {gid: _theta_json(model, th) for gid, th in sorted(theta.items())}
    if isinstance(model, GaussianHalfspace) and not np.isscalar(theta):
        if len(model.group_ids) != 2:
            return [float(x) for x in np.asarray(theta)]
        return float(model.arc_fraction(theta))
    return float(theta)


def trace_lines(outcome: DynamicsOutcome, model) -> list[str]:
    """Line-delimited JSON trace: one record per step plus a final summary.

    Thetas are written by _theta_json.
    """
    lines = []
    for rec in outcome.trace:
        lines.append(
            json.dumps(
                {
                    "t": rec.t,
                    "pi": rec.state.as_mapping(),
                    "theta": _theta_json(model, rec.theta),
                    "utility": rec.utility,
                    "balance": rec.balance,
                },
                sort_keys=True,
            )
        )
    summary: dict = {"verdict": outcome.verdict.name, "stability": outcome.stability}
    if isinstance(outcome.verdict, FixedPoint):
        summary["state"] = outcome.verdict.state.as_mapping()
        summary["residual"] = outcome.verdict.residual
    elif isinstance(outcome.verdict, LimitCycle):
        summary["period"] = outcome.verdict.period
        summary["states"] = [s.as_mapping() for s in outcome.verdict.states]
        summary["cycle_average"] = cycle_average(outcome).as_mapping()
    else:
        summary["last"] = outcome.verdict.last.as_mapping()
    lines.append(json.dumps(summary, sort_keys=True))
    return lines
