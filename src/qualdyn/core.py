"""Shared domain types for the qualification-dynamics engine.

An economy couples an institution (payoffs for true/false positives) with
one or more population groups. Each group carries a qualification rate:
the fraction of its members currently holding the positive label. These
types are plain immutable value objects; every operation on them is a
pure function, so the whole module is safe to use concurrently
(normalize_groups keeps a one-slot record of its last answer, which
changes how fast it answers, never what).
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Mapping
from dataclasses import MISSING, dataclass, fields
from typing import Protocol

from .errors import ConfigurationError, ParameterError

# Default tolerance for comparing rates and probabilities. Exact float
# equality is never used for model quantities.
RATE_TOL = 1e-9

# Group proportions must sum to one within this slack.
PROPORTION_TOL = 1e-12


class CostDistribution(Protocol):
    """The slice of a cost model the core types need: a CDF."""

    def cdf(self, x: float) -> float: ...


class FeatureMap(Protocol):
    """Anything that can report per-group classification rates at a parameter."""

    def tpr_fpr(self, group: str, theta) -> tuple[float, float]: ...


def _is_finite_real(value) -> bool:
    """A finite int or float that is not a bool: what a number may be in a
    scenario file or a model parameter."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# ---------------------------------------------------------------------------
# Scenario-config reading, shared by every section's reader
# ---------------------------------------------------------------------------


def _check_fields(
    obj, path: str, allowed: Collection[str] | None = None, required: Collection[str] = ()
) -> Mapping:
    """Return obj if it is a mapping with no field outside `allowed` (any
    field when None) and every field in `required`; otherwise raise a
    ConfigurationError naming the field as `path.field`, or as bare `field`
    at the top level, where path is empty."""
    if not isinstance(obj, Mapping):
        raise ConfigurationError(
            f"{path or 'config'}: expected a mapping, got {type(obj).__name__}"
        )
    prefix = f"{path}." if path else ""
    unknown = [] if allowed is None else sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigurationError(f"{prefix}{unknown[0]}: unknown field")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigurationError(f"{prefix}{missing[0]}: missing required field")
    return obj


def _config_fields(cls) -> tuple[set[str], set[str]]:
    """A dataclass's config fields: all of them, and those with no default."""
    found = fields(cls)
    return {f.name for f in found}, {f.name for f in found if f.default is MISSING}


def _check_count(value, name: str, least: int) -> None:
    """Refuse a count that is not an int (a bool is not one) or is below least."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def _number(value, path: str) -> float:
    """A scenario number as a float; anything but a finite int or float
    (a string, a bool, or a literal that overflowed to inf) is rejected."""
    if not _is_finite_real(value):
        raise ConfigurationError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _numbers(values, path: str, length: int | None = None) -> tuple[float, ...]:
    """The list form of _number: a list of finite numbers, exactly `length`
    of them when given, with each entry named as `path[i]`."""
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        size = "" if length is None else f"{length} "
        raise ConfigurationError(f"{path}: expected a list of {size}numbers, got {values!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(values))


@dataclass(frozen=True)
class EconomyConfig:
    """Institution-side payoffs and the individual-side wage.

    wage is what an individual gains from a positive assessment; payoff_tp
    and cost_fp are the institution's gain per accepted qualified member
    and loss per accepted unqualified member. All three must be positive.
    """

    wage: float
    payoff_tp: float = 1.0
    cost_fp: float = 1.0

    def __post_init__(self) -> None:
        for name in ("wage", "payoff_tp", "cost_fp"):
            value = getattr(self, name)
            if not (_is_finite_real(value) and value > 0):
                raise ParameterError(f"{name} must be a positive finite real, got {value!r}")

    @property
    def ratio(self) -> float:
        """payoff_tp / cost_fp; the institution's acceptance-appetite ratio."""
        return self.payoff_tp / self.cost_fp


@dataclass(frozen=True)
class GroupSpec:
    """One population group: an opaque id, its population share, and its cost CDF."""

    id: str
    proportion: float
    cost: CostDistribution

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ParameterError(f"group id must be a nonempty string, got {self.id!r}")
        if not (_is_finite_real(self.proportion) and 0.0 < self.proportion <= 1.0):
            raise ParameterError(
                f"group {self.id!r}: proportion must lie in (0, 1], got {self.proportion!r}"
            )


# The tuple normalize_groups last returned. Only a tuple that passed its
# checks is stored, and the reference keeps it alive, so its id is never
# reused while it is stored.
_last_normalized: tuple[GroupSpec, ...] | None = None


def normalize_groups(groups: Iterable[GroupSpec]) -> tuple[GroupSpec, ...]:
    """Sort groups into canonical (lexicographic) order and validate the set.

    Canonical ordering is what makes vector states and trace files
    deterministic. Proportions must sum to 1 within PROPORTION_TOL and ids
    must be unique.

    The tuple this returned last, handed back as the same object, is
    returned as it is, without sorting and summing again: the tuple and its
    frozen GroupSpecs cannot change, so the checks it passed still hold.
    So step, iterate and classify_stability, which pass one normalized
    tuple down to each other, pay for the checks once. Any other argument
    is checked in full; a tuple already in canonical order comes back as
    itself (so a caller that keeps passing one tuple, such as a scenario's
    groups, is checked once), anything else as a new tuple. Only a checked
    tuple is ever stored, so under threads no caller gets back a tuple that
    no call checked.
    """
    global _last_normalized
    if groups is _last_normalized:
        return groups
    ordered = tuple(sorted(groups, key=lambda g: g.id))
    if not ordered:
        raise ConfigurationError("at least one group is required")
    ids = [g.id for g in ordered]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate group ids: {ids}")
    total = sum(g.proportion for g in ordered)
    if abs(total - 1.0) > PROPORTION_TOL:
        raise ConfigurationError(
            f"group proportions must sum to 1 (tolerance {PROPORTION_TOL}); got {total!r}"
        )
    if type(groups) is tuple and ordered == groups:
        ordered = groups
    _last_normalized = ordered
    return ordered


@dataclass(frozen=True)
class QualificationState:
    """Per-group qualification rates, held in canonical group order.

    Construct via QualificationState.of({"a1": 0.6, "a2": 0.3}); entries are
    validated to lie in [0, 1]. A rate given as another number type (an
    int, a numpy float) is stored as a float, as .of() stores it.
    """

    ids: tuple[str, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.rates):
            raise ParameterError("ids and rates must have equal length")
        if tuple(sorted(self.ids)) != self.ids:
            raise ParameterError("ids must be in canonical sorted order; use .of()")
        floats = True
        for gid, rate in zip(self.ids, self.rates):
            if type(rate) is float and 0.0 <= rate <= 1.0:
                continue  # finite, since it is in range
            if not (_is_finite_real(rate) and 0.0 <= rate <= 1.0):
                raise ParameterError(f"rate for group {gid!r} outside [0, 1]: {rate!r}")
            floats = False
        if not floats:
            object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))

    @classmethod
    def of(cls, rates: Mapping[str, float]) -> "QualificationState":
        ids = tuple(sorted(rates))
        return cls(ids=ids, rates=tuple(float(rates[g]) for g in ids))

    def rate(self, group: str) -> float:
        try:
            return self.rates[self.ids.index(group)]
        except ValueError:
            raise ConfigurationError(f"no such group in state: {group!r}") from None

    def as_mapping(self) -> dict[str, float]:
        return dict(zip(self.ids, self.rates))

    def sup_distance(self, other: "QualificationState") -> float:
        if self.ids != other.ids:
            raise ConfigurationError(
                f"states indexed by different groups: {self.ids} vs {other.ids}"
            )
        return max(abs(a - b) for a, b in zip(self.rates, other.rates))

    def __len__(self) -> int:
        return len(self.ids)


def _check_group_index(groups: tuple[GroupSpec, ...], state: QualificationState) -> None:
    group_ids = tuple(g.id for g in groups)
    if group_ids != state.ids:
        raise ConfigurationError(
            f"state groups {state.ids} do not match economy groups {group_ids}"
        )


def _utility_from_rates(economy: EconomyConfig, groups, rates, pis):
    """Sum over groups of n_a * (payoff_tp * TPR_a * pi_a - cost_fp * FPR_a * (1 - pi_a)).

    The one utility kernel: every best response and institutional_utility
    form U here. rates holds each group's (TPR, FPR) in group order, as
    floats or as equal arrays over a grid of parameters; either way the sum
    starts at 0.0 and adds the terms in group order, so scalar and grid
    utilities agree bit for bit.
    """
    p, c = economy.payoff_tp, economy.cost_fp
    total = 0.0
    for g, (tpr, fpr), pi in zip(groups, rates, pis):
        total = total + g.proportion * (p * tpr * pi - c * fpr * (1.0 - pi))
    return total


def institutional_utility(
    economy: EconomyConfig,
    groups: tuple[GroupSpec, ...],
    model: FeatureMap,
    theta,
    state: QualificationState,
) -> float:
    """Expected institution payoff at assessment parameter theta.

    theta is one parameter shared by all groups or a mapping group id ->
    parameter for decoupled rules. Sums, over groups, payoff_tp * TPR_a *
    pi_a * n_a minus cost_fp * FPR_a * (1 - pi_a) * n_a. Linear in each rate
    with theta held fixed.
    """
    _check_group_index(groups, state)
    rates = [
        model.tpr_fpr(g.id, theta[g.id] if isinstance(theta, Mapping) else theta)
        for g in groups
    ]
    return _utility_from_rates(economy, groups, rates, state.rates)


def balance(state: QualificationState) -> float:
    """Largest pairwise gap in qualification rates; 0 means fully balanced."""
    if len(state) == 0:
        raise ConfigurationError("balance of an empty state is undefined")
    return max(state.rates) - min(state.rates)


def response_rate(cost: CostDistribution, wage: float, tpr: float, fpr: float) -> float:
    """Fraction of a group that invests when assessed at rates (tpr, fpr).

    The individual's expected benefit is wage * (tpr - fpr); everyone whose
    private cost falls below it invests, so the new rate is the cost CDF at
    that benefit. A negative net benefit is clamped to 0 before the CDF:
    costs are strictly positive, so nobody invests at a loss.
    """
    benefit = wage * (tpr - fpr)
    return min(1.0, max(0.0, cost.cdf(0.0 if benefit < 0.0 else benefit)))
