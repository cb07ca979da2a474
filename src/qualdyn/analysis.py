"""Equilibrium analysis: closed-form tables for the two solvable feature
families, equilibrium enumeration by scanning, the beta(pi) map behind
multiple equilibria, near-realizability lower bounds and subsidy
comparisons.

Closed forms are hard-coded expressions, not symbolic derivations; every
closed-form equilibrium can be cross-checked against the dynamics engine,
and the scan never trusts a root it cannot reproduce as a fixed point.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    EconomyConfig,
    GroupSpec,
    QualificationState,
    _check_count,
    normalize_groups,
    response_rate,
)
from .costs import CostModel, Uniform01, dominates
from .dynamics import (
    DynamicsConfig,
    FixedPoint,
    LimitCycle,
    NOT_ASSESSED,
    NonConverged,
    STABLE,
    Stability,
    UNSTABLE,
    _population_response,
    _rule,
    classify_stability,
    cycle_average,
    iterate,
    step,
)
from .errors import (
    AssumptionError,
    ConfigurationError,
    ParameterError,
    PreconditionError,
)
from .features import (
    GaussianHalfspace,
    ScoreModel,
    _norm,
    _sign_change,
    _strict_mlr_beta,
    _unit,
    institution_best_response,
    normalized_angle,
)

_NONZERO_TOL = 1e-6  # rates below this count as the trivial equilibrium
_DEDUP_FACTOR = 10.0  # cluster radius = factor * fix_tol


@dataclass(frozen=True)
class EquilibriumRecord:
    """One equilibrium (or limit cycle) with everything a report needs.

    stability is the basin-probe verdict (the authoritative label);
    derivative_stable is the one-group |Phi'| < 1 test, recorded for
    comparison but never used to overrule the basin verdict.
    """

    label: str
    kind: str  # "FixedPoint" | "LimitCycle"
    state: QualificationState  # the fixed point, or the cycle average
    theta: object = None
    stability: Stability = NOT_ASSESSED
    residual: float | None = None
    derivative_stable: bool | None = None
    cycle: tuple[QualificationState, ...] | None = None
    period: int | None = None

    @property
    def nonzero(self) -> bool:
        return max(self.state.rates) > _NONZERO_TOL


# ---------------------------------------------------------------------------
# Uniform closed forms
# ---------------------------------------------------------------------------


def _uniform_bound_exprs(h1: float, h2: float) -> tuple[float, float]:
    expr_a = (1.0 - h1) ** 2 / ((1.0 - h2) * h2 + (1.0 - h1) ** 2)
    expr_b = h2 * (1.0 - h1) / (h2 ** 2 + h1 * (1.0 - h1))
    return expr_a, expr_b


@dataclass(frozen=True)
class UniformClosedForms:
    h1: float
    h2: float
    w: float
    g: float | None  # offset of the interior indifference threshold above h1
    h_mid: float | None
    w_lo: float
    w_hi: float
    records: tuple[EquilibriumRecord, ...]


def uniform_closed_forms(
    h1: float,
    h2: float,
    w: float,
    economy: EconomyConfig | None = None,
    groups: Sequence[GroupSpec] | None = None,
    cost: CostModel | None = None,
    group_ids: tuple[str, str] = ("a1", "a2"),
) -> UniformClosedForms:
    """Closed-form equilibrium table for two uniformly-scored groups.

    Valid under 0 < h1 < h2 < 1, h2 > 1 - h1, and the balanced-economy
    condition n1 * payoff_tp = n2 * cost_fp (checked when economy and
    groups are supplied; otherwise the caller vouches for it). groups is
    taken in the caller's order: groups[0] is the group with threshold h1,
    and the records use the groups' ids. Qualification rates default to a
    uniform cost distribution; pass cost to override.

    The two w-bound expressions are reported sorted as (w_lo, w_hi); the
    stable corner equilibria exist for w above w_lo (at h1) and below w_hi
    (at h2) respectively, and the interior indifference equilibrium exists
    when the offset g lands inside (0, h2 - h1).
    """
    if (economy is None) != (groups is None):
        raise ParameterError("economy and groups must be supplied together")
    if economy is not None and groups is not None:
        groups = tuple(groups)
        normalize_groups(groups)  # validates the set; the caller's order stays
        if len(groups) != 2:
            raise AssumptionError(f"the closed forms cover two groups, got {len(groups)}")
        lhs = groups[0].proportion * economy.payoff_tp
        rhs = groups[1].proportion * economy.cost_fp
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs), abs(rhs)):
            raise AssumptionError(
                f"balanced-economy condition fails: n_lo*payoff_tp={lhs:.6g} "
                f"differs from n_hi*cost_fp={rhs:.6g}"
            )
        group_ids = (groups[0].id, groups[1].id)
        if not abs(economy.wage - w) <= 1e-12:  # a NaN w fails too
            raise AssumptionError(f"wage mismatch: economy has {economy.wage}, w={w}")
    if not (0.0 < h1 < h2 < 1.0):
        raise AssumptionError(f"need 0 < h1 < h2 < 1, got h1={h1}, h2={h2}")
    if not h2 > 1.0 - h1:
        raise AssumptionError(f"need h2 > 1 - h1, got h2={h2}, 1-h1={1.0 - h1}")
    if not 0.0 < w < math.inf:
        raise AssumptionError(f"need a finite positive wage, got {w}")
    if len(set(group_ids)) != 2:
        raise ParameterError(f"group_ids must name two distinct groups, got {group_ids}")
    G = (cost or Uniform01()).cdf

    expr_a, expr_b = _uniform_bound_exprs(h1, h2)
    w_lo, w_hi = sorted((expr_a, expr_b))

    g = (1.0 - h1) * (-w * h2 ** 2 + h2 * (1.0 - h1) - w * h1 * (1.0 - h1)) / (
        w * ((1.0 - h1) ** 2 - h2 ** 2)
    )

    records = []
    if w > expr_b:
        # Utility is decreasing on (h1, h2) at these rates, so the cut
        # settles at the lower group threshold.
        records.append(
            EquilibriumRecord(
                label="h1",
                kind="FixedPoint",
                state=QualificationState.of(
                    {group_ids[0]: G(w), group_ids[1]: G(w * h1 / h2)}
                ),
                theta=h1,
                stability=STABLE,
            )
        )
    if w < expr_a:
        records.append(
            EquilibriumRecord(
                label="h2",
                kind="FixedPoint",
                state=QualificationState.of(
                    {group_ids[0]: G(w * (1.0 - h2) / (1.0 - h1)), group_ids[1]: G(w)}
                ),
                theta=h2,
                stability=STABLE,
            )
        )
    if 0.0 < g < h2 - h1:
        h_mid = h1 + g
        records.append(
            EquilibriumRecord(
                label="h_mid",
                kind="FixedPoint",
                state=QualificationState.of(
                    {
                        group_ids[0]: G(w * (1.0 - h_mid) / (1.0 - h1)),
                        group_ids[1]: G(w * h_mid / h2),
                    }
                ),
                theta=h_mid,
                stability=UNSTABLE,
            )
        )
    else:
        h_mid = None
        g = None
    return UniformClosedForms(
        h1=h1, h2=h2, w=w, g=g, h_mid=h_mid, w_lo=w_lo, w_hi=w_hi, records=tuple(records)
    )


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianClosedForms:
    angle: float
    regime: str  # "stable_pair" | "limit_cycle"
    records: tuple[EquilibriumRecord, ...]


def gaussian_closed_forms(
    h1,
    h2,
    w: float,
    cost: CostModel,
    economy: EconomyConfig,
    group_ids: tuple[str, str] = ("a1", "a2"),
) -> GaussianClosedForms:
    """Closed-form equilibrium table for two equal-size halfspace groups.

    Only the directions of h1 and h2 count, formed as GaussianHalfspace
    forms its boundaries (`features._unit`), so 2**-600 * h acts as h.
    With payoff_tp > cost_fp: stable equilibria at each group boundary and
    an unstable one at the normalized midpoint. With payoff_tp < cost_fp:
    the midpoint equilibrium plus a period-2 cycle alternating between the
    two boundaries. The knife edge payoff_tp = cost_fp is refused; there
    the institution is indifferent along the whole arc and the closed
    forms do not apply, and so is a wage w that is not finite and positive
    or is other than economy.wage (as in uniform_closed_forms).
    """
    v1, v2 = _unit(h1, "h1"), _unit(h2, "h2")
    ang = normalized_angle(v1, v2)
    if not 0.0 < ang < 1.0:
        raise PreconditionError(
            f"group boundaries must be distinct and not opposite, normalized angle {ang}"
        )
    if len(set(group_ids)) != 2:
        raise ParameterError(f"group_ids must name two distinct groups, got {group_ids}")
    if not 0.0 < w < math.inf:
        raise AssumptionError(f"need a finite positive wage, got {w}")
    if not abs(economy.wage - w) <= 1e-12:
        raise AssumptionError(f"wage mismatch: economy has {economy.wage}, w={w}")
    p, c = economy.payoff_tp, economy.cost_fp
    if p == c:
        raise AssumptionError(
            "payoff_tp equals cost_fp: the institution is indifferent along the "
            "whole arc and the closed forms do not apply"
        )
    G = cost.cdf
    mid = (v1 + v2) / _norm(v1 + v2)
    g_near, g_far = G(w), G(w * (1.0 - 2.0 * ang))

    mid_record = EquilibriumRecord(
        label="h_mid",
        kind="FixedPoint",
        state=QualificationState.of(
            {group_ids[0]: G(w * (1.0 - ang)), group_ids[1]: G(w * (1.0 - ang))}
        ),
        theta=mid,
        stability=UNSTABLE,
    )
    if p > c:
        records = (
            EquilibriumRecord(
                label="h1",
                kind="FixedPoint",
                state=QualificationState.of({group_ids[0]: g_near, group_ids[1]: g_far}),
                theta=v1,
                stability=STABLE,
            ),
            EquilibriumRecord(
                label="h2",
                kind="FixedPoint",
                state=QualificationState.of({group_ids[0]: g_far, group_ids[1]: g_near}),
                theta=v2,
                stability=STABLE,
            ),
            mid_record,
        )
        return GaussianClosedForms(angle=ang, regime="stable_pair", records=records)

    s1 = QualificationState.of({group_ids[0]: g_near, group_ids[1]: g_far})
    s2 = QualificationState.of({group_ids[0]: g_far, group_ids[1]: g_near})
    avg = QualificationState(
        ids=s1.ids,
        rates=tuple((a + b) / 2.0 for a, b in zip(s1.rates, s2.rates)),
    )
    cycle_record = EquilibriumRecord(
        label="cycle",
        kind="LimitCycle",
        state=avg,
        cycle=(s1, s2),
        period=2,
    )
    return GaussianClosedForms(
        angle=ang, regime="limit_cycle", records=(mid_record, cycle_record)
    )


# ---------------------------------------------------------------------------
# beta(pi): the institution-side response curve for one group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaOfPi:
    """Sampled map pi -> beta(pi) = TPR(theta_br(pi)) - FPR(theta_br(pi)).

    pi_bar is the top of the contiguous low-end run of zero beta (the
    accept-no-one region); dbeta holds central-difference derivative
    estimates on the grid.
    """

    pis: tuple[float, ...]
    betas: tuple[float, ...]
    thetas: tuple[float, ...]
    dbeta: tuple[float, ...]
    pi_bar: float

    def beta_at(self, x: float) -> float:
        return float(np.interp(x, self.pis, self.betas))


def beta_of_pi(
    model,
    economy: EconomyConfig,
    grid_size: int = 201,
    *,
    cost: CostModel | None = None,
) -> BetaOfPi:
    """Sample beta(pi) for a single-group scalar feature model.

    grid_size is the number of pi samples, evenly spaced over [0, 1]; each
    sample's best response is solved on the solver's own theta grid,
    features.DEFAULT_GRID points, whatever grid_size is. The institution's
    best response needs a cost model only to break exact utility ties; the
    default uniform cost is used when none is given.
    """
    ids = tuple(model.group_ids)
    if len(ids) != 1:
        raise ConfigurationError(f"beta_of_pi needs a single-group model, got {len(ids)} groups")
    _check_count(grid_size, "grid_size", 11)
    group = GroupSpec(id=ids[0], proportion=1.0, cost=cost or Uniform01())
    pis = np.linspace(0.0, 1.0, grid_size)
    betas = []
    thetas = []
    for x in pis:
        st = QualificationState(ids=ids, rates=(float(x),))
        th = institution_best_response(model, economy, (group,), st)
        tpr, fpr = model.tpr_fpr(ids[0], th)
        betas.append(tpr - fpr)
        thetas.append(float(th))
    betas_arr = np.array(betas)
    pi_bar = 0.0
    for x, b in zip(pis, betas_arr):
        if abs(b) <= 1e-12:
            pi_bar = float(x)
        else:
            break
    dbeta = np.gradient(betas_arr, pis)
    return BetaOfPi(
        pis=tuple(float(x) for x in pis),
        betas=tuple(float(b) for b in betas_arr),
        thetas=tuple(thetas),
        dbeta=tuple(float(d) for d in dbeta),
        pi_bar=pi_bar,
    )


# ---------------------------------------------------------------------------
# Equilibrium scan
# ---------------------------------------------------------------------------


def _phi_single(economy, group: GroupSpec, model, grid_size: int):
    ids = (group.id,)
    solo = (GroupSpec(id=group.id, proportion=1.0, cost=group.cost),)

    def phi(x: float) -> tuple[float, float]:
        st = QualificationState(ids=ids, rates=(min(1.0, max(0.0, float(x))),))
        th = institution_best_response(model, economy, solo, st, grid_size=grid_size)
        tpr, fpr = model.tpr_fpr(group.id, th)
        return response_rate(group.cost, economy.wage, tpr, fpr), float(th)

    return phi


def find_equilibria_scan(
    economy: EconomyConfig,
    groups: Sequence[GroupSpec],
    model,
    grid: int | None = None,
    *,
    config: DynamicsConfig = DynamicsConfig(),
    seed: int = 0,
) -> tuple[EquilibriumRecord, ...]:
    """Enumerate equilibria by scanning initial conditions.

    `grid` is the number of scan points per axis, at least 2; None takes
    401 for one group and 21 for several. config.mode picks the joint or
    the decoupled scan; a decoupled one-group scan takes the path of several.

    One group: the equilibria are the roots of Phi(pi) - pi, where Phi(pi)
    is the population's response to the institution's best response at pi.
    Their candidates come from one of two paths:
    - The theta-curve serves a ScoreModel whose group's scores pass
      features._strict_mlr_beta: both classes BetaScore with y1.alpha >
      y0.alpha and y1.beta < y0.beta (a strict monotone likelihood ratio,
      MLR). There the best response to
      pi is the root of the first-order condition, which inverts to
      pi_inst(theta) = c f0 / (p f1 + c f0), so Phi(pi) - pi = h(theta) =
      G(w (TPR - FPR)(theta)) - pi_inst(theta) at pi = pi_inst(theta). h is
      read on the interior points of `grid` evenly spaced cuts in one array
      pass, and no best response is solved for them: `grid` counts theta
      points here. Each sign change is narrowed on the scalar h, and its
      candidate is the population's response at the root. pi_inst falls
      from 1 to 0 across (0, 1) only when both inequalities are strict (with
      y1.alpha = y0.alpha, say, a fixed point at a corner such as pi = G(0)
      under a subsidy shift is off the curve), and it is 0/0 where both
      densities underflow; such models take the Phi grid, as does grid = 2.
      The two end steps of the curve, where the densities vanish, are
      searched on Phi itself over the span of pi they cover, as the Phi grid
      searches its steps, since there the solver may answer off the curve
      (see `_theta_curve_roots`).
    - The Phi grid serves every other model (empirical scores, non-MLR or
      weakly MLR Beta pairs, uniform thresholds): Phi(pi) - pi is read at
      `grid` evenly spaced rates, so `grid` counts pi points here, and each
      sign change is narrowed on Phi.
    Narrowing is to adjacent floats, by the safeguarded secant search that
    the best response uses (`features._sign_change`). On both paths pi = 0
    and pi = 1 are candidates when |Phi(pi) - pi| <= fix_tol; when Phi(0) =
    0 gives no sign, the search starts from a probe at pi = 1e-6 and looks
    no lower. From the candidates on, both paths are one: any candidate
    whose residual |Phi(pi) - pi| exceeds 1e-6 is dropped (a sign change is
    as often a jump of the piecewise map as a true root; the residual tells
    them apart), candidates within 10 * fix_tol are merged, and both
    stability tests are attached: the finite-difference |Phi'| < 1 check
    and basin probing, with basin probing authoritative.

    The precision contract between the two paths, which
    tests/test_analysis.py checks over drawn strict-MLR scenarios: wherever
    both grids see every root, the theta-curve's records match the Phi
    grid's in count, labels and stability, with states within fix_tol of
    each other, and each assessed record's one-step residual |Phi(pi) - pi|
    is at most fix_tol. It is of order 1e-15: the candidate is the
    population's response at the curve's root, and the solver's answer
    there is that root up to the rounding of its first-order condition (see
    `features`). Neither grid sees two roots inside one of its steps, and
    the other may. A record's theta is the solver's answer at its pi, so it
    agrees within fix_tol too, except where that answer is not the
    first-order root (see `features`): at a flat top, which the solver
    leaves to its grid, and near pi = 0 where U at the root rounds to <= 0.
    There, between states closer than fix_tol, the solver may swing from
    reject-all to an interior cut or snap to its own grid. A near-root whose residual lies between
    fix_tol and 1e-6 (a jump of the solver's map) is reported NotAssessed by
    both paths. On the score anchor the two paths print the same records
    but for the residual column.

    Several groups: run the dynamics once from each distinct image of the
    rules, cluster the verdicts within 10 * fix_tol, and keep each
    cluster's member of least residual, and of least rates on a residual
    tie. One step maps a state s to C(theta(s)), the population's response
    to the institution's rule, which depends on the rule alone, joint or
    decoupled. So after one step every orbit is on the image C(theta) of
    some rule theta, and a start's verdict is that of its image's run. The
    rules come from:
    - a GaussianHalfspace model's table. Its best response is one of the
      model's read-only table objects (`features`): the arc's midpoint or
      ends, or decoupled, the mapping of each group to its boundary. The
      midpoint's image runs first, as the grid's first start (0, ..., 0)
      takes it at equal group sizes, and `grid` does not apply;
    - for any other model, the distinct rules of a grid of starts, in the
      order the starts first meet them. Two groups start from the full
      grid x grid mesh; three or more start only from the diagonal and the
      lines through (0.5, ..., 0.5) along each axis, so an equilibrium
      whose basin misses those lines is not found. In the uniform family
      the rule takes only a few values, so a grid-21 scan makes a handful
      of runs, not 441.
    Rules with equal images (equal states) share one run; images that
    differ, if only by one ulp, run apart, and their verdicts meet in the
    clustering. All runs share one memo, so a state that any run has
    reached is stepped once. Against running every start in full, an image
    run's max_iters counts from the image, a step after a start, so it may
    close a cycle that every start ran out of budget for; a LimitCycle's
    cycle may begin at another phase; and of two fixed points, or two
    cycles, closer than 10 * fix_tol another may represent their cluster,
    as other runs reach them first. A DEBUG record on "qualdyn.analysis" counts the starts (0
    for a table), the rules and the image runs, and names the images whose
    runs ended NonConverged.
    """
    groups = normalize_groups(groups)
    if grid is not None:
        _check_count(grid, "grid", 2)
    if len(groups) == 1 and config.mode == "joint":
        return _scan_one_group(economy, groups[0], model, grid or 401, config, seed)
    return _scan_multi_group(economy, groups, model, grid or 21, config, seed)


def _scan_one_group(
    economy, group, model, grid: int, config: DynamicsConfig, seed: int
) -> tuple[EquilibriumRecord, ...]:
    phi = _phi_single(economy, group, model, config.theta_grid)

    def psi(x: float) -> float:
        return phi(x)[0] - x

    ends = (psi(0.0), psi(1.0))
    roots = [x for x, r in zip((0.0, 1.0), ends) if abs(r) <= config.fix_tol]
    # The trivial root psi(0) = 0 carries no sign, which would hide a root
    # just above it; a probe just above 0 (below it a rate counts as the
    # trivial equilibrium anyway) supplies the sign, and neither path looks
    # lower.
    low = (0.0, ends[0]) if ends[0] != 0.0 else (_NONZERO_TOL, psi(_NONZERO_TOL))
    inner = _theta_curve_roots(economy, group, model, grid, psi, low, ends[1])
    if inner is None:
        inner = _phi_grid_roots(psi, grid, low, ends[1])

    # From here on both paths are one. Deduplicate, then keep only
    # candidates that really are fixed points.
    radius = _DEDUP_FACTOR * config.fix_tol
    kept: list[tuple[float, float, float]] = []  # (x, residual, theta)
    for x in sorted(roots + inner):
        fx, th = phi(x)
        residual = abs(fx - x)
        if residual > _NONZERO_TOL:
            continue  # a jump of the piecewise map, not a root
        if kept and abs(x - kept[-1][0]) <= radius:
            if residual < kept[-1][1]:
                kept[-1] = (x, residual, th)
            continue
        kept.append((x, residual, th))

    records = []
    for idx, (x, residual, th) in enumerate(kept):
        state = QualificationState(ids=(group.id,), rates=(x,))
        d_stable = _derivative_stable(phi, x)
        if residual <= config.fix_tol:
            stability = classify_stability(
                economy, (group,), model, state, config, seed=seed
            )
        else:
            stability = NOT_ASSESSED
        if d_stable is not None and stability != NOT_ASSESSED:
            if d_stable != (stability == STABLE):
                warnings.warn(
                    f"stability tests disagree at pi={x:.6g}: derivative test says "
                    f"{'Stable' if d_stable else 'Unstable'}, basin probe says {stability}",
                    stacklevel=3,
                )
        records.append(
            EquilibriumRecord(
                label=f"eq{idx + 1}",
                kind="FixedPoint",
                state=state,
                theta=th,
                stability=stability,
                residual=residual,
                derivative_stable=d_stable,
            )
        )
    return tuple(records)


def _phi_grid_roots(psi, grid: int, low, top: float) -> list[float]:
    """The Phi grid's interior candidates: _grid_roots of psi(pi) = Phi(pi)
    - pi on the grid. low is the grid's first point and psi there, 0 or the
    probe; top is psi(1)."""
    xs = [low[0], *np.linspace(0.0, 1.0, grid)[1:].tolist()]
    return _grid_roots(psi, xs, [low[1], *(psi(x) for x in xs[1:-1]), top])


def _grid_roots(f, xs: list[float], values: list[float]) -> list[float]:
    """The roots of f seen on the grid xs, where values holds f: each point
    inside (0, 1) where f is exactly 0, then each sign change between
    neighbours, narrowed on f by _scan_root. The one-group scan's two paths
    share it; pi = 0 and pi = 1 are tested apart."""
    roots = [x for x, v in zip(xs, values) if v == 0.0 and 0.0 < x < 1.0]
    for i in range(len(xs) - 1):
        if values[i] * values[i + 1] < 0.0:
            roots.append(_scan_root(f, xs[i], xs[i + 1], values[i], values[i + 1]))
    return roots


def _theta_curve_roots(
    economy, group, model, grid: int, psi, low, top: float
) -> list[float] | None:
    """The one-group scan's interior candidates from the theta-curve
    (find_equilibria_scan), or None where the curve does not serve. psi is
    Phi(pi) - pi, low the lowest rate searched and psi there, 0 or the
    probe, and top is psi(1); psi(0) and psi(1) are h's limits at theta = 1
    and 0.

    The curve's points are its grid's interior cuts, those with pi_inst
    above low, read in one array pass. The roots of the scalar h on them
    (_grid_roots: its exact zeros and its narrowed sign changes) give the
    candidates, the population's response at each. The end spans, pi from
    low up to the last point's pi_inst and from the first point's up to 1,
    are searched by _scan_root on psi, with h at the point as that end's
    value. They are searched on Phi because
    there the solver may answer off the curve: near pi = 0 it answers
    reject-all where U at the root rounds to <= 0, and near pi = 1 a flat
    top takes the grid's plateau point.
    """
    if not isinstance(model, ScoreModel) or grid < 3:
        return None
    scores = model.scores(group.id)
    if not _strict_mlr_beta(scores):
        return None
    y1, y0 = scores.y1, scores.y0
    p, c, w = economy.payoff_tp, economy.cost_fp, economy.wage
    f1, f0 = y1.slope, y0.slope

    def response(theta: float) -> float:
        return response_rate(group.cost, w, *model.tpr_fpr(group.id, theta))

    def h(theta: float) -> float:
        d0 = f0(theta)
        return response(theta) - c * d0 / (p * f1(theta) + c * d0)

    thetas = np.linspace(0.0, 1.0, grid)[1:-1]
    tpr, fpr = model.rates_grid(group.id, thetas)
    d1, d0 = y1.pdf(thetas), y0.pdf(thetas)
    with np.errstate(invalid="ignore"):
        pis = c * d0 / (p * d1 + c * d0)
    hs = [response_rate(group.cost, w, t, f) for t, f in zip(tpr.tolist(), fpr.tolist())]
    hs = np.array(hs) - pis
    if not np.isfinite(hs).all():
        return None  # both densities underflow somewhere: pi_inst is 0/0
    n = int(np.count_nonzero(pis > low[0]))  # pis falls along the curve
    if n == 0:
        return None  # the whole curve lies below the probe
    thetas, hs, pis = thetas[:n].tolist(), hs[:n].tolist(), pis[:n].tolist()

    roots = [response(t) for t in _grid_roots(h, thetas, hs)]
    # the end spans, searched on Phi as the Phi grid searches its steps
    for a, fa, b, fb in ((*low, pis[-1], hs[-1]), (pis[0], hs[0], 1.0, top)):
        if a < b and fa * fb < 0.0:
            roots.append(_scan_root(psi, a, b, fa, fb))
    return roots


class _ExactZero(Exception):
    """Raised by _scan_root's search at a point where f is exactly 0."""


def _scan_root(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """A root of f in [lo, hi], where flo = f(lo) and fhi = f(hi) differ in
    sign: the sign change that `features._sign_change` narrows to adjacent
    floats, and of those the one 0.5 * (lo + hi) rounds to, or the first
    point where f is exactly 0. Either way a Python float."""
    sign = 1.0 if flo > 0.0 else -1.0

    def g(x: float) -> float:
        fx = f(x)
        if fx == 0.0:
            raise _ExactZero(x)
        return sign * fx

    try:
        lo, hi = _sign_change(g, lo, hi, sign * flo, sign * fhi)
    except _ExactZero as zero:
        return float(zero.args[0])
    return float(0.5 * (lo + hi))


def _derivative_stable(phi, x: float, delta: float = 1e-6) -> bool | None:
    lo = max(0.0, x - delta)
    hi = min(1.0, x + delta)
    if hi <= lo:
        return None
    slope = (phi(hi)[0] - phi(lo)[0]) / (hi - lo)
    return abs(slope) < 1.0


def _multi_starts(n_groups: int, grid: int) -> list[tuple[float, ...]]:
    axis = np.linspace(0.0, 1.0, grid).tolist()
    if n_groups <= 2:
        return list(itertools.product(axis, repeat=n_groups))
    starts = [(v,) * n_groups for v in axis]  # diagonal
    for i in range(n_groups):
        for v in axis:
            point = [0.5] * n_groups
            point[i] = v
            starts.append(tuple(point))
    return starts


def _scan_multi_group(
    economy, groups, model, grid: int, config: DynamicsConfig, seed: int
) -> tuple[EquilibriumRecord, ...]:
    fixed: list[tuple[QualificationState, float]] = []
    cycles: list[tuple[QualificationState, tuple[QualificationState, ...], int]] = []
    # Period and sorted state rates of each stored cycle. A cycle met at
    # another phase has the same key, but its mean may differ in the last
    # ulp (summation order), more than 10 * fix_tol when fix_tol is tiny; the
    # key keeps it one record where the distance test alone would not.
    stored: set[tuple] = set()
    radius = _DEDUP_FACTOR * config.fix_tol
    for outcome in _image_runs(economy, groups, model, grid, config):
        v = outcome.verdict
        if isinstance(v, FixedPoint):
            for i, (st, res) in enumerate(fixed):
                if v.state.sup_distance(st) <= radius:
                    # least (residual, rates), so a residual tie does not
                    # depend on the order of the runs
                    if (v.residual, v.state.rates) < (res, st.rates):
                        fixed[i] = (v.state, v.residual)
                    break
            else:
                fixed.append((v.state, v.residual))
        elif isinstance(v, LimitCycle):
            key = (v.period, *sorted(s.rates for s in v.states))
            if key not in stored:
                avg = cycle_average(outcome)
                for st, cyc, period in cycles:
                    if period == v.period and avg.sup_distance(st) <= radius:
                        break
                else:
                    cycles.append((avg, v.states, v.period))
                    stored.add(key)

    records = []
    fixed.sort(key=lambda item: item[0].rates)
    for st, res in fixed:
        theta = _theta_at(economy, groups, model, st, config)
        try:
            stability = classify_stability(economy, groups, model, st, config, seed=seed)
        except PreconditionError:
            stability = NOT_ASSESSED
        records.append(
            EquilibriumRecord(
                label=f"eq{len(records) + 1}",
                kind="FixedPoint",
                state=st,
                theta=theta,
                stability=stability,
                residual=res,
            )
        )
    cycles.sort(key=lambda item: item[0].rates)
    for st, cyc, period in cycles:
        records.append(
            EquilibriumRecord(
                label=f"cycle{period}_{len(records) + 1}",
                kind="LimitCycle",
                state=st,
                cycle=cyc,
                period=period,
            )
        )
    return tuple(records)


def _debug_log():
    """The "qualdyn.analysis" logger when it takes DEBUG records, else None.
    Until the logging module is imported no level or handler can be set, so
    nothing is enabled; it is not imported here, which would add its import
    time to every process that imports qualdyn."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(__name__)
    return log if log.isEnabledFor(logging.DEBUG) else None


def _image_runs(economy, groups, model, grid: int, config: DynamicsConfig) -> list:
    """A multi-group scan's runs (find_equilibria_scan): iterate from each
    distinct image of the distinct rules on one memo, in order. A halfspace
    model's rules are its table's, the midpoint first, after the rule at the
    zero state is solved, so groups that the model does not fit raise as a
    step does; any other model's are those of its _multi_starts starts.
    Then one DEBUG record on "qualdyn.analysis" counts the starts, rules and
    image runs, and names the images whose runs ended NonConverged."""
    if isinstance(model, GaussianHalfspace):
        starts = []
        zero = QualificationState(tuple(g.id for g in groups), (0.0,) * len(groups))
        rule = _rule(economy, groups, model, zero, config.mode, config.theta_grid, config.tie_tol)
        rules = (model._arc[1], *model._arc[0]) if config.mode == "joint" else (rule,)
    else:
        starts = _multi_starts(len(groups), grid)
        rules = _start_rules(economy, groups, model, starts, config)
    memo: dict = {}
    # equal images give equal runs; response_rate's max(0.0, .) never gives
    # -0.0, so equal states hold the same floats
    images = [_population_response(economy, groups, model, theta) for theta in rules]
    images = list(dict.fromkeys(images))
    runs = [iterate(economy, groups, model, x, config, memo=memo) for x in images]
    log = _debug_log()
    if log is not None:
        dropped = [x.rates for x, r in zip(images, runs) if isinstance(r.verdict, NonConverged)]
        log.debug(
            "multi-group scan: %d starts, %d rules, %d image runs; "
            "%d ended NonConverged, from %s",
            len(starts), len(rules), len(runs), len(dropped), dropped,
        )
    return runs


def _start_rules(economy, groups, model, starts, config: DynamicsConfig) -> list:
    """The starts' distinct rules (by _rule_key), from one dynamics._rule call
    each, in first-seen order."""
    ids = tuple(g.id for g in groups)
    rules: dict = {}
    for rates in starts:
        theta = _rule(
            economy, groups, model, QualificationState(ids, rates),
            config.mode, config.theta_grid, config.tie_tol,
        )
        rules.setdefault(_rule_key(theta), theta)
    return list(rules.values())


def _rule_key(theta):
    """Key under which equal rules meet: scalars by value and sign, so -0.0
    and 0.0 stay apart; decoupled mappings by their items in group order."""
    if isinstance(theta, Mapping):
        return tuple((gid, _rule_key(th)) for gid, th in sorted(theta.items()))
    return (theta, math.copysign(1.0, theta))


def _theta_at(economy, groups, model, state, config: DynamicsConfig):
    theta, _ = step(
        economy, groups, model, state, config.mode,
        grid_size=config.theta_grid, tie_tol=config.tie_tol,
    )
    return theta


# ---------------------------------------------------------------------------
# Near-realizability bound
# ---------------------------------------------------------------------------


def near_realizability_bound(eps: float, s: float, w: float, cost: CostModel) -> float:
    """Lower bound on the equilibrium qualification rate when the feature
    space contains an almost-perfect rule (TPR >= 1 - eps, FPR <= eps).

    Valid for starts in [s, 1-s]; requires 1 - s >= G(w) >= s + L * w * eps / s
    where L is the cost CDF's Lipschitz bound. The check is enforced when
    the bound's metadata is available and skipped with a warning otherwise.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < s < 0.5:
        raise ParameterError(f"s must lie in (0, 1/2), got {s}")
    if not w > 0.0:
        raise ParameterError(f"w must be positive, got {w}")
    lipschitz = getattr(cost, "lipschitz_bound", None)
    gw = cost.cdf(w)
    if lipschitz is None:
        warnings.warn(
            "cost model carries no Lipschitz bound; hypothesis check skipped",
            stacklevel=2,
        )
    else:
        lower = s + lipschitz * w * eps / s
        if not (1.0 - s >= gw and gw >= lower):
            raise AssumptionError(
                f"hypotheses fail: need 1-s >= G(w) >= s + L*w*eps/s, "
                f"got 1-s={1.0 - s}, G(w)={gw}, bound={lower}"
            )
    return cost.cdf(w * (1.0 - eps / s))


# ---------------------------------------------------------------------------
# Subsidies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImprovementRecord:
    base: EquilibriumRecord
    match: EquilibriumRecord | None  # best weakly-dominating equilibrium after subsidy
    improved: bool  # match dominates with strict improvement somewhere
    unchanged: bool  # match equals the base equilibrium within tolerance


@dataclass(frozen=True)
class GaussianSubsidyCheck:
    subsidized_group: str
    other_group: str
    precondition_holds: bool  # G_a(w) < G_b(w(1 - 2*angle)): only the far corner survives
    pre_rates: tuple[float, float]
    reappears: bool  # subsidized CDF now clears the bar at the group's own boundary
    post_rates: tuple[float, float]
    own_boundary_equilibrium_found: bool


@dataclass(frozen=True)
class SubsidyReport:
    base_equilibria: tuple[EquilibriumRecord, ...]
    subsidized_equilibria: tuple[EquilibriumRecord, ...]
    improvements: tuple[ImprovementRecord, ...]
    gaussian_check: GaussianSubsidyCheck | None


def subsidy_equilibrium_shift(
    economy: EconomyConfig,
    groups: Sequence[GroupSpec],
    model,
    base_cost: CostModel,
    new_cost: CostModel,
    *,
    mode: str = "joint",
    grid: int | None = None,
    tol: float = _NONZERO_TOL,
) -> SubsidyReport:
    """Compare equilibria before and after subsidizing qualification costs.

    new_cost must stochastically dominate base_cost (pointwise larger CDF,
    probed on a grid). Every group whose cost equals base_cost is switched
    to new_cost; equilibria are enumerated under both configurations, and
    each non-zero pre-subsidy fixed point is matched to the best
    weakly-dominating post-subsidy fixed point, if one exists.

    When the model is a two-group halfspace family and exactly one group is
    subsidized, the report also carries the unequal-cost corner check: with
    G_a(w) below the other group's rate bar the subsidized group's own
    boundary supports no equilibrium, and a large enough subsidy restores it.
    """
    groups = normalize_groups(groups)
    if not dominates(new_cost, base_cost):
        raise PreconditionError(
            "the subsidized cost CDF does not dominate the base CDF pointwise"
        )
    switched = [g.id for g in groups if g.cost == base_cost]
    if not switched:
        raise ConfigurationError("no group uses the base cost model")
    groups_bar = tuple(
        GroupSpec(id=g.id, proportion=g.proportion, cost=new_cost) if g.cost == base_cost else g
        for g in groups
    )

    config = DynamicsConfig(mode=mode)
    base_eqs = find_equilibria_scan(economy, groups, model, grid, config=config)
    new_eqs = find_equilibria_scan(economy, groups_bar, model, grid, config=config)

    improvements = []
    new_fixed = [r for r in new_eqs if r.kind == "FixedPoint"]
    for rec in base_eqs:
        if rec.kind != "FixedPoint" or not rec.nonzero:
            continue
        best = None
        best_gain = -math.inf
        for cand in new_fixed:
            diffs = [b - a for a, b in zip(rec.state.rates, cand.state.rates)]
            if min(diffs) >= -tol:
                gain = min(diffs)
                if gain > best_gain:
                    best, best_gain = cand, gain
        improved = best is not None and any(
            b - a > tol for a, b in zip(rec.state.rates, best.state.rates)
        )
        unchanged = best is not None and rec.state.sup_distance(best.state) <= tol
        improvements.append(
            ImprovementRecord(base=rec, match=best, improved=improved, unchanged=unchanged)
        )

    gaussian_check = None
    if isinstance(model, GaussianHalfspace) and len(groups) == 2 and len(switched) == 1:
        gaussian_check = _gaussian_subsidy_check(
            economy, groups, groups_bar, model, switched[0], new_eqs, tol
        )
    return SubsidyReport(
        base_equilibria=base_eqs,
        subsidized_equilibria=new_eqs,
        improvements=tuple(improvements),
        gaussian_check=gaussian_check,
    )


def _gaussian_subsidy_check(
    economy, groups, groups_bar, model, subsidized: str, new_eqs, tol
) -> GaussianSubsidyCheck:
    w = economy.wage
    ang = model.pair_angle
    sub = next(g for g in groups if g.id == subsidized)
    other = next(g for g in groups if g.id != subsidized)
    sub_bar = next(g for g in groups_bar if g.id == subsidized)

    pre_rates = (sub.cost.cdf(w), other.cost.cdf(w * (1.0 - 2.0 * ang)))
    post_rates = (sub_bar.cost.cdf(w), other.cost.cdf(w * (1.0 - 2.0 * ang)))
    h_sub = model.vector(subsidized)
    found = False
    for rec in new_eqs:
        if rec.kind != "FixedPoint" or rec.theta is None:
            continue
        theta = np.asarray(rec.theta, dtype=float)
        if theta.shape == h_sub.shape and normalized_angle(theta, h_sub) <= 1e-9:
            found = True
            break
    return GaussianSubsidyCheck(
        subsidized_group=subsidized,
        other_group=other.id,
        precondition_holds=pre_rates[0] < pre_rates[1] - tol,
        pre_rates=pre_rates,
        reappears=post_rates[0] > post_rates[1] + tol,
        post_rates=post_rates,
        own_boundary_equilibrium_found=found,
    )
