"""Feature models: per-group TPR/FPR curves and the institution's best response.

Three families are supported. UniformThreshold scores each group uniformly
with a group-specific qualification threshold h_a; the institution picks a
cut point in [0, 1]. GaussianHalfspace assesses isotropic Gaussian features
with a unit-vector hyperplane; classification rates depend only on the
normalized angle between the chosen hyperplane and the group's own.
ScoreModel is the general scalar case: explicit conditional score CDFs per
group and label, parametric (Beta) or empirical.

Each model holds one parameter per group (a threshold, a boundary vector,
a pair of score curves), given as a mapping or as (id, parameter) pairs.
_group_table builds, once, the id-ordered pairs, the id -> parameter dict
that every lookup reads, and `group_ids`; it refuses an id given twice.

The solver contract: with a fixed grid, fixed refinement, and fixed
tie-breaking, the institution's response is a deterministic function of the
state, which is what makes the downstream dynamics reproducible.

UniformThreshold is solved in closed form, with no grid (grid_size does not
apply to it), by the joint and the decoupled solver alike. U is linear in
theta between the kinks {0, h_a, 1}, so it is evaluated at those alone,
from rates the model reads once (see Caches below); the first maximum
wins, and a maximum U <= 0 means reject-all (1.0). A piece is flat when
both its ends tie the maximum within the plateau slack below
(_PLATEAU_RTOL times the size of U's terms at the winner). The flat pieces
around the winner form a stretch [L, R], resolved by the plateau rule
below, with the kinks in [L, R] as breakpoints; with none, the winner comes
back as the exact kink. Group a's benefit w (TPR_a - FPR_a) is the tent
w min(theta / h_a, (1 - theta) / (1 - h_a)), so its cuts, where the benefit
is beta, are h_a beta / w and 1 - (1 - h_a) beta / w.

ScoreModel. A state whose rates are all 0 is answered reject-all (1.0) at
once: there U(theta) = -c sum_a n_a FPR_a(theta) <= 0, as every score CDF
lies in [0, 1], so the grid's rules below answer 1.0 too. One group with
strict-MLR Beta scores (_strict_mlr_beta) at 0 < pi < 1 is answered by the
exact first-order cut (below), which reads no grid rates. Every other score call, and each state that the cut leaves to
the grid, is solved on a grid, in order:

* Grid. Utility is evaluated on `grid_size` evenly spaced cut points over
  [0, 1] (DEFAULT_GRID = 2001, step 5e-4). For one group with strict-MLR
  Beta scores it is read on a certified window of that grid (below);
  otherwise on the whole grid, from the grid table (see Caches below).
  Among equal grid maxima `np.argmax` takes the first. The rules below
  read the window alone, in window indices; the whole grid is the window
  that needs no certificate.
* Reject-all. If no grid point earns a positive utility the answer is 1.0,
  where utility is exactly 0.
* Plateau. If neighbouring grid points tie the maximum within
  _PLATEAU_RTOL * sum_a n_a (p TPR_a pi_a + c FPR_a (1 - pi_a)), the size
  of the winner's utility terms, the tied points form a stretch, resolved
  by the plateau rule below. Since the slack scales with the terms rather
  than with U, a utility that is tiny because pi is tiny (U ~ 1e-16 near
  pi = 0) is not mistaken for a plateau. The breakpoints are the stretch's
  ends and the tied points where some group's benefit, read from the grid
  table, turns.
* Unique winner. Otherwise, with winner theta_i, the bracket is
  [theta_(i-1), theta_(i+1)], cut at 0 and 1. On it the sign change of
  dU/dtheta = sum_a n_a (p pi_a TPR_a' - c (1 - pi_a) FPR_a') is narrowed
  down to adjacent floats, with exact rate slopes (the Beta density, the
  empirical segment slope), by _sign_change: a safeguarded Illinois regula
  falsi that ends where bisection ends, in about 7 slope calls where
  bisection takes 46. The result is the smallest float found where the
  slope is <= 0, or the bracket end when the slope keeps one sign. It
  replaces the grid point only if its utility beats the grid maximum by
  more than the plateau slack, _PLATEAU_RTOL times the winner's term size;
  otherwise the grid point is returned. So near pi = 0, where U ~ 1e-16, a
  better refined cut still wins. A kink maximum comes back exactly at the
  kink, and one on the grid comes back as that grid point.

These rules have two known limits, where the refined point and the grid
point are within rounding of each other in U: a first-order root within
about 1e-8 of a grid point computes no strict improvement on it, so the
grid point comes back (the snap), and near pi = 0, where U (about 1e-14)
is within the rates' rounding of its own changes, a maximum that is
positive only between grid points is never seen, so the answer is
reject-all. The exact cut mends both for the strict-MLR Beta groups it
answers (tests/test_features.py keeps the window's limits and checks the
mend); they remain where the grid answers.

The exact first-order cut. With one group (a joint call on a one-group
economy, or any decoupled call) whose scores are strict-MLR Beta, f1/f0
rises strictly from 0 to infinity, so U'(theta) = n f0 (c (1 - pi) -
p pi f1/f0) changes sign once, from + to -: the exact U rises to the
first-order root r, where p pi f1 = c (1 - pi) f0 (the likelihood-ratio
cut of Coate and Loury 1993), and falls after it, so U(r) > U(1) = 0 for
0 < pi < 1 (at pi = 0 and pi = 1, U is monotone). _first_order_cut:

* Locates. One searchsorted of log(c (1 - pi) / (p pi)) in the model's
  log(f1 / f0) on the grid gives the index i with the root in
  [theta_(i-1), theta_i].
* Narrows the sign change of dU/dtheta on [theta_(i-2), theta_(i+1)], cut
  at 0 and 1, to adjacent floats, by the refinement's search above; a step
  to spare on each side absorbs the rounding of the located index.
* Answers r, or reject-all (1.0) where U computed at r is <= 0 (its rates
  are then within their rounding of 0). The rates at r are read last, so
  the population response finds them in the memo (see Caches below).
* Leaves to the grid, bit for bit: pi = 1 (pi = 0 is answered reject-all
  before the cut, as above), a root computed at 0 or 1, and a flat top,
  where U's fall over one grid step h from the root,
  1/2 |U''| h^2 with U'' = -n c (1 - pi) f0 d(log(f1 / f0))/dtheta at r,
  is within _FLAT_FACTOR (1e4) plateau slacks at r, or where neither rate
  moves by more than its rounding, _RATE_ULP, over one step. There grid
  points may tie within the plateau slack, and the plateau rule keeps its
  response-preserving answer. Such tops occur near pi = 1 with steep
  Betas, where f0(r) vanishes, and where the rates near r are steps of one
  rounding unit. The two grid points around a root near the middle of its
  step can also tie where U is not flat; the factor leaves that to a
  chance of at most about 1e-4 per state.

The exact answer keeps to the grid's, as a Hypothesis property in
tests/test_features.py checks over drawn pairs: at pi = 0 or 1 and wherever
the grid resolves a tied run by its plateau rule the two are the same bits;
elsewhere they are equal, a few ulps apart or both sign changes of the
computed dU/dtheta (two narrowings from different brackets), or the grid's
answer is one of its limits, and U at the exact answer is never below U at
the grid's by more than the slack and the rates' rounding.

The strict-MLR window. The states that the exact cut leaves to the grid
read a certified window of it:

* Locates, as the exact cut does; pi = 0 takes the top index and pi = 1
  the bottom.
* Reads. The window is the slice of the grid's own linspace that reaches
  _WINDOW_REACH points on each side of i, cut at the grid's ends, so it
  holds i - 2 .. i + 1. Its rates are read by rates_grid on that slice, so
  they are the whole table's bits, and its utility is formed by
  core._utility_from_rates, as the whole grid's is.
* Certifies. With u_max and the slack at the window's first argmax, the
  window stands when each edge is an end of the grid or has utility below
  u_max - slack - margin, margin = _WINDOW_RTOL * n (p pi + c (1 - pi)).
  A window that fails gives way to the whole grid's table.

A model that already holds the whole grid's table at that size, as a
joint call on several groups leaves it, is answered from the table: the
answer is the same, and reading a built table costs less than evaluating
the window's rates (decoupled sweeps make such calls).

Why a certified window gives the whole grid's answer: let e bound the
rounding of a grid utility, a few ulps of the terms n (p pi + c (1 - pi))
from betainc and the kernel, so e << margin. Say the low edge L is inside
the grid. If the root lay at or below theta_L, U would fall from theta_L
on, and as the window's argmax lies above L, the computed u_L would be at
least u_max - 2 e, not below u_max - margin. So U rises up to theta_L, and
any point j < L has u_j <= u_L + 2 e < u_max - slack. The high edge is the
mirror case. So no point outside the window is the first argmax, joins the
tied run or moves u_max, whose sign decides reject-all, and the tied run,
the bracket [theta_(i-1), theta_(i+1)], the snap rule and the plateau rule
read what they would read on the whole grid.

Caches. Rates that never depend on the state are read once per model, and
a cut's rates once per answer. Each cache is a dict on the frozen model,
filled on the first solve that needs it (never at construction). The
tables are filled with `setdefault`, so threads that race on one all read
the one stored entry, and their arrays are read-only; the memo replaces
one immutable tuple whole, so a racing thread reads a whole entry. Every
answer is the bits the uncached computation gives.

* ScoreModel's grid table, per grid size: the theta grid and each group's
  (TPR, FPR) on it. A model is given it only when some best response is
  served by neither the exact cut nor the strict-MLR window, and from then
  on the window's states at that size read it.
* ScoreModel's table for strict-MLR Beta groups, per (group, grid size):
  the theta grid and log(f1 / f0) on it, which the exact cut and the window
  search. The window's rates are not kept: its states are rare (pi = 1 and
  flat tops), and each reads a few dozen points.
* ScoreModel's last-answer memo: tpr_fpr keeps, per group, the last cut
  it computed and that cut's rates, as one (theta, sign of theta, rates)
  tuple. A call with the same float, sign of zero included, is answered
  from it. So the exact cut's sign test (or the grid's gain check), the
  population response, the trace utility and Phi's response, which all read
  the returned cut, share one pair of score-CDF evaluations.
* UniformThreshold's kink table, per tuple of group ids (the joint
  groups, or one group for a decoupled call): the sorted kinks {0, h_a, 1}
  and each group's (TPR, FPR) at each of them.
* GaussianHalfspace's image slots, one per table vector (keyed by its
  id()): the population's response to that vector, as one (theta,
  economy, groups, image) tuple, which dynamics._population_response
  fills and reads. A call matches the slot when theta, economy and groups
  are the stored objects (`is`), so no cost model need be hashable; any
  other call computes the image and replaces the slot. So a scan's table
  images are computed once, not on every step and probe.

The refinement also binds each group's two score densities once per best
response (_utility_slope).

The bound the equilibrium scan relies on: at a smooth interior maximum
the cut point is the first-order root up to the rounding of dU/dtheta, a
few ulps (for strict-MLR Beta groups, wherever the exact cut answers and U
at the root is > 0), so the one-group map Phi(pi) is continuous to
rounding error and a root of Phi(pi) - pi, narrowed by the same search to
adjacent floats, has a residual of order 1e-16, well below the default
fix_tol = 1e-9 that a root must meet before its stability is probed.

The plateau rule, the response-preserving tie-break, picks the point of the
stretch whose induced response is closest to the state in sup norm, so an
indifference state maps to itself. Only uniform stretches have cuts: group
a's beta is the smallest benefit with G_a(beta) >= pi_a, its cost model's
cut_level, so at a cut its response returns pi_a. A cost model finds it by
_slope_turn's search on the CDF, to adjacent floats; a Uniform01 cost,
where G(x) = x, reads it in closed form as pi_a clamped to [0, top], with
the search's bits and no CDF call. Of the cuts inside
[L, R], then L and R, the closest response wins, the first listed on a tie.
A state that none reproduces within _PLATEAU_RTOL (absolute) takes the
closest response over the breakpoints, the cuts, and on each piece between
neighbouring breakpoints the crossing, by _sign_change, of the farthest
falling and the farthest rising group distance. This is exact when each
group's response is monotone on each piece: its distance then falls to its
cut and rises after it, so the sup-norm distance is least at a piece end or
at that crossing, where a score indifference state maps to itself within
_PLATEAU_RTOL. A uniform tent turns only at its kink h_a. A score group's
benefit w (F0 - F1) is monotone on each piece when it is monotone on each
grid step, that is when f0 and f1 cross only at grid points.

GaussianHalfspace responses lie on the geodesic arc between the two group
boundaries. When the two angle weights tie within tie_tol the answer is the
arc midpoint; otherwise utility is linear along the arc, the two endpoints
are compared, and an exact tie goes to the first group's boundary. So a
joint response is one of three unit vectors, arc_point(0.0), arc_point(1.0)
or midpoint, and a decoupled one is the group's own boundary. The model
builds this table once (see GaussianHalfspace), and the solvers return its
own read-only array objects.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    EconomyConfig,
    GroupSpec,
    QualificationState,
    RATE_TOL,
    _check_fields,
    _check_group_index,
    _is_finite_real,
    _number,
    _numbers,
    _utility_from_rates,
    response_rate,
)
from .costs import _checked_knots, _knots_from_config
from .errors import ConfigurationError, DomainError, ParameterError

DEFAULT_GRID = 2001  # step 5e-4 over [0, 1]
MIN_GRID = 3  # the fewest cut points a grid argmax and its refinement work on

# Slack under the grid maximum within which utilities count as tied, relative
# to the size of the winner's utility terms. Exact indifference states
# evaluate with about one ulp of spread across the flat stretch; genuinely
# sloped utilities clear this by many orders.
_PLATEAU_RTOL = 1e-15

# The strict-MLR window (module docstring): the grid points it reaches on each
# side of the located index, and its margin, relative to n (p pi + c (1 - pi)),
# about 1000 times the rounding of the rates and of the utility kernel.
_WINDOW_REACH = 16
_WINDOW_RTOL = 1e-12

# The exact first-order cut (module docstring) leaves a state to the grid when
# U's fall over one grid step from its top is within this many plateau slacks,
# or when neither rate moves by more than its rounding, _RATE_ULP (the spacing
# of the floats just below 1, where 1 - F is formed), over that step.
_FLAT_FACTOR = 1e4
_RATE_ULP = 2.0 ** -53

_SQRT_HALF = math.sqrt(0.5)


def _as_float(x, what: str) -> float:
    try:
        return float(x)
    except (TypeError, ValueError):
        raise ParameterError(f"{what} must be a real number, got {x!r}") from None


# ---------------------------------------------------------------------------
# Score distributions (used by ScoreModel)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaScore:
    """Beta(alpha, beta) conditional score distribution on [0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not all(_is_finite_real(v) and v > 0 for v in (self.alpha, self.beta)):
            raise ParameterError(
                "Beta parameters must be positive finite reals, "
                f"got ({self.alpha!r}, {self.beta!r})"
            )
        # scipy.special is imported here, on first use: no other model needs
        # it, and it is about half of the package's import time.
        from scipy import special

        object.__setattr__(self, "_ln_b", float(special.betaln(self.alpha, self.beta)))
        object.__setattr__(self, "_betainc", special.betainc)
        # the density's exponents, alpha - 1 and beta - 1, formed once
        object.__setattr__(self, "_am1", self.alpha - 1.0)
        object.__setattr__(self, "_bm1", self.beta - 1.0)

    def cdf(self, x):
        if type(x) is float and 0.0 <= x <= 1.0:
            return float(self._betainc(self.alpha, self.beta, x))
        return self._betainc(self.alpha, self.beta, np.clip(x, 0.0, 1.0))

    def pdf(self, x):
        a, b = self.alpha, self.beta
        x = np.asarray(x, dtype=float)
        # A term whose exponent is 0 is skipped, not evaluated as 0 * log(0)
        # (NaN at an endpoint); elsewhere adding it changes no bit.
        log_f = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            if a != 1.0:
                log_f = self._am1 * np.log(x)
            if b != 1.0:
                log_f = log_f + self._bm1 * np.log1p(-x)
            out = np.exp(log_f - self._ln_b)
        return np.where((x < 0.0) | (x > 1.0), 0.0, out)

    def slope(self, x: float) -> float:
        """dF/dx at a scalar score: the density, by `math` inside (0, 1)."""
        if 0.0 < x < 1.0:
            return math.exp(self._am1 * math.log(x) + self._bm1 * math.log1p(-x) - self._ln_b)
        return float(self.pdf(x))

    def to_config(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta}


@dataclass(frozen=True)
class EmpiricalScore:
    """Piecewise-linear conditional score CDF with knots spanning [0, 1].

    The first knot must be (0, 0) and the last (1, 1), each within 1e-12, so
    the curve is a CDF on the score range; `cdf` clamps its value to [0, 1],
    so the rates 1 - F are too. `slope` is the exact slope of the segment
    holding x.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        xs, ys = _checked_knots(self, "empirical score CDF")
        if abs(xs[0]) > 1e-12 or abs(ys[0]) > 1e-12:
            raise ParameterError(f"first knot must be (0, 0), got {self.knots[0]}")
        if abs(xs[-1] - 1.0) > 1e-12 or abs(ys[-1] - 1.0) > 1e-12:
            raise ParameterError(f"last knot must be (1, 1), got {self.knots[-1]}")
        object.__setattr__(self, "_xs", tuple(xs))
        object.__setattr__(self, "_ys", tuple(ys))
        object.__setattr__(
            self, "_slopes",
            tuple((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)),
        )

    def cdf(self, x):
        if type(x) is float and 0.0 <= x <= 1.0:
            # np.interp's arithmetic, step for step, and np.clip's clamp (which
            # keeps -0.0), so both paths agree bitwise.
            xs, ys = self._xs, self._ys
            j = bisect.bisect_right(xs, x) - 1
            if j < 0:
                y = ys[0]
            elif j == len(xs) - 1 or xs[j] == x:
                y = ys[j]
            else:
                y = self._slopes[j] * (x - xs[j]) + ys[j]
            return 0.0 if y < 0.0 else 1.0 if y > 1.0 else y
        return np.clip(np.interp(np.clip(x, 0.0, 1.0), self._xs, self._ys), 0.0, 1.0)

    def slope(self, x: float) -> float:
        """dF/dx at a scalar score: the slope of the segment [x_j, x_j+1)
        holding x (the last segment's at and beyond the last knot)."""
        j = bisect.bisect_right(self._xs, x) - 1
        return self._slopes[min(max(j, 0), len(self._slopes) - 1)]

    def to_config(self) -> dict:
        return {"knots": [[x, y] for x, y in self.knots]}


# ---------------------------------------------------------------------------
# Feature model variants
# ---------------------------------------------------------------------------


def _group_table(model, field: str, parse) -> dict:
    """Build a frozen model's per-group table (module docstring) from its
    field `field`, passing each value through parse(id, value) in id order;
    the field becomes the pairs. Returns the id -> parameter dict."""
    given = getattr(model, field)
    pairs = given.items() if isinstance(given, Mapping) else given
    table = {}
    for gid, value in sorted(((str(k), v) for k, v in pairs), key=lambda kv: kv[0]):
        if gid in table:
            raise ParameterError(f"group {gid!r} is given twice")
        table[gid] = parse(gid, value)
    object.__setattr__(model, field, tuple(table.items()))
    object.__setattr__(model, "_table", table)
    object.__setattr__(model, "group_ids", tuple(table))
    return table


def _lookup(table: dict, group: str, what: str):
    try:
        return table[group]
    except KeyError:
        raise ConfigurationError(f"no {what} for group {group!r}") from None


@dataclass(frozen=True)
class UniformThreshold:
    """Scores uniform on [0, 1]; group a is qualified above its threshold h_a.

    Qualified members of group a have scores uniform on [h_a, 1] and
    unqualified members uniform on [0, h_a]; a cut at theta therefore gives
    TPR = min(1, (1 - max(theta, h_a)) / (1 - h_a)) and
    FPR = max(0, h_a - theta) / h_a.
    """

    thresholds: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        def threshold(gid, h):
            h = float(h)
            if not 0.0 < h < 1.0:
                raise ParameterError(f"threshold for group {gid!r} must lie in (0, 1), got {h}")
            return h

        if not _group_table(self, "thresholds", threshold):
            raise ParameterError("at least one group threshold is required")
        object.__setattr__(self, "_kink_cache", {})

    def threshold(self, group: str) -> float:
        return _lookup(self._table, group, "threshold")

    def tpr_fpr(self, group: str, theta: float) -> tuple[float, float]:
        theta = _check_unit_interval(theta)
        h = self.threshold(group)
        tpr = min(1.0, (1.0 - max(theta, h)) / (1.0 - h))
        fpr = max(0.0, h - theta) / h
        return tpr, fpr

    def rates_grid(self, group: str, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = self.threshold(group)
        tpr = np.minimum(1.0, (1.0 - np.maximum(thetas, h)) / (1.0 - h))
        fpr = np.maximum(0.0, h - thetas) / h
        return tpr, fpr

    def to_config(self) -> dict:
        return {"variant": "uniform_threshold", "thresholds": dict(self.thresholds)}


@dataclass(frozen=True)
class GaussianHalfspace:
    """Isotropic Gaussian features; group a's true boundary is unit vector h_a.

    For a decision hyperplane theta (also a unit vector), the classification
    rates depend only on the normalized angle between theta and h_a:
    TPR = 1 - angle, FPR = angle, with angle = arccos(theta . h_a) / pi.

    `vectors` keeps the caller's vectors, as floats, so that `to_config` and a
    reload give the same model; the unit boundaries are computed from them
    once, on construction (normalizing a computed unit vector again can move
    its last bits).

    Construction also builds the response table: each group's boundary, as
    vector() gives it, and for two groups arc_point(0.0), arc_point(1.0),
    midpoint and pair_angle, each computed once by those methods. The
    table's vectors are read-only arrays, stored with every group's
    (TPR, FPR) at them. The best responses return these very objects, and
    tpr_fpr answers a theta that `is` one of them from the table, the same
    floats its checked path gives for an equal copy; any other theta takes
    the checked path.
    """

    vectors: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        units = {}

        def vector(gid, vec):
            arr = np.asarray(vec, dtype=float)
            if arr.ndim != 1 or arr.size < 2:
                raise ParameterError(f"group {gid!r}: vector must be 1-d with >= 2 entries")
            if any(len(unit) != arr.size for unit in units.values()):
                raise ParameterError("all group vectors must share one dimension")
            units[gid] = tuple(_unit(arr, f"group {gid!r}: vector").tolist())
            return tuple(arr.tolist())

        _group_table(self, "vectors", vector)
        object.__setattr__(self, "_units", units)
        if len(units) < 2:
            raise ParameterError("halfspace model needs at least 2 groups")
        pairs = list(units.items())
        for i, (gi, ui) in enumerate(pairs):
            for gj, uj in pairs[i + 1:]:
                ang = normalized_angle(np.array(ui), np.array(uj))
                if not 0.0 < ang < 1.0:
                    raise ParameterError(
                        f"groups {gi!r} and {gj!r} have identical or "
                        f"opposite boundaries (normalized angle {ang})"
                    )
        # The response table (see the class docstring). _table_rates and the
        # image slots (module docstring, Caches) are keyed by id(); the ids
        # stay unique because the table holds its vectors.
        object.__setattr__(self, "_table_rates", {})
        object.__setattr__(self, "_images", {})
        object.__setattr__(
            self, "_boundaries", {gid: self._table_entry(self.vector(gid)) for gid in units}
        )
        arc = None
        if len(units) == 2:
            ends = (self._table_entry(self.arc_point(0.0)), self._table_entry(self.arc_point(1.0)))
            arc = (ends, self._table_entry(self.midpoint), normalized_angle(*self._pair()))
        object.__setattr__(self, "_arc", arc)

    def _table_entry(self, theta: np.ndarray) -> np.ndarray:
        """Make theta read-only and store it with each group's checked rates."""
        theta.flags.writeable = False
        rates = {gid: self._checked_tpr_fpr(gid, theta) for gid in self.group_ids}
        self._table_rates[id(theta)] = (theta, rates)
        return theta

    def vector(self, group: str) -> np.ndarray:
        return np.array(_lookup(self._units, group, "boundary vector"))

    def tpr_fpr(self, group: str, theta) -> tuple[float, float]:
        hit = self._table_rates.get(id(theta))
        if hit is not None and hit[0] is theta and group in hit[1]:
            return hit[1][group]
        return self._checked_tpr_fpr(group, theta)

    def _checked_tpr_fpr(self, group: str, theta) -> tuple[float, float]:
        theta = self._check_theta(theta)
        ang = normalized_angle(theta, self.vector(group))
        return 1.0 - ang, ang

    def _check_theta(self, theta) -> np.ndarray:
        arr = np.asarray(theta, dtype=float)
        dim = len(self.vectors[0][1])
        if arr.shape != (dim,):
            raise DomainError(f"theta must be a vector of dimension {dim}")
        norm = _norm(arr)
        if not abs(norm - 1.0) <= 1e-6:  # a NaN norm fails too
            raise DomainError(f"theta must be a unit vector, got norm {norm}")
        return arr / norm

    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self.vectors) != 2:
            raise ConfigurationError(
                "geodesic-arc operations support exactly two groups; "
                f"model has {len(self.vectors)}"
            )
        return tuple(np.array(unit) for unit in self._units.values())

    @property
    def pair_angle(self) -> float:
        """Normalized angle between the two group boundaries."""
        if self._arc is None:
            self._pair()  # raises: arcs need exactly two groups
        return self._arc[2]

    @property
    def midpoint(self) -> np.ndarray:
        """Normalized midpoint of the two boundaries (the canonical tie choice)."""
        h1, h2 = self._pair()
        s = h1 + h2
        return s / _norm(s)

    def arc_point(self, t: float) -> np.ndarray:
        """Point at arc fraction t on the geodesic from the first group's
        boundary (t=0) to the second's (t=1)."""
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"arc fraction must lie in [0, 1], got {t}")
        h1, h2 = self._pair()
        omega = math.acos(_clamp_unit(float(h1.dot(h2))))
        s = math.sin(omega)
        v = (math.sin((1.0 - t) * omega) * h1 + math.sin(t * omega) * h2) / s
        return v / _norm(v)

    def arc_fraction(self, theta) -> float:
        """Inverse of arc_point for points on (or near) the geodesic arc."""
        theta = self._check_theta(theta)
        h1, _ = self._pair()
        return normalized_angle(theta, h1) / self.pair_angle

    def to_config(self) -> dict:
        return {
            "variant": "gaussian_halfspace",
            "vectors": {g: list(v) for g, v in self.vectors},
        }


def _unit(vec, what: str) -> np.ndarray:
    """vec / |vec|, or ParameterError naming `what` if vec has no direction.
    Scaling vec first by a power of two (exact) keeps the squared entries
    from underflowing or overflowing; elsewhere no bit changes."""
    arr = np.asarray(vec, dtype=float)
    top = float(np.abs(arr).max(initial=0.0))
    if not 0.0 < top < math.inf:
        raise ParameterError(f"{what} has no direction")
    arr = np.ldexp(arr, -math.frexp(top)[1])
    return arr / _norm(arr)


def _norm(arr: np.ndarray) -> float:
    """The Euclidean norm of a 1-d float array, as np.linalg.norm computes
    it (sqrt(x . x) for real 1-d input), with no numpy scalar in between."""
    return math.sqrt(float(arr.dot(arr)))


def _clamp_unit(x: float) -> float:
    """x clamped to [-1, 1] with float(np.clip(x, -1.0, 1.0))'s bits: NaN,
    -0.0 and every value inside come back as they are."""
    return -1.0 if x < -1.0 else 1.0 if x > 1.0 else x


def normalized_angle(u: np.ndarray, v: np.ndarray) -> float:
    """arccos(u . v) / pi for unit vectors: 0 aligned, 1 opposite."""
    return math.acos(_clamp_unit(float(np.dot(u, v)))) / math.pi


@dataclass(frozen=True)
class GroupScores:
    """Conditional score distributions for one group: y1 qualified, y0 not."""

    y1: BetaScore | EmpiricalScore
    y0: BetaScore | EmpiricalScore


def _strict_mlr_beta(scores: GroupScores) -> bool:
    """Whether both score classes are BetaScore with y1.alpha > y0.alpha and
    y1.beta < y0.beta: a strict monotone likelihood ratio (MLR), so f1/f0
    rises strictly from 0 to infinity across (0, 1). The strict-MLR window
    of the best response (module docstring) and the one-group scan's
    theta-curve (analysis.find_equilibria_scan) serve exactly these pairs."""
    y1, y0 = scores.y1, scores.y0
    return (
        isinstance(y1, BetaScore) and isinstance(y0, BetaScore)
        and y1.alpha > y0.alpha and y1.beta < y0.beta
    )


@dataclass(frozen=True)
class ScoreModel:
    """Per-group conditional score CDFs; decisions accept scores above theta.

    TPR_a(theta) = 1 - F1_a(theta) and FPR_a(theta) = 1 - F0_a(theta).
    """

    curves: tuple[tuple[str, GroupScores], ...]

    def __post_init__(self) -> None:
        def scores(gid, gs):
            if not isinstance(gs, GroupScores):
                raise ParameterError(f"group {gid!r}: expected GroupScores, got {type(gs)}")
            return gs

        if not _group_table(self, "curves", scores):
            raise ParameterError("at least one group is required")
        object.__setattr__(self, "_grid_cache", {})
        object.__setattr__(self, "_llr_cache", {})
        object.__setattr__(self, "_last", {})

    def scores(self, group: str) -> GroupScores:
        return _lookup(self._table, group, "score curves")

    def tpr_fpr(self, group: str, theta: float) -> tuple[float, float]:
        theta = _check_unit_interval(theta)
        sign = math.copysign(1.0, theta)
        last = self._last.get(group)
        if last is not None and last[0] == theta and last[1] == sign:
            return last[2]
        gs = self.scores(group)
        rates = 1.0 - float(gs.y1.cdf(theta)), 1.0 - float(gs.y0.cdf(theta))
        self._last[group] = (theta, sign, rates)
        return rates

    def rates_grid(self, group: str, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gs = self.scores(group)
        return 1.0 - np.asarray(gs.y1.cdf(thetas)), 1.0 - np.asarray(gs.y0.cdf(thetas))

    def to_config(self) -> dict:
        groups = {g: {"y1": gs.y1.to_config(), "y0": gs.y0.to_config()} for g, gs in self.curves}
        return {"variant": "score", "groups": groups}


ScalarModel = (UniformThreshold, ScoreModel)


def _check_unit_interval(theta: float) -> float:
    theta = _as_float(theta, "theta")
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"theta must lie in [0, 1], got {theta}")
    return theta


# ---------------------------------------------------------------------------
# Institution best response
# ---------------------------------------------------------------------------


def _grid_rates(model, grid_size: int):
    """The theta grid and each group's (TPR, FPR) on it, cached on the model.

    The table depends on the model and the grid only, never on the state.
    """
    table = model._grid_cache.get(grid_size)
    if table is None:
        thetas = np.linspace(0.0, 1.0, grid_size)
        rates = {}
        for gid in model.group_ids:
            tpr, fpr = model.rates_grid(gid, thetas)
            tpr.flags.writeable = fpr.flags.writeable = False
            rates[gid] = (tpr, fpr)
        thetas.flags.writeable = False
        table = model._grid_cache.setdefault(grid_size, (thetas, rates))
    return table


def _llr_grid(model, gid: str, scores: GroupScores, grid_size: int):
    """The theta grid and log(f1 / f0) on it for a strict-MLR Beta group,
    (a1 - a0) log(theta) + (b1 - b0) log1p(-theta) + ln B0 - ln B1, which
    rises from -inf at 0 to +inf at 1; cached on the model per group and
    grid size."""
    key = (gid, grid_size)
    table = model._llr_cache.get(key)
    if table is None:
        y1, y0 = scores.y1, scores.y0
        thetas = np.linspace(0.0, 1.0, grid_size)
        with np.errstate(divide="ignore"):
            llr = (
                (y1.alpha - y0.alpha) * np.log(thetas)
                + (y1.beta - y0.beta) * np.log1p(-thetas)
                + (y0._ln_b - y1._ln_b)
            )
        thetas.flags.writeable = llr.flags.writeable = False
        table = model._llr_cache.setdefault(key, (thetas, llr))
    return table


def _kink_rates(model: UniformThreshold, ids: tuple[str, ...]):
    """The sorted kinks {0, h_a, 1} of the groups `ids` and, at each kink,
    each group's (TPR, FPR) in ids order, cached on the model per ids."""
    table = model._kink_cache.get(ids)
    if table is None:
        kinks = tuple(sorted({0.0, 1.0, *(model.threshold(gid) for gid in ids)}))
        rates = tuple(tuple(model.tpr_fpr(gid, k) for gid in ids) for k in kinks)
        table = model._kink_cache.setdefault(ids, (kinks, rates))
    return table


def _utility_slope(model, economy, groups, state):
    """dU/dtheta = sum_a n_a (p pi_a TPR_a' - c (1 - pi_a) FPR_a'), as a
    function, where TPR_a' = -f1_a and FPR_a' = -f0_a are the score
    densities, each group's bound once."""
    terms = []
    for g, pi in zip(groups, state.rates):
        gs = model.scores(g.id)
        w_tp = g.proportion * economy.payoff_tp * pi
        w_fp = g.proportion * economy.cost_fp * (1.0 - pi)
        terms.append((gs.y1.slope, gs.y0.slope, w_tp, w_fp))

    def slope(theta: float) -> float:
        total = 0.0
        for f1, f0, w_tp, w_fp in terms:
            total += w_tp * -f1(theta) - w_fp * -f0(theta)
        return total

    return slope


def _sign_change(f, lo: float, hi: float, flo: float, fhi: float) -> tuple[float, float]:
    """Adjacent floats lo < hi with f(lo) > 0 >= f(hi), given flo = f(lo) > 0
    >= fhi = f(hi).

    The search ends where bisection ends, once 0.5 * (lo + hi) is no longer
    strictly inside (lo, hi). Its bracket always holds a sign change, so when
    f has one in [lo, hi] (f monotone) the result is bisection's, bit for bit.
    Each step is a regula falsi point with the Illinois modification (Dowell
    & Jarratt 1971: an end kept twice in a row has its value halved), made
    safe as Brent (1973, ch. 4) makes a bracketing method safe:

    * the point is moved at least one float in from each end, so a point
      that lands next to the sign change steps across it, and the last
      bracket closes in a step or two instead of halving its way there;
    * a step bisects once k evaluations have left the bracket wider than
      2 W / sqrt(2)^k (W its first width), that is once the evaluations
      exceed twice the halvings by two, so where bisection takes n
      evaluations this takes at most about 2 n + 2;
    * a zero or non-finite denominator (values that underflowed, overflowed
      or are NaN) falls back to the midpoint;
    * with f(hi) = 0 the secant point is hi itself, moved to the float below
      it, which ends the search when the sign change is at hi. Once two such
      points in a row have found f = 0 as well, f is flat at zero there and
      the secant would move hi one float per step (a cost CDF that rounds to
      1 below its support's top, inverted at pi = 1), so the search bisects
      while f(hi) stays 0. Two, not one, because a CDF that reaches 1 just
      at its support's top is also 1 on the float above it. A monotone f
      that is 0 at hi so costs two points plus a bisection of the rest,
      within n + 3 evaluations, where the secant alone took up to 2 n + 2.
    """
    kept = 0  # +1 after lo moved, -1 after hi moved
    zeros = 0  # hi moves in a row from a zero of f to another zero
    limit = 2.0 * (hi - lo)  # the widest bracket that may take a secant step
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        denom = flo - fhi
        if hi - lo >= limit or zeros >= 2 or not 0.0 < denom < math.inf:
            x = mid
        else:
            x = lo + (hi - lo) * (flo / denom)
            x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        limit *= _SQRT_HALF
        fx = f(x)
        if fx > 0.0:
            lo, flo = x, fx
            if kept > 0:
                fhi *= 0.5
            kept = 1
        else:
            zeros = zeros + 1 if fx == 0.0 == fhi else 0
            hi, fhi = x, fx
            if kept < 0:
                flo *= 0.5
            kept = -1


def _slope_turn(slope, a: float, b: float) -> float:
    """Where slope turns from > 0 to <= 0 on [a, b], to adjacent floats.

    Returns a when slope(a) <= 0 and b when slope(b) > 0; otherwise the
    smallest float found with slope <= 0 (by _sign_change), so a kink
    maximum (where the right-hand slope is the negative one) comes back
    exactly.
    """
    sa = slope(a)
    if sa <= 0.0:
        return a
    sb = slope(b)
    if sb > 0.0:
        return b
    return _sign_change(slope, a, b, sa, sb)[1]


def _residuals(model, economy, groups, state: QualificationState, theta: float) -> list[float]:
    """Each group's response to theta minus its rate in the state."""
    return [
        response_rate(g.cost, economy.wage, *model.tpr_fpr(g.id, theta)) - pi
        for g, pi in zip(groups, state.rates)
    ]


def _response_distance(model, economy, groups, state: QualificationState, theta: float) -> float:
    """Sup-norm gap between the population's response to theta and the state
    (`_plateau_point` takes it from its cached residuals; tests use this)."""
    return max(map(abs, _residuals(model, economy, groups, state, theta)))


def _term_size(economy, groups, rates, pis):
    """sum_a n_a (p TPR_a pi_a + c FPR_a (1 - pi_a)): the size of the utility's
    terms, which its rounding is relative to (U itself may be far smaller)."""
    return sum(
        g.proportion * (economy.payoff_tp * tpr * pi + economy.cost_fp * fpr * (1.0 - pi))
        for g, (tpr, fpr), pi in zip(groups, rates, pis)
    )


def _tied_run(util, i_best: int, floor: float) -> tuple[int, int]:
    """The run of consecutive indices around i_best whose utility is >= floor."""
    lo, hi = i_best, i_best
    while lo > 0 and util[lo - 1] >= floor:
        lo -= 1
    while hi < len(util) - 1 and util[hi + 1] >= floor:
        hi += 1
    return lo, hi


def _plateau_point(model, economy, groups, state: QualificationState, points, cuts=()) -> float:
    """The plateau rule (module docstring) on the stretch [points[0], points[-1]]
    with breakpoints `points` and the family's cuts, if it has any."""
    lo_t, hi_t = points[0], points[-1]
    found = [c for c in cuts if lo_t <= c <= hi_t]
    # each theta's residuals are read once, for d and for the crossing stage
    seen: dict = {}

    def residuals(th):
        res = seen.get(th)
        if res is None:
            res = seen[th] = _residuals(model, economy, groups, state, th)
        return res

    d = lambda th: max(map(abs, residuals(th)))
    best = min(found + [lo_t, hi_t], key=d)
    if d(best) <= _PLATEAU_RTOL:
        return best

    def envelope_gap(res, trend):
        # farthest falling minus farthest rising distance; a group falls
        # while its residual and its trend on the piece have opposite signs
        fall = max((abs(r) for r, t in zip(res, trend) if r * t < 0.0), default=0.0)
        rise = max((abs(r) for r, t in zip(res, trend) if r * t > 0.0), default=0.0)
        return fall - rise

    res = [residuals(p) for p in points]
    for a, b, ra, rb in zip(points, points[1:], res, res[1:]):
        trend = [y - x for x, y in zip(ra, rb)]
        fa, fb = envelope_gap(ra, trend), envelope_gap(rb, trend)
        if fa > 0.0 >= fb:
            f = lambda th: envelope_gap(residuals(th), trend)
            found += _sign_change(f, a, b, fa, fb)
    return min(points + found, key=d)


def _scalar_best_response(
    model,
    economy: EconomyConfig,
    groups: tuple[GroupSpec, ...],
    state: QualificationState,
    grid_size: int,
) -> float:
    if isinstance(model, UniformThreshold):
        return _uniform_best_response(model, economy, groups, state)
    if not any(state.rates):
        # At pi = 0, U(theta) = -c sum_a n_a FPR_a(theta) <= 0, as every score
        # CDF lies in [0, 1], so every grid utility is <= 0 and _window_answer
        # answers reject-all, on the window and the whole grid alike.
        return 1.0
    cut = _first_order_cut(model, economy, groups, state, grid_size)
    if cut is not None:
        return cut
    window = None
    if grid_size not in model._grid_cache:  # a table already built is read
        window = _mlr_window(model, economy, groups, state, grid_size)
    if window is None:
        window = _full_window(model, economy, groups, state, grid_size)
    return _window_answer(model, economy, groups, state, window)


def _root_step(model, economy, gid: str, scores: GroupScores, pi: float, grid_size: int):
    """The theta grid of a strict-MLR Beta group and the index i with its
    first-order root in [theta_(i-1), theta_i], by one searchsorted of
    log(c (1 - pi) / (p pi)) in its log(f1 / f0), which runs from -inf to
    +inf; pi = 0 takes the top index and pi = 1 the bottom."""
    thetas, llr = _llr_grid(model, gid, scores, grid_size)
    if pi <= 0.0:
        return thetas, grid_size - 1
    if pi >= 1.0:
        return thetas, 0
    p, c = economy.payoff_tp, economy.cost_fp
    return thetas, int(
        llr.searchsorted(math.log(c) + math.log1p(-pi) - math.log(p) - math.log(pi))
    )


def _first_order_cut(model, economy, groups, state: QualificationState, grid_size: int):
    """The exact answer (module docstring) for one strict-MLR Beta group at
    0 < pi < 1: the first-order root, or reject-all (1.0) where U there is
    <= 0. None for every other model and for the states the grid's rules
    answer: pi at 0 or 1, and a top too flat for the grid to tell apart."""
    if len(groups) != 1:
        return None
    (g,), (pi,) = groups, state.rates
    scores = model.scores(g.id)
    if not (0.0 < pi < 1.0 and _strict_mlr_beta(scores)):
        return None
    thetas, i = _root_step(model, economy, g.id, scores, pi, grid_size)
    a, b = float(thetas[max(i - 2, 0)]), float(thetas[min(i + 1, grid_size - 1)])
    root = _slope_turn(_utility_slope(model, economy, groups, state), a, b)
    if not 0.0 < root < 1.0:
        return None
    y1, y0 = scores.y1, scores.y0
    n, p, c, h = g.proportion, economy.payoff_tp, economy.cost_fp, 1.0 / (grid_size - 1)
    d = n * c * (1.0 - pi) * y0.slope(root)  # = n p pi f1 at the root
    # U's fall over one grid step from its top, 1/2 |U''| h^2, where
    # U'' = -d d(llr)/dtheta at the root
    fall = 0.5 * d * h * h * ((y1.alpha - y0.alpha) / root + (y0.beta - y1.beta) / (1.0 - root))
    rates = model.tpr_fpr(g.id, root)
    slack = _PLATEAU_RTOL * _term_size(economy, groups, (rates,), state.rates)
    # each rate moves by its density times h over a step: f0 = d / (n c (1 - pi))
    # and f1 = d / (n p pi)
    if not (fall > _FLAT_FACTOR * slack and d * h > _RATE_ULP * n * min(p * pi, c * (1.0 - pi))):
        return None
    return root if _utility_from_rates(economy, groups, (rates,), state.rates) > 0.0 else 1.0


def _peak(economy, groups, state: QualificationState, rates: dict, util):
    """The first argmax of util, its utility, and the plateau slack there:
    _PLATEAU_RTOL times the size of its utility terms."""
    i_best = int(util.argmax())
    at_best = [(rates[g.id][0][i_best], rates[g.id][1][i_best]) for g in groups]
    return i_best, float(util[i_best]), _PLATEAU_RTOL * _term_size(
        economy, groups, at_best, state.rates
    )


def _full_window(model, economy, groups, state: QualificationState, grid_size: int):
    """The whole grid as the solver's window: (thetas, rates, util, peak),
    with each group's (TPR, FPR) and the utility on it, from the model's grid
    tables, and _peak of util."""
    thetas, rates = _grid_rates(model, grid_size)
    util = _utility_from_rates(economy, groups, [rates[g.id] for g in groups], state.rates)
    return thetas, rates, util, _peak(economy, groups, state, rates, util)


def _mlr_window(model, economy, groups, state: QualificationState, grid_size: int):
    """The strict-MLR window (module docstring) in the form of _full_window,
    or None for a model it does not serve or a state it cannot certify."""
    if len(groups) != 1:
        return None
    (g,), (pi,) = groups, state.rates
    scores = model.scores(g.id)
    if not _strict_mlr_beta(scores):
        return None
    thetas, i = _root_step(model, economy, g.id, scores, pi, grid_size)
    p, c = economy.payoff_tp, economy.cost_fp
    margin = _WINDOW_RTOL * g.proportion * (p * pi + c * (1.0 - pi))
    lo, hi = max(i - _WINDOW_REACH, 0), min(i + _WINDOW_REACH, grid_size)
    window = thetas[lo:hi]
    rates = {g.id: model.rates_grid(g.id, window)}
    util = _utility_from_rates(economy, groups, rates.values(), state.rates)
    peak = _peak(economy, groups, state, rates, util)
    floor = peak[1] - peak[2] - margin
    if (lo == 0 or util[0] < floor) and (hi == grid_size or util[-1] < floor):
        return window, rates, util, peak
    return None


def _window_answer(model, economy, groups, state: QualificationState, window) -> float:
    """The score solver's answer (module docstring) from a window of its
    grid, (thetas, rates, util, peak) as _full_window gives it: reject-all,
    the tied run, the refinement, the snap rule and the plateau rule."""
    thetas, rates, util, (i_best, u_max, slack) = window
    if u_max <= 0.0:
        # No cut point earns a positive payoff: reject everyone. theta=1
        # always attains utility exactly 0, so it is inside the argmax set.
        return 1.0
    lo_i, hi_i = _tied_run(util, i_best, u_max - slack)

    if hi_i == lo_i:
        # Unique grid winner: narrow the sign change of dU/dtheta between its
        # neighbours, snapping back to the grid point unless the refined point
        # strictly improves (keeps kink maxima that sit exactly on the grid).
        a = float(thetas[max(i_best - 1, 0)])
        b = float(thetas[min(i_best + 1, len(thetas) - 1)])
        refined = _slope_turn(_utility_slope(model, economy, groups, state), a, b)
        at_refined = [model.tpr_fpr(g.id, refined) for g in groups]
        gain = _utility_from_rates(economy, groups, at_refined, state.rates) - u_max
        if gain > slack:
            return refined
        return float(thetas[i_best])

    # A flat stretch of maximizers: the fixed tie-break selects the point
    # whose induced response stays closest to the current state, so exact
    # indifference states map to themselves instead of jumping to an edge.
    points = thetas[lo_i:hi_i + 1].tolist()
    turns = {0, len(points) - 1}  # where some group's benefit turns
    for g in groups:
        b = economy.wage * (rates[g.id][0] - rates[g.id][1])[lo_i:hi_i + 1]
        moves = np.flatnonzero(np.diff(b))
        ups = b[moves + 1] > b[moves]
        turns.update(moves[1:][ups[1:] != ups[:-1]].tolist())
    return _plateau_point(model, economy, groups, state, [points[i] for i in sorted(turns)])


def _uniform_best_response(
    model: UniformThreshold,
    economy: EconomyConfig,
    groups: tuple[GroupSpec, ...],
    state: QualificationState,
) -> float:
    """The uniform family's best response in closed form (see the module
    docstring): U is linear between the kinks {0, h_a, 1}, so it is read at
    those alone."""
    kinks, rates = _kink_rates(model, tuple(g.id for g in groups))
    util = [_utility_from_rates(economy, groups, r, state.rates) for r in rates]
    i_best = util.index(max(util))
    u_max = util[i_best]
    if u_max <= 0.0:
        return 1.0  # reject everyone; U(1) is exactly 0
    slack = _PLATEAU_RTOL * _term_size(economy, groups, rates[i_best], state.rates)
    lo_i, hi_i = _tied_run(util, i_best, u_max - slack)
    if lo_i == hi_i:
        return kinks[i_best]
    # On the stretch, group a's benefit is the tent w min(theta / h_a,
    # (1 - theta) / (1 - h_a)), which is beta at the two cuts made below.
    w = economy.wage
    cuts = []
    for g, pi in zip(groups, state.rates):
        # G is exactly 1 above its support, so the search need go no higher.
        top = min(w, math.nextafter(g.cost.support[1], math.inf))
        beta = g.cost.cut_level(pi, top)
        h = model.threshold(g.id)
        cuts += [h * beta / w, 1.0 - (1.0 - h) * beta / w]
    return _plateau_point(model, economy, groups, state, list(kinks[lo_i:hi_i + 1]), cuts)


def _halfspace_rule(model: GaussianHalfspace, economy: EconomyConfig, groups, pis, tie_tol: float):
    """The joint halfspace response (module docstring) to pis, the two
    groups' rates: the model's table vector."""
    if len(groups) != 2:
        raise ConfigurationError(
            "halfspace best response supports exactly two groups; run a scenario "
            "with more groups decoupled: pass --decoupled, or set "
            '"intervention": {"decouple": true} in the scenario'
        )
    (g1, g2), (pi1, pi2) = groups, pis
    p, c = economy.payoff_tp, economy.cost_fp
    if abs(g1.proportion - g2.proportion) <= 1e-12 and p != c:
        tied = abs(pi1 - pi2) <= tie_tol
    else:
        # Angle weight per group: n_a * (c_FP + (p_TP - c_FP) * pi_a); always > 0.
        w1 = g1.proportion * (c + (p - c) * pi1)
        w2 = g2.proportion * (c + (p - c) * pi2)
        tied = abs(w1 - w2) <= tie_tol * max(1.0, w1, w2)
    ends, midpoint, ang = model._arc
    # Off a tie the objective along the arc is linear in the arc fraction
    # (the angles to the two boundaries are t*ang and (1-t)*ang), so its
    # maximum sits at an endpoint; an exact tie goes to t=0. On a tie the
    # whole arc is optimal, and the convention is the boundaries' midpoint.
    at_first = _utility_from_rates(economy, groups, ((1.0, 0.0), (1.0 - ang, ang)), pis)
    at_second = _utility_from_rates(economy, groups, ((1.0 - ang, ang), (1.0, 0.0)), pis)
    return midpoint if tied else ends[0] if at_first >= at_second else ends[1]


def institution_best_response(
    model,
    economy: EconomyConfig,
    groups: tuple[GroupSpec, ...],
    state: QualificationState,
    *,
    grid_size: int = DEFAULT_GRID,
    tie_tol: float = RATE_TOL,
):
    """Utility-maximizing assessment parameter for the current state.

    Scalar models return a cut point in [0, 1]: UniformThreshold in closed
    form from the utility at its kinks, ScoreModel by the exact first-order
    cut for one strict-MLR Beta group at 0 < pi < 1 away from a flat top,
    and otherwise by grid argmax plus a sign-change search on dU/dtheta
    around the winner. Halfspace models
    return a unit vector on the geodesic arc between the two group
    boundaries. Ties are broken deterministically: reject-all when nothing
    is profitable, the response-preserving point on interior plateaus, and
    the arc midpoint for the halfspace indifference case. The module docstring
    states the precision contract.
    """
    _check_grid_size(grid_size)
    _check_alignment(model, groups, state)
    if isinstance(model, GaussianHalfspace):
        return _halfspace_rule(model, economy, groups, state.rates, tie_tol)
    if isinstance(model, ScalarModel):
        return _scalar_best_response(model, economy, groups, state, grid_size)
    raise ConfigurationError(f"unknown feature model type {type(model).__name__}")


def decoupled_best_response(
    model,
    economy: EconomyConfig,
    group: GroupSpec,
    pi: float,
    *,
    grid_size: int = DEFAULT_GRID,
):
    """Best response when the institution may pick a separate rule per group.

    Scalar models reuse the joint solver on a one-group economy. For the
    halfspace model the per-group optimum is always the group's own
    boundary: any other hyperplane trades true positives for false
    positives at a strictly positive angle weight. It is returned as the
    model's read-only table copy of that boundary.
    """
    _check_grid_size(grid_size)
    if isinstance(model, GaussianHalfspace):
        boundary = model._boundaries.get(group.id)
        if boundary is None:
            raise ConfigurationError(f"no boundary vector for group {group.id!r}")
        return boundary
    if isinstance(model, ScalarModel):
        solo = (GroupSpec(id=group.id, proportion=1.0, cost=group.cost),)
        state = QualificationState(ids=(group.id,), rates=(float(pi),))
        return _scalar_best_response(model, economy, solo, state, grid_size)
    raise ConfigurationError(f"unknown feature model type {type(model).__name__}")


def _check_grid_size(grid_size) -> None:
    if not isinstance(grid_size, int) or isinstance(grid_size, bool) or grid_size < MIN_GRID:
        raise ParameterError(f"grid_size must be an integer >= {MIN_GRID}, got {grid_size!r}")


def _check_alignment(model, groups: tuple[GroupSpec, ...], state: QualificationState) -> None:
    _check_group_index(groups, state)
    model_ids = tuple(model.group_ids)
    if model_ids != state.ids:
        raise ConfigurationError(
            f"feature model groups {model_ids} do not match economy groups {state.ids}"
        )


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _score_dist_from_config(obj: Mapping, path: str) -> BetaScore | EmpiricalScore:
    keys = set(_check_fields(obj, path))
    try:
        if keys == {"alpha", "beta"}:
            return BetaScore(*(_number(obj[k], f"{path}.{k}") for k in ("alpha", "beta")))
        if keys == {"knots"}:
            return EmpiricalScore(_knots_from_config(obj["knots"], f"{path}.knots"))
    except ParameterError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    raise ConfigurationError(
        f"{path}: expected either {{alpha, beta}} or {{knots}}, got {sorted(keys)}"
    )


def _score_model_from_config(groups: Mapping, path: str) -> ScoreModel:
    curves = {}
    for gid, spec in groups.items():
        if not isinstance(spec, Mapping) or set(spec) != {"y1", "y0"}:
            raise ConfigurationError(f"{path}.{gid}: expected exactly the fields y1 and y0")
        curves[str(gid)] = GroupScores(
            y1=_score_dist_from_config(spec["y1"], f"{path}.{gid}.y1"),
            y0=_score_dist_from_config(spec["y0"], f"{path}.{gid}.y0"),
        )
    return ScoreModel(curves)


# variant -> (its one field, a mapping keyed by group id; builder from that
# mapping and its path)
_VARIANTS = {
    "uniform_threshold": (
        "thresholds",
        lambda value, path: UniformThreshold(
            {gid: _number(h, f"{path}.{gid}") for gid, h in value.items()}
        ),
    ),
    "gaussian_halfspace": (
        "vectors",
        lambda value, path: GaussianHalfspace(
            {gid: _numbers(v, f"{path}.{gid}") for gid, v in value.items()}
        ),
    ),
    "score": ("groups", _score_model_from_config),
}


def from_config(obj: Mapping, group_ids: Sequence[str], path: str = "features"):
    """Build a feature model from a scenario-config mapping.

    The declared groups must exactly cover the economy's group ids; unknown
    fields or variants and bad values are configuration errors naming the
    path.
    """
    variant = _check_fields(obj, path, required=("variant",))["variant"]
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ConfigurationError(f"{path}.variant: unknown variant {variant!r}")
    field, build = _VARIANTS[variant]
    where = f"{path}.{field}"
    _check_fields(obj, path, {"variant", field}, (field,))
    value = _check_fields(obj[field], where)
    expected = tuple(sorted(group_ids))
    got = tuple(sorted(str(k) for k in value))
    if got != expected:
        raise ConfigurationError(
            f"{where}: groups {list(got)} do not match economy groups {list(expected)}"
        )
    try:
        return build(value, where)
    except ParameterError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
