"""Investment-cost distributions.

Individuals invest in qualification when the wage-weighted benefit exceeds
their private cost; the population's response is therefore read off a cost
CDF G. This module provides the built-in G families (uniform, truncated
normal, bimodal normal mixture, empirical piecewise-linear) plus the two
subsidy transforms, which act on the CDF itself: a shift makes G_bar(x) =
G(x + delta), a scale makes G_bar(x) = G(x * factor). Both dominate the
base CDF pointwise, which is what makes them subsidies.

`cdf` takes a float or a NumPy array. The array path gives each entry the
same bits as the float path gives that point: it repeats the float path's
arithmetic elementwise (`math.erf` point by point for the normal models,
the same interpolation formula for knots), and clamps with the same
choices, so G(-0.0) is +0.0 either way.

All models are immutable and evaluation is pure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .core import _check_fields, _clamp01, _config_fields, _is_finite_real, _number, _numbers
from .errors import ConfigurationError, ParameterError, UnsupportedModelError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Quantile solver target: |cdf(x) - p| at the returned point.
QUANTILE_TOL = 1e-10


# math.erf at each entry of an array; scipy.special.erf differs by a few ulp.
_erf = np.frompyfunc(math.erf, 1, 1)


def _normal_cdf(z):
    # erf is correctly rounded in libm; this is accurate to well under 1e-12.
    if isinstance(z, float):
        return 0.5 * (1.0 + math.erf(z / _SQRT2))
    return 0.5 * (1.0 + np.asarray(_erf(z / _SQRT2), dtype=float))


def _normal_pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


class CostModel:
    """Base for cost CDFs.

    Subclasses set `kind`, `support` (the closed interval on which the CDF
    climbs from its minimum to 1), `strictly_increasing`, and
    `lipschitz_bound` (a valid Lipschitz constant for the CDF, used by the
    near-realizability hypothesis check; None when unknown).
    """

    kind: str = "abstract"

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def strictly_increasing(self) -> bool:
        raise NotImplementedError

    @property
    def lipschitz_bound(self) -> float | None:
        return None

    def _cdf_on_support(self, x):
        """G at points of the support: a float, or an array of them."""
        raise NotImplementedError

    def cdf(self, x):
        """G(x), clamped to 0 below the support and 1 above it; at each
        entry when x is an array, with the bits the float path gives."""
        lo, hi = self.support
        if isinstance(x, np.ndarray):
            inside = _clamp01(self._cdf_on_support(np.clip(x, lo, hi)))
            return np.where(x < lo, 0.0, np.where(x > hi, 1.0, inside))
        if x < lo:
            return 0.0
        if x > hi:
            return 1.0
        return min(1.0, max(0.0, self._cdf_on_support(x)))

    def to_config(self) -> dict:
        """The scenario-config mapping: `kind` plus every dataclass field,
        with a base model nested as its own mapping and knots as lists."""
        cfg = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, CostModel):
                value = value.to_config()
            elif isinstance(value, tuple):
                value = [list(knot) for knot in value]
            cfg[f.name] = value
        return cfg


@dataclass(frozen=True)
class Uniform01(CostModel):
    """Costs uniform on [0, 1]: G(x) = x."""

    kind = "uniform01"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    @property
    def strictly_increasing(self) -> bool:
        return True

    @property
    def lipschitz_bound(self) -> float:
        return 1.0

    def _cdf_on_support(self, x: float) -> float:
        return x


@dataclass(frozen=True)
class TruncatedNormal(CostModel):
    """Normal(mu, sigma) conditioned on [lo, hi], so the CDF spans 0..1 there."""

    mu: float
    sigma: float
    lo: float = 0.0
    hi: float = 1.0
    kind = "truncated_normal"

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "lo", "hi"):
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ParameterError(f"{name} must be a finite real, got {value!r}")
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if not self.lo < self.hi:
            raise ParameterError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        # Normal CDF at lo and the mass on [lo, hi]: constants of the CDF,
        # kept out of the fields so equality and to_config do not see them.
        cdf_lo = _normal_cdf(self._z(self.lo))
        object.__setattr__(self, "_cdf_lo", cdf_lo)
        object.__setattr__(self, "_mass", _normal_cdf(self._z(self.hi)) - cdf_lo)
        if self._mass <= 0.0:
            raise ParameterError(
                f"normal({self.mu}, {self.sigma}) has no mass on [{self.lo}, {self.hi}]"
            )

    def _z(self, x: float) -> float:
        return (x - self.mu) / self.sigma

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def strictly_increasing(self) -> bool:
        return True

    @property
    def lipschitz_bound(self) -> float:
        # Peak of the truncated density, attained at mu clamped into [lo, hi].
        peak = min(max(self.mu, self.lo), self.hi)
        return _normal_pdf(self._z(peak)) / (self.sigma * self._mass)

    def _cdf_on_support(self, x: float) -> float:
        return (_normal_cdf(self._z(x)) - self._cdf_lo) / self._mass


@dataclass(frozen=True)
class BimodalNormal(CostModel):
    """Mixture of two truncated normals on a common interval.

    mix is the weight on the first component. Each component is normalized
    on [lo, hi] separately, so the mixture CDF still spans 0..1.
    """

    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    mix: float
    lo: float = 0.0
    hi: float = 1.0
    kind = "bimodal_normal"

    def __post_init__(self) -> None:
        if not 0.0 <= self.mix <= 1.0:
            raise ParameterError(f"mix must lie in [0, 1], got {self.mix}")
        # Component constructors validate sigmas, interval, and mass.
        object.__setattr__(
            self, "_c1", TruncatedNormal(self.mu1, self.sigma1, self.lo, self.hi)
        )
        object.__setattr__(
            self, "_c2", TruncatedNormal(self.mu2, self.sigma2, self.lo, self.hi)
        )

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def strictly_increasing(self) -> bool:
        return True

    @property
    def lipschitz_bound(self) -> float:
        # Mix-weighted bound on the density peaks; a valid (not tight) constant.
        return self.mix * self._c1.lipschitz_bound + (1.0 - self.mix) * self._c2.lipschitz_bound

    def _cdf_on_support(self, x: float) -> float:
        return self.mix * self._c1.cdf(x) + (1.0 - self.mix) * self._c2.cdf(x)


@dataclass(frozen=True)
class EmpiricalCdf(CostModel):
    """Piecewise-linear CDF through explicit (x, G(x)) knots.

    Knots must have strictly increasing x >= 0, nondecreasing G values in
    [0, 1], and end at G = 1. Linear interpolation keeps the CDF continuous.
    """

    knots: tuple[tuple[float, float], ...]
    kind = "empirical"

    def __post_init__(self) -> None:
        knots = tuple((float(x), float(y)) for x, y in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ParameterError("empirical CDF needs at least 2 knots")
        if not all(math.isfinite(v) for knot in knots for v in knot):
            raise ParameterError(f"knots must be finite, got {knots}")
        xs = [x for x, _ in knots]
        ys = [y for _, y in knots]
        if xs[0] < 0.0:
            raise ParameterError(f"cost support must be nonnegative, first knot at {xs[0]}")
        for i in range(1, len(knots)):
            if xs[i] <= xs[i - 1]:
                raise ParameterError(f"knot x values must strictly increase at index {i}")
            if ys[i] < ys[i - 1]:
                raise ParameterError(f"knot CDF values decrease at index {i}")
        if not 0.0 <= ys[0]:
            raise ParameterError(f"CDF values must be nonnegative, got {ys[0]}")
        if abs(ys[-1] - 1.0) > 1e-12:
            raise ParameterError(f"last knot must have CDF value 1, got {ys[-1]}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.knots[0][0], self.knots[-1][0])

    @property
    def strictly_increasing(self) -> bool:
        return all(b[1] > a[1] for a, b in zip(self.knots, self.knots[1:]))

    @property
    def lipschitz_bound(self) -> float:
        return max((b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(self.knots, self.knots[1:]))

    def _cdf_on_support(self, x):
        if isinstance(x, np.ndarray):
            # The float path below at each entry; np.interp rounds differently.
            xs, ys = np.array(self.knots).T
            i = np.searchsorted(xs, x, side="right")
            j = np.clip(i, 1, len(xs) - 1)
            x0, y0, x1, y1 = xs[j - 1], ys[j - 1], xs[j], ys[j]
            inner = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            return np.where(i == 0, ys[0], np.where(i == len(xs), ys[-1], inner))
        xs = [k[0] for k in self.knots]
        i = bisect_right(xs, x)
        if i == 0:
            return self.knots[0][1]
        if i == len(xs):
            return self.knots[-1][1]
        (x0, y0), (x1, y1) = self.knots[i - 1], self.knots[i]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


@dataclass(frozen=True)
class Shifted(CostModel):
    """Subsidized costs via G_bar(x) = G(x + delta), delta >= 0."""

    base: CostModel
    delta: float
    kind = "shifted"

    def __post_init__(self) -> None:
        if not (_is_finite_real(self.delta) and self.delta >= 0):
            raise ParameterError(f"shift delta must be a finite real >= 0, got {self.delta!r}")

    @property
    def support(self) -> tuple[float, float]:
        lo, hi = self.base.support
        return (lo - self.delta, hi - self.delta)

    @property
    def strictly_increasing(self) -> bool:
        return self.base.strictly_increasing

    @property
    def lipschitz_bound(self) -> float | None:
        return self.base.lipschitz_bound

    def _cdf_on_support(self, x: float) -> float:
        return self.base.cdf(x + self.delta)


@dataclass(frozen=True)
class Scaled(CostModel):
    """Subsidized costs via G_bar(x) = G(x * factor), factor >= 1."""

    base: CostModel
    factor: float
    kind = "scaled"

    def __post_init__(self) -> None:
        if not (_is_finite_real(self.factor) and self.factor >= 1.0):
            raise ParameterError(f"scale factor must be a finite real >= 1, got {self.factor!r}")

    @property
    def support(self) -> tuple[float, float]:
        lo, hi = self.base.support
        return (lo / self.factor, hi / self.factor)

    @property
    def strictly_increasing(self) -> bool:
        return self.base.strictly_increasing

    @property
    def lipschitz_bound(self) -> float | None:
        base = self.base.lipschitz_bound
        return None if base is None else base * self.factor

    def _cdf_on_support(self, x: float) -> float:
        return self.base.cdf(x * self.factor)


def subsidize(
    model: CostModel, *, shift: float | None = None, scale: float | None = None
) -> CostModel:
    """Build the dominating CDF for a subsidy.

    Exactly one of shift (delta >= 0) or scale (factor >= 1) must be given;
    anything else would break G_bar >= G and is rejected.
    """
    if (shift is None) == (scale is None):
        raise ParameterError("specify exactly one of shift= or scale=")
    if shift is not None:
        if shift < 0:
            raise ParameterError(f"shift delta must be >= 0, got {shift}")
        return Shifted(model, float(shift))
    assert scale is not None
    if scale < 1.0:
        raise ParameterError(f"scale factor must be >= 1, got {scale}")
    return Scaled(model, float(scale))


def inverse_cdf(model: CostModel, p: float) -> float:
    """Quantile of a strictly increasing cost CDF, by bisection on the support.

    Returns x with |cdf(x) - p| <= 1e-10. Raises UnsupportedModelError for
    models with flat segments (the quantile there is ill-defined) and
    ParameterError when p is outside the CDF's attained range.
    """
    if not model.strictly_increasing:
        raise UnsupportedModelError(
            f"inverse_cdf requires a strictly increasing CDF; {model.kind} has flat segments"
        )
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"quantile level must lie in [0, 1], got {p}")
    lo, hi = model.support
    f_lo = model.cdf(lo) - p
    f_hi = model.cdf(hi) - p
    if f_lo > QUANTILE_TOL:
        raise ParameterError(
            f"p={p} lies below the CDF's value {model.cdf(lo)} at the support edge"
        )
    if abs(f_lo) <= QUANTILE_TOL:
        return lo
    if abs(f_hi) <= QUANTILE_TOL and f_hi <= 0.0:
        return hi
    # 200 halvings shrink any bracket far below float resolution; the loop
    # exits early once the CDF residual target is met.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = model.cdf(mid) - p
        if abs(f_mid) <= QUANTILE_TOL:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dominates(candidate: CostModel, base: CostModel, points: int = 1001) -> bool:
    """Probe whether candidate's CDF is pointwise >= base's on a shared grid."""
    lo = min(candidate.support[0], base.support[0])
    hi = max(candidate.support[1], base.support[1])
    step = (hi - lo) / (points - 1)
    xs = lo + np.arange(points) * step
    return not np.any(candidate.cdf(xs) < base.cdf(xs) - 1e-12)


_KINDS = {
    model.kind: model
    for model in (Uniform01, TruncatedNormal, BimodalNormal, EmpiricalCdf, Shifted, Scaled)
}


def _knots_from_config(value, path: str) -> tuple[tuple[float, float], ...]:
    """A list of [x, F(x)] pairs of finite numbers."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{path}: expected a list of [x, F(x)] pairs, got {value!r}")
    return tuple(_numbers(pair, f"{path}[{i}]", 2) for i, pair in enumerate(value))


def from_config(obj: Mapping, path: str = "cost") -> CostModel:
    """Build a cost model from a scenario-config mapping.

    The `kind` discriminator picks the class; its dataclass fields are the
    allowed ones, and those without a default are required. Unknown kinds,
    unknown or missing fields and bad values are configuration errors
    naming the offending path.
    """
    kind = _check_fields(obj, path, required=("kind",))["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigurationError(f"{path}.kind: unknown cost kind {kind!r}")
    model = _KINDS[kind]
    names, required = _config_fields(model)
    _check_fields(obj, path, names | {"kind"}, required)
    read = {"base": from_config, "knots": _knots_from_config}
    kwargs = {
        name: read.get(name, _number)(value, f"{path}.{name}")
        for name, value in obj.items()
        if name != "kind"
    }
    try:
        return model(**kwargs)
    except ParameterError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
