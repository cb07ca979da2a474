"""Ingestion of aggregate score histograms and Beta maximum-likelihood fits.

The input is a CSV of per-group, per-label score histograms with uniform
bins. Fitting maximizes the binned log-likelihood sum(count * log(bin mass))
directly by damped Newton, which keeps the pipeline deterministic; a
resampling variant reproduces the draw-points-then-fit procedure for
fidelity runs.

Bin masses and the log-weighted integrals behind the gradient are evaluated
with per-bin Gauss-Legendre quadrature on shared nodes. Differencing the
regularized incomplete beta function across narrow bins loses enough
precision to stall the gradient below its convergence threshold; quadrature
keeps the gradient smooth to roughly 1e-10.

The functions that need scipy.special import it when called, so importing
qualdyn and loading a scenario without Beta scores does not pay its import
time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, DegenerateDataError, FitError, ParseError
from .features import BetaScore, GroupScores, ScoreModel

_EDGE_TOL = 1e-9
_GRAD_TOL = 1e-8
_MAX_ITERS = 200
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class HistogramSeries:
    """One (group, label) histogram: uniform bins given by left edges."""

    group: str
    label: int
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    width: float

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def nonempty_bins(self) -> int:
        return sum(1 for c in self.counts if c > 0)


@dataclass(frozen=True)
class ScoreHistogram:
    series: tuple[HistogramSeries, ...]

    @property
    def groups(self) -> tuple[str, ...]:
        seen = []
        for s in self.series:
            if s.group not in seen:
                seen.append(s.group)
        return tuple(seen)

    def series_for(self, group: str, label: int) -> HistogramSeries:
        for s in self.series:
            if s.group == group and s.label == label:
                return s
        raise ConfigurationError(f"no histogram series for group {group!r}, label {label}")


@dataclass(frozen=True)
class BetaFit:
    alpha: float
    beta: float
    log_likelihood: float
    iterations: int
    converged: bool


def load_histogram(path) -> ScoreHistogram:
    """Read a `group,label,score,count` CSV into a validated histogram.

    score is the bin's left edge; each (group, label) series must use
    strictly increasing, uniformly spaced edges whose bins stay inside
    [0, 1]. Zero-count rows are kept (they pin down the support).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ParseError(f"{path}: line 1: empty file")
    header = [c.strip() for c in rows[0]]
    if header != ["group", "label", "score", "count"]:
        raise ParseError(
            f"{path}: line 1: expected header 'group,label,score,count', got {','.join(header)!r}"
        )

    by_series: dict[tuple[str, int], list[tuple[float, int, int]]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
        group = row[0].strip()
        if not group:
            raise ParseError(f"{path}: line {lineno}: empty group id")
        label_s = row[1].strip()
        if label_s not in ("0", "1"):
            raise ParseError(f"{path}: line {lineno}: label must be 0 or 1, got {label_s!r}")
        try:
            score = float(row[2])
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: score is not a number: {row[2]!r}"
            ) from None
        if not 0.0 <= score < 1.0:
            raise ParseError(
                f"{path}: line {lineno}: bin left edge must lie in [0, 1), got {score}"
            )
        count_s = row[3].strip()
        try:
            count = int(count_s)
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: count is not an integer: {count_s!r}"
            ) from None
        if count < 0:
            raise ParseError(f"{path}: line {lineno}: negative count {count}")
        by_series.setdefault((group, int(label_s)), []).append((score, count, lineno))

    series = []
    for (group, label), entries in sorted(by_series.items()):
        entries.sort()
        edges = [e for e, _, _ in entries]
        for i in range(1, len(entries)):
            if edges[i] - edges[i - 1] <= _EDGE_TOL:
                raise ParseError(
                    f"{path}: line {entries[i][2]}: duplicate or non-increasing bin edge "
                    f"{edges[i]} for group {group!r}, label {label}"
                )
        if len(edges) < 2:
            raise ParseError(
                f"{path}: line {entries[0][2]}: series for group {group!r}, label {label} "
                f"has a single bin; the bin width cannot be inferred"
            )
        width = edges[1] - edges[0]
        for i in range(1, len(entries)):
            if abs((edges[i] - edges[i - 1]) - width) > _EDGE_TOL:
                raise ParseError(
                    f"{path}: line {entries[i][2]}: non-uniform bins for group {group!r}, "
                    f"label {label}: spacing {edges[i] - edges[i - 1]} differs from {width}"
                )
        if edges[-1] + width > 1.0 + _EDGE_TOL:
            raise ParseError(
                f"{path}: line {entries[-1][2]}: last bin [{edges[-1]}, "
                f"{edges[-1] + width}] extends past 1"
            )
        series.append(
            HistogramSeries(
                group=group,
                label=label,
                edges=tuple(edges),
                counts=tuple(c for _, c, _ in entries),
                width=width,
            )
        )
    return ScoreHistogram(series=tuple(series))


# ---------------------------------------------------------------------------
# Binned Beta maximum likelihood
# ---------------------------------------------------------------------------


def _bin_quadrature(alpha: float, beta: float, lo: np.ndarray, hi: np.ndarray):
    """Per-bin Gauss-Legendre integrals of the Beta(alpha, beta) density:
    bin masses p, and the ln(x)- and ln(1-x)-weighted integrals a and b."""
    from scipy import special

    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    wts = half[:, None] * _GL_WEIGHTS[None, :]
    ln_x = np.log(x)
    ln_1mx = np.log1p(-x)
    ln_b = special.betaln(alpha, beta)
    f = np.exp((alpha - 1.0) * ln_x + (beta - 1.0) * ln_1mx - ln_b)
    fw = f * wts
    p = fw.sum(axis=1)
    a = (fw * ln_x).sum(axis=1)
    b = (fw * ln_1mx).sum(axis=1)
    return p, a, b


def _binned_objective(alpha, beta, lo, hi, counts):
    from scipy import special

    p, a, b = _bin_quadrature(alpha, beta, lo, hi)
    if np.any(p <= 0.0):
        return -math.inf, None
    ll = float(np.dot(counts, np.log(p)))
    psi_a = special.digamma(alpha) - special.digamma(alpha + beta)
    psi_b = special.digamma(beta) - special.digamma(alpha + beta)
    total = counts.sum()
    grad = np.array(
        [
            float(np.dot(counts, a / p)) - total * psi_a,
            float(np.dot(counts, b / p)) - total * psi_b,
        ]
    )
    return ll, grad


def _moments_start(mean: float, var: float, degenerate: str) -> tuple[float, float]:
    """The method-of-moments Beta(alpha, beta) with this mean and variance,
    each floored at 0.05; a variance <= 1e-12 raises DegenerateDataError
    with the caller's message."""
    if var <= 1e-12:
        raise DegenerateDataError(degenerate)
    kappa = mean * (1.0 - mean) / var - 1.0
    alpha = max(mean * kappa, 0.05)
    beta = max((1.0 - mean) * kappa, 0.05)
    return alpha, beta


def _damped_newton(objective, direction, alpha: float, beta: float):
    """Maximize a log-likelihood over (alpha, beta) > 0 by damped Newton.

    objective(a, b) returns (ll, grad), with grad None where the point is
    unusable; direction(a, b, grad) returns a Newton step, or None to fall
    back to a scaled gradient-ascent step. Each step is halved up to 60
    times until the log-likelihood does not drop. Returns (alpha, beta,
    ll, grad, iterations) once the gradient sup-norm is <= 1e-8; a stalled
    line search or _MAX_ITERS steps without convergence raise FitError.
    """
    ll, grad = objective(alpha, beta)
    if grad is None:
        raise FitError("method-of-moments start has zero-mass bins with data")
    for iteration in range(_MAX_ITERS):
        if float(np.max(np.abs(grad))) <= _GRAD_TOL:
            return alpha, beta, ll, grad, iteration
        step = direction(alpha, beta, grad)
        if step is None:
            step = grad / max(1.0, float(np.max(np.abs(grad))))  # gradient ascent fallback
        t = 1.0
        for _ in range(60):
            cand = (alpha + t * step[0], beta + t * step[1])
            if cand[0] > 0.0 and cand[1] > 0.0:
                cand_ll, cand_grad = objective(*cand)
                # Non-decreasing up to rounding noise in a sum of ~1e6 terms.
                if cand_grad is not None and cand_ll >= ll - 1e-12 * max(1.0, abs(ll)):
                    alpha, beta, ll, grad = cand[0], cand[1], cand_ll, cand_grad
                    break
            t *= 0.5
        else:
            raise FitError(
                f"line search stalled at alpha={alpha:.6g}, beta={beta:.6g}, "
                f"gradient sup-norm {float(np.max(np.abs(grad))):.3g}"
            )
    raise FitError(
        f"no convergence in {_MAX_ITERS} iterations; last gradient sup-norm "
        f"{float(np.max(np.abs(grad))):.3g} at alpha={alpha:.6g}, beta={beta:.6g}"
    )


def fit_beta(hist: ScoreHistogram, group: str, label: int) -> BetaFit:
    """Fit Beta(alpha, beta) to one (group, label) series by maximizing the
    binned log-likelihood with damped Newton from a method-of-moments start.

    Convergence is gradient sup-norm <= 1e-8 (plus one final full step so
    the result sits at quadrature precision); 200 iterations without
    convergence raise rather than returning a half-fit.
    """
    from scipy import special

    series = hist.series_for(group, label)
    if series.nonempty_bins < 3:
        raise DegenerateDataError(
            f"group {group!r}, label {label}: need at least 3 nonempty bins, "
            f"got {series.nonempty_bins}"
        )
    if series.total < 100:
        raise DegenerateDataError(
            f"group {group!r}, label {label}: need a total count of at least 100, "
            f"got {series.total}"
        )
    mask = np.array(series.counts) > 0
    lo = np.array(series.edges)[mask]
    hi = lo + series.width
    counts = np.array(series.counts, dtype=float)[mask]

    def objective(a: float, b: float):
        return _binned_objective(a, b, lo, hi, counts)

    def newton_direction(a: float, b: float, g: np.ndarray) -> np.ndarray | None:
        h = 1e-5
        col_a = (np.asarray(objective(a + h, b)[1]) - np.asarray(objective(a - h, b)[1])) / (2 * h)
        col_b = (np.asarray(objective(a, b + h)[1]) - np.asarray(objective(a, b - h)[1])) / (2 * h)
        hess = np.column_stack([col_a, col_b])
        hess = 0.5 * (hess + hess.T)
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        return step

    mids = 0.5 * (lo + hi)
    mean = float(np.dot(counts, mids)) / counts.sum()
    var = float(np.dot(counts, (mids - mean) ** 2)) / counts.sum()
    start = _moments_start(
        mean, var, f"histogram mass is concentrated at {mean:.4g}; no Beta fit is identifiable"
    )
    alpha, beta, ll, grad, iterations = _damped_newton(objective, newton_direction, *start)
    # One last undamped step: quadratic convergence parks the optimum at
    # quadrature precision, making the fit insensitive to count rescaling.
    step = newton_direction(alpha, beta, grad)
    if step is not None:
        cand = (alpha + step[0], beta + step[1])
        if cand[0] > 0.0 and cand[1] > 0.0:
            cand_ll, cand_grad = objective(*cand)
            if cand_grad is not None and cand_ll >= ll - 1e-9 * max(1.0, abs(ll)):
                alpha, beta = cand
    report_ll = float(
        np.dot(counts, np.log(special.betainc(alpha, beta, hi) - special.betainc(alpha, beta, lo)))
    )
    return BetaFit(
        alpha=alpha, beta=beta, log_likelihood=report_ll, iterations=iterations, converged=True
    )


def fit_beta_resampled(
    hist: ScoreHistogram, group: str, label: int, n: int, seed: int
) -> BetaFit:
    """The sampling variant: draw n points from the histogram (bin by count
    weight, uniform within the bin), then run the unbinned Beta MLE.

    Noisier than the binned fit and dependent on the seed; provided for
    fidelity with pipelines that fit from resampled scores.
    """
    from scipy import special

    series = hist.series_for(group, label)
    if n < 100:
        raise DegenerateDataError(f"resample size must be at least 100, got {n}")
    if series.total <= 0:
        raise DegenerateDataError(f"group {group!r}, label {label}: histogram is empty")
    rng = np.random.default_rng(seed)
    probs = np.array(series.counts, dtype=float) / series.total
    bins = rng.choice(len(probs), size=n, p=probs)
    xs = np.array(series.edges)[bins] + series.width * rng.random(n)
    xs = np.clip(xs, 1e-12, 1.0 - 1e-12)

    start = _moments_start(
        float(xs.mean()), float(xs.var()),
        "resampled scores are constant; no Beta fit is identifiable",
    )
    s_ln_x = float(np.log(xs).sum())
    s_ln_1mx = float(np.log1p(-xs).sum())

    def objective(a: float, b: float):
        ll = (a - 1.0) * s_ln_x + (b - 1.0) * s_ln_1mx - n * special.betaln(a, b)
        grad = np.array(
            [
                s_ln_x - n * (special.digamma(a) - special.digamma(a + b)),
                s_ln_1mx - n * (special.digamma(b) - special.digamma(a + b)),
            ]
        )
        return float(ll), grad

    def newton_direction(a: float, b: float, g: np.ndarray) -> np.ndarray | None:
        tri_ab = special.polygamma(1, a + b)
        hess = np.array(
            [
                [-n * (special.polygamma(1, a) - tri_ab), n * tri_ab],
                [n * tri_ab, -n * (special.polygamma(1, b) - tri_ab)],
            ]
        )
        try:
            return np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            return None

    alpha, beta, ll, _, iterations = _damped_newton(objective, newton_direction, *start)
    return BetaFit(
        alpha=alpha, beta=beta, log_likelihood=ll, iterations=iterations, converged=True
    )


def to_score_model(fits: Mapping[str, Mapping[int, BetaFit]]) -> ScoreModel:
    """Assemble a feature model from per-group, per-label fits.

    fits maps group id -> {1: qualified fit, 0: unqualified fit}; both
    labels are required for every group.
    """
    curves = {}
    for group, by_label in fits.items():
        for label in (0, 1):
            if label not in by_label:
                raise ConfigurationError(f"group {group!r}: missing fit for label {label}")
        curves[str(group)] = GroupScores(
            y1=BetaScore(by_label[1].alpha, by_label[1].beta),
            y0=BetaScore(by_label[0].alpha, by_label[0].beta),
        )
    return ScoreModel(curves)
