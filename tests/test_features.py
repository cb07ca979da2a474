"""Feature models and the institution's best response."""

import copy
import itertools
import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qualdyn import (
    BetaScore,
    BimodalNormal,
    ConfigurationError,
    DomainError,
    EconomyConfig,
    EmpiricalCdf,
    EmpiricalScore,
    GaussianHalfspace,
    GroupScores,
    GroupSpec,
    ParameterError,
    QualificationState,
    Scaled,
    ScoreModel,
    Shifted,
    TruncatedNormal,
    Uniform01,
    UniformThreshold,
    decoupled_best_response,
    institution_best_response,
    institutional_utility,
    normalized_angle,
)
from qualdyn import core, costs, dynamics, features, verification
from qualdyn.analysis import uniform_closed_forms


def uniform_reference():
    economy = EconomyConfig(wage=0.6)
    groups = (
        GroupSpec(id="a1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="a2", proportion=0.5, cost=Uniform01()),
    )
    model = UniformThreshold((("a1", 0.4), ("a2", 0.8)))
    return economy, groups, model


def test_uniform_threshold_rates_by_hand():
    model = UniformThreshold((("a", 0.4),))
    # theta below h: everyone qualified is accepted, some unqualified too.
    tpr, fpr = model.tpr_fpr("a", 0.2)
    assert tpr == pytest.approx(1.0)
    assert fpr == pytest.approx(0.5)
    # theta above h: no false positives, qualified mass thinned linearly.
    tpr, fpr = model.tpr_fpr("a", 0.7)
    assert tpr == pytest.approx(0.5)
    assert fpr == 0.0
    # exactly at h: the clean separation point.
    assert model.tpr_fpr("a", 0.4) == (pytest.approx(1.0), pytest.approx(0.0))


def test_uniform_threshold_validation():
    with pytest.raises(ParameterError):
        UniformThreshold((("a", 0.0),))
    with pytest.raises(ParameterError):
        UniformThreshold((("a", 1.0),))
    with pytest.raises(ParameterError):
        UniformThreshold(())
    model = UniformThreshold((("b", 0.5), ("a", 0.3)))
    assert model.group_ids == ("a", "b")  # sorted for determinism
    with pytest.raises(ConfigurationError):
        model.threshold("missing")


def test_every_feature_model_refuses_a_group_given_twice():
    scores = GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))
    for build, first, second in (
        (UniformThreshold, 0.4, 0.6),
        (GaussianHalfspace, (1.0, 0.0), (0.0, 1.0)),
        (ScoreModel, scores, scores),
    ):
        with pytest.raises(ParameterError, match="'a' is given twice"):
            build((("a", first), ("b", second), ("a", second)))
        # ids are read as strings, so a key 1 repeats "1"
        with pytest.raises(ParameterError, match="'1' is given twice"):
            build({1: first, "1": second})


def test_beta_score_matches_reference_distribution():
    dist = BetaScore(alpha=5.0, beta=2.0)
    xs = np.linspace(0.0, 1.0, 23)
    np.testing.assert_allclose(dist.cdf(xs), stats.beta.cdf(xs, 5, 2), atol=1e-12)
    interior = xs[1:-1]
    np.testing.assert_allclose(dist.pdf(interior), stats.beta.pdf(interior, 5, 2), rtol=1e-10)
    # out-of-range points carry no density and clamp the CDF
    assert dist.pdf(-0.5) == 0.0
    assert dist.pdf(1.5) == 0.0
    assert dist.cdf(-0.5) == 0.0
    assert dist.cdf(1.5) == 1.0
    with pytest.raises(ParameterError):
        BetaScore(alpha=0.0, beta=2.0)
    # An exponent of 0 adds nothing, also at the endpoint where its log is
    # -inf; inside (0, 1) the density keeps the full formula's bits.
    for a, b, edge in ((1.0, 2.0, 0.0), (2.0, 1.0, 1.0)):
        dist = BetaScore(a, b)
        assert dist.pdf(edge) == pytest.approx(2.0, rel=1e-15)
        assert dist.slope(edge) == pytest.approx(2.0, rel=1e-15)
        full = np.exp((a - 1.0) * np.log(interior) + (b - 1.0) * np.log1p(-interior) - dist._ln_b)
        assert np.array_equal(dist.pdf(interior), full)


def test_empirical_score_interpolates_and_validates():
    dist = EmpiricalScore(knots=((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
    assert dist.cdf(0.25) == pytest.approx(0.1)
    assert dist.cdf(0.75) == pytest.approx(0.6)
    assert dist.cdf(-1.0) == 0.0
    assert dist.cdf(2.0) == 1.0
    with pytest.raises(ParameterError):
        EmpiricalScore(knots=((0.1, 0.0), (1.0, 1.0)))  # first knot not (0, 0)
    with pytest.raises(ParameterError):
        EmpiricalScore(knots=((0.0, 0.0), (1.0, 0.9)))  # last knot not (1, 1)


@st.composite
def near_end_knots(draw):
    """Knots of an empirical score CDF whose end knots lie anywhere within
    the constructor's 1e-12 of (0, 0) and (1, 1), with up to three inner
    knots, some of whose values sit at an end's."""
    tol = 1e-12
    near_one = st.floats(1.0 - tol, 1.0 + tol).filter(lambda v: abs(v - 1.0) <= tol)
    first = (draw(st.floats(-tol, tol)), draw(st.floats(-tol, tol)))
    last = (draw(near_one), draw(near_one))
    xs = sorted(set(draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=3))))
    value = st.one_of(st.floats(first[1], last[1]), st.sampled_from([first[1], last[1]]))
    ys = sorted(draw(st.lists(value, min_size=len(xs), max_size=len(xs))))
    return (first, *zip(xs, ys), last)


@settings(max_examples=300, deadline=None)
@given(knots=near_end_knots(), x=st.floats(0.0, 1.0))
@example(knots=((0.0, 0.0), (0.999, 1.0 + 9e-13), (1.0, 1.0 + 9e-13)), x=0.9995)
@example(knots=((0.0, -1e-12), (1.0, 1.0)), x=0.0)
def test_empirical_score_cdf_stays_in_the_unit_interval(knots, x):
    # The end knots may miss 0 and 1 by up to 1e-12, and interpolation may
    # round past them; the CDF is clamped, so its scalar and array values
    # agree bit for bit and lie in [0, 1], and so do a score model's rates.
    dist = EmpiricalScore(knots)
    model = ScoreModel((("g", GroupScores(y1=dist, y0=dist)),))
    for at in (x, *(min(max(k, 0.0), 1.0) for k, _ in knots)):
        scalar, array = dist.cdf(at), dist.cdf(np.array([at]))[0]
        assert type(scalar) is float and scalar.hex() == float(array).hex()
        assert 0.0 <= scalar <= 1.0
        assert all(0.0 <= rate <= 1.0 for rate in model.tpr_fpr("g", at))


@pytest.mark.parametrize("cls", [EmpiricalScore, EmpiricalCdf])
@pytest.mark.parametrize(
    "knots, message",
    [
        (((0.0, 0.0),), "at least 2 knots"),
        (((0.0, 0.0), (math.nan, 0.5), (1.0, 1.0)), "finite"),
        (((0.0, 0.0), (0.5, math.nan), (1.0, 1.0)), "finite"),
        (((0.0, 0.0), (0.5, math.inf), (1.0, 1.0)), "finite"),
        (((0.0, 0.0), (0.5, 0.8), (0.5, 0.9), (1.0, 1.0)), "x values must strictly increase"),
        (((0.0, 0.0), (0.4, 0.7), (0.6, 0.5), (1.0, 1.0)), "CDF values decrease"),
    ],
)
def test_empirical_knot_rules_are_shared(cls, knots, message):
    # Every case starts at (0, 0) and ends at (1, 1), which both classes'
    # endpoint rules accept, so the refusal is the shared knot rule's.
    with pytest.raises(ParameterError, match=message):
        cls(knots)


def test_halfspace_geometry():
    model = GaussianHalfspace((("g1", (2.0, 0.0)), ("g2", (0.0, 3.0))))
    # input vectors are normalized on construction
    np.testing.assert_allclose(model.vector("g1"), [1.0, 0.0])
    np.testing.assert_allclose(model.vector("g2"), [0.0, 1.0])
    assert model.pair_angle == pytest.approx(0.5)
    np.testing.assert_allclose(model.midpoint, [math.sqrt(0.5), math.sqrt(0.5)])
    np.testing.assert_allclose(model.arc_point(0.0), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(model.arc_point(1.0), [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(model.arc_point(0.5), model.midpoint, atol=1e-12)
    for t in (0.0, 0.25, 0.5, 0.8, 1.0):
        assert model.arc_fraction(model.arc_point(t)) == pytest.approx(t, abs=1e-12)


def test_halfspace_rates_are_angles():
    model = GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (0.0, 1.0))))
    tpr, fpr = model.tpr_fpr("g1", (1.0, 0.0))
    assert (tpr, fpr) == (pytest.approx(1.0), pytest.approx(0.0))
    tpr, fpr = model.tpr_fpr("g2", (1.0, 0.0))
    assert (tpr, fpr) == (pytest.approx(0.5), pytest.approx(0.5))
    diag = (math.sqrt(0.5), math.sqrt(0.5))
    assert model.tpr_fpr("g1", diag)[1] == pytest.approx(0.25)


def test_halfspace_rejects_bad_theta_and_degenerate_pairs():
    model = GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (0.0, 1.0))))
    with pytest.raises(DomainError):
        model.tpr_fpr("g1", (0.5, 0.5))  # not a unit vector
    with pytest.raises(DomainError):
        model.tpr_fpr("g1", (1.0, 0.0, 0.0))  # wrong dimension
    with pytest.raises(DomainError):
        model.arc_point(1.5)
    with pytest.raises(ParameterError):
        GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (1.0, 0.0))))
    with pytest.raises(ParameterError):
        GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (-1.0, 0.0))))
    with pytest.raises(ParameterError):
        GaussianHalfspace((("g1", (1.0, 0.0)),))


@pytest.mark.parametrize(
    "theta", [(math.nan, 0.0), (0.0, math.nan), (math.nan, 1.0), (1.0, math.nan)]
)
def test_halfspace_refuses_a_nan_theta(theta):
    # a NaN norm is neither near 1 nor far from it; it must not pass
    model = GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (0.0, 1.0))))
    with pytest.raises(DomainError):
        model.tpr_fpr("g1", theta)
    with pytest.raises(DomainError):
        model.arc_fraction(theta)


def float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


_NEAR_EDGES = [
    y for x in (-1.0, -0.0, 0.0, 1.0)
    for y in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
]


@given(x=st.one_of(st.floats(), st.sampled_from(_NEAR_EDGES + [math.inf, -math.inf, math.nan])))
def test_the_unit_clamp_has_the_bits_of_np_clip(x):
    assert float_bits(features._clamp_unit(x)) == float_bits(float(np.clip(x, -1.0, 1.0)))


@given(xs=st.lists(st.floats(allow_nan=False), min_size=2, max_size=6))
def test_the_norm_has_the_bits_of_np_linalg_norm(xs):
    arr = np.array(xs)
    with np.errstate(over="ignore"):
        assert float_bits(features._norm(arr)) == float_bits(float(np.linalg.norm(arr)))


def test_a_halfspace_table_image_is_kept_per_economy_and_groups():
    model = halfspace_at(75.0)
    theta = model.midpoint  # a fresh copy, which has no slot
    table = model._arc[1]
    steep = GroupSpec(id="g2", proportion=0.5, cost=TruncatedNormal(0.3, 0.2))
    flat = tuple(GroupSpec(id=g, proportion=0.5, cost=Uniform01()) for g in ("g1", "g2"))
    cases = [
        (EconomyConfig(wage=0.8), flat),
        (EconomyConfig(wage=0.5), flat),
        (EconomyConfig(wage=0.8), (flat[0], steep)),
    ]
    images = []
    for economy, groups in cases + cases:
        image = dynamics._population_response(economy, groups, model, table)
        fresh = dynamics._population_response(economy, groups, model, theta)
        assert image.rates == fresh.rates
        images.append(image.rates)
        # the slot answers the same objects again with the stored image
        assert dynamics._population_response(economy, groups, model, table) is image
    assert len(set(images)) == 3 and images[:3] == images[3:]
    # a slot for each of the five table vectors, and only the midpoint's filled
    vectors = [vector for vector, _ in halfspace_table(model)]
    assert sorted(model._images) == sorted(map(id, vectors))
    assert [key for key, slot in model._images.items() if slot is not None] == [id(table)]


def test_a_deep_copied_halfspace_table_fills_no_slot():
    model = halfspace_at(75.0)
    twin = copy.deepcopy(model)  # it keeps the original's keys, not its vectors
    economy = EconomyConfig(wage=0.8)
    groups = tuple(GroupSpec(id=g, proportion=0.5, cost=Uniform01()) for g in ("g1", "g2"))
    for (theta, _), (copied, _) in zip(halfspace_table(model), halfspace_table(twin)):
        assert copied is not theta and copied.tobytes() == theta.tobytes()
        image = dynamics._population_response(economy, groups, model, theta)
        again = dynamics._population_response(economy, groups, twin, copied)
        assert [x.hex() for x in again.rates] == [x.hex() for x in image.rates]
        for g in ("g1", "g2"):
            got = [x.hex() for x in twin.tpr_fpr(g, copied)]
            assert got == [x.hex() for x in model.tpr_fpr(g, theta)]
    assert twin._images.keys() == model._images.keys()
    assert all(model._images.values()) and not any(twin._images.values())


def test_score_model_rates_are_survival_functions():
    model = ScoreModel(
        (("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),)
    )
    tpr, fpr = model.tpr_fpr("g", 0.5)
    assert tpr == pytest.approx(1.0 - stats.beta.cdf(0.5, 5, 2), abs=1e-12)
    assert fpr == pytest.approx(1.0 - stats.beta.cdf(0.5, 2, 5), abs=1e-12)
    with pytest.raises(ConfigurationError):
        model.scores("other")


def likelihood_ratio(model, group, x):
    """phi(x) = f0(x) / f1(x) from a score model's Beta densities; inf where
    the qualified density vanishes."""
    gs = model.scores(group)
    f0 = np.asarray(gs.y0.pdf(x), dtype=float)
    f1 = np.asarray(gs.y1.pdf(x), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(f1 > 0.0, f0 / np.where(f1 > 0.0, f1, 1.0), np.inf)


def coate_loury_threshold(model, economy, state):
    """Oracle for the one-group score best response: the likelihood-ratio
    condition, solved independently of the solver.

    With phi = f0/f1 strictly decreasing, continuous and positive, the
    institution accepts exactly the scores x where payoff_tp * pi * f1(x)
    beats cost_fp * (1 - pi) * f0(x), i.e. the smallest x with
    ratio >= ((1 - pi) / pi) * phi(x); found here by bisection. When the
    numerical monotonicity probe fails, it warns and falls back to the
    solver itself.
    """
    if len(state) != 1:
        raise ConfigurationError("analytic threshold applies to a single group")
    group = state.ids[0]
    pi = state.rates[0]
    if pi <= 0.0:
        return 1.0  # no qualified mass: accept no one

    probe = np.linspace(1e-6, 1.0 - 1e-6, 512)
    phi = likelihood_ratio(model, group, probe)
    finite = np.isfinite(phi)
    decreasing = bool(
        np.all(np.diff(phi[finite]) <= 1e-9 * np.maximum(1.0, np.abs(phi[finite][:-1])))
    )
    positive = bool(np.all(phi[finite] >= 0.0))
    if not (decreasing and positive and finite.any()):
        warnings.warn(
            "likelihood ratio is not monotone decreasing; falling back to grid argmax",
            stacklevel=2,
        )
        solo = (GroupSpec(id=group, proportion=1.0, cost=Uniform01()),)
        return institution_best_response(model, economy, solo, state)

    odds = (1.0 - pi) / pi

    def short(x: float) -> float:
        # Positive when x is still too low to accept (condition unmet).
        val = float(likelihood_ratio(model, group, np.array([x]))[0])
        if not math.isfinite(val):
            return math.inf
        return odds * val - economy.ratio

    lo, hi = 1e-12, 1.0 - 1e-12
    if short(lo) <= 0.0:
        return 0.0  # condition already holds at the bottom: accept everyone
    if short(hi) > 0.0:
        return 1.0  # condition never holds: accept no one
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if short(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_score_model_likelihood_ratio_decreasing():
    model = ScoreModel(
        (("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),)
    )
    xs = np.linspace(0.05, 0.95, 61)
    phi = likelihood_ratio(model, "g", xs)
    # f0/f1 = ((1-x)/x)^3 for this pair, strictly decreasing
    np.testing.assert_allclose(phi, ((1.0 - xs) / xs) ** 3, rtol=1e-9)
    assert np.all(np.diff(phi) < 0)


def test_best_response_recovers_both_separating_cuts():
    economy, groups, model = uniform_reference()
    low = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    high = QualificationState(ids=("a1", "a2"), rates=(0.2, 0.6))
    assert institution_best_response(model, economy, groups, low) == pytest.approx(
        0.4, abs=1e-9
    )
    assert institution_best_response(model, economy, groups, high) == pytest.approx(
        0.8, abs=1e-9
    )


def test_best_response_rejects_everyone_without_qualified_mass():
    economy, groups, model = uniform_reference()
    empty = QualificationState(ids=("a1", "a2"), rates=(0.0, 0.0))
    assert institution_best_response(model, economy, groups, empty) == pytest.approx(1.0)


def test_score_best_response_near_pi_zero_takes_the_first_order_cut():
    # Beta(5,2)/Beta(2,5) scores, wage 1, Uniform01 costs. The first-order
    # root solves (theta / (1 - theta))^3 = c (1 - pi) / (p pi). Near pi = 0
    # U is about 1e-14, within the rates' rounding of its changes between
    # grid points, so the grid snapped to a grid point or saw no profitable
    # cut at all; the exact cut answers the root wherever U there is > 0.
    model = ScoreModel((("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),))
    groups = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)

    def respond(payoff_tp, cost_fp, pi):
        economy = EconomyConfig(wage=1.0, payoff_tp=payoff_tp, cost_fp=cost_fp)
        state = QualificationState(ids=("g",), rates=(pi,))
        answer = institution_best_response(model, economy, groups, state)
        root = coate_loury_threshold(model, economy, state)
        return answer, root, lambda th: institutional_utility(economy, groups, model, th, state)

    # Payoffs (1, 1), pi = 1e-9: the grid point 0.999 came back; the root
    # lies 1e-6 above it.
    answer, root, utility = respond(1.0, 1.0, 1e-9)
    assert answer == pytest.approx(root, abs=1e-12) and answer != 0.999
    assert utility(answer) > 0.0
    # Payoffs (1, 3), pi = 1e-10: U is positive only between the last two
    # grid points, around 0.99968, so the grid answered reject-all.
    answer, root, utility = respond(1.0, 3.0, 1e-10)
    assert answer == pytest.approx(root, abs=1e-12) and 0.9995 < answer < 1.0
    assert utility(answer) > 0.0 >= max(utility(0.9995), utility(1.0))

    # Beta(3,2)/Beta(1,3) scores near pi = 1e-6: at the root FPR is below one
    # rounding unit of 1 - F, so U there rounds to either sign, and where it
    # rounds to <= 0 the answer is reject-all.
    model = ScoreModel((("g", GroupScores(y1=BetaScore(3.0, 2.0), y0=BetaScore(1.0, 3.0))),))
    economy = EconomyConfig(wage=1.0)
    rejected = set()
    for pi in np.geomspace(1e-7, 1e-5, 201).tolist():
        state = QualificationState(ids=("g",), rates=(pi,))
        root = features._slope_turn(
            features._utility_slope(model, economy, groups, state), 0.99, 1.0
        )
        answer = institution_best_response(model, economy, groups, state)
        positive = institutional_utility(economy, groups, model, root, state) > 0.0
        assert answer == (root if positive else 1.0)
        rejected.add(not positive)
    assert rejected == {False, True}


def test_best_response_checks_group_alignment():
    economy, groups, model = uniform_reference()
    wrong = QualificationState(ids=("a1", "zz"), rates=(0.5, 0.5))
    with pytest.raises(ConfigurationError):
        institution_best_response(model, economy, groups, wrong)


def test_halfspace_best_response_picks_heavier_boundary():
    economy = EconomyConfig(wage=0.8, payoff_tp=2.0, cost_fp=1.0)
    groups = (
        GroupSpec(id="g1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="g2", proportion=0.5, cost=Uniform01()),
    )
    model = GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (0.0, 1.0))))
    state = QualificationState(ids=("g1", "g2"), rates=(0.8, 0.0))
    theta = institution_best_response(model, economy, groups, state)
    np.testing.assert_allclose(theta, model.vector("g1"), atol=1e-12)
    state = QualificationState(ids=("g1", "g2"), rates=(0.1, 0.7))
    theta = institution_best_response(model, economy, groups, state)
    np.testing.assert_allclose(theta, model.vector("g2"), atol=1e-12)


def test_halfspace_tie_goes_to_midpoint():
    economy = EconomyConfig(wage=0.8, payoff_tp=2.0, cost_fp=1.0)
    groups = (
        GroupSpec(id="g1", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="g2", proportion=0.5, cost=Uniform01()),
    )
    model = GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (0.0, 1.0))))
    state = QualificationState(ids=("g1", "g2"), rates=(0.4, 0.4))
    theta = institution_best_response(model, economy, groups, state)
    np.testing.assert_allclose(theta, model.midpoint, atol=1e-12)


def test_decoupled_best_response_scalar_and_halfspace():
    economy = EconomyConfig(wage=0.6)
    group = GroupSpec(id="a", proportion=1.0, cost=Uniform01())
    model = UniformThreshold((("a", 0.5),))
    # separating cut is optimal for any positive qualification mass
    assert decoupled_best_response(model, economy, group, 0.6) == pytest.approx(
        0.5, abs=1e-9
    )
    halfspace = GaussianHalfspace((("a", (1.0, 0.0)), ("b", (0.0, 1.0))))
    np.testing.assert_allclose(
        decoupled_best_response(halfspace, economy, group, 0.6), [1.0, 0.0]
    )


def halfspace_at(angle_deg):
    phi = math.radians(angle_deg)
    return GaussianHalfspace((("g1", (1.0, 0.0)), ("g2", (math.cos(phi), math.sin(phi)))))


def halfspace_table(model):
    """Every vector the halfspace solvers return, each as they return it,
    beside the public method that computes it afresh."""
    economy = EconomyConfig(wage=0.8, payoff_tp=2.0, cost_fp=1.0)
    groups = tuple(GroupSpec(id=g, proportion=0.5, cost=Uniform01()) for g in ("g1", "g2"))

    def joint(r1, r2):
        state = QualificationState(ids=("g1", "g2"), rates=(r1, r2))
        return institution_best_response(model, economy, groups, state)

    return [
        (joint(0.8, 0.0), model.arc_point(0.0)),
        (joint(0.1, 0.7), model.arc_point(1.0)),
        (joint(0.4, 0.4), model.midpoint),
    ] + [
        (decoupled_best_response(model, economy, g, 0.5), model.vector(g.id)) for g in groups
    ]


@pytest.mark.parametrize("angle_deg", [60.0, 73.0, 90.0, 117.5])
def test_halfspace_responses_are_read_only_table_entries(angle_deg):
    model = halfspace_at(angle_deg)
    first, again = halfspace_table(model), halfspace_table(model)
    for (theta, fresh), (theta_again, _) in zip(first, again):
        assert theta is theta_again
        assert theta.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            theta[0] = 0.0
        with pytest.raises(ValueError):
            theta *= 1.0


@pytest.mark.parametrize("angle_deg", [60.0, 73.0, 90.0, 117.5])
def test_halfspace_rates_agree_on_table_vectors_copies_and_twins(angle_deg):
    model = halfspace_at(angle_deg)
    twin = copy.deepcopy(model)  # its table holds copies of the model's vectors
    for theta, _ in halfspace_table(model) + halfspace_table(twin):
        for g in ("g1", "g2"):
            got = [x.hex() for x in model.tpr_fpr(g, theta)]
            assert got == [x.hex() for x in model.tpr_fpr(g, theta.copy())]
            assert got == [x.hex() for x in twin.tpr_fpr(g, theta)]
    h1, h2 = model.vector("g1"), model.vector("g2")
    assert model.pair_angle.hex() == normalized_angle(h1, h2).hex()


def test_halfspace_unknown_group_fails_on_both_paths():
    model = halfspace_at(80.0)
    for theta, _ in halfspace_table(model):
        for probe in (theta, theta.copy()):
            with pytest.raises(ConfigurationError, match="'zz'"):
                model.tpr_fpr("zz", probe)
    economy = EconomyConfig(wage=0.8)
    stranger = GroupSpec(id="zz", proportion=1.0, cost=Uniform01())
    with pytest.raises(ConfigurationError, match="'zz'"):
        decoupled_best_response(model, economy, stranger, 0.5)


def test_three_group_halfspace_still_answers():
    s = math.sqrt(0.5)
    model = GaussianHalfspace(
        (("g1", (1.0, 0.0)), ("g2", (0.0, 1.0)), ("g3", (s, s)))
    )
    assert model.tpr_fpr("g3", (1.0, 0.0)) == (pytest.approx(0.75), pytest.approx(0.25))
    assert model.tpr_fpr("g2", (s, s)) == (pytest.approx(0.75), pytest.approx(0.25))
    economy = EconomyConfig(wage=0.8)
    group = GroupSpec(id="g3", proportion=1.0, cost=Uniform01())
    theta = decoupled_best_response(model, economy, group, 0.5)
    assert theta.tobytes() == model.vector("g3").tobytes() and not theta.flags.writeable
    for g in model.group_ids:
        assert model.tpr_fpr(g, theta) == model.tpr_fpr(g, theta.copy())
    with pytest.raises(ConfigurationError):
        model.pair_angle
    with pytest.raises(ConfigurationError):
        model.midpoint


def test_analytic_threshold_matches_odds_condition():
    model = ScoreModel(
        (("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),)
    )
    economy = EconomyConfig(wage=1.0, payoff_tp=1.0, cost_fp=1.0)
    # phi(x) = ((1-x)/x)^3 and even odds, so the cut sits exactly at 0.5
    state = QualificationState(ids=("g",), rates=(0.5,))
    assert coate_loury_threshold(model, economy, state) == pytest.approx(0.5, abs=1e-9)
    # more qualified mass lowers the bar
    richer = QualificationState(ids=("g",), rates=(0.8,))
    assert coate_loury_threshold(model, economy, richer) < 0.5
    # no qualified mass: accept no one
    empty = QualificationState(ids=("g",), rates=(0.0,))
    assert coate_loury_threshold(model, economy, empty) == 1.0
    with pytest.raises(ConfigurationError):
        two = QualificationState(ids=("a", "b"), rates=(0.5, 0.5))
        coate_loury_threshold(model, economy, two)


def test_analytic_threshold_warns_on_nonmonotone_ratio():
    # y0 humped relative to y1 makes f0/f1 rise then fall
    model = ScoreModel(
        (("g", GroupScores(y1=BetaScore(2.0, 2.0), y0=BetaScore(5.0, 5.0))),)
    )
    economy = EconomyConfig(wage=1.0)
    state = QualificationState(ids=("g",), rates=(0.5,))
    with pytest.warns(UserWarning):
        theta = coate_loury_threshold(model, economy, state)
    assert 0.0 <= theta <= 1.0


def test_feature_config_round_trips():
    models = [
        UniformThreshold((("a", 0.4), ("b", 0.8))),
        GaussianHalfspace((("a", (1.0, 0.0)), ("b", (0.0, 1.0)))),
        ScoreModel(
            (
                ("a", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),
                (
                    "b",
                    GroupScores(
                        y1=EmpiricalScore(((0.0, 0.0), (0.5, 0.1), (1.0, 1.0))),
                        y0=EmpiricalScore(((0.0, 0.0), (0.5, 0.9), (1.0, 1.0))),
                    ),
                ),
            )
        ),
    ]
    for model in models:
        rebuilt = features.from_config(model.to_config(), ("a", "b"))
        assert rebuilt == model
        assert rebuilt.to_config() == model.to_config()


def test_feature_config_errors_name_the_path():
    with pytest.raises(ConfigurationError, match="features.variant"):
        features.from_config({}, ("a",))
    with pytest.raises(ConfigurationError, match="features.variant"):
        features.from_config({"variant": "nope"}, ("a",))
    with pytest.raises(ConfigurationError, match="features.thresholds"):
        features.from_config({"variant": "uniform_threshold"}, ("a",))
    with pytest.raises(ConfigurationError, match="do not match"):
        features.from_config(
            {"variant": "uniform_threshold", "thresholds": {"zz": 0.5}}, ("a",)
        )
    with pytest.raises(ConfigurationError, match="unknown field"):
        features.from_config(
            {"variant": "uniform_threshold", "thresholds": {"a": 0.5}, "bogus": 1},
            ("a",),
        )
    with pytest.raises(ConfigurationError, match="y1 and y0"):
        features.from_config(
            {"variant": "score", "groups": {"a": {"y1": {"alpha": 2, "beta": 2}}}},
            ("a",),
        )
    with pytest.raises(ConfigurationError, match="groups.a.y1"):
        features.from_config(
            {
                "variant": "score",
                "groups": {"a": {"y1": {"alpha": -2, "beta": 2}, "y0": {"alpha": 2, "beta": 2}}},
            },
            ("a",),
        )
    # Numbers must be finite JSON numbers: a string or a literal that
    # overflows to inf (1e999) is refused, naming its field.
    score = (
        '{"variant": "score", "groups": {"a": {"y1": {"alpha": %s, "beta": 2},'
        ' "y0": {"alpha": 2, "beta": 5}}}}'
    )
    for text, where in (
        ('{"variant": "uniform_threshold", "thresholds": {"a": "0.4"}}', "features.thresholds.a"),
        (
            '{"variant": "gaussian_halfspace", "vectors": {"a": [1, "1"]}}',
            r"features.vectors.a\[1\]",
        ),
        (score % '"5"', "features.groups.a.y1.alpha"),
        (score % "1e999", "features.groups.a.y1.alpha"),
    ):
        with pytest.raises(ConfigurationError, match=f"{where}: expected a finite number"):
            features.from_config(json.loads(text), ("a",))


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(min_value=0.05, max_value=0.95),
    theta=st.floats(min_value=0.0, max_value=1.0),
)
def test_threshold_rates_stay_in_unit_square(h, theta):
    model = UniformThreshold((("a", h),))
    tpr, fpr = model.tpr_fpr("a", theta)
    assert 0.0 <= tpr <= 1.0
    assert 0.0 <= fpr <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.5, max_value=8.0),
    beta=st.floats(min_value=0.5, max_value=8.0),
)
def test_score_rates_decrease_with_the_cut(alpha, beta):
    model = ScoreModel(
        (("g", GroupScores(y1=BetaScore(alpha, beta), y0=BetaScore(beta, alpha))),)
    )
    thetas = np.linspace(0.0, 1.0, 33)
    tpr, fpr = model.rates_grid("g", thetas)
    assert np.all(np.diff(tpr) <= 1e-12)
    assert np.all(np.diff(fpr) <= 1e-12)
    assert np.all((tpr >= -1e-12) & (tpr <= 1.0 + 1e-12))


def test_normalized_angle_endpoints():
    assert normalized_angle(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert normalized_angle(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 1.0
    assert normalized_angle(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Solver precision contract
# ---------------------------------------------------------------------------


def steep_scores():
    return ScoreModel(
        (("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),)
    )


def empirical_scores():
    return ScoreModel(
        (
            (
                "g",
                GroupScores(
                    y1=EmpiricalScore(((0, 0), (0.3, 0.05), (0.61, 0.3), (0.85, 0.6), (1, 1))),
                    y0=EmpiricalScore(((0, 0), (0.2, 0.4), (0.5, 0.8), (0.8, 0.97), (1, 1))),
                ),
            ),
        )
    )


@pytest.mark.parametrize("payoff_tp,cost_fp", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_one_group_beta_best_response_matches_likelihood_ratio_condition(payoff_tp, cost_fp):
    model = steep_scores()
    economy = EconomyConfig(wage=1.0, payoff_tp=payoff_tp, cost_fp=cost_fp)
    group = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)
    # Near pi = 0 the refined cut must still beat the grid. (At payoffs (1, 3)
    # no cut is profitable there, so the solver rejects everyone instead.)
    tiny = [1e-10] if cost_fp == 1.0 else []
    for pi in [*tiny, *np.linspace(0.02, 0.98, 25)]:
        state = QualificationState(ids=("g",), rates=(float(pi),))
        theta = institution_best_response(model, economy, group, state)
        assert theta == pytest.approx(
            coate_loury_threshold(model, economy, state), abs=1e-12
        )


def test_cached_grid_utility_equals_the_uncached_one_bit_for_bit():
    # One kernel serves the grid, the grid from the model's cached table, a
    # scalar theta, a group->theta mapping and the halfspace arc endpoints,
    # so every path gives the same bits. The second economy's payoffs are not
    # powers of two, so a product formed in another order would round
    # differently.
    economy, groups, uniform = uniform_reference()
    cases = [
        (uniform, groups, (0.6, 0.3)),
        (steep_scores(), (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),), (0.37,)),
        (empirical_scores(), (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),), (0.81,)),
    ]
    economies = (economy, EconomyConfig(wage=0.6, payoff_tp=1.3, cost_fp=0.7))
    for (model, grps, rates), econ in itertools.product(cases, economies):
        state = QualificationState(ids=tuple(g.id for g in grps), rates=rates)
        for grid_size in (101, 2001):
            thetas = np.linspace(0.0, 1.0, grid_size)
            expected = np.zeros_like(thetas)
            for g, pi in zip(grps, rates):
                tpr, fpr = model.rates_grid(g.id, thetas)
                expected += g.proportion * (
                    econ.payoff_tp * tpr * pi - econ.cost_fp * fpr * (1.0 - pi)
                )
            for _ in range(2):  # the first call fills the cache, the second reads it
                if model is uniform:
                    # The uniform solver reads U at its kinks and keeps no grid
                    # table, so its grid runs through the kernel directly.
                    got_thetas, util = thetas, core._utility_from_rates(
                        econ, grps, [model.rates_grid(g.id, thetas) for g in grps], rates
                    )
                else:
                    got_thetas, table = features._grid_rates(model, grid_size)
                    util = core._utility_from_rates(
                        econ, grps, [table[g.id] for g in grps], rates
                    )
                assert np.array_equal(got_thetas, thetas)
                assert np.array_equal(util, expected)
            for i in (0, grid_size // 3, grid_size // 2, grid_size - 1):
                theta = float(thetas[i])
                assert institutional_utility(econ, grps, model, theta, state) == util[i]
                shared = {g.id: theta for g in grps}
                assert institutional_utility(econ, grps, model, shared, state) == util[i]

    state = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    per_group = {"a1": 0.3, "a2": 0.7}
    expected = 0.0
    for g, pi in zip(groups, state.rates):
        tpr, fpr = uniform.tpr_fpr(g.id, per_group[g.id])
        expected += g.proportion * (
            economy.payoff_tp * tpr * pi - economy.cost_fp * fpr * (1.0 - pi)
        )
    assert institutional_utility(economy, groups, uniform, per_group, state) == expected

    halfspace = GaussianHalfspace((("a1", (1.0, 0.0)), ("a2", (0.0, 1.0))))
    ang = halfspace.pair_angle
    for t, rates in ((0.0, ((1.0, 0.0), (1.0 - ang, ang))), (1.0, ((1.0 - ang, ang), (1.0, 0.0)))):
        expected = 0.0
        for g, (tpr, fpr), pi in zip(groups, rates, state.rates):
            expected += g.proportion * (
                economy.payoff_tp * tpr * pi - economy.cost_fp * fpr * (1.0 - pi)
            )
        assert core._utility_from_rates(economy, groups, rates, state.rates) == expected
        theta = halfspace.arc_point(t)
        assert institutional_utility(economy, groups, halfspace, theta, state) == expected


def test_best_responses_refuse_a_grid_below_the_minimum():
    # The floor is DynamicsConfig's theta_grid floor too: a grid argmax and
    # its refinement need a point on each side of the winner.
    economy = EconomyConfig(wage=1.0)
    group = GroupSpec(id="g", proportion=1.0, cost=Uniform01())
    state = QualificationState(ids=("g",), rates=(0.5,))
    model = steep_scores()
    for grid_size in (0, 2, 3.0, True):
        with pytest.raises(ParameterError, match="grid_size must be an integer >= 3"):
            institution_best_response(model, economy, (group,), state, grid_size=grid_size)
        with pytest.raises(ParameterError, match="grid_size must be an integer >= 3"):
            decoupled_best_response(model, economy, group, 0.5, grid_size=grid_size)
    with pytest.raises(ParameterError, match="theta_grid must be an integer >= 3"):
        dynamics.DynamicsConfig(theta_grid=features.MIN_GRID - 1)
    assert 0.0 <= institution_best_response(model, economy, (group,), state, grid_size=3) <= 1.0


def test_grid_tables_are_per_model_and_per_grid_size():
    model = steep_scores()
    coarse_thetas, coarse = features._grid_rates(model, 101)
    fine_thetas, fine = features._grid_rates(model, 2001)
    assert coarse_thetas.shape == (101,) and fine_thetas.shape == (2001,)
    assert coarse["g"][0].shape == (101,) and fine["g"][0].shape == (2001,)
    assert features._grid_rates(model, 101)[1] is coarse
    # an equal model built separately keeps its own table
    twin = steep_scores()
    assert twin == model
    assert features._grid_rates(twin, 101)[1] is not coarse
    # callers cannot corrupt a cached table
    with pytest.raises(ValueError):
        coarse["g"][0][0] = 2.0
    # answers on either grid match a fresh model's
    economy = EconomyConfig(wage=1.0)
    group = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)
    state = QualificationState(ids=("g",), rates=(0.3,))
    for grid_size in (101, 2001, 101):
        assert institution_best_response(
            model, economy, group, state, grid_size=grid_size
        ) == institution_best_response(steep_scores(), economy, group, state, grid_size=grid_size)


def _one_group_score(scores, payoffs, pi, n=1.0):
    (a1, b1), (a0, b0) = scores
    model = ScoreModel((("g", GroupScores(y1=BetaScore(a1, b1), y0=BetaScore(a0, b0))),))
    economy = EconomyConfig(wage=1.0, payoff_tp=payoffs[0], cost_fp=payoffs[1])
    groups = (GroupSpec(id="g", proportion=n, cost=Uniform01()),)
    return model, economy, groups, QualificationState(ids=("g",), rates=(pi,))


def _full_table_answer(model, economy, groups, state, grid_size):
    full = features._full_window(model, economy, groups, state, grid_size)
    return features._window_answer(model, economy, groups, state, full)


# The whole grid's known limits (module docstring of features): both cases
# of test_score_best_response_near_pi_zero_takes_the_first_order_cut, where it
# snaps to the grid point 0.999 and answers reject-all, and a snap to the grid
# point 0.188 where the first-order root is 0.1879999969. The exact cut
# answers every one of them.
KNOWN_LIMITS = [
    (((5.0, 2.0), (2.0, 5.0)), (1.0, 1.0), 1e-9, 0.999),
    (((5.0, 2.0), (2.0, 5.0)), (1.0, 3.0), 1e-10, 1.0),
    (((3.66735, 2.97051), (2.32938, 6.42715)), (1.0, 1.0), 0.88531308, 0.188),
]


@pytest.mark.parametrize("scores,payoffs,pi,answer", KNOWN_LIMITS)
def test_the_window_keeps_the_known_grid_limits(scores, payoffs, pi, answer):
    model, economy, groups, state = _one_group_score(scores, payoffs, pi)
    assert _full_table_answer(model, economy, groups, state, features.DEFAULT_GRID) == answer


@pytest.mark.parametrize("scores,payoffs,pi,answer", KNOWN_LIMITS)
def test_the_exact_cut_mends_the_known_grid_limits(scores, payoffs, pi, answer):
    # The best response is the first-order root, not the whole grid's point
    # or reject-all, and it reads no grid rates at all.
    model, economy, groups, state = _one_group_score(scores, payoffs, pi)
    got = institution_best_response(model, economy, groups, state)
    assert got != answer
    assert got == pytest.approx(coate_loury_threshold(model, economy, state), abs=1e-12)
    assert institutional_utility(economy, groups, model, got, state) > 0.0
    assert model._grid_cache == {}


NEAR_GRID_END = (
    (5.003421812831032, 1.913896489756088), (2.0113250080439307, 4.937536420972038)
)


@st.composite
def strict_mlr_pairs(draw):
    gap = st.one_of(st.floats(1e-6, 0.05), st.floats(0.05, 8.0))
    a0, b1 = draw(st.floats(0.3, 12.0)), draw(st.floats(0.3, 12.0))
    return (a0 + draw(gap), b1), (a0, b1 + draw(gap))


@settings(max_examples=200, deadline=None)
@given(
    scores=strict_mlr_pairs(),
    payoffs=st.sampled_from([(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (0.35, 1.0)]),
    grid_size=st.sampled_from([101, 401, 2001]),
    pi=st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(1e-12, 1e-3),
        st.floats(1e-12, 1e-3).map(lambda x: 1.0 - x),
        st.floats(0.0, 1.0),
    ),
    n=st.sampled_from([1.0, 0.35]),
)
@example(scores=KNOWN_LIMITS[0][0], payoffs=(1.0, 1.0), pi=1e-9, grid_size=2001, n=1.0)
@example(scores=KNOWN_LIMITS[1][0], payoffs=(1.0, 3.0), pi=1e-10, grid_size=2001, n=1.0)
@example(scores=KNOWN_LIMITS[2][0], payoffs=(1.0, 1.0), pi=0.88531308, grid_size=2001, n=1.0)
# states on `run` trajectories that fall towards 0, whose grid argmax sits a
# few points below theta = 1
@example(scores=NEAR_GRID_END, payoffs=(1.0, 1.0), pi=7.946146392458183e-09, grid_size=2001, n=1.0)
@example(scores=NEAR_GRID_END, payoffs=(1.0, 1.0), pi=2.143792214748327e-08, grid_size=2001, n=1.0)
def test_the_exact_cut_keeps_the_window_contract(scores, payoffs, pi, grid_size, n):
    # The exact answer theta_e against the whole grid's answer theta_w. At
    # pi = 0 or 1, and wherever the grid resolves a tied run by its plateau
    # rule, theta_e is theta_w bit for bit. Everywhere else they are equal,
    # or a few ulps apart, or both are sign changes of the computed dU/dtheta
    # (two narrowings from different brackets, where rounding makes it change
    # sign more than once), or theta_w is one of the grid's limits: a snap to
    # a grid point, or reject-all where U at theta_e is > 0. U at theta_e is
    # never below U at theta_w by more than the plateau slack and the rates'
    # rounding. Joint calls on one group and decoupled calls agree.
    model, economy, groups, state = _one_group_score(scores, payoffs, pi, n)
    full = features._full_window(model, economy, groups, state, grid_size)
    theta_w = features._window_answer(model, economy, groups, state, full)
    theta_e = institution_best_response(model, economy, groups, state, grid_size=grid_size)
    thetas, _, util, (i_best, u_max, slack) = full
    lo, hi = features._tied_run(util, i_best, u_max - slack)
    if pi in (0.0, 1.0) or (u_max > 0.0 and hi > lo):
        assert theta_e.hex() == theta_w.hex()

    def utility(theta):
        return institutional_utility(economy, groups, model, theta, state)

    p, c = payoffs
    rounding = 4 * features._RATE_ULP * n * (p * pi + c * (1.0 - pi))
    assert utility(theta_e) >= utility(theta_w) - slack - rounding
    slope = features._utility_slope(model, economy, groups, state)

    def turns(theta):
        return slope(theta) <= 0.0 < slope(math.nextafter(theta, 0.0))

    assert (
        abs(theta_e - theta_w) <= 4 * math.ulp(theta_w)
        or (turns(theta_e) and turns(theta_w))
        or theta_w in thetas[:-1]
        or (theta_w == 1.0 and (theta_e == 1.0 or utility(theta_e) > 0.0))
    ), (theta_e, theta_w)
    if n == 1.0:
        decoupled = decoupled_best_response(model, economy, groups[0], pi, grid_size=grid_size)
        assert decoupled.hex() == theta_e.hex()


def test_the_exact_cut_serves_strict_mlr_beta_groups_alone():
    # One group with strict-MLR Beta scores takes the exact cut and reads no
    # grid table; weak MLR, empirical scores and a joint call on two groups
    # take the whole grid.
    economy = EconomyConfig(wage=1.0)
    one = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)
    state = QualificationState(ids=("g",), rates=(0.4,))
    weak = ScoreModel((("g", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 2.0))),))
    for model, strict in ((steep_scores(), True), (weak, False), (empirical_scores(), False)):
        assert features._strict_mlr_beta(model.scores("g")) is strict
        cut = features._first_order_cut(model, economy, one, state, 2001)
        assert (cut is not None) is strict
        institution_best_response(model, economy, one, state)
        assert (model._grid_cache == {}) is strict
    pair = ScoreModel({g: steep_scores().scores("g") for g in ("a", "b")})
    two = tuple(GroupSpec(id=g, proportion=0.5, cost=Uniform01()) for g in ("a", "b"))
    both = QualificationState(ids=("a", "b"), rates=(0.4, 0.6))
    assert features._first_order_cut(pair, economy, two, both, 2001) is None
    # a decoupled call takes the exact cut and reads no rates on the grid
    fresh = ScoreModel(pair.curves)
    solo_b = (GroupSpec(id="b", proportion=1.0, cost=Uniform01()),)
    at_b = QualificationState(ids=("b",), rates=(0.6,))
    answer = decoupled_best_response(fresh, economy, two[1], 0.6)
    assert answer == features._first_order_cut(fresh, economy, solo_b, at_b, 2001)
    assert fresh._grid_cache == {}
    # a model holding the whole grid's table answers the same
    institution_best_response(pair, economy, two, both)
    assert list(pair._grid_cache) == [2001]
    assert decoupled_best_response(pair, economy, two[1], 0.6) == answer


# An empirical y0 curve may end up to 1e-12 above 1; its CDF is clamped to 1,
# so FPR is 0 there, not below it, and U <= 0 at pi = 0.
_ABOVE_ONE_CURVES = GroupScores(
    y1=EmpiricalScore(((0.0, 0.0), (1.0, 1.0))),
    y0=EmpiricalScore(((0.0, 0.0), (0.999, 1.0 + 9e-13), (1.0, 1.0 + 9e-13))),
)


@st.composite
def empirical_curves(draw):
    """Empirical y1 and y0 curves, each through (0, 0), one to four drawn
    knots and (1, 1)."""

    def curve():
        xs = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True))
        ys = draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs), max_size=len(xs)))
        return EmpiricalScore(((0.0, 0.0), *zip(sorted(xs), sorted(ys)), (1.0, 1.0)))

    return GroupScores(y1=curve(), y0=curve())


@st.composite
def score_cases(draw, grids):
    """A score model on one to three groups, with strict-MLR Beta, weak-MLR
    Beta, Beta pairs in any order or empirical curves, its economy and
    groups, and a grid size drawn from `grids`."""
    k = draw(st.integers(1, 3))
    pair = st.tuples(st.floats(0.3, 12.0), st.floats(0.3, 12.0))
    curves = st.one_of(
        strict_mlr_pairs().map(lambda s: GroupScores(y1=BetaScore(*s[0]), y0=BetaScore(*s[1]))),
        # f1 / f0 rises as theta^gap, to a finite top
        st.builds(
            lambda ab, gap: GroupScores(y1=BetaScore(ab[0] + gap, ab[1]), y0=BetaScore(*ab)),
            pair, st.floats(0.01, 8.0),
        ),
        st.builds(lambda a, b: GroupScores(y1=BetaScore(*a), y0=BetaScore(*b)), pair, pair),
        st.sampled_from([empirical_scores().scores("g"), _ABOVE_ONE_CURVES]),
        empirical_curves(),
    )
    ids = [f"g{i}" for i in range(k)]
    model = ScoreModel({gid: draw(curves) for gid in ids})
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    groups = tuple(
        GroupSpec(id=gid, proportion=w / sum(weights), cost=Uniform01())
        for gid, w in zip(ids, weights)
    )
    economy = EconomyConfig(
        wage=1.0, payoff_tp=draw(st.floats(0.2, 5.0)), cost_fp=draw(st.floats(0.2, 5.0))
    )
    return model, economy, groups, draw(grids)


@st.composite
def zero_state_cases(draw):
    """score_cases at grids of 3 to 2001 points, with an all-zero state's
    rates (each 0.0 or -0.0)."""
    model, economy, groups, grid = draw(score_cases(st.sampled_from([3, 5, 101, 401, 2001])))
    zeros = tuple(draw(st.sampled_from([0.0, -0.0])) for _ in groups)
    return model, economy, groups, zeros, grid


@settings(max_examples=100, deadline=None)
@given(case=zero_state_cases())
@example(case=(
    ScoreModel({"g0": _ABOVE_ONE_CURVES}),
    EconomyConfig(wage=1.0),
    (GroupSpec(id="g0", proportion=1.0, cost=Uniform01()),),
    (0.0,),
    2001,
))
def test_an_all_zero_score_state_takes_the_whole_grids_answer(case):
    # A state with every rate 0 is answered reject-all before the exact cut
    # and the head, for every score model, as the grid answers it; joint
    # and decoupled calls give the whole grid's answer, bit for bit.
    model, economy, groups, zeros, grid = case
    state = QualificationState(ids=tuple(g.id for g in groups), rates=zeros)
    joint = institution_best_response(model, economy, groups, state, grid_size=grid)
    full = _full_table_answer(model, economy, groups, state, grid)
    assert joint.hex() == full.hex() == (1.0).hex()
    for g, pi in zip(groups, zeros):
        solo = (GroupSpec(id=g.id, proportion=1.0, cost=g.cost),)
        at = QualificationState(ids=(g.id,), rates=(pi,))
        got = decoupled_best_response(model, economy, g, pi, grid_size=grid)
        assert got.hex() == _full_table_answer(model, economy, solo, at, grid).hex()


def _all_ones(groups):
    return QualificationState(ids=tuple(g.id for g in groups), rates=(1.0,) * len(groups))


@settings(max_examples=150, deadline=None)
@given(case=score_cases(st.one_of(st.sampled_from([3, 15, 16, 17, 2001]), st.integers(3, 2001))))
def test_the_head_answers_the_full_table_bit_for_bit(case):
    # Where every rate is 1, U never rises in theta: a head that certifies
    # gives the whole grid's answer, bit for bit, and joint and decoupled
    # calls give that answer whether or not the model holds the grid's table.
    model, economy, groups, grid = case
    state = _all_ones(groups)
    head = features._head_window(model, economy, groups, state, grid)
    full = _full_table_answer(model, economy, groups, state, grid)
    if head is not None:
        assert features._window_answer(model, economy, groups, state, head).hex() == full.hex()
    fresh = ScoreModel(model.curves)
    for solver in (fresh, model):  # without the table, then with it
        joint = institution_best_response(solver, economy, groups, state, grid_size=grid)
        assert joint.hex() == full.hex()
    for g in groups:
        solo = (GroupSpec(id=g.id, proportion=1.0, cost=g.cost),)
        expected = _full_table_answer(model, economy, solo, _all_ones(solo), grid)
        got = decoupled_best_response(ScoreModel(model.curves), economy, g, 1.0, grid_size=grid)
        assert got.hex() == expected.hex()


def test_a_steep_head_gives_way_to_the_whole_grid():
    # With y1 = Beta(40, 2), TPR rounds to 1 across the head, so its last
    # point ties u_max: the head does not certify, and the table is read.
    model = ScoreModel({"g": GroupScores(y1=BetaScore(40.0, 2.0), y0=BetaScore(2.0, 5.0))})
    economy = EconomyConfig(wage=1.0)
    one = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)
    assert features._head_window(model, economy, one, _all_ones(one), 2001) is None
    got = institution_best_response(model, economy, one, _all_ones(one))
    assert list(model._grid_cache) == [2001]
    assert got.hex() == _full_table_answer(model, economy, one, _all_ones(one), 2001).hex()


def test_every_rate_at_one_is_answered_on_the_head_alone():
    # The score anchor (acceptance criterion 07), an empirical curve and a
    # joint call on two groups, each at pi = 1: the head certifies, and no
    # grid table is built. A decoupled call's head reads its own group alone.
    economy, anchor_groups, anchor = verification._steep_cost_scenario()
    pair = ScoreModel({"a": steep_scores().scores("g"), "b": empirical_scores().scores("g")})
    two = tuple(GroupSpec(id=g, proportion=0.5, cost=Uniform01()) for g in ("a", "b"))
    for model, groups in ((anchor, anchor_groups), (empirical_scores(), anchor_groups), (pair, two)):
        state = _all_ones(groups)
        assert features._head_window(model, economy, groups, state, 2001) is not None
        got = institution_best_response(model, economy, groups, state)
        assert model._grid_cache == {}
        assert got.hex() == _full_table_answer(model, economy, groups, state, 2001).hex()
    fresh = ScoreModel(pair.curves)
    solo_b = (GroupSpec(id="b", proportion=1.0, cost=Uniform01()),)
    head = features._head_window(fresh, economy, solo_b, _all_ones(solo_b), 2001)
    assert list(head[1]) == ["b"]
    decoupled_best_response(fresh, economy, two[1], 1.0)
    assert fresh._grid_cache == {}


def test_kink_table_equals_per_call_rates():
    # The uniform solver reads its kinks and their rates from a table built
    # once per group-id tuple, for joint (several ids) and decoupled (one
    # id) calls alike; each entry must carry a fresh tpr_fpr's bits.
    thresholds = (("a1", 0.4123456789), ("a2", 0.8), ("a3", 0.4123456789))
    model = UniformThreshold(thresholds)
    fresh = UniformThreshold(thresholds)
    for ids in (("a1", "a2", "a3"), ("a1", "a2"), ("a2", "a3"), ("a1",), ("a2",), ("a3",)):
        table = features._kink_rates(model, ids)
        assert features._kink_rates(model, ids) is table  # built once
        kinks, rates = table
        assert kinks == tuple(sorted({0.0, 1.0, *(fresh.threshold(g) for g in ids)}))
        assert len(rates) == len(kinks)
        for kink, row in zip(kinks, rates):
            assert [x.hex() for r in row for x in r] == [
                x.hex() for g in ids for x in fresh.tpr_fpr(g, kink)
            ]
    # and a best response from the table is the one from a fresh model
    economy, groups, _ = uniform_reference()
    two = UniformThreshold((("a1", 0.4123456789), ("a2", 0.8)))
    for rates in ((0.6, 0.3), (0.2, 0.6), (0.0, 0.0), (1.0, 1.0)):
        state = QualificationState(ids=("a1", "a2"), rates=rates)
        for _ in range(2):
            assert institution_best_response(two, economy, groups, state).hex() == (
                institution_best_response(
                    UniformThreshold(two.thresholds), economy, groups, state
                ).hex()
            )


class _SignedScore:
    """A score curve whose CDF tells -0.0 from 0.0, so an answer read from
    the wrong side of zero shows in the rates."""

    def __init__(self, scale):
        self.scale = scale

    def cdf(self, x):
        return self.scale * x if math.copysign(1.0, x) > 0 else 0.5 * self.scale


_MEMO_CURVES = (
    ("a", GroupScores(y1=BetaScore(5.0, 2.0), y0=BetaScore(2.0, 5.0))),
    ("b", GroupScores(y1=_SignedScore(0.9), y0=_SignedScore(0.3))),
    ("c", empirical_scores().scores("g")),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("a", "b", "c")),
            st.one_of(
                st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)),
                st.floats(min_value=0.0, max_value=1.0),
            ),
        ),
        min_size=1,
        max_size=40,
    ).flatmap(lambda calls: st.permutations(calls + calls))
)
def test_rates_memo_matches_a_fresh_model(calls):
    # Every call, repeated or not, interleaved across groups, gives the bits
    # of the same call on a model that has answered nothing before.
    model = ScoreModel(_MEMO_CURVES)
    for gid, theta in calls:
        got = model.tpr_fpr(gid, theta)
        want = ScoreModel(_MEMO_CURVES).tpr_fpr(gid, theta)
        assert [x.hex() for x in got] == [x.hex() for x in want], (gid, theta)


@pytest.mark.parametrize("h1", [0.4, 0.4123456789])
def test_uniform_corner_state_returns_the_threshold_exactly(h1):
    economy, groups, _ = uniform_reference()
    model = UniformThreshold((("a1", h1), ("a2", 0.8)))
    low = QualificationState(ids=("a1", "a2"), rates=(0.6, 0.3))
    assert institution_best_response(model, economy, groups, low) == h1
    high = QualificationState(ids=("a1", "a2"), rates=(0.2, 0.6))
    assert institution_best_response(model, economy, groups, high) == 0.8


def test_scalar_score_paths_agree_with_the_vector_paths():
    beta = BetaScore(5.0, 2.0)
    empirical = empirical_scores().scores("g").y1
    xs = np.concatenate((np.linspace(0.0, 1.0, 257), np.random.default_rng(3).random(500)))
    for x in xs.tolist():
        assert beta.cdf(x) == beta.cdf(np.array([x]))[0]
        assert empirical.cdf(x) == empirical.cdf(np.array([x]))[0]
        if 0.0 < x < 1.0:
            assert beta.slope(x) == pytest.approx(float(beta.pdf(x)), rel=1e-13)
    # the segment slope is exact, and right-handed at a knot
    assert empirical.slope(0.1) == pytest.approx(0.05 / 0.3, rel=1e-15)
    assert empirical.slope(0.3) == pytest.approx(0.25 / 0.31, rel=1e-15)
    assert empirical.slope(1.0) == pytest.approx(0.4 / 0.15, rel=1e-15)


def test_beta_score_rejects_parameters_that_are_not_finite_reals():
    for bad in (math.inf, math.nan, True, 0.0, "2"):
        with pytest.raises(ParameterError):
            BetaScore(bad, 2.0)
        with pytest.raises(ParameterError):
            BetaScore(2.0, bad)


COST_KINDS = [
    Uniform01(),
    TruncatedNormal(mu=0.3, sigma=0.15),
    BimodalNormal(mu1=0.1, sigma1=0.05, mu2=0.5, sigma2=0.1, mix=0.4),
    EmpiricalCdf(((0.0, 0.0), (0.1, 0.05), (0.3, 0.5), (0.6, 1.0))),
    Shifted(TruncatedNormal(mu=0.4, sigma=0.2), 0.05),
    Scaled(EmpiricalCdf(((0.05, 0.0), (0.2, 0.4), (0.9, 1.0))), 1.5),
]


def _kink_utilities(model, economy, groups, state):
    """The uniform family's kinks {0, h_a, 1}, U at each, and the plateau
    slack: _PLATEAU_RTOL times the size of U's terms at the first maximum."""
    kinks = sorted({0.0, 1.0, *(model.threshold(g.id) for g in groups)})
    util = [institutional_utility(economy, groups, model, k, state) for k in kinks]
    best = kinks[util.index(max(util))]
    terms = 0.0
    for g, pi in zip(groups, state.rates):
        tpr, fpr = model.tpr_fpr(g.id, best)
        terms += g.proportion * (
            economy.payoff_tp * tpr * pi + economy.cost_fp * fpr * (1.0 - pi)
        )
    return kinks, util, features._PLATEAU_RTOL * terms


def _uniform_groups(weights, costs):
    # proportions summing to 1; the last takes the remainder
    props = [w / sum(weights) for w in weights]
    props[-1] = 1.0 - sum(props[:-1])
    return tuple(
        GroupSpec(id=f"a{i}", proportion=p, cost=COST_KINDS[c])
        for i, (p, c) in enumerate(zip(props, costs))
    )


@settings(max_examples=200, deadline=None)
@given(
    draw=st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(0.05, 0.95), min_size=k, max_size=k),
            st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k),
            st.lists(st.integers(0, len(COST_KINDS) - 1), min_size=k, max_size=k),
            st.lists(
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                min_size=k, max_size=k,
            ),
        )
    ),
    wage=st.floats(0.2, 1.5),
    payoff_tp=st.floats(0.5, 2.0),
    cost_fp=st.floats(0.5, 2.0),
)
def test_uniform_closed_form_is_a_kink_or_on_the_flat_stretch(draw, wage, payoff_tp, cost_fp):
    thresholds, weights, costs, rates = draw
    groups = _uniform_groups(weights, costs)
    ids = tuple(g.id for g in groups)
    model = UniformThreshold(tuple(zip(ids, thresholds)))
    economy = EconomyConfig(wage=wage, payoff_tp=payoff_tp, cost_fp=cost_fp)
    state = QualificationState(ids=ids, rates=tuple(rates))
    theta = institution_best_response(model, economy, groups, state)
    kinks, util, slack = _kink_utilities(model, economy, groups, state)
    # no better cut on a fine grid, beyond the slack
    thetas = np.linspace(0.0, 1.0, 100001)
    grid = core._utility_from_rates(
        economy, groups, [model.rates_grid(g.id, thetas) for g in groups], state.rates
    )
    assert institutional_utility(economy, groups, model, theta, state) >= grid.max() - slack
    # a kink, or inside a stretch whose ends both tie the kink maximum
    if theta not in kinks:
        j = np.searchsorted(kinks, theta)
        assert util[j - 1] >= max(util) - slack and util[j] >= max(util) - slack


@settings(max_examples=200, deadline=None)
@given(
    h=st.tuples(st.floats(0.1, 0.45), st.floats(0.55, 0.9)),
    at=st.floats(0.05, 0.95),
    costs=st.tuples(
        st.integers(0, len(COST_KINDS) - 1), st.integers(0, len(COST_KINDS) - 1)
    ),
    wage=st.floats(0.2, 1.5),
    n1=st.floats(0.3, 0.7),
    payoff_tp=st.floats(0.5, 2.0),
)
def test_uniform_fixed_point_plateau_states_map_to_themselves(h, at, costs, wage, n1, payoff_tp):
    # A state induced by a cut on [h1, h2], with cost_fp chosen to make U flat
    # there: -n1 p pi1 / (1 - h1) + n2 c (1 - pi2) / h2 = 0.
    groups = _uniform_groups((n1, 1.0 - n1), costs)
    model = UniformThreshold((("a0", h[0]), ("a1", h[1])))
    theta = h[0] + at * (h[1] - h[0])
    pi = tuple(
        core.response_rate(g.cost, wage, *model.tpr_fpr(g.id, theta)) for g in groups
    )
    assume(pi[0] > 0.0 and pi[1] < 1.0)
    cost_fp = (groups[0].proportion * payoff_tp * pi[0] * h[1]) / (
        groups[1].proportion * (1.0 - pi[1]) * (1.0 - h[0])
    )
    economy = EconomyConfig(wage=wage, payoff_tp=payoff_tp, cost_fp=cost_fp)
    state = QualificationState(ids=("a0", "a1"), rates=pi)
    _, util, slack = _kink_utilities(model, economy, groups, state)
    # [h1, h2] is flat to the solver's slack when both its ends tie the maximum
    assume(min(util[1], util[2]) >= max(util) - slack)
    _, after = dynamics.step(economy, groups, model, state)
    assert after.sup_distance(state) <= 1e-15


def _flat_stretch(model, economy, groups, state):
    """The flat stretch (lo, hi) the scalar solver resolves, or None: the
    tied run of kinks (uniform) or grid points (score) around the first
    maximum, when that maximum is positive."""
    if isinstance(model, UniformThreshold):
        points, util, slack = _kink_utilities(model, economy, groups, state)
    else:
        points, table = features._grid_rates(model, features.DEFAULT_GRID)
        util = core._utility_from_rates(
            economy, groups, [table[g.id] for g in groups], state.rates
        )
        points, util = points.tolist(), util.tolist()
        rates = [model.tpr_fpr(g.id, points[util.index(max(util))]) for g in groups]
        slack = features._PLATEAU_RTOL * features._term_size(economy, groups, rates, state.rates)
    i = util.index(max(util))
    lo, hi = features._tied_run(util, i, util[i] - slack)
    return (points[lo], points[hi]) if util[i] > 0.0 and lo < hi else None


def _response_distance(model, economy, groups, state, theta):
    """Sup-norm gap between the population's response to theta and the state
    (`_plateau_point` takes it from its cached residuals)."""
    return max(map(abs, features._residuals(model, economy, groups, state, theta)))


@st.composite
def uniform_plateau_states(draw):
    """Uniform states on a flat stretch, with 1-3 groups. 'corners' puts
    every group at pi = 0 or 1; 'line' and 'induced' make U flat on
    [h_0, h_1] (cost_fp solves n_0 p pi_0 / (1 - h_0) = n_1 c (1 - pi_1) / h_1),
    at any rates on that line or at rates induced by a cut there (a fixed
    point), with a third group at pi = 1 flat across it."""
    k = draw(st.integers(1, 3))
    hs = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=k, max_size=k, unique=True)))
    weights = draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k))
    kinds = draw(st.lists(st.integers(0, len(COST_KINDS) - 1), min_size=k, max_size=k))
    groups = _uniform_groups(weights, kinds)
    ids = tuple(g.id for g in groups)
    model = UniformThreshold(tuple(zip(ids, hs)))
    wage, payoff_tp = draw(st.floats(0.2, 1.5)), draw(st.floats(0.5, 2.0))
    kind = "corners" if k == 1 else draw(st.sampled_from(["corners", "line", "induced"]))
    if kind == "corners":
        rates = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=k, max_size=k))
        cost_fp = draw(st.floats(0.5, 2.0))
    else:
        if kind == "line":
            pair = (draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 0.95)))
        else:
            theta = hs[0] + draw(st.floats(0.0, 1.0)) * (hs[1] - hs[0])
            pair = tuple(
                core.response_rate(g.cost, wage, *model.tpr_fpr(g.id, theta)) for g in groups[:2]
            )
            assume(pair[0] > 0.0 and pair[1] < 1.0)
        rates = [*pair, 1.0][:k]
        n0, n1 = groups[0].proportion, groups[1].proportion
        cost_fp = n0 * payoff_tp * pair[0] * hs[1] / (n1 * (1.0 - pair[1]) * (1.0 - hs[0]))
        assume(0.05 <= cost_fp <= 20.0)
    economy = EconomyConfig(wage=wage, payoff_tp=payoff_tp, cost_fp=cost_fp)
    return model, economy, groups, QualificationState(ids=ids, rates=tuple(rates))


def indifferent_empirical_scores():
    """Scores whose middle segment [0.3, 0.7] has F1 slope 1 and F0 slope
    0.75, so U is flat there when p pi = 0.75 c (1 - pi); the likelihood ratio
    falls across segments, so that stretch is the maximum."""
    return ScoreModel(
        (
            (
                "g",
                GroupScores(
                    y1=EmpiricalScore(((0, 0), (0.3, 0.05), (0.7, 0.45), (1, 1))),
                    y0=EmpiricalScore(((0, 0), (0.3, 0.6), (0.7, 0.9), (1, 1))),
                ),
            ),
        )
    )


def turning_empirical_scores():
    """Two groups whose f0 - f1 are +0.5 and -0.5 on [0.4, 0.5] and swap
    signs on [0.5, 0.6]: with p pi = c (1 - pi) for both, U is flat on
    [0.4, 0.6] and each group's benefit turns at 0.5."""
    def group(y1, y0):
        return GroupScores(
            y1=EmpiricalScore(((0, 0), (0.4, y1[0]), (0.5, y1[1]), (0.6, y1[2]), (1, 1))),
            y0=EmpiricalScore(((0, 0), (0.4, y0[0]), (0.5, y0[1]), (0.6, y0[2]), (1, 1))),
        )

    return ScoreModel(
        (
            ("a", group((0.2, 0.25, 0.4), (0.5, 0.6, 0.65))),
            ("b", group((0.1, 0.2, 0.25), (0.5, 0.55, 0.7))),
        )
    )


@st.composite
def score_plateau_states(draw):
    """Score plateaus: steep scores at pi = 1, the one-group empirical
    indifference state pi = 0.75 c / (p + 0.75 c), or the two-group one
    pi = c / (p + c), whose benefits turn inside the stretch."""
    pair_costs = draw(st.lists(st.sampled_from(COST_KINDS), min_size=2, max_size=2))
    wage, payoff_tp = draw(st.floats(0.2, 1.5)), draw(st.floats(0.5, 2.0))
    economy = EconomyConfig(wage=wage, payoff_tp=payoff_tp)
    group = (GroupSpec(id="g", proportion=1.0, cost=pair_costs[0]),)
    kind = draw(st.sampled_from(["steep", "one", "two"]))
    if kind == "steep":
        return steep_scores(), economy, group, QualificationState(ids=("g",), rates=(1.0,))
    if kind == "one":
        pi = 0.75 / (payoff_tp + 0.75)
        return indifferent_empirical_scores(), economy, group, QualificationState(("g",), (pi,))
    pair = tuple(GroupSpec(id=g, proportion=0.5, cost=c) for g, c in zip("ab", pair_costs))
    pi = 1.0 / (payoff_tp + 1.0)
    return turning_empirical_scores(), economy, pair, QualificationState(("a", "b"), (pi, pi))


@settings(max_examples=80, deadline=None)
@given(case=st.one_of(uniform_plateau_states(), score_plateau_states()))
def test_plateau_point_is_the_closest_response_on_the_stretch(case):
    model, economy, groups, state = case
    stretch = _flat_stretch(model, economy, groups, state)
    assume(stretch is not None)
    lo, hi = stretch
    theta = institution_best_response(model, economy, groups, state)
    assert lo <= theta <= hi
    reference = min(
        _response_distance(model, economy, groups, state, th)
        for th in np.linspace(lo, hi, 1025).tolist()
    )
    got = _response_distance(model, economy, groups, state, theta)
    assert got <= reference + 1e-15


@pytest.mark.parametrize("cost", [Uniform01(), TruncatedNormal(mu=0.4, sigma=0.3)])
@pytest.mark.parametrize("wage", [0.78, 0.85, 0.95])
def test_score_indifference_state_with_an_inner_cut_maps_to_itself(cost, wage):
    # On the stretch [0.3, 0.7] of indifferent_empirical_scores the benefit
    # w (F0 - F1) falls from 0.55 w to 0.45 w, so pi = G(w b) with
    # 0.45 < b < 0.55 is reproduced strictly inside the stretch. Made
    # indifferent there (p pi = 0.75 c (1 - pi)), the state must map to
    # itself within _PLATEAU_RTOL, far below what the 1025-point reference
    # of the property above can resolve.
    model = indifferent_empirical_scores()
    group = (GroupSpec(id="g", proportion=1.0, cost=cost),)
    for b in np.linspace(0.45, 0.55, 9)[1:-1].tolist():
        pi = cost.cdf(wage * b)
        assert cost.cdf(0.45 * wage) < pi < cost.cdf(0.55 * wage)
        economy = EconomyConfig(wage=wage, payoff_tp=0.75 * (1.0 - pi) / pi)
        state = QualificationState(ids=("g",), rates=(pi,))
        lo, hi = _flat_stretch(model, economy, group, state)
        assert lo == pytest.approx(0.3) and hi == pytest.approx(0.7)
        theta = institution_best_response(model, economy, group, state)
        assert 0.3 < theta < 0.7
        distance = _response_distance(model, economy, group, state, theta)
        assert distance <= features._PLATEAU_RTOL


def test_plateau_tie_break_needs_a_tie_beyond_rounding(monkeypatch):
    # Near pi = 0 the utility is ~1e-16 everywhere, so grid points can agree to
    # within 1e-15 without tying; the tie slack scales with the utility's terms.
    # Both scalar families resolve a flat stretch with _plateau_point.
    calls = []
    real = features._plateau_point
    monkeypatch.setattr(
        features, "_plateau_point", lambda *args: calls.append(1) or real(*args)
    )

    def takes_plateau(model, economy, grps, state) -> bool:
        calls.clear()
        institution_best_response(model, economy, grps, state)
        return bool(calls)

    score_group = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)
    economy = EconomyConfig(wage=1.0)
    for pi, tied in ((1e-10, False), (2.5e-10, False), (1.0, True)):
        state = QualificationState(ids=("g",), rates=(pi,))
        assert takes_plateau(steep_scores(), economy, score_group, state) is tied
    economy, groups, uniform = uniform_reference()
    table = uniform_closed_forms(0.4, 0.8, 0.6, economy, groups)
    mid = next(r.state for r in table.records if r.label == "h_mid")
    assert takes_plateau(uniform, economy, groups, mid)


def test_plateau_cost_inversion_stops_just_above_the_cost_support(monkeypatch):
    # pi = 1 with the wage above the costs' support: G is exactly 1 beyond
    # the support, so beta's search ends there instead of halving a flat
    # zero up to the wage (92 cdf calls for Scaled(.., 49) and wage 1.5, 58
    # for Uniform01). A Uniform01 level is read in closed form, with no cdf
    # call; the calls left are the plateau rule's. Either way beta has the
    # bits of the search up to the wage, also for Scaled(.., 49), whose G
    # rounds to just below 1 at the support's top.
    calls = []
    real = costs.CostModel.cdf
    monkeypatch.setattr(costs.CostModel, "cdf", lambda self, x: calls.append(x) or real(self, x))
    model = UniformThreshold((("a", 0.4),))
    for cost, most in ((Uniform01(), 8), (Scaled(Uniform01(), 49.0), 10)):
        group = GroupSpec(id="a", proportion=1.0, cost=cost)
        calls.clear()
        theta = decoupled_best_response(model, EconomyConfig(wage=1.5), group, 1.0)
        assert len(calls) <= most
        beta = features._slope_turn(lambda x: 1.0 - real(cost, x), 0.0, 1.5)
        assert theta.hex() == (0.4 * beta / 1.5).hex()


_ABOVE_ONE = math.nextafter(1.0, math.inf)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.sampled_from((math.nextafter(1.0, 0.0), 1.0, 1.5)),
        st.floats(min_value=5e-324, max_value=2.0),
    ),
    st.one_of(
        st.sampled_from(("top", "below top", "above top", 0.0, -0.0, 1.0, 5e-324)),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
def test_uniform_cut_level_is_the_search_bit_for_bit(w, pi):
    cost = Uniform01()
    top = min(w, _ABOVE_ONE)
    edges = {
        "top": top,
        "below top": math.nextafter(top, -math.inf),
        "above top": math.nextafter(top, math.inf),
    }
    pi = edges.get(pi, pi)
    search = features._slope_turn(lambda x: pi - cost.cdf(x), 0.0, top)
    assert cost.cut_level(pi, top).hex() == search.hex()


def test_a_scaled_uniform_cost_still_searches_for_its_cut_level(monkeypatch):
    cost = Scaled(Uniform01(), 49.0)
    searches = []
    real = features._slope_turn
    monkeypatch.setattr(
        features, "_slope_turn", lambda *args: searches.append(args) or real(*args)
    )
    top = math.nextafter(cost.support[1], math.inf)
    for pi in (0.0, 0.3, 1.0):
        want = real(lambda x: pi - cost.cdf(x), 0.0, top)
        assert cost.cut_level(pi, top).hex() == want.hex()
    assert len(searches) == 3
    assert Uniform01().cut_level(0.3, 1.0) == 0.3 and len(searches) == 3


def test_plateau_cost_inversion_bisects_where_the_cdf_rounds_to_one():
    # The score anchor's cost, TruncatedNormal(0.6, 0.1) on [0, 1], rounds
    # to exactly 1 about 1e-13 below its top, so at pi = 1 and wage 1 beta's
    # search meets a flat zero at its upper end. The secant alone moved one
    # float per step there (105 cdf calls); the search now bisects it, with
    # bisection's bits, after two points below the end.
    cost = TruncatedNormal(mu=0.6, sigma=0.1)
    calls = []
    beta = features._slope_turn(lambda x: calls.append(x) or 1.0 - cost.cdf(x), 0.0, 1.0)
    lo, hi, halvings = 0.0, 1.0, 0
    while lo < 0.5 * (lo + hi) < hi:
        halvings += 1
        if 1.0 - cost.cdf(0.5 * (lo + hi)) > 0.0:
            lo = 0.5 * (lo + hi)
        else:
            hi = 0.5 * (lo + hi)
    assert beta.hex() == hi.hex()
    assert beta < 1.0 and cost.cdf(beta) == 1.0
    assert len(calls) <= 2 + halvings + 2  # the ends, bisection, two points


def test_grid_table_fill_is_safe_under_threads():
    # More threads than cores race on empty caches with a short switch
    # interval; every one must get the single stored table and the same
    # answer, and the last-answer memo, read and replaced by all of them at
    # cuts of their own, must give each the bits a fresh model gives. A
    # second fresh strict-MLR model is answered by the exact cut alone: its
    # log-ratio table is stored once, read-only, it is given no grid table,
    # and every thread gets one theta.
    model, exact = steep_scores(), steep_scores()
    uniform = UniformThreshold((("a1", 0.4), ("a2", 0.8)))
    economy = EconomyConfig(wage=1.0, payoff_tp=1.3, cost_fp=0.7)
    group = (GroupSpec(id="g", proportion=1.0, cost=Uniform01()),)
    state = QualificationState(ids=("g",), rates=(0.42,))
    cuts = [i / 16 for i in range(17)]
    fresh = {cut: steep_scores().tpr_fpr("g", cut) for cut in cuts}
    tables, kinks, thetas, wrong = [], [], [], []
    grids, exact_thetas = [], []
    barrier = threading.Barrier(8)

    def work():
        barrier.wait(timeout=10)
        exact_thetas.append(institution_best_response(exact, economy, group, state))
        grids.append(features._llr_grid(exact, "g", exact.scores("g"), 2001))
        tables.append(features._grid_rates(model, 2001)[1])
        kinks.append(features._kink_rates(uniform, ("a1", "a2")))
        thetas.append(institution_best_response(model, economy, group, state))
        mine = cuts[len(thetas) % 4::4]
        for cut in mine * 3:
            if model.tpr_fpr("g", cut) != fresh[cut]:
                wrong.append(cut)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(tables) == 8 and all(t is tables[0] for t in tables)
    assert all(k is kinks[0] for k in kinks)
    assert list(model._grid_cache) == [2001]
    assert list(uniform._kink_cache) == [("a1", "a2")]
    assert len(set(thetas)) == 1
    assert wrong == []
    assert len(grids) == 8 and all(g is grids[0] for g in grids)
    assert exact._grid_cache == {}
    stored = exact._llr_cache.values()
    assert not any(array.flags.writeable for entry in stored for array in entry)
    full = _full_table_answer(steep_scores(), economy, group, state, 2001)
    assert len(exact_thetas) == 8 and set(exact_thetas) == set(thetas) == {full}
