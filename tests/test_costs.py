import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qualdyn import (
    BimodalNormal,
    ConfigurationError,
    EmpiricalCdf,
    ParameterError,
    Scaled,
    Shifted,
    TruncatedNormal,
    Uniform01,
    UnsupportedModelError,
    dominates,
    inverse_cdf,
    subsidize,
)
from qualdyn.costs import from_config


def test_uniform01_clamps():
    g = Uniform01()
    assert g.cdf(-0.5) == 0.0
    assert g.cdf(0.25) == pytest.approx(0.25)
    assert g.cdf(2.0) == 1.0
    assert g.strictly_increasing
    assert g.lipschitz_bound == pytest.approx(1.0)


def test_truncated_normal_basic():
    g = TruncatedNormal(mu=0.6, sigma=0.1)
    assert g.cdf(0.0) == 0.0
    assert g.cdf(1.0) == pytest.approx(1.0)
    assert 0.49 < g.cdf(0.6) < 0.51
    xs = [i / 50 for i in range(51)]
    vals = [g.cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        TruncatedNormal(mu=0.5, sigma=0.0)
    with pytest.raises(ParameterError):
        TruncatedNormal(mu=0.5, sigma=0.1, lo=0.8, hi=0.2)


def test_bimodal_normal_is_a_mixture():
    g = BimodalNormal(mu1=0.25, sigma1=0.1, mu2=0.75, sigma2=0.1, mix=0.5)
    g1 = TruncatedNormal(mu=0.25, sigma=0.1)
    g2 = TruncatedNormal(mu=0.75, sigma=0.1)
    # Each component is normalized over [lo, hi] before mixing.
    for x in (0.1, 0.3, 0.5, 0.9):
        assert g.cdf(x) == pytest.approx(0.5 * g1.cdf(x) + 0.5 * g2.cdf(x), abs=1e-12)
    with pytest.raises(ParameterError):
        BimodalNormal(mu1=0.2, sigma1=0.1, mu2=0.8, sigma2=0.1, mix=1.5)


def test_empirical_cdf_interpolates_and_validates():
    g = EmpiricalCdf(((0.0, 0.0), (0.5, 0.8), (1.0, 1.0)))
    assert (g.cdf(0.0), g.cdf(0.5), g.cdf(1.0)) == (0.0, 0.8, 1.0)
    assert g.cdf(0.25) == pytest.approx(0.4)
    assert g.cdf(0.75) == pytest.approx(0.9)
    assert g.cdf(-1.0) == 0.0 and g.cdf(2.0) == 1.0
    with pytest.raises(ParameterError):
        EmpiricalCdf(((0.0, 0.0), (0.5, 0.9), (1.0, 0.8)))
    with pytest.raises(ParameterError):
        EmpiricalCdf(((0.0, 0.0), (1.0, 0.9)))
    with pytest.raises(ParameterError):
        EmpiricalCdf(((0.0, 0.0), (math.inf, 1.0)))


def test_shift_and_scale_semantics():
    base = Uniform01()
    shifted = Shifted(base, 0.1)
    scaled = Scaled(base, 2.0)
    assert shifted.cdf(0.3) == pytest.approx(0.4)
    assert scaled.cdf(0.3) == pytest.approx(0.6)
    with pytest.raises(ParameterError):
        Shifted(base, -0.1)
    with pytest.raises(ParameterError):
        Scaled(base, 0.5)


def test_subsidize_requires_exactly_one_transform():
    base = Uniform01()
    assert isinstance(subsidize(base, shift=0.1), Shifted)
    assert isinstance(subsidize(base, scale=1.5), Scaled)
    with pytest.raises(ParameterError):
        subsidize(base)
    with pytest.raises(ParameterError):
        subsidize(base, shift=0.1, scale=1.5)
    with pytest.raises(ParameterError):
        subsidize(base, shift=-0.2)
    with pytest.raises(ParameterError):
        subsidize(base, scale=0.9)
    # a bool is not an amount: the transforms refuse it, so subsidize does
    for kwargs in ({"shift": True}, {"scale": True}):
        with pytest.raises(ParameterError, match="finite real"):
            subsidize(base, **kwargs)


def test_dominates():
    base = TruncatedNormal(mu=0.6, sigma=0.1)
    assert dominates(subsidize(base, shift=0.05), base)
    assert dominates(subsidize(base, scale=1.2), base)
    assert dominates(base, base)
    assert not dominates(base, subsidize(base, shift=0.05))


KNOTS = ((0.1, 0.0), (0.3, 0.2), (0.5, 0.5), (0.5001, 0.6), (1.2, 1.0))
SCALE = 1.3


def every_kind():
    """One model of each cost kind, with knots and nested bases off 0 and 1."""
    return [
        Uniform01(),
        TruncatedNormal(mu=0.4, sigma=0.15),
        BimodalNormal(mu1=0.2, sigma1=0.05, mu2=0.7, sigma2=0.1, mix=0.3),
        EmpiricalCdf(KNOTS),
        Shifted(TruncatedNormal(mu=0.5, sigma=0.2, lo=0.1, hi=0.9), 0.07),
        Scaled(EmpiricalCdf(KNOTS), SCALE),
    ]


def _uncached_truncated_cdf(g, x):
    # The truncated-normal CDF with both constants recomputed at every call.
    def phi(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def z(t):
        return (t - g.mu) / g.sigma

    if x < g.lo:
        return 0.0
    if x > g.hi:
        return 1.0
    mass = phi(z(g.hi)) - phi(z(g.lo))
    return min(1.0, max(0.0, (phi(z(x)) - phi(z(g.lo))) / mass))


def test_cached_normal_constants_keep_every_bit():
    tn = TruncatedNormal(mu=0.5, sigma=0.2, lo=0.1, hi=0.9)
    steep = TruncatedNormal(mu=0.6, sigma=0.1)
    c1, c2 = TruncatedNormal(0.2, 0.1), TruncatedNormal(0.7, 0.15)
    bi = BimodalNormal(mu1=0.2, sigma1=0.1, mu2=0.7, sigma2=0.15, mix=0.3)

    def bi_reference(x):
        mixed = 0.3 * _uncached_truncated_cdf(c1, x) + 0.7 * _uncached_truncated_cdf(c2, x)
        return min(1.0, max(0.0, mixed))

    references = [
        (tn, lambda x: _uncached_truncated_cdf(tn, x)),
        (steep, lambda x: _uncached_truncated_cdf(steep, x)),
        (bi, bi_reference),
    ]
    xs = np.concatenate(([-0.5, 0.0, 0.1, 0.9, 1.0, 1.5], np.linspace(0.0, 1.0, 513)))
    for model, reference in references:
        want = [reference(x).hex() for x in xs.tolist()]
        assert [model.cdf(x).hex() for x in xs.tolist()] == want, model
    # the cached constants are not fields: equality and the config ignore them
    assert tn == TruncatedNormal(mu=0.5, sigma=0.2, lo=0.1, hi=0.9)
    assert tn.to_config() == {"kind": "truncated_normal", "mu": 0.5, "sigma": 0.2,
                              "lo": 0.1, "hi": 0.9}


def test_dominates_matches_the_pointwise_loop():
    def loop(candidate, base, points=1001):
        lo = min(candidate.support[0], base.support[0])
        hi = max(candidate.support[1], base.support[1])
        step = (hi - lo) / (points - 1)
        return all(
            candidate.cdf(lo + i * step) >= base.cdf(lo + i * step) - 1e-12
            for i in range(points)
        )

    models = every_kind()
    for a in models:
        for b in models:
            assert dominates(a, b) is loop(a, b)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, "0.1"])
def test_constructors_reject_values_that_are_not_finite_reals(bad):
    with pytest.raises(ParameterError):
        Shifted(Uniform01(), bad)
    with pytest.raises(ParameterError):
        Scaled(Uniform01(), bad)
    for field in ("mu", "sigma", "lo", "hi"):
        kwargs = {"mu": 0.5, "sigma": 0.1, field: bad}
        with pytest.raises(ParameterError):
            TruncatedNormal(**kwargs)
    for field in ("lo", "hi"):
        kwargs = {"mu1": 0.2, "sigma1": 0.1, "mu2": 0.8, "sigma2": 0.1, "mix": 0.5, field: bad}
        with pytest.raises(ParameterError):
            BimodalNormal(**kwargs)


def test_inverse_cdf_round_trip():
    for g in (Uniform01(), TruncatedNormal(mu=0.4, sigma=0.2)):
        for p in (0.1, 0.5, 0.9):
            x = inverse_cdf(g, p)
            assert g.cdf(x) == pytest.approx(p, abs=1e-8)
            # the smallest float where the CDF reaches p
            assert g.cdf(math.nextafter(x, -math.inf)) < p <= g.cdf(x)


def test_inverse_cdf_rejects_flat_cdf():
    flat = EmpiricalCdf(((0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)))
    assert not flat.strictly_increasing
    with pytest.raises(UnsupportedModelError):
        inverse_cdf(flat, 0.5)


def test_from_config_round_trip():
    models = (
        Uniform01(),
        TruncatedNormal(mu=0.6, sigma=0.1),
        BimodalNormal(mu1=0.25, sigma1=0.12, mu2=0.6, sigma2=0.12, mix=0.5),
        EmpiricalCdf(((0.0, 0.0), (0.5, 0.8), (1.0, 1.0))),
        Shifted(TruncatedNormal(mu=0.6, sigma=0.1), 0.05),
        Scaled(Uniform01(), 1.5),
    )
    for model in models:
        rebuilt = from_config(model.to_config())
        assert rebuilt == model
        assert rebuilt.to_config() == model.to_config()


def test_from_config_errors_name_the_path():
    with pytest.raises(ConfigurationError, match="cost.kind"):
        from_config({})
    with pytest.raises(ConfigurationError, match="cost.kind"):
        from_config({"kind": "nope"})
    with pytest.raises(ConfigurationError, match="cost.sigma"):
        from_config({"kind": "truncated_normal", "mu": 0.5})
    with pytest.raises(ConfigurationError, match="cost.extra"):
        from_config({"kind": "uniform01", "extra": 1})
    # Numbers must be finite JSON numbers: a string, a boolean or a literal
    # that overflows to inf (1e999) is refused, naming its field.
    for text, where in (
        ('{"kind": "truncated_normal", "mu": "0.6", "sigma": 0.1}', "cost.mu"),
        ('{"kind": "truncated_normal", "mu": true, "sigma": 0.1}', "cost.mu"),
        (
            '{"kind": "bimodal_normal", "mu1": 0.2, "sigma1": 0.1, "mu2": 0.7,'
            ' "sigma2": 0.1, "mix": "0.5"}',
            "cost.mix",
        ),
        ('{"kind": "empirical", "knots": [[0, 0], [1e999, 1]]}', r"cost.knots\[1\]\[0\]"),
        ('{"kind": "shifted", "base": {"kind": "uniform01"}, "delta": true}', "cost.delta"),
    ):
        with pytest.raises(ConfigurationError, match=f"{where}: expected a finite number"):
            from_config(json.loads(text))
    with pytest.raises(ConfigurationError, match="cost.kind: unknown cost kind"):
        from_config({"kind": ["uniform01"]})
    with pytest.raises(ConfigurationError, match=r"cost.knots\[1\]: expected a list of 2"):
        from_config({"kind": "empirical", "knots": [[0, 0], [0.5, 0.5, 1], [1, 1]]})


@given(
    mu=st.floats(0.05, 0.95),
    sigma=st.floats(0.02, 0.5),
    shift=st.floats(0.0, 0.5),
)
def test_shifted_cdf_dominates_base_pointwise(mu, sigma, shift):
    base = TruncatedNormal(mu=mu, sigma=sigma)
    bar = subsidize(base, shift=shift)
    for i in range(21):
        x = i / 20
        assert bar.cdf(x) >= base.cdf(x) - 1e-12


@given(
    mu=st.floats(0.05, 0.95),
    sigma=st.floats(0.02, 0.5),
    xs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
def test_truncated_normal_cdf_monotone(mu, sigma, xs):
    g = TruncatedNormal(mu=mu, sigma=sigma)
    ordered = sorted(xs)
    vals = [g.cdf(x) for x in ordered]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
