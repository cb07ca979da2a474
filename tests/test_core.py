import math
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qualdyn
from qualdyn import (
    ConfigurationError,
    EconomyConfig,
    GroupSpec,
    ParameterError,
    QualificationState,
    Uniform01,
    balance,
    institutional_utility,
    normalize_groups,
    response_rate,
)


class _FixedRates:
    """Feature-map stub returning preset (tpr, fpr) per group."""

    def __init__(self, rates):
        self._rates = rates

    def tpr_fpr(self, group, theta):
        return self._rates[group]


def test_state_of_sorts_ids():
    state = QualificationState.of({"z": 0.2, "a": 0.7})
    assert state.ids == ("a", "z")
    assert state.rates == (0.7, 0.2)
    assert state.rate("z") == 0.2
    assert state.as_mapping() == {"a": 0.7, "z": 0.2}


def test_state_rejects_unsorted_ids():
    with pytest.raises(ParameterError):
        QualificationState(ids=("b", "a"), rates=(0.1, 0.2))


def test_state_rejects_out_of_range_rates():
    with pytest.raises(ParameterError):
        QualificationState.of({"a": 1.2})
    with pytest.raises(ParameterError):
        QualificationState.of({"a": -0.01})


def test_state_rejects_bool_and_non_numeric_rates():
    # isinstance takes a bool for an int, so a True rate used to pass and
    # reach the trace as `"pi": {"g": true}`.
    for bad in (True, False, "0.5", None, math.nan):
        with pytest.raises(ParameterError):
            QualificationState(ids=("g",), rates=(bad,))
    assert QualificationState(ids=("g",), rates=(1,)).rates == (1,)


def test_state_unknown_group():
    state = QualificationState.of({"a": 0.5})
    with pytest.raises(ConfigurationError):
        state.rate("missing")


def test_sup_distance():
    s1 = QualificationState.of({"a": 0.1, "b": 0.9})
    s2 = QualificationState.of({"a": 0.4, "b": 0.8})
    assert s1.sup_distance(s2) == pytest.approx(0.3)
    assert s2.sup_distance(s1) == pytest.approx(0.3)
    assert s1.sup_distance(s1) == 0.0
    with pytest.raises(ConfigurationError):
        s1.sup_distance(QualificationState.of({"a": 0.1, "c": 0.9}))


def test_normalize_groups_sorts_and_validates():
    groups = normalize_groups(
        [
            GroupSpec(id="b", proportion=0.25, cost=Uniform01()),
            GroupSpec(id="a", proportion=0.75, cost=Uniform01()),
        ]
    )
    assert [g.id for g in groups] == ["a", "b"]

    with pytest.raises(ConfigurationError):
        normalize_groups(
            [
                GroupSpec(id="a", proportion=0.5, cost=Uniform01()),
                GroupSpec(id="a", proportion=0.5, cost=Uniform01()),
            ]
        )
    with pytest.raises(ConfigurationError):
        normalize_groups(
            [
                GroupSpec(id="a", proportion=0.5, cost=Uniform01()),
                GroupSpec(id="b", proportion=0.6, cost=Uniform01()),
            ]
        )
    with pytest.raises(ConfigurationError):
        normalize_groups([])


def _pair(first="a", second="b", share=0.75):
    return (
        GroupSpec(id=first, proportion=share, cost=Uniform01()),
        GroupSpec(id=second, proportion=1.0 - share, cost=Uniform01()),
    )


def test_normalize_groups_hands_back_the_tuple_it_just_returned():
    a, b = _pair()
    groups = normalize_groups([b, a])
    assert normalize_groups(groups) is groups
    # equal members in another container or order are checked and sorted
    for again in ([b, a], (b, a), [a, b], (a, b)):
        fresh = normalize_groups(again)
        assert fresh == (a, b) and fresh is not groups and fresh is not again
    assert normalize_groups(fresh) is fresh


def test_normalize_groups_still_refuses_bad_sets_after_a_good_call():
    a, b = _pair()
    assert normalize_groups((a, b)) == (a, b)
    for bad in (
        (a, GroupSpec(id="a", proportion=0.25, cost=Uniform01())),
        (a, GroupSpec(id="b", proportion=0.5, cost=Uniform01())),
        (),
    ):
        with pytest.raises(ConfigurationError):
            normalize_groups(bad)
        good = normalize_groups((b, a))
        with pytest.raises(ConfigurationError):
            normalize_groups(bad)
        assert normalize_groups(good) is good


def test_normalize_groups_never_hands_an_unchecked_tuple_to_a_thread():
    # Threads race good sets, their own answers and bad sets through the
    # one-slot record, with a short switch interval: a good set always comes
    # back sorted and checked, and a bad one is always refused.
    good = [_pair(first, second, share) for first, second, share in
            (("a", "b", 0.75), ("b", "a", 0.5), ("x", "c", 0.125))]
    bad = [
        (GroupSpec(id="a", proportion=0.5, cost=Uniform01()),) * 2,
        _pair(share=0.75)[:1],
    ]
    errors = []

    def worker(k):
        for i in range(300):
            groups = good[(i + k) % len(good)]
            got = normalize_groups(groups)
            if got != tuple(sorted(groups, key=lambda g: g.id)) or normalize_groups(got) != got:
                errors.append((groups, got))
            for refused in bad:
                try:
                    normalize_groups(refused)
                except ConfigurationError:
                    continue
                errors.append((refused, "accepted"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_group_spec_validation():
    with pytest.raises(ParameterError):
        GroupSpec(id="", proportion=1.0, cost=Uniform01())
    with pytest.raises(ParameterError):
        GroupSpec(id="a", proportion=0.0, cost=Uniform01())
    with pytest.raises(ParameterError):
        GroupSpec(id="a", proportion=1.5, cost=Uniform01())
    for bad in (True, math.nan, "0.5"):
        with pytest.raises(ParameterError):
            GroupSpec(id="a", proportion=bad, cost=Uniform01())


def test_economy_validation():
    econ = EconomyConfig(wage=0.6)
    assert econ.payoff_tp == 1.0 and econ.cost_fp == 1.0
    assert EconomyConfig(wage=1.0, payoff_tp=3.0, cost_fp=2.0).ratio == pytest.approx(1.5)
    with pytest.raises(ParameterError):
        EconomyConfig(wage=0.0)
    with pytest.raises(ParameterError):
        EconomyConfig(wage=1.0, payoff_tp=-1.0)
    for bad in (True, math.inf):
        with pytest.raises(ParameterError):
            EconomyConfig(wage=bad)


def test_balance_is_max_gap():
    assert balance(QualificationState.of({"a": 0.2, "b": 0.6, "c": 0.5})) == pytest.approx(0.4)
    assert balance(QualificationState.of({"a": 0.3})) == 0.0


def test_response_rate_floors_negative_margin():
    cost = Uniform01()
    assert response_rate(cost, wage=0.6, tpr=1.0, fpr=0.0) == pytest.approx(0.6)
    assert response_rate(cost, wage=0.6, tpr=0.2, fpr=0.7) == 0.0


def test_institutional_utility_hand_value():
    econ = EconomyConfig(wage=1.0, payoff_tp=2.0, cost_fp=1.0)
    groups = (
        GroupSpec(id="a", proportion=0.5, cost=Uniform01()),
        GroupSpec(id="b", proportion=0.5, cost=Uniform01()),
    )
    state = QualificationState.of({"a": 0.6, "b": 0.2})
    model = _FixedRates({"a": (0.9, 0.1), "b": (0.5, 0.3)})
    util = institutional_utility(econ, groups, model, 0.5, state)
    want = 0.5 * (2.0 * 0.9 * 0.6 - 1.0 * 0.1 * 0.4) + 0.5 * (2.0 * 0.5 * 0.2 - 1.0 * 0.3 * 0.8)
    assert util == pytest.approx(want)


def test_utility_requires_matching_group_index():
    econ = EconomyConfig(wage=1.0)
    groups = (GroupSpec(id="a", proportion=1.0, cost=Uniform01()),)
    state = QualificationState.of({"b": 0.5})
    with pytest.raises(ConfigurationError):
        institutional_utility(econ, groups, _FixedRates({"b": (1.0, 0.0)}), 0.5, state)


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(0.0, 1.0, allow_nan=False),
        min_size=1,
        max_size=4,
    )
)
def test_balance_matches_direct_formula(rates):
    state = QualificationState.of(rates)
    vals = list(rates.values())
    assert balance(state) == pytest.approx(max(vals) - min(vals))


@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=2),
)
def test_sup_distance_is_symmetric_and_exact(r1, r2):
    s1 = QualificationState.of({"a": r1[0], "b": r1[1]})
    s2 = QualificationState.of({"a": r2[0], "b": r2[1]})
    d = s1.sup_distance(s2)
    assert d == pytest.approx(s2.sup_distance(s1))
    assert d >= 0.0
    assert math.isclose(d, max(abs(r1[0] - r2[0]), abs(r1[1] - r2[1])), abs_tol=1e-15)


def test_package_exports_resolve_without_duplicates():
    # A stale entry would break only `from qualdyn import *`.
    assert len(set(qualdyn.__all__)) == len(qualdyn.__all__)
    assert [name for name in qualdyn.__all__ if not hasattr(qualdyn, name)] == []


def test_ingest_and_verification_are_imported_on_first_use():
    code = (
        "import sys, qualdyn, qualdyn.cli\n"
        "loaded = [m for m in ('qualdyn.ingest', 'qualdyn.verification') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert qualdyn.fit_beta is qualdyn.ingest.fit_beta\n"
        "assert qualdyn.run_suite is qualdyn.verification.run_suite\n"
    )
    # the child imports qualdyn from where this process found it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)
