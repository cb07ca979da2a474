"""Command-line interface: scenario files, subcommands, exit codes."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qualdyn import ConfigurationError, features
from qualdyn.cli import build_parser, load_scenario, main, scenario_from_config, scenario_to_config


def uniform_scenario(**overrides):
    cfg = {
        "version": 1,
        "economy": {"wage": 0.6, "payoff_tp": 1.0, "cost_fp": 1.0},
        "groups": [
            {"id": "a1", "proportion": 0.5, "cost": {"kind": "uniform01"}},
            {"id": "a2", "proportion": 0.5, "cost": {"kind": "uniform01"}},
        ],
        "features": {
            "variant": "uniform_threshold",
            "thresholds": {"a1": 0.4, "a2": 0.8},
        },
    }
    cfg.update(overrides)
    return cfg


def write_scenario(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_scenario_round_trip(tmp_path):
    cfg = uniform_scenario(
        seed=3,
        intervention={"decouple": True, "subsidy": {"group": "a2", "transform": {"shift": 0.05}}},
    )
    path = write_scenario(tmp_path, cfg)
    scenario = load_scenario(path)
    assert scenario.seed == 3
    assert scenario.decouple is True
    assert scenario.subsidy.group == "a2"
    serialized = scenario_to_config(scenario)
    # canonical form is a fixed point of parse -> serialize
    assert scenario_to_config(scenario_from_config(serialized)) == serialized
    effective = scenario.effective_groups()
    assert effective[1].cost.to_config()["kind"] == "shifted"
    assert effective[0].cost.to_config()["kind"] == "uniform01"


def _sorted_floats(lo, hi, min_size, max_size):
    return st.lists(
        st.floats(lo, hi), min_size=min_size, max_size=max_size, unique=True
    ).map(sorted)


_positive = st.floats(0.05, 3.0)


@st.composite
def _empirical_cost(draw):
    xs = draw(_sorted_floats(0.0, 2.0, 2, 5))
    ys = draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs) - 1, max_size=len(xs) - 1))
    return {"kind": "empirical", "knots": [[x, y] for x, y in zip(xs, sorted(ys) + [1.0])]}


_bounds = {"lo": st.floats(0.0, 0.4), "hi": st.floats(0.6, 1.5)}
_costs = st.recursive(
    st.one_of(
        st.just({"kind": "uniform01"}),
        st.fixed_dictionaries(
            {"kind": st.just("truncated_normal"), "mu": st.floats(0.0, 1.0), "sigma": _positive},
            optional=_bounds,
        ),
        st.fixed_dictionaries(
            {
                "kind": st.just("bimodal_normal"), "mix": st.floats(0.0, 1.0),
                "mu1": st.floats(0.0, 1.0), "sigma1": _positive,
                "mu2": st.floats(0.0, 1.0), "sigma2": _positive,
            },
            optional=_bounds,
        ),
        _empirical_cost(),
    ),
    lambda base: st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("shifted"), "base": base, "delta": st.floats(0.0, 0.5)}
        ),
        st.fixed_dictionaries(
            {"kind": st.just("scaled"), "base": base, "factor": st.floats(1.0, 3.0)}
        ),
    ),
    max_leaves=3,
)
_score_curve = st.one_of(
    st.fixed_dictionaries({"alpha": st.floats(0.5, 8.0), "beta": st.floats(0.5, 8.0)}),
    st.tuples(_sorted_floats(0.01, 0.99, 0, 3), st.lists(st.floats(0.0, 1.0), max_size=3)).map(
        lambda t: {
            "knots": [[0.0, 0.0]]
            + [[x, y] for x, y in zip(t[0], sorted(t[1]))]
            + [[1.0, 1.0]]
        }
    ),
)
_dynamics = st.fixed_dictionaries(
    {},
    optional={
        "mode": st.sampled_from(["joint", "decoupled"]),
        "max_iters": st.integers(1, 1000),
        "fix_tol": st.floats(1e-12, 1e-3),
        "cycle_window": st.integers(2, 100),
        "perturb_eps": st.floats(1e-8, 1e-2),
        "theta_grid": st.integers(3, 2001),
        "tie_tol": st.floats(1e-12, 1e-3),
    },
)


@st.composite
def scenario_configs(draw):
    """Valid scenario configs over every feature variant, every cost kind
    (nested shifted/scaled ones included) and every optional field."""
    ids = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(ids), max_size=len(ids)))
    variant = draw(
        st.sampled_from(
            ["uniform_threshold", "score"] + (["gaussian_halfspace"] if len(ids) > 1 else [])
        )
    )
    if variant == "uniform_threshold":
        field = "thresholds"
        per_group = st.floats(0.05, 0.95)
    elif variant == "score":
        field = "groups"
        per_group = st.fixed_dictionaries({"y1": _score_curve, "y0": _score_curve})
    else:
        field = "vectors"
        dim = draw(st.integers(2, 3))
        per_group = st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)
    cfg = {
        "version": 1,
        "economy": {k: draw(_positive) for k in ("wage", "payoff_tp", "cost_fp")},
        "groups": [
            {"id": gid, "proportion": w / sum(weights), "cost": draw(_costs)}
            for gid, w in zip(ids, weights)
        ],
        "features": {"variant": variant, field: {gid: draw(per_group) for gid in ids}},
        "dynamics": draw(_dynamics),
        "seed": draw(st.integers(0, 2**32)),
    }
    intervention = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "decouple": st.booleans(),
                "subsidy": st.fixed_dictionaries(
                    {
                        "group": st.sampled_from(ids),
                        "transform": st.one_of(
                            st.fixed_dictionaries({"shift": st.floats(0.0, 0.5)}),
                            st.fixed_dictionaries({"scale": st.floats(1.0, 3.0)}),
                        ),
                    }
                ),
            },
        )
    )
    if intervention:
        cfg["intervention"] = intervention
    return cfg


# A vector whose squared entries underflow, next to another with the same
# direction: it must load as that direction and be refused as identical.
_TINY_VECTOR_CONFIG = uniform_scenario(
    economy={"wage": 1.0, "payoff_tp": 1.0, "cost_fp": 1.0},
    groups=[
        {"id": gid, "proportion": 1.0 / 3.0, "cost": {"kind": "uniform01"}} for gid in "abc"
    ],
    features={
        "variant": "gaussian_halfspace",
        "vectors": {"a": [0.0, 1.0], "b": [0.0, 6.947630497756243e-161], "c": [1.0, 0.0]},
    },
    dynamics={},
    seed=0,
)


@settings(max_examples=150, deadline=None)
@given(scenario_configs())
@example(_TINY_VECTOR_CONFIG)
def test_scenario_config_round_trips_over_drawn_configs(cfg):
    try:
        scenario = scenario_from_config(cfg)
    except ConfigurationError:
        # group proportions off by an ulp too many, or halfspace boundaries
        # that are zero, identical or opposite
        assume(False)
    serialized = json.loads(json.dumps(scenario_to_config(scenario)))
    again = scenario_from_config(serialized)
    assert again == scenario
    assert scenario_to_config(again) == serialized


def test_halfspace_vectors_load_across_the_float_range():
    def unit(vector):
        cfg = uniform_scenario(
            features={"variant": "gaussian_halfspace", "vectors": {"a1": vector, "a2": [1.0, 0.0]}}
        )
        return scenario_from_config(cfg).model.vector("a1").tolist()

    # squared entries that underflow, or overflow, leave the direction
    assert unit([0.0, 6.947630497756243e-161]) == [0.0, 1.0]
    assert unit([1e200, 1e200]) == unit([1.0, 1.0]) == pytest.approx([0.5**0.5] * 2, rel=1e-15)
    with pytest.raises(ConfigurationError, match="identical or opposite"):
        scenario_from_config(_TINY_VECTOR_CONFIG)
    for vector in ([0.0, 0.0], [-0.0, 0.0]):
        with pytest.raises(ConfigurationError, match="has no direction"):
            unit(vector)


def test_scenario_error_paths(tmp_path, capsys):
    from qualdyn import ParseError

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_scenario(str(bad_json))
    for version in (99, True, 1.0):  # True == 1 == 1.0 in Python
        with pytest.raises(ConfigurationError, match="version"):
            scenario_from_config(uniform_scenario(version=version))
    with pytest.raises(ConfigurationError, match="bogus: unknown field"):
        scenario_from_config(uniform_scenario(bogus=1))
    cfg = uniform_scenario()
    cfg["groups"][0]["cost"] = {"kind": "mystery"}
    with pytest.raises(ConfigurationError, match=r"groups\[0\].cost.kind"):
        scenario_from_config(cfg)
    cfg = uniform_scenario()
    cfg["intervention"] = {"subsidy": {"group": "zz", "transform": {"shift": 0.05}}}
    with pytest.raises(ConfigurationError, match="intervention.subsidy.group"):
        scenario_from_config(cfg)
    cfg = uniform_scenario()
    cfg["intervention"] = {"subsidy": {"group": "a1", "transform": {"shift": -0.1}}}
    with pytest.raises(ConfigurationError, match="transform.shift"):
        scenario_from_config(cfg)
    # Numbers must be finite JSON numbers. Each bad value is written into the
    # file's text, where 1e999 overflows to inf, and is named by its path.
    cfg = uniform_scenario(
        economy={"wage": "WAGE", "payoff_tp": "PAYOFF"},
        intervention={"subsidy": {"group": "a1", "transform": {"shift": "SHIFT"}}},
    )
    cfg["groups"][0]["proportion"] = "PROPORTION"
    good = {"WAGE": "0.6", "PAYOFF": "1", "PROPORTION": "0.5", "SHIFT": "0.05"}
    for name, bad, where in (
        ("WAGE", "1e999", "economy.wage"),
        ("WAGE", "1" + "0" * 400, "economy.wage"),  # an int beyond the float range
        ("PAYOFF", "true", "economy.payoff_tp"),
        ("PROPORTION", "1e999", r"groups\[0\].proportion"),
        ("SHIFT", "1e999", "intervention.subsidy.transform.shift"),
    ):
        text = json.dumps(cfg)
        for key, value in {**good, name: bad}.items():
            text = text.replace(f'"{key}"', value)
        path = tmp_path / "bad-number.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"{where}: expected a finite number"):
            load_scenario(str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert "intervention.subsidy.transform.shift: expected a finite number" in (
        capsys.readouterr().err
    )


def test_run_writes_trace_and_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, uniform_scenario())
    code = main(["run", "--config", path, "--init", "0.6,0.3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["t"] == 0
    assert records[-1]["verdict"] == "FixedPoint"
    assert records[-1]["state"]["a1"] == pytest.approx(0.6, abs=1e-9)
    assert records[-1]["state"]["a2"] == pytest.approx(0.3, abs=1e-9)


def test_run_out_file_and_summary(tmp_path, capsys):
    path = write_scenario(tmp_path, uniform_scenario())
    out = tmp_path / "trace.jsonl"
    code = main(["run", "--config", path, "--init", "0.6,0.3", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "verdict: FixedPoint" in stdout
    assert str(out) in stdout
    first = json.loads(out.read_text().splitlines()[0])
    assert first["t"] == 0


def test_run_exit_two_when_budget_exhausted(tmp_path, capsys):
    cfg = uniform_scenario(dynamics={"max_iters": 1})
    path = write_scenario(tmp_path, cfg)
    code = main(["run", "--config", path, "--init", "0.9,0.9"])
    assert code == 2
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["verdict"] == "NonConverged"


def test_run_rejects_bad_init(tmp_path, capsys):
    path = write_scenario(tmp_path, uniform_scenario())
    assert main(["run", "--config", path, "--init", "2.0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--config", path, "--init", "0.5,0.5,0.5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    # JSON has no NaN or Infinity; a cost mean of NaN must not run.
    cfg = uniform_scenario()
    cfg["groups"][0]["cost"] = {"kind": "truncated_normal", "mu": float("nan"), "sigma": 0.1}
    path = write_scenario(tmp_path, cfg)
    assert main(["run", "--config", path]) == 1
    assert "NaN is not a JSON number" in capsys.readouterr().err
    for constant in ("Infinity", "-Infinity"):
        bad.write_text(json.dumps(uniform_scenario()).replace("0.6", constant, 1))
        assert main(["run", "--config", str(bad)]) == 1
        assert f"{constant} is not a JSON number" in capsys.readouterr().err


def test_sweep_grid_output_and_determinism(tmp_path, capsys):
    path = write_scenario(tmp_path, uniform_scenario())
    assert main(["sweep", "--config", path, "--grid", "3", "--decoupled"]) == 0
    first = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(first)))
    assert rows[0] == [
        "init",
        "joint_pi_a1", "joint_pi_a2", "joint_verdict",
        "decoupled_pi_a1", "decoupled_pi_a2", "decoupled_verdict",
        "delta_a1", "delta_a2",
    ]
    assert len(rows) == 4
    for row in rows[1:]:
        # decoupling never lowers a group's settled rate here
        assert float(row[7]) >= -1e-9
        assert float(row[8]) >= -1e-9
    assert main(["sweep", "--config", path, "--grid", "3", "--decoupled"]) == 0
    assert capsys.readouterr().out == first


# The README scenario's decoupled scans, byte for byte. `find --decoupled`
# meets 42 plateau states that no cut reproduces (a group at pi = 1, say).
README_FIND_DECOUPLED = """\
equilibria (decoupled scan):
  eq1        FixedPoint  Unstable     residual=0          theta=a1:1 a2:1        pi: a1=0 a2=0
  eq2        FixedPoint  Unstable     residual=0          theta=a1:1 a2:0.8      pi: a1=0 a2=0.6
  eq3        FixedPoint  Unstable     residual=0          theta=a1:0.4 a2:1      pi: a1=0.6 a2=0
  eq4        FixedPoint  Stable       residual=0          theta=a1:0.4 a2:0.8    pi: a1=0.6 a2=0.6
"""
README_SWEEP_DECOUPLED = """\
init,joint_pi_a1,joint_pi_a2,joint_verdict,decoupled_pi_a1,decoupled_pi_a2,decoupled_verdict,delta_a1,delta_a2
0.0,0.0,0.0,FixedPoint,0.0,0.0,FixedPoint,0.0,0.0
0.1,0.19999999999999996,0.6,FixedPoint,0.6,0.6,FixedPoint,0.4,0.0
0.2,0.19999999999999996,0.6,FixedPoint,0.6,0.6,FixedPoint,0.4,0.0
0.30000000000000004,0.19999999999999996,0.6,FixedPoint,0.6,0.6,FixedPoint,0.4,0.0
0.4,0.19999999999999996,0.6,FixedPoint,0.6,0.6,FixedPoint,0.4,0.0
0.5,0.6,0.3,FixedPoint,0.6,0.6,FixedPoint,0.0,0.3
0.6000000000000001,0.6,0.3,FixedPoint,0.6,0.6,FixedPoint,0.0,0.3
0.7000000000000001,0.6,0.3,FixedPoint,0.6,0.6,FixedPoint,0.0,0.3
0.8,0.6,0.3,FixedPoint,0.6,0.6,FixedPoint,0.0,0.3
0.9,0.6,0.3,FixedPoint,0.6,0.6,FixedPoint,0.0,0.3
1.0,0.6,0.3,FixedPoint,0.6,0.6,FixedPoint,0.0,0.3
"""


def test_readme_scenario_decoupled_scans_keep_their_bytes(tmp_path, capsys):
    cfg = uniform_scenario(dynamics={"max_iters": 500, "fix_tol": 1e-9})
    path = write_scenario(tmp_path, cfg)
    assert main(["find", "--config", path, "--decoupled"]) == 0
    assert capsys.readouterr().out == README_FIND_DECOUPLED
    assert main(["sweep", "--config", path, "--grid", "11", "--decoupled"]) == 0
    assert capsys.readouterr().out == README_SWEEP_DECOUPLED


def test_sweep_explicit_starts_use_per_group_columns(tmp_path, capsys):
    path = write_scenario(tmp_path, uniform_scenario())
    code = main(["sweep", "--config", path, "--init", "0.6,0.3;0.2,0.6"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:2] == ["init_a1", "init_a2"]
    assert len(rows) == 3
    assert float(rows[1][2]) == pytest.approx(0.6, abs=1e-9)
    assert float(rows[2][3]) == pytest.approx(0.6, abs=1e-9)


def test_sweep_rejects_tiny_grid(tmp_path, capsys):
    path = write_scenario(tmp_path, uniform_scenario())
    assert main(["sweep", "--config", path, "--grid", "1"]) == 1
    assert "at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
def test_find_rejects_tiny_grid(tmp_path, capsys, grid):
    # 0 used to fall back to the default grid, 1 to scan the start (0, 0)
    # alone, and -3 to end in numpy's traceback
    path = write_scenario(tmp_path, uniform_scenario())
    assert main(["find", "--config", path, "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid must be an integer >= 2, got {grid}\n"


def test_find_and_fit_reject_a_negative_seed(tmp_path, capsys):
    path = write_scenario(tmp_path, uniform_scenario())
    hist_path = tmp_path / "hist.csv"
    hist_path.write_text("group,label,score,count\na,1,0.5,3\na,0,0.5,3\n")
    for argv in (
        ["find", "--config", path, "--seed", "-1"],
        ["fit", str(hist_path), "--resample", "2000", "--seed", "-1"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed: expected a non-negative integer, got -1\n"


def test_find_cross_checks_closed_forms(tmp_path, capsys):
    path = write_scenario(tmp_path, uniform_scenario())
    assert main(["find", "--config", path, "--grid", "5"]) == 0
    out = capsys.readouterr().out
    assert "equilibria (joint scan):" in out
    assert "closed forms (residual" in out
    for label in ("h1", "h2", "h_mid"):
        assert label in out
    worst = float(out.rsplit("max closed-form discrepancy:", 1)[1].strip())
    assert worst <= 1e-6


def test_find_notes_when_closed_forms_refuse(tmp_path, capsys):
    cfg = uniform_scenario(economy={"wage": 0.6, "payoff_tp": 2.0, "cost_fp": 1.0})
    path = write_scenario(tmp_path, cfg)
    assert main(["find", "--config", path, "--grid", "4"]) == 0
    out = capsys.readouterr().out
    assert "closed forms unavailable: balanced-economy condition fails" in out

    knife = {
        "version": 1,
        "economy": {"wage": 0.8, "payoff_tp": 1.0, "cost_fp": 1.0},
        "groups": [
            {"id": "g1", "proportion": 0.5, "cost": {"kind": "uniform01"}},
            {"id": "g2", "proportion": 0.5, "cost": {"kind": "uniform01"}},
        ],
        "features": {
            "variant": "gaussian_halfspace",
            "vectors": {"g1": [1.0, 0.0], "g2": [0.0, 1.0]},
        },
        "dynamics": {"max_iters": 60},
    }
    path = write_scenario(tmp_path, knife, name="knife.json")
    assert main(["find", "--config", path, "--grid", "4"]) == 0
    out = capsys.readouterr().out
    assert "closed forms unavailable: payoff_tp equals cost_fp" in out


def test_fit_emits_a_loadable_feature_block(tmp_path, capsys):
    edges = np.linspace(0.0, 1.0, 21)
    lines = ["group,label,score,count"]
    for label, (a, b) in ((1, (5.0, 2.0)), (0, (2.0, 5.0))):
        masses = np.diff(stats.beta.cdf(edges, a, b))
        counts = np.round(masses * 100_000).astype(int)
        lines += [f"g,{label},{edges[i]:.6f},{counts[i]}" for i in range(20)]
    hist_path = tmp_path / "hist.csv"
    hist_path.write_text("\n".join(lines) + "\n")

    assert main(["fit", str(hist_path)]) == 0
    captured = capsys.readouterr()
    block = json.loads(captured.out)
    assert "alpha=" in captured.err  # diagnostics go to stderr
    model = features.from_config(block, ("g",))
    scores = model.scores("g")
    assert scores.y1.alpha == pytest.approx(5.0, abs=0.05)
    assert scores.y0.beta == pytest.approx(5.0, abs=0.05)

    # resampled variant is seeded and still loadable
    assert main(["fit", str(hist_path), "--resample", "2000", "--seed", "5"]) == 0
    block = json.loads(capsys.readouterr().out)
    features.from_config(block, ("g",))


def test_fit_requires_both_labels(tmp_path, capsys):
    hist_path = tmp_path / "half.csv"
    hist_path.write_text(
        "group,label,score,count\ng,1,0.0,50\ng,1,0.25,100\ng,1,0.5,200\ng,1,0.75,100\n"
    )
    assert main(["fit", str(hist_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_suite_pass_and_unknown(tmp_path, capsys):
    assert main(["verify", "near-realizable"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "suite near-realizable:" in out
    assert main(["verify", "nosuchsuite"]) == 1
    assert "unknown verification suite" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qualdyn.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "verify" in proc.stdout


def test_loading_a_uniform_scenario_leaves_scipy_special_unimported(tmp_path):
    # Only Beta scores and the fitters need scipy.special, and it is about
    # half of the package's import time; a fresh process shows what loads it.
    path = write_scenario(tmp_path, uniform_scenario())
    code = (
        "import sys, qualdyn.cli as cli; cli.load_scenario(sys.argv[1]); "
        "print('scipy.special' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code, path], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# `find` on the reference scenarios in tests/golden, byte for byte. The
# expected files were printed by the scan that ran every start in full, so
# any shortcut in the scan that moves a printed byte fails here. The score
# anchor's two files were printed by the theta-curve scan, whose residuals
# differ from the Phi grid's in their last digits; the weak-MLR score
# scenario (b1 = b0) takes the Phi grid, and its file was printed before
# the theta-curve existed.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FINDS = [
    ("uniform.json", [], "uniform.find.txt"),
    ("uniform.json", ["--decoupled"], "uniform.find-decoupled.txt"),
    ("halfspace_pair.json", [], "halfspace_pair.find.txt"),
    ("halfspace_cycle.json", [], "halfspace_cycle.find.txt"),
    ("two_valley.json", ["--grid", "5"], "two_valley.find-grid5.txt"),
    ("two_valley.json", ["--decoupled", "--grid", "11"], "two_valley.find-decoupled-grid11.txt"),
    ("uniform_three.json", [], "uniform_three.find.txt"),
    ("score_anchor.json", ["--grid", "101"], "score_anchor.find-grid101.txt"),
    ("score_anchor.json", [], "score_anchor.find.txt"),
    ("score_weak_mlr.json", [], "score_weak_mlr.find.txt"),
]


def assert_matches_golden(out: str, name: str) -> None:
    """Compare out with the golden file `name`: line by line first, naming
    the first line that differs, then byte for byte, which also checks line
    endings and the final newline. Neither failure prints the whole texts,
    whose diff pytest can take minutes to render."""
    expected = (GOLDEN / name).read_text()
    lines, golden = out.splitlines(), expected.splitlines()
    for i, (line, want) in enumerate(zip(lines, golden)):
        if line != want:
            pytest.fail(f"{name}, line {i + 1} differs:\n  got      {line!r}\n  expected {want!r}")
    if len(lines) != len(golden):
        pytest.fail(f"{name}: {len(lines)} lines printed, {len(golden)} expected")
    if out != expected:
        pytest.fail(f"{name}: every line matches, but the line endings differ")


@pytest.mark.parametrize(
    "scenario, extra, expected", GOLDEN_FINDS, ids=[case[2] for case in GOLDEN_FINDS]
)
def test_find_prints_the_golden_output(capsys, scenario, extra, expected):
    assert main(["find", "--config", str(GOLDEN / scenario), *extra]) == 0
    assert_matches_golden(capsys.readouterr().out, expected)


# `run` on reference scenarios, byte for byte: the JSONL trace, its summary
# and the exit code. The score anchor's run from 0.5 is a 500-step
# NonConverged orbit (exit code 2), so any moved ulp in the solver shows.
GOLDEN_RUNS = [
    ("uniform.json", [], "uniform.run.jsonl", 0),
    ("halfspace_cycle.json", ["--init", "0.7,0.2"], "halfspace_cycle.run-init.jsonl", 0),
    ("score_anchor.json", [], "score_anchor.run.jsonl", 2),
]


@pytest.mark.parametrize(
    "scenario, extra, expected, code", GOLDEN_RUNS, ids=[case[2] for case in GOLDEN_RUNS]
)
def test_run_prints_the_golden_trace(capsys, scenario, extra, expected, code):
    assert main(["run", "--config", str(GOLDEN / scenario), *extra]) == code
    assert_matches_golden(capsys.readouterr().out, expected)


def test_repeated_main_calls_carry_no_state(capsys):
    # main reuses one parser for every call in a process; no parse may leave
    # an error, an option value or a subcommand behind for the next one.
    assert build_parser() is build_parser()
    assert main(["find", "--grid", "5"]) == 1
    assert "qualdyn find: error:" in capsys.readouterr().err
    assert main(["find", "--config", str(GOLDEN / "two_valley.json"), "--grid", "5"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "two_valley.find-grid5.txt").read_text()
    # the default grid (21), not the 5 of the call before
    assert main(["find", "--config", str(GOLDEN / "halfspace_pair.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "halfspace_pair.find.txt").read_text()
    assert main(["run", "--config", str(GOLDEN / "uniform.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "uniform.run.jsonl").read_text()


def test_find_logs_nothing_under_the_default_logging_config():
    # The scan's DEBUG record stays off unless a caller enables it, whether
    # or not the process has imported logging.
    path = str(GOLDEN / "halfspace_cycle.json")
    for prelude in ("", "import logging; "):
        code = f"{prelude}import sys, qualdyn.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, "find", "--config", path],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (GOLDEN / "halfspace_cycle.find.txt").read_text()


def three_halfspace_scenario(**overrides):
    cfg = {
        "version": 1,
        "economy": {"wage": 0.8, "payoff_tp": 2.0, "cost_fp": 1.0},
        "groups": [
            {"id": g, "proportion": n, "cost": {"kind": "uniform01"}}
            for g, n in (("g1", 0.4), ("g2", 0.3), ("g3", 0.3))
        ],
        "features": {
            "variant": "gaussian_halfspace",
            "vectors": {"g1": [1, 0, 0], "g2": [0, 2, 0], "g3": [0, 3, 4]},
        },
    }
    cfg.update(overrides)
    return cfg


def test_run_writes_halfspace_rules_of_three_groups_as_vectors(tmp_path, capsys):
    # Three boundaries have no arc between two of them, so a decoupled rule
    # is written as the group's unit boundary itself.
    cfg = three_halfspace_scenario(intervention={"decouple": True})
    path = write_scenario(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    boundaries = {"g1": [1.0, 0.0, 0.0], "g2": [0.0, 1.0, 0.0], "g3": [0.0, 0.6, 0.8]}
    assert [r["theta"] for r in records[1:-1]] == [boundaries] * (len(records) - 2)
    assert records[-1]["verdict"] == "FixedPoint"
    assert main(["find", "--config", path, "--grid", "3"]) == 0
    assert "theta=g1:(1,0,0) g2:(0,1,0) g3:(0,0.6,0.8)" in capsys.readouterr().out


def test_three_halfspace_groups_run_only_decoupled_and_say_how(tmp_path, capsys):
    # The joint halfspace rule covers two groups; the error names both ways
    # to run the scenario decoupled.
    hint = '--decoupled, or set "intervention": {"decouple": true}'
    joint = write_scenario(tmp_path, three_halfspace_scenario(), "joint.json")
    decoupled = write_scenario(
        tmp_path, three_halfspace_scenario(intervention={"decouple": True}), "decoupled.json"
    )
    for command in (["find", "--grid", "3"], ["run"]):
        assert main([*command, "--config", joint]) == 1
        err = capsys.readouterr().err
        assert "supports exactly two groups" in err and hint in err
        assert main([*command, "--config", joint, "--decoupled"]) == 0
        assert main([*command, "--config", decoupled]) == 0
        capsys.readouterr()
    # sweep runs the joint rule beside the decoupled one, so it always fails
    for path, extra in ((joint, []), (joint, ["--decoupled"]), (decoupled, [])):
        assert main(["sweep", "--config", path, "--grid", "2", *extra]) == 1
        assert hint in capsys.readouterr().err
