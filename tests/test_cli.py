import csv
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import xroad
from analytic_helpers import fail_alpha, success_probability
from xroad import analytic, cli, sweep
from xroad.config import (ConfigError, load_config, parse_scenario,
                          parse_sim, parse_sweep, sim_section)
from xroad.model import LOS
from xroad.montecarlo import SimConfig, estimate


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "channel": {"preset": "NLOS"},
        "geometry": {"d": 0.0, "theta": 0.0},
        "link": {"r": 20.0},
        "layout": {"lanes_x": [0.0], "lanes_y": [0.0],
                   "lambda_x": 0.01, "lambda_y": 0.01},
        "aloha_p": 0.5,
        "sir_threshold_db": 0.0,
        "sim": {"trials": 300, "seed": 7},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ------------------------------------------------------------------- config

def test_parse_scenario_roundtrip(tmp_path):
    path = write_config(tmp_path)
    raw = load_config(path)
    scenario = parse_scenario(raw)
    assert scenario.channel.alpha == 4.0
    assert scenario.theta_threshold == pytest.approx(1.0)
    sim = parse_sim(raw.get("sim", {}))
    assert sim.trials == 300 and sim.master_seed == 7


def test_parse_scenario_threshold_db_conversion(tmp_path):
    raw = load_config(write_config(tmp_path, sir_threshold_db=3.0))
    assert parse_scenario(raw).theta_threshold == pytest.approx(10 ** 0.3)


def test_channel_preset_and_explicit_forms(tmp_path):
    raw = load_config(write_config(tmp_path, channel={"preset": "LOS"}))
    assert parse_scenario(raw).channel == LOS
    raw = load_config(write_config(
        tmp_path, channel={"alpha": 3.0, "m": 2, "mu": 0.5}))
    ch = parse_scenario(raw).channel
    assert (ch.alpha, ch.m, ch.mu) == (3.0, 2, 0.5)


@pytest.mark.parametrize("mutation,fragment", [
    (dict(channel={"preset": "FOO"}), "preset"),
    (dict(channel={"alpha": 4.0, "m": 2.5}), "channel.m must be an integer"),
    (dict(aloha_p="high"), "must be a number"),
    (dict(typo_key=1), "unknown key 'typo_key'"),
    (dict(layout={"lambda_q": 1}), "unknown key 'lambda_q'"),
    (dict(sir_threshold_db=4000), "sir_threshold_db"),  # overflows
])
def test_config_errors_name_the_field(tmp_path, mutation, fragment):
    raw = load_config(write_config(tmp_path, **mutation))
    with pytest.raises(ConfigError, match=fragment):
        parse_scenario(raw)


@pytest.mark.parametrize("axis,value,fragment", [
    ("threshold_db", 4000.0, "threshold_db values"),
    ("lanes", math.inf, "finite"),
    ("lanes", math.nan, "finite"),
    ("density", math.nan, "finite"),
])
def test_unusable_sweep_values_exit_2(tmp_path, capsys, axis, value,
                                      fragment):
    # json writes inf and nan as Infinity and NaN, which json.load accepts.
    path = write_config(tmp_path, sweep={"axis": axis, "values": [1.0, value]})
    code = cli.main(["sweep", "--config", str(path), "--engine", "analytic",
                     "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: sweep:" in err and fragment in err
    assert not (tmp_path / "o.csv").exists()


def test_parse_sweep_section(tmp_path):
    raw = load_config(write_config(tmp_path, sweep={
        "axis": "density",
        "values": [0.001, 0.01],
        "variants": [{"label": "LOS", "channel": {"preset": "LOS"}}],
    }))
    spec = parse_sweep(raw["sweep"], parse_scenario(raw))
    assert spec.axis == "density"
    assert spec.engines == sweep.ENGINES
    assert spec.variants[0].channel == LOS


def test_parse_sweep_rejects_unknown_axis(tmp_path):
    raw = load_config(write_config(tmp_path, sweep={
        "axis": "bogus", "values": [1.0]}))
    with pytest.raises(ConfigError, match="sweep.axis"):
        parse_sweep(raw["sweep"], parse_scenario(raw))


def test_package_exports_leave_out_the_closed_forms():
    # The closed forms stay in xroad.analytic, where the tests use them.
    closed = {"laplace_closed_alpha2", "laplace_closed_alpha4",
              "UnsupportedExponentError"}
    assert not closed & set(xroad.__all__)
    assert all(hasattr(xroad, name) for name in xroad.__all__)


# ---------------------------------------------------------------------- CLI

def test_point_reports_zero_outage_for_empty_field(tmp_path, capsys):
    path = write_config(tmp_path, layout={
        "lanes_x": [0.0], "lanes_y": [0.0], "lambda_x": 0.0, "lambda_y": 0.0})
    code = cli.main(["point", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "outage (analytic)      0.000000" in out


@pytest.mark.parametrize("lam,outage", [(0.01, "1.000000"),
                                         (0.0, "0.000000")])
def test_point_with_overflowed_laplace_argument(tmp_path, capsys, lam,
                                                outage):
    # +3000 dB at r = 1e6 m, alpha = 4: m*Theta/(mu*l_SD) overflows to inf.
    # Any interferer then puts the link in outage; an empty field never does.
    path = write_config(tmp_path, link={"r": 1e6}, sir_threshold_db=3000,
                        layout={"lanes_x": [0.0], "lanes_y": [0.0],
                                "lambda_x": lam, "lambda_y": lam})
    code = cli.main(["point", "--config", str(path), "--engine", "analytic"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"outage (analytic)      {outage}" in out


def test_point_with_underflowed_mu_times_path_loss(tmp_path, capsys):
    # mu = 1e-300 at r = 1e10 m, alpha = 4: mu * l_SD = 1e-340 would
    # underflow to 0, while m*Theta/mu/l_SD overflows to inf, and both
    # engines read certain outage.
    path = write_config(tmp_path, channel={"alpha": 4.0, "m": 1,
                                           "mu": 1e-300},
                        link={"r": 1e10})
    assert cli.main(["point", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "outage (analytic)      1.000000" in out
    assert "outage (monte-carlo)   1.000000 " in out


def test_point_general_alpha_at_huge_laplace_argument(tmp_path, capsys):
    # +3000 dB with alpha = 3 and D off the road: s = 8e303 is finite.  A
    # lower bound on J(s; h) alone puts exp(x_0) below underflow, so the
    # link is in outage without any quadrature.
    path = write_config(tmp_path, channel={"alpha": 3.0, "m": 1},
                        geometry={"d": 100.0, "theta": 0.3},
                        sir_threshold_db=3000)
    code = cli.main(["point", "--config", str(path), "--engine", "analytic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outage (analytic)      1.000000" in out


def test_point_analytic_only(tmp_path, capsys):
    path = write_config(tmp_path)
    code = cli.main(["point", "--config", str(path), "--engine", "analytic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "monte-carlo" not in out


def test_point_invalid_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, channel={"alpha": 4.0, "m": 2.5})
    code = cli.main(["point", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "channel.m must be an integer" in err


@pytest.mark.parametrize("mutation,field", [
    (dict(channel={"alpha": 4.0, "m": math.nan}), "channel.m"),
    (dict(channel={"alpha": 4.0, "m": math.inf}), "channel.m"),
    (dict(sim={"trials": math.inf}), "sim.trials"),
    (dict(sim={"trials": 1.5}), "sim.trials"),
    (dict(sim={"seed": math.nan}), "sim.seed"),
    (dict(sim={"seed": 2.5}), "sim.seed"),
])
def test_config_integers_must_be_integral(tmp_path, capsys, mutation, field):
    # json writes inf and nan as Infinity and NaN, which json.load accepts.
    path = write_config(tmp_path, **mutation)
    assert cli.main(["point", "--config", str(path)]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err


HUGE = 10 ** 400  # json writes it as a 401-digit integer literal


@pytest.mark.parametrize("command,mutation,field", [
    ("point", dict(channel={"alpha": HUGE, "m": 2}), "channel.alpha"),
    ("point", dict(layout={"lanes_x": [0.0, HUGE], "lambda_x": 0.01}),
     "layout.lanes_x[1]"),
    ("sweep", dict(sweep={"axis": "density", "values": [0.01, HUGE]}),
     "sweep.values[1]"),
])
def test_huge_json_integers_exit_2(tmp_path, capsys, command, mutation,
                                   field):
    path = write_config(tmp_path, **mutation)
    code = cli.main([command, "--config", str(path), "--engine", "analytic",
                     "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {field} is an integer too large" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("text,fragment", [
    ("9" * 4400, "4300 digits"),  # json.load parses it with int()
    ("\udcff", "can't decode byte 0xff"),
    ("[" * 100000 + "]" * 100000, "maximum recursion depth"),
], ids=["4400-digit integer", "not UTF-8", "nested too deep"])
def test_unparsable_config_exits_2(tmp_path, capsys, text, fragment):
    path = write_config(tmp_path, channel={"alpha": 3.3, "m": "M"})
    path.write_bytes(path.read_text().replace('"M"', text).encode(
        errors="surrogateescape"))
    assert cli.main(["point", "--config", str(path), "--engine",
                     "analytic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config cannot be parsed: ")
    assert fragment in err


def test_integral_floats_are_accepted(tmp_path):
    raw = load_config(write_config(tmp_path, channel={"alpha": 4.0, "m": 3.0},
                                   sim={"trials": 300.0, "seed": 7.0}))
    assert parse_scenario(raw).channel.m == 3
    sim = parse_sim(raw["sim"])
    assert (sim.trials, sim.master_seed) == (300, 7)


def test_sim_section_round_trips_through_parse_sim():
    assert parse_sim({}) == SimConfig()
    for sim in (SimConfig(), SimConfig(trials=7, half_length=250.5,
                                       master_seed=2 ** 63, confidence=0.9)):
        assert parse_sim(sim_section(sim)) == sim
        assert parse_sim(json.loads(json.dumps(sim_section(sim)))) == sim


def test_point_bad_sim_values_exit_2(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["point", "--config", str(path), "--trials", "0"]) == 2
    path = write_config(tmp_path, sim={"trials": 100, "confidence": 1.5})
    assert cli.main(["point", "--config", str(path)]) == 2


def test_confidence_that_rounds_the_quantile_to_1_exits_2(tmp_path, capsys):
    # (1 + c)/2 rounds to 1 at the largest double below 1: the Monte-Carlo
    # engine failed on it with exit 3 instead of the config error.
    path = write_config(tmp_path, sim={"trials": 100,
                                       "confidence": 0.9999999999999999})
    assert cli.main(["point", "--config", str(path), "--engine", "mc"]) == 2
    assert capsys.readouterr().err == (
        "config error: sim: confidence must lie in (0, 1)\n")


def test_point_numeric_failure_exit_3(tmp_path, capsys, monkeypatch):
    # An analytic engine that fails at alpha = 1.05.  The failed point
    # writes no CSV, and checking --out leaves no file behind.
    fail_alpha(monkeypatch, 1.05)
    path = write_config(tmp_path, channel={"alpha": 1.05, "m": 1},
                        geometry={"d": 50.0, "theta": 0.5})
    out = tmp_path / "o.csv"
    code = cli.main(["point", "--config", str(path), "--engine", "analytic",
                     "--out", str(out)])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_point_prints_the_engine_that_ran_before_the_error(
        tmp_path, capsys, monkeypatch):
    # The analytic engine fails; the Monte-Carlo estimate it ran next to is
    # still printed, then the error, and the failed point writes no CSV.
    fail_alpha(monkeypatch, 3.3)
    path = write_config(tmp_path, channel={"alpha": 3.3, "m": 3},
                        geometry={"d": 50.0, "theta": 0.5})
    out = tmp_path / "g.csv"
    code = cli.main(["point", "--config", str(path), "--engine", "both",
                     "--trials", "2048", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "outage (analytic)" not in captured.out
    assert "outage (monte-carlo)" in captured.out
    assert "2048 trials" in captured.out
    assert "throughput (mc)" in captured.out
    assert captured.err.startswith("numeric error: analytic: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_large_alpha_off_the_lane_evaluates(tmp_path, capsys):
    # Both points failed when the integrand formed (s + a)^(k+1).  At
    # alpha = 100, a(u) itself overflows a float inside the first window,
    # where the integrands take y = s/(s + a) = 0.  2^17 trials put the
    # Monte-Carlo stderr near 6e-5 and 9e-4.
    for alpha, m, theta in ((10.0, 9, 0.5), (100.0, 3, 0.3)):
        path = write_config(tmp_path, channel={"alpha": alpha, "m": m},
                            geometry={"d": 50.0, "theta": theta})
        assert cli.main(["point", "--config", str(path),
                         "--engine", "analytic"]) == 0
        sc = parse_scenario(load_config(path))
        outage = analytic.outage_probability(sc).outage_prob
        assert (f"outage (analytic)      {outage:.6f}"
                in capsys.readouterr().out)
        est = estimate(sc, SimConfig(trials=2 ** 17, master_seed=7))
        assert abs(outage - est.p_hat) <= 4.0 * est.stderr, alpha


@pytest.mark.parametrize("link,alpha", [(20.0, 1000.0), (1e-300, 3.0)])
def test_link_path_loss_outside_the_float_range_exits_2(tmp_path, capsys,
                                                       link, alpha):
    # r^-alpha underflows to 0 (alpha = 1000) or overflows (r = 1e-300);
    # both engines divide by it.
    path = write_config(tmp_path, channel={"alpha": alpha, "m": 3},
                        link={"r": link})
    assert cli.main(["point", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: link path loss r^-alpha is not a positive normal "
        f"float at r = {link:g}, alpha = {alpha:g}\n")
    assert captured.out == ""


def test_m_beyond_the_cap_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, channel={"alpha": 4.0, "m": 101})
    assert cli.main(["point", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: Nakagami m = 101 exceeds the supported maximum of "
        "100\n")
    path = write_config(tmp_path, channel={"alpha": 4.0, "m": 100})
    assert cli.main(["point", "--config", str(path),
                     "--engine", "analytic"]) == 0


@pytest.mark.parametrize("key,value", [("trials", 2.5), ("seed", 1.5),
                                       ("trials", 0)])
def test_sim_section_is_validated_under_an_override(tmp_path, capsys, key,
                                                     value):
    # --trials and --seed replace the section's values only once those
    # have validated, so the override does not hide a bad config.
    path = write_config(tmp_path, sim={key: value})
    for override in ([], ["--trials", "100", "--seed", "3"]):
        assert cli.main(["point", "--config", str(path), "--engine", "mc"]
                        + override) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err


@pytest.mark.parametrize("key", ["half_length", "confidence"])
def test_sim_number_errors_carry_one_prefix(tmp_path, capsys, key):
    path = write_config(tmp_path, sim={key: "x"})
    assert cli.main(["point", "--config", str(path), "--engine", "mc"]) == 2
    assert capsys.readouterr().err == (
        f"config error: sim.{key} must be a number\n")


def test_infinite_half_length_exits_2(tmp_path, capsys):
    # 1e400 parses to inf, which the Poisson sampler refused as `lam value
    # too large`, exit 3.
    path = write_config(tmp_path, sim={"trials": 100, "half_length": 0})
    path.write_text(path.read_text().replace('"half_length": 0',
                                             '"half_length": 1e400'))
    assert cli.main(["point", "--config", str(path), "--engine", "mc"]) == 2
    assert capsys.readouterr().err == (
        "config error: sim: half_length must be positive and finite\n")


def test_a_lane_mean_beyond_the_poisson_range_fails_its_row(tmp_path,
                                                            capsys):
    # p * lambda * 2 * half_length = 0.5 * 0.01 * 2e300 = 1e298 interferers
    # per trial: the row fails and names that mean.
    path = write_config(tmp_path, sim={"trials": 100, "half_length": 1e300})
    assert cli.main(["point", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert "outage (analytic)" in captured.out
    assert "monte-carlo" not in captured.out
    assert captured.err == (
        "numeric error: montecarlo: a lane's mean interferer count per "
        "trial, p * lambda * 2 * half_length = 1e+298, is beyond the Poisson "
        "sampler's range (9.22337e+18)\n")


def test_point_writes_csv_and_metadata(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "point.csv"
    code = cli.main(["point", "--config", str(path), "--out", str(out),
                     "--trials", "200"])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "variant"
    meta = json.loads((tmp_path / "point.csv.meta.json").read_text())
    assert meta["config"]["sim"]["trials"] == 200
    assert meta["tool"] == "xroad"
    assert meta["versions"] == {"python": platform.python_version(),
                                "numpy": numpy.__version__}


def test_sweep_command_writes_rows(tmp_path, capsys):
    path = write_config(tmp_path, sweep={
        "axis": "density", "values": [0.005, 0.02],
        "variants": [{"label": "NLOS"}],
    })
    out = tmp_path / "o.csv"
    code = cli.main(["sweep", "--config", str(path), "--engine", "analytic",
                     "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 3
    assert (tmp_path / "o.csv.meta.json").exists()


def test_sweep_without_section_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    code = cli.main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_preset_configs_parse_and_validate():
    for name in cli.PRESETS:
        raw = cli._load_preset(name)
        scenario = parse_scenario(raw)
        spec = parse_sweep(raw["sweep"], scenario)
        assert spec.values
        sim = parse_sim(raw["sim"])
        assert sim.trials == 50_000


def test_preset_runs_with_overrides(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    code = cli.main(["preset", "fig4", "--out", str(out), "--trials", "120",
                     "--seed", "3", "--engine", "analytic"])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 1 + 6 * 2  # header + lanes 1..6 for LOS and NLOS


@pytest.mark.parametrize("command", ["preset", "sweep", "point"])
def test_sidecar_config_reproduces_the_csv(tmp_path, capsys, command):
    if command == "preset":
        argv = ["preset", "fig3", "--engine", "both", "--trials", "2048",
                "--seed", "5"]
    elif command == "point":
        argv = ["point", "--config", str(write_config(tmp_path)),
                "--trials", "1500", "--seed", "4"]
    else:
        path = write_config(tmp_path, sweep={
            "axis": "distance_d", "values": [0.0, 300.0],
            "variants": [{"label": "NLOS"},
                         {"label": "NLOS highway",
                          "layout": {"lanes_x": [0.0], "lanes_y": [],
                                     "lambda_x": 0.01, "lambda_y": 0.0}}],
        })
        argv = ["sweep", "--config", str(path), "--engine", "both"]
    out = tmp_path / "first.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    meta = json.loads((tmp_path / "first.csv.meta.json").read_text())
    rerun = tmp_path / "sidecar.json"
    rerun.write_text(json.dumps(meta["config"]))
    engine = next(flag for flag, engines in cli._ENGINE_CHOICES.items()
                  if list(engines) == meta["engines"])
    again = tmp_path / "again.csv"
    rerun_command = "point" if command == "point" else "sweep"
    assert cli.main([rerun_command, "--config", str(rerun), "--engine", engine,
                     "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()
    again_meta = json.loads((tmp_path / "again.csv.meta.json").read_text())
    assert again_meta["config"] == meta["config"]


@pytest.mark.parametrize("command", ["point", "sweep", "preset"])
def test_unwritable_out_is_config_error(tmp_path, capsys, monkeypatch,
                                        command):
    def engine_called(*args, **kwargs):
        pytest.fail("an engine ran before --out was checked")

    monkeypatch.setattr(analytic, "success_probabilities", engine_called)
    monkeypatch.setattr(sweep, "estimate_group", engine_called)
    path = write_config(tmp_path, sweep={"axis": "density",
                                         "values": [0.005]})
    out = tmp_path / "missing" / "o.csv"
    argv = (["preset", "fig3"] if command == "preset"
            else [command, "--config", str(path)])
    code = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"config error: cannot write {out}: "
                            "No such file or directory\n")
    assert captured.out == ""


def test_unwritable_sidecar_exits_2_and_leaves_no_csv(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "o.csv"
    (tmp_path / "o.csv.meta.json").mkdir()
    code = cli.main(["point", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert f"cannot write {out}.meta.json" in capsys.readouterr().err
    assert not out.exists()


def test_road_axis_sweep_without_an_active_road_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "channel": {"preset": "NLOS"}, "link": {"r": 20}, "aloha_p": 0.5,
        "sweep": {"axis": "density", "values": [0.001, 0.01, 0.1]}}))
    out = tmp_path / "o.csv"
    code = cli.main(["sweep", "--config", str(path), "--engine", "analytic",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(
        "config error: sweep: base density=0.001: no road has lanes and a "
        "positive intensity")
    assert "set lambda_x/lambda_y" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_failed_sweep_points_are_labeled_like_verify(tmp_path, capsys,
                                                     monkeypatch):
    # An analytic engine that fails at alpha = 1.05, at every lane count.
    fail_alpha(monkeypatch, 1.05)
    path = write_config(tmp_path, channel={"alpha": 1.05, "m": 1},
                        geometry={"d": 50.0, "theta": 0.5}, sweep={
                            "axis": "lanes", "values": [1, 3]})
    code = cli.main(["sweep", "--config", str(path), "--engine", "analytic",
                     "--out", str(tmp_path / "o.csv")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[0].endswith("(2 failed)")
    assert lines[1].startswith("  FAILED base lanes=1: analytic: ")
    assert lines[2].startswith("  FAILED base lanes=3: analytic: ")


def test_verify_small_grid_passes(tmp_path, capsys):
    # 49152 trials (48 blocks) puts every point's tolerance at the 0.01
    # floor; at a few thousand trials 3-sigma misses happen by chance.
    code = cli.main(["verify", "--trials", "49152", "--seed", "5",
                     "--workers", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--out", "v.csv"],
    ["verify", "--engine", "analytic"],
    ["preset", "fig3", "--config", "cfg.json"],
])
def test_options_a_subcommand_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_zero_trials_exit_2(capsys):
    # Zero is rejected, not replaced by the 50,000-trial default.
    assert cli.main(["verify", "--trials", "0"]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_verify_negative_trials_exit_2(capsys):
    assert cli.main(["verify", "--trials", "-5"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exit_2(tmp_path, capsys, workers):
    path = write_config(tmp_path)
    assert cli.main(["point", "--config", str(path),
                     "--workers", workers]) == 2
    assert cli.main(["verify", "--trials", "10", "--workers", workers]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err


def test_verify_custom_config(tmp_path, capsys):
    path = write_config(tmp_path, sweep={
        "axis": "density", "values": [0.005],
        "variants": [{"label": "NLOS"}],
    }, sim={"trials": 1500, "seed": 2})
    code = cli.main(["verify", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_config_engines_key_exits_2(tmp_path, capsys, command):
    # The command's --engine is the only engine selector.
    path = write_config(tmp_path, sweep={
        "axis": "density", "values": [0.005],
        "engines": ["analytic", "montecarlo"]})
    code = cli.main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown key 'engines' in sweep" in captured.err
    assert captured.out == ""


def test_verify_engine_failure_fails_only_its_point(tmp_path, capsys,
                                                    monkeypatch):
    # alpha = 1.05 with D off the lanes evaluates, to the value QUADPACK
    # gives (tests/analytic_helpers.py).
    point = write_config(tmp_path, name="a1.05.json",
                         channel={"alpha": 1.05, "m": 1},
                         geometry={"d": 50.0, "theta": 0.5})
    assert cli.main(["point", "--config", str(point),
                     "--engine", "analytic"]) == 0
    oracle = 1.0 - success_probability(parse_scenario(load_config(point)))
    assert (f"outage (analytic)      {oracle:.6f}"
            in capsys.readouterr().out)
    # An analytic engine that fails there: that point fails with the engine
    # named, the other passes.
    fail_alpha(monkeypatch, 1.05)
    path = write_config(tmp_path, geometry={"d": 50.0, "theta": 0.5}, sweep={
        "axis": "density", "values": [0.005],
        "variants": [{"label": "NLOS"},
                     {"label": "a1.05", "channel": {"alpha": 1.05, "m": 1}}],
    }, sim={"trials": 1500, "seed": 2})
    code = cli.main(["verify", "--config", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    nlos = next(ln for ln in lines if ln.startswith("NLOS density=0.005"))
    failed = next(ln for ln in lines if ln.startswith("a1.05 density=0.005"))
    assert nlos.endswith(" pass")
    assert "FAIL (analytic: interference integral did not converge" in failed
    assert lines[-1] == "overall: FAIL"


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_invalid_sweep_point_exits_2_before_any_engine(tmp_path, capsys,
                                                       monkeypatch, command):
    def engine_called(*args, **kwargs):
        pytest.fail("an engine ran before validation finished")

    monkeypatch.setattr(analytic, "success_probabilities", engine_called)
    monkeypatch.setattr(sweep, "estimate_group", engine_called)
    path = write_config(tmp_path, sweep={
        "axis": "aloha_p", "values": [0.2, 0.5, 1.5]})
    out = tmp_path / "o.csv"
    argv = [command, "--config", str(path)]
    if command == "sweep":
        argv += ["--out", str(out)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: sweep: base aloha_p=1.5: Aloha probability" \
        in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_validates_the_base_and_each_variant_once(tmp_path, capsys,
                                                        monkeypatch):
    # Parsing checks the sweep section; run_sweep validates the base and
    # each of the 4 variants of fig3 at its first value, once, before any
    # engine runs.  The other 28 points are checked by what the
    # distance_d axis can break, and none is.
    calls = []
    real = sweep.validate_scenario

    def counted(scenario):
        calls.append(scenario)
        return real(scenario)
    monkeypatch.setattr(sweep, "validate_scenario", counted)
    code = cli.main(["preset", "fig3", "--engine", "analytic",
                     "--out", str(tmp_path / "fig3.csv")])
    assert code == 0
    assert len(calls) == 5


def test_verify_config_judges_the_rows_sweep_writes(tmp_path, capsys):
    path = write_config(tmp_path, sweep={
        "axis": "aloha_p", "values": [0.2, 0.5],
        "variants": [{"label": "NLOS"},
                     {"label": "LOS", "channel": {"preset": "LOS"}}],
    }, sim={"trials": 2048, "seed": 0})
    out = tmp_path / "o.csv"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    cli.main(["verify", "--config", str(path)])
    lines = capsys.readouterr().out.splitlines()
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        label = f"{row['variant']} aloha_p={float(row['value']):g}"
        line = next(ln for ln in lines if ln.startswith(label + " "))
        assert line.split()[3] == f"{float(row['outage_mc']):.6f}"


#: Runs the CLI on its arguments in a new interpreter and reports, as the
#: last line, the exit code, the standard output, the scipy modules loaded,
#: whether numpy.polynomial and multiprocessing got loaded, and whether the
#: quadrature rule was built.
_FRESH_CLI = """
import contextlib, io, json, sys
import xroad.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = xroad.cli.main(sys.argv[1:])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
polynomial = "numpy.polynomial" in sys.modules
multiprocessing = "multiprocessing" in sys.modules
from xroad import analytic
print(json.dumps({"code": code, "out": out.getvalue(), "scipy": scipy,
                  "polynomial": polynomial, "multiprocessing": multiprocessing,
                  "quadrature": analytic._node_table.cache_info().currsize}))
"""


def run_fresh_cli(*argv: str) -> dict:
    src = str(Path(xroad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _FRESH_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_start_never_loads_scipy_integrate(tmp_path):
    # No command loads any scipy module: xroad does not depend on scipy.
    # The verify grid and the fig3 preset have closed forms only, so their
    # processes never build the quadrature rule; a general-alpha point off
    # the lanes is quadratured, by the engine's own rule, and its node table
    # needs numpy core only.  Only a run that forks workers loads
    # multiprocessing.
    verify = run_fresh_cli("verify", "--trials", "2048", "--workers", "2")
    assert verify["code"] == 0 and verify["scipy"] == []
    assert not verify["quadrature"] and verify["multiprocessing"]
    fig3 = run_fresh_cli("preset", "fig3", "--engine", "analytic",
                         "--out", str(tmp_path / "fig3.csv"))
    assert fig3["code"] == 0 and fig3["scipy"] == []
    assert not fig3["multiprocessing"]
    assert fig3["out"] == f"wrote 32 rows to {tmp_path / 'fig3.csv'}\n"
    path = write_config(tmp_path, channel={"alpha": 3.3, "m": 3},
                        geometry={"d": 50.0, "theta": 0.5})
    point = run_fresh_cli("point", "--config", str(path),
                          "--engine", "analytic")
    assert point["code"] == 0 and point["scipy"] == []
    assert point["quadrature"] and not point["polynomial"]
    assert not point["multiprocessing"]
    outage = analytic.outage_probability(
        parse_scenario(load_config(path))).outage_prob
    assert f"outage (analytic)      {outage:.6f}" in point["out"]
    # The value QUADPACK gave for this point.
    assert "outage (analytic)      0.048566" in point["out"]
