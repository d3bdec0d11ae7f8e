import csv
import json
import math
import multiprocessing
import os
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from xroad import cli, montecarlo
from xroad.analytic import outage_probability
from xroad.model import (LOS, NLOS, ChannelParams, DestinationGeometry,
                         LinkSpec, RoadLayout, Scenario)
from xroad.montecarlo import (SimConfig, estimate, estimate_group,
                              outage_from_interference, sample_interferers,
                              trial_rng)
from xroad.montecarlo import (_BLOCK, _SLICE, _aggregate, _block_interference,
                              _outage_events, _received_power, _run_block,
                              _slice_interference, _slices, _stream)
from xroad.sweep import (SweepSpec, Variant, compare_engines,
                         default_verification_grid, row_seed, run_sweep,
                         sweep_points)


def nlos_scenario(lam=0.01, d=0.0, p=0.5, r=20.0, thresh=1.0,
                  layout=None) -> Scenario:
    return Scenario(channel=NLOS,
                    geometry=DestinationGeometry(d=d, theta=0.0),
                    link=LinkSpec(r=r),
                    layout=layout or RoadLayout.intersection(lam, lam),
                    p=p, theta_threshold=thresh)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(trials=0)
    with pytest.raises(ValueError):
        SimConfig(half_length=0.0)
    with pytest.raises(ValueError, match="finite"):
        SimConfig(half_length=math.inf)
    with pytest.raises(ValueError):
        SimConfig(confidence=1.0)


def test_sim_config_rejects_a_confidence_no_interval_can_use():
    # Below 1, but (1 + c)/2 rounds to 1, where the normal quantile of the
    # interval is undefined; estimate() failed with a StatisticsError.
    for bad in (0.9999999999999999, 0.0, math.nan):
        with pytest.raises(ValueError, match=r"^confidence must lie in "
                                             r"\(0, 1\)$"):
            SimConfig(confidence=bad)
    # The next double down still has its quantile.
    sim = SimConfig(trials=64, confidence=0.9999999999999998)
    est = estimate(nlos_scenario(), sim)
    assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0


def test_sim_config_takes_integer_trials_and_seeds_only():
    # A bool ran as one trial and was written as `True`; 2.5 trials or seed
    # 1.5 failed inside estimate with a TypeError that no row caught.
    for bad in ({"trials": True}, {"trials": 2.5}, {"trials": 4096.0},
                {"master_seed": 1.5}, {"master_seed": False},
                {"master_seed": "7"}):
        with pytest.raises(ValueError, match="must be an integer"):
            SimConfig(**bad)
    sim = SimConfig(trials=np.int64(2048), master_seed=np.uint64(2 ** 64 - 1))
    assert (sim.trials, sim.master_seed) == (2048, 2 ** 64 - 1)
    assert type(sim.trials) is int and type(sim.master_seed) is int
    sc = nlos_scenario()
    assert estimate(sc, sim) == estimate(sc, SimConfig(
        trials=2048, master_seed=-1))


def test_sample_interferers_zero_intensity():
    sc = nlos_scenario(lam=0.0)
    sim = SimConfig(trials=1)
    for trial in range(20):
        pts = sample_interferers(sc.lanes()[0], sim, trial_rng(3, trial))
        assert len(pts) == 0


def test_sample_interferers_support_and_lane_geometry():
    # The sampler draws along-lane coordinates on [-half, half] for a lane
    # of either road; how far they lie from D is the lane frame's business
    # (test_model.test_lanes_match_2d_geometry).
    sc = nlos_scenario(lam=0.05, layout=RoadLayout((3.5,), (-2.0,), 0.05,
                                                   0.05))
    sim = SimConfig(trials=1, half_length=1000.0)
    for trial in range(50):
        rng = trial_rng(11, trial)
        for lane in sc.lanes():
            along = sample_interferers(lane, sim, rng)
            assert along.ndim == 1 and len(along) > 0
            assert np.all(np.abs(along) <= 1000.0)


def test_sample_interferers_poisson_mean():
    # lam * 2 * half_length = 20 expected points per realization.
    sc = nlos_scenario(lam=0.01, p=1.0)
    sim = SimConfig(trials=1, half_length=1000.0)
    total = sum(len(sample_interferers(sc.lanes()[0], sim, trial_rng(5, t)))
                for t in range(10_000))
    assert total / 10_000 == pytest.approx(20.0, abs=0.4)


def test_aggregate_zero_cases():
    sim = SimConfig(trials=1)
    for sc in (nlos_scenario(lam=0.0), nlos_scenario(lam=0.02, p=0.0)):
        for trial in range(10):
            interference, excluded = _aggregate(sc, sim, trial_rng(1, trial))
            assert interference == 0.0 and excluded == 0


def test_aggregate_mean_matches_intensity_integral():
    # Mean interference from a lane at offset 5 m with p=1, alpha=4 equals
    # lam * int (25 + u^2)^-2 du over the road segment (Campbell formula);
    # the infinite-line value is lam * pi / (2 * 5^3).
    h = 5.0
    lam = 0.01
    sc = Scenario(channel=NLOS, geometry=DestinationGeometry(0.0, 0.0),
                  link=LinkSpec(20.0),
                  layout=RoadLayout(lanes_x=(h,), lanes_y=(), lambda_x=lam,
                                    lambda_y=0.0),
                  p=1.0, theta_threshold=1.0)
    sim = SimConfig(trials=1, half_length=1000.0)
    exact = lam * quad(lambda u: (h * h + u * u) ** -2, -1000.0, 1000.0,
                       epsabs=0.0, epsrel=1e-12)[0]
    assert exact == pytest.approx(lam * math.pi / (2 * h ** 3), rel=1e-6)
    trials = 100_000
    total = 0.0
    for t in range(trials):
        interference, _ = _aggregate(sc, sim, trial_rng(2024, t))
        total += interference
    assert total / trials == pytest.approx(exact, rel=0.05)


def test_interferer_at_destination_excluded(monkeypatch):
    # An interferer landing exactly on D has an undefined path loss; force
    # one through the sampler of the one lane, which runs through D, and
    # check it is dropped and counted while the other point still
    # contributes.  estimate() turns the count into a warning
    # (test_block_exclusion_counted_and_warned).
    import xroad.montecarlo as mc

    sc = nlos_scenario(p=1.0, d=0.0, layout=RoadLayout.highway(0.01))
    sim = SimConfig(trials=1)

    def forced(lane, cfg, rng):
        return np.array([lane.c, lane.c + 10.0])  # the first one is D

    monkeypatch.setattr(mc, "sample_interferers", forced)
    interference, excluded = mc._aggregate(sc, sim, trial_rng(0, 0))
    assert excluded == 1
    # Replay the stream: both points pass the p=1 thinning, then take one
    # fade each; only the 10 m interferer's power is left.
    rng = trial_rng(0, 0)
    rng.random(2)
    fades = rng.exponential(1.0, 2)
    assert interference == pytest.approx(fades[1] * 10.0 ** -4, rel=1e-15)


def test_outage_decision_rules():
    sc = nlos_scenario(thresh=1.0, r=20.0)
    # Zero interference: success regardless of fade.
    assert outage_from_interference(sc, 0.0, 0.0) is False
    lsd = sc.link_path_loss
    # SIR exactly at threshold counts as success.
    assert outage_from_interference(sc, 1.0, lsd) is False
    # Slightly more interference tips into outage.
    assert outage_from_interference(sc, 1.0, lsd * 1.01) is True


def test_outage_event_zero_intensity_never_outage():
    sc = nlos_scenario(lam=0.0)
    sim = SimConfig(trials=1)
    for t in range(50):
        rng = trial_rng(7, t)
        interference, _ = _aggregate(sc, sim, rng)
        fade = rng.gamma(sc.channel.m, sc.channel.mu / sc.channel.m)
        assert not outage_from_interference(sc, fade, interference)


def test_single_interferer_outage_law():
    # One fixed interferer at distance 35 m, Rayleigh signal fading:
    # P(outage) = a / (1 + a) with a = Theta * l_I / (mu * l_SD), checked
    # against direct numeric integration of the two-exponential mixture.
    sc = nlos_scenario(lam=0.0, p=1.0)
    dist = 35.0
    a = (sc.theta_threshold * dist ** -4.0) / sc.link_path_loss
    oracle = quad(lambda e: (1.0 - math.exp(-a * e)) * math.exp(-e),
                  0.0, 60.0, epsabs=0.0, epsrel=1e-12)[0]
    assert oracle == pytest.approx(a / (1.0 + a), rel=1e-9)
    trials = 100_000
    hits = 0
    for t in range(trials):
        rng = trial_rng(99, t)
        interference = rng.exponential() * dist ** -4.0
        signal = rng.gamma(sc.channel.m, sc.channel.mu / sc.channel.m)
        hits += outage_from_interference(sc, signal, interference)
    stderr = math.sqrt(oracle * (1.0 - oracle) / trials)
    assert hits / trials == pytest.approx(oracle, abs=3 * stderr)


def test_estimate_zero_intensity_exact():
    sc = nlos_scenario(lam=0.0)
    est = estimate(sc, SimConfig(trials=2000, master_seed=1))
    assert est.p_hat == 0.0
    assert est.stderr == 0.0
    assert est.ci_low == 0.0
    assert sc.throughput(1.0 - est.p_hat) == pytest.approx(math.log2(2.0))


def test_estimate_deterministic_and_worker_independent():
    sc = nlos_scenario(lam=0.02)
    # 2500 trials: two full blocks plus a partial one, on 2 workers and on
    # more workers than blocks; 4596 trials: five blocks, split unevenly
    # over 3 workers.
    for trials, workers in ((2500, 2), (2500, 4), (4596, 3)):
        sim = SimConfig(trials=trials, master_seed=77)
        first = estimate(sc, sim)
        second = estimate(sc, sim)
        parallel = estimate(sc, sim, workers=workers)
        assert first == second == parallel


def test_monte_carlo_sweep_rows_do_not_depend_on_workers():
    # Two variants, two values, 3300 trials (four blocks, the last one
    # partial): every row is identical at 1, 2 and 3 workers.
    spec = SweepSpec(base=nlos_scenario(lam=0.02), axis="aloha_p",
                     values=(0.2, 0.5), engines=("montecarlo",),
                     variants=(Variant("NLOS"), Variant("LOS", channel=LOS)))
    sim = SimConfig(trials=3300, master_seed=9)
    rows = [run_sweep(spec, sim, workers=w) for w in (1, 2, 3)]
    assert len(rows[0]) == 4 and all(r.outage_mc > 0.0 for r in rows[0])
    assert rows[0] == rows[1] == rows[2]


@pytest.fixture
def forks(monkeypatch):
    """The process counts _fork_pool is called with, in order."""
    calls = []
    fork_pool = montecarlo._fork_pool

    def counted(processes):
        calls.append(processes)
        return fork_pool(processes)
    monkeypatch.setattr(montecarlo, "_fork_pool", counted)
    return calls


def test_no_worker_outlives_its_call(forks):
    # Each entry point that forks stops its workers before it returns.
    sc = nlos_scenario(lam=0.02)
    sim = SimConfig(trials=3 * _BLOCK, master_seed=4)
    spec = SweepSpec(base=sc, axis="aloha_p", values=(0.2, 0.5))
    run_sweep(spec, sim, workers=2)
    assert multiprocessing.active_children() == []
    compare_engines([("a", sc), ("b", nlos_scenario(lam=0.005))], sim,
                    workers=2)
    assert multiprocessing.active_children() == []
    estimate(sc, sim, workers=2)
    assert multiprocessing.active_children() == []
    assert forks == [2, 2, 2]


def test_rows_of_one_call_share_one_pool(forks):
    # One pool per _rows call that runs Monte-Carlo rows, with one process
    # per range of blocks; none where every row runs in this process.
    base = nlos_scenario(lam=0.02)
    spec = SweepSpec(base=base, axis="aloha_p", values=(0.2, 0.5),
                     variants=(Variant("NLOS"), Variant("LOS", channel=LOS)))
    sim = SimConfig(trials=2 * _BLOCK, master_seed=5)
    rows = run_sweep(spec, sim, workers=3)
    assert forks == [2]
    assert len({r.outage_mc for r in rows}) == 4      # seeded per row
    assert rows == run_sweep(spec, sim)
    run_sweep(replace(spec, engines=("analytic",)), sim, workers=2)
    run_sweep(spec, replace(sim, trials=_BLOCK), workers=2)
    assert forks == [2]
    # estimate runs on a pool it is given and forks none of its own.
    pool = montecarlo._fork_pool(2)
    try:
        assert estimate(base, sim, 2, pool=pool) == estimate(base, sim)
    finally:
        pool.shutdown()
    assert forks == [2, 2]


def test_a_dead_worker_is_replaced(forks):
    # Once the pool notices the death it is broken, and estimate runs the
    # blocks in this process.  (The surviving worker may also finish every
    # range before the pool notices; the result is the same.)
    sc = nlos_scenario(lam=0.02)
    sim = SimConfig(trials=4 * _BLOCK, master_seed=6)
    pool = montecarlo._fork_pool(2)
    try:
        before = estimate(sc, sim, 2, pool=pool)
        os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
        assert estimate(sc, sim, 2, pool=pool) == before
        assert estimate(sc, sim, 2, pool=pool) == before
    finally:
        pool.shutdown()
    assert multiprocessing.active_children() == []
    assert forks == [2]


@pytest.mark.parametrize("alpha,d", [(4.0, 1e200), (4.0, 1e100),
                                     (2.0, 1e200), (3.3, 1e200)])
def test_interferers_beyond_the_float_range_receive_no_power(alpha, d):
    # D on the X road 1e100 or 1e200 m from the crossing: h^2 of the Y-road
    # lane, (u - c)^2 on the X road or, at alpha = 4, dist^4 overflows.
    # Such interferers receive zero power, with no OverflowError or
    # RuntimeWarning, in the block engine and in the per-trial oracle.
    sc = replace(nlos_scenario(lam=0.02, d=d),
                 channel=ChannelParams(alpha=alpha, m=1))
    sim = SimConfig(trials=_BLOCK, master_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate(sc, sim).p_hat == 0.0
        assert _aggregate(sc, sim, trial_rng(1, 0)) == (0.0, 0)


def test_seed_enters_modulo_2_pow_64(tmp_path, capsys):
    # SeedSequence takes no negative entropy, so -1 must reach it as
    # 2**64 - 1; both seeds name the same streams.  The command leaves no
    # worker process running.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "channel": {"preset": "NLOS"}, "link": {"r": 20.0},
        "layout": {"lambda_x": 0.02, "lambda_y": 0.02}, "aloha_p": 0.5}))
    csvs = []
    for seed in ("-1", str(2 ** 64 - 1)):
        out = tmp_path / f"seed{len(csvs)}.csv"
        assert cli.main(["point", "--config", str(cfg), "--engine", "mc",
                         "--seed", seed, "--trials", "4096", "--workers", "2",
                         "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        csvs.append(out.read_text())
    capsys.readouterr()
    assert csvs[0] == csvs[1]
    row, = csv.DictReader(csvs[0].splitlines())
    assert float(row["outage_mc"]) > 0.0


def test_estimate_matches_analytic_subgrid():
    # Cheap regression version of the full verification grid.
    sim = SimConfig(trials=20_000, half_length=4000.0, master_seed=3)
    for lam, d in ((0.005, 0.0), (0.02, 200.0)):
        sc = nlos_scenario(lam=lam, d=d, r=10.0)
        est = estimate(sc, sim)
        ana = outage_probability(sc).outage_prob
        assert abs(est.p_hat - ana) <= max(0.01, 3.0 * est.stderr)


@pytest.mark.parametrize("theta", [0.3, math.pi / 4])
def test_estimate_matches_analytic_off_road(theta):
    # D off both roads (a road-side unit), two lanes per road, so every lane
    # has h > 0 and D's coordinate along it is nonzero.  At half_length
    # 4000 the finite road's bias is about 2e-9 here, so the gate is 4
    # standard errors with no floor.
    sc = Scenario(channel=NLOS, geometry=DestinationGeometry(150.0, theta),
                  link=LinkSpec(40.0),
                  layout=RoadLayout((0.0, 3.5), (0.0, 3.5), 0.01, 0.01),
                  p=0.5, theta_threshold=1.0)
    est = estimate(sc, SimConfig(trials=2 ** 17, half_length=4000.0,
                                 master_seed=3))
    ana = outage_probability(sc).outage_prob
    assert abs(est.p_hat - ana) <= 4.0 * est.stderr


def test_estimate_matches_analytic_at_maximum_fading_order():
    # m = 9 drives the analytic engine through Taylor orders up to 8; the
    # simulation knows nothing about that machinery, so agreement here
    # checks the exponent coefficients and their recurrence end to end.
    from xroad.model import ChannelParams
    sc = Scenario(channel=ChannelParams(alpha=2.0, m=9),
                  geometry=DestinationGeometry(0.0, 0.0),
                  link=LinkSpec(10.0),
                  layout=RoadLayout.intersection(0.01, 0.01),
                  p=0.5, theta_threshold=1.0)
    est = estimate(sc, SimConfig(trials=30_000, half_length=4000.0,
                                 master_seed=8))
    ana = outage_probability(sc).outage_prob
    assert abs(est.p_hat - ana) <= max(0.01, 3.0 * est.stderr)


def test_stderr_scales_with_sqrt_trials():
    sc = nlos_scenario(lam=0.01)
    small = estimate(sc, SimConfig(trials=5000, master_seed=21))
    large = estimate(sc, SimConfig(trials=20_000, master_seed=22))
    ratio = small.stderr / large.stderr
    assert ratio == pytest.approx(2.0, rel=0.10)


def test_thinning_equivalence():
    # Intensity p*lam with p=1 versus intensity lam thinned by p: outage
    # proportions are indistinguishable at the 1% level (two-proportion z).
    trials = 50_000
    thinned = estimate(nlos_scenario(lam=0.02, p=0.25),
                       SimConfig(trials=trials, master_seed=11))
    pre_thinned = estimate(nlos_scenario(lam=0.005, p=1.0),
                           SimConfig(trials=trials, master_seed=12))
    p1, p2 = thinned.p_hat, pre_thinned.p_hat
    pooled = (p1 + p2) / 2.0
    z = (p1 - p2) / math.sqrt(pooled * (1 - pooled) * 2.0 / trials)
    assert abs(z) < 2.576


def test_truncation_insensitive_for_alpha4():
    sc = nlos_scenario(lam=0.01)
    short = estimate(sc, SimConfig(trials=50_000, half_length=1000.0,
                                   master_seed=31))
    long = estimate(sc, SimConfig(trials=50_000, half_length=4000.0,
                                  master_seed=31))
    assert abs(short.p_hat - long.p_hat) < 2.0 * short.stderr


def test_confidence_interval_ordering_and_wilson_fallback():
    sc = nlos_scenario(lam=0.02)
    est = estimate(sc, SimConfig(trials=4000, master_seed=5))
    assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0
    # Rare events trigger the Wilson interval: nonzero width even at p=0.
    rare = nlos_scenario(lam=0.0002)
    est_rare = estimate(rare, SimConfig(trials=400, master_seed=6))
    assert est_rare.p_hat * est_rare.trials < 10
    assert 0.0 <= est_rare.ci_low <= est_rare.p_hat <= est_rare.ci_high <= 1.0
    assert est_rare.ci_high > est_rare.p_hat


def test_signal_fade_distribution_matches_gamma_parameterization():
    # shape m, scale mu/m: mean mu and second moment mu^2 (m+1)/m.
    m, mu = 3, 1.0
    values = np.array([trial_rng(17, t).gamma(m, mu / m)
                       for t in range(20_000)])
    assert values.mean() == pytest.approx(mu, rel=0.02)
    assert (values ** 2).mean() == pytest.approx(mu * mu * (m + 1) / m,
                                                 rel=0.04)


# ------------------------------------------------------- block-vectorized path
#
# The per-trial functions above are the reference oracle; the tests below
# hold the block engine that estimate() runs to the same laws.

def test_block_interference_campbell_mean_with_folded_thinning():
    # Same lane and integral as the per-trial Campbell test, with p=0.5
    # folded into the Poisson count: mean I = p * lam * int (25+u^2)^-2.
    h, lam, p = 5.0, 0.01, 0.5
    sc = Scenario(channel=NLOS, geometry=DestinationGeometry(0.0, 0.0),
                  link=LinkSpec(20.0),
                  layout=RoadLayout(lanes_x=(h,), lanes_y=(), lambda_x=lam,
                                    lambda_y=0.0),
                  p=p, theta_threshold=1.0)
    sim = SimConfig(trials=1, half_length=1000.0)
    exact = p * lam * quad(lambda u: (h * h + u * u) ** -2, -1000.0, 1000.0,
                           epsabs=0.0, epsrel=1e-12)[0]
    blocks = 100
    total = 0.0
    for b in range(blocks):
        (interference,), excluded = _block_interference(
            (sc,), sim, _stream(2024, b), _BLOCK)
        assert interference.shape == (_BLOCK,) and excluded == 0
        total += interference.sum()
    assert total / (blocks * _BLOCK) == pytest.approx(exact, rel=0.05)


def test_block_interference_zero_cases():
    sim = SimConfig(trials=1)
    for sc in (nlos_scenario(lam=0.0), nlos_scenario(lam=0.02, p=0.0)):
        (interference,), excluded = _block_interference(
            (sc,), sim, _stream(1, 0), _BLOCK)
        assert interference.shape == (_BLOCK,)
        assert not interference.any() and excluded == 0


def test_block_single_interferer_outage_law():
    # One interferer per trial at 35 m, fed through the slice helper and
    # the array decision: P(outage) = a / (1 + a) for Rayleigh signal fading.
    sc = nlos_scenario(lam=0.0, p=1.0)
    dist = 35.0
    a = (sc.theta_threshold * dist ** -4.0) / sc.link_path_loss
    trials = 100_000
    rng = _stream(99, 0)
    fades = rng.exponential(1.0, trials)
    # D is on the lane, at its coordinate 0: the along-lane coordinate is
    # the distance.
    (power,), excluded = _slice_interference(
        sc.lanes()[0], [4.0], np.full(trials, dist), fades,
        np.arange(trials), trials)
    assert excluded == 0
    np.testing.assert_allclose(power, fades * dist ** -4.0, rtol=1e-15)
    signal = rng.gamma(sc.channel.m, sc.channel.mu / sc.channel.m, trials)
    hits = np.count_nonzero(_outage_events(sc, signal, power))
    oracle = a / (1.0 + a)
    stderr = math.sqrt(oracle * (1.0 - oracle) / trials)
    assert hits / trials == pytest.approx(oracle, abs=3 * stderr)


def test_outage_events_decision_rules_on_arrays():
    sc = nlos_scenario(thresh=1.0, r=20.0)
    lsd = sc.link_path_loss
    signal = np.array([0.0, 1.0, 1.0, 1.0, 2.0])
    interference = np.array([0.0, 0.0, lsd, lsd * 1.01, 2.0 * lsd])
    # Zero interference (with or without signal) never fails; an SIR exactly
    # at the threshold succeeds; slightly more interference tips into outage.
    expected = [False, False, False, True, False]
    assert _outage_events(sc, signal, interference).tolist() == expected
    # Elementwise agreement with the scalar oracle on random draws.
    rng = _stream(4, 0)
    signal = rng.gamma(3, 1.0 / 3, 2000)
    i_x = rng.exponential(lsd, 2000) * (rng.random(2000) < 0.8)
    i_y = rng.exponential(lsd, 2000) * (rng.random(2000) < 0.8)
    interference = i_x + i_y
    scalar = [outage_from_interference(sc, f, i)
              for f, i in zip(signal, interference)]
    assert _outage_events(sc, signal, interference).tolist() == scalar


def test_slice_interference_drops_interferer_at_destination():
    powers, excluded = _slice_interference(
        nlos_scenario().lanes()[0], [4.0, 2.0], np.array([0.0, 10.0, 20.0]),
        np.array([1.0, 2.0, 3.0]), np.array([0, 0, 1]), 3)
    assert excluded == 1
    np.testing.assert_allclose(powers[0], [2.0 * 10.0 ** -4,
                                           3.0 * 20.0 ** -4, 0.0], rtol=1e-15)
    np.testing.assert_allclose(powers[1], [2.0 * 10.0 ** -2,
                                           3.0 * 20.0 ** -2, 0.0], rtol=1e-15)


def test_block_exclusion_counted_and_warned(monkeypatch):
    # Move the first interferer of each slice onto D (the origin, where both
    # lanes cross); estimate() must count every such point and warn once.
    import xroad.montecarlo as mc

    real = mc._slice_interference
    moved = []

    def forced(lane, alphas, along, fades, owner, n_trials):
        assert lane.h == 0.0
        along = along.copy()
        along[0] = lane.c
        moved.append(1)
        return real(lane, alphas, along, fades, owner, n_trials)

    monkeypatch.setattr(mc, "_slice_interference", forced)
    sc = nlos_scenario(lam=0.01, p=1.0, d=0.0)
    with pytest.warns(RuntimeWarning, match="exactly"):
        est = estimate(sc, SimConfig(trials=2500, master_seed=3))
    assert est.excluded_interferers == len(moved) > 0
    assert 0.0 < est.p_hat < 1.0


def test_received_power_matches_pow():
    dist_sq = np.array([1e-6, 0.25, 1.0, 2.0, 123.456, 1e6])
    fades = np.array([0.5, 1.0, 2.0, 0.1, 3.0, 1.5])
    for alpha in (2.0, 2.5, 4.0):
        np.testing.assert_allclose(_received_power(fades, dist_sq, alpha),
                                   fades * dist_sq ** (-0.5 * alpha),
                                   rtol=1e-15)


def test_slices_cover_trials_within_cap():
    counts = np.array([0, 3, _SLICE - 3, 1, _SLICE + 5, 0, 7, _SLICE, 2, 0])
    ranges = list(_slices(counts))
    assert ranges[0][0] == 0 and ranges[-1][1] == len(counts)
    for (lo, hi, n), nxt in zip(ranges, ranges[1:] + [(len(counts),)]):
        assert hi == nxt[0] and hi > lo
        assert n == counts[lo:hi].sum()
        assert n <= _SLICE or hi - lo == 1  # only a lone trial exceeds it
    assert (4, 5, _SLICE + 5) in ranges
    assert list(_slices(np.zeros(4, dtype=np.int64))) == [(0, 4, 0)]


def test_blocks_draw_from_distinct_streams():
    # Each block is keyed by its index: identical counts across blocks
    # would mean every block replays the same stream.
    sc = nlos_scenario(lam=0.02)
    sim = SimConfig(trials=8 * _BLOCK, master_seed=13)
    counts = {_run_block((sc,), sim, b * _BLOCK, _BLOCK) for b in range(8)}
    assert len(counts) > 1


def test_run_block_rejects_range_outside_one_block():
    sc = nlos_scenario()
    sim = SimConfig(trials=2048)
    for start, count in ((1, 10), (0, _BLOCK + 1), (_BLOCK, 0)):
        with pytest.raises(ValueError, match="block"):
            _run_block((sc,), sim, start, count)


@pytest.mark.parametrize("alpha", [2.0, 4.0, 3.3])
def test_estimate_matches_analytic_at_the_fading_cap(alpha):
    # m = 100, the largest m validation accepts, with D off both roads:
    # jets at alpha = 2 and 4, 100 quadratured orders at alpha = 3.3.  The
    # gate is 4 standard errors with no floor.
    from xroad.model import MAX_M, ChannelParams
    sc = Scenario(channel=ChannelParams(alpha=alpha, m=MAX_M),
                  geometry=DestinationGeometry(50.0, 0.5),
                  link=LinkSpec(20.0),
                  layout=RoadLayout.intersection(0.01, 0.01),
                  p=0.5, theta_threshold=1.0)
    est = estimate(sc, SimConfig(trials=2 ** 17, half_length=4000.0,
                                 master_seed=7))
    ana = outage_probability(sc).outage_prob
    assert abs(est.p_hat - ana) <= 4.0 * est.stderr, (
        (est.p_hat - ana) / est.stderr)


# Runs that share an interferer field share its draws (estimate_group).

def off_road(channel, thresh=1.0) -> Scenario:
    return Scenario(channel=channel, geometry=DestinationGeometry(50.0, 0.5),
                    link=LinkSpec(20.0),
                    layout=RoadLayout.intersection(0.01, 0.01), p=0.5,
                    theta_threshold=thresh)


def test_the_first_row_of_a_group_is_its_own_estimate():
    # LOS and NLOS rows at one density share their field; the group runs
    # under the first row's seed, and that row reads what estimate() of it
    # alone reads.
    spec = SweepSpec(base=nlos_scenario(lam=0.02), axis="density",
                     values=(0.005, 0.02), engines=("montecarlo",),
                     variants=(Variant("LOS", channel=LOS), Variant("NLOS")))
    sim = SimConfig(trials=2500, master_seed=11)
    rows = run_sweep(spec, sim)
    for (vi, _, xi, _, scenario), row in zip(sweep_points(spec), rows):
        alone = estimate(scenario, replace(
            sim, master_seed=row_seed(sim.master_seed, 0, xi)))
        assert (row.outage_mc == alone.p_hat) == (vi == 0)
        if vi == 0:
            assert (row.mc_stderr, row.ci_low, row.ci_high, row.trials) == (
                alone.stderr, alone.ci_low, alone.ci_high, alone.trials)
    los, nlos = off_road(LOS), off_road(NLOS)
    assert estimate_group((los, nlos), sim)[0] == estimate(los, sim)
    assert estimate_group((nlos, los), sim)[0] == estimate(nlos, sim)


def test_a_group_draws_one_signal_fade_per_fading():
    # The LOS fades are drawn first, before NLOS's, so a third member with
    # LOS fading sees the fades the first one sees.
    sim = SimConfig(trials=3000, master_seed=12)
    los, nlos, harder = off_road(LOS), off_road(NLOS), off_road(LOS, 2.0)
    with_nlos = estimate_group((los, nlos, harder), sim)
    assert with_nlos[2] == estimate_group((los, harder), sim)[1]
    assert with_nlos[0].p_hat < with_nlos[2].p_hat


def test_a_group_needs_one_interferer_field():
    for other in (replace(off_road(LOS), p=0.4),
                  replace(off_road(LOS),
                          geometry=DestinationGeometry(60.0, 0.5))):
        with pytest.raises(ValueError, match="lanes and Aloha"):
            estimate_group((off_road(NLOS), other), SimConfig(trials=10))


def test_threshold_rows_share_their_draws():
    # Every row of a threshold sweep has one field and one fading: they
    # see the same interference and signal, so no outage count falls as
    # the threshold rises, at steps far finer than independent runs'
    # standard errors.
    values = tuple(-1.0 + 0.05 * i for i in range(21))
    spec = SweepSpec(base=off_road(LOS), axis="threshold_db", values=values,
                     engines=("montecarlo",))
    rows = run_sweep(spec, SimConfig(trials=4096, master_seed=8))
    counts = [round(row.outage_mc * row.trials) for row in rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[0] < counts[-1]


def test_the_second_member_of_a_group_matches_the_analytic_engine():
    # NLOS paired with LOS: NLOS is drawn from LOS's stream, past its
    # fades, and still agrees within 4 standard errors.
    los, nlos = off_road(LOS), off_road(NLOS)
    sim = SimConfig(trials=2 ** 17, half_length=4000.0, master_seed=7)
    _, est = estimate_group((los, nlos), sim)
    ana = outage_probability(nlos).outage_prob
    assert abs(est.p_hat - ana) <= 4.0 * est.stderr, (
        (est.p_hat - ana) / est.stderr)


def test_grouped_rows_do_not_depend_on_workers():
    # The threshold rows of each variant form one group, and the four
    # verify grid points two LOS-NLOS pairs.
    spec = SweepSpec(base=off_road(NLOS), axis="threshold_db",
                     values=(-3.0, 0.0, 3.0), engines=("montecarlo",),
                     variants=(Variant("NLOS"), Variant("LOS", channel=LOS)))
    sim = SimConfig(trials=3 * _BLOCK + 100, master_seed=10)
    assert run_sweep(spec, sim) == run_sweep(spec, sim, workers=2)
    grid = default_verification_grid()[::3]
    assert (compare_engines(grid, sim)
            == compare_engines(grid, sim, workers=2))


def test_a_failed_group_fails_each_of_its_rows():
    spec = SweepSpec(base=nlos_scenario(), axis="aloha_p", values=(0.5,),
                     engines=("montecarlo",),
                     variants=(Variant("NLOS"), Variant("LOS", channel=LOS)))
    rows = run_sweep(spec, SimConfig(trials=10, half_length=1e300))
    assert [row.outage_mc for row in rows] == [None, None]
    assert all(row.error.startswith("montecarlo: a lane's mean interferer "
                                    "count per trial") for row in rows)
