"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line when it holds (run with -s to see them).  Tolerances are
pinned here, not configurable.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from analytic_helpers import (_exponent_coefficients, laplace, success,
                              x_lane_scenario)
from xroad import cli
from xroad.analytic import (_REL_TOL, _exponent_integrals,
                            laplace_closed_alpha2, laplace_closed_alpha4,
                            outage_probability)
from xroad.config import parse_scenario, parse_sim, parse_sweep
from xroad.model import (LOS, NLOS, DestinationGeometry, LinkSpec,
                         RoadLayout, Scenario)
from xroad.montecarlo import SimConfig
from xroad.sweep import compare_engines, default_verification_grid, run_sweep

def intersection(channel, d=0.0, lam=0.01, r=20.0, p=0.5, thresh=1.0,
                 layout=None):
    return Scenario(channel=channel,
                    geometry=DestinationGeometry(d=d, theta=0.0),
                    link=LinkSpec(r),
                    layout=layout or RoadLayout.intersection(lam, lam),
                    p=p, theta_threshold=thresh)


def analytic_sweep(preset_name):
    raw = cli._load_preset(preset_name)
    scenario = parse_scenario(raw)
    spec = replace(parse_sweep(raw["sweep"], scenario), engines=("analytic",))
    rows = run_sweep(spec, parse_sim(raw["sim"]))
    assert all(row.error == "" for row in rows)
    return {variant.label: [r for r in rows if r.variant == variant.label]
            for variant in spec.variants}


def test_closed_form_correctness():
    """Both closed forms match adaptive quadrature to 1e-8 relative on 100
    randomized draws each, in under 10 seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(424242)
    for alpha, closed in ((4.0, laplace_closed_alpha4),
                          (2.0, laplace_closed_alpha2)):
        for _ in range(100):
            s = 10.0 ** rng.uniform(-2, 6)
            h = rng.uniform(0.0, 1500.0)
            p = rng.uniform(0.05, 1.0)
            lam = 10.0 ** rng.uniform(-3, -1)
            sc = x_lane_scenario(alpha, h, p, lam)
            # The whole-line rule, as the jets are whole-line.
            [[j]], _, achieved = _exponent_integrals([s], [h], alpha,
                                                     range(1))
            assert achieved[0] <= _REL_TOL
            reference = math.exp(-p * lam * j)
            value = closed(s, sc.lanes()[0], sc)
            assert value == laplace(sc, s)
            assert abs(value - reference) <= 1e-8 * reference, \
                (alpha, s, h, p, lam)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE closed-form-correctness: PASS ({elapsed:.2f}s)")


def test_derivative_soundness():
    """Bell-composed derivatives of orders 1-2 match high-order finite
    differences to 1e-4 relative on a 50-point grid and alternate in sign;
    under 30 seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(1337)
    points = 0
    for alpha in (2.0, 4.0):
        for _ in range(25):
            s = 10.0 ** rng.uniform(0.7, 4.7)
            # Keep the lane inside the interference-relevant range so the
            # derivatives stay above the finite-difference noise floor.
            h = rng.uniform(0.0, 3.0 * s ** (1.0 / alpha))
            p = rng.uniform(0.2, 1.0)
            lam = 10.0 ** rng.uniform(-3.0, -1.7)
            sc = x_lane_scenario(alpha, h, p, lam)

            def L(x):
                return laplace(sc, x, 0)
            step = 0.02 * s
            fd1 = (-L(s + 2 * step) + 8 * L(s + step) - 8 * L(s - step)
                   + L(s - 2 * step)) / (12 * step)
            fd2 = (-L(s + 2 * step) + 16 * L(s + step) - 30 * L(s)
                   + 16 * L(s - step) - L(s - 2 * step)) / (12 * step ** 2)
            d1 = laplace(sc, s, 1)
            d2 = laplace(sc, s, 2)
            assert abs(d1 - fd1) <= 1e-4 * abs(fd1)
            assert abs(d2 - fd2) <= 1e-4 * abs(fd2)
            assert -d1 >= 0.0 and d2 >= 0.0  # (-1)^n L^(n) >= 0
            points += 1
    assert points == 50
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE derivative-soundness: PASS ({elapsed:.2f}s)")


def test_analytic_montecarlo_agreement():
    """12-point preset grid: |outage_analytic - outage_mc| within
    max(0.01, 3 * stderr) at 50,000 trials per point."""
    start = time.monotonic()
    report = compare_engines(
        default_verification_grid(),
        SimConfig(trials=50_000, half_length=4000.0, master_seed=0),
        workers=2)
    print()
    for pt in report.points:
        print(f"  {pt.label:26s} analytic={pt.row.outage_analytic:.5f} "
              f"mc={pt.row.outage_mc:.5f} diff={pt.abs_diff:.5f} "
              f"tol={pt.tolerance:.5f} "
              f"{'pass' if pt.passed else 'FAIL'}")
    assert report.passed
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE analytic-mc-agreement: PASS ({elapsed:.1f}s)")


def test_fig2_density_sweep_shape():
    """Outage nondecreasing and throughput nonincreasing in density, with
    the NLOS curve never above the LOS curve."""
    by_variant = analytic_sweep("fig2")
    for label, rows in by_variant.items():
        outages = [r.outage_analytic for r in rows]
        throughputs = [r.throughput_analytic for r in rows]
        assert all(b >= a for a, b in zip(outages, outages[1:])), label
        assert all(b <= a for a, b in zip(throughputs, throughputs[1:])), label
    for los_row, nlos_row in zip(by_variant["LOS"], by_variant["NLOS"]):
        assert nlos_row.outage_analytic <= los_row.outage_analytic
    print("\nACCEPTANCE fig2-density-shape: PASS")


def test_fig3_distance_sweep_shape():
    """Outage nonincreasing in distance; the intersection strictly worse at
    d=0 and within 0.01 of the highway at the far end."""
    by_variant = analytic_sweep("fig3")
    for label, rows in by_variant.items():
        outages = [r.outage_analytic for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(outages, outages[1:])), label
    for name in ("LOS", "NLOS"):
        inter = by_variant[f"{name} intersection"]
        highway = by_variant[f"{name} highway"]
        assert inter[0].outage_analytic > highway[0].outage_analytic
        far_gap = abs(inter[-1].outage_analytic - highway[-1].outage_analytic)
        assert inter[-1].value == 1500.0
        assert far_gap <= 0.01, (name, far_gap)
    print("\nACCEPTANCE fig3-distance-shape: PASS")


def test_fig4_lane_sweep_shape():
    """Outage nondecreasing in lane count for both presets and the LOS-NLOS
    gap nondecreasing."""
    by_variant = analytic_sweep("fig4")
    for label, rows in by_variant.items():
        outages = [r.outage_analytic for r in rows]
        assert all(b >= a for a, b in zip(outages, outages[1:])), label
    gaps = [los.outage_analytic - nlos.outage_analytic
            for los, nlos in zip(by_variant["LOS"], by_variant["NLOS"])]
    assert all(b >= a for a, b in zip(gaps, gaps[1:])), gaps
    print("\nACCEPTANCE fig4-lane-shape: PASS")


def test_preset_determinism(tmp_path):
    """Identical seeds give byte-identical CSVs; the worker count does not
    change the output."""
    outputs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"{name}.csv"
        code = cli.main(["preset", "fig2", "--seed", "42", "--trials", "2000",
                         "--workers", workers, "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
    print("\nACCEPTANCE preset-determinism: PASS")


def test_property_suite_key_limits():
    """Spot checks of the property-suite bullets asserted at full strength
    in the unit modules: degenerate limits, the m=1 reduction, symmetry,
    lane additivity, and a monotonicity grid."""
    # Degenerate limits.
    empty = intersection(NLOS, lam=0.0)
    assert success(empty) == 1.0
    silent = intersection(NLOS, p=0.0)
    assert success(silent) == 1.0
    assert laplace(intersection(NLOS), 0.0) == 1.0
    assert _exponent_coefficients(intersection(NLOS), 0.0, 0) == [0.0]

    # m = 1 product reduction.
    sc = intersection(NLOS, d=150.0)
    g_arg = sc.laplace_argument
    product = math.prod(laplace_closed_alpha4(g_arg, lane, sc)
                        for lane in sc.lanes())
    assert abs(success(sc) - product) <= 1e-12 * product

    # Symmetry under theta <-> pi/2 - theta with equal intensities.
    for channel in (LOS, NLOS):
        a = Scenario(channel, DestinationGeometry(200.0, math.pi / 6),
                     LinkSpec(20.0), RoadLayout.intersection(0.01, 0.01),
                     0.5, 1.0)
        b = Scenario(channel, DestinationGeometry(200.0,
                                                  math.pi / 2 - math.pi / 6),
                     LinkSpec(20.0), RoadLayout.intersection(0.01, 0.01),
                     0.5, 1.0)
        assert success(a) == pytest.approx(success(b), rel=1e-9)

    # Multi-lane additivity.
    twin = Scenario(NLOS, DestinationGeometry(0.0, 0.0), LinkSpec(20.0),
                    RoadLayout((0.0, 0.0), (0.0, 0.0), 0.01, 0.01), 0.5, 1.0)
    merged = intersection(NLOS, lam=0.02)
    assert success(twin) == pytest.approx(success(merged), rel=1e-10)

    # Monotonicity in density.
    outs = [outage_probability(intersection(LOS, lam=lam)).outage_prob
            for lam in (0.0, 0.005, 0.01, 0.02, 0.04)]
    assert all(b >= a for a, b in zip(outs, outs[1:]))
    print("\nACCEPTANCE property-suite-limits: PASS")
