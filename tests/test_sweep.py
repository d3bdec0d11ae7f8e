import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from analytic_helpers import fail_alpha, success_probability
from xroad import analytic, sweep
from xroad.model import (LOS, NLOS, ChannelParams, DestinationGeometry,
                         LinkSpec, RoadLayout, Scenario, ValidationError,
                         validate_scenario)
from xroad.montecarlo import SimConfig
from xroad.sweep import (CSV_COLUMNS, ENGINES, ComparisonReport, SweepRow,
                         SweepSpec, Variant, apply_axis_value, apply_variant,
                         compare_engines, compare_rows,
                         default_verification_grid, point_label, row_seed,
                         run_sweep, sweep_points, sweep_row, validate_sweep,
                         write_csv)


def base_scenario(**overrides) -> Scenario:
    params = dict(channel=NLOS, geometry=DestinationGeometry(0.0, 0.0),
                  link=LinkSpec(20.0),
                  layout=RoadLayout.intersection(0.01, 0.01),
                  p=0.5, theta_threshold=1.0)
    params.update(overrides)
    return Scenario(**params)


def test_validate_sweep_rejects_bad_specs():
    base = base_scenario()
    good = SweepSpec(base=base, axis="density", values=(0.001, 0.01))
    assert validate_sweep(good) is good
    with pytest.raises(ValueError, match="axis"):
        validate_sweep(SweepSpec(base, "speed", (1.0,)))
    with pytest.raises(ValueError, match="nonempty"):
        validate_sweep(SweepSpec(base, "density", ()))
    with pytest.raises(ValueError, match="strictly increasing"):
        validate_sweep(SweepSpec(base, "density", (0.01, 0.01)))
    with pytest.raises(ValueError, match="engines"):
        validate_sweep(SweepSpec(base, "density", (0.01,), engines=("mc",)))
    with pytest.raises(ValueError, match="lane counts"):
        validate_sweep(SweepSpec(base, "lanes", (1.5, 2.0)))
    for axis, values in (("lanes", (1.0, math.inf)), ("lanes", (math.nan,)),
                         ("density", (0.01, math.nan, 0.02))):
        with pytest.raises(ValueError, match="finite"):
            validate_sweep(SweepSpec(base, axis, values))
    for values in ((0.0, 4000.0), (-4000.0, 0.0)):
        with pytest.raises(ValueError, match="threshold_db"):
            validate_sweep(SweepSpec(base, "threshold_db", values))
    ok = SweepSpec(base, "threshold_db", (-300.0, 300.0))
    assert validate_sweep(ok) is ok


def test_sweep_points_follow_variant_then_value_order():
    spec = SweepSpec(base_scenario(), "distance_d", (0.0, 50.0),
                     variants=(Variant("NLOS"), Variant("LOS", channel=LOS)))
    points = list(sweep_points(spec))
    assert [(vi, v.label, xi, x) for vi, v, xi, x, _ in points] == [
        (0, "NLOS", 0, 0.0), (0, "NLOS", 1, 50.0),
        (1, "LOS", 0, 0.0), (1, "LOS", 1, 50.0)]
    assert points[3][4] == apply_axis_value(
        apply_variant(spec.base, spec.variants[1]), "distance_d", 50.0)


def test_apply_axis_density_respects_highway():
    highway = base_scenario(layout=RoadLayout.highway(0.01))
    swept = apply_axis_value(highway, "density", 0.05)
    assert swept.layout.lambda_x == 0.05
    assert swept.layout.lambda_y == 0.0
    assert swept.layout.lanes_y == ()
    inter = apply_axis_value(base_scenario(), "density", 0.05)
    assert inter.layout.lambda_x == inter.layout.lambda_y == 0.05


def test_apply_axis_lanes_builds_offsets():
    swept = apply_axis_value(base_scenario(), "lanes", 3, lane_spacing=3.5)
    assert swept.layout.lanes_x == (0.0, 3.5, 7.0)
    assert swept.layout.lanes_y == (0.0, 3.5, 7.0)
    highway = base_scenario(layout=RoadLayout.highway(0.01))
    swept_hw = apply_axis_value(highway, "lanes", 2)
    assert swept_hw.layout.lanes_y == ()


def test_apply_axis_threshold_and_p_and_distance():
    sc = apply_axis_value(base_scenario(), "threshold_db", 3.0)
    assert sc.theta_threshold == pytest.approx(10 ** 0.3)
    sc = apply_axis_value(base_scenario(), "aloha_p", 0.25)
    assert sc.p == 0.25
    sc = apply_axis_value(base_scenario(), "distance_d", 123.0)
    assert sc.geometry.d == 123.0


def test_apply_variant_overrides():
    variant = Variant("LOS highway", channel=LOS,
                      layout=RoadLayout.highway(0.02))
    sc = apply_variant(base_scenario(), variant)
    assert sc.channel == LOS
    assert sc.layout.lanes_y == ()
    untouched = apply_variant(base_scenario(), Variant("plain"))
    assert untouched == base_scenario()


def test_row_seed_is_deterministic_and_spread():
    a = row_seed(42, 0, 0)
    assert a == row_seed(42, 0, 0)
    seeds = {row_seed(42, vi, xi) for vi in range(4) for xi in range(16)}
    assert len(seeds) == 64
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_run_sweep_row_order_and_missing_engine_fields(tmp_path):
    spec = validate_sweep(SweepSpec(
        base=base_scenario(),
        axis="density",
        values=(0.001, 0.01),
        engines=("analytic",),
        variants=(Variant("NLOS"), Variant("LOS", channel=LOS)),
    ))
    rows = run_sweep(spec, SimConfig(trials=100, master_seed=0))
    assert [(r.variant, r.value) for r in rows] == [
        ("NLOS", 0.001), ("NLOS", 0.01), ("LOS", 0.001), ("LOS", 0.01)]
    assert all(r.outage_mc is None and r.trials is None for r in rows)
    assert all(r.outage_analytic is not None for r in rows)

    out = tmp_path / "sweep.csv"
    write_csv(rows, out)
    with open(out, newline="") as fh:
        records = list(csv.reader(fh))
    assert tuple(records[0]) == CSV_COLUMNS
    assert records[1][CSV_COLUMNS.index("outage_mc")] == ""
    # Full round-trip precision.
    parsed = float(records[1][CSV_COLUMNS.index("outage_analytic")])
    assert parsed == rows[0].outage_analytic


def test_csv_columns_are_the_sweep_row_fields():
    assert CSV_COLUMNS == (
        "variant", "axis", "value", "outage_analytic", "throughput_analytic",
        "outage_mc", "mc_stderr", "ci_low", "ci_high", "trials", "error")
    row = SweepRow("v", "none", 0.0)
    assert CSV_COLUMNS == tuple(vars(row))


def test_throughput_column_is_derived_from_the_analytic_outage():
    sc = base_scenario(theta_threshold=3.0)
    row = sweep_row(sc, ("analytic",), SimConfig(trials=1), 1, "v", "none",
                    0.0)
    res = analytic.outage_probability(sc)
    assert row.throughput_analytic == res.success_prob * 2.0
    assert row.throughput_analytic == sc.throughput(1.0 - row.outage_analytic)


def test_run_sweep_both_engines_fills_all_columns():
    spec = validate_sweep(SweepSpec(
        base=base_scenario(), axis="aloha_p", values=(0.2, 0.6)))
    rows = run_sweep(spec, SimConfig(trials=500, master_seed=9))
    for row in rows:
        assert row.outage_analytic is not None
        assert row.outage_mc is not None
        assert row.trials == 500
        assert row.error == ""
        assert 0.0 <= row.ci_low <= row.outage_mc <= row.ci_high <= 1.0


def test_a_monte_carlo_sweep_builds_no_analytic_batch(monkeypatch):
    # Nothing reads the analytic batch of a Monte-Carlo-only sweep, so its
    # lanes are not merged; its rows and its axis checks stay as they are.
    spec = SweepSpec(base_scenario(), "lanes", (1.0, 2.0),
                     engines=("montecarlo",),
                     variants=(Variant("NLOS"), Variant("LOS", channel=LOS)))
    sim = SimConfig(trials=200, master_seed=3)
    rows = run_sweep(spec, sim)

    def merged_lanes(*args):
        raise AssertionError("the lanes were merged")
    monkeypatch.setattr(analytic, "merged_lanes", merged_lanes)
    assert run_sweep(spec, sim) == rows
    assert all(row.outage_analytic is None and row.trials == 200
               for row in rows)
    with pytest.raises(ValueError, match="^base aloha_p=1.5: "):
        run_sweep(replace(spec, axis="aloha_p", values=(0.5, 1.5),
                          variants=(Variant("base"),)), sim)


def test_run_sweep_byte_identical_output(tmp_path):
    spec = validate_sweep(SweepSpec(
        base=base_scenario(), axis="density", values=(0.005, 0.02)))
    sim = SimConfig(trials=400, master_seed=12)
    paths = []
    for name in ("a.csv", "b.csv"):
        rows = run_sweep(spec, sim)
        path = tmp_path / name
        write_csv(rows, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_sweep_marks_failed_rows_and_continues(monkeypatch):
    calls = {"n": 0}

    def explode(batch):
        results = real(batch)
        for i in range(len(results)):
            calls["n"] += 1
            if calls["n"] == 1:
                results[i] = analytic.ConsistencyError("forced failure")
        return results

    real = analytic.success_probabilities
    monkeypatch.setattr(analytic, "success_probabilities", explode)
    spec = validate_sweep(SweepSpec(
        base=base_scenario(), axis="density", values=(0.001, 0.01),
        engines=("analytic",)))
    rows = run_sweep(spec, SimConfig(trials=100))
    assert "forced failure" in rows[0].error
    assert rows[0].outage_analytic is None
    assert rows[1].error == ""
    assert rows[1].outage_analytic is not None


def test_default_verification_grid_shape():
    grid = default_verification_grid()
    assert len(grid) == 12
    labels = [label for label, _ in grid]
    assert len(set(labels)) == 12
    channels = {sc.channel.alpha for _, sc in grid}
    assert channels == {2.0, 4.0}


def test_compare_engines_zero_intensity_exact():
    grid = [("empty", base_scenario(layout=RoadLayout.intersection(0, 0)))]
    report = compare_engines(grid, SimConfig(trials=200, master_seed=4))
    assert isinstance(report, ComparisonReport)
    assert report.passed
    assert report.points[0].abs_diff == 0.0


def test_compare_engines_widens_tolerance_for_small_trials():
    grid = [("dense", base_scenario())]
    report = compare_engines(grid, SimConfig(trials=100, master_seed=8))
    point = report.points[0]
    assert point.tolerance > 0.01  # 3 * stderr dominates at 100 trials
    assert report.passed


def test_compare_engines_rows_come_from_sweep_row():
    grid = [("dense", base_scenario()),
            ("sparse", base_scenario(layout=RoadLayout.intersection(0.002,
                                                                    0.002)))]
    sim = SimConfig(trials=300, master_seed=6)
    report = compare_engines(grid, sim)
    for index, ((label, scenario), point) in enumerate(zip(grid,
                                                           report.points)):
        point_sim = replace(sim, master_seed=row_seed(6, 0, index))
        assert point.row == sweep_row(scenario, ENGINES, point_sim, 1, label,
                                      "none", 0.0)
        assert point.label == label
        assert point.tolerance == max(0.01, 3.0 * point.row.mc_stderr)
        assert point.abs_diff == abs(point.row.outage_analytic
                                     - point.row.outage_mc)


def test_verify_grid_evaluates_each_lane_once(monkeypatch):
    calls = []
    real = analytic._lane_jets

    def counted(s, h, alpha, order):
        calls.extend((s_i, h_i, alpha, order)
                     for s_i, h_i in zip(s.tolist(), h.tolist()))
        return real(s, h, alpha, order)
    monkeypatch.setattr(analytic, "_lane_jets", counted)
    grid = default_verification_grid()
    compare_engines(grid, SimConfig(trials=16))
    # The 12 points have 20 lane distances but 6 distinct (s, h, alpha, m).
    assert sorted(calls) == sorted(
        {(sc.laplace_argument, lane.h, sc.channel.alpha, sc.channel.m - 1)
         for _, sc in grid for lane in sc.lanes()})
    assert len(calls) == 6


def forbid_engines(monkeypatch):
    def engine_called(*args, **kwargs):
        pytest.fail("an engine ran before validation finished")

    monkeypatch.setattr(analytic, "success_probabilities", engine_called)
    monkeypatch.setattr(sweep, "estimate_group", engine_called)


def test_compare_engines_rejects_invalid_scenario_before_any_engine(
        monkeypatch):
    forbid_engines(monkeypatch)
    invalid = base_scenario(channel=ChannelParams(alpha=0.5, m=1))
    with pytest.raises(ValidationError, match="alpha must exceed 1"):
        compare_engines([("ok", base_scenario()), ("bad", invalid)],
                        SimConfig(trials=200, master_seed=2))


def test_compare_engines_reports_engine_errors_per_point(monkeypatch):
    # An analytic engine that fails at alpha = 1.05: that point fails, the
    # other still passes.
    fail_alpha(monkeypatch, 1.05)
    failing = base_scenario(channel=ChannelParams(alpha=1.05, m=1),
                            geometry=DestinationGeometry(50.0, 0.5))
    report = compare_engines([("a1.05", failing), ("ok", base_scenario())],
                             SimConfig(trials=200, master_seed=2))
    assert not report.points[0].passed
    assert report.points[0].row.error.startswith("analytic: ")
    assert report.points[0].tolerance is None
    assert report.points[1].passed
    assert not report.passed


def test_invalid_sweep_point_is_named_before_any_engine(monkeypatch):
    forbid_engines(monkeypatch)
    spec = SweepSpec(base_scenario(), "aloha_p", (0.2, 0.5, 1.5),
                     variants=(Variant("NLOS"), Variant("LOS", channel=LOS)))
    for run in (validate_sweep, lambda s: run_sweep(s, SimConfig(trials=100))):
        with pytest.raises(ValueError, match="^NLOS aloha_p=1.5: Aloha "
                                             "probability out of range$"):
            run(spec)


@pytest.mark.parametrize("axis", ["density", "lanes"])
def test_road_axis_sweep_needs_an_active_road(monkeypatch, axis):
    forbid_engines(monkeypatch)
    for layout in (RoadLayout.intersection(0.0, 0.0),
                   RoadLayout((), (), 0.01, 0.01)):
        spec = SweepSpec(base_scenario(), axis, (1.0, 2.0),
                         variants=(Variant("NLOS"),
                                   Variant("empty", layout=layout)))
        with pytest.raises(ValueError, match=rf"^empty {axis}=1: no road has "
                                             r"lanes.*set lambda_x/lambda_y$"):
            validate_sweep(spec)
    # The other axes still apply to an empty field.
    spec = SweepSpec(base_scenario(layout=RoadLayout.intersection(0.0, 0.0)),
                     "aloha_p", (0.2, 0.5))
    assert validate_sweep(spec) is spec


def test_compare_rows_labels_and_verdicts():
    rows = [SweepRow("NLOS", "density", 0.005, outage_analytic=0.30,
                     outage_mc=0.305, mc_stderr=0.001),
            SweepRow("grid point", "none", 0.0, outage_analytic=0.30,
                     outage_mc=0.35, mc_stderr=0.01),
            SweepRow("m10", "lanes", 2.0, error="analytic: order")]
    report = compare_rows(rows)
    assert [p.label for p in report.points] == [
        "NLOS density=0.005", "grid point", "m10 lanes=2"]
    assert [p.passed for p in report.points] == [True, False, False]
    assert report.points[1].tolerance == pytest.approx(0.03)
    assert report.points[2].abs_diff is None
    assert [p.row for p in report.points] == rows


#: alpha = 3.3 with D off both roads: every lane is quadratured.
GENERAL = base_scenario(channel=ChannelParams(alpha=3.3, m=4),
                        geometry=DestinationGeometry(50.0, 0.5))
#: At density 0.1 and above, 1/rate caps the cut of the lane nearest D, so
#: rows that share its integrals cut them at different edges.
GENERAL_AXES = {"density": (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0),
                "distance_d": (0.0, 25.0, 50.0, 100.0),
                "lanes": (1.0, 2.0, 3.0),
                "threshold_db": (-3.0, 0.0, 3.0),
                "aloha_p": (0.2, 0.5, 1.0)}


@pytest.mark.parametrize("axis", sorted(GENERAL_AXES))
def test_sweep_rows_equal_their_points_outside_a_sweep(axis):
    # The dense variant comes first, so sparse points cut the integrals it
    # quadratured with their own rates.
    spec = SweepSpec(GENERAL, axis, GENERAL_AXES[axis],
                     engines=("analytic",),
                     variants=(Variant("dense", layout=RoadLayout.intersection(
                                   1.0, 1.0)),
                               Variant("general"),
                               Variant("a1.05", channel=ChannelParams(
                                   alpha=1.05, m=3))))
    sim = SimConfig(trials=1)
    rows = run_sweep(spec, sim)
    alone = [sweep_row(scenario, spec.engines, sim, 1, variant.label, axis,
                       value)
             for _, variant, _, value, scenario in sweep_points(spec)]
    assert rows == alone
    assert all(r.outage_analytic is not None
               for r in rows if r.variant != "dense")
    # compare_engines shares one lane table over its grid as run_sweep does.
    report = compare_engines([(r.variant, scenario) for r, (*_, scenario)
                              in zip(rows, sweep_points(spec))], sim)
    assert [(p.row.outage_analytic, p.row.throughput_analytic, p.row.error)
            for p in report.points] == [
        (r.outage_analytic, r.throughput_analytic, r.error) for r in alone]
    # alpha = 1.05: its first point against QUADPACK
    # (tests/analytic_helpers.py).
    first = next(scenario for _, variant, _, _, scenario in sweep_points(spec)
                 if variant.label == "a1.05")
    row = next(r for r in rows if r.variant == "a1.05")
    assert row.outage_analytic == pytest.approx(
        1.0 - success_probability(first), rel=1e-8)


def test_a_sweep_of_series_and_rule_lanes_matches_its_points(monkeypatch):
    # D moves away from the crossing at theta = 0.5: near it both lanes of
    # the general variant lie within 2 rho = 61 m and are quadratured,
    # farther out one and then both take the far-lane series; the alpha =
    # 1.5 variant mixes them too.  Rows equal their points evaluated alone.
    served = {"series": 0, "rule": 0}
    series, rule = analytic._far_lanes, analytic._exponent_integrals

    def counted_series(s, h, alpha, order):
        values = series(s, h, alpha, order)
        served["series"] += int((~np.isnan(values[:, 0])).sum())
        return values

    def counted_rule(s, h, alpha, orders):
        served["rule"] += len(h)
        return rule(s, h, alpha, orders)
    monkeypatch.setattr(analytic, "_far_lanes", counted_series)
    monkeypatch.setattr(analytic, "_exponent_integrals", counted_rule)
    spec = SweepSpec(GENERAL, "distance_d",
                     (25.0, 50.0, 100.0, 150.0, 400.0, 1e4),
                     engines=("analytic",),
                     variants=(Variant("general"),
                               Variant("a1.5", channel=ChannelParams(
                                   alpha=1.5, m=9))))
    sim = SimConfig(trials=1)
    rows = run_sweep(spec, sim)
    assert served["series"] > 0 and served["rule"] > 0
    assert rows == [sweep_row(scenario, spec.engines, sim, 1, variant.label,
                              "distance_d", value)
                    for _, variant, _, value, scenario in sweep_points(spec)]
    assert all(row.error == "" for row in rows)
    # Every axis on an intersection, a highway and an off-road layout with
    # duplicate lane offsets, for these variants and NLOS: the rows are
    # bit-identical to their points alone, and so are the sweep's arrays.
    layouts = (RoadLayout.intersection(0.01, 0.02), RoadLayout.highway(0.01),
               RoadLayout((0.0, 3.5, 3.5, 7.0), (0.0, 0.0, 10.0), 0.01,
                          0.005))
    axes = {"density": (0.0, 0.001, 0.01, 0.1),
            "distance_d": (0.0, 3.5, 25.0, 150.0, 1e4),
            "lanes": (1.0, 2.0, 3.0), "threshold_db": (-10.0, 0.0, 10.0),
            "aloha_p": (0.0, 0.3, 1.0)}
    for axis, values in axes.items():
        for layout in layouts:
            one = SweepSpec(replace(GENERAL, layout=layout,
                                    geometry=DestinationGeometry(50.0, 0.7)),
                            axis, values, engines=("analytic",),
                            variants=spec.variants + (Variant(
                                "NLOS", channel=NLOS),))
            points = sweep_points(one)
            assert [repr(row) for row in run_sweep(one, sim)] == [
                repr(sweep_row(scenario, one.engines, sim, 1, variant.label,
                               axis, value))
                for _, variant, _, value, scenario in points], (axis, layout)
            assert_arrays_from_lanes(one, points)


def assert_arrays_from_lanes(spec, points):
    """A sweep's batch of arrays equals the one analytic.scenario_points
    forms from its points' Scenario.lanes()."""
    swept = sweep._variants(spec, batch=True)[1]
    alone = analytic.scenario_points([scenario for *_, scenario in points])
    assert [(c.dtype, c.tolist()) for c in swept] == [
        (c.dtype, c.tolist()) for c in alone]


def test_axis_checks_give_the_messages_of_full_validation():
    # Only the first value of a variant is validated in full; the others
    # are checked for what their axis can break.  Either way a failing
    # point raises what validate_scenario says of it, labeled.
    far = base_scenario(geometry=DestinationGeometry(0.0, math.pi / 2),
                        layout=RoadLayout((-1e308,), (), 0.01, 0.0))
    flat = Variant("flat", channel=ChannelParams(alpha=1.0, m=1))
    cases = [(SweepSpec(base_scenario(), "density", (-0.01, 0.01)), 0, 0),
             (SweepSpec(base_scenario(), "distance_d", (-5.0, 10.0)), 0, 0),
             (SweepSpec(far, "distance_d", (0.0, 1e308)), 0, 1),
             (SweepSpec(base_scenario(), "aloha_p", (0.5, 1.5)), 0, 1),
             (SweepSpec(base_scenario(), "lanes", (1.0, 2.0, 3.0),
                        lane_spacing=1e308), 0, 2),
             (SweepSpec(base_scenario(), "threshold_db", (0.0, 3.0),
                        variants=(Variant("base"), flat)), 1, 0)]
    sim = SimConfig(trials=1)
    messages = []
    for spec, vi, xi in cases:
        variant, value = spec.variants[vi], spec.values[xi]
        with pytest.raises(ValidationError) as full:
            validate_scenario(apply_axis_value(apply_variant(
                spec.base, variant), spec.axis, value, spec.lane_spacing))
        messages.append(f"{point_label(variant.label, spec.axis, value)}: "
                        f"{full.value}")
        for run in (validate_sweep, lambda s: run_sweep(s, sim)):
            with pytest.raises(ValueError) as raised:
                run(spec)
            assert str(raised.value) == messages[-1]
    assert messages[0] == ("base density=-0.01: lambda_x is negative; "
                           "lambda_y is negative")
    assert messages[2].startswith("base distance_d=1e+308: lanes_x has a "
                                  "lane whose distance")


def test_a_batch_of_several_rule_passes_matches_its_points(monkeypatch):
    # 1 to 10 lanes on both roads, D off both: the 10-lane row has 20 lane
    # distances, all quadratured at m = 9, more lane-orders than one rule
    # pass holds, and the batch meets them in another order than that row.
    spec = SweepSpec(base_scenario(channel=ChannelParams(alpha=3.3, m=9),
                                   geometry=DestinationGeometry(50.0, 0.7)),
                     "lanes", tuple(float(n) for n in range(1, 11)),
                     engines=("analytic",))
    sim = SimConfig(trials=1)
    points = sweep_points(spec)
    widest = points[-1][-1]
    assert len({lane.h for lane in widest.lanes()}) == 20
    assert 20 * 9 > analytic._PASS_ROWS

    def alone():
        return [sweep_row(scenario, spec.engines, sim, 1, variant.label,
                          "lanes", value)
                for _, variant, _, value, scenario in points]
    rows = run_sweep(spec, sim)
    assert rows == alone()
    assert all(row.error == "" for row in rows)
    # A rule pass that misses the tolerance at the sixth X lane fails the
    # rows with 6 lanes or more, each with the text it gives alone.
    missed = widest.lanes()[5].h
    real = analytic._tanh_sinh

    def missing(s, h, alpha, orders, cut=None, near=False):
        values, errors, achieved = real(s, h, alpha, orders, cut, near)
        achieved[h == missed] = 2e-3
        return values, errors, achieved
    monkeypatch.setattr(analytic, "_tanh_sinh", missing)
    rows = run_sweep(spec, sim)
    assert rows == alone()
    assert [row.error for row in rows] == [
        "" if value < 6 else "analytic: interference integral did not "
        "converge (achieved relative error 2.000e-03)" for value in spec.values]


def test_a_point_whose_argument_overflows_is_certain_outage_in_its_batch():
    # The "faint" variant's Laplace argument m Theta / mu / l_SD overflows
    # to inf, which the engine reads as certain outage, with no error; the
    # other rows of the batch are what they are alone.
    spec = SweepSpec(base_scenario(), "aloha_p", (0.2, 0.5),
                     engines=("analytic",),
                     variants=(Variant("NLOS"), Variant(
                         "faint", channel=ChannelParams(4.0, 1, mu=5e-324))))
    sim = SimConfig(trials=1)
    points = sweep_points(spec)
    assert [scenario.laplace_argument for *_, scenario in points][2:] == [
        math.inf, math.inf]
    rows = run_sweep(spec, sim)
    assert rows == [sweep_row(scenario, spec.engines, sim, 1, variant.label,
                              "aloha_p", value)
                    for _, variant, _, value, scenario in points]
    assert [row.error for row in rows] == [""] * 4
    assert [row.outage_analytic for row in rows][2:] == [1.0, 1.0]
    assert all(row.outage_analytic < 1.0 for row in rows[:2])


def test_a_lane_that_raises_fails_only_its_points(monkeypatch):
    # The closed form of the third X lane's distance raises: the batch it
    # is in evaluates each point alone, and only the rows with 3 lanes or
    # more carry the error.
    spec = SweepSpec(base_scenario(geometry=DestinationGeometry(50.0, 0.7)),
                     "lanes", (1.0, 2.0, 3.0, 4.0), engines=("analytic",))
    sim = SimConfig(trials=1)
    points = sweep_points(spec)
    broken = points[-1][-1].lanes()[2].h
    real = analytic._lane_jets

    def jet(s, h, alpha, order):
        if broken in h:
            raise ValueError("no jet here")
        return real(s, h, alpha, order)
    monkeypatch.setattr(analytic, "_lane_jets", jet)
    rows = run_sweep(spec, sim)
    assert rows == [sweep_row(scenario, spec.engines, sim, 1, variant.label,
                              "lanes", value)
                    for _, variant, _, value, scenario in points]
    assert [row.error for row in rows] == [
        "", "", "analytic: no jet here", "analytic: no jet here"]


def test_a_long_sweep_keeps_the_memory_of_one_chunk(monkeypatch):
    # 200 points of 20 lanes at m = 100: one array over all their (point,
    # lane) pairs and orders would take 3.2 MB, and the batch's temporaries
    # a dozen of those.  A chunk holds 163 pairs, so the first chunk edge
    # falls inside point 8, which sums its pairs across two chunks.
    base = base_scenario(channel=ChannelParams(alpha=3.3, m=100),
                         geometry=DestinationGeometry(50.0, 0.7),
                         layout=RoadLayout.multi_lane(10, 0.01))
    spec = SweepSpec(base, "density",
                     tuple(1e-5 * (i + 1) for i in range(200)),
                     engines=("analytic",))
    sim = SimConfig(trials=1)
    tracemalloc.start()
    try:
        rows = run_sweep(spec, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert all(row.error == "" for row in rows)
    assert len(sweep._variants(spec, batch=True)[1].point) == 200 * 20
    assert 8 * 20 < analytic._BATCH_CELLS // 100 < 9 * 20
    points = sweep_points(spec)
    for i in (0, 7, 8, 9, 199):
        _, variant, _, value, scenario = points[i]
        assert rows[i] == sweep_row(scenario, spec.engines, sim, 1,
                                    variant.label, "density", value)
    # Every point has the same 20 lanes: the first chunk evaluates them,
    # and the other 24 chunks reuse them.
    evaluated = []
    real = analytic._evaluate_lanes

    def counted(s, h, alpha, order, size):
        evaluated.extend(h.tolist())
        return real(s, h, alpha, order, size)
    monkeypatch.setattr(analytic, "_evaluate_lanes", counted)
    assert run_sweep(spec, sim) == rows
    assert len(evaluated) == len(set(evaluated)) == 20


def test_shared_integrals_last_one_sweep(monkeypatch):
    calls = []
    real = analytic._exponent_integrals

    def counted(s, hs, alpha, orders):
        calls.extend((si, h, alpha, orders)
                     for si, h in zip(s.tolist(), hs.tolist()))
        return real(s, hs, alpha, orders)
    monkeypatch.setattr(analytic, "_exponent_integrals", counted)
    spec = SweepSpec(GENERAL, "density", GENERAL_AXES["density"],
                     engines=("analytic",))
    swept, alone = [], []
    for _ in range(2):
        calls.clear()
        run_sweep(spec, SimConfig(trials=1))
        swept.append(list(calls))
        per_point = []
        for *_, scenario in sweep_points(spec):
            calls.clear()
            analytic.outage_probability(scenario)
            per_point.append(list(calls))
        alone.append(per_point)
    # Nothing is left over from an earlier sweep: the first point
    # quadratures what it does outside a sweep, and so does every point
    # outside a sweep each time.
    assert swept[0][:len(alone[0][0])] == alone[0][0]
    assert swept[0] == swept[1]
    assert alone[0] == alone[1]
    assert len(swept[0]) < sum(map(len, alone[0]))
    # Each lane is quadratured once per sweep; the densest row, which cuts
    # the shared integrals with its own rate, against QUADPACK.
    assert len(set(swept[0])) == len(swept[0])
    rows = run_sweep(spec, SimConfig(trials=1))
    densest = list(sweep_points(spec))[-1][-1]
    assert rows[-1].outage_analytic == pytest.approx(
        1.0 - success_probability(densest), rel=1e-8)
