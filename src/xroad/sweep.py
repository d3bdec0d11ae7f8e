"""Parameter sweeps, CSV output, and the cross-engine verification grid."""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analytic, montecarlo
from .model import (LOS, NLOS, ChannelParams, DestinationGeometry, LinkSpec,
                    RoadLayout, Scenario, throughput, validate_scenario)
from .montecarlo import SimConfig, estimate_group

AXES = ("density", "distance_d", "lanes", "threshold_db", "aloha_p")
ENGINES = ("analytic", "montecarlo")


@dataclass(frozen=True)
class Variant:
    """A labeled override of the base scenario (channel and/or layout)."""

    label: str
    channel: ChannelParams | None = None
    layout: RoadLayout | None = None


@dataclass(frozen=True)
class SweepSpec:
    """One experiment family: a base scenario, a swept axis, and variants."""

    base: Scenario
    axis: str
    values: tuple[float, ...]
    engines: tuple[str, ...] = ENGINES
    variants: tuple[Variant, ...] = (Variant("base"),)
    lane_spacing: float = 3.5


def db_to_linear(value_db: float) -> float:
    """Linear power ratio of a dB value; inf where it overflows a float."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


def validate_sweep(spec: SweepSpec) -> SweepSpec:
    """The spec itself, once it and every point of it are valid; raises
    ValueError otherwise (see sweep_points)."""
    _variants(spec)
    return spec


def apply_variant(base: Scenario, variant: Variant) -> Scenario:
    scenario = base
    if variant.channel is not None:
        scenario = replace(scenario, channel=variant.channel)
    if variant.layout is not None:
        scenario = replace(scenario, layout=variant.layout)
    return scenario


def _touched(layout: RoadLayout) -> tuple[bool, bool]:
    """Whether the density and lanes axes touch the X and the Y road: they
    touch a road that is active, one with lanes and a positive intensity."""
    return (bool(layout.lanes_x) and layout.lambda_x > 0,
            bool(layout.lanes_y) and layout.lambda_y > 0)


def apply_axis_value(scenario: Scenario, axis: str,
                     value: float | np.ndarray,
                     lane_spacing: float = 3.5) -> Scenario:
    """Scenario at one sweep point.  On the density, distance_d and
    aloha_p axes `value` may be a column of values: Scenario.lanes() of
    that scenario gives every point's lanes at once (_lane_pairs).

    The density and lanes axes touch only roads that are active in the
    variant (_touched), so a highway variant stays a highway across the
    sweep; with no active road they raise ValueError, since they would
    change nothing.
    """
    lay = scenario.layout
    x_active, y_active = _touched(lay)
    if axis in ("density", "lanes") and not (x_active or y_active):
        raise ValueError(f"no road has lanes and a positive intensity, so "
                         f"the {axis} axis changes nothing; set "
                         "lambda_x/lambda_y")
    if axis == "density":
        return replace(scenario, layout=replace(
            lay, lambda_x=value if x_active else lay.lambda_x,
            lambda_y=value if y_active else lay.lambda_y))
    if axis == "distance_d":
        return replace(scenario,
                       geometry=replace(scenario.geometry, d=value))
    if axis == "lanes":
        offsets = tuple(i * lane_spacing for i in range(int(value)))
        return replace(scenario, layout=replace(
            lay, lanes_x=offsets if x_active else lay.lanes_x,
            lanes_y=offsets if y_active else lay.lanes_y))
    if axis == "threshold_db":
        return replace(scenario, theta_threshold=db_to_linear(value))
    if axis == "aloha_p":
        return replace(scenario, p=value)
    raise ValueError(f"unknown sweep axis {axis!r}")


def point_label(variant: str, axis: str, value: float) -> str:
    """"<variant> <axis>=<value>", or the bare variant on axis "none"."""
    return variant if axis == "none" else f"{variant} {axis}={value:g}"


def check_spec(spec: SweepSpec) -> None:
    """Raise ValueError if the spec's axis, values, engines or variants are
    unusable; its points are left to sweep_points."""
    if spec.axis not in AXES:
        raise ValueError(f"sweep axis must be one of {AXES}")
    if not spec.values:
        raise ValueError("sweep values must be nonempty")
    if not all(math.isfinite(v) for v in spec.values):
        raise ValueError("sweep values must be finite")
    if any(b <= a for a, b in zip(spec.values, spec.values[1:])):
        raise ValueError("sweep values must be strictly increasing")
    if not spec.engines or any(e not in ENGINES for e in spec.engines):
        raise ValueError(f"engines must be a nonempty subset of {ENGINES}")
    if spec.axis == "lanes" and any(v != int(v) or v < 1
                                    for v in spec.values):
        raise ValueError("lane counts must be positive integers")
    if spec.axis == "threshold_db" and not all(
            0.0 < db_to_linear(v) < math.inf for v in spec.values):
        raise ValueError("threshold_db values must give a positive, finite "
                         "linear threshold")
    if not spec.variants:
        raise ValueError("at least one variant is required")


def sweep_points(spec: SweepSpec) -> list[tuple]:
    """(variant index, variant, value index, value, scenario) of every
    point, in (variant, value) order, as validate_scenario returns it.  An
    invalid spec or point raises ValueError, naming the point ("base
    aloha_p=1.5: Aloha probability ...")."""
    return _scenarios(spec, _variants(spec)[0])


def _scenarios(spec: SweepSpec, variants: list[tuple]) -> list[tuple]:
    return [(vi, variant, xi, value, apply_axis_value(
                scenario, spec.axis, value, spec.lane_spacing))
            for vi, (variant, scenario) in enumerate(variants)
            for xi, value in enumerate(spec.values)]


def _variants(spec: SweepSpec, batch: bool = False
              ) -> tuple[list[tuple], analytic.Points | None]:
    """(variant, its scenario before the axis) of each variant, and, if
    `batch`, the analytic batch of all points (else None); raises as
    sweep_points does.  The base and each variant at the first value are
    validated in full, the other values only where the axis may break them
    (_lane_pairs), and such a point in full, for its message."""
    check_spec(spec)
    validate_scenario(spec.base)
    n = len(spec.values)
    variants, args, pairs, known = [], [], [], {}
    for vi, variant in enumerate(spec.variants):
        scenario = apply_variant(spec.base, variant)
        first = _validated(spec, variant, scenario, 0)
        if first.channel is not scenario.channel:       # m made an int
            scenario = replace(scenario, channel=first.channel)
        if scenario.layout not in known:
            known[scenario.layout] = _lane_pairs(spec, scenario, batch)
        lanes, broken = known[scenario.layout]
        for xi in broken:
            _validated(spec, variant, scenario, xi)
        variants.append((variant, scenario))
        if batch:
            args += [first.laplace_argument_at(
                db_to_linear(value) if spec.axis == "threshold_db"
                else first.theta_threshold) for value in spec.values]
            pairs.append((lanes[0] + vi * n, *lanes[1:]))
    if not batch:
        return variants, None
    channels = [scenario.channel for _, scenario in variants]
    return variants, analytic.Points(
        np.array(args), np.repeat([float(ch.alpha) for ch in channels], n),
        np.repeat([ch.m - 1 for ch in channels], n),
        *map(np.concatenate, zip(*pairs)))


def _validated(spec: SweepSpec, variant: Variant, scenario: Scenario,
               xi: int) -> Scenario:
    value = spec.values[xi]
    try:
        return validate_scenario(apply_axis_value(
            scenario, spec.axis, value, spec.lane_spacing))
    except ValueError as exc:
        label = point_label(variant.label, spec.axis, value)
        raise ValueError(f"{label}: {exc}") from exc


def _lane_pairs(spec: SweepSpec, scenario: Scenario, merge: bool
                ) -> tuple[tuple | None, np.ndarray]:
    """analytic.merged_lanes of a variant's points (None unless `merge`),
    from its scenario before the axis, and the values where the axis may
    break a point (Aloha p above 1, a lane distance from D that is not
    finite).  apply_axis_value takes all values as one column, lanes() of
    that scenario gives a column per lane; the lanes axis takes the most
    lanes and keeps lane i of a road it touches where i is below the value."""
    v, wide, has = np.array(spec.values)[:, None], scenario, True
    if spec.axis == "lanes":
        wide = apply_axis_value(scenario, "lanes", spec.values[-1],
                                spec.lane_spacing)
        has = np.array([i if touched else -1 for touched, road in zip(
            _touched(scenario.layout),
            (wide.layout.lanes_x, wide.layout.lanes_y))
            for i in range(len(road))]) < v
    elif spec.axis != "threshold_db":
        wide = apply_axis_value(scenario, spec.axis, v)
    with np.errstate(over="ignore", invalid="ignore"):
        lanes = wide.lanes()
        h, rate = np.zeros((2, len(v), len(lanes)))
        for j, lane in enumerate(lanes):
            h[:, j:j + 1], rate[:, j:j + 1] = lane.h, wide.p * lane.intensity
    broken = ~np.isfinite(h).all(axis=1) | (np.broadcast_to(
        wide.p, v.shape)[:, 0] > 1.0)
    return (analytic.merged_lanes(np.repeat(np.arange(len(v)), len(lanes)),
                                  h.ravel(), (rate * has).ravel())
            if merge else None, np.flatnonzero(broken))


@dataclass(frozen=True)
class SweepRow:
    """One CSV record, its fields the columns; engine fields left None when
    not computed."""

    variant: str
    axis: str
    value: float
    outage_analytic: float | None = None
    throughput_analytic: float | None = None
    outage_mc: float | None = None
    mc_stderr: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    trials: int | None = None
    error: str = ""


#: Stable CSV schema; missing engine values are written as empty fields.
CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
    return z ^ (z >> 31)


def row_seed(master_seed: int, variant_index: int, value_index: int) -> int:
    """Deterministic per-row sub-seed, independent of execution order."""
    mixed = _splitmix64(master_seed & ((1 << 64) - 1))
    mixed = _splitmix64(mixed ^ variant_index)
    return _splitmix64(mixed ^ value_index)


def sweep_row(scenario: Scenario, engines: tuple[str, ...], sim: SimConfig,
              workers: int, variant: str, axis: str, value: float
              ) -> SweepRow:
    """The row of one validated scenario from the requested engines,
    Monte-Carlo seeded by sim.master_seed as given: a group of one, so its
    Monte-Carlo columns are those of estimate().  An engine error lands in
    the row's error column and the other engine still runs."""
    return _scenario_rows([(variant, axis, value, scenario, sim.master_seed)],
                          engines, sim, workers)[0]


def _scenario_rows(points: list[tuple], engines: tuple[str, ...],
                   sim: SimConfig, workers: int) -> list[SweepRow]:
    """_rows of validated (variant label, axis, value, scenario, seed)
    points, the analytic batch from Scenario.lanes()."""
    return _rows([(*point[:3], point[3].theta_threshold) for point in points],
                 analytic.scenario_points([point[3] for point in points])
                 if "analytic" in engines else None,
                 [point[3:] for point in points]
                 if "montecarlo" in engines else None, sim, workers)


def _rows(meta: list[tuple], batch, runs: list[tuple] | None,
          sim: SimConfig, workers: int) -> list[SweepRow]:
    """The row of each (variant label, axis, value, SIR threshold): the
    analytic engine on all of them as one batch (None: not requested), and
    Monte-Carlo on each of runs' (scenario, seed) (None likewise; see
    _estimates).  An engine error lands in the row's error column."""
    results = (analytic.success_probabilities(batch) if batch is not None
               else [None] * len(meta))
    estimates = (_estimates(runs, sim, workers) if runs is not None
                 else [None] * len(meta))
    return [_row(*row, result, est)
            for row, result, est in zip(meta, results, estimates)]


def _estimates(runs: list[tuple], sim: SimConfig, workers: int) -> list:
    """The OutageEstimate, or the error, of each (scenario, seed) run.
    Runs with equal montecarlo.interferer_field form a group that shares
    its draws, run once by estimate_group under the seed of its first
    run; an error fails each run of its group.  The groups share one
    worker pool for this call only, where estimate_group would fork."""
    groups: dict[tuple, list[int]] = {}
    for i, (scenario, _) in enumerate(runs):
        groups.setdefault(montecarlo.interferer_field(scenario),
                          []).append(i)
    estimates: list = [None] * len(runs)
    ranges = montecarlo._ranges(sim, workers)
    with (montecarlo._fork_pool(ranges) if ranges > 1
          else nullcontext()) as pool:
        for members in groups.values():
            try:
                results = estimate_group(
                    [runs[i][0] for i in members],
                    replace(sim, master_seed=runs[members[0]][1]), workers,
                    pool=pool)
            except (ValueError, ArithmeticError) as exc:
                results = [exc] * len(members)
            for i, result in zip(members, results):
                estimates[i] = result
    return estimates


def _row(variant: str, axis: str, value: float, theta: float, result,
         est) -> SweepRow:
    errors = [f"analytic: {result}"] if isinstance(result, Exception) else []
    cells = ((None, None) if result is None or errors
             else (1.0 - result, throughput(result, theta)))
    if isinstance(est, Exception):
        errors.append(f"montecarlo: {est}")
    elif est is not None:
        cells += (est.p_hat, est.stderr, est.ci_low, est.ci_high, est.trials)
    return SweepRow(variant, axis, value, *cells, *(None,) * (7 - len(cells)),
                    "; ".join(errors))


def run_sweep(spec: SweepSpec, sim: SimConfig,
              workers: int = 1) -> list[SweepRow]:
    """All sweep rows in (variant, value) order.

    The spec is validated before any engine runs: each variant in full at
    the first value, the other values for what their axis can break
    (_variants).  The analytic engine gets all points as one batch of
    arrays, the axis applied as one array operation; each point's Scenario
    and seed (row_seed) are built only for Monte-Carlo, where the points
    that share an interferer field share its draws under the seed of the
    first of them (_estimates).  Engine failures land in the
    row's error column and the sweep carries on; callers decide what a
    failed row means for the exit code.
    """
    variants, batch = _variants(spec, "analytic" in spec.engines)
    meta = [(variant.label, spec.axis, value, db_to_linear(value)
             if spec.axis == "threshold_db" else scenario.theta_threshold)
            for variant, scenario in variants for value in spec.values]
    runs = ([(scenario, row_seed(sim.master_seed, vi, xi))
             for vi, _, xi, _, scenario in _scenarios(spec, variants)]
            if "montecarlo" in spec.engines else None)
    return _rows(meta, batch, runs, sim, workers)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # full round-trip precision
    return str(value)


def write_csv(rows: list[SweepRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, col))
                             for col in CSV_COLUMNS])


@dataclass(frozen=True)
class PointComparison:
    """One verify grid point: its engine row and the agreement verdict;
    tolerance and abs_diff are None when the row carries an error."""

    label: str
    row: SweepRow
    tolerance: float | None
    abs_diff: float | None
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    points: tuple[PointComparison, ...]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.points)


def default_verification_grid() -> list[tuple[str, Scenario]]:
    """12 scenarios spanning both channel presets, three destination
    distances and two densities.

    The link distance is short enough that the finite simulated road
    (doubled to 4000 m in verify runs) reproduces the infinite-road
    analytics to well under the comparison tolerance.
    """
    grid = []
    for name, ch in (("NLOS", NLOS), ("LOS", LOS)):
        for d in (0.0, 200.0, 1000.0):
            for lam in (0.005, 0.02):
                label = f"{name} d={d:g} lam={lam:g}"
                grid.append((label, Scenario(
                    channel=ch,
                    geometry=DestinationGeometry(d=d, theta=0.0),
                    link=LinkSpec(r=10.0),
                    layout=RoadLayout.intersection(lam, lam),
                    p=0.5,
                    theta_threshold=1.0,
                )))
    return grid


def compare_rows(rows: list[SweepRow]) -> ComparisonReport:
    """Verdict per two-engine row: it passes when |analytic - mc| <=
    max(0.01, 3 * stderr), so small-trial runs widen their own tolerance,
    and fails on an engine error; each point is labeled by point_label."""
    points = []
    for row in rows:
        label = point_label(row.variant, row.axis, row.value)
        tol = diff = None
        if not row.error:
            tol = max(0.01, 3.0 * row.mc_stderr)
            diff = abs(row.outage_analytic - row.outage_mc)
        points.append(PointComparison(label=label, row=row, tolerance=tol,
                                      abs_diff=diff,
                                      passed=diff is not None and diff <= tol))
    return ComparisonReport(points=tuple(points))


def compare_engines(grid: list[tuple[str, Scenario]], sim: SimConfig,
                    workers: int = 1) -> ComparisonReport:
    """compare_rows on the row of every grid point, computed as a sweep's
    rows are: the analytic engine evaluates the points as one batch, and
    Monte-Carlo runs each group of points that share an interferer field
    once, seeded by row_seed(sim.master_seed, 0, index) of its first point
    (in the default grid, each LOS point shares the draws of the NLOS
    point at its distance and density).  An invalid scenario raises
    ValidationError before any engine runs."""
    grid = [(label, validate_scenario(scenario)) for label, scenario in grid]
    return compare_rows(_scenario_rows(
        [(label, "none", 0.0, scenario, row_seed(sim.master_seed, 0, i))
         for i, (label, scenario) in enumerate(grid)],
        ENGINES, sim, workers))
