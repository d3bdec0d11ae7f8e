"""Parameter sweeps, CSV output, and the cross-engine verification grid."""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import analytic, montecarlo
from .model import (LOS, NLOS, ChannelParams, DestinationGeometry, LinkSpec,
                    RoadLayout, Scenario, validate_scenario)
from .montecarlo import SimConfig, estimate

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
    sweep_points(spec)
    return spec


def apply_variant(base: Scenario, variant: Variant) -> Scenario:
    scenario = base
    if variant.channel is not None:
        scenario = replace(scenario, channel=variant.channel)
    if variant.layout is not None:
        scenario = replace(scenario, layout=variant.layout)
    return scenario


def apply_axis_value(scenario: Scenario, axis: str, value: float,
                     lane_spacing: float = 3.5) -> Scenario:
    """Scenario at one sweep point.

    The density and lanes axes touch only roads that are active in the
    variant (nonempty lanes with positive intensity), so a highway variant
    stays a highway across the sweep; with no active road they raise
    ValueError, since they would change nothing.
    """
    lay = scenario.layout
    x_active = bool(lay.lanes_x) and lay.lambda_x > 0
    y_active = bool(lay.lanes_y) and lay.lambda_y > 0
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
    """(variant index, variant, value index, value, validated scenario)
    for every sweep point, in (variant, value) order.  An invalid spec
    raises ValueError, and so does an invalid point, naming it ("base
    aloha_p=1.5: Aloha probability ...")."""
    check_spec(spec)
    validate_scenario(spec.base)
    points = []
    for vi, variant in enumerate(spec.variants):
        base = apply_variant(spec.base, variant)
        for xi, value in enumerate(spec.values):
            try:
                point = validate_scenario(apply_axis_value(
                    base, spec.axis, value, spec.lane_spacing))
            except ValueError as exc:
                label = point_label(variant.label, spec.axis, value)
                raise ValueError(f"{label}: {exc}") from exc
            points.append((vi, variant, xi, value, point))
    return points


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
              workers: int, variant: str, axis: str, value: float,
              pool=None) -> SweepRow:
    """The row of one validated scenario, from the requested engines: the
    analytic engine on this point alone, and Monte-Carlo seeded by
    sim.master_seed as given, run on `pool` if any.

    An engine error lands in the row's error column and the other engine
    still runs.
    """
    result = (analytic.outage_probabilities([scenario])[0]
              if "analytic" in engines else None)
    return _row(scenario, result, engines, sim, sim.master_seed, workers,
                variant, axis, value, pool)


def _row(scenario: Scenario, result, engines: tuple[str, ...],
         sim: SimConfig, seed: int, workers: int, variant: str, axis: str,
         value: float, pool) -> SweepRow:
    """sweep_row, given the analytic engine's result or error for the
    scenario (None when that engine is not requested), with Monte-Carlo
    seeded by `seed`."""
    cells: dict = {}
    errors: list[str] = []
    if isinstance(result, analytic.AnalyticResult):
        cells["outage_analytic"] = result.outage_prob
        cells["throughput_analytic"] = scenario.throughput(
            result.success_prob)
    elif result is not None:
        errors.append(f"analytic: {result}")
    if "montecarlo" in engines:
        try:
            est = estimate(scenario, replace(sim, master_seed=seed), workers,
                           pool=pool)
            cells.update(outage_mc=est.p_hat, mc_stderr=est.stderr,
                         ci_low=est.ci_low, ci_high=est.ci_high,
                         trials=est.trials)
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"montecarlo: {exc}")
    return SweepRow(variant=variant, axis=axis, value=value,
                    error="; ".join(errors), **cells)


def _rows(points: list[tuple], engines: tuple[str, ...], sim: SimConfig,
          workers: int) -> list[SweepRow]:
    """The sweep_row of every validated (variant label, axis, value,
    scenario, seed) point, in order, Monte-Carlo seeded by the point's
    seed.  The analytic engine evaluates all points as one batch
    (outage_probabilities), and where estimate would fork the rows share
    one worker pool, for this call only."""
    results = (analytic.outage_probabilities([point[3] for point in points])
               if "analytic" in engines else [None] * len(points))
    ranges = montecarlo._ranges(sim, workers) if "montecarlo" in engines else 1
    with (montecarlo._fork_pool(ranges) if ranges > 1
          else nullcontext()) as pool:
        return [_row(scenario, result, engines, sim, seed, workers, variant,
                     axis, value, pool)
                for (variant, axis, value, scenario, seed), result
                in zip(points, results)]


def run_sweep(spec: SweepSpec, sim: SimConfig,
              workers: int = 1) -> list[SweepRow]:
    """All sweep rows in (variant, value) order.

    Every point is validated, once, before any engine runs.  The analytic
    engine evaluates the rows as one batch, with one lane table for this
    call only (_rows).  Engine failures land in the row's error column and
    the sweep carries on; callers decide what a failed row means for the
    exit code.
    """
    return _rows([(variant.label, spec.axis, value, scenario,
                   row_seed(sim.master_seed, vi, xi))
                  for vi, variant, xi, value, scenario in sweep_points(spec)],
                 spec.engines, sim, workers)


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
    """compare_rows on the sweep_row of every grid point, Monte-Carlo
    seeded by row_seed(sim.master_seed, 0, index); the analytic engine
    evaluates the points as one batch, as it does a sweep's rows.  An
    invalid scenario raises ValidationError before any engine runs."""
    grid = [(label, validate_scenario(scenario)) for label, scenario in grid]
    return compare_rows(_rows(
        [(label, "none", 0.0, scenario, row_seed(sim.master_seed, 0, i))
         for i, (label, scenario) in enumerate(grid)],
        ENGINES, sim, workers))
