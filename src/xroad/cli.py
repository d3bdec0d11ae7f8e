"""Command-line front end.

Subcommands:
  point   - outage/throughput of a single configured scenario
  sweep   - parameter sweep to CSV (plus a .meta.json sidecar)
  verify  - analytic vs Monte-Carlo agreement on a verification grid
  preset  - run a packaged figure-style sweep (fig2, fig3, fig4)

Exit codes: 0 success, 2 config error, 3 numeric error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import replace
from importlib import resources

import numpy

from . import __version__
from .config import (ConfigError, load_config, parse_scenario, parse_sim,
                     parse_sweep, sim_section)
from .model import ValidationError
from .montecarlo import SimConfig, shutdown_pool
from .sweep import (ENGINES, SweepRow, SweepSpec, compare_engines,
                    compare_rows, default_verification_grid, point_label,
                    run_sweep, sweep_row, write_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_ENGINE_CHOICES = {"analytic": ("analytic",), "mc": ("montecarlo",),
                   "both": ENGINES}

PRESETS = ("fig2", "fig3", "fig4")

_CONFIG_HELP = "path to a JSON experiment config"


def _add_common(parser: argparse.ArgumentParser, writes_csv: bool) -> None:
    """The run options every subcommand reads, plus --out and --engine for
    the subcommands that write a CSV."""
    if writes_csv:
        parser.add_argument("--out", help="CSV output path")
        parser.add_argument("--engine", choices=sorted(_ENGINE_CHOICES),
                            default="both", help="which engines to run")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--trials", type=int,
                        help="override the Monte-Carlo trial count")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for Monte-Carlo trials")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xroad",
        description="Outage probability of a link near a road intersection "
                    "with Poisson fields of interfering vehicles.")
    parser.add_argument("--version", action="version",
                        version=f"xroad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate a single scenario")
    p_point.add_argument("--config", required=True, help=_CONFIG_HELP)
    _add_common(p_point, writes_csv=True)

    p_sweep = sub.add_parser("sweep", help="run a configured sweep to CSV")
    p_sweep.add_argument("--config", required=True, help=_CONFIG_HELP)
    _add_common(p_sweep, writes_csv=True)

    p_verify = sub.add_parser(
        "verify", help="check analytic vs Monte-Carlo agreement")
    p_verify.add_argument("--config", help=_CONFIG_HELP)
    _add_common(p_verify, writes_csv=False)
    p_verify.set_defaults(engine="both")

    p_preset = sub.add_parser("preset", help="run a packaged figure sweep")
    p_preset.add_argument("name", choices=PRESETS)
    _add_common(p_preset, writes_csv=True)
    return parser


def _load_preset(name: str) -> dict:
    text = (resources.files("xroad") / "presets" / f"{name}.json").read_text(
        encoding="utf-8")
    return json.loads(text)


def _cannot_write(exc: OSError, path: str) -> ConfigError:
    return ConfigError(
        f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _check_writable(out: str) -> None:
    """Fail as writing the CSV at `out` or its sidecar would, before any
    engine runs; a file this creates is removed again."""
    for path in (out, out + ".meta.json"):
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise _cannot_write(exc, path) from exc
        if not existed:
            os.remove(path)


def _write_outputs(rows: list[SweepRow], out: str, raw: dict, sim: SimConfig,
                   engines: tuple[str, ...]) -> None:
    """The CSV and its <out>.meta.json sidecar.  The sidecar's `config` is
    the config that ran, with `sim` as the overrides left it, so `point` or
    `sweep` run on it with the recorded engines reproduces the CSV."""
    meta = {
        "tool": "xroad",
        "version": __version__,
        "engines": list(engines),
        "config": {**raw, "sim": sim_section(sim)},
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__},
    }
    try:
        write_csv(rows, out)
        with open(out + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise _cannot_write(exc, out) from exc


def _cmd_point(args) -> int:
    raw = load_config(args.config)
    scenario = parse_scenario(raw)
    sim = parse_sim(raw.get("sim", {}), seed=args.seed, trials=args.trials)
    engines = _ENGINE_CHOICES[args.engine]
    if args.out:
        _check_writable(args.out)
    row = sweep_row(scenario, engines, sim, args.workers, "point", "none", 0.0)
    if row.outage_analytic is not None:
        print(f"outage (analytic)      {row.outage_analytic:.6f}")
        print(f"throughput (analytic)  {row.throughput_analytic:.6f} "
              "bit/s/Hz")
    if row.error:
        print(f"numeric error: {row.error}", file=sys.stderr)
        return EXIT_NUMERIC
    if row.outage_mc is not None:
        pct = 100.0 * sim.confidence
        throughput = scenario.throughput(1.0 - row.outage_mc)
        print(f"outage (monte-carlo)   {row.outage_mc:.6f} "
              f"(stderr {row.mc_stderr:.6f}, {pct:.0f}% CI "
              f"[{row.ci_low:.6f}, {row.ci_high:.6f}], "
              f"{row.trials} trials, seed {sim.master_seed})")
        print(f"throughput (mc)        {throughput:.6f} bit/s/Hz")
    if args.out:
        _write_outputs([row], args.out, raw, sim, engines)
    return EXIT_OK


def _sweep_config(raw: dict, args) -> tuple[SweepSpec, SimConfig]:
    """Sweep of a config, running the command's engines, and its sim with
    the overrides; the points are validated when the sweep runs."""
    scenario = parse_scenario(raw)
    if "sweep" not in raw:
        raise ConfigError("config has no 'sweep' section")
    spec = replace(parse_sweep(raw["sweep"], scenario),
                   engines=_ENGINE_CHOICES[args.engine])
    sim = parse_sim(raw.get("sim", {}), seed=args.seed, trials=args.trials)
    return spec, sim


def _sweep_rows(spec: SweepSpec, sim: SimConfig,
                workers: int) -> list[SweepRow]:
    """run_sweep's rows.  Engine errors land in the rows, so a ValueError
    it raises names an invalid point, before any engine ran: a config
    error."""
    try:
        return run_sweep(spec, sim, workers=workers)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc


def _run_sweep_config(raw: dict, args, default_out: str) -> int:
    spec, sim = _sweep_config(raw, args)
    out = args.out or default_out
    _check_writable(out)
    rows = _sweep_rows(spec, sim, args.workers)
    _write_outputs(rows, out, raw, sim, spec.engines)
    failures = [r for r in rows if r.error]
    print(f"wrote {len(rows)} rows to {out}"
          + (f" ({len(failures)} failed)" if failures else ""))
    for row in failures:
        print(f"  FAILED {point_label(row.variant, row.axis, row.value)}: "
              f"{row.error}")
    return EXIT_NUMERIC if failures else EXIT_OK


def _cmd_sweep(args) -> int:
    return _run_sweep_config(load_config(args.config), args, "sweep.csv")


def _cmd_preset(args) -> int:
    raw = _load_preset(args.name)
    return _run_sweep_config(raw, args, f"{args.name}.csv")


def _cmd_verify(args) -> int:
    if args.config:
        spec, sim = _sweep_config(load_config(args.config), args)
        report = compare_rows(_sweep_rows(spec, sim, args.workers))
    else:
        sim = replace(parse_sim({}, seed=args.seed, trials=args.trials),
                      half_length=4000.0)
        report = compare_engines(default_verification_grid(), sim,
                                 workers=args.workers)
    print(f"{'point':38s} {'analytic':>10s} {'mc':>10s} {'diff':>9s} "
          f"{'tol':>9s}  result")
    for pt in report.points:
        row = pt.row
        if row.error:
            print(f"{pt.label:38s} {'-':>10s} {'-':>10s} {'-':>9s} {'-':>9s} "
                  f" FAIL ({row.error})")
            continue
        verdict = "pass" if pt.passed else "FAIL"
        print(f"{pt.label:38s} {row.outage_analytic:10.6f} "
              f"{row.outage_mc:10.6f} {pt.abs_diff:9.6f} {pt.tolerance:9.6f} "
              f" {verdict}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"point": _cmd_point, "sweep": _cmd_sweep,
                "verify": _cmd_verify, "preset": _cmd_preset}
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        return handlers[args.command](args)
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        shutdown_pool()    # no worker process outlives the command


if __name__ == "__main__":
    sys.exit(main())
