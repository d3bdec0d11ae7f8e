"""xroad benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; xroad is imported from its src/ directory.
One run:

1. times PROBES fresh interpreters that import xroad and build the
   workload's inputs (setup_s);
2. repeats rounds of the workload for about --seconds seconds; a round is a
   fixed list of requests through xroad's public entry points, the same in
   every round of a run, and starts only if it is expected to end in time
   (the first always runs);
3. checks the outputs (checks.py) and prints every metric by name with its
   unit, then, as the last line, one JSON object with the keys correct,
   attempted, failed and metrics.

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 the rounds run under the layer tracer (layers.py) and the
metrics are its per_layer list, each the median over the traced rounds.
Spans go to .bench_out/<workload>-seed<N>-trace1/spans.jsonl.

The exit code is 0 when every check passed and 1 otherwise, including a
checkout without xroad sources.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "xroad" / "__init__.py").is_file():
    sys.exit(f"no xroad sources under {SRC}")
sys.path.insert(0, str(SRC))

import xroad  # noqa: E402
import xroad.cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

#: Fresh interpreters timed per run for setup_s; the median is reported.
PROBES = 5
#: Fewest spot-check repetitions on analytic-sweeps (one runs after each
#: round); the median rate is reported.
SPOT_REPS = 5
#: Longest a child process may take before the run gives up on it.
CHILD_TIMEOUT = 170

median = statistics.median


class Round:
    """What one round did: per-request latencies and what they produced."""

    def __init__(self):
        self.wall = 0.0
        self.latencies: list[float] = []
        self.rows = 0
        self.error_rows = 0
        self.trials = 0
        self.failed = 0
        self.layers: dict[str, float] = {}


class Workload:
    """Builds its inputs from the seed, runs one round at a time, and checks
    what the rounds produced."""

    name = ""
    #: Whether rounds call xroad in this process (and are traced here).
    in_process = True

    def __init__(self, seed: int, out_dir: Path, tracer):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer          # layers.Tracer in traced runs, else None
        self.problems: list[str] = []

    def request(self, rnd: Round, fn, *args, **kwargs):
        """Time one request; a raised exception fails it and the check."""
        span = self.tracer.open("bench.request") if self.tracer else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            rnd.failed += 1
            self.problems.append(traceback.format_exc())
            return None
        finally:
            rnd.latencies.append(time.perf_counter() - t0)
            if span is not None:
                self.tracer.close(span)

    def prepare(self) -> None:
        """Untimed work before the first round (warm-up, references)."""

    def run_round(self, rnd: Round) -> None:
        raise NotImplementedError

    def between_rounds(self) -> None:
        """Untimed work after each round."""

    def finish(self) -> dict[str, float]:
        """Check the outputs; return metrics measured outside the rounds."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class AnalyticSweeps(Workload):
    """Seeded random scenarios, each swept along one axis with
    run_sweep(engines=("analytic",)); one request per sweep."""

    name = "analytic-sweeps"

    def __init__(self, *a):
        super().__init__(*a)
        self.specs = inputs.analytic_specs(self.seed)
        self.spot_scenarios = inputs.spot_scenarios(self.seed)
        self.first_rows: list | None = None
        self.spot: list = []
        self.spot_rates: list[float] = []

    def prepare(self):
        for spec in self.specs[:3]:
            xroad.run_sweep(spec, inputs.ANALYTIC_SIM)

    def run_round(self, rnd):
        rows_per_spec = []
        for spec in self.specs:
            rows = self.request(rnd, xroad.run_sweep, spec,
                                inputs.ANALYTIC_SIM) or []
            rows_per_spec.append(rows)
            rnd.rows += len(rows)
            rnd.error_rows += sum(1 for r in rows if r.error)
        if self.first_rows is None:
            self.first_rows = rows_per_spec
        elif rows_per_spec != self.first_rows:
            self.problems.append("analytic rows differ between rounds")

    def between_rounds(self):
        """One repetition of the Monte-Carlo spot check: estimate() on NLOS
        crossings.  Its trial rate is this workload's mc_trials_per_s; it
        runs between the rounds, so the other metrics see no Monte-Carlo
        work, and its repetitions spread over the run like the rounds."""
        sim = inputs.spot_sim(self.seed)
        t0 = time.perf_counter()
        self.spot = [xroad.estimate(sc, sim) for sc in self.spot_scenarios]
        self.spot_rates.append(sim.trials * len(self.spot)
                               / (time.perf_counter() - t0))

    def finish(self):
        self.problems += checks.check_analytic_rows(self.specs,
                                                    self.first_rows)
        ref_specs = inputs.analytic_specs(0)[:inputs.REFERENCE_SWEEPS]
        self.problems += checks.check_reference(
            [xroad.run_sweep(s, inputs.ANALYTIC_SIM) for s in ref_specs])
        while len(self.spot_rates) < SPOT_REPS:
            self.between_rounds()
        self.problems += checks.check_agreement([
            (f"spot {i}", xroad.outage_probability(sc).outage_prob,
             est.p_hat, est.stderr)
            for i, (sc, est) in enumerate(zip(self.spot_scenarios,
                                              self.spot))])
        return {"mc_trials_per_s": median(self.spot_rates)}


class McPresets(Workload):
    """`xroad preset fig2|fig3|fig4 --engine mc` through cli.main, one
    1024-trial block per point, one worker; one request per figure."""

    name = "mc-presets"

    def __init__(self, *a):
        super().__init__(*a)
        self.first_csv: dict[str, str] | None = None
        self.analytic_csv: dict[str, list] = {}

    def _cli(self, fig: str, engine: str) -> tuple[int, str]:
        out = self.out_dir / f"{fig}-{engine}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = xroad.cli.main([
                "preset", fig, "--engine", engine, "--workers", "1",
                "--trials", str(inputs.PRESET_TRIALS),
                "--seed", str(self.seed), "--out", str(out)])
        return code, out.read_text(encoding="utf-8") if code == 0 else ""

    def prepare(self):
        for fig in inputs.PRESETS:
            code, text = self._cli(fig, "analytic")
            if code != 0:
                self.problems.append(f"analytic preset {fig} exited {code}")
            self.analytic_csv[fig] = checks.parse_csv(text)

    def run_round(self, rnd):
        texts = {}
        for fig in inputs.PRESETS:
            code, text = self.request(rnd, self._cli, fig, "mc") or (None, "")
            if code != 0:
                if code is not None:
                    rnd.failed += 1
                    self.problems.append(f"preset {fig} exited {code}")
                continue
            texts[fig] = text
            rows = checks.parse_csv(text)
            rnd.rows += len(rows)
            rnd.error_rows += sum(1 for r in rows if r["error"])
            rnd.trials += sum(int(r["trials"] or 0) for r in rows)
        if self.first_csv is None:
            self.first_csv = texts
        elif texts != self.first_csv:
            self.problems.append("preset CSVs differ between rounds")

    def finish(self):
        mc = {fig: checks.parse_csv(text)
              for fig, text in self.first_csv.items()}
        if set(mc) == set(inputs.PRESETS):
            self.problems += checks.check_presets(self.analytic_csv, mc)
        else:
            self.problems.append("not every preset produced a CSV")
        return {}


class Verify2w(Workload):
    """`xroad verify --workers 2 --trials N` in a fresh process; one request
    per round.  Traced runs use tracecli.py as that process."""

    name = "verify-2w"
    in_process = False

    def __init__(self, *a):
        super().__init__(*a)
        self.runs = 0

    def _verify(self, rnd: Round, workers: int, trials: int) -> list | None:
        """One verify process; returns its spans when traced."""
        self.runs += 1
        args = ["verify", "--workers", str(workers), "--trials", str(trials),
                "--seed", str(self.seed)]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "xroad.cli", *args]
        else:
            trace_dir = self.out_dir / f"verify-{self.runs}"
            trace_dir.mkdir()
            cmd = [sys.executable, str(HERE / "tracecli.py"), str(trace_dir),
                   self.tracer.stack[-1]["id"], *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = self.request(rnd, subprocess.run, cmd, capture_output=True,
                            text=True, cwd=ROOT, env=env,
                            timeout=CHILD_TIMEOUT)
        if proc is None:
            return None
        if proc.returncode != 0:
            rnd.failed += 1
        self.problems += checks.check_verify(proc.returncode, proc.stdout)
        points = [ln for ln in proc.stdout.splitlines()
                  if ln.endswith(" pass") or " FAIL" in ln]
        rnd.rows += len(points)
        rnd.error_rows += sum(1 for ln in points if " FAIL (" in ln)
        rnd.trials += len(points) * trials
        if self.tracer is None:
            return None
        spans = layers.read_spans(trace_dir / "spans.jsonl")
        self.tracer.spans.extend(spans)
        return spans

    def run_round(self, rnd):
        spans = self._verify(rnd, 2, inputs.VERIFY_TRIALS)
        if spans is not None:
            rnd.layers = layers.layer_metrics(spans)

    def finish(self):
        """In traced runs: wall time of compare_engines on the verify grid
        at 1 and 2 workers, each in a traced fresh process."""
        if self.tracer is None:
            return {}
        walls = {}
        for workers in (1, 2):
            span = self.tracer.open(f"bench.scaling.{workers}w")
            spans = self._verify(Round(), workers, inputs.SCALING_TRIALS)
            self.tracer.close(span)
            walls[workers] = sum(s["end"] - s["start"] for s in spans or []
                                 if s["name"] == "sweep.compare_engines")
        return {
            "montecarlo.scaling_wall_1w_s": walls[1],
            "montecarlo.scaling_wall_2w_s": walls[2],
            "montecarlo.scaling_eff": (walls[1] / (2.0 * walls[2])
                                       if walls[2] else 0.0),
        }

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (AnalyticSweeps, McPresets, Verify2w)}


def setup_probes(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(set-up seconds, import seconds) of PROBES fresh interpreters."""
    setups, imports = [], []
    for _ in range(PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT,
            check=True)
        stamps = json.loads(proc.stdout.splitlines()[-1])
        setups.append(stamps["ready"] - t0)
        imports.append(stamps["imported"] - stamps["import_start"])
    return setups, imports


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, by nearest rank; with fewer than eleven samples there
    is none and the maximum (p100) stands in."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n >= 11 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def run_rounds(wl: Workload, seconds: float) -> list[Round]:
    tracer = wl.tracer
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rnd = Round()
        traced_here = tracer is not None and wl.in_process
        if traced_here:
            first_span = len(tracer.spans)
            tracer.install()
        span = tracer.open("bench.round") if tracer else None
        t0 = time.perf_counter()
        try:
            wl.run_round(rnd)
        finally:
            rnd.wall = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            if traced_here:
                tracer.uninstall()
                rnd.layers = layers.layer_metrics(tracer.spans[first_span:])
        rounds.append(rnd)
        wl.between_rounds()
        if time.perf_counter() - start + rnd.wall > seconds:
            return rounds


def end_to_end(rounds: list[Round], setups: list[float], peak_rss: float,
               notes: list[str]) -> dict[str, float]:
    per_request = [median(r.latencies[i] for r in rounds)
                   for i in range(len(rounds[0].latencies))]
    t_val, t_pct, t_n = tail(per_request)
    notes.append(f"sweep_ms_tail is p{t_pct:.1f} of {t_n} per-request "
                 "latencies, each the median over the rounds")
    rows = sum(r.rows for r in rounds)
    error_rows = sum(r.error_rows for r in rounds)
    return {
        "setup_s": median(setups),
        "wall_s": median(r.wall for r in rounds),
        "rows_per_s": median(r.rows / r.wall for r in rounds),
        "mc_trials_per_s": median(r.trials / r.wall for r in rounds),
        "sweep_ms_p50": 1000.0 * median(per_request),
        "sweep_ms_tail": 1000.0 * t_val,
        "peak_rss_mb": peak_rss,
        "ok_frac": 1.0 - error_rows / max(rows, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="xroad benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setups, imports = setup_probes(args.workload, args.seed)
    tracer = layers.Tracer(out_dir) if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, out_dir, tracer)
    wl.prepare()
    rounds = run_rounds(wl, args.seconds)
    peak_rss = wl.peak_rss_mb()
    extra = wl.finish()

    rows = sum(r.rows for r in rounds)
    error_rows = sum(r.error_rows for r in rounds)
    notes = [f"{args.workload}: {len(rounds)} rounds, "
             f"{sum(len(r.latencies) for r in rounds)} requests, {rows} rows",
             f"fail_frac = {error_rows}/{rows} rows or points with an engine "
             f"error = {error_rows / max(rows, 1):.6g}"]
    if tracer is None:
        metrics = end_to_end(rounds, setups, peak_rss, notes)
    else:
        # Scaling is measured on verify-2w only; elsewhere it reads 0.
        metrics = dict.fromkeys(layers.SCALING_METRICS, 0.0)
        metrics.update((key, median(r.layers[key] for r in rounds))
                       for key in rounds[0].layers)
        metrics["cli.import_s"] = median(imports)
        metrics["trace.wall_s"] = median(r.wall for r in rounds)
        tracer.write(out_dir / "spans.jsonl")
        notes.append(f"spans: {out_dir / 'spans.jsonl'}")
    metrics.update((k, v) for k, v in extra.items() if k in wanted)
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(wanted))} "
                           "do not match BENCHMARK.json")

    for line in notes:
        print(line)
    for name in wanted:
        print(f"{name} = {metrics[name]:.6g} {wanted[name]}")
    for problem in wl.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not wl.problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]}
                    for k in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
