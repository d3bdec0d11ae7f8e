"""Per-layer tracing from outside the program.

The tracer replaces module-level functions of xroad.analytic, xroad.bell,
xroad.montecarlo, xroad.sweep and xroad.config with timing wrappers, in
every xroad module that holds a reference to them, and puts the originals
back on uninstall.  Nothing under src/ knows about it.

Two kinds of wrapper:

* span wrappers, at layer boundaries that run a few thousand times per
  round at most (a sweep, an analytic point, an estimate, a 1024-trial
  block, a CSV write): each call becomes a span with name, start, end,
  parent and the id of the row or grid point it belongs to;
* call counters, for calls made per trial or per quadrature piece
  (trial_rng, sample_interferers, _aggregate, outage_from_interference,
  quad, the J_k integrals, Bell composition): each adds a call count and
  seconds to the innermost open span, so per-trial work is counted where it
  happens without keeping a span per call.

Spans stay in memory and are written as JSON lines when the traced run ends.
Block spans run in the pool's worker processes (forked from the traced
process, so they inherit the wrappers); a worker appends each finished block
span to a file of its own, which the traced process merges.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

now = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

#: J_k orders the analytic engine supports (m up to 9).
J_ORDERS = range(9)
#: Measured by run.py from two traced verify processes, not from spans.
SCALING_METRICS = ("montecarlo.scaling_eff", "montecarlo.scaling_wall_1w_s",
                   "montecarlo.scaling_wall_2w_s")


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.row = 0
        self._next = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str, parent: str | None = None) -> dict:
        self._next += 1
        span = {"id": f"{os.getpid()}-{self._next}", "name": name,
                "start": now(), "end": None,
                "parent": parent or (self.stack[-1]["id"] if self.stack
                                     else None),
                "row": self.row, "attrs": defaultdict(float)}
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = now()
        popped = self.stack.pop()
        assert popped is span, "spans closed out of order"
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            # A forked pool worker: hand the span to the traced process.
            path = self.out_dir / f"worker-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(span) + "\n")

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
            except BaseException:
                span["attrs"]["raised"] += 1
                raise
            finally:
                self.close(span)
        return wrapper

    def _count(self, key, fn, on_result=None):
        calls, secs = key + ".calls", key + ".s"
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                attrs = stack[-1]["attrs"]
                attrs[calls] += 1
                attrs[secs] += now() - t0
            if on_result is not None:
                on_result(attrs, kwargs, result)
            return result
        return wrapper

    def _count_j(self, fn):
        """_exponent_integral(k, ...), counted per order k."""
        keys = [(f"j.k{k}.calls", f"j.k{k}.s") for k in J_ORDERS]
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(k, *args, **kwargs):
            t0 = now()
            try:
                return fn(k, *args, **kwargs)
            finally:
                attrs = stack[-1]["attrs"]
                calls, secs = keys[k]
                attrs[calls] += 1
                attrs[secs] += now() - t0
        return wrapper

    def _new_row(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.row += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        from xroad import analytic, bell, config, montecarlo, sweep

        def quad_result(attrs, kwargs, result):
            if "points" not in kwargs:
                attrs["quad.doublings"] += 1

        def drawn(attrs, kwargs, result):
            attrs["sample.points"] += len(result)

        def block_done(span, args, result):
            span["attrs"]["trials"] += args[3]
            span["attrs"]["excluded"] += result[1]

        def estimate_done(span, args, result):
            span["attrs"]["trials"] += result.trials

        def rows_done(span, args, result):
            span["attrs"]["rows"] += len(result)

        def points_done(span, args, result):
            span["attrs"]["rows"] += len(result.points)

        plan = [
            (analytic.outage_probability, self._span("analytic.point",
                                                     analytic.outage_probability)),
            (analytic._exponent_integral,
             self._count_j(analytic._exponent_integral)),
            (analytic.quad, self._count("quad", analytic.quad, quad_result)),
            (bell.complete_bell_sequence,
             self._count("bell", bell.complete_bell_sequence)),
            (montecarlo.estimate, self._span("montecarlo.estimate",
                                             montecarlo.estimate,
                                             estimate_done)),
            (montecarlo._run_block, self._span("montecarlo.block",
                                               montecarlo._run_block,
                                               block_done)),
            (montecarlo.trial_rng, self._count("rng", montecarlo.trial_rng)),
            (montecarlo.sample_interferers,
             self._count("sample", montecarlo.sample_interferers, drawn)),
            (montecarlo._aggregate,
             self._count("aggregate", montecarlo._aggregate)),
            (montecarlo.outage_from_interference,
             self._count("decision", montecarlo.outage_from_interference)),
            (sweep.run_sweep, self._span("sweep.run_sweep", sweep.run_sweep,
                                         rows_done)),
            (sweep.compare_engines, self._span("sweep.compare_engines",
                                               sweep.compare_engines,
                                               points_done)),
            (sweep.write_csv, self._span("sweep.write_csv", sweep.write_csv)),
        ]
        for fn in (config.load_config, config.parse_scenario,
                   config.parse_sim, config.parse_sweep):
            plan.append((fn, self._count("config", fn)))
        modules = [m for name, m in sys.modules.items()
                   if name == "xroad" or name.startswith("xroad.")]
        for original, wrapper in plan:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        # Every sweep row and verify grid point starts by validating its
        # scenario in xroad.sweep; that call opens a new row id.
        self._restore.append((sweep, "validate_scenario",
                              sweep.validate_scenario))
        sweep.validate_scenario = self._new_row(sweep.validate_scenario)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- output ------------------------------------------------------------
    def collect_workers(self) -> None:
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over one round's spans.

    Self times subtract the counted children recorded on the same span:
    assembly is an analytic point minus its J_k integrals and Bell
    composition; a block's self time is the block minus RNG setup,
    _aggregate and the outage decision; _aggregate's self time excludes
    sample_interferers; the sweep layer's self time is run_sweep and
    compare_engines minus the analytic points and estimates inside them.
    """
    tot: dict[str, float] = defaultdict(float)
    for span in spans:
        name, attrs = span["name"], span["attrs"]
        dur = span["end"] - span["start"]
        tot[name + ".n"] += 1
        tot[name + ".dur"] += dur
        for key, value in attrs.items():
            tot[name + ":" + key] += value
            tot["*:" + key] += value
        if name == "analytic.point":
            tot["analytic.errors"] += attrs.get("raised", 0)
    m: dict[str, float] = {}
    m["analytic.points"] = tot["analytic.point.n"]
    m["analytic.point_s"] = tot["analytic.point.dur"]
    m["analytic.quad_calls"] = tot["*:quad.calls"]
    m["analytic.window_doublings"] = tot["*:quad.doublings"]
    m["analytic.quad_s"] = tot["*:quad.s"]
    j_s = 0.0
    for k in J_ORDERS:
        m[f"analytic.j_calls.k{k}"] = tot[f"*:j.k{k}.calls"]
        m[f"analytic.j_s.k{k}"] = tot[f"*:j.k{k}.s"]
        j_s += tot[f"*:j.k{k}.s"]
    m["analytic.assembly_s"] = (tot["analytic.point.dur"] - j_s
                                - tot["analytic.point:bell.s"])
    m["analytic.errors"] = tot["analytic.errors"]
    m["bell.calls"] = tot["*:bell.calls"]
    m["bell.s"] = tot["*:bell.s"]
    m["montecarlo.trials"] = tot["montecarlo.block:trials"]
    m["montecarlo.blocks"] = tot["montecarlo.block.n"]
    m["montecarlo.rng_setup_s"] = tot["*:rng.s"]
    m["montecarlo.sample_s"] = tot["*:sample.s"]
    m["montecarlo.interferers_drawn"] = tot["*:sample.points"]
    m["montecarlo.aggregate_self_s"] = tot["*:aggregate.s"] - tot["*:sample.s"]
    m["montecarlo.decision_s"] = tot["*:decision.s"]
    m["montecarlo.block_self_s"] = (tot["montecarlo.block.dur"]
                                    - tot["montecarlo.block:rng.s"]
                                    - tot["montecarlo.block:aggregate.s"]
                                    - tot["montecarlo.block:decision.s"])
    m["montecarlo.excluded"] = tot["montecarlo.block:excluded"]
    m["montecarlo.estimate_s"] = tot["montecarlo.estimate.dur"]
    m["sweep.rows"] = (tot["sweep.run_sweep:rows"]
                       + tot["sweep.compare_engines:rows"])
    m["sweep.self_s"] = (tot["sweep.run_sweep.dur"]
                         + tot["sweep.compare_engines.dur"]
                         - tot["analytic.point.dur"]
                         - tot["montecarlo.estimate.dur"])
    m["sweep.csv_write_s"] = tot["sweep.write_csv.dur"]
    m["config.parse_s"] = tot["*:config.s"]
    return m
