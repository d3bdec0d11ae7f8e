"""Correctness checks of the workloads' outputs.

Each check returns a list of problems; an empty list means the outputs are
correct.  Run as a script, this module rewrites reference_seed0.json from
the current program:  python3 bench/checks.py --write-reference
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_seed0.json"

#: Relative agreement required of analytic outages (ROADMAP: "equal" for
#: the analytic engine means within 1e-8 relative).  The absolute floor only
#: covers rounding in 1 - success when the outage itself is below ~1e-8.
REL_TOL = 1e-8
ABS_FLOOR = 1e-15

#: The analytic engine's known failure (ROADMAP item 4): QuadratureError for
#: path-loss exponents near 1, where the window doubling cannot reach the
#: tail bound.  Observed up to alpha ~1.32; any other engine error is a fault.
KNOWN_ERRORS = ("analytic: tail bound never met the tolerance",
                "analytic: interference integral did not converge")
NEAR_ONE = 1.5

#: Per-point chance of missing max(0.01, 3*stderr) when both engines agree
#: (two-sided 3-sigma normal tail; the 0.01 floor only makes it smaller).
MISS_P = 0.0027
#: Largest acceptable chance of failing a correct program in one run.
FALSE_ALARM = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_FLOOR


def row_record(row) -> list:
    """The compared fields of a SweepRow: an engine error keeps only its
    exception text's first clause, which names the failure class."""
    return [row.variant, row.axis, row.value, row.outage_analytic,
            row.throughput_analytic, row.error.split(" (")[0]]


def check_analytic_rows(specs, rows_per_spec) -> list[str]:
    """Outages in [0, 1]; NLOS rows equal 1 - prod of the alpha=4 closed form;
    every engine error is the known QuadratureError at alpha near 1."""
    from xroad import analytic
    from xroad.sweep import apply_axis_value, apply_variant

    problems = []
    for spec, rows in zip(specs, rows_per_spec):
        points = [(variant, value) for variant in spec.variants
                  for value in spec.values]
        if len(rows) != len(points):
            problems.append(f"{len(rows)} rows for {len(points)} sweep points")
            continue
        for row, (variant, value) in zip(rows, points):
            sc = apply_axis_value(apply_variant(spec.base, variant), spec.axis,
                                  value, spec.lane_spacing)
            ch = sc.channel
            where = f"{spec.axis}={value:g} alpha={ch.alpha:.4g} m={ch.m}"
            if row.error:
                if not (row.error.startswith(KNOWN_ERRORS)
                        and ch.alpha < NEAR_ONE):
                    problems.append(f"unexpected engine error at {where}: "
                                    f"{row.error}")
                continue
            out = row.outage_analytic
            if not 0.0 <= out <= 1.0:
                problems.append(f"outage {out} outside [0, 1] at {where}")
            if ch.alpha == 4.0 and ch.m == 1:
                s = sc.laplace_argument
                success = math.prod(analytic.laplace_closed_alpha4(s, lane, sc)
                                    for lane in sc.lanes())
                if not _close(out, 1.0 - success):
                    problems.append(f"NLOS outage {out!r} != closed form "
                                    f"{1.0 - success!r} at {where}")
    return problems


def check_reference(rows_per_spec) -> list[str]:
    """Seed-0 rows against the stored reference.  A reference error may turn
    into a value (a fixed failure); a reference value must stay a value
    within REL_TOL."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    got = [row_record(r) for rows in rows_per_spec for r in rows]
    if len(got) != len(ref):
        return [f"reference has {len(ref)} rows, run produced {len(got)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        if g[:3] != r[:3]:
            problems.append(f"reference row {i}: sweep point {g[:3]} != {r[:3]}")
        elif r[5]:
            continue
        elif g[5]:
            problems.append(f"reference row {i}: new engine error {g[5]!r}")
        elif not (_close(g[3], r[3]) and _close(g[4], r[4])):
            problems.append(f"reference row {i}: outage {g[3]!r} / "
                            f"throughput {g[4]!r} differ from {r[3]!r} / "
                            f"{r[4]!r}")
    return problems


def allowed_misses(n: int) -> int:
    """Smallest k with P(Binomial(n, MISS_P) > k) below FALSE_ALARM."""
    k, tail = 0, 1.0
    while True:
        tail -= math.comb(n, k) * MISS_P ** k * (1.0 - MISS_P) ** (n - k)
        if tail < FALSE_ALARM:
            return k
        k += 1


def check_agreement(points) -> list[str]:
    """Monte-Carlo against analytic outage, over (label, analytic, mc,
    stderr) tuples, under the repo's max(0.01, 3*stderr) rule.

    With dozens of points some 3-sigma misses happen by chance alone, so the
    set passes when it has at most allowed_misses(n) of them and no point
    is off by more than max(0.01, 6*stderr), which chance does not reach.
    """
    problems, misses = [], []
    for label, ana, mc, stderr in points:
        diff = abs(ana - mc)
        if diff > max(0.01, 6.0 * stderr):
            problems.append(f"{label}: |{ana:.6f} - {mc:.6f}| = {diff:.6f} "
                            "beyond max(0.01, 6*stderr)")
        elif diff > max(0.01, 3.0 * stderr):
            misses.append(label)
    limit = allowed_misses(len(points))
    if len(misses) > limit:
        problems.append(f"{len(misses)} of {len(points)} points beyond "
                        f"max(0.01, 3*stderr), more than the {limit} chance "
                        f"allows: {misses}")
    return problems


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text, newline="")))


def check_presets(analytic_csv: dict, mc_csv: dict) -> list[str]:
    """Preset rows: same sweep points in both runs, no engine errors,
    outages in [0, 1], Monte-Carlo within chance of the analytic value."""
    problems, points = [], []
    for name in analytic_csv:
        ana_rows, mc_rows = analytic_csv[name], mc_csv[name]
        if len(ana_rows) != len(mc_rows):
            problems.append(f"{name}: {len(mc_rows)} mc rows vs "
                            f"{len(ana_rows)} analytic rows")
            continue
        for a, m in zip(ana_rows, mc_rows):
            label = f"{name} {a['variant']} {a['axis']}={a['value']}"
            if (a["variant"], a["value"]) != (m["variant"], m["value"]):
                problems.append(f"{label}: row order differs")
            elif a["error"] or m["error"]:
                problems.append(f"{label}: {a['error'] or m['error']}")
            else:
                ana, mc = float(a["outage_analytic"]), float(m["outage_mc"])
                if not (0.0 <= ana <= 1.0 and 0.0 <= mc <= 1.0):
                    problems.append(f"{label}: outage outside [0, 1]")
                points.append((label, ana, mc, float(m["mc_stderr"])))
    return problems + check_agreement(points)


def check_verify(returncode: int, stdout: str) -> list[str]:
    if returncode != 0 or "overall: PASS" not in stdout:
        return [f"verify exited {returncode}:\n{stdout}"]
    return []


def _write_reference() -> None:
    import inputs
    import xroad

    specs = inputs.analytic_specs(0)[:inputs.REFERENCE_SWEEPS]
    rows = [row_record(r) for spec in specs
            for r in xroad.run_sweep(spec, inputs.ANALYTIC_SIM)]
    REFERENCE.write_text(json.dumps(rows, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {REFERENCE}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 bench/checks.py --write-reference")
    _write_reference()
