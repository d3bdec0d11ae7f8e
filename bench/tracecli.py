"""Run the xroad CLI in this fresh process with the layer tracer installed:

    python3 bench/tracecli.py <out_dir> <parent_span_id> <xroad args...>

Spans (the pool workers' block spans included) go to <out_dir>/spans.jsonl;
the exit code and standard output are the CLI's own.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import xroad.cli  # noqa: E402

import layers  # noqa: E402


def main() -> int:
    out_dir, parent, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = layers.Tracer(out_dir)
    tracer.install()
    span = tracer.open("cli.main", parent=parent)
    try:
        code = xroad.cli.main(argv)
    finally:
        tracer.close(span)
        tracer.uninstall()
        tracer.collect_workers()
        tracer.write(out_dir / "spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
