"""Run one framesel CLI command with its spans recorded.

    python perfbench/clitrace.py SPANS_JSON -- <framesel arguments>

Traced benchmark rounds start the CLI through this file instead of
``python -m framesel.cli``. It installs the same wrappers as the benchmark
process, runs ``framesel.cli.main`` inside a ``cli.main`` span, writes the
spans, counts and the monotonic time at which ``main`` was entered to
SPANS_JSON, and exits with the command's exit code.
"""

import json
import sys
import time

from spans import Tracer


def run(out_path: str, argv: list[str]) -> int:
    import framesel.cli as cli

    tracer = Tracer()
    entry_ns = None
    try:
        with tracer.installed():
            entry_ns = time.monotonic_ns()
            with tracer.span("cli.main"):
                return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"entry_ns": entry_ns, **tracer.to_json()}, fh)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: clitrace.py SPANS_JSON -- <framesel arguments>")
    sys.exit(run(sys.argv[1], sys.argv[3:]))
