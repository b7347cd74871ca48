"""Run one `glpgalois` CLI command with the tracer installed.

Usage: python3 traced_cli.py SPANS_PATH ARGS...

Behaves like ``python -m glpgalois.cli ARGS...`` (same stdout and exit code)
and writes its spans and their summary to SPANS_PATH when the command ends.
"""

import importlib
import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    tracer.install(rec)
    cli = importlib.import_module("glpgalois.cli")
    try:
        return rec.span(tracer.ROOT, cli.main, argv)
    finally:
        sys.stdout.flush()
        rec.write(spans_path, rec.summary())


if __name__ == "__main__":
    sys.exit(main())
