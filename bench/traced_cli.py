"""Run ``semidw.cli.main`` under the benchmark tracer in a fresh interpreter.

Usage: ``python3 bench/traced_cli.py SPANS_OUT INSTANCE -- CLI_ARGS...``.
The CLI's exit code is passed through; the spans and linalg counts of the
call are written to SPANS_OUT as JSON.
"""

import json
import sys
from pathlib import Path

import semidw.cli

from tracer import Tracer


def main() -> int:
    out, instance, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced_cli.py SPANS_OUT INSTANCE -- CLI_ARGS...")
    tracer = Tracer()
    tracer.instance = int(instance)
    with tracer:
        code = semidw.cli.main(argv)
    Path(out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
