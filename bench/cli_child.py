"""Run the levicalc command line under the benchmark's tracer.

    python3 bench/cli_child.py SUMMARY.json [levicalc arguments ...]

Behaves like ``python -m levicalc.cli`` (same output, same exit code) and
also writes the tracer's per-span totals to SUMMARY.json for the parent run
to merge.  The traced ``cli`` workload launches every command this way.
"""

import json
import sys

from tracer import Tracer

import levicalc.cli

if __name__ == "__main__":
    tracer = Tracer(span_cap=0).install()
    try:
        code = levicalc.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    sys.exit(code)
