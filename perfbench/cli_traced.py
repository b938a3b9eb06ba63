"""Run one `qalg` command with the per-layer tracer installed.

    python3 perfbench/cli_traced.py TRACE_FILE qalg-arguments...

Does what the `qalg` console script does, after wrapping the layers; the
trace is written to TRACE_FILE when the command returns.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import qalg.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = qalg.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
