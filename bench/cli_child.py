"""One traced ``ccepanel`` command in a fresh process.

Usage: python3 bench/cli_child.py SPANS_JSON estimate --input ... (the
arguments of ``ccepanel``).  Runs ``ccepanel.cli.main`` with spans around
the package's layers and writes the span totals to SPANS_JSON.  The
package must be importable (bench/run.py puts ``src`` on PYTHONPATH).
"""

import json
import sys

from tracing import Tracer, trace_ccepanel

tracer = Tracer()
tracer.start("cli.import")
import ccepanel.cli  # noqa: E402

tracer.stop()
trace_ccepanel(tracer)
tracer.start("cli.main")
try:
    code = ccepanel.cli.main(sys.argv[2:])
finally:
    tracer.stop()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(tracer.snapshot(), fh)
sys.exit(code)
