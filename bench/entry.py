"""Start the spsa-lab CLI the way its console script does, and note when main() is entered.

    python3 bench/entry.py MARK_FILE [--spans SPANS_FILE] -- CLI_ARGS...

MARK_FILE receives the CLOCK_MONOTONIC time at which ``spsa_lab.cli.main``
is about to be called, after the interpreter has started and the package is
imported; the benchmark subtracts its launch time from it to get setup_s.
With ``--spans`` the wrapper cost is calibrated and the layer wrappers of
``tracing.py`` are installed first, and the spans are written to SPANS_FILE
when the command returns.
"""

import sys
import time

import spsa_lab.cli

sep = sys.argv.index("--")
mark, opts, cli_args = sys.argv[1], sys.argv[2:sep], sys.argv[sep + 1 :]
tracer = None
if opts:
    import tracing

    tracer = tracing.Tracer()
    tracer.calibrate()
    tracing.install(tracer)
with open(mark, "w", encoding="utf-8") as fh:
    fh.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
try:
    code = spsa_lab.cli.main(cli_args)
finally:
    if tracer is not None:
        tracer.dump(opts[1])
sys.exit(code)
