"""A traced CLI process: times its own start-up, wraps every layer, runs the CLI.

Usage (arguments as for ``python -m finstoch.cli``)::

    PERFBENCH_SPAWN=<parent perf_counter()> PERFBENCH_TRACE_OUT=<dir> \\
        python3 perfbench/cli_child.py check-markov state.json model.json

Writes ``<dir>/<pid>.json`` with its spans and counts on the way out,
also when the CLI raises.
"""

from time import perf_counter

started = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

t0 = perf_counter()
import numpy  # noqa: E402,F401

t1 = perf_counter()
import finstoch.cli  # noqa: E402

t2 = perf_counter()

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.job = os.getpid()
tracer.counts["cli.interpreter_start_ms"] = (started - float(os.environ["PERFBENCH_SPAWN"])) * 1e3
tracer.counts["cli.import_numpy_ms"] = (t1 - t0) * 1e3
tracer.counts["cli.import_finstoch_ms"] = (t2 - t1) * 1e3
tracing.install(tracer)
try:
    code = finstoch.cli.main(sys.argv[1:])
finally:
    tracer.dump(os.path.join(os.environ["PERFBENCH_TRACE_OUT"], f"{os.getpid()}.json"))
sys.exit(code)
