"""Activates the benchmark's tracing shim in a process of the system under test.

``bench/run.py`` puts this directory on ``PYTHONPATH`` of a traced run and
sets ``REPRO_BENCH_TRACE_DIR``; every Python process of the server tree
(the ``spawn``ed cluster workers inherit both) then imports this module at
start-up, before any ``repro`` code. Without the variable it does nothing.
"""

import os
import sys

_TRACE_DIR = os.environ.get("REPRO_BENCH_TRACE_DIR")

# multiprocessing's resource tracker is a helper of the interpreter, not a
# process of the system: it never imports repro and owes no trace file.
if _TRACE_DIR and not any("resource_tracker" in arg for arg in sys.orig_argv):
    import benchtrace

    benchtrace.install(_TRACE_DIR)
