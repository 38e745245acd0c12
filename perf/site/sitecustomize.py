"""Trace this interpreter when the benchmark set ``PERF_TRACE_DIR``.

Traced benchmark runs put this directory first on ``PYTHONPATH``, so
every Python process they start -- the job itself, its forked pool
workers and the service's spawned workers -- records spans the same way.
"""

import perf_trace

perf_trace.install_from_env()
