"""Observability: structured tracing, latency histograms, counters.

Import surface is deliberately dependency-free — ``repro.kernel.sim``
imports this package, so nothing here may import the kernel (scenario
helpers that need a full ``System`` live in ``repro.obs.scenarios`` and
are imported lazily by the CLI). :func:`counters` reads a built system
by attribute and imports nothing of it.
"""

from repro.obs.metrics import Histogram, counters
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Histogram",
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "counters",
]
