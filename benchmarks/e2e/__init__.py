"""Two-clock end-to-end benchmark (see README.md in this directory).

The package drives only the public surface of ``repro`` and imports
nothing from ``repro.bench`` or ``repro.workloads``: the load generators
live here so that no later change can alter the load while claiming a
gain.
"""
