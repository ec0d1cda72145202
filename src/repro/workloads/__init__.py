"""Multi-client workload machinery for the paper's system test (§3.2.1).

The canonical workload: N clients, each looping { create a file → INSERT
a row linking it } two-thirds of the time and { UPDATE a previously
inserted row's datalink column to a fresh file } one-third of the time,
with exponential think times calibrated so the tuned configuration with
100 clients lands near the paper's ~300 inserts/min and ~150 updates/min.
"""

from repro.workloads.metrics import WorkloadReport
from repro.workloads.runner import SystemTestConfig, run_system_test

__all__ = ["SystemTestConfig", "WorkloadReport", "run_system_test"]
