"""The bench: ``python -m repro bench`` (DESIGN.md §9)."""

from repro.bench.arms import e6_scenario, e8_scenario
from repro.configs import Configuration, all_on, paper
from repro.bench.harness import (ARMS, HISTORY_LABEL, Arm, BenchConfig,
                                 check, gate_results, run_arm, run_bench)

__all__ = ["ARMS", "Arm", "BenchConfig", "Configuration", "HISTORY_LABEL",
           "all_on", "check", "e6_scenario", "e8_scenario", "gate_results",
           "paper", "run_arm", "run_bench"]
