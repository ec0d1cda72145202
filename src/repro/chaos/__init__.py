"""repro.chaos — deterministic fault injection + cross-layer invariants.

Only the fault-plan/injector core is imported eagerly: it depends on
nothing but ``repro.errors``, so the kernel can import it without
cycles. The heavier pieces live in submodules:

* :mod:`repro.chaos.invariants` — post-quiesce cross-layer checker;
* :mod:`repro.chaos.campaign` — the seeded fault campaign runner.
"""

from repro.chaos.faults import (FaultInjector, FaultPlan, FaultRule,
                                NULL_INJECTOR, NullInjector, default_plan)

__all__ = ["FaultInjector", "FaultPlan", "FaultRule", "NULL_INJECTOR",
           "NullInjector", "default_plan"]
