"""repro.core — the declarative unit spine.

Every unit of the reproduction (hydro, EOS, flame, gravity, mesh
refinement, PAPI instrumentation, performance replay, driver) registers
here what the rest of the system needs to know about it:

* its **runtime parameters** (types, defaults, validators) — surfaced as
  the flash.par namespace by
  :class:`~repro.driver.config.RuntimeParameters`;
* its **step hooks** in declared phase order — iterated by the generic
  :class:`~repro.driver.simulation.Simulation` scheduler;
* its **instrumentation contract** (work kinds with per-zone work
  models, trace granularity, PAPI region) — from which the performance
  pipeline derives its fine-pass set and work pricing;
* its **workloads** — enumerated by ``repro.experiments``.

See ``docs/architecture.md`` for the layer map and the "how to add a
unit" walkthrough.
"""

from repro.core.registry import (
    UNIT_MODULES,
    WORKLOAD_MODULES,
    ParameterRegistry,
    UnitRegistry,
    load_all,
    load_workloads,
    parameter_registry,
    unit_registry,
)
from repro.core.unit import (
    COARSE,
    FINE,
    ParameterSpec,
    RecordContext,
    StepContribution,
    UnitSpec,
    WorkKind,
    WorkloadSpec,
)

__all__ = [
    "UNIT_MODULES",
    "WORKLOAD_MODULES",
    "ParameterRegistry",
    "UnitRegistry",
    "parameter_registry",
    "unit_registry",
    "load_all",
    "load_workloads",
    "COARSE",
    "FINE",
    "ParameterSpec",
    "RecordContext",
    "StepContribution",
    "UnitSpec",
    "WorkKind",
    "WorkloadSpec",
]
