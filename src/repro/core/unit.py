"""Declarative unit specifications — the FLASH "Config file" analogue.

FLASH composes a simulation out of *units*: each unit ships a Config
file declaring its runtime parameters, and the setup tool stitches the
declarations into one namespace the driver reads from ``flash.par``
(Calder et al., CLUSTER 2022 instrumented "the expensive units" exactly
because the unit boundaries are first-class).  This module defines the
declaration vocabulary for the reproduction:

* :class:`ParameterSpec` — one typed runtime parameter with its default,
  documentation, and optional validation;
* :class:`WorkKind` — one work-record kind a unit emits (the
  ``UnitInvocation.unit`` tag), carrying its per-zone work model, its
  compiler vectorisation key, its trace granularity (``fine`` units get
  the zone-resolution TLB pass), and its PAPI region name;
* :class:`UnitSpec` — one unit: parameters, work kinds, and the step
  hooks the generic :class:`~repro.driver.simulation.Simulation`
  scheduler calls in declared phase order;
* :class:`WorkloadSpec` — one recordable workload (problem setup +
  instrumented region), so the experiments enumerate scenarios instead
  of hard-coding them.

Specs are plain frozen data; the registries live in
:mod:`repro.core.registry` and the declarations themselves live with
their units (``repro/<layer>/unit.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.util.errors import ConfigurationError

#: trace granularities for :attr:`WorkKind.granularity`
FINE = "fine"
COARSE = "coarse"


@dataclass(frozen=True)
class ParameterSpec:
    """One runtime parameter as a unit declares it.

    The value type is the type of ``default`` (bool before int, as in the
    flash.par grammar); ``choices`` and ``validator`` both raise
    :class:`~repro.util.errors.ConfigurationError` on bad values.
    """

    name: str
    default: object
    doc: str = ""
    choices: tuple = ()
    #: called with the typed value; must raise ConfigurationError on
    #: rejection (or return False, which is converted to one)
    validator: Callable[[object], object] | None = None

    @property
    def type(self) -> type:
        return type(self.default)

    def validate(self, value) -> None:
        """Check a *typed* value against choices and the validator."""
        if self.choices and value not in self.choices:
            allowed = ", ".join(repr(c) for c in self.choices)
            raise ConfigurationError(
                f"invalid value {value!r} for runtime parameter "
                f"{self.name!r} (expected one of: {allowed})")
        if self.validator is not None and self.validator(value) is False:
            raise ConfigurationError(
                f"invalid value {value!r} for runtime parameter {self.name!r}")


@dataclass(frozen=True)
class WorkKind:
    """One work-record kind (``UnitInvocation.unit``) a unit emits."""

    name: str
    #: per-zone work densities (:class:`repro.hw.calibration.UnitWorkModel`)
    model: object
    #: compiler vector-fraction key (``CompilerPerf.unit_vector_fraction``)
    vector_key: str
    #: ``fine`` kinds get the zone-resolution TLB pass on sampled blocks;
    #: ``coarse`` kinds only appear in the panel-granularity stream pass
    granularity: str = COARSE
    #: PAPI region this kind's work is attributed to (None: uninstrumented)
    region: str | None = None

    @property
    def fine(self) -> bool:
        return self.granularity == FINE


@dataclass(frozen=True)
class UnitSpec:
    """One unit's declarations: parameters, work kinds, and step hooks.

    Scheduled units (those with a ``step`` hook) are run by the generic
    :class:`~repro.driver.simulation.Simulation` scheduler in ascending
    ``phase`` order; ``implements`` names the runtime classes whose
    instances the scheduler maps onto this spec.  Units without hooks
    (EOS, PAPI, perfmodel) still own parameters and work kinds.
    """

    name: str
    description: str
    #: scheduler order; lower phases run earlier within a step
    phase: int = 100
    #: FLASH timer label bracketing the step hook
    timer: str | None = None
    #: runtime classes this spec schedules (isinstance lookup)
    implements: tuple[type, ...] = ()
    parameters: tuple[ParameterSpec, ...] = ()
    work_kinds: tuple[WorkKind, ...] = ()
    #: advance hook: ``step(sim, unit, dt) -> StepContribution | None``
    step: Callable | None = None
    #: gate for the advance hook: ``should_run(sim, unit) -> bool``
    should_run: Callable | None = None
    #: timestep contributor: ``timestep(sim, unit) -> float``
    timestep: Callable | None = None
    #: work recorder: ``record(sim, unit, ctx) -> list[UnitInvocation]``
    record: Callable | None = None
    #: this unit's instance supplies the grid boundary conditions
    provides_bc: bool = False
    #: evolving-state snapshot for checkpoint/rollback:
    #: ``save_state(sim, unit) -> dict[str, float]`` (flat, numeric);
    #: the supervisor's step rollback and the checkpoint writer both use
    #: it, so a unit that declares one resumes bit-identically
    save_state: Callable | None = None
    #: inverse of ``save_state``: ``restore_state(sim, unit, state)``
    restore_state: Callable | None = None


@dataclass(frozen=True)
class StepContribution:
    """What a step hook reports back into the :class:`StepInfo` summary."""

    n_refined: int = 0
    n_derefined: int = 0


@dataclass(frozen=True)
class RecordContext:
    """Per-step facts recorders need (assembled by the WorkLog hook)."""

    zones: int
    ndim: int
    eos_calls: int = 0
    eos_iters: int = 0
    helmholtz_eos: bool = True


@dataclass(frozen=True)
class WorkloadSpec:
    """One recordable workload: a problem setup plus its instrumentation.

    ``builder(quick=..., steps=..., use_cache=...)`` returns the recorded
    :class:`~repro.perfmodel.workrecord.WorkLog`; ``region_kinds`` are
    the work kinds the paper's instrumented region covers for this
    problem.
    """

    name: str
    description: str
    builder: Callable
    region_kinds: tuple[str, ...] = ()
    #: step count of the paper's corresponding run (extrapolation anchor)
    paper_steps: int | None = None
    #: which paper table this workload reproduces ("table1"/"table2")
    paper_table: str | None = None


__all__ = [
    "FINE",
    "COARSE",
    "ParameterSpec",
    "WorkKind",
    "UnitSpec",
    "StepContribution",
    "RecordContext",
    "WorkloadSpec",
]
