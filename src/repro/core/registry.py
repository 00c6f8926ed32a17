"""The unit and parameter registries — one declarative spine.

Units declare themselves (``repro/<layer>/unit.py`` modules) into the
module-level :data:`unit_registry`; their parameter declarations are
mirrored into :data:`parameter_registry`, which
:class:`~repro.driver.config.RuntimeParameters` exposes as a flash.par
view.  Downstream layers *derive* what the seed hard-coded:

* the :class:`~repro.driver.simulation.Simulation` scheduler iterates
  :meth:`UnitRegistry.scheduled` specs in phase order;
* the performance pipeline derives its work models and its fine-pass set
  from :meth:`UnitRegistry.work_models` / :meth:`fine_work_kinds`;
* the experiments enumerate :meth:`UnitRegistry.workloads`.

Declaration modules are imported lazily on first registry use
(:func:`load_all`), so importing any single ``repro`` module never drags
in the whole stack or trips import cycles.
"""

from __future__ import annotations

import difflib
import importlib
from collections.abc import Mapping

from repro.core.unit import ParameterSpec, UnitSpec, WorkloadSpec
from repro.util.errors import ConfigurationError

#: the modules that register unit declarations (FLASH's "Config files");
#: adding a unit means adding a module here and declaring it there
UNIT_MODULES = (
    "repro.driver.unit",
    "repro.mesh.unit",
    "repro.mpisim.unit",
    "repro.physics.hydro.unit",
    "repro.physics.eos.unit",
    "repro.physics.flame.unit",
    "repro.physics.gravity.unit",
    "repro.papi.unit",
    "repro.perfmodel.unit",
    "repro.chaos.unit",
)

#: modules that register workload declarations (need the full stack)
WORKLOAD_MODULES = ("repro.experiments.workloads",)


def _suggest(name: str, candidates) -> str:
    """A did-you-mean suffix for unknown-name errors (empty if hopeless)."""
    close = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    return f" (did you mean {close[0]!r}?)" if close else ""


class ParameterRegistry:
    """All registered runtime parameters, keyed by flash.par name."""

    def __init__(self) -> None:
        self._specs: dict[str, ParameterSpec] = {}
        self._owners: dict[str, str] = {}

    def register(self, unit_name: str, specs) -> None:
        for spec in specs:
            prior = self._owners.get(spec.name)
            if prior is not None and prior != unit_name:
                raise ConfigurationError(
                    f"runtime parameter {spec.name!r} declared by both "
                    f"{prior!r} and {unit_name!r}")
            self._specs[spec.name] = spec
            self._owners[spec.name] = unit_name

    # --- lookup ------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        load_all()
        return name in self._specs

    def names(self) -> tuple[str, ...]:
        load_all()
        return tuple(self._specs)

    def spec(self, name: str) -> ParameterSpec:
        load_all()
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown runtime parameter {name!r}"
                + _suggest(name, self._specs)) from None

    def owner(self, name: str) -> str:
        self.spec(name)
        return self._owners[name]

    def by_unit(self) -> dict[str, tuple[ParameterSpec, ...]]:
        load_all()
        out: dict[str, list[ParameterSpec]] = {}
        for name, spec in self._specs.items():
            out.setdefault(self._owners[name], []).append(spec)
        return {unit: tuple(specs) for unit, specs in out.items()}

    def defaults(self) -> dict[str, object]:
        load_all()
        return {name: spec.default for name, spec in self._specs.items()}

    def default(self, name: str):
        return self.spec(name).default


class _DefaultsView(Mapping):
    """Read-only mapping of every registered parameter's default.

    Kept as :data:`repro.driver.config.DEFAULTS` for compatibility; it
    resolves lazily so importing the config module does not import every
    unit in the library.
    """

    def __init__(self, registry: ParameterRegistry) -> None:
        self._registry = registry

    def __getitem__(self, name: str):
        return self._registry.default(name)

    def __iter__(self):
        return iter(self._registry.names())

    def __len__(self) -> int:
        return len(self._registry.names())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DefaultsView({dict(self)!r})"


class UnitRegistry:
    """All registered units and workloads."""

    def __init__(self, parameters: ParameterRegistry) -> None:
        self._units: dict[str, UnitSpec] = {}
        self._workloads: dict[str, WorkloadSpec] = {}
        self.parameters = parameters

    # --- registration (import-time, no lazy loading here) -------------------
    def register(self, spec: UnitSpec) -> UnitSpec:
        if spec.name in self._units:
            raise ConfigurationError(f"unit {spec.name!r} registered twice")
        kinds = [k.name for k in spec.work_kinds]
        for other in self._units.values():
            dup = set(kinds) & {k.name for k in other.work_kinds}
            if dup:
                raise ConfigurationError(
                    f"work kind(s) {sorted(dup)} declared by both "
                    f"{other.name!r} and {spec.name!r}")
        self._units[spec.name] = spec
        self.parameters.register(spec.name, spec.parameters)
        return spec

    def register_workload(self, spec: WorkloadSpec) -> WorkloadSpec:
        if spec.name in self._workloads:
            raise ConfigurationError(f"workload {spec.name!r} registered twice")
        self._workloads[spec.name] = spec
        return spec

    # --- units --------------------------------------------------------------
    def unit(self, name: str) -> UnitSpec:
        load_all()
        try:
            return self._units[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown unit {name!r}" + _suggest(name, self._units)) from None

    def units(self) -> tuple[UnitSpec, ...]:
        """Every registered unit, in phase order (stable by name)."""
        load_all()
        return tuple(sorted(self._units.values(),
                            key=lambda s: (s.phase, s.name)))

    def scheduled(self) -> tuple[UnitSpec, ...]:
        """Units the Simulation scheduler advances (those with a hook)."""
        return tuple(s for s in self.units() if s.step is not None)

    def spec_for(self, obj) -> UnitSpec | None:
        """The spec whose ``implements`` classes match an instance."""
        load_all()
        for spec in self.units():
            if spec.implements and isinstance(obj, spec.implements):
                return spec
        return None

    # --- work kinds (the performance pipeline's view) -----------------------
    def work_kinds(self) -> dict[str, "WorkKind"]:
        load_all()
        return {k.name: k for spec in self.units() for k in spec.work_kinds}

    def work_models(self) -> dict[str, tuple[object, str]]:
        """Map work-record kind -> (work model, vectorisation key)."""
        return {name: (k.model, k.vector_key)
                for name, k in self.work_kinds().items()}

    def fine_work_kinds(self) -> frozenset[str]:
        """Kinds whose units declare fine (zone-resolution) TLB traces."""
        return frozenset(name for name, k in self.work_kinds().items()
                         if k.fine)

    def region_kinds(self, region: str) -> tuple[str, ...]:
        """Work kinds attributed to one PAPI region, in declaration order."""
        return tuple(name for name, k in self.work_kinds().items()
                     if k.region == region)

    # --- workloads ------------------------------------------------------------
    def workload(self, name: str) -> WorkloadSpec:
        load_workloads()
        try:
            return self._workloads[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown workload {name!r}"
                + _suggest(name, self._workloads)) from None

    def workloads(self) -> tuple[WorkloadSpec, ...]:
        load_workloads()
        return tuple(self._workloads[name]
                     for name in sorted(self._workloads))


#: the module-level registries every layer shares
parameter_registry = ParameterRegistry()
unit_registry = UnitRegistry(parameter_registry)

_loaded = False
_workloads_loaded = False


def load_all() -> None:
    """Import every unit declaration module exactly once."""
    global _loaded
    if _loaded:
        return
    _loaded = True  # set first: declaration modules use the registries
    try:
        for module in UNIT_MODULES:
            importlib.import_module(module)
    except Exception:
        _loaded = False
        raise


def load_workloads() -> None:
    """Import the workload declaration modules (pulls the full stack)."""
    global _workloads_loaded
    load_all()
    if _workloads_loaded:
        return
    _workloads_loaded = True
    try:
        for module in WORKLOAD_MODULES:
            importlib.import_module(module)
    except Exception:
        _workloads_loaded = False
        raise


__all__ = [
    "UNIT_MODULES",
    "WORKLOAD_MODULES",
    "ParameterRegistry",
    "UnitRegistry",
    "parameter_registry",
    "unit_registry",
    "load_all",
    "load_workloads",
]
