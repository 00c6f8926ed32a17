"""Tests for the unit/parameter registries and the generic scheduler."""

import pytest

from repro.core import (
    COARSE,
    ParameterSpec,
    UnitSpec,
    WorkKind,
    load_all,
    parameter_registry,
    unit_registry,
)
from repro.core.registry import ParameterRegistry, UnitRegistry
from repro.driver.config import DEFAULTS
from repro.driver.simulation import Simulation
from repro.hw import calibration as cal
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.tree import AMRTree
from repro.mesh.unit import RefinementPolicy
from repro.physics.eos import GammaLawEOS
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sod import SodProblem
from repro.util.errors import ConfigurationError

#: the seed's DEFAULTS dict, verbatim — the registry must preserve every
#: name and value (papi_style is the one intentional addition)
LEGACY_DEFAULTS = {
    "basenm": "repro_", "restart": False, "nend": 100, "tmax": 1.0e99,
    "dtinit": 1.0e-10, "dtmax": 1.0e99, "cfl": 0.4, "lrefine_max": 4,
    "nrefs": 4, "refine_var_1": "dens", "refine_cutoff_1": 0.8,
    "derefine_cutoff_1": 0.2, "smlrho": 1.0e-12, "smallp": 1.0e-12,
    "eosModeInit": "dens_temp", "perf_engine": "fast",
    "xl_boundary_type": "outflow", "xr_boundary_type": "outflow",
    "yl_boundary_type": "outflow", "yr_boundary_type": "outflow",
    "zl_boundary_type": "outflow", "zr_boundary_type": "outflow",
}

#: the seed's perfmodel tables, verbatim — now derived from declarations
LEGACY_FINE_KINDS = {"eos", "eos_gamma", "hydro_sweep", "flame"}
LEGACY_WORK_MODELS = {
    "hydro_sweep": (cal.HYDRO_SWEEP, "hydro"),
    "eos": (cal.EOS_CALL, "eos"),
    "eos_gamma": (cal.EOS_GAMMA_CALL, "eos"),
    "guardcell": (cal.GUARDCELL, "mesh"),
    "flame": (cal.FLAME_STEP, "flame"),
    "gravity": (cal.GRAVITY_STEP, "gravity"),
}


class TestRegistryContents:
    def test_all_units_registered(self):
        load_all()
        names = {spec.name for spec in unit_registry.units()}
        assert {"driver", "hydro", "eos", "eos_gamma", "flame", "gravity",
                "mesh", "papi", "perfmodel"} <= names

    def test_units_in_phase_order(self):
        phases = [spec.phase for spec in unit_registry.units()]
        assert phases == sorted(phases)

    def test_defaults_preserve_legacy_values(self):
        defaults = parameter_registry.defaults()
        for name, value in LEGACY_DEFAULTS.items():
            assert defaults[name] == value, name
            assert type(defaults[name]) is type(value), name

    def test_defaults_view_is_a_mapping(self):
        assert DEFAULTS["cfl"] == 0.4
        assert "nend" in set(DEFAULTS)
        assert len(DEFAULTS) == len(parameter_registry.defaults())
        assert dict(DEFAULTS) == parameter_registry.defaults()

    def test_work_models_match_legacy_table(self):
        assert unit_registry.work_models() == LEGACY_WORK_MODELS

    def test_fine_kinds_match_legacy_table(self):
        assert unit_registry.fine_work_kinds() == LEGACY_FINE_KINDS

    def test_unknown_parameter_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean 'cfl'"):
            parameter_registry.spec("cfi")

    def test_unknown_unit_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean 'hydro'"):
            unit_registry.unit("hydr")

    def test_parameter_owners(self):
        assert parameter_registry.owner("cfl") == "hydro"
        assert parameter_registry.owner("nrefs") == "mesh"
        assert parameter_registry.owner("perf_engine") == "perfmodel"


class TestRegistrationErrors:
    def test_duplicate_unit_rejected(self):
        reg = UnitRegistry(ParameterRegistry())
        spec = UnitSpec(name="u", description="x")
        reg.register(spec)
        with pytest.raises(ConfigurationError, match="registered twice"):
            reg.register(spec)

    def test_duplicate_work_kind_rejected(self):
        reg = UnitRegistry(ParameterRegistry())
        kind = WorkKind("w", cal.GUARDCELL, "mesh", COARSE)
        reg.register(UnitSpec(name="a", description="x", work_kinds=(kind,)))
        with pytest.raises(ConfigurationError, match="declared by both"):
            reg.register(UnitSpec(name="b", description="x",
                                  work_kinds=(kind,)))

    def test_cross_unit_parameter_collision_rejected(self):
        params = ParameterRegistry()
        params.register("a", (ParameterSpec("knob", 1),))
        with pytest.raises(ConfigurationError, match="declared by both"):
            params.register("b", (ParameterSpec("knob", 2),))

    def test_parameter_choices_enforced(self):
        spec = ParameterSpec("mode", "x", choices=("x", "y"))
        spec.validate("y")
        with pytest.raises(ConfigurationError, match="expected one of"):
            spec.validate("z")

    def test_parameter_validator_enforced(self):
        spec = ParameterSpec("frac", 0.5, validator=lambda v: 0 < v <= 1)
        spec.validate(1.0)
        with pytest.raises(ConfigurationError):
            spec.validate(2.0)


def sod_sim(*extra_units, **kw):
    tree = AMRTree(ndim=1, nblockx=2, max_level=1,
                   domain=((0, 1), (0, 1), (0, 1)))
    spec = MeshSpec(ndim=1, nxb=16, nyb=1, nzb=1, nguard=4, maxblocks=32)
    grid = Grid(tree, spec)
    eos = GammaLawEOS(gamma=1.4)
    SodProblem().initialize(grid, eos)
    return Simulation(grid, HydroUnit(eos, cfl=0.6), *extra_units, **kw)


class TestScheduler:
    def test_unregistered_instance_rejected(self):
        tree = AMRTree(ndim=1, nblockx=2, max_level=1,
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=1, nxb=16, nyb=1, nzb=1, nguard=4, maxblocks=32)
        grid = Grid(tree, spec)
        with pytest.raises(ConfigurationError, match="not a registered unit"):
            Simulation(grid, object())

    def test_duplicate_instance_rejected(self):
        tree = AMRTree(ndim=1, nblockx=2, max_level=1,
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=1, nxb=16, nyb=1, nzb=1, nguard=4, maxblocks=32)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        SodProblem().initialize(grid, eos)
        with pytest.raises(ConfigurationError, match="two instances"):
            Simulation(grid, HydroUnit(eos), HydroUnit(eos), nrefs=0)

    def test_scheduled_in_phase_order(self):
        sim = sod_sim(nrefs=0)
        phases = [spec.phase for spec, _ in sim.scheduled_units()]
        assert phases == sorted(phases)
        assert sim.unit_names[0] == "hydro"  # phase 10 < mesh's 40

    def test_refinement_policy_synthesised(self):
        sim = sod_sim(nrefs=3, refine_cutoff=0.9)
        assert isinstance(sim.refinement, RefinementPolicy)
        assert sim.nrefs == 3
        assert sim.refine_cutoff == 0.9

    def test_explicit_refinement_policy_wins(self):
        policy = RefinementPolicy(nrefs=7)
        sim = sod_sim(policy)
        assert sim.refinement is policy
        assert sim.nrefs == 7

    def test_unit_accessors(self):
        sim = sod_sim(nrefs=0)
        assert sim.hydro is sim.unit("hydro")
        assert sim.flame is None
        assert sim.gravity is None

    def test_bc_comes_from_declaring_unit(self):
        sim = sod_sim(nrefs=0)
        assert sim.bc is sim.hydro.bc

    def test_from_params(self):
        from repro.driver.config import RuntimeParameters
        params = RuntimeParameters.from_par(
            "nrefs = 2\nrefine_cutoff_1 = 0.7\ndtmax = 1.0d-3")
        tree = AMRTree(ndim=1, nblockx=2, max_level=1,
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=1, nxb=16, nyb=1, nzb=1, nguard=4, maxblocks=32)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        SodProblem().initialize(grid, eos)
        sim = Simulation.from_params(grid, HydroUnit(eos), params=params)
        assert sim.nrefs == 2
        assert sim.refine_cutoff == 0.7
        assert sim.dtmax == 1.0e-3


class TestWorkloadRegistry:
    def test_sod_workload_registered_ungated(self):
        spec = unit_registry.workload("sod")
        assert spec.region_kinds == ("hydro_sweep", "guardcell")

    def test_paper_anchors_declared(self):
        assert unit_registry.workload("eos").paper_steps == 50
        assert unit_registry.workload("hydro").paper_steps == 200
        assert unit_registry.workload("eos").paper_table == "table1"

    def test_unknown_workload_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean 'eos'"):
            unit_registry.workload("eoss")
