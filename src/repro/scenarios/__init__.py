"""Declarative scenario engine.

* :mod:`repro.scenarios.scenario` — :class:`Scenario`,
  :class:`TopologySpec`, :class:`WorkloadSpec`, :class:`CachingSpec`:
  what to run;
* :mod:`repro.scenarios.runner` — :class:`ScenarioRunner`: how to run
  it (including ``sweep`` over transport × topology × loss ×
  cache-placement × scheme grids);
* :mod:`repro.scenarios.presets` — named topologies/scenarios and the
  ``key=value`` spec parser behind the CLI's ``run``/``resolve`` specs.
"""

from .executors import (
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    SweepExecutor,
    executor_names,
    get_executor,
    register_executor,
)
from .scenario import (
    CachingSpec,
    Scenario,
    ScenarioError,
    TopologySpec,
    WorkloadSpec,
)
from .runner import (
    NAME_TEMPLATE,
    ScenarioRunner,
    SweepCell,
    SweepResult,
    build_workload_zone,
)
from .presets import (
    SCENARIOS,
    TOPOLOGIES,
    get_scenario,
    get_topology,
    scenario_from_spec,
)

__all__ = [
    "CachingSpec",
    "ExecutorError",
    "NAME_TEMPLATE",
    "ProcessExecutor",
    "SCENARIOS",
    "Scenario",
    "ScenarioError",
    "ScenarioRunner",
    "SerialExecutor",
    "SweepCell",
    "SweepExecutor",
    "SweepResult",
    "TOPOLOGIES",
    "TopologySpec",
    "WorkloadSpec",
    "build_workload_zone",
    "executor_names",
    "get_executor",
    "get_topology",
    "register_executor",
    "scenario_from_spec",
]
