"""Dependency graphs, plans, critical-path and impact analyses."""

from .builder import (
    GraphBuildError,
    GraphBuilder,
    ResourceGraph,
    ResourceNode,
    build_graph,
)
from .critical_path import CriticalPathAnalysis, analyze, estimate_change_duration
from .dag import CycleError, Dag
from .impact import ConfigDelta, ImpactAnalyzer, diff_configurations
from .plan import (
    ACTIONABLE,
    Action,
    AttrDiff,
    Plan,
    PlanError,
    PlannedChange,
    Planner,
    ValueResolver,
)

__all__ = [
    "ACTIONABLE",
    "Action",
    "AttrDiff",
    "ConfigDelta",
    "CriticalPathAnalysis",
    "CycleError",
    "Dag",
    "GraphBuildError",
    "GraphBuilder",
    "ImpactAnalyzer",
    "Plan",
    "PlanError",
    "PlannedChange",
    "Planner",
    "ResourceGraph",
    "ResourceNode",
    "ValueResolver",
    "analyze",
    "build_graph",
    "diff_configurations",
    "estimate_change_duration",
]
