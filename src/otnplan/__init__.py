"""otnplan: minimum-cost survivable two-layer (packet-over-optical) network design.

Build and solve the integer programs behind logical-topology design, LSP
routing and lightpath routing under four survivability strategies and two
configuration approaches, then certify 100% restorability by exhaustive
single-failure simulation.
"""

from .formulation import (ExclusionSets, Lightpath, ProblemInstance,
                          build_integrated, build_lightpath_routing,
                          build_logical_design, compute_exclusion_sets,
                          estimate_problem_size)
from .instance import (bundled_instance_path, config_from_dict, config_to_dict,
                       instance_from_dict, load_instance)
from .milp import MilpModel, MilpSolution, emit_lp_file, solve_milp
from .modes import Approach, SurvivabilityMode
from .netmodel import (COST_RATIO_PRESETS, CostRatios, LspDemand,
                       PhysicalTopology, SystemParams, UnitCosts,
                       average_connectivity, derive_unit_costs,
                       generate_topology, split_demands, validate_topology)
from .oracle import brute_force_optimum
from .planner import (CostBreakdown, NetworkConfiguration, PlanError,
                      PlanOptions, apply_brs_sharing, plan, total_cost,
                      transit_traffic)
from .report import emit_report
from .verify import (FailureScenario, RestorabilityReport, check_disjointness,
                     check_restorability, enumerate_failures)

__version__ = "0.1.0"

__all__ = [
    "Approach",
    "COST_RATIO_PRESETS",
    "CostBreakdown",
    "CostRatios",
    "ExclusionSets",
    "FailureScenario",
    "Lightpath",
    "LspDemand",
    "MilpModel",
    "MilpSolution",
    "NetworkConfiguration",
    "PhysicalTopology",
    "PlanError",
    "PlanOptions",
    "ProblemInstance",
    "RestorabilityReport",
    "SurvivabilityMode",
    "SystemParams",
    "UnitCosts",
    "apply_brs_sharing",
    "average_connectivity",
    "brute_force_optimum",
    "build_integrated",
    "build_lightpath_routing",
    "build_logical_design",
    "bundled_instance_path",
    "check_disjointness",
    "check_restorability",
    "compute_exclusion_sets",
    "config_from_dict",
    "config_to_dict",
    "derive_unit_costs",
    "emit_lp_file",
    "emit_report",
    "enumerate_failures",
    "estimate_problem_size",
    "generate_topology",
    "instance_from_dict",
    "load_instance",
    "plan",
    "solve_milp",
    "split_demands",
    "total_cost",
    "transit_traffic",
    "validate_topology",
]
