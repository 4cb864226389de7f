"""Multistage graphs, workload generators, interaction graphs, paths."""

from .multistage import GraphError, MultistageGraph, NodeValueProblem, check_cost_layers
from .generators import (
    circuit_design_problem,
    curve_tracking_problem,
    gain_schedule_problem,
    inventory_problem,
    production_problem,
    fig1a_graph,
    fig1b_problem,
    fluid_flow_problem,
    random_multistage,
    scheduling_problem,
    single_source_sink,
    traffic_light_problem,
    uniform_multistage,
)
from .interaction import InteractionGraph, Term, chain_order, is_serial_objective
from .transforms import add_virtual_terminals
from .paths import StagePath, all_shortest_paths_equal, validate_path

__all__ = [
    "GraphError",
    "MultistageGraph",
    "NodeValueProblem",
    "check_cost_layers",
    "random_multistage",
    "uniform_multistage",
    "single_source_sink",
    "fig1a_graph",
    "fig1b_problem",
    "traffic_light_problem",
    "circuit_design_problem",
    "fluid_flow_problem",
    "scheduling_problem",
    "inventory_problem",
    "production_problem",
    "gain_schedule_problem",
    "curve_tracking_problem",
    "add_virtual_terminals",
    "InteractionGraph",
    "Term",
    "is_serial_objective",
    "chain_order",
    "StagePath",
    "validate_path",
    "all_shortest_paths_equal",
]
