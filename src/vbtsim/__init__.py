"""Deterministic wireless-sensor-network lifetime simulator.

Three backbone constructions over seeded unit-disk deployments: a
minimal-energy shortest-path tree, a greedy minimal-tree-node cover, and
probabilistic load-balanced forwarding on top of the cover. A round-based
traffic engine drains batteries, maintains the backbone and periodically
relocates the sink; a CLI harness sweeps sensing ranges into CSV.
"""

from .balanced import (
    BETA_MIN,
    FitnessBreakdown,
    FitnessContext,
    FitnessParams,
    ForwardingProblem,
    InstanceTooLarge,
    LoadStats,
    build_forwarding_problem,
    deviation_angle,
    expected_loads,
    fitness,
    load_stats,
    min_max_load_exact,
    realize_selections,
    select_parent,
    selection_probabilities,
)
from .config import ExperimentConfig, apply_setting, load_config, parse_config_text
from .energy import (
    DEFAULT_E_AMP,
    DEFAULT_E_ELEC,
    DEFAULT_E_FAIL,
    DEFAULT_PACKET_BITS,
    RadioParams,
    path_consumption,
    rx_cost,
    tx_cost,
)
from .mincover import CoverState, build_min_cover
from .mmevbt import (
    BackboneTree,
    ReparentReport,
    build_mmevbt,
    relocate_sink,
    reparent_if_better,
)
from .model import (
    DEFAULT_TH,
    E_INIT,
    SINK,
    ConstructionFailed,
    Field,
    Node,
    NodeStatus,
    ReachabilityGraph,
    Scenario,
    build_reachability,
    classify_status,
    deploy_uniform,
    distance,
    hop_weight,
    is_connected_to_sink,
)
from .scenario_io import ScenarioFormatError, read_scenario, write_scenario
from .simulate import (
    ALGORITHMS,
    LifetimeMetrics,
    SimPolicy,
    TrafficModel,
    compare_load_spread,
    run_simulation,
)
from .sweeps import (
    attempt_seed,
    make_scenario,
    run_scenario,
    sweep_figure3,
    sweep_figure4,
)
