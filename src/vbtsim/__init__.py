"""Deterministic wireless-sensor-network lifetime simulator.

Three backbone constructions over seeded unit-disk deployments: a
minimal-energy shortest-path tree, a greedy minimal-tree-node cover, and
probabilistic load-balanced forwarding on top of the cover. A round-based
traffic engine drains batteries, maintains the backbone and periodically
relocates the sink; a CLI harness sweeps sensing ranges into CSV.
"""

from .balanced import (
    BETA_MIN,
    build_forwarding_problem,
    select_parent,
    selection_probabilities,
)
from .config import (
    ALGORITHMS,
    DEFAULT_E_AMP,
    DEFAULT_E_ELEC,
    DEFAULT_E_FAIL,
    DEFAULT_PACKET_BITS,
    DEFAULT_TH,
    E_INIT,
    ExperimentConfig,
    Field,
    FitnessParams,
    RadioParams,
    SimPolicy,
    TrafficModel,
    apply_setting,
    load_config,
    parse_config_text,
)
from .energy import rx_cost, tx_cost
from .mincover import build_min_cover
from .mmevbt import build_mmevbt, relocate_sink
from .model import (
    SINK,
    ConstructionFailed,
    ReachabilityGraph,
    Scenario,
    build_reachability,
    deploy_uniform,
    distance,
    is_connected_to_sink,
)
from .scenario_io import ScenarioFormatError, read_scenario, write_scenario
from .simulate import LifetimeMetrics, run_simulation
from .sweeps import (
    attempt_seed,
    make_scenario,
    run_scenario,
    sweep_figure3,
    sweep_figure4,
)
