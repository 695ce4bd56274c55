"""The package's public names, pinned."""

import ast
import types
from pathlib import Path

import vbtsim

PUBLIC = {
    "ALGORITHMS", "BETA_MIN", "DEFAULT_E_AMP", "DEFAULT_E_ELEC",
    "DEFAULT_E_FAIL", "DEFAULT_PACKET_BITS", "DEFAULT_TH", "E_INIT", "SINK",
    "BackboneTree", "ConstructionFailed", "ExperimentConfig", "Field",
    "FitnessParams", "ForwardingProblem",
    "LifetimeMetrics", "Node", "NodeStatus", "RadioParams",
    "ReachabilityGraph", "Scenario", "ScenarioFormatError", "SimPolicy",
    "TrafficModel", "apply_setting", "attempt_seed",
    "build_forwarding_problem", "build_min_cover", "build_mmevbt",
    "build_reachability", "classify_status", "compare_load_spread",
    "deploy_uniform", "distance", "expected_loads", "is_connected_to_sink",
    "load_config", "make_scenario", "min_max_load_exact",
    "parse_config_text", "read_scenario", "relocate_sink", "run_scenario",
    "run_simulation", "rx_cost", "select_parent", "selection_probabilities",
    "sweep_figure3", "sweep_figure4", "tx_cost", "write_scenario",
}


def test_public_names_are_pinned():
    """A helper with no production caller lives in tests/oracles.py; one
    that comes back into the package shows up here."""
    names = {name for name, obj in vars(vbtsim).items()
             if not name.startswith("_")
             and not isinstance(obj, types.ModuleType)}
    assert len(PUBLIC) == 51
    assert names == PUBLIC


def test_oracles_import_no_private_package_name():
    """The references in tests/oracles.py stay independent: they import
    no _-prefixed module or name from vbtsim."""
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    private = [name for name in imported
               if name.split(".")[0] == "vbtsim"
               and any(part.startswith("_") for part in name.split(".")[1:])]
    assert private == []
