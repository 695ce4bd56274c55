"""The package's public names, its console scripts and its import graph."""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import vbtsim
from oracles import compare_load_spread
from vbtsim import simulate

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(vbtsim.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")

PUBLIC = {
    "ALGORITHMS", "BETA_MIN", "DEFAULT_E_AMP", "DEFAULT_E_ELEC",
    "DEFAULT_E_FAIL", "DEFAULT_PACKET_BITS", "DEFAULT_TH", "E_INIT", "SINK",
    "ConstructionFailed", "ExperimentConfig", "Field", "FitnessParams",
    "LifetimeMetrics", "RadioParams",
    "ReachabilityGraph", "Scenario", "ScenarioFormatError", "SimPolicy",
    "TrafficModel", "apply_setting", "attempt_seed",
    "build_forwarding_problem", "build_min_cover", "build_mmevbt",
    "build_reachability", "deploy_uniform", "distance", "is_connected_to_sink",
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
    assert len(PUBLIC) == 44
    assert names == PUBLIC


def test_oracles_import_no_private_package_name():
    """The references in tests/oracles.py stay independent: they import
    no _-prefixed module or name from vbtsim."""
    tree = ast.parse(ORACLES.read_text())
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


def test_no_function_imports_a_module():
    """Every import in the package sits at module level, so an import
    cycle fails at import time instead of hiding inside a function."""
    inside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                inside += [f"{path.name}:{node.lineno}"
                           for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []


def test_construction_failed_has_one_raise_and_one_catch():
    """Each build returns the live nodes it strands, so only simulate
    raises ConstructionFailed (a run's first build) and only cli catches
    it (exit code 2)."""
    def names(expr):
        return {getattr(n, "id", getattr(n, "attr", None))
                for n in ast.walk(expr)}

    raises, catches = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)  # a call's callee
                if "ConstructionFailed" in names(exc):
                    raises.add(path.name)
            elif isinstance(node, ast.ExceptHandler) and node.type:
                if "ConstructionFailed" in names(node.type):
                    catches.add(path.name)
    assert (raises, catches) == ({"simulate.py"}, {"cli.py"})


def test_one_home_for_the_hop_cost_and_the_balanced_draw():
    """The graph is geometry only: model.py knows no radio and prices no
    edge, energy.tx_costs does. compare_load_spread, in tests/oracles.py,
    reads the route tables a run builds: it calls no backbone build, and
    neither draws() nor best_edges() of a build's candidates, itself."""
    def tree(name):
        return ast.parse((PACKAGE / name).read_text())

    model = tree("model.py")
    imported = {a.name for node in ast.walk(model)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    defined = {node.name for node in ast.walk(model)
               if isinstance(node, ast.FunctionDef)}
    assert "RadioParams" not in imported
    assert "edge_tx" not in defined
    compare, = [node for node in ast.parse(ORACLES.read_text()).body
                if isinstance(node, ast.FunctionDef)
                and node.name == "compare_load_spread"]
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(compare) if isinstance(node, ast.Call)}
    assert called & {"build_mmevbt", "build_min_cover",
                     "build_forwarding_problem", "draws", "best_edges"} == set()


def test_runs_take_their_experiment_config():
    """A run, the load-spread comparison (in tests/oracles.py) and the
    route table take the one ExperimentConfig, which validates itself,
    not its fields one by one: simulate imports no section from config
    and checks no seed itself."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(simulate.run_simulation) == ["scenario", "config",
                                               "event_log"]
    assert params(compare_load_spread) == ["scenario", "config"]
    assert params(simulate._Router.__init__) == ["self", "config"]
    tree = ast.parse((PACKAGE / "simulate.py").read_text())
    imported = [a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module == "config"
                for a in node.names]
    assert imported == ["ExperimentConfig"]
    assert "_generator" not in {node.name for node in tree.body
                                if isinstance(node, ast.FunctionDef)}


def test_sources_parse_as_python_3_10():
    """CI also runs Python 3.10, which has no except*, no PEP 695 type
    syntax and no 3.12 f-string quoting. ast.parse with feature_version
    (3, 10) rejects them on any newer interpreter, so this catches them
    before CI does; perfbench/ is only read."""
    paths = [path for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
             for path in sorted(folder.glob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_config_imports_nothing_from_the_package():
    """config declares every parameter section, so it is the root of the
    package's import graph: the other modules import from it."""
    imported = []
    for node in ast.walk(ast.parse((PACKAGE / "config.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert [name for name in imported if name.startswith(".")
            or name.split(".")[0] == "vbtsim"] == []


def test_no_module_hides_an_import_behind_type_checking():
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "TYPE_CHECKING" in path.read_text()] == []


def test_sections_and_defaults_are_the_config_modules_own():
    for name in ("Field", "RadioParams", "FitnessParams", "SimPolicy",
                 "TrafficModel", "ExperimentConfig", "E_INIT", "DEFAULT_E_ELEC",
                 "DEFAULT_E_AMP", "DEFAULT_PACKET_BITS", "DEFAULT_E_FAIL",
                 "DEFAULT_TH", "ALGORITHMS"):
        assert getattr(vbtsim.config, name) is getattr(vbtsim, name), name


def test_traced_layers_resolve_to_callables():
    """perfbench/tracer.py wraps each (module, function) pair of its LAYERS
    in every traced benchmark run, so a renamed layer fails here too. The
    tuple is read with ast: nothing under perfbench/ is imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    layers, = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "LAYERS"
                       for t in node.targets)]
    assert layers
    missing = [f"{module}.{name}" for module, name in layers
               if not callable(getattr(
                   importlib.import_module(f"vbtsim.{module}"), name, None))]
    assert missing == []


def test_console_scripts_resolve_to_callables():
    """Each [project.scripts] entry names a callable; tomllib is 3.11+,
    so the table is read with a regex."""
    text = (ROOT / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n|\n)*)", text,
                      re.MULTILINE).group(1)
    entries = re.findall(r'^(\S+)\s*=\s*"([\w.]+):(\w+)"', table,
                         re.MULTILINE)
    assert [name for name, _, _ in entries] == ["vbtsim"]
    for _, module, attr in entries:
        assert callable(getattr(importlib.import_module(module), attr))
