"""smclab's modules import one another in one direction only: each module may
import the modules before it in LAYERS, never one after it, not even lazily
inside a function."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "smclab")

LAYERS = ("errors", "_numerics", "estimators", "model", "variance", "resampling",
          "_engine", "filtering", "experiments", "cli")


def smclab_imports(module):
    """Names of the smclab modules that ``module`` imports anywhere in its body."""
    with open(os.path.join(SRC, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("smclab."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith("smclab."):
                found.add(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(a.name for a in node.names)
    return found


def test_every_module_is_layered():
    modules = {name[:-3] for name in os.listdir(SRC) if name.endswith(".py")}
    assert modules - {"__init__"} == set(LAYERS)


def test_modules_import_only_earlier_layers():
    for i, module in enumerate(LAYERS):
        later = smclab_imports(module) - set(LAYERS[:i])
        assert not later, f"{module} imports {sorted(later)}, which are not below it"


def test_variance_is_deterministic_math():
    """No Monte Carlo in variance.py: the engine and the estimators stay out."""
    assert smclab_imports("variance") <= {"errors", "_numerics", "model"}
