"""Every module-level definition of the package is reached from the CLI.

The paper's results reach users through the subcommands, so a definition no
subcommand reaches is either a test oracle (and lives under tests/) or dead.
The walk is pure AST: starting from `cli.main`, a definition reaches every
name its source refers to, read through the imports of its module, so
`fiber.band`, a bare `band` imported from `.fiber`, and a same-module helper
all count. Class bodies count whole, so methods, dataclass defaults and
base classes are reached with their class.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "magbarrier"

# Kept on purpose although no subcommand reaches them yet: the edge-current
# and strip-mass claims of the abstract, checked only by tests until an
# `edge` subcommand reports them, and one tracer fixture of the benchmark.
ALLOWED = {
    # test_acceptance.py::test_c09_edge_currents
    ("mourre", "BandComponent"),
    ("mourre", "FiberState"),
    ("mourre", "random_state"),
    ("mourre", "edge_current_fiber"),
    ("mourre", "evolve_free"),
    ("mourre", "_interp_band"),
    # test_mourre.py: the Gaussian-oracle and linearity edge-current tests
    ("mourre", "component_from_beta"),
    # test_acceptance.py::test_c09_edge_currents (the 2D cross-check)
    ("mourre", "EdgeCurrent2D"),
    ("mourre", "edge_current_2d"),
    ("mourre", "_grid_2d"),
    ("mourre", "EDGE_SLACK_FRACTION"),
    # test_acceptance.py::test_c11_localization
    ("localization", "strip_split"),
    ("localization", "_strip_fraction"),
    ("localization", "strip_mass"),
    ("localization", "normalized_random_state"),
    # perfbench/tests/test_layers.py traces it as a counting layer function
    ("counting", "bisection_count"),
}


def _definitions(tree):
    """{name: node} of the module-level functions, classes and assignments."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    return defs


def _imports(tree):
    """{local name: module} for `from . import m` and {name: (m, name)} for
    `from .m import name`."""
    modules, names = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return modules, names


def _package():
    """{module: (definitions, module imports, name imports)}."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        out[path.stem] = (_definitions(tree), *_imports(tree))
    return out


def _references(module, node, package):
    """(module, name) of every package definition that `node` refers to."""
    defs, modules, names = package[module]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in defs:
                yield module, sub.id
            elif sub.id in names:
                yield names[sub.id]
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            yield modules[sub.value.id], sub.attr


def unreached():
    """Sorted (module, name) of the definitions `cli.main` does not reach."""
    package = _package()
    seen, todo = set(), [("cli", "main")]
    while todo:
        key = todo.pop()
        if key in seen or key[0] not in package or key[1] not in package[key[0]][0]:
            continue
        seen.add(key)
        todo.extend(_references(key[0], package[key[0]][0][key[1]], package))
    every = {(module, name) for module, entry in package.items() for name in entry[0]}
    return sorted(every - seen)


def test_every_definition_is_reached_from_the_cli_or_allowed():
    stray = [f"{module}.{name}" for module, name in unreached()
             if (module, name) not in ALLOWED]
    assert stray == [], f"reached by no subcommand: {', '.join(stray)}"


def test_allowlist_names_only_unreached_definitions():
    stale = sorted(f"{module}.{name}" for module, name in ALLOWED - set(unreached()))
    assert stale == [], f"allowlisted but reached or gone: {', '.join(stale)}"
