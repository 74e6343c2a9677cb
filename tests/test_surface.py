"""Every definition, class member and parameter of the package is used.

The paper's results reach users through the subcommands, so a definition no
subcommand reaches is either a test oracle (and lives under tests/) or dead.
The walk is pure AST: starting from `cli.main`, a definition reaches every
name its source refers to, read through the imports of its module, so
`fiber.band`, a bare `band` imported from `.fiber`, and a same-module helper
all count.

A reached class brings its decorators, base classes, field defaults and
dunder methods (so its `__post_init__` is reached code). Its other methods
are reached once reached code calls an attribute of their name, and only
then does a method body count as reached code; a dataclass field is reached
once reached code reads an attribute of its name. Matching is by name, so a
collision can hide a dead member but never flags a live one.

Apart from the walk, every parameter of every package function must be read
in its body, except the uniform `jobs` of the `cmd_*` handlers. And a
defaulted parameter of a reached function must be set, by keyword or by
position, at some call site in reached code: a default no caller overrides
is a constant, not a knob.
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

# Members of reached classes kept although no reached code reads them.
ALLOWED_MEMBERS = {
    # test_bands.py checks where each even band has its unique minimum
    ("bands", "MonotonicityReport", "flip_ks"),
}


# Defaulted parameters that only tests set, each with the tests that set it.
TEST_HOOKS = {
    # test_counting.py::test_tau_on_a_sector_eigenvalue_is_refused_by_the_join_block
    # and test_near_singular_block_raises_and_count_2d_retries put tau on an
    # eigenvalue through the threshold
    ("counting", "count_2d", "threshold"),
    # test_bands.py::test_trace_refinement_needs_three_base_samples and the
    # finite-difference check of test_trace_derivatives_match_finite_differences
    ("bands", "trace", "refine_passes"),
    # test_bands.py::test_find_minimum_higher_bands_in_windows and
    # test_effective_mass_positive_first_four, on finer grids
    ("bands", "find_minimum", "resolution"),
    # test_asymptotics.py's splitting_fit tests, at a frozen kappa
    ("asymptotics", "splitting_fit", "kappa"),
    # every test_cli.py case and tools/cli_golden.py pass their argv
    ("cli", "main", "argv"),
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


def _resolve(module, node, package):
    """(module, name) of the package definition a name or `module.name`
    node denotes, else None."""
    defs, modules, names = package[module]
    if isinstance(node, ast.Name):
        return (module, node.id) if node.id in defs else names.get(node.id)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return modules[node.value.id], node.attr
    return None


def _references(module, node, package):
    """(module, name) of every package definition that `node` refers to."""
    for sub in ast.walk(node):
        key = _resolve(module, sub, package)
        if key is not None:
            yield key


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(cls):
    """Whether the class is decorated `@dataclass` or `@dataclass(...)`."""
    return any(getattr(getattr(deco, "func", deco), "id", None) == "dataclass"
               for deco in cls.decorator_list)


def _methods(cls):
    """{name: node} of the class's own methods other than dunders."""
    return {node.name: node for node in cls.body
            if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name)}


def _fields(cls):
    """Names of a dataclass's fields; none for any other class."""
    if not _is_dataclass(cls):
        return []
    return [node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def _code(node):
    """The parts of a definition that count as reached code with it: all of
    a function or assignment, and a class without its non-dunder methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    methods = _methods(node).values()
    return [*node.decorator_list, *node.bases, *node.keywords,
            *(sub for sub in node.body if sub not in methods)]


def _classes(seen, package):
    """(module, name) of the reached classes."""
    return [key for key in seen if len(key) == 2
            and isinstance(package[key[0]][0][key[1]], ast.ClassDef)]


def _walk(package):
    """(reached keys, attribute names that reached code reads).

    A key is (module, name) for a module-level definition and
    (module, class, method) for a method. Once the definitions run out, the
    methods of reached classes whose names reached code calls join the walk.
    """
    seen, called, read = set(), set(), set()
    todo = [("cli", "main")]
    while todo:
        key = todo.pop()
        node = package.get(key[0], ({},))[0].get(key[1])
        if len(key) == 3 and node is not None:
            node = _methods(node).get(key[2])
        if key not in seen and node is not None:
            seen.add(key)
            for part in _code(node):
                todo.extend(_references(key[0], part, package))
                for sub in ast.walk(part):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                        read.add(sub.attr)
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                        called.add(sub.func.attr)
        if not todo:
            todo = [(module, name, method) for module, name in _classes(seen, package)
                    for method in _methods(package[module][0][name])
                    if method in called and (module, name, method) not in seen]
    return seen, read


def unreached():
    """Sorted (module, name) of the definitions `cli.main` does not reach."""
    package = _package()
    seen = _walk(package)[0]
    every = {(module, name) for module, entry in package.items() for name in entry[0]}
    return sorted(every - seen)


def unreached_members():
    """Sorted (module, class, member) of the methods no reached code calls
    and the dataclass fields no reached code reads, over reached classes."""
    package = _package()
    seen, read = _walk(package)
    stray = set()
    for module, name in _classes(seen, package):
        cls = package[module][0][name]
        stray.update((module, name, method) for method in _methods(cls)
                     if (module, name, method) not in seen)
        stray.update((module, name, field) for field in _fields(cls)
                     if field not in read)
    return sorted(stray)


def _functions(node, prefix):
    """(qualified name, node) of every function under `node`, nested ones too."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.FunctionDef):
            yield f"{prefix}{sub.name}", sub
            yield from _functions(sub, f"{prefix}{sub.name}.")
        elif isinstance(sub, ast.ClassDef):
            yield from _functions(sub, f"{prefix}{sub.name}.")
        else:
            yield from _functions(sub, prefix)


def unused_parameters():
    """Sorted 'module.function(parameter)' of parameters their body never reads."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, func in _functions(tree, f"{path.stem}."):
            args = func.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg, args.kwarg)
                      if a is not None]
            loaded = {sub.id for stmt in func.body for sub in ast.walk(stmt)
                      if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            out += [f"{name}({param})" for param in params if param not in loaded
                    and not (name.startswith("cli.cmd_") and param == "jobs")]
    return sorted(out)


def _defaulted(func):
    """(positional parameter names, names of the defaulted parameters)."""
    args = func.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    tail = positional[len(positional) - len(args.defaults):] if args.defaults else []
    return positional, tail + [a.arg for a, default in zip(args.kwonlyargs,
                                                            args.kw_defaults)
                               if default is not None]


def unturned_knobs():
    """Sorted (module, function, parameter) of the defaulted parameters of
    reached module-level functions that no call in reached code sets."""
    package = _package()
    seen = _walk(package)[0]
    set_by_calls = {}
    for key in seen:
        node = package[key[0]][0][key[1]]
        if len(key) == 3:
            node = _methods(node)[key[2]]
        for part in _code(node):
            for call in (sub for sub in ast.walk(part) if isinstance(sub, ast.Call)):
                callee = _resolve(key[0], call.func, package)
                if callee is None:
                    continue
                splat = any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(kw.arg is None for kw in call.keywords)
                set_by_calls.setdefault(callee, []).append(
                    (None if splat else len(call.args),
                     {kw.arg for kw in call.keywords}))
    knobs = []
    for module, name in (key for key in seen if len(key) == 2):
        node = package[module][0][name]
        if not isinstance(node, ast.FunctionDef):
            continue
        positional, defaulted = _defaulted(node)
        calls = set_by_calls.get((module, name), [])
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(n is None or param in keywords
                       or (index is not None and index < n)
                       for n, keywords in calls):
                knobs.append((module, name, param))
    return sorted(knobs)


def test_every_definition_is_reached_from_the_cli_or_allowed():
    stray = [f"{module}.{name}" for module, name in unreached()
             if (module, name) not in ALLOWED]
    assert stray == [], f"reached by no subcommand: {', '.join(stray)}"


def test_allowlist_names_only_unreached_definitions():
    stale = sorted(f"{module}.{name}" for module, name in ALLOWED - set(unreached()))
    assert stale == [], f"allowlisted but reached or gone: {', '.join(stale)}"


def test_every_member_of_a_reached_class_is_reached_or_allowed():
    stray = [".".join(key) for key in unreached_members()
             if key not in ALLOWED_MEMBERS]
    assert stray == [], f"read or called by no subcommand: {', '.join(stray)}"


def test_member_allowlist_names_only_unreached_members():
    stale = sorted(".".join(key) for key in ALLOWED_MEMBERS - set(unreached_members()))
    assert stale == [], f"allowlisted but reached or gone: {', '.join(stale)}"


def test_every_parameter_is_read_in_its_body():
    unused = unused_parameters()
    assert unused == [], f"parameters never read: {', '.join(unused)}"


def test_every_default_is_overridden_by_a_reached_call_or_a_test_hook():
    knobs = [".".join(key) for key in unturned_knobs() if key not in TEST_HOOKS]
    assert knobs == [], f"defaults no reached call sets: {', '.join(knobs)}"


def test_test_hooks_name_only_unturned_knobs():
    stale = sorted(".".join(key) for key in TEST_HOOKS - set(unturned_knobs()))
    assert stale == [], f"listed as test hooks but set or gone: {', '.join(stale)}"
