"""Static checks on the package source, standing in for a linter."""

import ast
from pathlib import Path

import senseplan

PACKAGE_DIR = Path(senseplan.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never mentions again.

    ``from __future__`` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_import_only_what_they_use():
    """Every module but ``__init__`` (which re-exports) uses each name it
    imports."""
    unused = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def test_imports_sit_at_module_top_level():
    """No module imports inside a function, class or block: each import is
    a statement of the module body."""
    nested = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []


def private_definitions(tree: ast.Module) -> dict:
    """Module-level ``_``-prefixed functions and constants, by name, with
    the node that defines each."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
    return {
        name: node
        for name, node in defined.items()
        if name.startswith("_") and not name.startswith("__")
    }


def references(tree: ast.AST, skip=None) -> set:
    """Names read in ``tree``, as bare names or attributes, outside ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_private_helpers_are_used():
    """Every private module-level function or constant in the package is
    read somewhere in the package outside its own definition, so a path
    that a new one replaced does not linger."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, node in private_definitions(tree).items():
            used = any(
                name in references(other, skip=node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                unused.append(f"{module}: {name}")
    assert unused == []


#: The functions that coerce locations with ``as_points`` or ``as_point``:
#: the public entry points, the batch mask queries, the one check every
#: field query starts with, and the placement that builds the point sets.
#: Code below them takes the checked arrays as they are.
COERCING_FUNCTIONS = {
    "environment.GridData.contains",
    "environment.PolygonMask.__post_init__",
    "environment.PolygonMask.contains",
    "environment.SampledField.__post_init__",
    "environment._points_inside",
    "environment.place_scenario",
    "gp.GaussianBelief.__post_init__",
    "gp.MeanSpec.at",
    "gp.MeasurementLog.__post_init__",
    "gp.MeasurementLog.append",
    "gp.posterior",
    "gp.predictive_measurement",
    "gp.predictive_moments",
    "gp.sample_prior_field",
    "harness.trial_placement",
    "infogain.edg_exact",
    "metrics.intersection_indices",
    "planner.ScenarioConfig.__post_init__",
    "planner.greedy_select",
    "planner.random_select",
}


def coercing_functions(tree: ast.Module, module: str) -> set:
    """Qualified names of the functions and methods in ``tree`` that call
    ``as_points`` or ``as_point``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id in ("as_points", "as_point")
            ):
                found.add(scope)
            visit(child, scope)

    visit(tree, module)
    return found


def test_points_are_coerced_only_at_the_boundary():
    """Location arrays are checked where they enter the package, so no
    inner routine (``kernel_matrix``, the EDG routes below their first
    ``posterior``) coerces them again."""
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found |= coercing_functions(ast.parse(path.read_text()), path.stem)
    assert found == COERCING_FUNCTIONS
