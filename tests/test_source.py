"""Static checks on the package source, standing in for a linter."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import senseplan

PACKAGE_DIR = Path(senseplan.__file__).parent
README = Path(__file__).parents[1] / "README.md"


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


def test_cli_import_leaves_scipy_spatial_out():
    """``import senseplan.cli`` in a fresh interpreter loads neither
    ``scipy.spatial`` nor the ``scipy.special`` it would pull in."""
    code = "import sys, senseplan.cli; print(sorted(m for m in ('scipy.spatial', 'scipy.special') if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
    )
    assert out.stdout.strip() == "[]"


SERIAL_RUN = """
[scenario]
horizon = 3
trials = 2
planner = both
[kernel]
signal_variance = 4.0
lengthscale = 2.0
[field]
kind = analytic
name = linear
a = 1.0
[roi]
kind = rectangle
rect = 0, 0, 10, 10
[placement]
kind = sample
n_targets = 3
n_candidates = 4
n_shared = 0
"""


def test_cli_import_loads_only_scipys_lapack_extension():
    """``import senseplan.cli`` and a serial run on a rectangle, in a fresh
    interpreter, load scipy's LAPACK extension but neither the ``scipy``
    package's ``__init__`` nor ``scipy.linalg``, nor the numpy modules
    scipy's array-API layer would pull in with it, nor the process-pool
    machinery only a pooled run uses."""
    code = (
        "import sys, senseplan.cli\n"
        "from senseplan.config import parse_config_text\n"
        "from senseplan.harness import execute_run\n"
        f"execute_run(parse_config_text({SERIAL_RUN!r}), workers=1)\n"
        "print(sorted(m for m in ('scipy', 'scipy.linalg', 'scipy.linalg._flapack', 'scipy.spatial', 'scipy.special', "
        "'numpy.f2py', 'numpy.testing', 'concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
    )
    assert out.stdout.strip() == "['scipy.linalg._flapack']"


def private_definitions(tree: ast.Module) -> list:
    """Private (``_``-prefixed, not dunder) module-level functions, classes
    and constants, and private methods of module-level classes: for each,
    its qualified name, its name and the node that defines it."""
    defined = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defined += [
                (f"{node.name}.{method.name}", method.name, method)
                for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [d for d in defined if d[1].startswith("_") and not d[1].startswith("__")]


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
    """Every private module-level function, class or constant in the
    package, and every private method of a module-level class, is read
    somewhere in the package outside its own definition, so a path, a
    carrier or a method that a new one replaced does not linger."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    read = {module: references(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in read.items() if other != module))
        for qualified, name, node in private_definitions(tree):
            if name not in elsewhere and name not in references(tree, skip=node):
                unused.append(f"{module}: {qualified}")
    assert unused == []


#: The functions that coerce locations with ``as_points`` or ``as_point``:
#: the public entry points, the batch mask queries, the one check every
#: field query starts with, the one conditioning the EDG routes share, and
#: the placement that builds the point sets.
#: Code below them takes the checked arrays as they are.
COERCING_FUNCTIONS = {
    "environment.GridData.contains",
    "environment.PolygonMask.__post_init__",
    "environment.PolygonMask.contains",
    "environment.SampledField.__post_init__",
    "environment._points_inside",
    "environment.field_value",
    "environment.place_scenario",
    "gp.GaussianBelief.__post_init__",
    "gp.MeasurementLog.__post_init__",
    "gp.MeasurementLog.append",
    "gp.posterior",
    "gp.predictive_moments",
    "gp.sample_prior_field",
    "harness.trial_placement",
    "infogain._checked",
    "planner.ScenarioConfig.__post_init__",
    "planner.greedy_select",
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
    inner routine (``kernel_matrix``, the EDG routes below their one
    conditioning) coerces them again."""
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found |= coercing_functions(ast.parse(path.read_text()), path.stem)
    assert found == COERCING_FUNCTIONS


def test_all_names_every_reexport():
    """``senseplan.__all__`` lists exactly the names ``__init__`` imports,
    plus ``__version__``."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(senseplan.__all__) == sorted([*imported, "__version__"])


def attribute_reads(tree: ast.AST) -> Counter:
    """How many times each attribute name is read in ``tree``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def test_public_functions_are_used_or_documented():
    """Every public module-level function is imported by another package
    module (``__init__``'s re-exports do not count), read by name in its
    own module, or named in README as `` `name(`` or `` `name` ``; every
    public method or property of a module-level class is read as an
    attribute somewhere in the package outside its own definition, or
    named in README as `` `name(`` or ``.name(``.  So a function or method
    nothing calls does not linger as API.  Functions are matched by
    import, not by attribute name, which other classes' fields may share.
    README's ``[roi]`` section names no method: it is neither form."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    imported = {
        (node.module, alias.name)
        for module, tree in trees.items()
        if module != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    read = sum(map(attribute_reads, trees.values()), Counter())
    readme = README.read_text()
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{module}.{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                    and read[method.name] == attribute_reads(method)[method.name]
                    and not re.search(rf"[`.]{method.name}\(", readme)
                ]
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            own = {
                ref.id
                for other in tree.body
                if other is not node
                for ref in ast.walk(other)
                if isinstance(ref, ast.Name) and isinstance(ref.ctx, ast.Load)
            }
            documented = re.search(rf"`{node.name}[(`]", readme)
            if (module, node.name) not in imported and node.name not in own and not documented:
                unused.append(f"{module}.{node.name}")
    assert unused == []


def test_floats_are_formatted_only_by_the_memo():
    """``harness.py`` formats a float with ``float.__repr__`` in one place,
    the run's float-text memo, so run.json and series.csv print each
    distinct float once."""
    tree = ast.parse((PACKAGE_DIR / "harness.py").read_text())
    memo = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_FloatText")
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__repr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "float"
    ]
    inside = {id(node) for node in ast.walk(memo)}
    assert calls and [node.lineno for node in calls if id(node) not in inside] == []


def test_locations_are_matched_only_by_the_sorted_lookup():
    """Exact-coordinate matches go through ``gp._first_index``, so no module
    calls ``map(tuple, ...)`` to key a dictionary by coordinate tuples."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "map"
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "tuple"
    ]
    assert calls == []
