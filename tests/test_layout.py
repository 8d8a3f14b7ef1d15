"""Dead-code guard: every definition in ``src/qeraser`` has a user.

A top-level function or class, public or private, and a private top-level
constant count as used when some code refers to them, as a name or an
attribute, outside their own definition.  A name does
not count where the referring module binds it itself, as a def, an argument
or an assignment target: that reference is to the module's own name.  A public
method or property of a public class counts as used when some code refers
to an attribute of that name outside the method itself; the check goes by
name, not by type.  The places that count are the package's modules, the
study scripts, the benchmark and the acceptance tests.  Unit tests do not
count: an API only they call belongs in ``tests/oracles.py`` or nowhere.
The package root ``__init__.py`` holds only the version and re-exports
nothing, so it is not read.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qeraser"


def modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def users() -> list[Path]:
    return (
        modules()
        + sorted((ROOT / "scripts").glob("*.py"))
        + sorted((ROOT / "perfbench").glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]
    )


def referenced(nodes) -> set[str]:
    """Names and attribute names the nodes refer to, less the names they bind themselves.

    A name the nodes bind, as a def or class at any depth, an argument or an
    assignment target, is their own, so a reference to it uses no package
    name.  An attribute always counts.
    """
    names, bound, attrs = set(), set(), set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                (names if isinstance(node.ctx, ast.Load) else bound).add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
    return (names - bound) | attrs


def attributes(root, skip=None) -> set[str]:
    """Attribute names referenced under root, leaving out the subtree skip."""
    names = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def public_members(cls: ast.ClassDef):
    return [
        node
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def definitions(body, private: bool):
    """(index, name) of body's top-level functions and classes, private ones or public ones.

    With private, also each private constant: a plain name a top-level
    statement assigns to.  Dunder names are not definitions.
    """
    for i, node in enumerate(body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif private and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") == private and not name.startswith("__"):
                yield i, name


def unused(trees: dict, defining, private: bool) -> list[str]:
    """'module.name' of each definition in the defining paths that no tree refers to.

    Its own module counts only outside the definition itself.
    """
    elsewhere = {path: referenced([tree]) for path, tree in trees.items()}
    found = []
    for path in defining:
        body = trees[path].body
        others = [names for p, names in elsewhere.items() if p != path]
        for i, name in definitions(body, private):
            if name not in referenced(body[:i] + body[i + 1 :]) and not any(name in n for n in others):
                found.append(f"{path.stem}.{name}")
    return found


def parsed(paths) -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def test_every_public_definition_has_a_user():
    found = unused(parsed(users()), modules(), private=False)
    assert not found, f"public names only unit tests use: {', '.join(found)}"


def test_every_private_definition_has_a_user():
    found = unused(parsed(users()), modules(), private=True)
    assert not found, f"private names only unit tests use: {', '.join(found)}"


def test_private_guard_sees_functions_classes_and_constants():
    code = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "__dunder__ = 3\n"
        "public = _USED\n"
        "def _helper():\n"
        "    return _Kept()\n"
        "def _dead():\n"
        "    return _dead()\n"
        "class _Kept:\n"
        "    pass\n"
    )
    trees = {Path("snippet.py"): ast.parse(code)}
    assert unused(trees, trees, private=True) == ["snippet._UNUSED", "snippet._helper", "snippet._dead"]
    assert unused(trees, trees, private=False) == []


def test_every_public_method_has_a_user():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in users()}
    elsewhere = {path: attributes(tree) for path, tree in trees.items()}
    unused = []
    for path in modules():
        others = set().union(*(names for p, names in elsewhere.items() if p != path))
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for method in public_members(cls):
                # its own module counts only outside the method itself
                if method.name not in others | attributes(trees[path], skip=method):
                    unused.append(f"{path.stem}.{cls.name}.{method.name}")
    assert not unused, f"public methods only unit tests use: {', '.join(unused)}"


def test_guard_sees_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in modules()]
    names = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"joint_distribution", "match_coincidences", "cmd_sweep", "ArmOptics"} <= names
    methods = {
        f"{cls.name}.{method.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in public_members(cls)
    }
    assert {"ArmOptics.amplitudes", "CoincidenceDistribution.pattern"} <= methods


# numpy entry points that may hand a product or a solve to BLAS or LAPACK,
# whose rounding depends on the CPU kernel the library picks at run time
BLAS_ATTRIBUTES = {"linalg", "tensordot", "matmul", "dot", "vdot", "inner", "einsum"}


def blas_calls(source: str) -> list[str]:
    """'line: what' of each `@` and each BLAS-backed numpy attribute in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
            found.append(f"{node.lineno}: {node.attr}")
    return sorted(found)


def test_no_blas_in_the_package():
    """No `@` and no BLAS-backed numpy call anywhere in src/qeraser.

    Every table, fit and residual is a fixed-order float64 step
    (optics.table, analysis.solve_normal), so the artifacts round the same
    on every CPU; tests/test_golden.py checks that under other kernels.
    """
    found = [f"{p.name}:{hit}" for p in modules() + [PACKAGE / "__init__.py"] for hit in blas_calls(p.read_text())]
    assert not found, f"BLAS-backed calls: {', '.join(found)}"


def test_blas_guard_sees_each_form():
    code = "@dataclass\nclass A:\n    pass\na @ b\nc @= d\nnp.linalg.solve(a, b)\nx.dot(y)\nnp.einsum('i', a)\n"
    assert blas_calls(code) == ["4: @", "5: @", "6: linalg", "7: dot", "8: einsum"]


def test_use_guard_skips_names_a_module_binds():
    code = (
        "def run(arg):\n"
        "    def write_triples(path):\n"
        "        return path\n"
        "    kept = [write_triples, arg]\n"
        "    return kept, used, events.read_triples\n"
    )
    assert referenced([ast.parse(code)]) == {"used", "events", "read_triples"}


def test_package_root_reexports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_stream_module_does_not_import_scipy():
    """The stream layer needs numpy only; scipy.stats alone costs about a second."""
    code = "import sys, qeraser.events; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out == "[]\n"
