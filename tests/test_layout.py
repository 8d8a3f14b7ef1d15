"""Dead-code guard: every public function and class in ``src/qeraser`` has a user.

A public top-level name counts as used when some code refers to it, as a
name or an attribute, outside its own definition.  The places that count are
the package itself (except ``__init__.py``, which only re-exports), the
study scripts, the benchmark and the acceptance tests.  Unit tests do not
count: an API only they call belongs in ``tests/oracles.py`` or nowhere.
"""

import ast
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
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_has_a_user():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in users()}
    elsewhere = {path: referenced([tree]) for path, tree in trees.items()}
    unused = []
    for path in modules():
        body = trees[path].body
        for i, node in enumerate(body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # its own module counts only outside the definition itself
            own = referenced(body[:i] + body[i + 1 :])
            others = (names for p, names in elsewhere.items() if p != path)
            if node.name not in own and not any(node.name in names for names in others):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public names only unit tests use: {', '.join(unused)}"


def test_guard_sees_the_package():
    names = {
        node.name
        for path in modules()
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"joint_distribution", "match_coincidences", "cmd_sweep", "ArmOptics"} <= names
