"""Every module in the package and the test suite reads each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "dyncut").glob("*.py"), *(ROOT / "tests").glob("*.py")])

# perfbench/tracer.py:62,63,69 wraps these names in dyncut.dynamic, which
# calls none of them; ROADMAP item 4 deletes them with the hooks that read them,
# after item 3's benchmark-contract change
ALLOWED = {("dynamic.py", "contract"), ("dynamic.py", "min_cut"), ("dynamic.py", "query_value")}


def unread_imports(source: str) -> set[str]:
    """Names a module imports and never reads; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_the_check_sees_an_unread_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unread_imports(source) == {"os", "b"}
    assert unread_imports("from a import b\n__all__ = ['b']\n") == set()


def test_every_allowed_name_is_an_unread_import():
    for module, name in ALLOWED:
        assert name in unread_imports((ROOT / "src" / "dyncut" / module).read_text()), name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    allowed = {name for module, name in ALLOWED if module == path.name}
    unread = unread_imports(path.read_text()) - allowed
    assert not unread, f"{path.parent.name}/{path.name} never reads {sorted(unread)}"
