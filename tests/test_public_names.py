"""Every public name of the package has a caller besides the tests.

A name in ``qfcsim.__all__`` must be used in the package's own code (a
name or attribute in a module other than ``__init__.py``; its ``def`` or
``class`` statement and its imports do not count), or in a demo, or be
traced by ``perfbench/child.py``, whose ``TARGETS`` list is only read here.
A public name that nothing else calls gets deleted, not kept for its test.
"""

import ast
from pathlib import Path

import qfcsim

ROOT = Path(__file__).resolve().parent.parent


def _used_names(paths) -> set[str]:
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _traced_names() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return {ast.literal_eval(entry.elts[1]) for entry in targets.elts}


def test_every_public_name_has_a_caller():
    package = [path for path in (ROOT / "src" / "qfcsim").glob("*.py")
               if path.name != "__init__.py"]
    traced = _traced_names()
    assert traced, "perfbench/child.py names no TARGETS"
    called = _used_names(package) | _used_names((ROOT / "demos").glob("*.py")) | traced
    unused = sorted(set(qfcsim.__all__) - called)
    assert not unused, f"public names with no caller outside the tests: {unused}"
