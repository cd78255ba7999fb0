"""No test-only helpers on the core model classes.

Every public class-level member (method, property or class attribute) of
``TimeTotalProductMdp``, ``LabeledIntervalMdp`` and ``TotalAutomaton`` must be
read as an attribute somewhere in the program, ``src/`` and
``perfbench/worker.py``, outside its own definition.  Tests and docstrings do
not count, so a helper that only tests call fails here; tests write such a rule
out in ``conftest.py`` instead.  The match is by attribute name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = [*sorted((ROOT / "src").rglob("*.py")), ROOT / "perfbench" / "worker.py"]
CLASSES = ("TimeTotalProductMdp", "LabeledIntervalMdp", "TotalAutomaton")


@pytest.fixture(scope="module")
def trees():
    return {path.relative_to(ROOT): ast.parse(path.read_text(), str(path)) for path in PROGRAM}


def public_members(tree, name):
    """Name -> definition node of each public member in the body of class ``name``."""
    members = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members[stmt.name] = stmt
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            members[target.id] = stmt
    return {member: node for member, node in members.items() if not member.startswith("_")}


def unread_members(trees, classes):
    """``cls.member (file:line)`` for each public member of ``classes`` that no attribute
    read in ``trees`` (path -> module) names outside the member's own definition."""
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for cls in classes:
        found = [(path, public_members(tree, cls)) for path, tree in trees.items()
                 if any(isinstance(n, ast.ClassDef) and n.name == cls for n in ast.walk(tree))]
        assert len(found) == 1, f"class {cls} should be defined once"
        path, members = found[0]
        assert members, f"{cls} has no public members to check"
        for member, definition in members.items():
            inside = {id(n) for n in ast.walk(definition)}
            if not any(node.attr == member and id(node) not in inside for node in reads):
                unread.append(f"{cls}.{member} ({path}:{definition.lineno})")
    return unread


def test_every_public_member_has_a_reader(trees):
    assert unread_members(trees, CLASSES) == []


def test_a_member_read_only_in_its_own_body_is_unread():
    tree = ast.parse("class C:\n"
                     "    size = 3\n"
                     "    def used(self):\n        return self.size\n"
                     "    def lonely(self):\n        return self.lonely()\n"
                     "    def _private(self):\n        pass\n"
                     "def caller(c):\n    return c.used()\n")
    assert unread_members({"m.py": tree}, ["C"]) == ["C.lonely (m.py:5)"]
