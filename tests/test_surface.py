"""No test-only helpers, fields or inputs in ``src/``.

Every public class-level member (method, property, class attribute or dataclass
field) of every public top-level class in ``src/`` must be read as an attribute
somewhere in the program, ``src/`` and ``perfbench/worker.py``, outside its own
definition.  Likewise every public function or class defined at the top level
of a module in ``src/`` must be read, by name or as an attribute, outside its
own definition; the console entry point in ``pyproject.toml`` counts as read.
And every defaulted parameter of a public function, method or constructor in
``src/`` must be set, by keyword or by position, by some call in the program;
a dataclass field with a default is a parameter of the constructor
``@dataclass`` writes, and the entry point is exempt.  Tests and docstrings do
not count, so a helper or an input that only tests use fails here; tests write
such a rule or input out in ``conftest.py`` instead.  The match is by name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = [*sorted((ROOT / "src").rglob("*.py")), ROOT / "perfbench" / "worker.py"]


@pytest.fixture(scope="module")
def trees():
    return {path.relative_to(ROOT): ast.parse(path.read_text(), str(path)) for path in PROGRAM}


def source(trees):
    """The modules of ``trees`` (path -> module) under ``src/``."""
    return [path for path in trees if path.parts[0] == "src"]


def public_classes(trees, defining):
    """The names of the public top-level classes of the modules in ``defining``."""
    return [node.name for path in defining for node in trees[path].body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]


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
        for member, definition in members.items():
            inside = {id(n) for n in ast.walk(definition)}
            if not any(node.attr == member and id(node) not in inside for node in reads):
                unread.append(f"{cls}.{member} ({path}:{definition.lineno})")
    return unread


def test_every_public_member_has_a_reader(trees):
    classes = public_classes(trees, source(trees))
    assert {"TimeTotalProductMdp", "LabeledIntervalMdp", "EpisodeLog"} <= set(classes)
    assert unread_members(trees, classes) == []


def test_a_member_read_only_in_its_own_body_is_unread():
    tree = ast.parse("class C:\n"
                     "    size = 3\n"
                     "    def used(self):\n        return self.size\n"
                     "    def lonely(self):\n        return self.lonely()\n"
                     "    def _private(self):\n        pass\n"
                     "@dataclass\nclass Log:\n"
                     "    index: int\n    final: tuple = ()\n"
                     "class _Hidden:\n    spare = 0\n"
                     "def caller(c, log):\n    return c.used(), log.index\n")
    trees = {"m.py": tree}
    assert public_classes(trees, ["m.py"]) == ["C", "Log"]
    assert unread_members(trees, ["C", "Log"]) == ["C.lonely (m.py:5)", "Log.final (m.py:12)"]


def entry_points():
    """The function names that ``pyproject.toml``'s console scripts call (``module:function``)."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {line.split(":")[-1].strip().strip('"') for line in scripts.splitlines() if "=" in line}


def unread_module_names(trees, defining, called=()):
    """``name (file:line)`` for each public top-level function or class of the modules in
    ``defining`` that no name or attribute read in ``trees`` (path -> module) names outside
    its own definition; names in ``called`` count as read."""
    reads = []
    for tree in trees.values():
        # ``from m import name as alias``: a read of the alias reads the name
        renames = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node, node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node, renames.get(node.id, node.id)))
    unread = []
    for path in defining:
        for definition in trees[path].body:
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if name.startswith("_") or name in called:
                continue
            inside = {id(n) for n in ast.walk(definition)}
            if not any(read == name and id(node) not in inside for node, read in reads):
                unread.append(f"{name} ({path}:{definition.lineno})")
    return unread


def test_every_public_module_name_has_a_reader(trees):
    assert "main" in entry_points()
    assert unread_module_names(trees, source(trees), entry_points()) == []


def test_a_module_name_read_only_in_its_own_body_is_unread():
    module = ast.parse("def used():\n    return 1\n"
                       "def lonely():\n    return lonely()\n"
                       "class Kind:\n    pass\n"
                       "def _private():\n    return Kind\n"
                       "def main():\n    pass\n")
    other = ast.parse("import m\nfrom m import used as alias\nm.Kind\nalias()\n")
    trees = {"m.py": module, "n.py": other}
    assert unread_module_names(trees, ["m.py"], {"main"}) == ["lonely (m.py:3)"]
    # without n.py, ``used`` loses its only reader (through the alias)
    assert unread_module_names({"m.py": module}, ["m.py"]) == \
        ["used (m.py:1)", "lonely (m.py:3)", "main (m.py:9)"]


def is_dataclass(node):
    """Whether the class ``node`` is decorated with ``@dataclass`` or ``@dataclass(...)``."""
    targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any((getattr(t, "id", None) or getattr(t, "attr", None)) == "dataclass" for t in targets)


def defaulted_parameters(tree):
    """``(callee, qualname, name, position, line)`` for each defaulted parameter of the
    public top-level functions, the public methods of public top-level classes and
    their constructors in ``tree``.  ``callee`` is the name a call uses (the class
    name for ``__init__``); ``position`` counts the call's positional arguments (the
    method's first parameter is bound, so it has none), None for keyword-only ones.
    The constructor of a ``@dataclass`` takes the fields of the class body in order,
    and a field with a default is a defaulted parameter at its field's position."""
    found = []

    def scan(function, callee, qualname, bound):
        args = function.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            found.append((callee, qualname, arg.arg, i - bound, arg.lineno))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((callee, qualname, arg.arg, None, arg.lineno))

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            scan(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if is_dataclass(node):
                fields = [stmt for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
                for i, stmt in enumerate(fields):
                    if stmt.value is not None:
                        found.append((node.name, f"{node.name}.__init__", stmt.target.id, i,
                                      stmt.lineno))
            for method in node.body:
                if not isinstance(method, functions):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in method.decorator_list)
                if method.name == "__init__":
                    scan(method, node.name, f"{node.name}.__init__", 1)
                elif not method.name.startswith("_"):
                    scan(method, method.name, f"{node.name}.{method.name}", 0 if static else 1)
    return found


def unset_parameters(trees, defining, exempt=()):
    """``qualname(name) (file:line)`` for each defaulted parameter of a public function,
    method or constructor of the modules in ``defining`` that no call in ``trees``
    (path -> module) sets, by keyword or by position.  Calls match by name, and
    constructors by class name; a call with ``*args`` or ``**kwargs`` sets every
    parameter.  Functions named in ``exempt`` are skipped."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call, name, position):
        if any(isinstance(arg, ast.Starred) for arg in call.args) \
                or any(keyword.arg is None or keyword.arg == name for keyword in call.keywords):
            return True
        return position is not None and position < len(call.args)

    unset = []
    for path in defining:
        for callee, qualname, name, position, line in defaulted_parameters(trees[path]):
            if callee in exempt:
                continue
            if not any(sets(call, name, position) for call in calls.get(callee, ())):
                unset.append(f"{qualname}({name}) ({path}:{line})")
    return unset


def test_every_defaulted_parameter_is_set(trees):
    assert unset_parameters(trees, source(trees), entry_points()) == []


def test_a_parameter_set_only_by_tests_is_unset():
    module = ast.parse("def solve(x, tol=1e-9, cap=10, *, fast=False):\n    return x\n"
                       "class Model:\n"
                       "    def __init__(self, rows, law=None):\n        pass\n"
                       "    def step(self, s, n=1):\n        return solve(s, 1e-6)\n"
                       "    @staticmethod\n    def make(rows, law=None):\n        return Model(rows)\n"
                       "    def _hidden(self, k=0):\n        pass\n"
                       "def main(argv=None):\n    return Model.make([], law={})\n"
                       "@dataclass(frozen=True)\nclass Spec:\n"
                       "    size: int\n    width: float = 0.4\n    depth: int = 6\n"
                       "    cells: dict = field(default_factory=dict)\n")
    other = ast.parse("from m import Model, Spec\nModel([]).step(0, 2)\nSpec(3, 0.5, cells={})\n")
    spread = ast.parse("from m import solve\nsolve(*args)\n")
    trees = {"m.py": module, "n.py": other}
    assert unset_parameters(trees, ["m.py"], {"main"}) == \
        ["solve(cap) (m.py:1)", "solve(fast) (m.py:1)", "Model.__init__(law) (m.py:4)",
         "Spec.__init__(depth) (m.py:19)"]
    # a call through ``*args`` may set every parameter
    assert unset_parameters({**trees, "o.py": spread}, ["m.py"], {"main"}) == \
        ["Model.__init__(law) (m.py:4)", "Spec.__init__(depth) (m.py:19)"]
    # without n.py, ``step(n)`` and the fields lose their only setter; without the
    # exemption, ``main`` is listed
    assert unset_parameters({"m.py": module}, ["m.py"]) == \
        ["solve(cap) (m.py:1)", "solve(fast) (m.py:1)", "Model.__init__(law) (m.py:4)",
         "Model.step(n) (m.py:6)", "main(argv) (m.py:13)", "Spec.__init__(width) (m.py:18)",
         "Spec.__init__(depth) (m.py:19)", "Spec.__init__(cells) (m.py:20)"]
