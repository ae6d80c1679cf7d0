"""Every function, method and re-export of the package is reached from the CLI.

An AST walk starts at `cli.main`, `cli.RUNNERS` and `cli.run_example` and
follows names: a bare name to the definition it is bound to in its module
(directly or through `from .m import name`), `m.name` on an imported package
module to that definition, and any other attribute `.name` to every method of
that name (so the walk over-approximates what runs).  A reached class reaches
its dunder methods, which Python calls implicitly.  What the walk does not
reach is code no run executes: it must be deleted, moved into the tests, or
named in ALLOWED_HEADS with the reason it stays.  `oracle` is exempt: it is
the independent reference, reached from the tests by design.
"""

import ast

from source_tree import package_trees

ROOTS = ("cli.main", "cli.RUNNERS", "cli.run_example")
ALLOWED_HEADS = {
    "asymptotics.near_diagonal_leading": "the paper's near-diagonal law",
    "toeplitz.toeplitz_near_diagonal_leading": "the paper's near-diagonal operator law",
    "kernel.szego_eval": "the exact kernel the near-diagonal law is checked against",
    "toeplitz.toeplitz_kernel": "the exact operator kernel its law is checked against",
    "hardy.IsotypeBasis.dump_lines": "the basis dump format the README documents",
}
EXEMPT_MODULES = {"oracle"}


def _definitions(trees):
    """(nodes, methods): the AST of every module-level function, class,
    method and assigned name by qualified name, and the qualified names of
    the methods of each method name."""
    nodes, methods = {}, {}
    for mod, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nodes[f"{mod}.{stmt.name}"] = stmt
            if isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{mod}.{stmt.name}.{sub.name}"
                        nodes[qual] = sub
                        methods.setdefault(sub.name, set()).add(qual)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for t in targets:
                if isinstance(t, ast.Name):
                    nodes[f"{mod}.{t.id}"] = stmt
    return nodes, methods


def _bindings(tree, mod):
    """(names, modules) of one module: each bare name bound at module level
    to a package definition, and each name bound to a package module."""
    names, modules = {}, set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                local = alias.asname or alias.name
                if stmt.module is None:
                    modules.add(local)
                else:
                    names[local] = f"{stmt.module}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[stmt.name] = f"{mod}.{stmt.name}"
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update({t.id: f"{mod}.{t.id}" for t in targets if isinstance(t, ast.Name)})
    return names, modules


def _edges(qual, node, bindings, methods):
    mod = qual.split(".", 1)[0]
    names, modules = bindings[mod]
    out = set()
    if isinstance(node, ast.ClassDef):
        # a class reaches its implicit dunders; its other methods are
        # reached by attribute
        out |= {f"{qual}.{s.name}" for s in node.body
                if isinstance(s, ast.FunctionDef) and s.name.startswith("__")}
        parts = node.bases + node.decorator_list + [
            s for s in node.body if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
    else:
        parts = [node]
    for part in parts:
        for n in ast.walk(part):
            if isinstance(n, ast.Name) and n.id in names:
                out.add(names[n.id])
            elif isinstance(n, ast.Attribute):
                if isinstance(n.value, ast.Name) and n.value.id in modules:
                    out.add(f"{n.value.id}.{n.attr}")
                else:
                    out |= methods.get(n.attr, set())
    return out


def unreached(trees, roots, heads=()):
    """Qualified names of the functions, classes and methods outside the
    exempt modules that no walk from roots or heads reaches, plus
    '__init__:<name>' for each re-export of an unreached definition."""
    nodes, methods = _definitions({m: t for m, t in trees.items() if m != "__init__"})
    bindings = {m: _bindings(t, m) for m, t in trees.items()}
    seen, todo = set(), [q for q in (*roots, *heads) if q in nodes]
    while todo:
        qual = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        todo += [q for q in _edges(qual, nodes[qual], bindings, methods) if q in nodes]
    found = {
        q for q, node in nodes.items()
        if q not in seen and q.split(".", 1)[0] not in EXEMPT_MODULES
        and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    init_names, _ = bindings["__init__"] if "__init__" in trees else ({}, set())
    found |= {
        f"__init__:{local}" for local, q in init_names.items()
        if q in nodes and q not in seen and q.split(".", 1)[0] not in EXEMPT_MODULES
    }
    return found


def test_reachability_walk_sees_a_planted_function():
    trees = {
        "cli": ast.parse(
            "from . import kernel\nfrom .geometry import Point\n"
            "RUNNERS = {}\n"
            "def run_example():\n    pass\n"
            "def main():\n    return kernel.used(Point()).norm()\n"
        ),
        "kernel": ast.parse(
            "def used(p):\n    return helper(p)\n"
            "def helper(p):\n    return p\n"
            "def planted(p):\n    return helper(p)\n"
        ),
        "geometry": ast.parse(
            "class Point:\n"
            "    def __post_init__(self):\n        pass\n"
            "    def norm(self):\n        return 1\n"
            "    def unused(self):\n        return 2\n"
        ),
        "oracle": ast.parse("def reference():\n    pass\n"),
        "__init__": ast.parse("from .kernel import planted, used\n"),
    }
    assert unreached(trees, ROOTS) == {
        "kernel.planted", "geometry.Point.unused", "__init__:planted",
    }
    assert unreached(trees, ROOTS, heads=["kernel.planted"]) == {"geometry.Point.unused"}


def test_every_definition_is_reached_from_the_cli():
    trees = package_trees()
    assert sorted(unreached(trees, ROOTS, ALLOWED_HEADS)) == []
    # each allowlisted head is needed: the runners alone do not reach it
    assert set(ALLOWED_HEADS) <= unreached(trees, ROOTS)
