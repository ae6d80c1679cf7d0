"""Every parameter of every function in the package is read.

A parameter that the body never loads is an input the caller believes it
controls and the function silently ignores.  The one exception is `threads`
on the `cli.RUNNERS` functions, which `cli.main` calls uniformly as
`fn(cfg, threads=args.threads)`, and the benchmark worker as
`fn(cfg, threads=1)`, whether or not they fan out.
"""

import ast

from equiszego.cli import RUNNERS
from source_tree import package_trees

ALLOWED = {("cli", fn.__name__, "threads") for fn in RUNNERS.values()}


def _unread_parameters(tree: ast.Module, module: str):
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        loaded = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [(module, node.name, p) for p in params if p not in loaded]
    return found


def test_unread_parameter_finder_sees_a_planted_one():
    tree = ast.parse("def f(a, b, *, c=1):\n    def g(d):\n        return c\n    return a + g(0)\n")
    assert sorted(_unread_parameters(tree, "m")) == [("m", "f", "b"), ("m", "g", "d")]


def test_every_parameter_is_read():
    unread = []
    for module, tree in package_trees().items():
        unread += _unread_parameters(tree, module)
    assert sorted(set(unread) - ALLOWED) == []
    # the exception covers exactly the runners that do not fan out
    assert {p for p in unread if p in ALLOWED} == {
        ("cli", "run_profile_scan", "threads"),
        ("cli", "run_toeplitz", "threads"),
    }
