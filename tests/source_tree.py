"""One parse of the package source, shared by the AST checks of the tests."""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "equiszego"


@functools.cache
def package_trees() -> dict:
    """{module stem: parsed module} for every module of the package."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
