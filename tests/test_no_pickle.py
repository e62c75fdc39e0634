"""No module of the package imports a serializer that can run code while
loading data: sketch bytes arrive from DataFrame columns, so they are
decoded by ``serde``'s explicit layout only."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BANNED = {"pickle", "marshal", "shelve"}
FILES = sorted(SRC.rglob("*.py"))


def banned_imports(source: str):
    """Top-level names of banned modules that ``source`` imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in BANNED]
    return found


def test_package_found():
    assert SRC / "core" / "serde.py" in FILES


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import pickle", ["pickle"]),
        ("import os, marshal as m", ["marshal"]),
        ("from shelve import open", ["shelve"]),
        ("def f():\n    from pickle import loads", ["pickle"]),
        ("import pickletools, struct", []),
        ("from . import pickle", []),
    ],
)
def test_detector(source, expected):
    assert banned_imports(source) == expected


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_banned_import(path):
    assert banned_imports(path.read_text()) == []
