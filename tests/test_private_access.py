"""The Spark layer, the experiments and the baselines use sketches
through their public API only: ``ReqSketch`` alone sets a sketch's
parameters and generator source, so no other module reads or writes an
underscore attribute of an object other than ``self``."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FILES = [p for d in ("spark", "experiments", "baselines") for p in sorted((SRC / d).rglob("*.py"))]


def private_accesses(source: str):
    """``obj.attr`` for every private (single underscore, not dunder)
    attribute that ``source`` reads or writes on an object not named
    ``self``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            continue
        found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_files_found():
    assert SRC / "spark" / "aggregate.py" in FILES
    assert SRC / "experiments" / "__main__.py" in FILES
    assert SRC / "baselines" / "kll.py" in FILES


@pytest.mark.parametrize(
    "source, expected",
    [
        ("x = sk._khat", ["sk._khat"]),
        ("sk._rng_src = 0", ["sk._rng_src"]),
        ("f(a.b._c)", ["a.b._c"]),
        ("agg._partial_blobs(df)", ["agg._partial_blobs"]),
        ("self._x = 1\ny = self._x", []),
        ("t = type(sk).__name__", []),
        ("sk.k, sk.rng", []),
        ("_private = 1\n_f(_private)", []),
    ],
)
def test_detector(source, expected):
    assert private_accesses(source) == expected


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_access(path):
    assert private_accesses(path.read_text()) == []
