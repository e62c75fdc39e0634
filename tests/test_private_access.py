"""``ReqSketch`` alone sets a sketch's parameters, levels and generator
source.  The Spark layer, the experiments and the baselines use sketches
through their public API only: they read or write no underscore
attribute of an object other than ``self``.  The wire format reads and
rebuilds a sketch through its state methods only."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FILES = [p for d in ("spark", "experiments", "baselines") for p in sorted((SRC / d).rglob("*.py"))]
SERDE = SRC / "core" / "serde.py"
# The whole state read out and rebuilt, the generator's PCG64 fields, and
# Algorithm 4's merge of an operand given as its levels.
SKETCH_STATE_METHODS = {"_state", "_from_state", "_rng_state", "_absorb"}


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


def test_serde_uses_only_the_sketch_state_methods():
    found = {access.rsplit(".", 1)[1] for access in private_accesses(SERDE.read_text())}
    assert found == SKETCH_STATE_METHODS
