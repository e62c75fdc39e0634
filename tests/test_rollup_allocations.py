"""Cost guard for rolling up stored group sketches: decoding a blob
builds no random generator, and merging a small sketch does not copy it.
Either regression would roughly double the rollup's driver time without
changing a single answer, so it is counted here rather than timed."""
import numpy as np

from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import merge_sequential


def _group_blobs(count=200, k=32, seed=3):
    """Serialized group sketches of at most B/2 items each (never compacted)."""
    rng = np.random.default_rng(seed)
    half_b = ReqSketch(k).B // 2
    blobs = []
    for g in range(count):
        sk = ReqSketch(k, seed=g).update(rng.lognormal(3.0, 1.5, int(rng.integers(1, half_b + 1))))
        assert sk.num_levels == 1
        blobs.append(serde.to_bytes(sk))
    return blobs


def test_rollup_builds_one_generator_and_copies_nothing(monkeypatch):
    blobs = _group_blobs()
    counts = {"copy": 0, "default_rng": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ReqSketch, "copy", counted("copy", ReqSketch.copy))
    monkeypatch.setattr(np.random, "default_rng", counted("default_rng", np.random.default_rng))
    sketches = [serde.from_bytes(b) for b in blobs]
    assert counts == {"copy": 0, "default_rng": 0}
    total = sum(sk.n for sk in sketches)
    merged = merge_sequential(sketches)
    assert merged.n == total
    assert merged.num_levels > 1  # the accumulator compacted: it drew
    assert counts == {"copy": 0, "default_rng": 1}
