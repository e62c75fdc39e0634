"""The benchmark's correctness gate in the ordinary suite.

``perfbench/test_perfbench.py::test_tiny_workload_passes_its_gate`` runs
each workload at tiny scale and checks its answer as a benchmark run
does.  It is loaded by path and called here for every workload, so a
change to the program that would end a benchmark run as incorrect or
failed fails these tests first.  The loaded module's own tests are not
collected a second time: only this module's functions are.
"""
import importlib.util
from pathlib import Path

import pytest


def _load_bench_tests():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "test_perfbench.py"
    spec = importlib.util.spec_from_file_location("perfbench_test_perfbench", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # puts perfbench/ on sys.path for its imports
    return mod


bench = _load_bench_tests()


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_passes_the_benchmark_gate(spark, tmp_path, name):
    bench.test_tiny_workload_passes_its_gate(spark, tmp_path, name)
