import os
import sys


def _driver_mem() -> str:
    """Driver JVM memory: half of MemTotal, clamped to 2g..8g.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > the MemTotal
    rule > 2g when /proc/meminfo cannot be read.  It is the rule of the
    tier-1 command in ROADMAP.md.  spark.driver.memory is read at JVM
    launch, not from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS
    before pyspark is imported anywhere: this runs at conftest import,
    which pytest loads before any test module.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError, IndexError):
        return "2g"
    return f"{min(max(kib // 2 // 2**20, 2), 8)}g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


def pytest_collection_modifyitems(items) -> None:
    """Mark ``spark`` every test whose fixtures include ``spark``, so that
    ``pytest -m "not spark"`` runs the rest without starting a JVM."""
    for item in items:
        if "spark" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.spark)


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (shuffle partitions, Arrow, broadcast threshold) are set here.
    Broadcast joins are disabled so papers about shuffle/join algorithms
    actually exercise the shuffle path at SF~=0.1; a reproduction that
    wants a broadcast join sets the threshold back for that query.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    # One line in the test output with the driver's memory and master.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
