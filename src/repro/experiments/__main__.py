"""Regenerate one paper table and check its shape.

    python -m repro.experiments t1|t2|t3|t4|t5|t6 [--quick]

Prints the table's ``PAPER_CLAIM``, the result frame and its derived
``attrs``, then runs the module's ``check``; the exit status is 1 if
the check fails.  Only T4 runs on Spark, so only T4 starts a session.
"""
from __future__ import annotations

import argparse
import sys

from pyspark.sql import SparkSession

from repro.experiments import ALL_TABLES, t4_mergeability
from repro.experiments.harness import format_table


def _spark() -> SparkSession:
    return (
        SparkSession.builder.appName("repro-experiments")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.experiments", description=__doc__)
    ap.add_argument("table", choices=ALL_TABLES)
    ap.add_argument("--quick", action="store_true", help="small sizes for smoke runs")
    args = ap.parse_args(argv)
    module = ALL_TABLES[args.table]
    # Not stopped here: getOrCreate may hand back a caller's session, and
    # the process exit ends one started for this run.
    spark = _spark() if module is t4_mergeability else None
    df = module.run(spark, quick=args.quick)
    print(f"PAPER CLAIM: {module.PAPER_CLAIM}\n")
    print(format_table(df, module.__name__.rsplit(".", 1)[-1]))
    if df.attrs:
        print(f"\nderived: {df.attrs}")
    try:
        module.check(df)
    except AssertionError as e:
        print(f"\nCHECK FAILED: {e}", file=sys.stderr)
        return 1
    print("\ncheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
