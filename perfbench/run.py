"""Benchmark runner: one workload, one seed, closed loop, one job at a time.

    python3 perfbench/run.py --workload global --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from ``src/``;
Spark runs as ``local[N]`` with N = min(4, cores). The last line of
standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a ``{"record": ...}`` object with the environment, the input properties
and the sample counts. With ``--trace 0`` the metrics are the end-to-end
ones; ``--trace 1`` runs a separate traced pass and reports the
per-layer ones (see README.md). Scratch files go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shlex
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 3
DRIVER_MEMORY = "2g"
RUN_TIMEOUT_S = 170
JOB_PREFIX = "perfbench:job:"

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "ingest_items_per_s": "1/s",
    "retained_items": "count",
    "sketch_bytes": "bytes",
    "driver_peak_rss_mb": "MB",
}

PER_LAYER = {
    "req_sketch.max_rel_err": "ratio",
    "req_sketch.update_s": "s",
    "req_sketch.update_calls": "count",
    "req_sketch.merge_s": "s",
    "req_sketch.merges": "count",
    "req_sketch.copy_s": "s",
    "compactor.compactions": "count",
    "compactor.compact_s": "s",
    "compactor.sort_s": "s",
    "estimator.queries": "count",
    "estimator.query_s": "s",
    "estimator.query_p50_us": "us",
    "estimator.query_p99_us": "us",
    "serde.encode_s": "s",
    "serde.decode_s": "s",
    "serde.blobs": "count",
    "serde.blob_bytes": "bytes",
    "aggregate.partition_sketches_s": "s",
    "aggregate.merge_balanced_s": "s",
    "udaf.group_sketches_s": "s",
    "udaf.driver_eval_s": "s",
    "udaf.result_df_s": "s",
    "udaf.merge_group_sketches_s": "s",
    "udaf.small_group_share": "ratio",
    "engine.tasks": "count",
    "engine.task_run_s": "s",
    "engine.task_skew": "ratio",
    "engine.python_init_s": "s",
    "engine.python_run_s": "s",
    "engine.to_python_bytes": "bytes",
    "engine.from_python_bytes": "bytes",
    "engine.scan_s": "s",
    "engine.shuffle_write_bytes": "bytes",
    "engine.result_bytes": "bytes",
    "engine.gc_s": "s",
    "ref.noop_floor_s": "s",
    "ref.percentile_approx_s": "s",
    "ref.single_thread_build_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ spark


def spark_cores() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def configure_environment() -> None:
    """Point the driver, the JVM and the Python workers at ``src`` and keep
    every scratch file inside the checkout. Must run before Spark starts."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    # No hsperfdata files in the system temp directory, for any JVM started.
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{spark_cores()}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={tmp}"),
            "--conf spark.driver.host=127.0.0.1",
            "pyspark-shell",
        ]
    )


def start_spark(event_log_dir: Optional[Path]):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # One shuffle partition per core and no adaptive re-planning: the
        # shuffles here are small, and many tiny tasks and extra planning
        # rounds add scheduling latency that makes job times noisy.
        .config("spark.sql.shuffle.partitions", str(spark_cores()))
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
    )
    if event_log_dir is not None:
        event_log_dir.mkdir(parents=True, exist_ok=True)
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", event_log_dir.as_uri())
            .config("spark.eventLog.compress", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the gateway JVM, and wait for it to exit."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def set_job_description(spark, desc: Optional[str]) -> None:
    if spark is not None:
        spark.sparkContext.setJobDescription(desc)


# ------------------------------------------------------------- environment


def environment(needs_spark: bool) -> Dict[str, object]:
    import pandas
    import pyarrow
    import pyspark

    return {
        "cores": os.cpu_count(),
        "spark_cores": spark_cores(),
        "master": f"local[{spark_cores()}]" if needs_spark else None,
        "driver_memory": DRIVER_MEMORY,
        "spark": pyspark.__version__,
        "numpy": np.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository.
    The search stops at the checkout so no enclosing repository is read."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ runner


class Runner:
    """Set-up, timed jobs, gates and metrics of one workload run."""

    def __init__(self, workload, seconds: float, trace: bool) -> None:
        self.w = workload
        self.seconds = seconds
        self.spark = None
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.latencies: List[int] = []
        self.ingest_s: List[float] = []
        self.record: Dict[str, object] = {}
        self.event_log_dir = WORK / f"eventlog-{os.getpid()}" if trace else None

    # ------------------------------------------------------------ phases

    def setup(self) -> List[float]:
        """SETUP_REPS full set-ups; the first also starts Spark."""
        data_dir = str(WORK / "data")
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            if self.w.needs_spark and self.spark is None:
                self.spark = start_spark(self.event_log_dir)
            self.w.setup(self.spark, data_dir)
            set_job_description(self.spark, "perfbench:warmup")
            self.w.job()
            times.append(time.perf_counter() - t0)
        set_job_description(self.spark, None)
        self.w.prepare_truth()
        return times

    def gate(self, verdict) -> None:
        self.attempted += 1
        self.max_rel_err = max(self.max_rel_err, verdict.max_rel_err)
        if not verdict.ok:
            self.failed += 1
            log(f"{self.w.name}: correctness gate failed: {verdict.problems[:5]}")

    def run_jobs(
        self, seconds: float, tracer=None, label: str = "", probe: bool = False
    ) -> List[float]:
        """Closed loop: the next job starts when the previous one is checked.
        ``probe`` also times point queries on each job's answer. Returns the
        wall time of every job that completed."""
        times: List[float] = []
        deadline = time.perf_counter() + seconds
        tries = 0
        while time.perf_counter() < deadline or (not times and tries < 3):
            tries += 1
            job_id = f"{JOB_PREFIX}{label}{len(times)}"
            gc.collect()  # no job pays for the garbage of the one before
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    result = self.w.job()
                    times.append(time.perf_counter() - t0)
                else:
                    set_job_description(self.spark, job_id)
                    t0 = time.perf_counter()
                    with tracer.job(job_id):
                        result = self.w.job()
                    times.append(time.perf_counter() - t0)
                    set_job_description(self.spark, None)
            except Exception:  # a failed job counts; the loop goes on
                self.attempted += 1
                self.failed += 1
                log(f"{self.w.name}: job raised:\n{traceback.format_exc()}")
                continue
            if tracer is None:
                self.gate(self.w.check(result))
                if probe:
                    self.latencies += self.w.latencies(result)
                self.ingest_s.append(self.w.ingest_seconds(result, times[-1]))
            else:
                with tracer.paused():
                    self.gate(self.w.check(result))
        if not times:
            raise RuntimeError(f"{self.w.name}: every job failed")
        return times

    def verify(self) -> None:
        v = self.w.verify()
        if v is not None:
            self.gate(v)

    # ----------------------------------------------------------- results

    def end_to_end(self) -> Dict[str, float]:
        setup = self.setup()
        self.verify()
        jobs = self.run_jobs(self.seconds)
        self.record["props"] = self.w.props()
        retained, nbytes = self.w.retained_and_bytes()
        self.record.update(setup_reps_s=setup, jobs=len(jobs), job_s_all=jobs)
        return {
            "setup_s": median(setup),
            "job_s": median(jobs),
            "ingest_items_per_s": self.w.records() / median(self.ingest_s),
            "retained_items": retained,
            "sketch_bytes": nbytes,
            "driver_peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(self) -> Dict[str, float]:
        """Refs and untraced jobs, then traced jobs (and the global replay)
        under the span patches; engine metrics come from the event log."""
        from eventlog import engine_metrics, read_events
        from layers import per_layer_metrics
        from tracing import Tracer, installed, patch_points

        self.setup()
        self.verify()
        set_job_description(self.spark, "perfbench:ref")
        refs = self.w.refs()
        set_job_description(self.spark, None)
        plain = self.run_jobs(self.seconds / 2, probe=True)
        tracer = Tracer()
        spark_classes = ()
        if self.spark is not None:
            spark_classes = ((type(self.spark.range(1)), type(self.spark)),)
        replay_data = self.w.replay_input()
        with installed(tracer, patch_points(spark_classes)):
            traced = self.run_jobs(self.seconds / 2, tracer=tracer, label="t")
            if replay_data is not None:
                with tracer.job("replay"):
                    self.w.replay(replay_data)
        self.record["props"] = self.w.props()
        engine: Dict[str, Dict[str, float]] = {}
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None
            engine = engine_metrics(read_events(str(self.event_log_dir)), JOB_PREFIX)
            shutil.rmtree(self.event_log_dir, ignore_errors=True)
        job_ids = [f"{JOB_PREFIX}t{i}" for i in range(len(traced))]
        metrics = per_layer_metrics(tracer, job_ids, "replay", engine)
        metrics.update(refs)
        metrics["req_sketch.max_rel_err"] = self.max_rel_err
        lat_us = np.asarray(self.latencies, dtype=np.float64) / 1e3
        metrics["estimator.query_p50_us"] = float(np.percentile(lat_us, 50))
        metrics["estimator.query_p99_us"] = float(np.percentile(lat_us, 99))
        metrics["udaf.small_group_share"] = self.record["props"].get("udaf.small_group_share", 0.0)
        metrics["trace.job_s"] = median(traced)
        metrics["trace.overhead_s"] = median(traced) - median(plain)
        tracer.dump(str(WORK / f"trace-{self.w.name}-{self.w.seed}.json"))
        self.record.update(
            traced_jobs=len(traced), untraced_jobs=len(plain), query_samples=int(lat_us.size)
        )
        return metrics

    def close(self) -> None:
        stop_spark(self.spark)
        self.spark = None


# -------------------------------------------------------------------- main


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"the program's sources are missing: {ROOT / 'src' / 'repro'}")
        return 2
    configure_environment()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    runner = Runner(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    try:
        if args.trace:
            metrics, units = runner.per_layer(), PER_LAYER
        else:
            metrics, units = runner.end_to_end(), END_TO_END
    finally:
        try:
            runner.close()
        finally:
            signal.alarm(0)
    shutil.rmtree(WORK / "data", ignore_errors=True)
    runner.record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=environment(runner.w.needs_spark),
        attempted=runner.attempted,
        failed=runner.failed,
        failed_frac=runner.failed / runner.attempted,
    )
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps({"record": runner.record}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Without PYTHONHASHSEED every process salts str hashes differently, and
    # the salt alone moved driver-side job times by up to 8% between runs of
    # the same code and seed. Fix it to 0, the value PySpark gives workers.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
