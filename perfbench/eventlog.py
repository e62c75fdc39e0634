"""Engine metrics from a Spark event log, per benchmark job.

Each traced job runs under a ``spark.job.description`` that names it.
Stages map to jobs through the SparkListenerJobStart events that carry
that description, and the task accumulables of those stages are summed
into ``engine.*`` metrics. The log must be written uncompressed
(``spark.eventLog.compress=false``): Spark's default codec is zstd and
Python has no zstd reader in the standard library.
"""
from __future__ import annotations

import json
import os
import re
from collections import defaultdict
from statistics import median
from typing import Dict, Iterable, List

# SQL accumulables reported by the Python and scan operators (ms or bytes).
_ACCUMS = {
    "time to start Python workers": "python_init_ms",
    "time to initialize Python workers": "python_init_ms",
    "time to run Python workers": "python_run_ms",
    "data sent to Python workers": "to_python_bytes",
    "data returned from Python workers": "from_python_bytes",
    "scan time": "scan_ms",
}

ENGINE_METRICS = (
    "engine.tasks",
    "engine.task_run_s",
    "engine.task_skew",
    "engine.python_init_s",
    "engine.python_run_s",
    "engine.to_python_bytes",
    "engine.from_python_bytes",
    "engine.scan_s",
    "engine.shuffle_write_bytes",
    "engine.result_bytes",
    "engine.gc_s",
)


def read_events(log_dir: str) -> List[dict]:
    """Every event of every log file under ``log_dir``, in file order.

    A rolling log directory holds ``events_<i>_<app>`` files; they are
    read in order of ``i``.
    """
    files = []
    for root, _, names in os.walk(log_dir):
        for name in names:
            if name.startswith((".", "appstatus")):
                continue
            m = re.match(r"events_(\d+)_", name)
            files.append((root, int(m.group(1)) if m else 0, name))
    events = []
    for root, _, name in sorted(files):
        with open(os.path.join(root, name)) as fh:
            events.extend(json.loads(line) for line in fh if line.strip())
    return events


def _num(x) -> float:
    return float(x) if x is not None else 0.0


def engine_metrics(events: Iterable[dict], prefix: str) -> Dict[str, Dict[str, float]]:
    """``{job description: {engine metric: value}}`` for every Spark job
    whose description starts with ``prefix``; Spark jobs sharing one
    description are summed."""
    stage_label: Dict[int, str] = {}
    tasks: Dict[int, List[dict]] = defaultdict(list)
    for e in events:
        kind = e.get("Event")
        if kind == "SparkListenerJobStart":
            desc = (e.get("Properties") or {}).get("spark.job.description")
            if desc and desc.startswith(prefix):
                for sid in e["Stage IDs"]:
                    stage_label[sid] = desc
        elif kind == "SparkListenerTaskEnd":
            tasks[e["Stage ID"]].append(e)

    out: Dict[str, Dict[str, float]] = {}
    stages_of: Dict[str, List[int]] = defaultdict(list)
    for sid, label in stage_label.items():
        stages_of[label].append(sid)
    for label, sids in stages_of.items():
        acc: Dict[str, float] = defaultdict(float)
        stage_python_ms: Dict[int, float] = {}
        stage_run_ms: Dict[int, float] = {}
        for sid in sids:
            py = run = 0.0
            for t in tasks.get(sid, ()):
                tm = t.get("Task Metrics") or {}
                acc["tasks"] += 1
                acc["run_ms"] += _num(tm.get("Executor Run Time"))
                run += _num(tm.get("Executor Run Time"))
                acc["gc_ms"] += _num(tm.get("JVM GC Time"))
                acc["result_bytes"] += _num(tm.get("Result Size"))
                sw = tm.get("Shuffle Write Metrics") or {}
                acc["shuffle_write_bytes"] += _num(sw.get("Shuffle Bytes Written"))
                for a in (t.get("Task Info") or {}).get("Accumulables", ()):
                    key = _ACCUMS.get(a.get("Name"))
                    if key is not None:
                        acc[key] += _num(a.get("Update"))
                        if key == "python_run_ms":
                            py += _num(a.get("Update"))
            stage_python_ms[sid] = py
            stage_run_ms[sid] = run
        out[label] = {
            "engine.tasks": acc["tasks"],
            "engine.task_run_s": acc["run_ms"] / 1e3,
            "engine.task_skew": _skew(tasks, stage_python_ms, stage_run_ms),
            "engine.python_init_s": acc["python_init_ms"] / 1e3,
            "engine.python_run_s": acc["python_run_ms"] / 1e3,
            "engine.to_python_bytes": acc["to_python_bytes"],
            "engine.from_python_bytes": acc["from_python_bytes"],
            "engine.scan_s": acc["scan_ms"] / 1e3,
            "engine.shuffle_write_bytes": acc["shuffle_write_bytes"],
            "engine.result_bytes": acc["result_bytes"],
            "engine.gc_s": acc["gc_ms"] / 1e3,
        }
    return out


def _skew(tasks, stage_python_ms, stage_run_ms) -> float:
    """max / median task duration in the sketch stage: the stage that ran
    the most Python time, or else the one with the most task time."""
    if not stage_run_ms:
        return 0.0
    key = stage_python_ms if any(stage_python_ms.values()) else stage_run_ms
    sid = max(key, key=key.get)
    durs = [
        t["Task Info"]["Finish Time"] - t["Task Info"]["Launch Time"]
        for t in tasks.get(sid, ())
    ]
    if not durs or median(durs) <= 0:
        return 0.0
    return max(durs) / median(durs)
