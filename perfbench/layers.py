"""Per-layer metrics of a traced run, from spans and event-log metrics.

Every value is per job: summed over one traced job's spans, then the
median over the traced jobs. Spans of the driver-side replay of the
executors' partition builds (``global`` only) are added to each job,
since one job runs exactly that executor work once.
"""
from __future__ import annotations

from statistics import median
from typing import Dict, List

from eventlog import ENGINE_METRICS
from tracing import Span, Tracer, children, count, nbytes, total


def job_metrics(spans: List[Span]) -> Dict[str, float]:
    """Layer metrics of one job's spans."""
    gq_collect = total(spans, "spark.collect", parent_name="udaf.group_quantiles")
    gq_create = total(spans, "spark.createDataFrame", parent_name="udaf.group_quantiles")
    group_sketches = gq_collect + total(spans, "udaf.group_sketches")
    return {
        "req_sketch.update_s": total(spans, "req_sketch.update"),
        "req_sketch.update_calls": count(spans, "req_sketch.update"),
        "req_sketch.merge_s": total(spans, "req_sketch.merge"),
        "req_sketch.merges": count(spans, "req_sketch.merge"),
        "req_sketch.copy_s": total(spans, "req_sketch.copy"),
        "compactor.compactions": count(spans, "compactor.compact"),
        "compactor.compact_s": total(spans, "compactor.compact"),
        "compactor.sort_s": total(spans, "compactor.sort", parent_name="compactor.compact"),
        "estimator.queries": count(spans, "estimator.query"),
        "estimator.query_s": total(spans, "estimator.query"),
        "serde.encode_s": total(spans, "serde.encode"),
        "serde.decode_s": total(spans, "serde.decode"),
        "serde.blobs": count(spans, "serde.encode") + count(spans, "serde.decode"),
        "serde.blob_bytes": nbytes(spans, "serde.encode") + nbytes(spans, "serde.decode"),
        "aggregate.partition_sketches_s": total(spans, "aggregate.partition_sketches"),
        "aggregate.merge_balanced_s": total(spans, "aggregate.merge_balanced"),
        # group_quantiles = Spark job building the group sketches
        # + driver decode/evaluate loop + result DataFrame.
        "udaf.group_sketches_s": group_sketches,
        "udaf.driver_eval_s": total(spans, "udaf.group_quantiles") - group_sketches - gq_create,
        "udaf.result_df_s": gq_create + total(spans, "spark.collect", parent_name="job"),
        "udaf.merge_group_sketches_s": total(spans, "udaf.merge_group_sketches"),
    }


def uncovered_seconds(spans: List[Span]) -> float:
    """Wall time of the job span that no direct child span covers. The
    driver is single-threaded, so direct children never overlap."""
    root = next(s for s in spans if s.name == "job")
    return root.seconds - sum(c.seconds for c in children(spans, root.sid))


def per_layer_metrics(
    tracer: Tracer,
    job_ids: List[str],
    replay_id: str,
    engine: Dict[str, Dict[str, float]],
) -> Dict[str, float]:
    replay = [s for s in tracer.of_job(replay_id) if s.name != "job"]
    per_job = []
    for jid in job_ids:
        spans = tracer.of_job(jid)
        m = job_metrics(spans + replay)
        m["trace.uncovered_s"] = uncovered_seconds(spans)
        m.update(engine.get(jid, {name: 0.0 for name in ENGINE_METRICS}))
        per_job.append(m)
    return {name: median(m[name] for m in per_job) for name in per_job[0]}
