"""One module per reproduced table; each exposes run(), check() and PAPER_CLAIM.

``python -m repro.experiments tN [--quick]`` runs table N and its check.
"""
from repro.experiments import (  # noqa: F401
    t1_space_vs_n,
    t2_space_vs_eps,
    t3_accuracy_tails,
    t4_mergeability,
    t5_throughput,
    t6_all_quantiles,
)

ALL_TABLES = {
    "t1": t1_space_vs_n,
    "t2": t2_space_vs_eps,
    "t3": t3_accuracy_tails,
    "t4": t4_mergeability,
    "t5": t5_throughput,
    "t6": t6_all_quantiles,
}
