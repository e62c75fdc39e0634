"""Core REQ sketch (the paper's contribution): compactor, schedule, sketch."""
from repro.core.compactor import RelativeCompactor
from repro.core.req_sketch import ReqSketch

__all__ = ["RelativeCompactor", "ReqSketch"]
