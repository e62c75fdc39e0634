"""Comparator algorithms the paper measures itself against."""
from repro.baselines.exact import ExactRanks, relative_errors
from repro.baselines.kll import KllSketch
from repro.baselines.naive_protect import naive_for_error, naive_protect_sketch
from repro.baselines.sampling import BernoulliSampler

__all__ = [
    "ExactRanks",
    "relative_errors",
    "KllSketch",
    "naive_for_error",
    "naive_protect_sketch",
    "BernoulliSampler",
]
