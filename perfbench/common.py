"""Helpers shared by the workloads: statistics, memory and frozen values."""

from __future__ import annotations

import json
import os
import resource
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 samples beyond it.

    With fewer than 21 samples that percentile is not above the median;
    the maximum is returned instead, with percentile 100.
    """
    v = sorted(values)
    i = len(v) - 11
    if i < len(v) // 2:
        return (v[-1] if v else 0.0), 100.0
    return v[i], 100.0 * (i + 1) / len(v)


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb():
    """Peak RSS of the largest child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def per_cycle(spans_by_name, name, cycles):
    """Self seconds of every ``name`` span, per traced cycle."""
    return sum(spans_by_name.get(name, ())) / cycles
