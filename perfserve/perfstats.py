"""Arithmetic of the serving benchmark: percentiles, quartiles, span self
time, the Amdahl line and the labels of compare mode. Pure functions, so
perfserve/tests can check them without building anything."""

import math
import statistics

# Fewest samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def percentile(samples, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_valid(count, q):
    """True when at least TAIL_SAMPLES of `count` samples lie beyond the
    q-quantile, i.e. the percentile is backed by data, not by one outlier.
    Integer arithmetic on q in hundredths of a percent avoids 1 - 0.99
    rounding below 0.01."""
    beyond = count * (10000 - round(q * 10000))
    return beyond >= TAIL_SAMPLES * 10000


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover (the union of the children's intervals,
    clipped to the parent). `spans` is a list of (start, end, parent) with
    parent an index into the list or -1. Returns a list of floats."""
    children = [[] for _ in spans]
    for index, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end, _) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][0], start), min(spans[c][1], end))
            for c in children[index])
        covered = 0
        cursor = start
        for child_start, child_end in intervals:
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def amdahl_ceiling(serial_fraction, threads):
    """Largest speed-up over one thread that `threads` threads can give when
    `serial_fraction` of the one-thread time cannot run in parallel."""
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / threads)


def label_move(base, new, bound, better):
    """Label how a metric moved between two sets of runs of equal settings.

    base, new: the metric's values, one per run. bound: the share of the
    base median by which the metric may worsen. better: "lower" or "higher".
    Returns one of "worse", "better", "unresolved", "within bound":
      * all new runs beat (lose to) all base runs -> "better" ("worse");
      * either side's quartile spread exceeds the bound -> "unresolved";
      * the median worsens by more than the bound -> "worse";
      * the median improves by more than the base spread and new beats
        base in at least nine tenths of all (base, new) pairs -> "better";
      * otherwise "within bound".
    """
    sign = 1.0 if better == "lower" else -1.0

    def beats(a, b):  # a is better than b
        return sign * (b - a) > 0

    if all(beats(n, b) for n in new for b in base):
        return "better"
    if all(beats(b, n) for n in new for b in base):
        return "worse"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    base_median = quartiles(base)[1]
    new_median = quartiles(new)[1]
    worsening = (sign * (new_median - base_median) / abs(base_median)
                 if base_median else 0.0)
    if worsening > bound:
        return "worse"
    wins = sum(beats(n, b) for n in new for b in base)
    if -worsening > spread(base) and wins >= 0.9 * len(base) * len(new):
        return "better"
    return "within bound"
