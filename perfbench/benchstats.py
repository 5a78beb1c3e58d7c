"""Summary statistics and the rule for comparing two sets of benchmark runs."""

import statistics

# Percentiles tried, highest first, when picking a tail percentile to report.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (the smallest value with at least p percent of
    the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def tail_percentile(values):
    """The highest percentile from TAIL_LADDER that has at least ten samples
    above it, as (p, value); None when there are too few samples."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, percentile(values, p)
    return None


def timing_summary(values) -> dict:
    """Median, tail percentile (if the sample allows one) and sample count."""
    out = {"median": median(values), "samples": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def compare_metric(parent, change, better: str, bound: float) -> dict:
    """Verdict for one end-to-end metric on one workload.

    parent and change are lists of per-run values in the order the runs
    were paired. 'regression': the change's median is worse than the
    parent's by more than `bound` (a share of the parent's median).
    'gain': the change wins at least nine tenths of the pairs (ties count
    for neither) and the medians differ by more than the parent's own
    spread between quartiles. When the parent's spread is wider than the
    bound, a metric that is neither is 'unresolved' unless every change run
    beats every parent run; otherwise it is 'unchanged'.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not parent or not change:
        raise ValueError("need at least one run on each side")
    sign = 1.0 if better == "higher" else -1.0
    m_parent, m_change = median(parent), median(change)
    q1, _, q3 = quartiles(parent)
    worse_by = sign * (m_parent - m_change) / abs(m_parent) if m_parent else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    out = {"parent_median": m_parent, "change_median": m_change,
           "parent_quartiles": [q1, q3], "change_quartiles": list(quartiles(change)[::2]),
           "worse_by": worse_by, "pairs": len(pairs), "wins": wins,
           "parent_runs": len(parent), "change_runs": len(change)}
    all_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if worse_by > bound:
        out["verdict"] = "regression"
    elif wins >= 0.9 * len(pairs) and sign * (m_change - m_parent) > (q3 - q1):
        out["verdict"] = "gain"
    elif (q3 - q1) > bound * abs(m_parent) and not all_better:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "unchanged"
    return out
