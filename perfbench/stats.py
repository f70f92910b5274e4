"""Statistics shared by the benchmark runner, its worker and its tests."""


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


def tail_percentile(samples, beyond: int = 10):
    """The highest percentile that still has at least `beyond` samples above
    it: returns (value, percentile, sample count). The value is the largest
    sample that at least `beyond` samples exceed, and the percentile is the
    share of samples at or below it. None when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    i = n - beyond - 1
    # step down past ties, so that `beyond` samples are strictly greater
    while i >= 0 and xs[i] == xs[i + 1]:
        i -= 1
    if i < 0:
        return None
    return xs[i], 100.0 * (i + 1) / n, n


def failed_share(outcomes) -> float:
    """Failed items over attempted items. An item counts as failed when it
    raised or its output check failed; `outcomes` holds one truthy value per
    item that passed and one falsy value per item that failed."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no items attempted")
    return sum(1 for ok in outcomes if not ok) / len(outcomes)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def layer_totals(spans, skip=()):
    """Calls, total and self time per span name, and the time covered by
    top-level spans.

    `spans` is a sequence of (name, start, end, parent, item) in order of
    entry, `parent` the index of the enclosing span or -1. A span's self
    time is its duration minus the durations of its direct children, so
    time spent in a child is charged to the child only. Names in `skip`
    are charged nowhere but still subtracted from their parent.
    """
    layers: dict = {}
    pending: dict = {}  # index -> summed durations of its children seen so far
    covered = 0.0
    # children follow their parent in entry order, so walking backwards
    # finishes every child before its parent
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[i]
        dur = end - start
        child = pending.pop(i, 0.0)
        if parent >= 0:
            pending[parent] = pending.get(parent, 0.0) + dur
        if name in skip:
            continue
        if parent < 0:
            covered += dur
        row = layers.get(name)
        if row is None:
            row = layers[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child
    return layers, covered
