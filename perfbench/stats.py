"""Statistics shared by run.py and spread.py.

Kept apart from the benchmark's I/O so test_stats.py can pin the rules
that decide what a reported number means.
"""

import bisect
import statistics

# Percentiles a tail figure may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples, in exact
    integer arithmetic (p has at most one decimal)."""
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n, target=99.0):
    """The highest percentile, at most `target`, that has at least
    MIN_BEYOND samples beyond it; None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if p <= target and samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail(values, target=99.0):
    """(percentile, value) of the reportable tail of `values`."""
    p = tail_percentile(len(values), target)
    if p is None:
        raise ValueError("%d samples are too few for a tail figure" % len(values))
    return p, percentile(values, p)


def windowed_tail(values, window=1000, target=99.0):
    """(percentile, value): the median, over consecutive chunks of at least
    `window` samples, of each chunk's tail percentile. With window=1000 each
    chunk's p99 has ten samples beyond it, and a stall that hits a minority
    of chunks does not move the figure. Fewer samples than one window make
    a single chunk, reported by the tail rule."""
    chunks = max(1, len(values) // window)
    size = len(values) / chunks
    tails = [tail(values[round(i * size):round((i + 1) * size)], target)
             for i in range(chunks)]
    return tails[0][0], median([v for _, v in tails])


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def span_steal(samples, spans):
    """For each (start, end) of `spans`, the largest share of the host's CPU
    time that other guests took in any sampling interval it overlaps (0
    where none does). `samples` are [time, steal ticks, total ticks]
    readings in time order."""
    starts = [s[0] for s in samples[:-1]]
    ends = [s[0] for s in samples[1:]]
    shares = [(s1 - s0) / (c1 - c0) if c1 > c0 else 0.0
              for (_, s0, c0), (_, s1, c1) in zip(samples, samples[1:])]
    out = []
    for start, end in spans:
        first = bisect.bisect_right(ends, start)  # first interval ending after start
        last = bisect.bisect_left(starts, end)    # intervals starting before end
        out.append(max(shares[first:last], default=0.0))
    return out


def least_stolen(shares, limit):
    """Which samples to keep, given the share of host CPU time other guests
    took during each: those at or under `limit`, or, when fewer than a
    quarter are, the quarter with the least steal."""
    if not shares:
        return []
    cut = max(limit, percentile(shares, 25))
    return [s <= cut for s in shares]


def transport_share(inproc_us_per_op, full_us_per_op):
    """Share of the full stack's time per op that the transport adds: the
    engine over the in-process fabric is the same work minus the wire."""
    if full_us_per_op <= 0:
        raise ValueError("full-stack time per op must be positive")
    return 1.0 - inproc_us_per_op / full_us_per_op
