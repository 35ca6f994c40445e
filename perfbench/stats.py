"""The benchmark's arithmetic: percentiles, tails, goodput, the serve
drain, span self time and host-noise readings.

Everything here is a pure function of its arguments so that
test_stats.py can pin it down without running the program.
"""

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Samples that must lie strictly above a percentile for it to be a tail.
TAIL_MIN_BEYOND = 10


def percentile(samples, p):
    """Linear-interpolated percentile, p in [0, 100].

    Rank p/100 * (n-1) between the two straddling order statistics,
    the same definition the runner uses for its LatencyStats.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    xs = sorted(samples)
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(samples):
    return percentile(samples, 50.0)


def beyond_rank(n, p):
    """Samples ranked strictly above percentile p of n samples.

    Counted by rank, not by value, so ties at the top of a sample do
    not change how many samples a percentile leaves beyond it.
    """
    return n - 1 - math.floor(p / 100.0 * (n - 1))


def tail(samples, ladder=TAIL_LADDER, min_beyond=TAIL_MIN_BEYOND):
    """Highest ladder percentile with at least `min_beyond` samples beyond it.

    Returns (percentile, value, samples_beyond). A sample too small for
    any ladder entry falls back to the lowest one, so the caller always
    gets a number and the printed count shows how thin it is.
    """
    n = len(samples)
    chosen = min(ladder)
    for p in sorted(ladder, reverse=True):
        if beyond_rank(n, p) >= min_beyond:
            chosen = p
            break
    return chosen, percentile(samples, chosen), beyond_rank(n, chosen)


def windowed_tail(samples, max_windows=4, ladder=TAIL_LADDER,
                  min_beyond=TAIL_MIN_BEYOND):
    """Median over consecutive windows of each window's tail.

    Uses the most windows (up to `max_windows`) whose own tail stays at
    the percentile of the whole sample with at least `min_beyond` samples
    beyond it, so windowing never weakens the tail; a burst of slow samples confined to one window then moves the
    result only through the median. Returns (percentile, value,
    samples beyond it per window, windows).
    """
    p, value, beyond = tail(samples, ladder, min_beyond)
    for windows in range(max_windows, 1, -1):
        size = len(samples) // windows
        if size and tail(samples[:size], ladder, min_beyond)[0] == p \
                and beyond_rank(size, p) >= min_beyond:
            tails = [tail(samples[i * size:(i + 1) * size], ladder,
                          min_beyond) for i in range(windows)]
            return p, median([t[1] for t in tails]), tails[0][2], windows
    return p, value, beyond, 1


def windowed_rate(items, seconds, windows):
    """Median over consecutive windows of items completed per second.

    `items[i]` were completed in `seconds[i]`; the pairs are split into
    `windows` consecutive groups (the first ones one longer when they do
    not divide evenly), so a slow stretch confined to fewer than half of
    them does not move the result.
    """
    if len(items) != len(seconds):
        raise ValueError("one duration per item count expected")
    windows = max(1, min(windows, len(items)))
    size, extra = divmod(len(items), windows)
    rates, start = [], 0
    for w in range(windows):
        end = start + size + (1 if w < extra else 0)
        rates.append(sum(items[start:end]) / sum(seconds[start:end]))
        start = end
    return median(rates)


def goodput(latencies_ms, ok, wall_s, limit_ms):
    """Requests per second that succeeded within the latency limit.

    `ok[i]` is False for a request that failed or was refused; such a
    request counts as a miss whatever its latency.
    """
    if len(latencies_ms) != len(ok):
        raise ValueError("one outcome per latency expected")
    met = sum(1 for lat, good in zip(latencies_ms, ok)
              if good and lat <= limit_ms)
    return met / wall_s


def drain_ms(arrivals_us, wall_us):
    """Last completion minus last due arrival, in milliseconds.

    The stream's wall clock ends at its last completion, so a queue that
    was still growing when arrivals stopped shows as a long drain.
    """
    return (wall_us - max(arrivals_us)) / 1e3


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover.

    `spans` are dicts with start_us, end_us and parent (an index into
    the list, or -1). Overlapping children are counted once, and any
    child time outside the parent's interval is ignored.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s["start_us"], s["end_us"]
        intervals = sorted(
            (max(spans[c]["start_us"], start), min(spans[c]["end_us"], end))
            for c in children[i])
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def parse_proc_stat_cpu(text):
    """(total, steal) jiffies from the aggregate `cpu` line of /proc/stat."""
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            values = [int(v) for v in fields[1:]]
            # user nice system idle iowait irq softirq steal guest guest_nice;
            # guest time is already included in user and nice.
            total = sum(values[:8])
            steal = values[7] if len(values) > 7 else 0
            return total, steal
    raise ValueError("no aggregate cpu line")


def steal_pct(before, after):
    """Share of all CPU time the hypervisor took between two readings."""
    total = after[0] - before[0]
    return 0.0 if total <= 0 else 100.0 * (after[1] - before[1]) / total


def parse_proc_pid_cpu_ticks(text):
    """utime + stime clock ticks from the text of /proc/<pid>/stat."""
    # The command name may hold spaces; fields resume after its ')'.
    fields = text[text.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])


def cpu_util(ticks, hz, wall_s, threads):
    """Process CPU time over the wall time the worker threads could use."""
    return (ticks / hz) / (wall_s * threads)


def quartile_spread(values):
    """(q3 - q1) / median, the noise measure runs are judged by."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
