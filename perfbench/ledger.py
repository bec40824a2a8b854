"""Arithmetic of the campaign benchmark: percentiles and the tail rule,
hypervolume, host-speed factors, thread-pool idle share, interval folding,
and the layer ledger that attributes a traced campaign's wall seconds to the
repo's modules.

Everything here is pure (no I/O) so perfbench/tests can pin it down.

A span is the list the driver writes:
    [name, category, pid, tid, start_ns, duration_ns, trace_id]
"""

import math
import statistics

# Tail percentiles are read where exactly this many samples lie beyond.
MIN_BEYOND = 10

KFUSION_PHASES = ("tracking", "integration", "preprocess")
LEDGER_LINES = (
    "ledger.hypermapper_s",
    "ledger.rf_s",
    "ledger.kfusion_s",
    "ledger.slambench_s",
    "ledger.sandbox_s",
    "ledger.thread_pool_s",
    "ledger.serve_s",
    "ledger.unattributed_s",
)


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default), p in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values, min_beyond=MIN_BEYOND):
    """The highest percentile that still has `min_beyond` samples beyond it:
    the (min_beyond + 1)-th largest sample, at percentile rank
    100 * (n - min_beyond) / n. Returns (percentile, value, samples beyond).
    Below 2 * min_beyond samples that rank would sit under the median, which
    is no tail: it falls back to the median and returns the median's own
    count beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 2 * min_beyond:
        return 100.0 * (n - min_beyond) / n, ordered[n - min_beyond - 1], min_beyond
    return 50.0, percentile(ordered, 50.0), n // 2


def median(values):
    return statistics.median(values)


def hypervolume_2d(points, reference):
    """Area dominated by `points` (both objectives minimised) inside the box
    bounded by `reference`; points outside the box add only their clipped
    part."""
    inside = sorted(
        (min(x, reference[0]), min(y, reference[1])) for x, y in points
    )
    area = 0.0
    best_y = reference[1]
    for x, y in inside:
        if y < best_y:
            area += (reference[0] - x) * (best_y - y)
            best_y = y
    return area


def core_slowdown(probe_cpu_s, reference_cpu_s):
    """The cores' slowdown over a run: the median over the run's probe points
    of the probe's CPU seconds per thread, over the reference's. 2.0 reads
    as cores half as fast."""
    return median(probe_cpu_s) / reference_cpu_s


def reference_speed_factor(steal_share, core_slowdown):
    """The factor that takes a wall time measured while `steal_share` of the
    vCPUs' wanted run time was stolen, on cores `core_slowdown` times slower
    than the reference, to the reference host speed: the stolen time comes
    off, and what is left runs at the reference cores' speed."""
    return (1.0 - steal_share) / core_slowdown


def idle_share(eval_busy_s, lanes, batch_wall_s):
    """Share of the batch lanes' capacity that ran no evaluation."""
    capacity = lanes * batch_wall_s
    if capacity <= 0.0:
        return 0.0
    return 1.0 - eval_busy_s / capacity


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def clip(intervals, window):
    lo, hi = window
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


def self_time(parent, children):
    """Parent interval length minus the part its children cover. Children may
    overlap each other (spans of one campaign from several threads) and may
    stick out of the parent; each covered instant counts once."""
    return (parent[1] - parent[0]) - union_length(clip(children, parent))


def prometheus_sums(text):
    """Each series of a Prometheus text scrape, summed over its labels."""
    sums = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        try:
            sums[name] = sums.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return sums


def interval(span):
    start = span[4] / 1e9
    return start, start + span[5] / 1e9


def campaign_spans(spans, trace_id):
    return [s for s in spans if s[6] == trace_id]


def _root(spans):
    roots = [s for s in spans if s[0] == "bench_campaign" and s[1] == "perfbench"]
    if len(roots) != 1:
        raise ValueError("expected one bench_campaign span, found %d" % len(roots))
    return roots[0]


def _total(spans, name, category=None):
    return sum(
        s[5] / 1e9 for s in spans if s[0] == name and (category is None or s[1] == category)
    )


def fold_kfusion(spans, lanes):
    """Ledger of one traced in-process or sandboxed KFusion campaign.

    The driver thread's timeline is the critical path. Its proposal spans
    (next_batch, finish) split into rf (surrogate fit/predict) and
    hypermapper (the rest, journal commits included). While it waits on a
    batch, each wall second is shared over the batch's lanes, and each
    lane's share goes to what the lane was doing: kfusion frames, the
    slambench harness outside frames, sandbox IPC and lease waits, or
    nothing (thread_pool idle). Whatever the driver thread spent outside
    its spans is unattributed. The lines sum to the campaign's wall time.
    """
    root = _root(spans)
    window = interval(root)
    wall = window[1] - window[0]
    driver = [s for s in spans if s[2] == root[2] and s[3] == root[3]]
    propose = [interval(s) for s in driver if s[0] in ("bench_propose", "bench_finish")]
    batches = [interval(s) for s in driver if s[0] == "bench_batch"]
    rf = [interval(s) for s in driver if s[0] in ("surrogate_fit", "surrogate_predict")]

    rf_s = union_length(clip(rf, window))
    propose_s = union_length(clip(propose, window))
    batch_s = union_length(clip(batches, window))

    evaluate_s = _total(spans, "bench_evaluate", "perfbench")
    worker_s = _total(spans, "worker_eval", "sandbox")
    frame_s = _total(spans, "kfusion_frame", "slam")
    harness_s = (worker_s if worker_s > 0.0 else evaluate_s) - frame_s
    sandbox_s = evaluate_s - worker_s if worker_s > 0.0 else 0.0
    capacity = max(lanes * batch_s, evaluate_s)
    share = batch_s / capacity if capacity > 0.0 else 0.0

    ledger = dict.fromkeys(LEDGER_LINES, 0.0)
    ledger["ledger.rf_s"] = rf_s
    ledger["ledger.hypermapper_s"] = propose_s - rf_s
    ledger["ledger.kfusion_s"] = frame_s * share
    ledger["ledger.slambench_s"] = harness_s * share
    ledger["ledger.sandbox_s"] = sandbox_s * share
    ledger["ledger.thread_pool_s"] = (capacity - evaluate_s) * share
    ledger["ledger.unattributed_s"] = self_time(window, propose + batches)

    layers = {
        "kfusion.frame_s": frame_s,
        "kfusion.outside_frames_s": harness_s,
        "slambench.eval_busy_s": evaluate_s,
        "rf.fit_s": _total(spans, "surrogate_fit", "dse"),
        "rf.predict_s": _total(spans, "surrogate_predict", "dse"),
    }
    for phase in KFUSION_PHASES:
        layers["kfusion.%s_s" % phase] = _total(spans, phase, "kfusion")
    return wall, ledger, layers


def fold_served(spans, proposal, serve_overhead_s):
    """Ledger of one traced served campaign, seen from its client.

    The daemon is not traced (see served_phase in driver.cpp), so the lines
    come from the same scenario's traced in-process replay, built like a
    served campaign: `proposal` = {"rf_s", "hypermapper_s", "sandbox_s"}
    (surrogate fit/predict, the rest of the proposals, and the wait on
    sandboxed evaluation batches); serve is the served minus the replayed
    campaign (`serve_overhead_s`), and the remainder is unattributed.
    """
    root = _root(spans)
    window = interval(root)
    wall = window[1] - window[0]
    ledger = dict.fromkeys(LEDGER_LINES, 0.0)
    ledger["ledger.rf_s"] = proposal["rf_s"]
    ledger["ledger.hypermapper_s"] = proposal["hypermapper_s"]
    ledger["ledger.sandbox_s"] = proposal["sandbox_s"]
    ledger["ledger.serve_s"] = serve_overhead_s
    ledger["ledger.unattributed_s"] = wall - sum(
        v for k, v in ledger.items() if k != "ledger.unattributed_s"
    )
    return wall, ledger
