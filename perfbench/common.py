"""Metric catalogue, sample statistics and process probes shared by the
workloads of the repository benchmark (see ``run.py``)."""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np

#: end-to-end metrics (``--trace 0``): name -> unit.  Every workload
#: reports all of them; see ``run.py`` for what each workload measures.
E2E = {
    "setup_s": "s",
    "throughput_ops": "ops/s",
    "read_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: end-to-end figures that swing with the host more than any bound allows
#: (see ``run.py``); ``--trace 1`` reports them from its untraced half.
E2E_UNGATED = {
    "e2e.read_p99_ms": "ms",
    "e2e.write_p50_ms": "ms",
    "e2e.write_p99_ms": "ms",
}

#: query extents of the in-process workload (percent of the unit map,
#: the Fig. 10 sweep); the label is the metric-name suffix.
EXTENTS = {"0_01pct": 0.01, "0_1pct": 0.1, "1pct": 1.0}

_PER_EXT = {
    "batch.tiles_us_per_query": "us",
    "batch.queries_us_per_query": "us",
    "batch.tiles_over_queries": "ratio",
    "kernel.window_us": "us",
    "kernel.count_us": "us",
    "kernel.disk_us": "us",
    "kernel.count_over_window": "ratio",
    "refine.exact_window_us": "us",
}

#: per-layer metrics (``--trace 1``): name -> unit.  A workload whose
#: path does not enter a layer reports 0 for that layer's metrics.
PER_LAYER = {
    "client.encode_us": "us",
    "client.decode_us": "us",
    "client.rtt_ms.window": "ms",
    "client.rtt_ms.count": "ms",
    "client.rtt_ms.disk": "ms",
    "client.rtt_ms.knn": "ms",
    "protocol.decode_request_us": "us",
    "protocol.encode_response_us": "us",
    "batcher.queue_wait_ms": "ms",
    "batcher.coalesce_wait_ms": "ms",
    "batcher.batch_size": "count",
    "service.serialize_ms": "ms",
    "service.cpu_us_per_op": "us",
    "ledger.unattributed_ms": "ms",
    "snapshot.pin_ms": "ms",
    "snapshot.insert_ms": "ms",
    "snapshot.delete_ms": "ms",
    "batch.window_eval_ms": "ms",
    "batch.disk_eval_ms": "ms",
    "batch.queries_per_call": "count",
    **{f"{k}.{ext}": u for k, u in _PER_EXT.items() for ext in EXTENTS},
    "kernel.tiles_per_query": "count",
    "kernel.rects_scanned_per_query": "count",
    "kernel.comparisons_per_query": "count",
    "kernel.hit_ratio": "fraction",
    "knn.query_us": "us",
    "refine.tests_per_query": "count",
    "refine.avoided_ratio": "fraction",
    "api.build_ms": "ms",
    "persistence.save_ms": "ms",
    "persistence.file_bytes": "bytes",
    "server.boot_read_ms": "ms",
    "server.boot_build_ms": "ms",
    "trace.overhead_pct": "%",
    "loadgen.cpu_share": "fraction",
    **E2E_UNGATED,
}

#: how many times a run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 9

#: a measured phase is cut into this many consecutive segments and each
#: timing metric is the median of its per-segment values, so one stall
#: of the shared host moves one segment, not the run's figure.
SEGMENTS = 15

#: share of the measured seconds spent reading; the write probe that
#: precedes the reads takes the rest.
READ_SHARE = 0.7


def latency_metrics(reads, writes) -> dict:
    """Read and write latency figures [ms] of one phase, gated or not."""
    return {
        "read_p50_ms": segmented_quantile(reads, 0.50),
        "e2e.read_p99_ms": segmented_quantile(reads, 0.99),
        "e2e.write_p50_ms": segmented_quantile(writes, 0.50),
        "e2e.write_p99_ms": segmented_quantile(writes, 0.99),
    }


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: ``q=0.99`` over 1000 samples leaves ten
    samples above the returned one."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def segmented_quantile(values, q: float) -> float:
    """Median over consecutive segments of each segment's ``q``-quantile.

    Segments keep at least ten samples above their quantile, so short
    runs use fewer (down to one) segments.
    """
    need = round(10 / (1.0 - q))
    k = max(1, min(SEGMENTS, len(values) // need))
    size = len(values) // k
    return median([quantile(values[i * size:(i + 1) * size], q) for i in range(k)])


def segmented_rate(done, t0: float, t1: float) -> float:
    """Median over :data:`SEGMENTS` equal time slices of ``[t0, t1]`` of
    the operations completed per second; ``done`` holds (time, ops)."""
    width = (t1 - t0) / SEGMENTS
    return median([sum(b) / width for b in slices(done, t0, t1)])


def slices(stamped, t0: float, t1: float, n: int = SEGMENTS) -> list:
    """Values of ``(time, value)`` pairs, binned into ``n`` equal slices
    of ``[t0, t1]``."""
    width = (t1 - t0) / n
    bins: list[list] = [[] for _ in range(n)]
    for t, v in stamped:
        bins[min(max(int((t - t0) / width), 0), n - 1)].append(v)
    return bins


# -- CPU speed ------------------------------------------------------------------
#
# The development host's vCPUs ran the same code at two speeds, about 1.45x
# apart, switching within milliseconds with its neighbours' load: a fixed
# loop took 12-14 ms in the fast mode and 18-20 ms in the slow one, and a
# run's CPU-time figures followed the share of time it spent slow, which
# drifted over seconds and minutes (their median moved by a third from
# run to run).  So the in-process CPU-time figures and both set-up times
# are given at a nominal speed: a fixed piece of reference work is timed
# between the program's calls, on the same CPU, all through the measured
# phase (or just before and after each set-up), and each segment's figure
# is scaled by the reference's mean time there over :data:`REF_NOMINAL_S`.
# The reference is benchmark code, which no change to the program moves.
# It is shaped like a small query (short numpy calls and the Python around
# them): across segments of one run the library's CPU time followed it
# with a log-log slope of 1.1-1.2, where a pure-Python loop left more of
# the swing in (slope 1.4-1.6).  See ``serving.py`` for the served reads.

#: numpy calls per run of the reference work.
REF_CALLS = 60
#: the reference work's CPU time at the nominal speed (about the fast mode
#: of a Xeon Sapphire Rapids KVM vCPU).
REF_NOMINAL_S = 0.0005
_REF_ARRAY = np.random.default_rng(0).random(4096)
#: runs of the reference work timed just before and just after a set-up.
REF_AROUND = 10


def reference_s() -> float:
    """CPU seconds the calling thread spends on the reference work."""
    t0 = time.thread_time()
    for i in range(REF_CALLS):
        part = _REF_ARRAY[i:i + 512]
        part[np.flatnonzero(part > 0.5)].tolist()
    return time.thread_time() - t0


def speed_now() -> float:
    """How much slower than nominal the CPU runs now: the mean time of
    :data:`REF_AROUND` runs of the reference work over
    :data:`REF_NOMINAL_S`."""
    return mean([reference_s() for _ in range(REF_AROUND)]) / REF_NOMINAL_S


def speeds(refs, t0: float, t1: float) -> list:
    """Per segment of ``[t0, t1]``, how much slower than nominal the CPU
    ran: the mean reference time there over :data:`REF_NOMINAL_S`.
    ``refs`` holds (time, reference seconds).  The mean, not the median:
    the two speeds alternate within milliseconds, so what a segment's
    work took follows the share of its time spent slow."""
    return [
        mean(b) / REF_NOMINAL_S if b else 0.0
        for b in slices(refs, t0, t1)
    ]


def nominal_quantile(values, refs, t0: float, t1: float, q: float) -> float:
    """Median over segments of ``[t0, t1]`` of the ``q``-quantile of the
    stamped ``values`` (time, CPU-bound latency) at the nominal speed."""
    return median([
        quantile(vals, q) / slow
        for vals, slow in zip(slices(values, t0, t1), speeds(refs, t0, t1))
        if vals and slow
    ])


def nominal_rate(done, refs, t0: float, t1: float) -> float:
    """Median over segments of ``[t0, t1]`` (a CPU clock) of the
    operations completed per CPU second at the nominal speed; ``done``
    holds (time, ops).  The reference work's own time is not counted."""
    width = (t1 - t0) / SEGMENTS
    rates = []
    for ops, spent, slow in zip(slices(done, t0, t1), slices(refs, t0, t1),
                                speeds(refs, t0, t1)):
        if slow:
            rates.append(sum(ops) / (width - sum(spent)) * slow)
    return median(rates)


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU, so the
    reference work times the CPU the measured code runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def median(values) -> float:
    """Median (mean of the middle pair for even counts); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (``/proc/<pid>/stat``)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # the command name may hold spaces; fields resume after its ')'
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_cpu_s() -> float:
    """CPU seconds of this process (all threads)."""
    return proc_cpu_s(os.getpid())


class Outcome:
    """Attempt/failure tallies and the metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.metrics: dict[str, float] = {}
        #: human-readable context printed with the table (sample counts).
        self.notes: list[str] = []

    def mark_wrong(self, what: str) -> None:
        """Record one wrong answer (it also counts as a failed attempt)."""
        self.failed += 1
        if len(self.wrong) < 20:
            self.wrong.append(what)

    @property
    def correct(self) -> bool:
        return not self.wrong
