"""In-process workload ``inproc-roads``: library calls on one thread.

The call stream repeats one cycle per query extent of the Fig. 10 sweep
(0.01%, 0.1%, 1% of the map):

* one batch of 64 windows through ``evaluate_tiles_based`` and the same
  64 through ``evaluate_queries_based`` (the order alternates by cycle);
* eight each of ``SpatialCollection.count``, ``.disk``, ``.knn`` and
  ``.window(exact=True)`` at that extent.

A batch call counts as 64 operations.  Read latencies are those of the
single-query calls; batch calls are timed per layer instead.  A write
probe precedes the reads (see :func:`_write_probe`).

Every timing of the call stream is the calling thread's CPU time
(``time.thread_time``) rather than wall time.  The library does no I/O and never waits, so its
CPU time is its latency less what the hypervisor takes from this VM,
which on the 2-core development host swung between 5% and 40% of a CPU
from one minute to the next and moved wall-clock figures by as much.
The gated ``read_p50_ms`` and ``throughput_ops`` are further given at
the nominal CPU speed of ``common.py``: the reference work runs before
each extent's calls.  ``setup_s`` is the build's wall time, at the
nominal speed measured just before and after it.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager

import numpy as np

import oracle
from common import (
    EXTENTS,
    READ_SHARE,
    Outcome,
    latency_metrics,
    median,
    nominal_quantile,
    nominal_rate,
    proc_hwm_mb,
    reference_s,
    self_cpu_s,
    speed_now,
)

BATCH = 64
#: the build takes some 20 ms; ``setup_s`` is the median of this many.
BUILD_REPEATS = 25
BATCH_KINDS = ("tiles", "queries")
SINGLES_PER_KIND = 8
KNN_K = 10
#: every n-th single call, and every batch call of every n-th cycle, is
#: checked against the oracle after the phase, up to a fixed number of
#: cycles: what the benchmark keeps counts in this process's peak memory,
#: which must not grow with the speed of the host.
SAMPLE_EVERY = 8
BATCH_SAMPLE_EVERY = 16
SAMPLED_CYCLES = 64


class Stream:
    """Seeded query pools, one per extent; cycle ``c`` takes slice ``c``."""

    def __init__(self, rng: np.random.Generator, data, cycles: int = 256):
        self.cycles = cycles
        self.windows = {}
        self.disks = {}
        self.points = {}
        n_w = cycles * (BATCH + SINGLES_PER_KIND * 2)
        n_p = cycles * SINGLES_PER_KIND * 2
        for label, pct in EXTENTS.items():
            self.windows[label] = _centred(rng, data, n_w, math.sqrt(pct / 100) / 2)
            radius = math.sqrt(pct / 100.0 / math.pi)
            cx, cy = _centred_points(rng, data, n_p, radius)
            self.disks[label] = [(x, y, radius) for x, y in zip(cx, cy)][: n_p // 2]
            self.points[label] = [(x, y) for x, y in zip(cx, cy)][n_p // 2:]

    def cycle(self, c: int, label: str):
        c %= self.cycles
        per = BATCH + SINGLES_PER_KIND * 2
        w = self.windows[label][c * per:(c + 1) * per]
        s = SINGLES_PER_KIND
        return (
            w[:BATCH],
            w[BATCH:BATCH + s],
            w[BATCH + s:],
            self.disks[label][c * s:(c + 1) * s],
            self.points[label][c * s:(c + 1) * s],
        )


def _centred_points(rng, data, n: int, margin: float):
    picks = rng.integers(0, len(data), size=n)
    cx = np.clip((data.xl[picks] + data.xu[picks]) / 2.0, margin, 1.0 - margin)
    cy = np.clip((data.yl[picks] + data.yu[picks]) / 2.0, margin, 1.0 - margin)
    return cx.tolist(), cy.tolist()


def _centred(rng, data, n: int, half: float):
    from repro.geometry.mbr import Rect

    cx, cy = _centred_points(rng, data, n, half)
    return [Rect(x - half, y - half, x + half, y + half) for x, y in zip(cx, cy)]


class Phase:
    """Per-call samples of one measured phase."""

    def __init__(self) -> None:
        #: (kind, extent label, CPU seconds, CPU clock at completion) per
        #: public call
        self.calls: list[tuple[str, str, float, float]] = []
        self.writes: list[float] = []  # CPU seconds per write
        self.ops = 0
        self.elapsed = 0.0  # wall seconds
        #: the read part of the phase alone, on the thread's CPU clock
        self.read_ops = 0
        self.t0 = 0.0
        self.read_elapsed = 0.0
        #: (CPU clock, seconds) per run of the reference work
        self.refs: list[tuple[float, float]] = []
        #: ids returned by all tiles-based batch calls
        self.tile_hits = 0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        #: (kind, args, result) kept for the oracle
        self.samples: list[tuple[str, object, object]] = []

    def times(self, kind: str, label: "str | None" = None) -> list:
        return [
            t for k, lab, t, _ in self.calls
            if k == kind and (label is None or lab == label)
        ]


@contextmanager
def _timing_window_calls(index, sink: dict, current: list):
    """Time every ``index.window_query`` call (per extent) from outside."""
    inner = index.window_query

    def timed(window, stats=None):
        t0 = time.thread_time()
        out = inner(window, stats)
        sink.setdefault(current[0], []).append(time.thread_time() - t0)
        return out

    index.window_query = timed
    try:
        yield
    finally:
        del index.window_query


def _reads(col, stream: Stream, seconds: float, phase: Phase,
           kstats=None, rstats=None, on_extent=None) -> None:
    from repro.core.batch import evaluate_queries_based, evaluate_tiles_based

    index = col.index
    clock = time.thread_time
    calls = phase.calls
    end = time.perf_counter() + seconds
    c = 0
    n_single = 0
    while time.perf_counter() < end:
        for label in EXTENTS:
            if on_extent is not None:
                on_extent[0] = label
            phase.refs.append((clock(), reference_s()))
            batch, count_w, exact_w, disks, points = stream.cycle(c, label)
            order = (("tiles", evaluate_tiles_based, kstats),
                     ("queries", evaluate_queries_based, None))
            for kind, fn, stats in order if c % 2 == 0 else order[::-1]:
                t0 = clock()
                res = fn(index, batch, stats)
                t1 = clock()
                calls.append((kind, label, t1 - t0, t1))
                if kind == "tiles":
                    phase.tile_hits += sum(ids.shape[0] for ids in res)
                if c % BATCH_SAMPLE_EVERY == 0 and c < SAMPLED_CYCLES:
                    phase.samples.append((kind, batch, res))
            phase.ops += 2 * BATCH
            for j in range(SINGLES_PER_KIND):
                w = count_w[j]
                t0 = clock()
                n = col.count(w.xl, w.yl, w.xu, w.yu)
                t1 = clock()
                x, y, r = disks[j]
                ids_d = col.disk(x, y, r)
                t2 = clock()
                px, py = points[j]
                ids_k = col.knn(px, py, KNN_K)
                t3 = clock()
                e = exact_w[j]
                ids_e = col.window(e.xl, e.yl, e.xu, e.yu, exact=True,
                                   stats=rstats)
                t4 = clock()
                calls += [("count", label, t1 - t0, t1),
                          ("disk", label, t2 - t1, t2),
                          ("knn", label, t3 - t2, t3),
                          ("exact", label, t4 - t3, t4)]
                if n_single % SAMPLE_EVERY == 0 and c < SAMPLED_CYCLES:
                    phase.samples += [("count", w, n), ("disk", disks[j], ids_d),
                                      ("knn", points[j], ids_k),
                                      ("exact", e, ids_e)]
                n_single += 1
            phase.ops += 4 * SINGLES_PER_KIND
        c += 1


def _write_probe(col, rects: list, seconds: float, phase: Phase,
                 n_base: int, out: Outcome) -> None:
    """Inserts and deletes through the facade, two inserts per delete,
    then (untimed) deletes of every row the probe left, so the reads that
    follow see the base data again.

    Each delete removes the oldest row the probe inserted.  The 2:1 mix
    keeps the median inside the insert cost mode instead of on the
    boundary between two verbs of very different cost.
    """
    from repro.geometry.linestring import LineString

    end = time.perf_counter() + seconds
    live: list[int] = []
    n_inserted = 0
    w = 0
    while time.perf_counter() < end:
        if w % 3 == 2:
            victim = live.pop(0)
            t0 = time.thread_time()
            found = col.delete(victim)
            phase.writes.append(time.thread_time() - t0)
            if not found:
                out.mark_wrong(f"delete of {victim} not found")
        else:
            r = rects[n_inserted % len(rects)]
            geom = LineString([(r.xl, r.yl), (r.xu, r.yu)])
            t0 = time.thread_time()
            obj_id = col.insert(r, geom)
            phase.writes.append(time.thread_time() - t0)
            if obj_id != n_base + n_inserted:
                out.mark_wrong(f"insert got id {obj_id}")
            live.append(obj_id)
            n_inserted += 1
        phase.ops += 1
        w += 1
    for victim in live:
        if not col.delete(victim):
            out.mark_wrong(f"delete of {victim} not found")


def _phase(col, stream: Stream, rects: list, seconds: float,
           base: oracle.Columns, out: Outcome, **traced) -> Phase:
    """Warm-up, the write probe, then the timed read stream.  Writes go
    first so they start from the allocator and collector state set-up
    leaves, the same on every run."""
    phase = Phase()
    _reads(col, stream, min(1.0, seconds / 4), Phase())  # warm-up
    t_start = time.perf_counter()
    cpu0 = self_cpu_s()
    _write_probe(col, rects, seconds * (1 - READ_SHARE), phase, len(base), out)
    n_writes = phase.ops
    phase.t0 = time.thread_time()
    _reads(col, stream, seconds * READ_SHARE, phase, **traced)
    phase.read_elapsed = time.thread_time() - phase.t0
    phase.read_ops = phase.ops - n_writes
    phase.elapsed = time.perf_counter() - t_start
    phase.cpu_s = self_cpu_s() - cpu0
    phase.peak_rss_mb = proc_hwm_mb(os.getpid())
    return phase


def _check(phase: Phase, cols: oracle.Columns, segs: oracle.Segments,
           out: Outcome) -> None:
    """Oracle pass over the sampled calls.  The reads ran after the write
    probe and its clean-up, so they also check that every delete took."""
    n = 0
    for kind, args, res in phase.samples:
        if kind in ("tiles", "queries"):
            for w, ids in zip(args, res):
                n += 1
                if not oracle.same_ids(ids, np.flatnonzero(
                        cols.window_mask(w.xl, w.yl, w.xu, w.yu))):
                    out.mark_wrong(f"{kind}-based window {w}")
            continue
        n += 1
        if kind == "count":
            ok = res == int(cols.window_mask(args.xl, args.yl, args.xu,
                                             args.yu).sum())
        elif kind == "disk":
            ok = oracle.same_ids(res, np.flatnonzero(cols.disk_mask(*args)))
        elif kind == "knn":
            ok = oracle.knn_ok(res, cols, args[0], args[1], KNN_K)
        else:
            ok = oracle.exact_window_ok(res, cols, segs, _wargs(args))
        if not ok:
            out.mark_wrong(f"{kind} {args}")
    out.notes.append(f"oracle checked {n} reads")


def _wargs(w) -> dict:
    return {"xl": w.xl, "yl": w.yl, "xu": w.xu, "yu": w.yu}


def run(data_seed: int, seed: int, rows: int, seconds: float, trace: bool,
        out: Outcome) -> None:
    from repro.api import SpatialCollection
    from repro.datasets.tiger import TIGER_SPECS, generate_tiger_standin
    from repro.stats import QueryStats

    scale = rows / TIGER_SPECS["ROADS"].paper_cardinality
    data = generate_tiger_standin("ROADS", scale, with_geometries=True,
                                  seed=data_seed)
    rng = np.random.default_rng([seed, 2])
    stream = Stream(rng, data)
    picks = rng.integers(0, len(data), size=4096)
    rects = [data.rect(int(i)) for i in picks]  # write-probe inserts
    base = oracle.Columns(data.xl, data.yl, data.xu, data.yu)
    segs = oracle.Segments(data.geometries)

    builds, nominal = [], []
    for _ in range(BUILD_REPEATS):
        slow = speed_now()
        t0 = time.perf_counter()
        col = SpatialCollection.from_dataset(data)
        builds.append(time.perf_counter() - t0)
        nominal.append(builds[-1] / ((slow + speed_now()) / 2))
    out.metrics["setup_s"] = median(nominal)
    out.metrics["api.build_ms"] = median(builds) * 1e3

    if not trace:
        phase = _phase(col, stream, rects, seconds, base, out)
        _finish(phase, base, segs, out)
        _e2e(phase, out)
        return

    plain = _phase(col, stream, rects, seconds / 2, base, out)
    _finish(plain, base, segs, out)
    _e2e(plain, out)
    col = SpatialCollection.from_dataset(data)
    kstats, rstats = QueryStats(), QueryStats()
    window_times: dict = {}
    current = [None]
    with _timing_window_calls(col.index, window_times, current):
        traced = _phase(col, stream, rects, seconds / 2, base, out,
                        kstats=kstats, rstats=rstats, on_extent=current)
    _finish(traced, base, segs, out)
    _layers(plain, traced, kstats, rstats, window_times, out)


def _finish(phase: Phase, base, segs, out: Outcome) -> None:
    out.attempted += phase.ops
    _check(phase, base, segs, out)


def _e2e(phase: Phase, out: Outcome) -> None:
    """Throughput counts the read stream's queries (a batch call is 64)
    per CPU second; the write probe is timed on its own."""
    reads = [t * 1e3 for k, _, t, _ in phase.calls if k not in BATCH_KINDS]
    writes = [t * 1e3 for t in phase.writes]
    done = [(t, BATCH if k in BATCH_KINDS else 1) for k, _, _, t in phase.calls]
    span = (phase.t0, phase.t0 + phase.read_elapsed)
    out.metrics.update(latency_metrics(reads, writes))
    out.metrics["read_p50_ms"] = nominal_quantile(
        [(t, dt * 1e3) for k, _, dt, t in phase.calls if k not in BATCH_KINDS],
        phase.refs, *span, 0.50,
    )
    out.metrics["throughput_ops"] = nominal_rate(done, phase.refs, *span)
    out.metrics["peak_rss_mb"] = phase.peak_rss_mb
    out.notes.append(
        f"{len(reads)} single reads, {len(phase.calls) - len(reads)} batch "
        f"calls, {len(writes)} writes in {phase.elapsed:.1f}s"
    )


def _layers(plain: Phase, traced: Phase, kstats, rstats, window_times,
            out: Outcome) -> None:
    m = out.metrics
    us = 1e6
    for label in EXTENTS:
        tiles = median(plain.times("tiles", label)) * us / BATCH
        queries = median(plain.times("queries", label)) * us / BATCH
        window = median(window_times.get(label, [])) * us
        count = median(plain.times("count", label)) * us
        m[f"batch.tiles_us_per_query.{label}"] = tiles
        m[f"batch.queries_us_per_query.{label}"] = queries
        m[f"batch.tiles_over_queries.{label}"] = tiles / queries
        m[f"kernel.window_us.{label}"] = window
        m[f"kernel.count_us.{label}"] = count
        m[f"kernel.disk_us.{label}"] = median(plain.times("disk", label)) * us
        m[f"kernel.count_over_window.{label}"] = count / window
        m[f"refine.exact_window_us.{label}"] = (
            median(plain.times("exact", label)) * us
        )
    m["batch.window_eval_ms"] = median(plain.times("tiles")) * 1e3
    m["batch.queries_per_call"] = float(BATCH)
    m["knn.query_us"] = median(plain.times("knn")) * us

    q = max(len(traced.times("tiles")) * BATCH, 1)
    m["kernel.tiles_per_query"] = kstats.partitions_visited / q
    m["kernel.rects_scanned_per_query"] = kstats.rects_scanned / q
    m["kernel.comparisons_per_query"] = kstats.comparisons / q
    m["kernel.hit_ratio"] = traced.tile_hits / max(kstats.rects_scanned, 1)
    n_exact = max(len(traced.times("exact")), 1)
    m["refine.tests_per_query"] = rstats.refinement_tests / n_exact
    refined = rstats.refinement_tests + rstats.refinements_avoided
    m["refine.avoided_ratio"] = rstats.refinements_avoided / max(refined, 1)
    m["trace.overhead_pct"] = (
        1.0 - (traced.read_ops / traced.read_elapsed)
        / (plain.read_ops / plain.read_elapsed)
    ) * 100.0
    m["loadgen.cpu_share"] = plain.cpu_s / plain.elapsed
