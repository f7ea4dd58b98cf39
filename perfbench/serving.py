"""Served workload ``solo-mixed``.

The server is the real ``python -m repro --serve HOST:0 --index FILE``
with no tuning flags (or, for the traced half of a ``--trace 1`` run,
the same command booted through ``launcher.py``).  The load comes from
one closed-loop client in this process, on one connection.  The server
runs on the one CPU this process is pinned to (``run.py``); a closed
loop keeps only one of the two busy at a time.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from common import (
    READ_SHARE,
    SETUP_REPEATS,
    Outcome,
    latency_metrics,
    mean,
    median,
    proc_cpu_s,
    proc_hwm_mb,
    segmented_rate,
    self_cpu_s,
    speed_now,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: extent of every read (percent of the unit map) and its metric suffix.
SERVED_EXTENT = 0.01
SERVED_EXTENT_LABEL = "0_01pct"
#: read mix: (verb, share).
READ_MIX = (("window", 0.35), ("count", 0.35), ("disk", 0.15), ("knn", 0.15))
KNN_K = 10
#: unmeasured load before each measured phase [s].
WARMUP_S = 1.0
#: check every n-th read against the oracle (after the phase, untimed).
SAMPLE_EVERY = 2


def server_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Server:
    """One serving process on an index file; :meth:`stop` drains it."""

    def __init__(self, index_path: Path, spans_path: "Path | None" = None):
        cmd = [sys.executable]
        if spans_path is not None:
            cmd += [str(HERE / "launcher.py"), "--spans", str(spans_path), "--"]
        else:
            cmd += ["-m", "repro"]
        cmd += ["--serve", "127.0.0.1:0", "--index", str(index_path)]
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=server_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split()[2].rsplit(":", 1)
        self.host, self.port = host, int(port)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def client(self):
        from repro.server.client import SpatialClient

        return SpatialClient(self.host, self.port, timeout=60.0)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


# -- inputs -----------------------------------------------------------------


@dataclass
class Traffic:
    """The generated inputs of one served run."""

    ops: list  # (verb, args) reads
    rects: list  # insert arguments


def read_ops(rng: np.random.Generator, data, n: int) -> list:
    """``n`` reads of the served mix, centred on data objects."""
    verbs = [v for v, _ in READ_MIX]
    kinds = rng.choice(len(verbs), size=n, p=[p for _, p in READ_MIX])
    picks = rng.integers(0, len(data), size=n)
    cx = (data.xl[picks] + data.xu[picks]) / 2.0
    cy = (data.yl[picks] + data.yu[picks]) / 2.0
    half = math.sqrt(SERVED_EXTENT / 100.0) / 2.0
    radius = math.sqrt(SERVED_EXTENT / 100.0 / math.pi)
    ops = []
    for kind, x, y in zip(kinds, cx.tolist(), cy.tolist()):
        verb = verbs[kind]
        if verb in ("window", "count"):
            x = min(max(x, half), 1.0 - half)
            y = min(max(y, half), 1.0 - half)
            args = {"xl": x - half, "yl": y - half, "xu": x + half, "yu": y + half}
        elif verb == "disk":
            args = {"cx": x, "cy": y, "radius": radius}
        else:
            args = {"cx": x, "cy": y, "k": KNN_K}
        ops.append((verb, args))
    return ops


def insert_rects(rng: np.random.Generator, data, n: int) -> list:
    """``n`` small rects drawn from the data: a data row's extents,
    shifted by up to one extent in each axis."""
    picks = rng.integers(0, len(data), size=n)
    w = data.xu[picks] - data.xl[picks]
    h = data.yu[picks] - data.yl[picks]
    xl = np.clip(data.xl[picks] + rng.uniform(-1, 1, n) * w, 0.0, 1.0 - w)
    yl = np.clip(data.yl[picks] + rng.uniform(-1, 1, n) * h, 0.0, 1.0 - h)
    return [
        {"xl": a, "yl": b, "xu": a + c, "yu": b + d}
        for a, b, c, d in zip(xl.tolist(), yl.tolist(), w.tolist(), h.tolist())
    ]


# -- set-up -------------------------------------------------------------------


def setup(data, workdir: Path, stack: ExitStack, out: Outcome) -> Server:
    """Build, save and boot :data:`SETUP_REPEATS` times; keep the last
    server.  ``setup_s`` is the median of the repeats, each at the
    nominal CPU speed measured just before and after it (``common.py``)."""
    from repro.api import SpatialCollection
    from repro.core.persistence import save_collection

    totals, builds, saves, reads, boots = [], [], [], [], []
    server = None
    for k in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        path = workdir / f"index-{k}.idx"
        slow = speed_now()
        t0 = time.perf_counter()
        col = SpatialCollection.from_dataset(data)
        t1 = time.perf_counter()
        save_collection(col.index, col.data, path)
        t2 = time.perf_counter()
        server = Server(path)
        stack.callback(server.stop)
        with server.client() as cli:
            cli.ping()
            t3 = time.perf_counter()
            gauges = cli.stats()["metrics"]
        totals.append((t3 - t0) / ((slow + speed_now()) / 2))
        builds.append((t1 - t0) * 1e3)
        saves.append((t2 - t1) * 1e3)
        reads.append(gauges["server.boot.read_ms"])
        boots.append(gauges["server.boot.build_ms"])
        del col
    out.metrics.update(
        {
            "setup_s": median(totals),
            "api.build_ms": median(builds),
            "persistence.save_ms": median(saves),
            "persistence.file_bytes": float(path.stat().st_size),
            "server.boot_read_ms": median(reads),
            "server.boot_build_ms": median(boots),
        }
    )
    return server


# -- one measured phase ---------------------------------------------------------


class Phase:
    """Samples of one measured phase against one server."""

    def __init__(self) -> None:
        #: (verb, rtt ms) per answered request, in completion order
        self.reads: list[tuple[str, float]] = []
        #: wall time at which each read was answered, and when the first
        #: was sent
        self.done: list[float] = []
        self.read_t0 = 0.0
        self.writes: list[tuple[str, float]] = []
        self.failed = 0
        self.elapsed = 0.0
        self.server_cpu_s = 0.0
        self.loadgen_cpu_s = 0.0
        self.peak_rss_mb = 0.0
        #: sampled reads for the oracle: (verb, args, result)
        self.samples: list[tuple[str, dict, object]] = []
        #: traced reads: (verb, rtt ms, encode us, decode us, server meta)
        self.traced: list[tuple[str, float, float, float, dict]] = []
        #: the server's trace ring after the traced reads
        self.ring: list[dict] = []

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)


class _Probe:
    """Resource readings around a phase, taken from outside the server."""

    def __init__(self, server: Server):
        self.server = server
        self.t0 = time.perf_counter()
        self.cpu0 = proc_cpu_s(server.pid)
        self.gen0 = self_cpu_s()

    def finish(self, phase: Phase) -> None:
        phase.elapsed = time.perf_counter() - self.t0
        phase.server_cpu_s = proc_cpu_s(self.server.pid) - self.cpu0
        phase.loadgen_cpu_s = self_cpu_s() - self.gen0
        phase.peak_rss_mb = proc_hwm_mb(self.server.pid)


class _ClientTimer:
    """Times the client's protocol encode/decode where ``SpatialClient``
    looks them up (installed for traced phases only)."""

    def __init__(self) -> None:
        import repro.server.client as client_mod

        self.mod = client_mod
        self.orig = (client_mod.encode_request, client_mod.decode_response)
        self.encode_s = self.decode_s = 0.0

    def __enter__(self) -> "_ClientTimer":
        enc, dec = self.orig

        def encode(*a, **k):
            t0 = time.perf_counter()
            out = enc(*a, **k)
            self.encode_s = time.perf_counter() - t0
            return out

        def decode(*a, **k):
            t0 = time.perf_counter()
            out = dec(*a, **k)
            self.decode_s = time.perf_counter() - t0
            return out

        self.mod.encode_request, self.mod.decode_response = encode, decode
        return self

    def __exit__(self, *exc) -> None:
        self.mod.encode_request, self.mod.decode_response = self.orig


def solo_phase(server: Server, traffic: "Traffic", base: oracle.Columns,
               seconds: float, traced: bool, out: Outcome) -> Phase:
    """One client, one connection: a write probe, then the reads.

    The probe inserts two rects for every delete (each delete removes the
    oldest rect the probe inserted), so both verbs are measured and
    checked while the median falls inside one verb's cost mode rather
    than on the boundary between the two.  Its leftover rows are deleted
    untimed, so the reads see the base data again and, checked against
    it, also prove every delete took.  Writes go first so they start
    from the state a fresh server is in, the same on every run.
    """
    from repro.server.client import ServerError

    ops, rects = traffic.ops, traffic.rects
    phase = Phase()
    timer = _ClientTimer() if traced else None
    with server.client() as cli, ExitStack() as stack:
        if timer is not None:
            stack.enter_context(timer)
        i = 0
        t_end = time.perf_counter() + WARMUP_S
        while time.perf_counter() < t_end:
            verb, args = ops[i % len(ops)]
            cli.call(verb, args)
            i += 1
        probe = _Probe(server)
        write_end = probe.t0 + seconds * (1 - READ_SHARE)
        live: deque[int] = deque()
        n_inserted = 0
        w = 0
        while time.perf_counter() < write_end:
            if w % 3 == 2:
                verb, args = "delete", {"id": live[0]}
            else:
                verb, args = "insert", rects[n_inserted % len(rects)]
            t0 = time.perf_counter()
            try:
                result = cli.call(verb, args)
            except ServerError:
                phase.failed += 1
                w += 1
                continue
            phase.writes.append((verb, (time.perf_counter() - t0) * 1e3))
            if verb == "insert":
                if result["id"] != len(base) + n_inserted:
                    out.mark_wrong(f"insert got id {result['id']}")
                live.append(result["id"])
                n_inserted += 1
            else:
                if not result["found"]:
                    out.mark_wrong(f"delete of {live[0]} not found")
                live.popleft()
            w += 1
        for obj_id in live:
            if not cli.call("delete", {"id": obj_id})["found"]:
                out.mark_wrong(f"delete of {obj_id} not found")

        read_end = probe.t0 + seconds
        phase.read_t0 = time.perf_counter()
        while True:
            verb, args = ops[i % len(ops)]
            trace = f"s{i}" if traced else None
            t0 = time.perf_counter()
            if t0 >= read_end:
                break
            try:
                result = cli.call(verb, args, trace=trace)
            except ServerError:
                phase.failed += 1
                i += 1
                continue
            t1 = time.perf_counter()
            rtt = (t1 - t0) * 1e3
            phase.reads.append((verb, rtt))
            phase.done.append(t1)
            if traced:
                phase.traced.append(
                    (verb, rtt, timer.encode_s * 1e6, timer.decode_s * 1e6,
                     cli.last_server)
                )
            if i % SAMPLE_EVERY == 0:
                phase.samples.append(
                    (verb, args, result["count" if verb == "count" else "ids"])
                )
            i += 1
        probe.finish(phase)
        if traced:
            phase.ring = cli.traces(limit=1 << 20)["entries"]
    return phase


# -- checking and metrics ---------------------------------------------------------


def check_samples(phase: Phase, base: oracle.Columns, out: Outcome) -> None:
    """Oracle pass over a phase's sampled reads (untimed).  The reads ran
    after the write probe's clean-up, so the base data is their answer."""
    for verb, args, result in phase.samples:
        if not oracle.check_read(verb, args, result, base):
            out.mark_wrong(f"{verb} {json.dumps(args)}")
    out.notes.append(f"oracle checked {len(phase.samples)} reads")


def e2e_metrics(phase: Phase, out: Outcome) -> None:
    """Throughput is the reads one closed-loop client gets answered per
    wall second, and the read p50 its wall round trip.  Neither is
    rescaled to a nominal CPU speed (``common.py``): a round trip is
    mostly the server's coalescing wait, and the server's own CPU time
    per read followed the reference work with a log-log slope of 1.5-1.9,
    so rescaled it still moved by a quarter between runs an hour apart
    (it is reported per layer as ``service.cpu_us_per_op``)."""
    reads = [r for _, r in phase.reads]
    writes = [w for _, w in phase.writes]
    out.metrics.update(latency_metrics(reads, writes))
    out.metrics["throughput_ops"] = _rate(phase)
    out.metrics["peak_rss_mb"] = phase.peak_rss_mb
    out.notes.append(
        f"{len(reads)} reads, {len(writes)} writes in {phase.elapsed:.1f}s; "
        f"load generator CPU {phase.loadgen_cpu_s / phase.elapsed:.0%}"
    )


def layer_metrics(plain: Phase, traced: Phase, spans: dict,
                  out: Outcome) -> None:
    """Per-layer metrics from the untraced half (resource probes), the
    traced half (client timings, echoed phases) and the launcher spans."""
    m = out.metrics

    def span_ms(name: str) -> list:
        return [d * 1e3 for _, d, _ in spans.get(name, [])]

    for verb in ("window", "count", "disk", "knn"):
        m[f"client.rtt_ms.{verb}"] = median(
            [rtt for v, rtt, *_ in traced.traced if v == verb]
        )
    m["client.encode_us"] = median([t[2] for t in traced.traced])
    m["client.decode_us"] = median([t[3] for t in traced.traced])
    m["protocol.decode_request_us"] = median(span_ms("protocol.decode_request")) * 1e3
    m["protocol.encode_response_us"] = median(
        span_ms("protocol.encode_response")
    ) * 1e3

    phases = [t[4]["phases"] for t in traced.traced]
    m["batcher.queue_wait_ms"] = median([p["queue_ms"] for p in phases])
    m["batcher.coalesce_wait_ms"] = median([p["coalesce_ms"] for p in phases])
    m["batcher.batch_size"] = mean([t[4]["batch_size"] for t in traced.traced])
    m["snapshot.pin_ms"] = median(span_ms("snapshot.current"))
    m["snapshot.insert_ms"] = median(span_ms("snapshot.insert"))
    m["snapshot.delete_ms"] = median(span_ms("snapshot.delete"))
    # Ledger: what the round trip spends outside the client's codec and
    # the server's echoed phases (socket, server decode, dispatch, write).
    m["ledger.unattributed_ms"] = median(
        [
            rtt - (enc + dec) / 1e3 - sum(
                v for k, v in meta["phases"].items() if k.endswith("_ms")
            )
            for _, rtt, enc, dec, meta in traced.traced
        ]
    )
    m["service.serialize_ms"] = median(
        [t["phases"]["serialize_ms"] for t in traced.ring
         if "serialize_ms" in t.get("phases", {})]
    )
    m["service.cpu_us_per_op"] = plain.server_cpu_s / max(plain.ops, 1) * 1e6
    m["loadgen.cpu_share"] = plain.loadgen_cpu_s / plain.elapsed

    windows = spans.get("batch.evaluate_tiles_based", [])
    m["batch.window_eval_ms"] = median([d * 1e3 for _, d, _ in windows])
    m["batch.disk_eval_ms"] = median(span_ms("batch.evaluate_disk_tiles_based"))
    m["batch.queries_per_call"] = mean([n for _, _, n in windows])
    m[f"batch.tiles_us_per_query.{SERVED_EXTENT_LABEL}"] = median(
        [d * 1e6 / n for _, d, n in windows if n]
    )
    m["knn.query_us"] = median(span_ms("knn.knn_query")) * 1e3
    m["trace.overhead_pct"] = (1.0 - _rate(traced) / _rate(plain)) * 100.0


def _rate(phase: Phase) -> float:
    """Reads answered per wall second of a phase's reads."""
    return segmented_rate([(t, 1) for t in phase.done], phase.read_t0,
                          phase.done[-1])


# -- workload drivers -----------------------------------------------------------


def run(data, rng, seconds: float, trace: bool, workdir: Path,
        out: Outcome) -> None:
    """Run the served workload; fills ``out``'s metrics and tallies."""
    traffic = Traffic(
        read_ops(rng, data, 1 << 15),
        insert_rects(rng, data, 1 << 13),
    )
    base = oracle.Columns(data.xl, data.yl, data.xu, data.yu)
    with ExitStack() as stack:
        # The load generator is not the system under test: keep the cyclic
        # collector (whose passes grow with the samples held) out of the
        # measured round trips, as ``timeit`` does.  Its garbage is acyclic.
        gc.freeze()
        gc.disable()
        stack.callback(gc.enable)
        server = setup(data, workdir, stack, out)
        if not trace:
            phase = solo_phase(server, traffic, base, seconds, False, out)
            _account(phase, base, out)
            e2e_metrics(phase, out)
            return
        plain = solo_phase(server, traffic, base, seconds / 2, False, out)
        _account(plain, base, out)
        e2e_metrics(plain, out)
        server.stop()
        spans_path = workdir / "spans.json"
        traced_server = Server(workdir / f"index-{SETUP_REPEATS - 1}.idx",
                               spans_path)
        stack.callback(traced_server.stop)
        traced = solo_phase(traced_server, traffic, base, seconds / 2,
                            True, out)
        _account(traced, base, out)
        if traced_server.stop() != 0:
            raise RuntimeError("traced server did not drain cleanly")
        spans = json.loads(spans_path.read_text())
        layer_metrics(plain, traced, spans, out)


def _account(phase: Phase, base: oracle.Columns, out: Outcome) -> None:
    out.attempted += phase.ops + phase.failed
    out.failed += phase.failed
    check_samples(phase, base, out)
