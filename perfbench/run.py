"""The repository benchmark: served and in-process traffic on the ROADS
stand-in, end to end (``--trace 0``) or per layer (``--trace 1``).

Run from the repository root::

    python3 perfbench/run.py --workload solo-mixed --seed 1 --seconds 45 --trace 0

Workloads (the inputs are generated from ``--seed``; the program only
receives them: an index file for the server, a dataset for the library):

``solo-mixed``
    One closed-loop client on one connection to ``python -m repro
    --serve HOST:0 --index FILE`` (default settings).  Reads: window 35%,
    count 35%, disk 15%, kNN (k=10) 15%, at 0.01% of the map, centred on
    data objects.
``inproc-roads``
    Library calls on one thread over the stand-in with linestring
    geometries (see ``inproc.py``).

Both workloads report every end-to-end metric: ``setup_s``, the median
of several set-ups in the run (served: ``SpatialCollection.from_dataset``
+ ``save_collection`` + server boot until the first answered ``ping``;
in process: the collection build); ``throughput_ops``, reads completed
per second (served: per wall second of the one client; in process: per
second of the calling thread's CPU clock, a batch call being 64 reads);
``read_p50_ms``; ``peak_rss_mb`` (VmHWM of the server, or of this
process in process).  Rates and latencies are medians over consecutive
segments of the phase; served round trips are wall time, in-process
calls the thread's CPU time (see ``inproc.py``).  A write probe (30% of
the seconds, two inserts per delete) precedes the reads.

The in-process ``throughput_ops`` and ``read_p50_ms`` and both set-up
times are given at a nominal CPU speed, measured by a fixed piece of
reference work timed between the program's calls all through the phase,
or around each set-up (see ``common.py``): the shared host ran the same
code 1.45x slower in bursts of milliseconds, in a share that drifted
over minutes, and ten runs of the raw figures spread by up to 45% of
their median.  The whole benchmark, servers included, runs on one CPU,
the one the reference work times.  The served read figures stay on the
wall clock (see ``serving.py``).

The read p99 and write p50/p99 are reported by ``--trace 1`` as
``e2e.*`` without a bound, because on the 2-core development host the
VM lost 5-40% of a CPU to its neighbours from minute to minute: across
ten runs the tails and writes spread by 50-100% of their median, beyond
any bound a regression gate can use.  Failed and wrong answers are the
result line's ``failed`` out of ``attempted`` (a ratio of 0 has no
relative bound); any wrong answer also makes the command exit 1.

With ``--trace 1`` the seconds are split: an untraced half (resource
probes, and the baseline for ``trace.overhead_pct``) and a traced half
(client-side codec timings, server-echoed phases, spans from
``launcher.py``; in process, ``QueryStats`` counters).  Per-layer
metrics of a layer the workload never enters read 0.

Reads are checked against a brute-force oracle over the dataset columns
(``oracle.py``).  Any wrong answer makes the command exit 1; the last
stdout line is always the JSON result when the run completes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from common import E2E, PER_LAYER, Outcome, pin_to_one_cpu  # noqa: E402

WORKLOADS = ("solo-mixed", "inproc-roads")
#: rows of the ROADS stand-in (1/200 of the paper's 20M).
ROWS = 100_000
#: the stand-in is one fixed dataset, as ``repro.datasets.tiger.load_roads``
#: makes it; ``--seed`` drives the traffic.  A per-seed dataset would move
#: the metrics by its cluster layout (the largest of ~300 Zipf-weighted
#: clusters holds a sixth of the rows at a random spread), not by the code.
DATA_SEED = 20150


def run(workload: str, seed: int, seconds: float, trace: bool,
        rows: int = ROWS) -> Outcome:
    """Run one workload and return its outcome (metrics, tallies)."""
    import numpy as np

    out = Outcome()
    pin_to_one_cpu()
    if workload == "inproc-roads":
        import inproc

        inproc.run(DATA_SEED, seed, rows, seconds, trace, out)
        return out

    import serving
    from repro.datasets.tiger import TIGER_SPECS, generate_tiger_standin

    scale = rows / TIGER_SPECS["ROADS"].paper_cardinality
    data = generate_tiger_standin("ROADS", scale, seed=DATA_SEED)
    rng = np.random.default_rng([seed, 1])
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        serving.run(data, rng, seconds, trace, workdir, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def result(out: Outcome, trace: bool) -> dict:
    catalogue = PER_LAYER if trace else E2E
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(out.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in catalogue.items()
        },
    }


def report(workload: str, out: Outcome, res: dict) -> None:
    print(f"workload {workload}")
    for note in out.notes:
        print(f"  {note}")
    for name, metric in res["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    ratio = out.failed / max(out.attempted, 1)
    print(f"  {'fail_ratio':<36} {ratio:>14.4f} fraction "
          f"({out.failed} of {out.attempted})")
    for what in out.wrong:
        print(f"  WRONG: {what}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=ROWS,
                        help="rows of the ROADS stand-in (default %(default)s)")
    args = parser.parse_args(argv)
    # A terminated run still drains the servers it started (exit unwinds
    # their clean-up callbacks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.rows)
    res = result(out, bool(args.trace))
    report(args.workload, out, res)
    print(json.dumps(res), flush=True)
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
