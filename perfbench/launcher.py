"""Boot ``python -m repro --serve`` with in-memory spans around its layers.

Usage (arguments after ``--`` go to ``python -m repro`` unchanged)::

    PYTHONPATH=src python3 perfbench/launcher.py --spans OUT.json -- \\
        --serve 127.0.0.1:0 --index FILE

Before the server starts, the launcher replaces these names with timed
wrappers, at the place ``repro.server.service`` looks them up:

* ``decode_request`` / ``encode_response`` (protocol layer),
* ``MicroBatcher.next_batch`` (batcher; the span also records batch size),
* ``SnapshotStore.current`` / ``insert`` / ``delete`` (snapshot layer),
* ``evaluate_tiles_based`` / ``evaluate_disk_tiles_based`` (core.batch;
  the span records the number of queries evaluated),
* ``knn_query`` (core.knn).

Each span is a (start, duration, size) triple kept in memory; when the
server has drained and stopped, the spans are written to ``OUT.json`` as
``{name: [[start_s, duration_s, size], ...]}``.  No file under ``src/``
changes, and the untraced benchmark runs boot the plain command.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import defaultdict

SPANS: "defaultdict[str, list[tuple[float, float, int]]]" = defaultdict(list)


def _timed(name: str, fn, size=None):
    record = SPANS[name].append
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        record((t0, clock() - t0, 0 if size is None else size(args)))
        return out

    return wrapper


def _timed_async(name: str, fn):
    record = SPANS[name].append
    clock = time.perf_counter

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        t0 = clock()
        out = await fn(*args, **kwargs)
        record((t0, clock() - t0, 0 if out is None else len(out)))
        return out

    return wrapper


def install() -> None:
    """Wrap the serving layers' entry points where the service finds them."""
    from repro.server import batcher, service, snapshot

    for name in ("decode_request", "encode_response"):
        setattr(service, name, _timed(f"protocol.{name}", getattr(service, name)))
    for name, fn in (
        ("evaluate_tiles_based", service.evaluate_tiles_based),
        ("evaluate_disk_tiles_based", service.evaluate_disk_tiles_based),
    ):
        setattr(service, name, _timed(f"batch.{name}", fn, lambda a: len(a[1])))
    service.knn_query = _timed("knn.knn_query", service.knn_query)

    store = snapshot.SnapshotStore
    store.current = property(_timed("snapshot.current", store.current.fget))
    store.insert = _timed("snapshot.insert", store.insert)
    store.delete = _timed("snapshot.delete", store.delete)
    batcher.MicroBatcher.next_batch = _timed_async(
        "batcher.next_batch", batcher.MicroBatcher.next_batch
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span dump (JSON)")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args[:1] == ["--"]:
        repro_args = repro_args[1:]

    install()
    from repro.__main__ import main as repro_main

    rc = repro_main(repro_args)
    with open(args.spans, "w") as fh:
        json.dump(SPANS, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
