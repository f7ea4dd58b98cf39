"""Self-test of the benchmark at tiny size.

    python3 -m pytest perfbench -q

Checks that every workload emits every metric of ``BENCHMARK.json``
with its unit in both modes, that the oracle rejects corrupted answers
(directly and through a whole run, which must then exit 1), and that
the command fails without printing a result when the program is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "2", "--rows", "5000"]


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    proc = _cli("--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], float), name
        if not trace:
            assert m["value"] > 0, name


def test_catalogue_matches_benchmark_json():
    from common import E2E, PER_LAYER

    assert [m["name"] for m in SPEC["end_to_end"]] == list(E2E)
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def _cols(n=2000, seed=5):
    rng = np.random.default_rng(seed)
    xl, yl = rng.random(n) * 0.99, rng.random(n) * 0.99
    return oracle.Columns(xl, yl, xl + 0.005, yl + 0.005)


def test_oracle_rejects_corrupted_answers():
    cols = _cols()
    win = {"xl": 0.2, "yl": 0.2, "xu": 0.4, "yu": 0.4}
    ids = cols.answer("window", win)
    assert ids.shape[0] > 2
    assert oracle.check_read("window", win, ids.tolist(), cols)
    assert not oracle.check_read("window", win, ids[1:].tolist(), cols)
    assert not oracle.check_read("window", win, [*ids.tolist(), ids[0]], cols)
    assert not oracle.check_read("count", win, ids.shape[0] + 1, cols)

    knn = {"cx": 0.5, "cy": 0.5, "k": 10}
    d = cols.dists(0.5, 0.5)
    order = np.argsort(d)
    assert oracle.check_read("knn", knn, order[:10].tolist(), cols)
    assert not oracle.check_read("knn", knn, order[1:11].tolist(), cols)


def test_exact_window_oracle():
    from repro.geometry.linestring import LineString

    lines = [LineString([(0.0, 0.0), (1.0, 1.0)]),
             LineString([(0.0, 0.7), (0.35, 1.0)])]
    cols = oracle.Columns([0.0, 0.0], [0.0, 0.7], [1.0, 0.35], [1.0, 1.0])
    segs = oracle.Segments(lines)
    win = {"xl": 0.3, "yl": 0.55, "xu": 0.7, "yu": 0.95}
    # both MBRs meet the window, only the diagonal's polyline does
    assert oracle.exact_window_ok([0], cols, segs, win)
    assert not oracle.exact_window_ok([0, 1], cols, segs, win)


def test_wrong_answer_fails_an_inproc_run(monkeypatch, capsys):
    from repro.api import SpatialCollection

    real = SpatialCollection.count
    monkeypatch.setattr(SpatialCollection, "count",
                        lambda self, *a: real(self, *a) + 1)
    rc = bench.main(["--workload", "inproc-roads", "--trace", "0", *TINY])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and res["correct"] is False and res["failed"] > 0


def test_wrong_answer_fails_a_served_run(monkeypatch, capsys):
    import repro.server.client as client_mod

    real = client_mod.decode_response

    def drop_one_id(line):
        frame = real(line)
        ids = (frame.get("result") or {}).get("ids")
        if ids:
            ids.pop()
        return frame

    monkeypatch.setattr(client_mod, "decode_response", drop_one_id)
    rc = bench.main(["--workload", "solo-mixed", "--trace", "0", *TINY])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and res["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "solo-mixed", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
