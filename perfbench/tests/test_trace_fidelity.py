"""The traced run observes the code the timed run executes, and nothing else.

    python3 -m pytest perfbench/tests -q

Each workload runs once with ``--trace 1`` (which itself runs the untraced
reference in a fresh interpreter first), three to four minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SEED = 11

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Spans that must fire (calls > 0) on the workload that stresses them.
MUST_FIRE = {
    "b-fit": (
        "core.put", "core.get", "nvme.put", "nvme.get", "nvme.zone.write",
        "nvme.zone.read", "nvme.pagestore", "common.btree", "hotness",
        "ycsb.runner", "ycsb.keygen", "simssd.charge", "lsm.blocks.decode",
    ),
    "a-tiered": (
        "core.put", "core.get", "nvme.put", "migration.demote", "hotness",
        "lsm.semi.ingest", "lsm.semi.get", "lsm.semi.compaction",
        "lsm.blocks.decode", "common.bloom.probe", "common.bloom.hash",
    ),
    "e-scan": (
        "core.scan", "nvme.keys_in_range", "lsm.semi.scan",
        "lsm.iterator.merge", "lsm.blocks.decode",
    ),
    "rocksdb-a-tiered": (
        "lsm.tree.put", "lsm.tree.get", "lsm.wal", "lsm.flush",
        "lsm.compaction", "lsm.sstable", "lsm.blocks.decode",
        "lsm.iterator.merge", "common.bloom.probe", "simssd.charge",
    ),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    """(report, spans) of one traced run of a workload."""
    name = request.param
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = ROOT / ".perfbench_out"
    report = json.loads((out / f"{name}-s{SEED}-t1.json").read_text())
    with np.load(out / f"spans-{name}-s{SEED}.npz") as z:
        spans = {k: z[k] for k in z.files}
    return name, report, spans


def span_calls(spans) -> dict[str, int]:
    counts = np.bincount(spans["name"], minlength=len(spans["names"]))
    return {str(n): int(c) for n, c in zip(spans["names"], counts)}


def test_traced_digest_equals_untraced(traced):
    _, report, _ = traced
    assert report["correct"]
    assert report["digest"] == report["reference_digest"]
    assert report["failed"] == 0


def test_layer_spans_fire(traced):
    name, _, spans = traced
    calls = span_calls(spans)
    silent = [s for s in MUST_FIRE[name] if calls.get(s, 0) == 0]
    assert not silent, f"{name}: no spans for {silent}"


def test_self_time_matches_spans(traced):
    """Self time recomputed from the written spans equals the report's."""
    _, report, spans = traced
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    own = np.bincount(spans["name"], weights=dur - child,
                      minlength=len(spans["names"]))
    for i, n in enumerate(spans["names"]):
        key = f"{n}.self_s"
        if key in report["layers"]:
            assert report["layers"][key] == pytest.approx(own[i], rel=1e-6, abs=1e-9)


def test_bypass_predictions(traced):
    name, report, spans = traced
    layers = report["layers"]
    if name == "b-fit":
        for dev in ("nvme", "sata"):
            assert layers[f"simssd.{dev}.migration.read_mib"] == 0
            assert layers[f"simssd.{dev}.migration.write_mib"] == 0
        assert layers["migration.demote.calls"] == 0
        assert layers["simssd.sata.foreground.read_mib"] == 0
        assert layers["core.sata_hit_rate"] == 0
    elif name == "rocksdb-a-tiered":
        fired = {n for n, c in span_calls(spans).items() if c}
        assert not {n for n in fired if n.startswith(("nvme.", "lsm.semi."))}
        assert not {n for n in fired if n.startswith(("core.", "migration."))}
    else:
        pytest.skip("no bypass prediction for this workload")


def test_tracer_does_not_install_the_program_recorder():
    """The runner takes its per-op path whenever obs.RECORDER is set; the
    tracer must leave it alone so the traced code is the timed code."""
    from repro import obs

    tracer = Tracer()
    tracer.install()
    try:
        assert obs.RECORDER is None
    finally:
        tracer.uninstall()


def test_self_time_and_same_name_collapse():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_t = tracer.wrap(leaf, "leaf")

    def inner():
        leaf_t()

    inner_t = tracer.wrap(inner, "outer")  # same name as its caller

    def outer():
        time.sleep(0.002)
        inner_t()

    outer_t = tracer.wrap(outer, "outer")
    tracer.active = True
    outer_t()
    tracer.active = False
    totals = tracer.totals()
    assert totals["outer"][0] == 1 and totals["leaf"][0] == 1
    assert list(tracer.span_parent) == [-1, 0]
    outer_dur = tracer.span_end[0] - tracer.span_start[0]
    leaf_dur = tracer.span_end[1] - tracer.span_start[1]
    assert totals["outer"][1] == pytest.approx(outer_dur - leaf_dur)
    assert totals["leaf"][1] == pytest.approx(leaf_dur)


def test_segmented_load_is_exact():
    """Splitting the load's put_many for calibration changes nothing the
    simulation computes."""
    import run
    from hostspeed import HostSpeed

    w = WORKLOADS["e-scan"]
    plain_store, plain_runner = run.build(w)
    plain_service = plain_runner.load()
    store, runner = run.build(w)
    load = run.CalibratedLoad(store, HostSpeed())
    assert load.run(runner) == plain_service
    assert len(load.segments) == -(-w.records // run.LOAD_CHUNK) + 1
    assert run.ledger(store) == run.ledger(plain_store)


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "b-fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
