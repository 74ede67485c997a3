"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload a-tiered --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout, in one process and one thread,
against the code under ``src/``.  With ``--trace 0`` it measures the
end-to-end metrics; with ``--trace 1`` it first runs the same workload
untraced in a fresh interpreter (the reference for ``trace.overhead`` and
the digest), then runs it with every layer wrapped and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  The full report (all metrics, sample
counts, digest) is written to ``.perfbench_out/``, and the traced run's
spans next to it.

Exit status: 0 when every output checked out, 1 on any correctness
failure, 2 when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 50
LOAD_CHUNK = 5_000
LOADS = 3
MiB = 1024 * 1024
LANES = ("foreground", "wal", "flush", "compaction", "migration", "gc")
BACKGROUND_LANES = ("flush", "compaction", "migration", "gc", "scrub")
REFERENCE_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    BACKGROUND_THREADS, CLIENTS, DATASET_SEED, KEY_BYTES, VALUE_BYTES,
    WORKLOADS, Workload, pairing_for,
)

#: End-to-end metrics: name -> unit.  The order is the report's order.
END_TO_END = {
    "setup_s": "s",
    "load_kops": "kops/s",
    "run_kops": "kops/s",
    "peak_rss_mib": "MiB",
    "sim_kops": "kops/s",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "bg_per_user_byte": "B/B",
    "write_amp": "B/B",
    "read_amp": "B/B",
    "space_amp": "B/B",
    "error_rate": "ratio",
}


#: The end-to-end metrics in the result line (and BENCHMARK.json).  Left
#: out: error_rate, 0 on a correct run (``failed`` carries it), and
#: sim_p50_us, which on rocksdb-a-tiered is the fixed CPU cost of a
#: memtable op on every seed.
GATED = [m for m in END_TO_END if m not in ("error_rate", "sim_p50_us")]


def report_path(workload: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"{workload}-s{seed}-t{trace}.json"


def build(w: Workload):
    """Devices, store and runner for ``w``: the timed set-up.

    The runner is seeded with the fixed ``DATASET_SEED``, which sets the
    values and the load order; ``execute`` reseeds it with the workload
    seed after the load, so the seed drives the request stream.
    """
    from repro.bench.context import BenchScale, build_store
    from repro.ycsb.runner import WorkloadRunner

    scale = BenchScale(
        record_count=w.records, operations=w.round_ops * w.fixed_rounds,
        value_size=VALUE_BYTES, nvme_ratio=w.nvme_ratio, clients=CLIENTS,
        background_threads=BACKGROUND_THREADS, seed=DATASET_SEED,
    )
    store = build_store(w.store, scale)
    runner = WorkloadRunner(
        store, record_count=w.records, value_size=VALUE_BYTES,
        clients=CLIENTS, background_threads=BACKGROUND_THREADS,
        seed=DATASET_SEED, mode="columnar",
    )
    return store, runner


class ReturnedBytes:
    """Counts value bytes the store hands back to the runner's gets and
    scans, by wrapping the two methods on the store instance."""

    def __init__(self, store) -> None:
        self.total = 0
        get_many, scan = store.get_many, store.scan

        def counted_get_many(keys, *args, **kwargs):
            results = get_many(keys, *args, **kwargs)
            self.total += sum(len(v) for v, _ in results if v is not None)
            return results

        def counted_scan(start, count):
            pairs, service = scan(start, count)
            self.total += sum(len(v) for _, v in pairs)
            return pairs, service

        store.get_many = counted_get_many
        store.scan = counted_scan


class CalibratedLoad:
    """Times ``runner.load`` in segments with a calibration between them.

    The runner hands the whole dataset to one ``store.put_many``; wrapping
    that method on the store instance splits it into ``LOAD_CHUNK``-record
    calls (the batch API is exact under splitting: same calls, same order)
    and measures the host's speed after each, so the load's calibration
    samples are spread over its whole duration.
    """

    def __init__(self, store, host) -> None:
        self.host = host
        self.segments: list[float] = []
        self.cals: list[float] = []
        put_many = store.put_many

        def chunked_put_many(keys, values, *args, **kwargs):
            out = []
            for lo in range(0, len(keys), LOAD_CHUNK):
                out.extend(put_many(
                    keys[lo:lo + LOAD_CHUNK], values[lo:lo + LOAD_CHUNK],
                    *args, **kwargs,
                ))
                self._mark()
            return out

        self._restore = lambda: setattr(store, "put_many", put_many)
        store.put_many = chunked_put_many

    def _mark(self) -> None:
        self.segments.append(time.perf_counter() - self._t0)
        self.cals.append(self.host.measure())
        self._t0 = time.perf_counter()

    def run(self, runner) -> float:
        """``runner.load()``; returns its simulated service seconds."""
        self.cals.append(self.host.measure())
        self._t0 = time.perf_counter()
        service = runner.load()
        self._mark()
        self._restore()
        return service

    def scaled_kops(self, records: int) -> float:
        """Load throughput scaled by the median calibration time."""
        from hostspeed import speed_factor

        return (records / sum(self.segments) / 1e3
                * speed_factor(statistics.median(self.cals)))


def ledger(store) -> dict:
    """device -> lane -> fields, from the devices' traffic ledgers."""
    return {name: d.traffic.snapshot() for name, d in store.devices().items()}


def busy(fields: dict) -> float:
    return (
        fields["read_latency_s"] + fields["read_transfer_s"]
        + fields["write_latency_s"] + fields["write_transfer_s"]
    )


def simulated_metrics(w, results, lg, returned, space) -> dict:
    """The simulated end-to-end metrics.

    Throughput, latency and read amplification cover the ``sim_rounds``
    after the warm-up (``returned`` value bytes came back in them);
    ``space`` holds their end-of-round space amplifications.  Background,
    write and user bytes are cumulative over the load and every fixed round.
    """
    from repro.common.stats import LatencyHistogram

    window = results[w.warm_rounds:]
    ops = sum(r.operations for r in window)
    elapsed = sum(r.elapsed_s for r in window)
    hist = LatencyHistogram(initial_capacity=max(16, ops))
    for r in window:
        hist.merge(r.overall_latency)
    writes = w.records + sum(
        r.latency_by_op[op].count
        for r in results for op in ("update", "insert", "rmw")
        if op in r.latency_by_op
    )
    user_written = writes * (KEY_BYTES + VALUE_BYTES)
    written = sum(f["write_bytes"] for lanes in lg.values() for f in lanes.values())
    background = sum(
        f["read_bytes"] + f["write_bytes"]
        for lanes in lg.values() for lane, f in lanes.items()
        if lane in BACKGROUND_LANES
    )
    fg_read = sum(
        r.traffic[d]["foreground"]["read_bytes"] for r in window for d in r.traffic
    )
    return {
        "sim_kops": ops / elapsed / 1e3,
        "sim_p50_us": hist.median * 1e6,
        "sim_p99_us": hist.p99 * 1e6,
        "bg_per_user_byte": background / user_written,
        "write_amp": written / user_written,
        "read_amp": fg_read / returned if returned else 0.0,
        "space_amp": statistics.fmean(space),
        "latency_samples": hist.count,
    }


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, store, results, lg, cache0) -> dict:
    """Per-layer metrics of the traced section (load + fixed rounds)."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    m = {}
    for name in (
        "ycsb.runner", "ycsb.load", "ycsb.keygen", "core.put", "core.get",
        "core.scan", "nvme.put", "nvme.get", "nvme.zone.write", "nvme.zone.read",
        "nvme.pagestore", "nvme.keys_in_range", "migration.demote",
        "migration.promote", "hotness", "lsm.semi.ingest", "lsm.semi.compaction",
        "lsm.semi.get", "lsm.semi.scan", "lsm.blocks.decode",
        "lsm.iterator.merge", "lsm.tree.put", "lsm.tree.get", "lsm.wal",
        "lsm.flush", "lsm.compaction", "lsm.sstable", "common.btree",
        "common.bloom.hash", "simssd.charge",
    ):
        m[f"{name}.self_s"] = self_s(name)
    for name in (
        "nvme.put", "nvme.get", "migration.demote", "lsm.semi.get",
        "lsm.blocks.decode", "simssd.charge",
    ):
        m[f"{name}.calls"] = calls(name)

    counts = tracer.counts
    hyper = hasattr(store, "performance_tier")
    counters = store.stats.snapshot()["counters"] if hyper else {}
    gets = counters.get("gets", 0)
    m["core.nvme_hit_rate"] = _rate(counters.get("nvme_hits", 0), gets)
    m["core.sata_hit_rate"] = _rate(counters.get("sata_hits", 0), gets)
    m["core.staging_hit_rate"] = _rate(counters.get("staging_hits", 0), gets)
    m["migration.promote.staged"] = counters.get("promotions_staged", 0)

    m["nvme.zone_writes_per_put"] = _rate(calls("nvme.zone.write"), calls("nvme.put"))
    if hyper:
        tier = store.performance_tier
        m["nvme.zones"] = sum(len(p.zones()) for p in tier.partitions)
        m["migration.demoted_mib"] = store.migration.stats.demoted_bytes / MiB
        cap = store.capacity_tier
        m["lsm.semi.compaction.rewrite_mib"] = (
            cap.compactor.stats.total_write_bytes() / MiB
        )
        m["lsm.semi.space_amp"] = cap.space_amplification()
    else:
        m["nvme.zones"] = 0
        m["migration.demoted_mib"] = 0.0
        m["lsm.semi.compaction.rewrite_mib"] = 0.0
        m["lsm.semi.space_amp"] = 0.0
    tree = getattr(store, "tree", None)
    m["lsm.compaction.rewrite_mib"] = (
        tree.compactor.stats.total_write_bytes() / MiB if tree is not None else 0.0
    )

    m["lsm.blocks.decode_memo_hit_rate"] = _rate(
        counts.get("decode.memo_hits", 0), calls("lsm.blocks.decode")
    )
    m["common.bloom.probe.calls"] = counts.get("bloom.probes", 0)
    m["common.bloom.positive_rate"] = _rate(
        counts.get("bloom.positives", 0), counts.get("bloom.probes", 0)
    )
    m["common.bloom.hash_memo_hit_rate"] = _rate(
        counts.get("hash.memo_hits", 0), calls("common.bloom.hash")
    )
    cache = store.cache
    hits, misses = cache.hits - cache0[0], cache.misses - cache0[1]
    m["common.cache.hit_rate"] = _rate(hits, hits + misses)
    m["common.cache.evictions"] = cache.evictions - cache0[2]

    elapsed = sum(r.elapsed_s for r in results)
    for dev, lanes in lg.items():
        for lane in LANES:
            f = lanes[lane]
            m[f"simssd.{dev}.{lane}.read_mib"] = f["read_bytes"] / MiB
            m[f"simssd.{dev}.{lane}.write_mib"] = f["write_bytes"] / MiB
            m[f"simssd.{dev}.{lane}.ios"] = f["read_ios"] + f["write_ios"]
            m[f"simssd.{dev}.{lane}.busy_s"] = busy(f)
        run_busy = sum(busy(f) for r in results for f in r.traffic[dev].values())
        m[f"simssd.{dev}.rho"] = min(0.95, run_busy / elapsed)
    return m


def run_reference(args) -> dict:
    """The same workload untraced, in a fresh interpreter; its report."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"untraced reference run exited {proc.returncode}")
    return json.loads(report_path(args.workload, args.seed, 0).read_text())


def execute(w: Workload, seed: int, seconds: float, tracer=None) -> dict:
    """Set up, load, run and verify one workload; every measurement."""
    from repro.ycsb.workload import YCSB_WORKLOADS

    from hostspeed import HostSpeed, speed_factor
    from oracle import Oracle, digest

    spec = YCSB_WORKLOADS[w.mix]
    host = HostSpeed()
    setup_times, setup_cals = [], []
    for i in range(SETUP_REPEATS):
        if i % 10 == 0:
            setup_cals.append(host.measure())
        t0 = time.perf_counter()
        store, runner = build(w)
        setup_times.append(time.perf_counter() - t0)
    setup_cals.append(host.measure())
    returned = ReturnedBytes(store)
    oracle = Oracle(DATASET_SEED, w.records, VALUE_BYTES)
    cache0 = (store.cache.hits, store.cache.misses, store.cache.evictions)

    attempted = failed = 0
    results, round_s, space = [], [], []
    lg = None
    returned_warm = inserts = rounds = 0
    if tracer is not None:
        tracer.active = True
    load_rates = []
    if tracer is None:
        # Extra loads of the same dataset into throwaway stores: one load
        # is a single 3-5 s sample of a host whose speed drifts.
        for _ in range(LOADS - 1):
            extra_store, extra_runner = build(w)
            extra = CalibratedLoad(extra_store, host)
            extra.run(extra_runner)
            load_rates.append(extra.scaled_kops(w.records))
            del extra_store, extra_runner, extra
            gc.collect()
    load = CalibratedLoad(store, host)
    load_service = load.run(runner)
    load_rates.append(load.scaled_kops(w.records))
    cals = []  # calibration time after every round
    attempted += w.records
    runner.rng = np.random.default_rng(seed)
    run_start = time.perf_counter()
    while rounds < w.fixed_rounds or (
        tracer is None and time.perf_counter() - run_start < seconds
    ):
        if tracer is not None:
            tracer.batch = rounds + 1
        t0 = time.perf_counter()
        try:
            result = runner.run(spec, w.round_ops)
        except Exception:
            # A raised op fails the run; report it instead of crashing so
            # the failure shows in error_rate.
            traceback.print_exc()
            attempted += w.round_ops
            failed += w.round_ops
            break
        round_s.append(time.perf_counter() - t0)
        cals.append(host.measure())
        attempted += w.round_ops
        rounds += 1
        if "insert" in result.latency_by_op:
            inserts += result.latency_by_op["insert"].count
        if rounds > w.fixed_rounds:
            continue
        results.append(result)
        if rounds == w.warm_rounds:
            returned_warm = returned.total
        elif rounds > w.warm_rounds:
            used = sum(d.used_bytes for d in store.devices().values())
            space.append(used / ((w.records + inserts) * (KEY_BYTES + VALUE_BYTES)))
        if rounds == w.fixed_rounds:
            lg = ledger(store)
            returned_fixed = returned.total
    if tracer is not None:
        tracer.active = False

    report = {
        "workload": w.name, "seed": seed, "rounds": rounds,
        "fixed_rounds": w.fixed_rounds, "round_ops": w.round_ops,
        "setup_s": statistics.median(setup_times)
        / speed_factor(statistics.median(setup_cals)),
        "load_kops": statistics.median(load_rates),
        "run_kops": statistics.median(w.round_ops / s for s in round_s) / 1e3
        * speed_factor(statistics.median(cals)) if round_s else 0.0,
        "host_speed_factor": speed_factor(statistics.median(cals))
        if cals else 1.0,
        "timings": {
            "setup_s": setup_times, "setup_cals": setup_cals,
            "load_kops": load_rates,
            "load_segments": load.segments, "load_cals": load.cals,
            "round_s": round_s, "round_cals": cals,
        },
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if lg is not None:
        report.update(simulated_metrics(
            w, results, lg, returned_fixed - returned_warm, space
        ))
        report["digest"] = digest(load_service, results, returned_fixed)
        if tracer is not None:
            report["layers"] = layer_metrics(tracer, store, results, lg, cache0)

    live = w.records + inserts
    reads, bad = oracle.read_back(store, live)
    attempted += reads
    failed += bad
    report["readback_mismatches"] = bad
    if spec.scan > 0:
        scans, bad_scans = oracle.check_scans(store, live, spec.scan_length, seed)
        attempted += scans
        failed += bad_scans
        report["scan_mismatches"] = bad_scans
    report["attempted"] = attempted
    report["failed"] = failed
    report["error_rate"] = failed / attempted
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    w = WORKLOADS[args.workload]

    tracer = reference = None
    if args.trace:
        from tracing import Tracer

        reference = run_reference(args)
        tracer = Tracer()
        tracer.install()
    report = execute(w, args.seed, args.seconds, tracer)
    correct = report["failed"] == 0 and "digest" in report

    print(f"workload {w.name}: {w.store}, {w.records} records, "
          f"nvme_ratio {w.nvme_ratio}, YCSB-{w.mix}, seed {args.seed}, "
          f"{report['rounds']} rounds x {w.round_ops} ops "
          f"({w.warm_rounds} warm-up + {w.sim_rounds} simulated)")
    if tracer is None:
        print(f"  (wall-clock figures scaled by host speed factor "
              f"{report['host_speed_factor']:.3f}; see hostspeed.py)")
        for name, unit in END_TO_END.items():
            note = ""
            if name.startswith("sim_p"):
                note = f"  (n={report.get('latency_samples', 0)} samples)"
            print(f"  {name:<18} {report.get(name, float('nan')):>14.6g} {unit}{note}")
        metrics = {
            name: {"value": report[name], "unit": END_TO_END[name]}
            for name in GATED if name in report
        }
    else:
        layers = report.get("layers", {})
        layers["trace.overhead"] = _rate(report["run_kops"], reference["run_kops"])
        layers["trace.spans"] = len(tracer.span_name)
        report["layers"] = layers
        report["reference_digest"] = reference.get("digest")
        if reference.get("digest") != report.get("digest"):
            print("traced digest differs from the untraced digest", file=sys.stderr)
            correct = False
        for name, value in layers.items():
            moves, on = pairing_for(name)
            print(f"  {name:<40} {value:>14.6g}   moves {moves} on {on}")
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in layers.items()
        }
        tracer.write(OUT_DIR / f"spans-{w.name}-s{args.seed}.npz")
        tracer.uninstall()
    print(f"DIGEST {w.name} seed={args.seed} {report.get('digest')}")
    report["correct"] = correct
    OUT_DIR.mkdir(exist_ok=True)
    report_path(w.name, args.seed, args.trace).write_text(
        json.dumps(report, indent=1, sort_keys=True)
    )
    print(json.dumps({
        "correct": correct, "attempted": report["attempted"],
        "failed": report["failed"], "metrics": metrics,
    }))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_mib"):
        return "MiB"
    if last in ("calls", "ios", "zones", "evictions", "staged", "spans"):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
