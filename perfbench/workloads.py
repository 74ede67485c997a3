"""The benchmark's workloads, and which layer metric moves which end-to-end one.

Every workload is Zipfian (theta 0.99) with 8 B keys and 128 B values over
the ``BenchScale`` geometry; only the engine, the record count, the NVMe
capacity ratio and the YCSB mix vary.  The load is a closed loop of 8
simulated clients driven through ``WorkloadRunner`` in one thread.

The dataset -- every value and the load order -- comes from the fixed
``DATASET_SEED``; the workload seed drives the request stream (op mix,
keys, latency noise).  The load order decides whether the few hottest
Zipfian keys start on NVMe or SATA, which alone moves a-tiered's simulated
throughput by about 20% (79-98 kops/s over six load orders, against
83.0-84.6 over six request streams on one load order).

The run phase is split into rounds of ``round_ops`` requests.  The first
``warm_rounds + sim_rounds`` rounds are fixed work: the traced per-layer
numbers and the digest cover them and the load, so they repeat exactly at
a fixed seed.  The simulated throughput, latency, read and space
amplification come from the ``sim_rounds`` after the warm-up, once the hot
set has settled into NVMe; the window spans several demotion and
compaction bursts on the tiered workloads.  Further rounds run until the
wall-clock budget is spent and only add samples to the wall-clock
``run_kops``.
"""

from __future__ import annotations

from dataclasses import dataclass

KEY_BYTES = 8
VALUE_BYTES = 128
DATASET_SEED = 7
CLIENTS = 8
BACKGROUND_THREADS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    store: str          # a ``repro.bench.context.STORE_NAMES`` entry
    records: int
    nvme_ratio: float
    mix: str            # a ``repro.ycsb.workload.YCSB_WORKLOADS`` key
    round_ops: int
    warm_rounds: int
    sim_rounds: int
    why: str

    @property
    def fixed_rounds(self) -> int:
        return self.warm_rounds + self.sim_rounds


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "b-fit", "hyperdb", 100_000, 3.0, "B", 10_000, 2, 20,
            "HyperDB 1e5 recs, nvme_ratio 3.0, YCSB-B 95/5 zipf .99: all "
            "data fits NVMe; stresses nvme zones, B-tree, DRAM LRU; control "
            "that bypasses migration and lsm.semi",
        ),
        Workload(
            "a-tiered", "hyperdb", 100_000, 0.35, "A", 4_000, 10, 22,
            "HyperDB 1e5 recs, nvme_ratio 0.35, YCSB-A 50/50 zipf .99: the "
            "paper's background-traffic regime, constant demotion and "
            "semi-SSTable compaction, ~29% of gets from SATA",
        ),
        Workload(
            "e-scan", "hyperdb", 30_000, 0.35, "E", 100, 2, 80,
            "HyperDB 3e4 recs, nvme_ratio 0.35, YCSB-E 95% scan(50)/5% insert "
            "zipf .99: the range path (keys_in_range, semi scan with "
            "prefetch, merge); the 1e4-scale point",
        ),
        Workload(
            "rocksdb-a-tiered", "rocksdb", 100_000, 0.35, "A", 4_000, 4, 24,
            "RocksDB baseline, same geometry and YCSB-A mix as a-tiered: the "
            "only run of the classic lsm layer (memtable, WAL, SSTable, "
            "leveled compaction); HyperDB-vs-RocksDB pair",
        ),
    )
}

#: Per-layer metric prefix -> (end-to-end metrics it should move, workloads
#: on which it should move them).  Printed with the traced run's report.
PAIRINGS: dict[str, tuple[str, str]] = {
    "ycsb.": ("run_kops", "all; largest share on b-fit"),
    "core.": ("run_kops, sim_kops", "b-fit, a-tiered"),
    "nvme.": ("load_kops", "the three HyperDB workloads"),
    "migration.": (
        "load_kops, run_kops, bg_per_user_byte", "a-tiered (zero on b-fit)"
    ),
    "hotness.": ("run_kops", "a-tiered"),
    "lsm.semi.": ("run_kops, bg_per_user_byte, space_amp", "a-tiered, e-scan"),
    "lsm.": (
        "run_kops, load_kops, write_amp",
        "rocksdb-a-tiered; decode and merge also a-tiered, e-scan",
    ),
    "common.bloom.": ("run_kops", "a-tiered, rocksdb-a-tiered"),
    "common.cache.": ("run_kops, sim_kops", "all"),
    "common.btree.": ("run_kops", "b-fit"),
    "simssd.": ("run_kops; busy_s -> sim_kops; rho -> sim_p99_us", "all"),
    "trace.": ("(tracing cost, not a layer)", "all"),
}


def pairing_for(metric: str) -> tuple[str, str]:
    """The longest ``PAIRINGS`` prefix matching ``metric``."""
    best = max((p for p in PAIRINGS if metric.startswith(p)), key=len)
    return PAIRINGS[best]
