"""Batched request pipeline equivalence (the batching contract).

The batch entry points (``put_many``/``get_many``/``delete_many``, the
cluster router batches) are control-flow fusion only: every test here
asserts *bit-identical* results against the same ops issued one by one —
service floats, per-op busy rows, traffic ledgers, and counter registries
including insertion order.  The workload runner drives every store
through these batch calls, so this contract is what keeps a run's
results equal to a scalar replay of the same op stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.context import BenchScale, build_store, hyperdb_config
from repro.common.errors import CorruptionError, DeviceOfflineError
from repro.common.keys import encode_key, encode_keys
from repro.core import HyperDB
from repro.core.interface import KVStore
from repro.simssd import NVME_PROFILE, SATA_PROFILE, SimDevice
from repro.ycsb.distributions import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)
from repro.ycsb.workload import YCSB_WORKLOADS

from tests.test_columnar_equivalence import _faulted_hyperdb

SCALE_KW = dict(
    record_count=600,
    operations=600,
    value_size=96,
    clients=4,
    background_threads=4,
    seed=11,
)

# ------------------------------------------------- YCSB-shaped op streams

#: Replay scale: a 128 KiB NVMe tier overflows during the load, so
#: watermark migration runs inside ``put_many`` batches.
REPLAY_RECORDS = 1200
REPLAY_OPERATIONS = 800
REPLAY_SCALE = BenchScale(record_count=REPLAY_RECORDS, value_size=96, seed=11)
SCAN_LENGTH = 20
OPS = ("read", "update", "insert", "scan", "rmw")


def _replay_hyperdb() -> HyperDB:
    nvme = SimDevice(NVME_PROFILE.with_capacity(128 * 1024))
    sata = SimDevice(SATA_PROFILE.with_capacity(REPLAY_SCALE.sata_bytes))
    return HyperDB(nvme, sata, hyperdb_config(REPLAY_SCALE))


REPLAY_STORES = {
    "hyperdb": _replay_hyperdb,
    "rocksdb": lambda: build_store("rocksdb", REPLAY_SCALE),
    "faulted-hyperdb": lambda: _faulted_hyperdb(REPLAY_SCALE),
}


def _op_stream(workload: str) -> list[tuple[str, int]]:
    """``(op, key id)`` pairs drawn like a YCSB run of ``workload``."""
    spec = YCSB_WORKLOADS[workload]
    rng = np.random.default_rng(5)
    mix = np.array([spec.read, spec.update, spec.insert, spec.scan, spec.rmw])
    codes = rng.choice(len(OPS), size=REPLAY_OPERATIONS, p=mix / mix.sum())
    if spec.distribution == "uniform":
        gen = UniformGenerator(REPLAY_RECORDS, rng)
    elif spec.distribution == "latest":
        gen = LatestGenerator(REPLAY_RECORDS, rng, spec.theta)
    else:
        gen = ScrambledZipfianGenerator(REPLAY_RECORDS, rng, spec.theta)
    next_id = REPLAY_RECORDS
    stream = []
    for code in codes.tolist():
        if OPS[code] == "insert":
            kid = next_id
            next_id += 1
            gen.set_item_count(next_id)
        else:
            kid = int(gen.next())
        stream.append((OPS[code], kid))
    return stream


def _value(kid: int, version: int) -> bytes:
    # The size changes from write to write, so updates also take the
    # resized-slot path (a direct charge inside a deferred charge group).
    return bytes([kid % 251]) * (40 + (kid * 7 + version * 13) % 120)


def _busy_row(devs) -> tuple:
    return tuple(d.busy_seconds() for d in devs)


def _replay_scalar(store, load_ids, stream):
    """Every op through ``put``/``get``/``scan``; a busy row after each."""
    devs = list(store.devices().values())
    results, rows = [], []
    for kid in load_ids:
        results.append(store.put(encode_key(kid), _value(kid, 0)))
        rows.append(_busy_row(devs))
    store.finalize()
    for pos, (op, kid) in enumerate(stream, 1):
        key = encode_key(kid)
        if op == "read":
            results.append(store.get(key))
        elif op == "scan":
            results.append(store.scan(key, SCAN_LENGTH))
        elif op == "rmw":
            results.append((store.get(key), store.put(key, _value(kid, pos))))
        else:
            results.append(store.put(key, _value(kid, pos)))
        rows.append(_busy_row(devs))
    store.finalize()
    return results, rows


def _replay_batched(store, load_ids, stream):
    """The load as one ``put_many``, then contiguous same-type slices
    through ``get_many``/``put_many`` (busy rows from ``busy_out``);
    scans stay scalar and each read-modify-write is two one-op batches."""
    devs = list(store.devices().values())
    rows: list = []
    results = store.put_many(
        encode_keys(load_ids), [_value(k, 0) for k in load_ids], busy_out=rows
    )
    store.finalize()
    i = 0
    while i < len(stream):
        op = stream[i][0]
        j = i + 1
        while j < len(stream) and stream[j][0] == op:
            j += 1
        kids = [kid for _, kid in stream[i:j]]
        keys = encode_keys(kids)
        if op == "read":
            results.extend(store.get_many(keys, busy_out=rows))
        elif op == "scan":
            for key in keys:
                results.append(store.scan(key, SCAN_LENGTH))
                rows.append(_busy_row(devs))
        elif op == "rmw":
            for pos, (kid, key) in enumerate(zip(kids, keys), i + 1):
                got = store.get_many([key])[0]
                put = store.put_many([key], [_value(kid, pos)])[0]
                results.append((got, put))
                rows.append(_busy_row(devs))
        else:
            values = [_value(kid, pos) for pos, kid in enumerate(kids, i + 1)]
            results.extend(store.put_many(keys, values, busy_out=rows))
        i = j
    store.finalize()
    return results, rows


def _counters(store) -> list:
    stats = store.stats if hasattr(store, "stats") else store.tree.stats
    return [(name, c.value) for name, c in stats.counters.items()]


def _ledgers(store) -> dict:
    return {name: d.traffic.snapshot() for name, d in store.devices().items()}


def _assert_batches_match_scalar(store_name: str, workload: str) -> None:
    load_ids = np.random.default_rng(3).permutation(REPLAY_RECORDS).tolist()
    stream = _op_stream(workload)
    batched = REPLAY_STORES[store_name]()
    scalar = REPLAY_STORES[store_name]()
    res_b, rows_b = _replay_batched(batched, load_ids, stream)
    res_s, rows_s = _replay_scalar(scalar, load_ids, stream)

    assert len(res_b) == len(rows_b) == REPLAY_RECORDS + REPLAY_OPERATIONS
    assert res_b == res_s, "services or returned values diverge"
    # ``busy_out`` rows are the snapshots a scalar caller takes after
    # each op: the runner's latency attribution depends on them.
    assert rows_b == rows_s, "busy rows diverge"
    assert _ledgers(batched) == _ledgers(scalar)
    # Values AND insertion order: the fused paths must create counters
    # lazily exactly where the scalar calls do.
    assert _counters(batched) == _counters(scalar)
    if store_name == "hyperdb":
        nvme = _ledgers(batched)["nvme"]
        assert nvme["migration"]["read_bytes"] > 0, "no migration ran"


@pytest.mark.parametrize("workload", sorted(YCSB_WORKLOADS))
def test_hyperdb_batched_equals_per_op(workload):
    _assert_batches_match_scalar("hyperdb", workload)


@pytest.mark.parametrize("workload", sorted(YCSB_WORKLOADS))
def test_rocksdb_batched_equals_per_op(workload):
    _assert_batches_match_scalar("rocksdb", workload)


@pytest.mark.parametrize("workload", sorted(YCSB_WORKLOADS))
def test_faulted_hyperdb_batched_equals_per_op(workload):
    _assert_batches_match_scalar("faulted-hyperdb", workload)


# ----------------------------------------------------- store-level batches


def _small_store(name: str):
    return build_store(name, BenchScale(**SCALE_KW))


@pytest.mark.parametrize("store_name", ["hyperdb", "rocksdb"])
def test_store_batch_methods_match_loops(store_name):
    keys = encode_keys(list(range(64)))
    values = [b"v%060d" % i for i in range(64)]

    s1 = _small_store(store_name)
    busy_rows: list = []
    put_services = s1.put_many(keys, values, busy_out=busy_rows)
    del_services = s1.delete_many(keys[::3], busy_out=busy_rows)
    get_results = s1.get_many(keys)

    s2 = _small_store(store_name)
    exp_services = []
    exp_rows = []
    devs = list(s2.devices().values())
    for k, v in zip(keys, values):
        exp_services.append(s2.put(k, v))
        exp_rows.append(tuple(d.busy_seconds() for d in devs))
    exp_del = []
    for k in keys[::3]:
        exp_del.append(s2.delete(k))
        exp_rows.append(tuple(d.busy_seconds() for d in devs))
    exp_get = [s2.get(k) for k in keys]

    assert put_services == exp_services
    assert del_services == exp_del
    assert get_results == exp_get
    assert [v for v, _ in get_results[::3]] == [None] * len(keys[::3])
    # The batch's per-op busy rows are the same snapshots a per-op
    # caller would take after each call.
    assert busy_rows == exp_rows
    assert _ledgers(s1) == _ledgers(s2)
    assert _counters(s1) == _counters(s2)


class _CorruptKeyStore(KVStore):
    """A dict store whose ``get`` of one key fails its checksum."""

    name = "corrupt-key"

    def __init__(self, bad_key: bytes, offline_key: bytes) -> None:
        self.bad_key = bad_key
        self.offline_key = offline_key
        self.data: dict = {}
        self.gets: list = []

    def put(self, key, value):
        self.data[key] = value
        return 1e-6

    def get(self, key):
        self.gets.append(key)
        if key == self.bad_key:
            raise CorruptionError(f"checksum mismatch reading {key!r}")
        if key == self.offline_key:
            raise DeviceOfflineError("device offline")
        return self.data.get(key), 2e-6

    def delete(self, key):
        self.data.pop(key, None)
        return 1e-6

    def scan(self, start, count):
        return [], 0.0

    def devices(self):
        return {}


def test_default_get_many_captures_detected_corruption():
    """The ``KVStore`` default captures a detected corrupt read like
    HyperDB does: the error lands in its slot and later keys are served."""
    keys = encode_keys(list(range(6)))
    store = _CorruptKeyStore(bad_key=keys[2], offline_key=keys[4])
    store.put_many(keys, [b"v%d" % i for i in range(6)])
    slots = store.get_many(keys, capture_errors=True)
    assert store.gets == keys
    assert isinstance(slots[2], CorruptionError)
    assert isinstance(slots[4], DeviceOfflineError)
    assert [slots[i] for i in (0, 1, 3, 5)] == [
        (b"v%d" % i, 2e-6) for i in (0, 1, 3, 5)
    ]
    with pytest.raises(CorruptionError):
        store.get_many(keys)


def test_encode_keys_matches_scalar_encoding():
    ids = [0, 1, 2, 1000, 2**31, 2**40 + 17]
    assert encode_keys(ids) == [encode_key(i) for i in ids]
    assert encode_keys(np.array(ids, dtype=np.int64)) == [
        encode_key(i) for i in ids
    ]
    assert encode_keys([]) == []
    with pytest.raises(ValueError):
        encode_keys([-1])


def test_used_pages_counter_matches_recomputed():
    """The O(1) incremental page counter equals a fresh per-zone sum."""
    store = _small_store("hyperdb")
    keys = encode_keys(list(range(500)))
    values = [b"x" * 90 for _ in keys]
    store.put_many(keys, values)
    for partition in store.performance_tier.partitions:
        recomputed = partition.hot_zone.total_pages() + sum(
            z.total_pages() for z in partition.zones()
        )
        assert partition.used_pages == recomputed


# ------------------------------------------------------- cluster batches


def _cluster(windows=()):
    from repro.cluster.router import ClusterConfig, HyperDBCluster

    return HyperDBCluster(
        ClusterConfig(num_nodes=3, replication_factor=3), windows=windows, seed=3
    )


def test_cluster_batches_match_per_op():
    keys = encode_keys(list(range(40)))
    values = [b"cv%038d" % i for i in range(40)]

    c1 = _cluster()
    put_b = c1.put_many(keys, values)
    get_b = c1.get_many(keys)
    del_b = c1.delete_many(keys[:10])

    c2 = _cluster()
    put_p = [c2.put(k, v) for k, v in zip(keys, values)]
    get_p = [c2.get(k) for k in keys]
    del_p = [c2.delete(k) for k in keys[:10]]

    assert put_b == put_p
    assert get_b == get_p
    assert del_b == del_p
    assert c1.counters() == c2.counters()


def test_cluster_batch_capture_errors():
    from repro.common.errors import QuorumError
    from repro.health.state import HealthState, HealthWindow

    keys = encode_keys(list(range(30)))
    values = [b"w" * 40 for _ in keys]
    # All three nodes offline for a stretch of ticks: quorum writes in
    # that range must surface as captured QuorumError slots.
    windows = tuple(
        HealthWindow(f"node-{i}", HealthState.OFFLINE, 5, 20) for i in range(3)
    )
    cluster = _cluster(windows=windows)
    slots = cluster.put_many(keys, values, capture_errors=True)
    assert len(slots) == len(keys)
    errs = [s for s in slots if isinstance(s, QuorumError)]
    oks = [s for s in slots if isinstance(s, float)]
    assert errs, "expected quorum failures inside the outage window"
    assert oks, "expected acked writes outside the outage window"
    # Without capture_errors the same stream raises.
    cluster2 = _cluster(windows=windows)
    with pytest.raises(QuorumError):
        cluster2.put_many(keys, values)
