"""Range-scan index paths: pinned YCSB-E behaviour, the tombstone window,
and equivalence of the bounded index listings with their unbounded forms."""

import hashlib
import json

import numpy as np
import pytest

from repro.bench.context import BenchScale, build_store
from repro.common.cache import LRUCache
from repro.common.keys import KeyRange, decode_key, encode_key
from repro.common.records import Record
from repro.core import HyperDB, HyperDBConfig
from repro.core.hyperdb import SCAN_CHUNK
from repro.lsm.semi import CapacityTier, SemiLevelConfig, SemiSSTable
from repro.nvme import NVMeConfig, PerformanceTier
from repro.nvme.partition import Partition
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind
from repro.ycsb.distributions import ScrambledZipfianGenerator

KiB = 1024
MiB = 1024 * KiB

#: sha256 of :func:`ycsb_e_digest` — scan results, service times and both
#: devices' traffic ledgers of a small YCSB-E load and run.
YCSB_E_PINS = {
    False: "45c75456cd7316728eeeeeab5ecb355bfcf174e860fd005ebc255dc337e39553",
    True: "2631d06926b4ce07bbcf73734685d2bd4197b12b00a317c7d5b1939a71a96cce",
}


def ycsb_e_digest(prefetch: bool) -> str:
    """A small YCSB-E run (95% scans up to 50 records, 5% inserts) against a
    HyperDB whose NVMe tier holds about a third of the data, so scans merge
    both tiers.  Hashes every scan's pairs and every service time, then the
    ledgers of both devices."""
    scale = BenchScale(record_count=3000, value_size=512, nvme_ratio=0.35)
    db = build_store("hyperdb", scale, enable_scan_prefetch=prefetch)
    rng = np.random.default_rng(11)
    h = hashlib.sha256()
    for i in rng.permutation(scale.record_count):
        value = bytes([int(i) % 251]) * scale.value_size
        h.update(float(db.put(encode_key(int(i)), value)).hex().encode())
    db.finalize()
    assert db.capacity_tier.levels.num_valid_records() > 0
    sata_reads = db.sata_device.traffic.read_bytes(TrafficKind.FOREGROUND)

    keys = ScrambledZipfianGenerator(scale.record_count, rng)
    next_key = scale.record_count
    for _ in range(400):
        if rng.random() < 0.05:
            value = bytes([next_key % 251]) * scale.value_size
            service = db.put(encode_key(next_key), value)
            next_key += 1
            h.update(b"I" + float(service).hex().encode())
            continue
        start = encode_key(int(keys.next()))
        pairs, service = db.scan(start, int(rng.integers(1, 51)))
        h.update(b"S" + float(service).hex().encode())
        for key, value in pairs:
            h.update(key + hashlib.sha256(value).digest())
    # The scans did reach the capacity tier.
    assert db.sata_device.traffic.read_bytes(TrafficKind.FOREGROUND) > sata_reads
    for name, device in sorted(db.devices().items()):
        ledger = json.dumps(device.traffic.snapshot(), sort_keys=True)
        h.update(name.encode() + ledger.encode())
    return h.hexdigest()


@pytest.mark.parametrize("prefetch", [False, True])
def test_ycsb_e_scan_digest_pinned(prefetch):
    assert ycsb_e_digest(prefetch) == YCSB_E_PINS[prefetch]


# ---------------------------------------------------------------- fixtures


def sata_fs():
    return SimFilesystem(
        SimDevice(
            DeviceProfile(
                name="sata",
                capacity_bytes=64 * MiB,
                page_size=4096,
                read_latency_s=2e-4,
                write_latency_s=6e-5,
                read_bandwidth=5.6e8,
                write_bandwidth=5.1e8,
            )
        )
    )


def nvme_device(mib=2):
    return SimDevice(
        DeviceProfile(
            name="nvme",
            capacity_bytes=mib * MiB,
            page_size=4096,
            read_latency_s=8e-5,
            write_latency_s=2e-5,
            read_bandwidth=6.5e9,
            write_bandwidth=3.5e9,
        )
    )


def ids(keys):
    return [decode_key(k) for k in keys]


# ---------------------------------------------- tombstones in the scan window


class TestCapacityScanTombstones:
    def make_tier(self):
        tier = CapacityTier(
            sata_fs(),
            SemiLevelConfig(
                key_space=KeyRange(encode_key(0), encode_key(10_000)),
                num_levels=3,
                size_ratio=4,
                bottom_segments=16,
                level1_target_bytes=64 * KiB,
            ),
            cache=LRUCache(4 * MiB),
        )
        tier.ingest([Record(encode_key(i), b"v" * 100, i + 1) for i in range(3000)])
        return tier

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_live_keys_behind_a_tombstone_run(self, prefetch):
        tier = self.make_tier()
        tier.ingest(
            [Record.tombstone(encode_key(i), 10_000 + i) for i in range(100, 180)]
        )
        # The tombstones sit in L1, the live versions deeper.
        assert all(
            tier.levels.table_for_key(1, encode_key(i)).contains_key(encode_key(i))
            for i in range(100, 180)
        )
        out, _ = tier.scan(encode_key(100), 50, prefetch=prefetch)
        assert ids(r.key for r in out) == list(range(180, 230))

    def test_tombstones_spanning_several_windows(self):
        tier = self.make_tier()
        tier.ingest(
            [Record.tombstone(encode_key(i), 10_000 + i) for i in range(100, 400)]
        )
        out, _ = tier.scan(encode_key(50), 70)
        assert ids(r.key for r in out) == list(range(50, 100)) + list(range(400, 420))

    def test_scan_to_the_end_of_the_key_space(self):
        tier = self.make_tier()
        tier.ingest(
            [Record.tombstone(encode_key(i), 10_000 + i) for i in range(2900, 2990)]
        )
        out, _ = tier.scan(encode_key(2890), 50)
        assert ids(r.key for r in out) == list(range(2890, 2900)) + list(
            range(2990, 3000)
        )

    def test_model_based(self):
        """Seeded batches of puts and deletes; every scan matches a dict."""
        rng = np.random.default_rng(5)
        tier = self.make_tier()
        oracle = {i: b"v" * 100 for i in range(3000)}
        seqno = 10_000
        for _ in range(6):
            batch = []
            lo = int(rng.integers(0, 2800))
            for i in sorted({int(x) for x in rng.integers(lo, lo + 400, 200)}):
                seqno += 1
                if rng.random() < 0.7:
                    batch.append(Record.tombstone(encode_key(i), seqno))
                    oracle.pop(i, None)
                else:
                    value = bytes([seqno % 251]) * 100
                    batch.append(Record(encode_key(i), value, seqno))
                    oracle[i] = value
            tier.ingest(batch)
            live = sorted(oracle)
            for start in rng.integers(0, 3100, 20):
                count = int(rng.integers(1, 80))
                out, _ = tier.scan(encode_key(int(start)), count)
                want = [i for i in live if i >= start][:count]
                assert [(decode_key(r.key), r.value) for r in out] == [
                    (i, oracle[i]) for i in want
                ]


class TestHyperDBScanTombstones:
    def build(self, **nvme):
        return HyperDB(
            nvme_device(),
            sata_fs().device,
            HyperDBConfig(
                key_space=KeyRange(encode_key(0), encode_key(10_000)),
                nvme=NVMeConfig(
                    num_partitions=2, migration_batch_bytes=16 * KiB, **nvme
                ),
                enable_hot_zone=False,
            ),
        )

    def check_scans(self, db, oracle, starts, count=50):
        live = sorted(oracle)
        for start in starts:
            got, _ = db.scan(encode_key(start), count)
            want = [i for i in live if i >= start][:count]
            assert got == [(encode_key(i), oracle[i]) for i in want]

    def load_and_delete(self, db, extra):
        oracle = {}
        for i in range(3000):
            db.put(encode_key(i), b"x" * 300)
            oracle[i] = b"x" * 300
        for i in range(100, 180):
            db.delete(encode_key(i))
            del oracle[i]
        for i in range(180, 3000 + extra):
            db.put(encode_key(i), b"y" * 300)
            oracle[i] = b"y" * 300
        db.finalize()
        return oracle

    def test_deletes_demoted_to_sata(self):
        # Watermarks low enough that demotion drains the delete run too.
        db = self.build(high_watermark=0.3, low_watermark=0.01)
        oracle = self.load_and_delete(db, extra=1000)
        demoted = [
            i
            for i in range(100, 180)
            if (rec := db.capacity_tier.get(encode_key(i))[0]) is not None
            and rec.is_tombstone
        ]
        assert demoted
        self.check_scans(db, oracle, [0, 60, 90, 100, 150, 179, 180])

    def test_resident_deletes_shadow_capacity_copies(self):
        # The deletes stay on NVMe while the values they delete were
        # demoted: the capacity tier's first batch is all shadowed.
        db = self.build()
        oracle = self.load_and_delete(db, extra=0)
        resident = [
            i
            for i in range(100, 180)
            if db.performance_tier.partition_for_key(encode_key(i)).contains(
                encode_key(i)
            )
        ]
        assert len(resident) == 80
        assert db.capacity_tier.contains_key(encode_key(100))
        self.check_scans(db, oracle, [0, 60, 90, 100, 150, 179, 180])


class TestHyperDBLongScan:
    def test_each_resident_key_read_once_across_chunks(self, monkeypatch):
        db = HyperDB(
            nvme_device(32),
            sata_fs().device,
            HyperDBConfig(
                key_space=KeyRange(encode_key(0), encode_key(10_000)),
                nvme=NVMeConfig(num_partitions=2),
            ),
        )
        for i in range(0, 3000, 3):
            db.put(encode_key(i), bytes([i % 251]) * 50)
        assert db.capacity_tier.levels.num_valid_records() == 0
        reads = []
        get = Partition.get

        def counted_get(self, key, *args, **kwargs):
            reads.append(key)
            return get(self, key, *args, **kwargs)

        monkeypatch.setattr(Partition, "get", counted_get)
        count = 5 * SCAN_CHUNK + 7
        got, _ = db.scan(encode_key(100), count)
        want = [i for i in range(0, 3000, 3) if i >= 100][:count]
        assert got == [(encode_key(i), bytes([i % 251]) * 50) for i in want]
        # Chunks resume strictly after the last key: no key is read twice.
        assert len(reads) == len(set(reads))
        assert ids(reads[: len(want)]) == want


# ------------------------------------------------------ index listing paths


def reference_keys_from(table, start, limit):
    """The unindexed listing: filter and sort the whole key map."""
    return sorted(k for k in table._key_map if k >= start)[:limit]


class TestKeysFrom:
    STARTS = [0, 5, 250, 777, 1500, 1999, 2000, 5000]

    def check(self, table, rng):
        for start in self.STARTS + [int(x) for x in rng.integers(0, 2100, 4)]:
            for limit in (1, 3, 50, 5000):
                assert table.keys_from(encode_key(start), limit) == (
                    reference_keys_from(table, encode_key(start), limit)
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_sorted_filter(self, seed):
        rng = np.random.default_rng(seed)
        table = SemiSSTable(
            1, sata_fs(), KeyRange(encode_key(10), encode_key(2000)), block_size=512
        )
        seqno = 0
        for _ in range(40):
            op = rng.choice(
                ["merge", "invalidate", "extract", "compact", "destroy"],
                p=[0.5, 0.2, 0.2, 0.05, 0.05],
            )
            keys = sorted(table._key_map)
            if op == "merge":
                lo = int(rng.integers(10, 1900))
                picked = sorted({int(x) for x in rng.integers(lo, lo + 300, 60)})
                batch = []
                for i in picked:
                    if i < 2000:
                        seqno += 1
                        batch.append(Record(encode_key(i), b"v" * 20, seqno))
                table.merge_append(batch)
            elif op == "invalidate" and keys:
                for k in rng.choice(len(keys), min(len(keys), 30), replace=False):
                    table._invalidate(keys[int(k)])
            elif op == "extract" and keys:
                table.extract_block_records(keys[int(rng.integers(len(keys)))])
            elif op == "compact":
                table.full_compact()
            elif op == "destroy":
                table.destroy()
                table = SemiSSTable(
                    1, sata_fs(), KeyRange(encode_key(10), encode_key(2000)),
                    block_size=512,
                )
            self.check(table, rng)

    def test_destroy_empties_the_listing(self):
        table = SemiSSTable(1, sata_fs(), KeyRange(encode_key(0), encode_key(100)))
        table.merge_append([Record(encode_key(i), b"v", i + 1) for i in range(50)])
        assert len(table.keys_from(encode_key(0), 100)) == 50
        table.destroy()
        assert table.keys_from(encode_key(0), 100) == []

    def test_removed_keys_are_dropped_once_they_outnumber_valid_ones(self):
        table = SemiSSTable(
            1, sata_fs(), KeyRange(encode_key(0), encode_key(1000)), block_size=256
        )
        table.merge_append([Record(encode_key(i), b"v", i + 1) for i in range(100)])
        assert len(table.keys_from(encode_key(0), 100)) == 100
        table.extract_block_records(encode_key(50))  # removes a whole block
        for i in range(100):
            if table.contains_key(encode_key(i)):
                table._invalidate(encode_key(i))
            assert table.keys_from(encode_key(0), 10) == table.valid_keys()[:10]
            # Removed keys are skipped while at most as many as the valid
            # ones; past that the list is rebuilt from the valid keys.
            rebuilt = table._sorted_keys == table.valid_keys()
            assert rebuilt == (table.num_valid_records < 50), i
            if rebuilt:
                break

    def test_keys_in_block_partitions_the_index(self):
        table = SemiSSTable(
            1, sata_fs(), KeyRange(encode_key(0), encode_key(1000)), block_size=256
        )
        table.merge_append([Record(encode_key(i), b"v" * 20, i + 1) for i in range(300)])
        table.merge_append(
            [Record(encode_key(i), b"w" * 20, 1000 + i) for i in range(0, 300, 7)]
        )
        listed = []
        for block in table.blocks:
            keys = table.keys_in_block(block.block_id)
            assert len(keys) == block.valid_count
            listed += keys
        assert sorted(listed) == table.valid_keys()


class TestKeysInRangeChunks:
    def make_partition(self, n=500):
        tier = PerformanceTier(
            nvme_device(32),
            KeyRange(encode_key(0), encode_key(100_000)),
            NVMeConfig(num_partitions=1, initial_zones_per_partition=2),
        )
        for i in range(n):
            tier.put(Record(encode_key(3 * i), b"v" * 40, i + 1))
        return tier.partitions[0]

    def chunked(self, partition, start, end, limit, between=None):
        out = []
        pos = start
        while True:
            keys = partition.keys_in_range(pos, end, limit)
            assert len(keys) <= limit
            out += keys
            if len(keys) < limit:
                return out
            pos = keys[-1] + b"\x00"
            if between is not None:
                between(keys[-1])

    @pytest.mark.parametrize("limit", [1, 7, 63, 64, 65, 1000])
    def test_chunks_concatenate_to_the_full_listing(self, limit):
        partition = self.make_partition()
        # Several B-tree leaves, so chunks cross leaf boundaries.
        assert len(partition.index) > 2 * partition.index._order
        for start, end in [(0, None), (1, None), (300, 1200), (1499, None), (9999, None)]:
            lo = encode_key(start)
            hi = None if end is None else encode_key(end)
            assert self.chunked(partition, lo, hi, limit) == (
                partition.keys_in_range(lo, hi)
            )

    def test_key_deleted_between_chunks(self):
        partition = self.make_partition()
        full = partition.keys_in_range(encode_key(0), None)
        dropped = []

        def drop_last_and_next(last):
            # The key just returned, and one the cursor has not reached.
            for key in (last, full[full.index(last) + 5]):
                if partition.drop_resident(key):
                    dropped.append(key)

        got = self.chunked(partition, encode_key(0), None, 64, drop_last_and_next)
        skipped = set(dropped) - set(got)
        assert got == [k for k in full if k not in skipped]
        assert len(skipped) == len(dropped) // 2
