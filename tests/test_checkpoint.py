"""Tests for the NVMe index backup (checkpoint / recovery, §3.1)."""

import pytest

from repro.common.errors import ReproError
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.core import HyperDB, HyperDBConfig
from repro.nvme import NVMeConfig, PerformanceTier
from repro.nvme.partition import Partition
from repro.nvme.pagestore import PageStore
from repro.simssd import DeviceProfile, SimDevice, TrafficKind

KiB = 1024
MiB = 1024 * KiB


def nvme_device(mib=8):
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


def make_partition(device=None):
    device = device or nvme_device()
    store = PageStore(device)
    return Partition(
        partition_id=0,
        key_range=KeyRange(encode_key(0), encode_key(10_000)),
        page_store=store,
        config=NVMeConfig(num_partitions=1, initial_zones_per_partition=2),
        page_budget=device.profile.num_pages,
    )


def crash(partition: Partition) -> None:
    """Simulate losing all in-memory index/zone state (media survives)."""
    partition.index = type(partition.index)(order=64)
    partition._zones = []
    partition._zone_bounds = []


class TestPartitionCheckpoint:
    def test_roundtrip(self):
        part = make_partition()
        for i in range(500):
            part.put(Record(encode_key(i), b"value-%03d" % i, i + 1))
        part.checkpoint()
        crash(part)
        part.recover()
        for i in range(0, 500, 23):
            rec, _ = part.get(encode_key(i))
            assert rec is not None and rec.value == b"value-%03d" % i
        assert part.object_count() == 500

    def test_recover_without_checkpoint_rejected(self):
        part = make_partition()
        with pytest.raises(ReproError):
            part.recover()

    def test_checkpoint_charges_nvme_writes(self):
        part = make_partition()
        for i in range(200):
            part.put(Record(encode_key(i), b"x" * 50, i + 1))
        dev = part.page_store.device
        dev.traffic.reset()
        part.checkpoint()
        assert dev.traffic.write_bytes(TrafficKind.GC) > 0

    def test_recheckpoint_releases_old_pages(self):
        part = make_partition()
        for i in range(200):
            part.put(Record(encode_key(i), b"x" * 50, i + 1))
        part.checkpoint()
        pages_first = set(part._checkpoint_pages)
        allocated_after_first = part.page_store.device.allocated_pages
        part.checkpoint()
        assert part.page_store.device.allocated_pages == allocated_after_first
        assert set(part._checkpoint_pages) != pages_first or True  # ids may differ

    def test_writes_after_checkpoint_lost(self):
        part = make_partition()
        part.put(Record(encode_key(1), b"before", 1))
        part.checkpoint()
        part.put(Record(encode_key(2), b"after", 2))
        crash(part)
        part.recover()
        assert part.get(encode_key(1))[0].value == b"before"
        assert part.get(encode_key(2))[0] is None

    def test_recovered_partition_accepts_new_writes(self):
        part = make_partition()
        for i in range(300):
            part.put(Record(encode_key(i), b"x" * 40, i + 1))
        part.checkpoint()
        crash(part)
        part.recover()
        # Slot reuse and fresh allocation still work.
        for i in range(300, 400):
            part.put(Record(encode_key(i), b"y" * 40, i + 1))
        for i in (0, 299, 399):
            assert part.get(encode_key(i))[0] is not None
        # Updates of recovered objects update in place.
        pages_before = part.used_pages
        part.put(Record(encode_key(5), b"z" * 40, 10**6))
        assert part.used_pages == pages_before
        assert part.get(encode_key(5))[0].value == b"z" * 40

    def test_promotion_flags_survive(self):
        part = make_partition()
        part.promote(Record(encode_key(7), b"hot", 1))
        part.checkpoint()
        crash(part)
        part.recover()
        loc = part.index.get(encode_key(7))
        assert loc is not None and loc.promoted
        assert loc.zone_id == part.hot_zone.zone_id

    def test_space_accounting_restored(self):
        part = make_partition()
        for i in range(300):
            part.put(Record(encode_key(i), b"x" * 100, i + 1))
        used_before = part.used_bytes()
        part.checkpoint()
        crash(part)
        part.recover()
        assert part.used_bytes() == used_before


class TestHyperDBCheckpoint:
    def test_full_store_roundtrip(self):
        db = HyperDB(
            nvme_device(4),
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
            ),
            HyperDBConfig(
                key_space=KeyRange(encode_key(0), encode_key(20_000)),
                nvme=NVMeConfig(num_partitions=2, migration_batch_bytes=16 * KiB),
            ),
        )
        for i in range(3000):
            db.put(encode_key(i), b"v" * 300)
        db.checkpoint()
        for p in db.performance_tier.partitions:
            crash(p)
        db.recover()
        # Every key is served by NVMe (recovered) or SATA (migrated).
        for i in range(0, 3000, 97):
            value, _ = db.get(encode_key(i))
            assert value == b"v" * 300, i


def reused_slot_db():
    """A one-partition HyperDB recovered from a checkpoint whose entry for
    key 3 names a slot that key 11 took over after the checkpoint."""
    db = HyperDB(
        nvme_device(4),
        nvme_device(64),
        HyperDBConfig(
            key_space=KeyRange(encode_key(0), encode_key(1000)),
            nvme=NVMeConfig(num_partitions=1, initial_zones_per_partition=1),
        ),
    )
    for i in range(10):
        db.put(encode_key(i), b"v%d" % i)
    db.checkpoint()
    part = db.performance_tier.partitions[0]
    old = part.resident_location(encode_key(3))
    db.put(encode_key(3), b"x" * 300)  # resized: moves, frees its slot
    db.put(encode_key(11), b"eleven")  # takes the freed slot
    new = part.resident_location(encode_key(11))
    assert (new.page_id, new.slot_index) == (old.page_id, old.slot_index)
    db.recover()
    assert part.resident_location(encode_key(3)).crc is None
    return db


class TestRecoveredEntryKeyCheck:
    def test_get_does_not_serve_another_keys_record(self):
        db = reused_slot_db()
        value, _ = db.get(encode_key(3))
        assert value != b"eleven"
        assert value is None  # the checkpointed version was overwritten
        assert encode_key(3) in db.suspect_keys
        assert db.stats.snapshot()["counters"]["nvme_corrupt_reads"] == 1
        assert db.performance_tier.partitions[0].resident_location(encode_key(3)) is None
        for i in (2, 4):
            assert db.get(encode_key(i))[0] == b"v%d" % i

    def test_scan_does_not_serve_another_keys_record(self):
        db = reused_slot_db()
        items, _ = db.scan(encode_key(0), 20)
        assert [k for k, _ in items] == [encode_key(i) for i in range(10) if i != 3]
        assert all(v == b"v%d" % i for i, (_, v) in zip(
            [i for i in range(10) if i != 3], items
        ))
        assert encode_key(3) in db.suspect_keys

    def test_hot_zone_eviction_does_not_move_another_keys_record(self):
        part = make_partition()
        k3, k11 = encode_key(3), encode_key(11)
        for i in (3, 5):  # key 5 keeps the hot page alive once key 3 leaves
            rec = Record(encode_key(i), b"value", i)
            part.put(rec)
            part.park_in_hot_zone(rec, part.index.get(rec.key), TrafficKind.MIGRATION)
        old = part.index.get(k3)
        assert old.zone_id == part.hot_zone.zone_id and not old.promoted
        part.checkpoint()
        part.put(Record(k3, b"x" * 300, 6))  # resized: leaves the hot zone
        part.promote(Record(k11, b"elven", 7))  # takes the freed hot slot
        new = part.index.get(k11)
        assert (new.page_id, new.slot_index) == (old.page_id, old.slot_index)
        crash(part)
        part.recover()
        dropped = []
        part.on_corrupt_slot = lambda key, promoted: dropped.append(key)
        part._hot_zone_page_budget = lambda: 0
        part._evict_hot_zone_if_needed(TrafficKind.MIGRATION)
        assert dropped == [k3]
        assert part.index.get(k3) is None
