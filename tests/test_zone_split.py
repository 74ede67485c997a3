"""Zone splits (paper §3.2 re-sizing) relocate slots as verified bytes.

A split moves every live slot of the oversized zone into one of its two
halves and charges the moves as GC traffic.  A slot that carries a CRC in
its index entry is moved verbatim once the bytes match it; a slot without
one (after checkpoint recovery) is decoded, key-checked and re-encoded.
These tests pin the layout a split stream leaves behind (index entries,
page bytes, both traffic ledgers) and check what happens to corrupt and
recovered slots caught in a split.
"""

from __future__ import annotations

import hashlib
import random
import zlib

import pytest

from repro.common.cache import LRUCache
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.core import HyperDB, HyperDBConfig
from repro.nvme import NVMeConfig, PerformanceTier
from repro.simssd import DeviceProfile, FaultInjector, FaultPlan, SimDevice

KiB = 1024
MiB = 1024 * KiB
KEYSPACE = 20_000


def device(name="nvme", mib=16, injector=None):
    return SimDevice(
        DeviceProfile(
            name=name,
            capacity_bytes=mib * MiB,
            page_size=4096,
            read_latency_s=8e-5,
            write_latency_s=2e-5,
            read_bandwidth=6.5e9,
            write_bandwidth=3.5e9,
        ),
        injector=injector,
    )


def split_config():
    """One partition, one initial zone, small zones: splits come often."""
    return NVMeConfig(
        num_partitions=1,
        initial_zones_per_partition=1,
        migration_batch_bytes=4 * KiB,
    )


def layout_digest(tier: PerformanceTier) -> str:
    """sha256 over every index entry, every live page and both ledgers."""
    h = hashlib.sha256()
    for part in tier.partitions:
        for key, loc in part.index.items():
            h.update(key)
            h.update(
                repr((
                    loc.zone_id, loc.page_id, loc.slot_index, loc.slot_size,
                    loc.record_size, loc.seqno, loc.promoted, loc.crc,
                )).encode()
            )
        h.update(repr([z.zone_id for z in part.zones()]).encode())
    pages = tier.page_store._pages
    for pid in sorted(pages):
        h.update(pid.to_bytes(8, "big"))
        h.update(pages[pid])
    traffic = tier.device.traffic
    h.update(repr(traffic.snapshot()).encode())
    h.update(repr(traffic.queue_snapshot()).encode())
    cache = tier.cache
    h.update(repr((cache.hits, cache.misses, cache.evictions)).encode())
    return h.hexdigest()


def run_stream(injector=None, ops=4000, seed=7):
    """A seeded put/update/resize/delete/get stream over three value sizes
    (three slot classes) on a one-partition tier; returns the tier."""
    tier = PerformanceTier(
        device(injector=injector),
        KeyRange(encode_key(0), encode_key(KEYSPACE)),
        split_config(),
        cache=LRUCache(64 * KiB),
    )
    rng = random.Random(seed)
    sizes = (24, 90, 200)
    live: list[int] = []
    for seqno in range(1, ops + 1):
        roll = rng.random()
        if live and roll < 0.1:
            i = live.pop(rng.randrange(len(live)))
            tier.delete(encode_key(i))
        elif live and roll < 0.25:
            tier.get(encode_key(rng.choice(live)))
        else:
            i = rng.randrange(KEYSPACE)
            size = rng.choice(sizes)
            tier.put(Record(encode_key(i), bytes([i % 251]) * size, seqno))
            if i not in live:
                live.append(i)
    return tier


#: ``layout_digest`` of ``run_stream`` as computed when splits still
#: decoded and re-encoded every record they moved; the verbatim move must
#: reproduce it byte for byte, on the deferred-charge path (no injector)
#: and on the per-write charged path (an injector that never fires).
LAYOUT_DIGEST = "09692bde63953d4bec69b213caa6eb5d86b6ea8b494c5d28262b7219d92a4e28"


@pytest.mark.parametrize("branch", ["deferred", "charged"])
def test_split_layout_pinned(branch):
    injector = FaultInjector(FaultPlan()) if branch == "charged" else None
    tier = run_stream(injector)
    part = tier.partitions[0]
    assert len(part.zones()) >= 8, "the stream must cross several splits"
    classes = {loc.slot_size for _, loc in part.index.items()}
    assert len(classes) >= 2
    assert layout_digest(tier) == LAYOUT_DIGEST


def test_split_preserves_every_slot_field():
    """Every entry a split moved keeps its seqno, promoted flag, CRC and
    sizes, and its new slot holds exactly the bytes the CRC covers."""
    tier = PerformanceTier(
        device(),
        KeyRange(encode_key(0), encode_key(KEYSPACE)),
        split_config(),
    )
    part = tier.partitions[0]
    for i in range(40):
        tier.put(Record(encode_key(i), b"a" * (20 + i % 3 * 70), i + 1))
    before = {k: loc for k, loc in part.index.items()}
    zones_before = {z.zone_id for z in part.zones()}
    i = 40
    while {z.zone_id for z in part.zones()} & zones_before:
        tier.put(Record(encode_key(i), b"b" * 30, i + 1))
        i += 1
    for key, old in before.items():
        new = part.resident_location(key)
        assert new.zone_id != old.zone_id
        assert (new.seqno, new.promoted, new.crc, new.slot_size, new.record_size) == (
            old.seqno, old.promoted, old.crc, old.slot_size, old.record_size
        )
        raw = tier.page_store.peek(new.page_id, new.offset, new.record_size)
        assert zlib.crc32(raw) == new.crc
        rec, _ = tier.get(key)
        assert rec.key == key and rec.seqno == old.seqno


def make_db():
    cfg = HyperDBConfig(
        key_space=KeyRange(encode_key(0), encode_key(KEYSPACE)),
        nvme=split_config(),
    )
    return HyperDB(device(), device("sata", 64), cfg)


def fill_until_split(db, start):
    """Put fresh keys from ``start`` until the partition's first zone has
    been split; returns the next unused key index."""
    part = db.performance_tier.partitions[0]
    first = part.zones()[0].zone_id
    i = start
    while first in {z.zone_id for z in part.zones()}:
        db.put(encode_key(i), b"f" * 40)
        i += 1
    return i


def test_corrupt_slot_hit_by_split_is_dropped_not_moved():
    db = make_db()
    for i in range(10):
        db.put(encode_key(i), b"v%d" % i * 8)
    victim = encode_key(5)
    part = db.performance_tier.partition_for_key(victim)
    loc = part.resident_location(victim)
    # Flip one bit of the value: the record still decodes, only the CRC
    # can tell.
    part.page_store._pages[loc.page_id][loc.offset + loc.record_size - 1] ^= 0x01
    fill_until_split(db, 10)
    counters = db.stats.snapshot()["counters"]
    assert counters.get("nvme_corrupt_maintenance") == 1
    assert victim in db.suspect_keys
    assert part.resident_location(victim) is None
    assert counters.get("nvme_corrupt_reads", 0) == 0
    for i in (4, 6):
        value, _ = db.get(encode_key(i))
        assert value == b"v%d" % i * 8


def test_recovered_slot_moved_by_split_gains_a_crc():
    db = make_db()
    for i in range(10):
        db.put(encode_key(i), b"r%d" % i * 8)
    db.checkpoint()
    db.recover()
    part = db.performance_tier.partitions[0]
    assert all(loc.crc is None for _, loc in part.index.items())
    fill_until_split(db, 10)
    for i in range(10):
        key = encode_key(i)
        loc = part.resident_location(key)
        assert loc.crc is not None
        raw = part.page_store.peek(loc.page_id, loc.offset, loc.record_size)
        assert zlib.crc32(raw) == loc.crc
        value, _ = db.get(key)
        assert value == b"r%d" % i * 8
    assert db.stats.snapshot()["counters"].get("nvme_corrupt_maintenance", 0) == 0


def test_recovered_slot_holding_another_key_is_dropped_by_split():
    """A recovered entry (no CRC) whose slot another key took over after
    the checkpoint: the split must not move that record under this key."""
    db = make_db()
    for i in range(10):
        db.put(encode_key(i), b"r%d" % i * 8)
    db.checkpoint()
    db.put(encode_key(3), b"x" * 300)  # resized: moves, frees its slot
    # Same record size, so the slot's bytes decode cleanly as key 11.
    db.put(encode_key(11), b"e" * 16)  # takes the freed slot
    db.recover()
    fill_until_split(db, 20)
    assert db.stats.snapshot()["counters"].get("nvme_corrupt_maintenance") == 1
    assert encode_key(3) in db.suspect_keys
    value, _ = db.get(encode_key(3))
    assert value != b"e" * 16
    for i in (2, 4):
        assert db.get(encode_key(i))[0] == b"r%d" % i * 8
