"""Point reads through the block cache: pinned YCSB-A behaviour of both
table formats, equivalence of the one-record decode with a full-block
decode, and corruption anywhere in a block still being caught."""

import hashlib
import json
import random
import numpy as np
import pytest

from repro.bench.context import BenchScale, build_store
from repro.common.cache import LRUCache
from repro.common.errors import CorruptionError, ReproError
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.lsm.blocks import (
    _DECODE_MEMO,
    decode_block,
    encode_block,
    find_record,
    record_at,
)
from repro.lsm.semi import SemiSSTable
from repro.lsm.sstable import build_sstable
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind
from repro.ycsb.distributions import ScrambledZipfianGenerator

MiB = 1024 * 1024

#: sha256 of :func:`ycsb_a_digest` — every returned value, every service
#: time and both devices' traffic ledgers of a small YCSB-A load and run.
YCSB_A_PINS = {
    "hyperdb": "2bb3b42d86a5d9fe76abf4a28ef43d0a45f100dde5f46969d1252ed0e09ca83b",
    "rocksdb": "2b6aebac306301d38a1e9e1e4454f17e2955b499c4d23487fda26bb1eb6f3ec5",
}


def ycsb_a_digest(store: str) -> str:
    """A small YCSB-A run (50% reads, 50% updates, Zipfian keys) on a store
    whose NVMe holds about a third of the data, so reads reach the capacity
    tier.  The first half of the run goes one op at a time, the second in
    batches of 16 through ``get_many``/``put_many``."""
    scale = BenchScale(record_count=3000, value_size=512, nvme_ratio=0.35)
    db = build_store(store, scale)
    rng = np.random.default_rng(13)
    h = hashlib.sha256()
    for i in rng.permutation(scale.record_count):
        value = bytes([int(i) % 251]) * scale.value_size
        h.update(float(db.put(encode_key(int(i)), value)).hex().encode())
    db.finalize()

    keys = ScrambledZipfianGenerator(scale.record_count, rng)

    def op():
        key = encode_key(int(keys.next()))
        if rng.random() < 0.5:
            return "get", key, None
        return "put", key, bytes([int(rng.integers(256))]) * scale.value_size

    for _ in range(1500):
        kind, key, value = op()
        if kind == "get":
            got, service = db.get(key)
            h.update(b"G" + float(service).hex().encode())
            h.update(b"-" if got is None else hashlib.sha256(got).digest())
        else:
            h.update(b"P" + float(db.put(key, value)).hex().encode())
    for _ in range(100):
        batch = [op() for _ in range(16)]
        puts = [(key, value) for kind, key, value in batch if kind == "put"]
        gets = [key for kind, key, _ in batch if kind == "get"]
        if puts:
            services = db.put_many([k for k, _ in puts], [v for _, v in puts])
            for service in services:
                h.update(b"P" + float(service).hex().encode())
        for got, service in db.get_many(gets):
            h.update(b"G" + float(service).hex().encode())
            h.update(b"-" if got is None else hashlib.sha256(got).digest())
    for name, device in sorted(db.devices().items()):
        ledger = json.dumps(device.traffic.snapshot(), sort_keys=True)
        h.update(name.encode() + ledger.encode())
    return h.hexdigest()


@pytest.mark.parametrize("store", ["hyperdb", "rocksdb"])
def test_ycsb_a_point_read_digest_pinned(store, monkeypatch):
    # Count block-cache lookups per table format, to show the run reads
    # capacity-tier blocks both from the cache and from the device.
    seen = {}
    original = LRUCache.get

    def counting_get(self, key, default=None):
        got = original(self, key, default)
        if isinstance(key, tuple) and key[0] in ("semiblk", "blk"):
            tag = (key[0], got is not None)
            seen[tag] = seen.get(tag, 0) + 1
        return got

    monkeypatch.setattr(LRUCache, "get", counting_get)
    digest = ycsb_a_digest(store)
    tag = "semiblk" if store == "hyperdb" else "blk"
    assert seen.get((tag, True), 0) > 0 and seen.get((tag, False), 0) > 0
    assert digest == YCSB_A_PINS[store]


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


def full_decode_lookup(table: SemiSSTable, key: bytes):
    """The lookup before the one-record decode: read the indexed block,
    decode every record and walk them for ``key``."""
    entry = table._key_map.get(key)
    if entry is None:
        return None
    records, _ = table._read_block(table._blocks_by_id[entry[0]], TrafficKind.FOREGROUND)
    return next(rec for rec in records if rec.key == key)


def flip_in_other_record(table_file, block_offset, block_raw, victim_key):
    """Flip one value byte of a record of the block other than ``victim_key``'s."""
    records = decode_block(block_raw)
    pos = 0
    for rec in records:
        if rec.key != victim_key:
            target = pos + rec.encoded_size - 1  # last byte of its value/key
            table_file._data[block_offset + target] ^= 0x01
            return rec.key
        pos += rec.encoded_size
    raise AssertionError("block holds a single record")


# ------------------------------------------------- semi-SSTable equivalence


class TestSemiPointReadEquivalence:
    def make_table(self):
        return SemiSSTable(
            0, sata_fs(), KeyRange(encode_key(0), encode_key(5000)), block_size=1024
        )

    def check(self, table, cache, probes):
        for key in probes:
            want = full_decode_lookup(table, key)
            # Cache miss (no cache, and a cold cache), then cache hit.
            assert table.read_indexed(key)[0] == want
            assert table.get(key)[0] == want
            fresh = LRUCache(4 * MiB)
            assert table.read_indexed(key, cache=fresh)[0] == want
            assert table.read_indexed(key, cache=fresh)[0] == want
            assert table.get(key, cache=cache)[0] == want
            assert table.get(key, cache=cache)[0] == want
            assert table.read_indexed(key, cache=cache)[0] == want

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_decode_over_seeded_mutations(self, seed):
        rng = random.Random(seed)
        table = self.make_table()
        # A cache shared across the whole sequence, so hits also land on
        # blocks cached before a merge, extraction or full compaction.
        cache = LRUCache(4 * MiB)
        seqno = 0
        for step in range(40):
            op = rng.random()
            if op < 0.55 or table.num_valid_records == 0:
                seqno += 1
                ids = sorted(rng.sample(range(0, 5000, 3), rng.randint(1, 60)))
                recs = [
                    Record(encode_key(i), bytes([rng.randrange(256)]) * rng.randint(0, 90),
                           seqno, deleted=rng.random() < 0.1)
                    for i in ids
                ]
                table.merge_append(recs)
            elif op < 0.75:
                for key in rng.sample(table.valid_keys(), min(5, table.num_valid_records)):
                    table._invalidate(key)
            elif op < 0.9:
                table.extract_block_records(rng.choice(table.valid_keys()))
            else:
                table.full_compact()
            if step % 4 == 0:
                # Clear the decode memo now and then so hits on holders
                # cached by a miss also decode their block from scratch.
                _DECODE_MEMO.clear()
            valid = table.valid_keys()
            probes = rng.sample(valid, min(25, len(valid)))
            probes += [encode_key(rng.randrange(5000)) for _ in range(10)]
            self.check(table, cache, probes)

    def test_read_blocks_bulk_then_point_reads(self):
        table = self.make_table()
        table.merge_append([Record(encode_key(i), b"v%04d" % i, 1) for i in range(0, 600, 2)])
        cache = LRUCache(4 * MiB)
        live = [b for b in table.blocks if not b.is_dead]
        table.read_blocks_bulk(live, TrafficKind.FOREGROUND, cache)
        for key in table.valid_keys():
            assert table.read_indexed(key, cache=cache) == (full_decode_lookup(table, key), 0.0)

    def test_index_entry_offsets_and_ordinals(self):
        table = self.make_table()
        table.merge_append([Record(encode_key(i), b"x" * (i % 50), 1) for i in range(300)])
        for block in table.blocks:
            raw = bytes(table.file._data[block.offset : block.offset + block.length])
            for ordinal, rec in enumerate(decode_block(raw)):
                entry = table._key_map[rec.key]
                assert entry[0] == block.block_id
                assert entry[4] == ordinal
                assert record_at(raw, entry[3]) == rec

    def test_index_mismatch_still_raises(self):
        table = self.make_table()
        table.merge_append([Record(encode_key(i), b"v", 1) for i in range(20)])
        key = encode_key(3)
        e = table._key_map[key]
        table._key_map[key] = (e[0], e[1], e[2], 0, 0)  # points at key 0's record
        with pytest.raises(ReproError, match="index says key"):
            table.read_indexed(key)
        cache = LRUCache(MiB)
        table.read_indexed(encode_key(0), cache=cache)
        with pytest.raises(ReproError, match="index says key"):
            table.read_indexed(key, cache=cache)


# ------------------------------------------------------ SSTable equivalence


class TestSSTablePointRead:
    def make_table(self, seed=0):
        rng = random.Random(seed)
        oracle = {}
        for i in range(200, 1800, 2):  # odd keys and the ends stay absent
            if rng.random() < 0.8:
                oracle[encode_key(i)] = Record(
                    encode_key(i), bytes([i % 256]) * rng.randint(0, 120), i,
                    deleted=rng.random() < 0.05,
                )
        table = build_sstable(
            sata_fs(), 1, [oracle[key] for key in sorted(oracle)], block_size=512
        )
        assert len(table.handles) > 10
        return table, oracle

    def probe_keys(self, table):
        probes = [encode_key(i) for i in range(150, 1850)]
        # Keys between one block's last key and the next block's first.
        for a, b in zip(table.handles, table.handles[1:]):
            probes += [a.last_key + b"\x00", bisect_between(a.last_key, b.first_key)]
        return probes

    @pytest.mark.parametrize("seed", range(3))
    def test_get_matches_dict_oracle(self, seed):
        table, oracle = self.make_table(seed)
        cache = LRUCache(4 * MiB)
        for key in self.probe_keys(table):
            want = oracle.get(key)
            assert table.get(key)[0] == want
            assert table.get_nobloom(key)[0] == want
            assert table.get_nobloom(key, cache=cache)[0] == want  # miss or hit
            assert table.get_nobloom(key, cache=cache)[0] == want  # hit
            assert table.get(key, cache=cache)[0] == want

    def test_hits_on_blocks_cached_by_a_full_read(self):
        table, oracle = self.make_table()
        cache = LRUCache(4 * MiB)
        for handle in table.handles:
            table.read_block(handle, cache=cache)
        for key in self.probe_keys(table):
            rec, service = table.get_nobloom(key, cache=cache)
            assert rec == oracle.get(key)
            assert service == 0.0

    def test_find_record_walks_to_first_key_not_below_target(self):
        recs = [Record(encode_key(i), b"v" * i, i) for i in range(10, 40, 3)]
        raw = encode_block(recs)
        for i in range(0, 50):
            want = next((r for r in recs if r.key == encode_key(i)), None)
            assert find_record(raw, encode_key(i)) == want
        assert find_record(encode_block([]), encode_key(1)) is None


def bisect_between(lo: bytes, hi: bytes) -> bytes:
    """A key strictly between ``lo`` and ``hi`` when one exists, else ``lo``."""
    a, b = int.from_bytes(lo, "big"), int.from_bytes(hi, "big")
    return (a + (b - a) // 2).to_bytes(len(lo), "big") if b - a > 1 else lo


# -------------------------------------------------------------- corruption


class TestOneRecordDecodeCorruption:
    def semi_table(self):
        table = SemiSSTable(
            0, sata_fs(), KeyRange(encode_key(0), encode_key(5000)), block_size=4096
        )
        table.merge_append([Record(encode_key(i), b"s" * 60, 1) for i in range(20)])
        assert len(table.blocks) == 1
        return table

    def test_semi_flip_in_another_record(self):
        table = self.semi_table()
        block = table.blocks[0]
        raw = bytes(table.file._data[block.offset : block.offset + block.length])
        victim = encode_key(5)
        flip_in_other_record(table.file, block.offset, raw, victim)
        with pytest.raises(CorruptionError):
            table.read_indexed(victim, cache=LRUCache(MiB))
        with pytest.raises(CorruptionError):
            table.get(victim)

    def test_semi_flip_in_crc_footer(self):
        table = self.semi_table()
        block = table.blocks[0]
        table.file._data[block.offset + block.length - 1] ^= 0x80
        for i in (0, 7, 19):
            with pytest.raises(CorruptionError):
                table.read_indexed(encode_key(i), cache=LRUCache(MiB))

    def sstable(self):
        recs = [Record(encode_key(i), b"t" * 60, i) for i in range(20)]
        table = build_sstable(sata_fs(), 1, recs, block_size=4096)
        assert len(table.handles) == 1
        return table

    def test_sstable_flip_in_another_record(self):
        table = self.sstable()
        handle = table.handles[0]
        raw = bytes(table.file._data[handle.offset : handle.offset + handle.length])
        victim = encode_key(5)
        flip_in_other_record(table.file, handle.offset, raw, victim)
        with pytest.raises(CorruptionError):
            table.get(victim, cache=LRUCache(MiB))
        with pytest.raises(CorruptionError):
            table.get_nobloom(victim)

    def test_sstable_flip_in_crc_footer(self):
        table = self.sstable()
        handle = table.handles[0]
        table.file._data[handle.offset + handle.length - 2] ^= 0x01
        for i in (0, 7, 19):
            with pytest.raises(CorruptionError):
                table.get(encode_key(i), cache=LRUCache(MiB))

    def test_hyperdb_corrupt_semi_block_is_detected_then_triaged(self):
        scale = BenchScale(record_count=2000, value_size=128, nvme_ratio=0.35)
        db = build_store("hyperdb", scale)
        keys = [encode_key(100 + i) for i in range(12)]
        recs = [Record(key, b"cap" * 20, db.next_seqno()) for key in keys]
        db.capacity_tier.ingest(recs, TrafficKind.MIGRATION)
        table = next(
            t
            for level_no in range(1, db.capacity_tier.levels.num_levels + 1)
            for t in db.capacity_tier.levels.level(level_no).tables.values()
            if t.contains_key(keys[0])
        )
        block = table._blocks_by_id[table._key_map[keys[0]][0]]
        raw = bytes(table.file._data[block.offset : block.offset + block.length])
        flip_in_other_record(table.file, block.offset, raw, keys[0])
        db.cache.clear()
        # Foreground: the key's own record is intact, the block is not.
        with pytest.raises(CorruptionError):
            db.get(keys[0])
        # Background: the next full read of the block runs the triage.
        in_block = set(table.keys_in_block(block.block_id))
        list(table.iter_valid_records())
        assert db.stats.counter("semi_corrupt_blocks").value == 1
        assert block.is_dead
        assert in_block <= set(db.suspect_keys)
