"""Correctness oracle and result digest.

The oracle rebuilds every expected value from the seed on its own: the
runner's value pool is the first draw of ``numpy.random.default_rng(seed)``
and key ``k`` holds ``pool[(k * 131) % (len(pool) - value_size):][:value_size]``
on load, update and insert alike.  Since updates rewrite the same bytes, the
read-back catches lost, corrupted or misrouted records, not lost updates.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.common.keys import encode_key, encode_keys

READBACK_CHUNK = 4096
SCAN_CHECKS = 50


class Oracle:
    """Expected contents of a store loaded and run by ``WorkloadRunner``."""

    def __init__(self, seed: int, record_count: int, value_size: int) -> None:
        rng = np.random.default_rng(seed)
        self.pool = rng.integers(
            0, 256, size=max(4096, value_size * 4), dtype=np.uint8
        ).tobytes()
        self.record_count = record_count
        self.value_size = value_size

    def value(self, key_id: int) -> bytes:
        start = (key_id * 131) % (len(self.pool) - self.value_size)
        return self.pool[start : start + self.value_size]

    def read_back(self, store, live_ids: int) -> tuple[int, int]:
        """Get every key ``0 .. live_ids-1`` and compare its value.

        Returns ``(reads, mismatches)``.
        """
        mismatches = 0
        for lo in range(0, live_ids, READBACK_CHUNK):
            ids = range(lo, min(live_ids, lo + READBACK_CHUNK))
            results = store.get_many(encode_keys(list(ids)))
            for kid, (value, _) in zip(ids, results):
                if value != self.value(kid):
                    mismatches += 1
        return live_ids, mismatches

    def check_scans(
        self, store, live_ids: int, scan_length: int, seed: int
    ) -> tuple[int, int]:
        """Compare ``SCAN_CHECKS`` scans from seeded start keys against the
        sorted key list ``0 .. live_ids-1``.  Returns ``(scans, mismatches)``."""
        rng = np.random.default_rng([seed, 0x5CA7])
        mismatches = 0
        for start in rng.integers(0, live_ids, size=SCAN_CHECKS).tolist():
            pairs, _ = store.scan(encode_key(start), scan_length)
            stop = min(live_ids, start + scan_length)
            expected = [(encode_key(k), self.value(k)) for k in range(start, stop)]
            if list(pairs) != expected:
                mismatches += 1
        return SCAN_CHECKS, mismatches


def run_digest(h: "hashlib._Hash", result) -> None:
    """Fold one ``RunResult`` into ``h``: floats as ``float.hex`` (exact
    bits), dicts in sorted key order, histograms as raw sample buffers."""
    h.update(str(result.operations).encode())
    h.update(float(result.elapsed_s).hex().encode())
    h.update(float(result.throughput_ops).hex().encode())
    for dev in sorted(result.traffic):
        for lane in sorted(result.traffic[dev]):
            for name in sorted(result.traffic[dev][lane]):
                v = float(result.traffic[dev][lane][name])
                h.update(f"{dev}/{lane}/{name}={v.hex()};".encode())
    for dev in sorted(result.utilization):
        h.update(f"u:{dev}={float(result.utilization[dev]).hex()};".encode())
    for dev in sorted(result.space_used):
        h.update(f"s:{dev}={int(result.space_used[dev])};".encode())
    for op in sorted(result.latency_by_op):
        h.update(op.encode())
        h.update(result.latency_by_op[op].samples().tobytes())


def digest(load_service: float, results, returned_bytes: int) -> str:
    """sha256 over the simulated outputs of the load and the fixed rounds."""
    h = hashlib.sha256()
    h.update(float(load_service).hex().encode())
    for result in results:
        run_digest(h, result)
    h.update(f"returned={returned_bytes}".encode())
    return h.hexdigest()
