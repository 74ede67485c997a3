"""The store interface every engine (HyperDB and all baselines) implements.

Service times returned by each operation are *simulated seconds* of device
work on the operation's critical path; the workload runner combines them
with the concurrency model to produce latency and throughput figures.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.common.errors import CorruptionError, DeviceOfflineError
from repro.simssd.device import SimDevice


class KVStore(abc.ABC):
    """Abstract tiered key-value store."""

    #: Human-readable engine name used in benchmark tables.
    name: str = "kvstore"

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> float:
        """Insert or update.  Returns foreground service seconds."""

    @abc.abstractmethod
    def get(self, key: bytes) -> tuple[Optional[bytes], float]:
        """Point lookup.  Returns ``(value_or_none, service_seconds)``."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> float:
        """Delete a key.  Returns foreground service seconds."""

    @abc.abstractmethod
    def scan(self, start: bytes, count: int) -> tuple[list[tuple[bytes, bytes]], float]:
        """Range scan.  Returns ``(pairs, service_seconds)``."""

    @abc.abstractmethod
    def devices(self) -> dict[str, SimDevice]:
        """The simulated devices backing this store, keyed by tier name."""

    def finalize(self) -> None:
        """Flush asynchronous state (end-of-run barrier).  Optional."""

    # ------------------------------------------------------- batched ops
    #
    # Batched variants carry a whole slice of the workload through the
    # store in one call, eliminating per-op dispatch overhead on the
    # Python hot path.  Engines override them with fused loops; these
    # defaults preserve exact per-op semantics (same call order, same
    # float accumulation) so batched and per-op runs stay bit-identical.
    #
    # ``busy_out``, when given, receives one tuple per op of cumulative
    # per-device busy seconds *after* that op, in ``devices()`` order —
    # the runner differences consecutive rows to attribute latency.
    # ``capture_errors=True`` converts a ``DeviceOfflineError`` on an op
    # (and, for reads, a ``CorruptionError``) into that op's result slot
    # instead of aborting the batch.

    def put_many(
        self, keys, values, busy_out=None, capture_errors=False
    ) -> list:
        """Batched :meth:`put`.  Returns per-op service seconds (or the
        captured exception in that op's slot)."""
        devs = list(self.devices().values()) if busy_out is not None else None
        out = []
        for key, value in zip(keys, values):
            try:
                out.append(self.put(key, value))
            except DeviceOfflineError as exc:
                if not capture_errors:
                    raise
                out.append(exc)
            if devs is not None:
                busy_out.append(tuple(d.busy_seconds() for d in devs))
        return out

    def get_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Batched :meth:`get`.  Returns per-op ``(value_or_none,
        service_seconds)`` tuples (or the captured exception)."""
        devs = list(self.devices().values()) if busy_out is not None else None
        out = []
        for key in keys:
            try:
                out.append(self.get(key))
            except (DeviceOfflineError, CorruptionError) as exc:
                # A captured CorruptionError is a *detected* corrupt read
                # (checksum failure with no healthy copy left): the caller
                # sees the detection instead of silently wrong bytes.
                if not capture_errors:
                    raise
                out.append(exc)
            if devs is not None:
                busy_out.append(tuple(d.busy_seconds() for d in devs))
        return out

    def delete_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Batched :meth:`delete`.  Returns per-op service seconds (or the
        captured exception in that op's slot)."""
        devs = list(self.devices().values()) if busy_out is not None else None
        out = []
        for key in keys:
            try:
                out.append(self.delete(key))
            except DeviceOfflineError as exc:
                if not capture_errors:
                    raise
                out.append(exc)
            if devs is not None:
                busy_out.append(tuple(d.busy_seconds() for d in devs))
        return out

    # ------------------------------------------------------- conveniences

    def multi_put(self, pairs) -> float:
        """Bulk load helper; returns total service seconds."""
        total = 0.0
        for key, value in pairs:
            total += self.put(key, value)
        return total
