"""Span tracing from outside the program.

The tracer replaces functions and methods of each layer with wrappers that
record one span per call: name, start, end, parent span and batch id.
Spans stay in memory (compact typed arrays) and are written out once at the
end.  A span's self time is its duration minus the time covered by its
direct child spans; the tracer accumulates it as spans close.

Wrappers are installed where the running code looks the function up: on
the class for methods, and on every module that imported a function by
name (``decode_block`` lives in ``sstable`` and ``semisstable`` as well as
``blocks``).  Install before constructing the store, because some objects
bind methods at construction (``Partition._record_access``).

A call whose innermost open span has the same name is not a new span
(``Partition.put`` calling ``Partition._put_locked`` is one NVMe put).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

#: (span name, module, class or None, attributes).  Attributes of a class
#: are patched on the class; without a class, on the module.  ``FUNCTIONS``
#: below lists the functions imported by name into several modules.
METHODS = [
    ("ycsb.runner", "repro.ycsb.runner", "WorkloadRunner", ("run",)),
    ("ycsb.load", "repro.ycsb.runner", "WorkloadRunner", ("load",)),
    ("ycsb.keygen", "repro.ycsb.runner", "WorkloadRunner", ("_make_generator",)),
    (
        "ycsb.keygen", "repro.ycsb.distributions", "ScrambledZipfianGenerator",
        ("next", "next_many", "set_item_count"),
    ),
    ("core.put", "repro.core.hyperdb", "HyperDB", ("put", "put_many")),
    ("core.get", "repro.core.hyperdb", "HyperDB", ("get", "get_many")),
    ("core.scan", "repro.core.hyperdb", "HyperDB", ("scan",)),
    (
        "nvme.put", "repro.nvme.partition", "Partition",
        ("put", "put_many", "_put_locked", "_put_locked_deferred"),
    ),
    ("nvme.get", "repro.nvme.partition", "Partition", ("get",)),
    ("nvme.keys_in_range", "repro.nvme.partition", "Partition", ("keys_in_range",)),
    (
        "nvme.zone.write", "repro.nvme.zone", "Zone",
        ("write_record", "write_record_deferred", "update_in_place",
         "update_in_place_deferred"),
    ),
    ("nvme.zone.read", "repro.nvme.zone", "Zone", ("read_object",)),
    (
        "nvme.pagestore", "repro.nvme.pagestore", "PageStore",
        ("write", "write_nocharge", "read", "read_many"),
    ),
    (
        "migration.demote", "repro.migration.scheduler", "MigrationScheduler",
        ("_demote_partition",),
    ),
    (
        "migration.promote", "repro.migration.promotion", "PromotionManager",
        ("stage", "drain"),
    ),
    (
        "hotness", "repro.hotness.discriminator", "CascadingDiscriminator",
        ("access", "is_hot", "is_hot_many"),
    ),
    ("lsm.semi.ingest", "repro.lsm.semi.engine", "CapacityTier", ("ingest",)),
    ("lsm.semi.get", "repro.lsm.semi.engine", "CapacityTier", ("get",)),
    ("lsm.semi.scan", "repro.lsm.semi.engine", "CapacityTier", ("scan",)),
    (
        "lsm.semi.compaction", "repro.lsm.semi.compaction",
        "PreemptiveBlockCompactor", ("maybe_compact",),
    ),
    (
        "lsm.tree.put", "repro.lsm.lsmtree", "LSMTree",
        ("put", "put_many", "ingest_batch"),
    ),
    ("lsm.tree.get", "repro.lsm.lsmtree", "LSMTree", ("get", "get_many")),
    ("lsm.flush", "repro.lsm.lsmtree", "LSMTree", ("flush",)),
    ("lsm.wal", "repro.lsm.wal", "WriteAheadLog", ("append", "sync")),
    ("lsm.compaction", "repro.lsm.compaction", "LeveledCompactor", ("maybe_compact",)),
    (
        "lsm.sstable", "repro.lsm.sstable", "SSTable",
        ("get", "get_nobloom", "read_block"),
    ),
    ("common.btree", "repro.common.btree", "BTreeIndex", ("get", "insert", "delete", "items")),
    (
        "simssd.charge", "repro.simssd.device", "SimDevice",
        ("read_pages", "write_pages", "read_bytes_io", "write_bytes_io",
         "read_pages_batch", "write_pages_batch"),
    ),
]

#: (span name, defining module, function, modules that imported it by name).
FUNCTIONS = [
    (
        "lsm.blocks.decode", "repro.lsm.blocks", "decode_block",
        ("repro.lsm.sstable", "repro.lsm.semi.semisstable"),
    ),
    (
        "lsm.blocks.decode", "repro.lsm.blocks", "decode_one",
        ("repro.nvme.partition", "repro.nvme.zone", "repro.baselines.prismdb",
         "repro.scrub.scrubber"),
    ),
    (
        "common.bloom.hash", "repro.common.bloom", "_base_hashes",
        ("repro.common.bloom:base_hashes", "repro.hotness.discriminator:base_hashes"),
    ),
]

#: Generator functions: each ``next`` on the returned iterator is a span.
ITERATORS = [
    (
        "lsm.iterator.merge", "repro.lsm.iterator", "merge_records",
        ("repro.lsm.lsmtree", "repro.lsm.compaction", "repro.core.hyperdb"),
    ),
]

BLOOM_PROBES = ("__contains__", "contains_hashed", "contains_many")


class Tracer:
    """Records spans around wrapped calls while ``active``."""

    def __init__(self) -> None:
        self.active = False
        #: Current batch id: 0 for the load, ``r + 1`` for run round ``r``.
        self.batch = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_batch = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        #: Open spans, innermost last: [span index, name id, child seconds].
        self._stack: list[list] = []
        #: Outcome counters observed at the wrappers (memo hits, probes).
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span named ``self.names[nid]``."""
        stack = self._stack
        if not self.active or (stack and stack[-1][1] == nid):
            return fn(*args, **kwargs)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_batch.append(self.batch)
        self.span_end.append(0.0)
        frame = [idx, nid, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.span_end[idx] = t1
            dur = t1 - t0
            self.self_s[nid] += dur - frame[2]
            self.calls[nid] += 1
            if stack:
                stack[-1][2] += dur

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, observe=None):
        """A wrapper of ``fn`` recording spans named ``name``.

        ``observe(args, call)``, when given, replaces the plain call: it
        receives the arguments and a thunk running the traced call, so it
        can look at state before and the result after.
        """
        nid = self.name_id(name)
        tracer = self

        if observe is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(nid, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                return observe(args, lambda: tracer.call(nid, fn, args, kwargs))
        return traced

    def wrap_iter(self, fn, name: str):
        """A wrapper of generator function ``fn``: every ``next`` on the
        returned iterator is one span."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                return it
            return _timed_iter(tracer, nid, it)
        return traced

    # ----------------------------------------------------- installation

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every layer listed in ``METHODS``/``FUNCTIONS``/``ITERATORS``."""
        for name, modname, clsname, attrs in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            for attr in attrs:
                self._patch(cls, attr, self.wrap(cls.__dict__[attr], name))
        for name, modname, fname, importers in FUNCTIONS:
            mod = importlib.import_module(modname)
            wrapped = self.wrap(getattr(mod, fname), name, self._observer(fname))
            self._patch(mod, fname, wrapped)
            for target in importers:
                imod, _, alias = target.partition(":")
                self._patch(importlib.import_module(imod), alias or fname, wrapped)
        for name, modname, fname, importers in ITERATORS:
            mod = importlib.import_module(modname)
            wrapped = self.wrap_iter(getattr(mod, fname), name)
            for target in (modname,) + importers:
                self._patch(importlib.import_module(target), fname, wrapped)
        bloom_cls = importlib.import_module("repro.common.bloom").BloomFilter
        for attr in BLOOM_PROBES:
            fn = bloom_cls.__dict__[attr]
            self._patch(
                bloom_cls, attr,
                self.wrap(fn, "common.bloom.probe", self._bloom_observer),
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _observer(self, fname: str):
        """Memo-hit observers for the pure, memoized codec functions."""
        if fname == "decode_block":
            memo = importlib.import_module("repro.lsm.blocks")._DECODE_MEMO

            def observe(args, call):
                self.count("decode.memo_hits", args[0] in memo)
                return call()
        elif fname == "decode_one":
            memo = importlib.import_module("repro.lsm.blocks")._DECODE_ONE_MEMO

            def observe(args, call):
                key = (args[0], args[1] if len(args) > 1 else 0)
                self.count("decode.memo_hits", key in memo)
                return call()
        else:
            memo = importlib.import_module("repro.common.bloom")._HASH_MEMO

            def observe(args, call):
                self.count("hash.memo_hits", args[0] in memo)
                return call()
        return observe

    def _bloom_observer(self, args, call):
        if not self._stack or self._stack[-1][1] != self._ids["common.bloom.probe"]:
            result = call()
            if isinstance(result, np.ndarray):
                self.count("bloom.probes", len(result))
                self.count("bloom.positives", int(result.sum()))
            else:
                self.count("bloom.probes")
                self.count("bloom.positives", bool(result))
            return result
        return call()

    # ----------------------------------------------------------- output

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        return {n: (self.calls[i], self.self_s[i]) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (a compressed ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            batch=np.frombuffer(self.span_batch, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _timed_iter(tracer: Tracer, nid: int, it):
    step = it.__next__
    while True:
        try:
            item = tracer.call(nid, step, (), {})
        except StopIteration:
            return
        yield item
