"""Run the benchmark with a layer wrapped from outside, to show the bounds bite.

    python3 perfbench/perturb.py slow-capacity-get --workload a-tiered --seed 1 --seconds 10

``slow-capacity-get`` adds ``SLOW_GET_S`` of busy work to every
``CapacityTier.get`` (the SATA point read, which only runs when a get
misses NVMe: a-tiered, never b-fit).  ``noop`` wraps the same method with a
plain pass-through.  Everything after the kind is handed to ``run.py``.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Busy seconds added per SATA point read.  a-tiered issues ~560 of them
#: per 4 000-op round of ~0.19 s, so this costs ~35% of its run_kops.
SLOW_GET_S = 180e-6
KINDS = ("noop", "slow-capacity-get")


def install(kind: str) -> None:
    from repro.lsm.semi.engine import CapacityTier

    get = CapacityTier.get
    if kind == "noop":
        @functools.wraps(get)
        def wrapped(self, *args, **kwargs):
            return get(self, *args, **kwargs)
    else:
        @functools.wraps(get)
        def wrapped(self, *args, **kwargs):
            deadline = time.perf_counter() + SLOW_GET_S
            while time.perf_counter() < deadline:
                pass
            return get(self, *args, **kwargs)
    CapacityTier.get = wrapped


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in KINDS:
        print(f"usage: perturb.py {{{','.join(KINDS)}}} RUN_ARGS...", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    import run

    install(argv[0])
    return run.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
