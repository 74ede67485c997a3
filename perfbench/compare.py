"""Repeat benchmark runs and judge them against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py spread --workloads a-tiered --seeds 1-10
    python3 perfbench/compare.py ab --perturb slow-capacity-get \
        --workloads a-tiered b-fit --seeds 1-6

``spread`` runs each seed once per workload and prints, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1 as a share
of the median, from ``statistics.quantiles(n=4)``) next to a third of the
metric's bound.  ``ab`` runs a baseline and a candidate (the baseline with
one layer wrapped by ``perturb.py``) on the same seeds, alternating which
goes first, and flags every metric whose candidate median is worse than
the baseline median by more than its bound; it exits 1 if any is flagged.

Every run is a fresh interpreter, one after another.  Raw results go to
``.perfbench_out/compare-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, perturb: str | None) -> dict:
    """One run in a fresh interpreter; its parsed result line."""
    entry = [str(HERE / "run.py")]
    if perturb:
        entry = [str(HERE / "perturb.py"), perturb]
    cmd = [
        sys.executable, *entry, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base: float, cand: float, better: str) -> float:
    """How much worse ``cand`` is than ``base``, as a share of ``base``."""
    return (cand - base) / base if better == "lower" else (base - cand) / base


def cmd_spread(args, spec) -> int:
    ok = True
    raw = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], None))
            print(f"  {workload} seed {seed} done", file=sys.stderr)
        raw[workload] = runs
        print(f"{workload}: {len(runs)} runs")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(vals)
            limit = m["bound"] / 3
            flag = "" if s < limit or m["name"] == "setup_s" else "  WIDE"
            ok &= not flag
            print(f"  {m['name']:<16} median {statistics.median(vals):>12.6g} "
                  f"{m['unit']:<7} spread {s:7.2%}  (bound/3 {limit:6.2%}){flag}")
    out = ROOT / ".perfbench_out" / "compare-spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw))
    return 0 if ok else 1


def cmd_ab(args, spec) -> int:
    flagged = []
    raw = {}
    for workload in args.workloads:
        base, cand = [], []
        for i, seed in enumerate(args.seeds):
            order = [(base, None), (cand, args.perturb)]
            for sink, perturb in order if i % 2 == 0 else order[::-1]:
                sink.append(run_once(workload, seed, spec["run_seconds"], perturb))
            print(f"  {workload} seed {seed} done", file=sys.stderr)
        raw[workload] = {"base": base, "candidate": cand}
        print(f"{workload}: {len(base)} pairs, candidate = {args.perturb}")
        for m in spec["end_to_end"]:
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in base)
            c = statistics.median(r["metrics"][m["name"]]["value"] for r in cand)
            w = worse_by(b, c, m["better"])
            flag = "  FLAGGED" if w > m["bound"] else ""
            if flag:
                flagged.append((workload, m["name"]))
            print(f"  {m['name']:<16} base {b:>12.6g} cand {c:>12.6g} "
                  f"worse by {w:7.2%} (bound {m['bound']:.0%}){flag}")
    out = ROOT / ".perfbench_out" / f"compare-ab-{args.perturb}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw))
    print("flagged:", ", ".join(f"{w}/{m}" for w, m in flagged) or "nothing")
    return 1 if flagged else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("spread", "ab"):
        p = sub.add_parser(name)
        p.add_argument("--workloads", nargs="+", required=True)
        p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
        if name == "ab":
            p.add_argument("--perturb", required=True,
                           choices=("noop", "slow-capacity-get"))
    args = ap.parse_args(argv)
    spec = load_spec()
    return cmd_spread(args, spec) if args.cmd == "spread" else cmd_ab(args, spec)


if __name__ == "__main__":
    sys.exit(main())
