"""Steadiness check: repeat a workload and compare the spread to the bounds.

``python3 perfbench/run.py --steady N [--workload W] [--seconds S]``
runs each workload (or only ``W``) once per seed ``1..N`` in a child
process.  For every end-to-end metric it prints the median and
quartiles over the N seeds, the spread ``(q3 - q1) / median`` — the
figure the acceptance rule compares with the metric's bound — and flags
a spread above a third of the bound.

It then runs seed 1 twice more, under ``PYTHONHASHSEED`` 0 and 1.  The
deterministic metrics and the output digest (the routed plans, or the
served ``(selected, substituted, topk, latency_ms)`` of every event)
must be bit-identical in all three seed-1 runs; a difference is a
determinism bug, reported as such, and the mode exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

from common import spread

#: Metrics that are a pure function of the seed.
DETERMINISTIC = ("messages_per_query", "kbits_per_query", "recall")


def _run_once(workload: str, seed: int, seconds: float, hash_seed: str | None = None) -> dict | None:
    """One child run: its result line plus ``digest`` from its notes."""
    script = pathlib.Path(__file__).resolve().parent / "run.py"
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
        env=env,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        print(f"  seed {seed}: exit {completed.returncode}\n{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    result["digest"] = next(
        (line.split()[-1] for line in lines if line.startswith("note digest ")), None
    )
    return result


def main(description: dict, args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else [w["name"] for w in description["workloads"]]
    bounds = {m["name"]: m["bound"] for m in description["end_to_end"]}
    status = 0
    for workload in workloads:
        print(f"== {workload}: {args.steady} seeds, {args.seconds:g} s each")
        runs = [_run_once(workload, seed, args.seconds) for seed in range(1, args.steady + 1)]
        repeats = [_run_once(workload, 1, args.seconds, hash_seed) for hash_seed in ("0", "1")]
        if any(r is None or not r["correct"] for r in runs + repeats):
            print("  a run failed or was not correct")
            status = 1
            continue
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            mid, q1, q3, relative = spread(values)
            flag = "" if relative <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:<22} median {mid:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {relative:7.2%} bound {bound:.0%}{flag}")
        seed_one = [runs[0], *repeats]
        for name in DETERMINISTIC:
            values = [r["metrics"][name]["value"] for r in seed_one]
            if len(set(values)) > 1:
                print(f"  DETERMINISM {name}: seed 1 read {values}")
                status = 1
        digests = [r["digest"] for r in seed_one]
        if len(set(digests)) > 1:
            print(f"  DETERMINISM output digest (inherited, hash seed 0, 1): {digests}")
            status = 1
    return status
