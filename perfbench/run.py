"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload route-flat-10k --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` lists them with the reason for each):

- ``route-flat-10k``  — IQN routing CPU at 10k peers, flat directory;
- ``route-super-10k`` — the same queries through the super-peer tier;
- ``serve-churn``     — a Zipf log served over simnet under churn.

The benchmark generates every input and the program receives only
those.  Each workload's scenario (its testbed, and for ``serve-churn``
the churn trace) is the repository's fixed cell, so that runs at
different seeds measure the same system; ``--seed`` draws the load on
it: the queries and initiators, the Zipf log and the arrival times.
Each workload runs in this one process and thread.  It sets up
several times (``setup_s`` is the median raw CPU of those set-ups),
then runs timed passes over its inputs for about ``--seconds``
seconds, checks the outputs (see ``correct``), and prints a metrics
table followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` they are the ``per_layer`` list,
from spans recorded around the program's public calls (written to
``.perfbench-out/``).  A per-layer metric the workload does not
exercise reads 0.

CPU figures other than ``setup_s`` are normalized to host speed with a
fixed probe (:mod:`host`); ``host.probe_ms`` and the raw figures are
among the per-layer metrics.  ``--steady N`` repeats a workload over N
seeds in child processes and prints each metric's median, quartiles
and spread against its bound (:mod:`steady`).

The exit status is 0 when every output is correct, 1 when the
correctness gate failed (the result line still says why), and 2 when
the program or the benchmark description cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

# One thread: keep BLAS pools from starting before NumPy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("route-flat-10k", "route-super-10k", "serve-churn")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steady",
        type=int,
        metavar="N",
        help="run the workload (all when none is named) over N seeds and "
        "print each metric's spread against its bound",
    )
    args = parser.parse_args(argv)
    if args.steady is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_description() -> dict:
    """``BENCHMARK.json``: the workloads and the metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result_metrics(outcome, declared: list[dict]) -> dict[str, dict[str, object]]:
    metrics: dict[str, dict[str, object]] = {}
    for entry in declared:
        value, _unit = outcome.metrics.get(entry["name"], (0.0, entry["unit"]))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        description = load_description()
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.steady is not None:
        import steady

        return steady.main(description, args)

    from host import machine_block, peak_rss_mb
    from tracing import Tracer

    tracer = Tracer()
    try:
        if args.workload == "serve-churn":
            import serve

            outcome = serve.run(args.seed, args.seconds, bool(args.trace), tracer)
        else:
            import route

            kind = "flat" if args.workload == "route-flat-10k" else "super"
            outcome = route.run(kind, args.seed, args.seconds, bool(args.trace), tracer)
    finally:
        tracer.unpatch_all()
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    if args.trace:
        path = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        outcome.notes["trace_file"] = str(path.relative_to(ROOT))

    declared = description["per_layer" if args.trace else "end_to_end"]
    missing = [
        entry["name"]
        for entry in description["end_to_end"]
        if not args.trace and entry["name"] not in outcome.metrics
    ]
    for name in missing:
        outcome.fail(f"end-to-end metric {name} was not measured")
    print("machine " + json.dumps(machine_block()))
    for key, value in outcome.notes.items():
        print(f"note {key} {value}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    metrics = _result_metrics(outcome, declared)
    for name, entry in metrics.items():
        print(f"{name:<42} {entry['value']:>16.6g} {entry['unit']}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
