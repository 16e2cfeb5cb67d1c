"""The repository benchmark: one command, named workloads, an oracle check.

Run from the repository root::

    python3 perfbench/run.py --workload stream-sharded --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced phase.
``--trace 1`` runs the same untraced phase and then a traced one, prints the
per-layer metrics and writes the spans to
``.perfbench/trace-<workload>.json`` (Chrome / Perfetto Trace Event Format).
Every run writes its full record, host included, to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every op matched the oracle (and, traced, every structural check
held).  Workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def prepare() -> bool:
    """Strip ambient engine knobs and put the program on the path."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure at {ROOT / 'src'}", file=sys.stderr)
        return False
    # Ambient engine knobs (CI exports CHIMERA_TRANSPORT and friends) would
    # silently change what is measured: each workload passes its own knobs.
    for key in [key for key in os.environ if key.startswith("CHIMERA_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def result_line(record: dict, trace: bool) -> dict:
    """The final JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``."""
    from perfbench.bench import END_TO_END_UNITS, PER_LAYER_UNITS

    values = record["per_layer"] if trace else record["end_to_end"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": record["failed"] == 0 and not record.get("structural_failures"),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        return 2

    from perfbench.bench import UNBOUNDED_END_TO_END, run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}"
        )
    record = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        trace_path=OUT / f"trace-{args.workload}.json",
    )
    record["host"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    line = result_line(record, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    host = record["host"]
    print(
        f"{args.workload} seed={args.seed} nproc={host['nproc']} "
        f"python={host['python']} oracle_s={record['oracle_s']:.3f}"
    )
    # Unbounded end-to-end figures first: the error rate and the latency
    # percentiles, which --trace 1 reports among the per-layer metrics.
    latencies = {
        name: {"value": record["end_to_end"][name], "unit": "us"}
        for name in UNBOUNDED_END_TO_END
    }
    shown = {
        "error_rate": {"value": record["error_rate"], "unit": "ratio"},
        **latencies,
        **line["metrics"],
    }
    for name, metric in shown.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"  ({record['latency_samples']} ops measured untraced, "
        f"{record['latency_p99_beyond']} beyond the p99)"
    )
    if record["first_failure"]:
        print(f"first failure: {record['first_failure']}")
    for failure in record.get("structural_failures", []):
        print(f"structural check failed: {failure}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
