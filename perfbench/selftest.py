"""Self-test of the benchmark at toy size.

Run from the repository root::

    python3 perfbench/selftest.py

Every workload runs traced at a tiny op count.  The test requires that the
runs compute exactly the metrics ``BENCHMARK.json`` names, each reported
with its unit and described in ``perfbench/README.md``; ``error_rate == 0``;
the structural checks; the wrappers' coverage (time in every layer the
workload exercises, and a residual below a quarter of op wall); and a
well-formed Chrome trace.  It then corrupts the oracle and requires the run
to count failed ops, so the oracle check cannot pass vacuously.  Exits
non-zero on the first failed requirement.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import OUT, prepare, result_line  # noqa: E402

TOY_OPS = 30

#: Per workload, the per-layer times its ops must spend.
EXERCISED = {
    "stream-single": ("core.check_us", "rules.plan_us", "rules.select_us"),
    "stream-sharded": ("cluster.evaluate_us", "rules.plan_us", "rules.select_us"),
    "txn-stock": (
        "core.check_us",
        "rules.condition_us",
        "oodb.operation_us",
        "oodb.snapshot_us",
        "oodb.commit_us",
    ),
}
COMMON = ("events.ingest_us", "rules.check_self_us")

#: The share of op wall the wrappers may leave to the residual.
RESIDUAL_SHARE_MAX = 0.25


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def check_workload(name: str, trace_dir: Path) -> None:
    from perfbench import bench
    from perfbench.workloads import TOY

    trace_path = trace_dir / f"{name}.json"
    record = bench.run(
        name, seed=3, seconds=60.0, trace=True, scale=TOY, max_ops=TOY_OPS,
        trace_path=trace_path,
    )
    require(record["error_rate"] == 0, f"{name}: {record['first_failure']}")
    require(
        not record["structural_failures"],
        f"{name}: {record['structural_failures']}",
    )
    require(
        set(record["end_to_end"])
        == set(bench.END_TO_END_UNITS) | set(bench.UNBOUNDED_END_TO_END),
        f"{name}: end-to-end metrics differ from BENCHMARK.json",
    )
    require(
        set(record["per_layer"]) == set(bench.PER_LAYER_UNITS),
        f"{name}: per-layer metrics differ from BENCHMARK.json",
    )
    layers = record["per_layer"]
    for metric in EXERCISED[name] + COMMON:
        require(layers[metric] > 0, f"{name}: no time in {metric}")
    require(
        layers["residual_us"] < RESIDUAL_SHARE_MAX * layers["op_wall_us"],
        f"{name}: the wrappers leave {layers['residual_us']:.0f} of "
        f"{layers['op_wall_us']:.0f} us per op unclaimed",
    )
    for trace, units in (
        (False, bench.END_TO_END_UNITS),
        (True, bench.PER_LAYER_UNITS),
    ):
        line = result_line(record, trace)
        require(
            set(line) == {"correct", "attempted", "failed", "metrics"},
            f"{name}: result keys {sorted(line)}",
        )
        require(line["correct"] and line["attempted"] >= TOY_OPS, f"{name}: {line}")
        require(set(line["metrics"]) == set(units), f"{name}: metric names")
        for metric, entry in line["metrics"].items():
            require(entry["unit"] == units[metric], f"{name}: unit of {metric}")
            require(math.isfinite(entry["value"]), f"{name}: {metric} not finite")
    for metric in ("throughput_ops_per_s", "latency_p50_us", "setup_s", "peak_rss_mb"):
        require(record["end_to_end"][metric] > 0, f"{name}: {metric} is 0")
    events = json.loads(trace_path.read_text())["traceEvents"]
    require(
        sum(1 for event in events if event["name"] == "op") >= TOY_OPS,
        f"{name}: trace lacks op spans",
    )


def check_oracle_catches_a_mismatch() -> None:
    """A corrupted oracle op, and a corrupted store digest, must both fail."""
    from perfbench import bench
    from perfbench.workloads import TOY

    original = bench.record_oracle

    def corrupt_rows(oracle):
        for rows in oracle.rows:
            rows[-1] = rows[-1] + [("no-such-rule", 0, 1, True, "stream")]

    def corrupt_digests(oracle):
        oracle.digests = [["0" * 64] * len(epoch) for epoch in oracle.digests]

    for name, corrupt in (
        ("stream-single", corrupt_rows),
        ("txn-stock", corrupt_digests),
    ):

        def corrupted(workload):
            oracle = original(workload)
            corrupt(oracle)
            return oracle

        bench.record_oracle = corrupted
        try:
            record = bench.run(
                name, seed=3, seconds=60.0, trace=False, scale=TOY, max_ops=TOY_OPS
            )
        finally:
            bench.record_oracle = original
        require(record["failed"] > 0, f"{name}: a corrupted oracle went unnoticed")
        require(not result_line(record, False)["correct"], f"{name}: reads correct")


def check_readme_names_every_metric() -> None:
    from perfbench import bench

    readme = (Path(__file__).resolve().parent / "README.md").read_text()
    for metric in [*bench.END_TO_END_UNITS, *bench.PER_LAYER_UNITS]:
        require(f"`{metric}`" in readme, f"README.md does not describe {metric}")


def main() -> int:
    if not prepare():
        return 2
    from perfbench.workloads import WORKLOADS

    check_readme_names_every_metric()

    for name in WORKLOADS:
        check_workload(name, OUT / "selftest")
        print(f"ok {name}")
    check_oracle_catches_a_mismatch()
    print("ok oracle mismatch counted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
