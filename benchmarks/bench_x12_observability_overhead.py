"""X12 — observability overhead: the metrics layer must stay ≤3% end to end.

PR 8 threads one MetricsRegistry through the whole pipeline — pipeline-phase
histograms (trip.plan/dispatch/check/apply, oodb.commit), the
ingest queue gauge, per-shard candidate counters, and worker-side registries
shipped back as compact deltas on trip replies.  The design contract is that
none of it is allowed to show up in the timings: a disabled registry hands
out shared null instruments, an enabled one keeps every probe off the
per-rule hot loops.  This bench measures the contract:

* **X7-style grid** — the single-table rule-scaling pipeline, instrumented
  vs uninstrumented arms over identical streams and rule pools;
* **X10-style grid** — the 4-shard coordinator across execution modes and
  micro-batch sizes; the processes points also exercise (and structurally
  assert) the cross-process metric-delta merge.

Arms run side by side, trip by trip, over interleaved repetitions; each
arm's cost sums every measured trip's min-of-reps, and every grid point
asserts the two arms made byte-identical triggering decisions, selections
and stats — metrics observe, they never steer.

Run as a script to execute the full sweep and write machine-readable results
to ``BENCH_PR8.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_x12_observability_overhead.py [--smoke]

``--smoke`` runs a tiny grid (seconds, for CI) and writes nothing unless
``--out`` is given.  The pytest entry points run reduced configurations and
assert the structural acceptance criteria; the overhead cap itself is
enforced on the written results by ``benchmarks/check_bench_guard.py``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.workloads.observability import (
    measure_overhead,
    render_x12,
    run_x12_sweeps,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = REPO_ROOT / "BENCH_PR8.json"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny grid for CI")
    parser.add_argument(
        "--out",
        default=None,
        help="results file (default: BENCH_PR8.json; smoke writes nowhere)",
    )
    args = parser.parse_args(argv)
    results = run_x12_sweeps(smoke=args.smoke)
    print(render_x12(results))
    out = Path(args.out) if args.out else (None if args.smoke else RESULTS_FILE)
    if out is not None:
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {out}")
    headline = results["headline"]
    snapshot = results["snapshot"]
    print(
        f"headline: worst overhead {headline['worst_overhead_pct']}% across "
        f"{headline['points']} grid points; snapshot counters match stats: "
        f"{snapshot['counters_match_stats']}; worker deltas merged: "
        f"{snapshot['worker_deltas_merged']}"
    )


# ---------------------------------------------------------------------------
# pytest entry points (reduced configuration)
# ---------------------------------------------------------------------------


def test_x12_instrumentation_is_behaviorally_invisible():
    # measure_overhead asserts triggering + selection + stats equivalence
    # between the instrumented and uninstrumented arms itself.
    measure_overhead(300, blocks=12, warmup_blocks=2, repetitions=2)


def test_x12_worker_deltas_merge_in_processes_mode():
    row = measure_overhead(
        300,
        shards=2,
        shard_mode="processes",
        batch_blocks=4,
        blocks=12,
        warmup_blocks=2,
        repetitions=2,
    )
    # Structural acceptance criteria: the snapshot folds the stats sources
    # byte-equal and contains worker.* counters merged back from the
    # out-of-process registries.
    assert row["counters_match_stats"], row
    assert row["worker_deltas_merged"], row


def test_x12_spans_are_recorded_when_enabled():
    row = measure_overhead(300, blocks=12, warmup_blocks=2, repetitions=2)
    # The enabled arm must actually measure something (trip/block spans).
    assert row["span_count"] > 0, row


if __name__ == "__main__":
    main()
