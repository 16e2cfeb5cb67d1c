"""X13 — row-frame delta encoding + drain-sized dispatch trips.

X10 amortized the process shard mode's round trips; what remains per block
on the transport side is **delta encoding**.  Every delta is a row frame:
payload-free occurrences are encoded once, globally, as fixed-width rows,
and each worker's delta is a slice of that log (payload-bearing rows ride
along as out-of-band snapshot tuples).  The trip size needs no control
loop: each stream-ingestor wake-up drains what is queued without blocking,
up to the static ``max_batch_blocks`` bound.  This bench shows:

* **what delta encoding costs** — per-block delta-encode cost and inline /
  fallback row counts on the X10 check-heavy grid, with a payload-bearing
  arm driving every row through the fallback;
* **the drain adapts** — a bursty stream through bound-1 and bound-8
  ingestor arms: the bound-8 arm runs per-block trips while idle (latency
  within 10% of bound-1) and drains the backlog in fewer trips than blocks
  (structural, asserted);
* **behavioral invisibility** — every encoding grid point asserts
  identical triggering decisions, selections and stats across the single
  table, the serial coordinator and the process workers; every adaptivity
  arm is pinned against an unsharded replay of its realized trip
  partition.

Run as a script to execute the full sweep and write machine-readable
results to ``BENCH_PR9.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_x13_transport_adaptivity.py [--smoke]

``--smoke`` runs a tiny grid (seconds, for CI) and writes nothing unless
``--out`` is given.  The pytest entry points run reduced configurations and
assert the structural acceptance criteria.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.workloads.transport_adaptivity import (
    measure_bursty_adaptivity,
    measure_transport_encoding,
    render_x13,
    run_x13_sweeps,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = REPO_ROOT / "BENCH_PR9.json"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny grid for CI")
    parser.add_argument(
        "--out",
        default=None,
        help="results file (default: BENCH_PR9.json; smoke writes nowhere)",
    )
    args = parser.parse_args(argv)
    results = run_x13_sweeps(smoke=args.smoke)
    print(render_x13(results))
    out = Path(args.out) if args.out else (None if args.smoke else RESULTS_FILE)
    if out is not None:
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {out}")
    headline = results["headline"]
    print(
        f"headline: delta encode {headline['delta_encode_us_per_block']} µs/block "
        f"(payload-free); static-8 idle latency ratio "
        f"{headline['idle_latency_ratio']} and backlog throughput ratio "
        f"{headline['backlog_throughput_ratio']} vs static-1"
    )


# ---------------------------------------------------------------------------
# pytest entry points (reduced configuration)
# ---------------------------------------------------------------------------


def test_x13_payload_free_rows_ride_inline():
    # measure_transport_encoding asserts triggering + selection + stats
    # equivalence itself across the single table, serial, and the process
    # workers.
    result = measure_transport_encoding(
        400, workers=2, blocks=12, warmup_blocks=2, events_per_block=8, shapes=8
    )
    # Payload-free rows must encode inline: no per-row fallbacks.
    assert result["deltas"] > 0, result
    assert result["rows_inline"] > 0 and result["rows_fallback"] == 0, result


def test_x13_payload_rows_fall_back_and_stay_identical():
    result = measure_transport_encoding(
        400,
        workers=2,
        blocks=12,
        warmup_blocks=2,
        events_per_block=8,
        shapes=8,
        payloads=True,
    )
    # Every row carries a payload, so every row must cross via the per-row
    # out-of-band fallback — while the equivalence asserts above still hold.
    assert result["rows_fallback"] > 0 and result["rows_inline"] == 0, result
    assert result["deltas"] > 0, result


def test_x13_drain_keeps_idle_trips_single_and_coalesces_backlog():
    result = measure_bursty_adaptivity(
        rule_count=200,
        shards=2,
        idle_blocks=6,
        backlog_blocks=24,
        cooldown_blocks=6,
        events_per_block=8,
    )
    static_8 = result["arms"]["static_8"]
    # Idle phases never coalesce (the queue is drained at every wake-up)...
    assert static_8["idle_trips"] == result["idle_blocks"], static_8
    # ...while the backlog drains in fewer trips than blocks (amortization).
    assert static_8["backlog_trips"] < result["backlog_blocks"], static_8
    assert static_8["max_blocks_per_trip"] > 1, static_8


if __name__ == "__main__":
    main()
