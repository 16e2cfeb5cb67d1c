"""X13 — row-frame delta encoding + adaptive dispatch sizing.

X10 amortized the process shard mode's round trips; what remains per block
on the transport side is **delta encoding**.  Every delta is a row frame:
payload-free occurrences are encoded once, globally, as fixed-width rows,
and each worker's delta is a slice of that log (payload-bearing rows ride
along as out-of-band snapshot tuples).  The ``DispatchController`` closes
the loop on the trip size itself, sizing each stream drain from the live
queue-depth / dispatch-latency signals.  This bench shows:

* **what delta encoding costs** — per-block delta-encode cost and inline /
  fallback row counts on the X10 check-heavy grid, with a payload-bearing
  arm driving every row through the fallback;
* **the controller adapts** — a bursty stream through static-1 / static-8 /
  adaptive ingestor arms: per-block trips while idle (latency within 10% of
  static-1), widened trips under backlog (throughput within 10% of
  static-8), and a shrink back to 1 when the burst drains (structural,
  asserted);
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
        f"(payload-free); adaptive idle latency ratio "
        f"{headline['idle_latency_ratio']} vs static-1, backlog throughput "
        f"ratio {headline['backlog_throughput_ratio']} vs static-8 "
        f"(widened {headline['adaptive_widened']}x, settled back to bound "
        f"{headline['adaptive_final_bound']})"
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


def test_x13_adaptive_controller_widens_and_shrinks():
    result = measure_bursty_adaptivity(
        rule_count=200,
        shards=2,
        idle_blocks=6,
        backlog_blocks=24,
        cooldown_blocks=6,
        events_per_block=8,
    )
    arms = result["arms"]
    adaptive = arms["adaptive"]
    # Structural: the controller widened under backlog, shrank when it
    # drained, and finished back at per-block trips.
    assert adaptive["widened"] >= 1, adaptive
    assert adaptive["shrunk"] >= 1, adaptive
    assert adaptive["final_bound"] == 1, adaptive
    # Idle phases never coalesce (latency mode)...
    assert adaptive["idle_trips"] == result["idle_blocks"], adaptive
    # ...while the backlog drains in fewer trips than blocks (amortization).
    assert adaptive["backlog_trips"] < result["backlog_blocks"], adaptive
    assert adaptive["max_blocks_per_trip"] > 1, adaptive
    # The static arms never touch the controller.
    assert arms["static_1"]["widened"] == arms["static_8"]["widened"] == 0, arms


if __name__ == "__main__":
    main()
