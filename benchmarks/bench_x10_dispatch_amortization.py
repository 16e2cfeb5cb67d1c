"""X10 — micro-batched worker dispatch: trips scale with trips, not blocks.

PR 4 measured the process shard mode's fixed per-block cost — ~250–500 µs
per consulted worker round trip plus snapshot encoding — and PR 5 amortizes
it: the stream path coalesces up to ``batch_blocks`` consecutive blocks into
one dispatch trip, the coordinator plans the whole trip up front and
contacts each consulted worker **once per trip** (one combined Event-Base
delta plus N ordered work segments with per-block replies, applied serially
in definition order).  This bench sweeps the batch size on the X9 grid's
check-heavy stream and shows:

* **round trips scale with trips** — ``trips == ceil(blocks / batch)``, so
  per-block round trips fall as ``1 / batch`` (structural, asserted);
* **per-block dispatch overhead falls** — the process-vs-serial check-cost
  gap (identical exact ``ts`` work, so the gap is pure transport) shrinks as
  the batch grows;
* **behavioral invisibility** — every batch size asserts identical
  triggering decisions, selections and Trigger Support stats across the
  single table and the serial / processes coordinator modes
  (``tests/cluster/test_mode_equivalence.py`` pins the same property per
  rule counter for batch sizes 1–8).

Run as a script to execute the full sweep and write machine-readable results
to ``BENCH_PR5.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_x10_dispatch_amortization.py [--smoke]

``--smoke`` runs a tiny grid (seconds, for CI) and writes nothing unless
``--out`` is given.  The pytest entry points run reduced configurations and
assert the structural acceptance criteria.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis import render_table
from repro.workloads.dispatch_amortization import (
    measure_dispatch_amortization,
    render_x10,
    run_x10_sweeps,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = REPO_ROOT / "BENCH_PR5.json"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny grid for CI")
    parser.add_argument(
        "--out",
        default=None,
        help="results file (default: BENCH_PR5.json; smoke writes nowhere)",
    )
    args = parser.parse_args(argv)
    results = run_x10_sweeps(smoke=args.smoke)
    print(render_x10(results))
    out = Path(args.out) if args.out else (None if args.smoke else RESULTS_FILE)
    if out is not None:
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {out}")
    headline = results["headline"]
    amortization = headline["amortization"]
    print(
        f"headline: {headline['rules']} rules, {headline['workers']} workers -> "
        f"round trips per block {amortization['round_trips_per_block_at_batch_1']} "
        f"at batch 1 vs {amortization['round_trips_per_block_at_batch_max']} at "
        f"batch {headline['batch_sizes'][-1]} "
        f"({amortization['trips_at_batch_1']} trips -> "
        f"{amortization['trips_at_batch_max']} trips over "
        f"{headline['rows'][0]['blocks']} blocks); per-block dispatch overhead "
        f"{amortization['overhead_us_per_block_at_batch_1']} µs -> "
        f"{amortization['overhead_us_per_block_at_batch_max']} µs"
    )


# ---------------------------------------------------------------------------
# pytest entry points (reduced configuration)
# ---------------------------------------------------------------------------


def test_x10_every_mode_identical_at_every_batch_size():
    # measure_dispatch_amortization asserts triggering + selection + stats
    # equivalence itself, per batch size, across serial / processes and the
    # single table.
    measure_dispatch_amortization(
        400, workers=2, blocks=12, warmup_blocks=2, batch_sizes=(1, 2, 4)
    )


def test_x10_round_trips_scale_with_trips_not_blocks():
    result = measure_dispatch_amortization(
        600, workers=2, blocks=16, warmup_blocks=2, batch_sizes=(1, 4, 8)
    )
    rows = {row["batch_blocks"]: row for row in result["rows"]}
    print()
    print(
        render_table(
            ["batch", "blocks", "trips", "round trips", "rt/blk"],
            [
                [
                    row["batch_blocks"],
                    row["blocks"],
                    row["trips"],
                    row["worker_round_trips"],
                    row["round_trips_per_block"],
                ]
                for row in result["rows"]
            ],
            title="X10 (reduced) — trips vs blocks",
        )
    )
    for batch, row in rows.items():
        # The structural acceptance criterion: one trip per micro-batch.
        assert row["trips"] == row["expected_trips"], row
        # Each trip contacts each consulted worker at most once.
        assert row["worker_round_trips"] <= row["trips"] * result["workers"], row
    # Per-block round trips must fall monotonically with the batch size.
    assert (
        rows[8]["round_trips_per_block"]
        < rows[4]["round_trips_per_block"]
        < rows[1]["round_trips_per_block"]
    ), rows


def test_x10_encode_cost_amortizes():
    """One combined delta per trip: shipped bytes per block must fall too."""
    result = measure_dispatch_amortization(
        600, workers=2, blocks=16, warmup_blocks=2, batch_sizes=(1, 8)
    )
    rows = {row["batch_blocks"]: row for row in result["rows"]}
    # The per-block wire volume at batch 8 must undercut batch 1: the delta
    # rows themselves are identical, so the saving is the per-message framing
    # and the per-worker duplication of defs/segment envelopes.
    assert (
        rows[8]["bytes_shipped_per_block"] < rows[1]["bytes_shipped_per_block"]
    ), rows


if __name__ == "__main__":
    main()
