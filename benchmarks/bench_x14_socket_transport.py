"""X14 — socket shard transport behind the ShardTransport seam.

The process shard pool reaches its workers through a ``ShardTransport``:
forked local workers on pipes (``pipe``, the default) or socket workers
(``tcp``) — localhost workers spawned by the pool, or remote workers
started via ``chimera-events worker``.  Both carry the same row-frame
deltas.  This bench shows:

* **the socket path is priced** — end-to-end check time per block over tcp
  against pipe on the X13 check-heavy grid (min of passes).  A Nagle stall
  on the coordinator's sockets shows up here as a several-fold ratio;
* **the trip protocol survives the seam** — structural facts exact per
  transport: every rule definition shipped exactly once per
  ``definition_order`` version, exactly one coordinator message per
  consulted worker per trip, every delta a row frame, zero reconnects in an
  undisturbed run;
* **reconnects are absorbed, not absorbed-into-wrongness** — a tcp worker
  bounced mid-run re-syncs defs + a fresh mirror and the run's triggering
  counters and consideration sequences stay byte-identical to an
  uninterrupted run;
* **behavioral invisibility** — every grid point asserts identical
  triggering decisions, selections and stats across the single table, the
  serial coordinator and both process transports.

Run as a script to execute the full sweep and write machine-readable
results to ``BENCH_PR12.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_x14_socket_transport.py [--smoke]

``--smoke`` runs a tiny grid (seconds, for CI) and writes nothing unless
``--out`` is given.  The pytest entry points run reduced configurations and
assert the structural acceptance criteria.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.workloads.socket_transport import (
    measure_reconnect_resync,
    measure_socket_transport,
    render_x14,
    run_x14_sweeps,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = REPO_ROOT / "BENCH_PR12.json"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny grid for CI")
    parser.add_argument(
        "--out",
        default=None,
        help="results file (default: BENCH_PR12.json; smoke writes nowhere)",
    )
    args = parser.parse_args(argv)
    results = run_x14_sweeps(smoke=args.smoke)
    print(render_x14(results))
    out = Path(args.out) if args.out else (None if args.smoke else RESULTS_FILE)
    if out is not None:
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {out}")
    headline = results["headline"]
    print(
        f"headline: tcp vs pipe check time {headline['tcp_vs_pipe_check_ratio']}x; "
        f"defs shipped once "
        f"per version on every transport: {headline['defs_shipped_once']}; "
        f"reconnect re-shipped {headline['reconnect_resync_defs']} defs with "
        f"byte-identical outcomes"
    )


# ---------------------------------------------------------------------------
# pytest entry points (reduced configuration)
# ---------------------------------------------------------------------------


def test_x14_structural_trip_facts_per_transport():
    # measure_socket_transport asserts triggering + selection + stats
    # equivalence itself across the single table, serial, and both process
    # transports.
    result = measure_socket_transport(
        300, workers=2, blocks=12, warmup_blocks=2, events_per_block=8, shapes=8, reps=2
    )
    for transport, row in result["transports"].items():
        # Definitions ship exactly once per definition_order version: with a
        # stable table that is each rule once, to its single home worker.
        assert row["defs_shipped"] == result["rules"], (transport, row)
        # One coordinator message per consulted worker per trip.
        assert row["worker_round_trips"] == row["parallel_batches"], (transport, row)
        assert row["reconnects"] == 0, (transport, row)
        # Every delta is a row frame; payload-free rows all encode inline.
        assert row["deltas"] > 0, (transport, row)
        assert row["rows_inline"] > 0 and row["rows_fallback"] == 0, (transport, row)


def test_x14_reconnect_resyncs_and_outcomes_hold():
    result = measure_reconnect_resync(
        rule_count=150, workers=2, blocks=12, events_per_block=6
    )
    assert result["reconnects_uninterrupted"] == 0, result
    assert result["reconnects"] == 1, result
    # The bounced worker's definitions re-ship at their current version.
    assert result["resync_defs"] > 0, result
    assert result["equivalent"] is True, result


if __name__ == "__main__":
    main()
