"""The X13 bench gate: static-8 drain invariants and ratio gates.

``benchmarks/check_bench_guard.py`` is a script, not a package module, so it
is loaded from its path.  Each test builds an X13 result record by hand and
checks which invariants the gate reports as failed.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

GUARD_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_bench_guard.py"


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("check_bench_guard", GUARD_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def limits(guard):
    baselines = json.loads(guard.BASELINES_FILE.read_text())
    return baselines["x13_transport_adaptivity"]


def x13_record() -> dict:
    """A passing X13 record: static-1 and static-8 arms only."""
    return {
        "benchmark": "x13_transport_adaptivity",
        "transport": [
            {"payloads": False, "deltas": 12, "rows_inline": 40, "rows_fallback": 0},
            {"payloads": True, "deltas": 12, "rows_inline": 0, "rows_fallback": 40},
        ],
        "adaptivity": {
            "idle_blocks": 16,
            "backlog_blocks": 48,
            "arms": {
                "static_1": {"idle_trips": 16, "backlog_trips": 48},
                "static_8": {"idle_trips": 16, "backlog_trips": 6},
            },
            "idle_latency_ratio": 1.0,
            "backlog_throughput_ratio": 1.2,
        },
        "equivalence": {"checked": True},
    }


def run_check(guard, limits, record: dict) -> list[str]:
    failures: list[str] = []
    guard.check_x13(record, limits, 0.0, failures)
    return failures


def test_static_8_record_passes(guard, limits):
    assert run_check(guard, limits, x13_record()) == []


def test_idle_phase_that_coalesced_fails(guard, limits):
    record = x13_record()
    record["adaptivity"]["arms"]["static_8"]["idle_trips"] = 12
    failures = run_check(guard, limits, record)
    assert len(failures) == 1
    assert "static-8 idle phase never coalesced" in failures[0]


def test_backlog_that_never_coalesced_fails(guard, limits):
    record = x13_record()
    record["adaptivity"]["arms"]["static_8"]["backlog_trips"] = 48
    failures = run_check(guard, limits, record)
    assert len(failures) == 1
    assert "static-8 backlog drained in batched trips" in failures[0]


def test_ratio_gates_read_the_static_8_ratios(guard, limits):
    slow_idle = copy.deepcopy(x13_record())
    slow_idle["adaptivity"]["idle_latency_ratio"] = limits[
        "max_idle_latency_ratio"
    ] + 0.5
    failures = run_check(guard, limits, slow_idle)
    assert len(failures) == 1 and "idle latency tracks static-1" in failures[0]

    slow_backlog = copy.deepcopy(x13_record())
    slow_backlog["adaptivity"]["backlog_throughput_ratio"] = limits[
        "min_backlog_throughput_ratio"
    ] / 2
    failures = run_check(guard, limits, slow_backlog)
    assert len(failures) == 1 and "backlog throughput holds" in failures[0]
