"""Root pytest configuration: the ``--shards`` / ``--shard-mode`` switches.

``pytest --shards N`` exports ``CHIMERA_SHARDS=N`` before the suite imports
the package, which makes every :class:`repro.oodb.database.ChimeraDatabase`
construct a :class:`repro.cluster.sharding.ShardedRuleTable` and a
:class:`repro.cluster.coordinator.ShardCoordinator` by default — the whole
suite then exercises the sharded planner (CI runs it with ``--shards 4``
alongside the plain run).  ``--shard-mode serial|processes`` exports
``CHIMERA_SHARD_MODE`` the same way, so ``--shards 4 --shard-mode processes``
runs every database's shard checks on the process worker pool.  Defined
here, not in ``tests/conftest.py``, because option registration must happen
in an initial conftest.
"""

from __future__ import annotations

import os


def pytest_addoption(parser):
    parser.addoption(
        "--shards",
        type=int,
        default=0,
        help="run the suite with every ChimeraDatabase sharded across N shards",
    )
    parser.addoption(
        "--shard-mode",
        choices=["serial", "processes"],
        default=None,
        help="shard-check execution mode for every sharded ChimeraDatabase",
    )


def pytest_configure(config):
    shards = config.getoption("--shards")
    if shards:
        os.environ["CHIMERA_SHARDS"] = str(shards)
    shard_mode = config.getoption("--shard-mode")
    if shard_mode:
        os.environ["CHIMERA_SHARD_MODE"] = shard_mode
