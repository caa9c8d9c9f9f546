"""Pinned kernel-event count and digest of a small steady-flush cell.

The steady-flush hot path (group scheduler, fair-share datapath,
process bootstrap) is tuned for host cost at a fixed event count: an
edit there may make each kernel event cheaper, but must not add, drop
or reorder one.  The cross-shard equality tests cannot see such an
edit (both shard counts move together), so this cell's
``events_processed`` and ``FleetResult.digest()`` are pinned at values
recorded before the hot path was last tuned.  A change that means to
alter the event stream re-records both and says so in CHANGES.md.

The cell: 400 VMs in three write classes over four calm markets for
half a day, two epochs, 1 % of the fleet migrated one market onward at
the epoch boundary, run inline and in two forked shard workers.
"""

import pytest

from repro.core.shard import (MarketSpec, MigrateRequest, ShardConfig,
                              ShardedCell)
from repro.workloads import default_fleet_mix

VMS = 400
MARKETS = 4

PINNED_EVENTS = 222_535
PINNED_DIGEST = (
    "6c49cc2d17332f97c128ab0a97f0e5726827e05d2eb296c58694cfa757e996fd")


def _rebalance(epoch, _batch, _cell):
    source = epoch % MARKETS
    return [MigrateRequest(market=source, count=VMS // 100,
                           dest_market=(source + 1) % MARKETS)]


@pytest.fixture(scope="module", params=(1, 2), ids=("1-shard", "2-shard"))
def result(request):
    specs = [MarketSpec(type_name="m3.2xlarge", zone_name=f"us-east-1{z}")
             for z in "abcd"]
    config = ShardConfig(seed=11, days=0.5,
                         workload_mix=default_fleet_mix(classes=3))
    cell = ShardedCell(total_vms=VMS, markets=specs, config=config)
    return cell.run(shards=request.param, epochs=2, rebalance=_rebalance)


def test_event_count_is_pinned(result):
    assert result.summary["events_processed"] == PINNED_EVENTS


def test_digest_is_pinned(result):
    assert result.digest() == PINNED_DIGEST


def test_cell_flushes(result):
    """The pin covers the steady-flush path: every market issued flows
    and ran several cohorts."""
    for report in result.reports:
        assert report.flush["flows_issued"] > 0
        assert report.flush["cohorts_created"] >= 3
