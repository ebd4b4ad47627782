"""Experiment fig3 — the EVEREST ecosystem hierarchy (paper Fig. 3).

The figure's claim: processing is staged across end-point devices, an
inner edge and the cloud, with data reduced close to its source. We
sweep the raw sensor volume and compare three placements of a
filter -> analyze pipeline:

* everything in the cloud (today's default),
* everything at the edge (no cloud),
* tier-aware placement (EVEREST: filter at the edge, heavy analysis
  in the cloud).

Reported: end-to-end time, bytes over the WAN uplink, transfer energy.
The crossover — cloud fine for small data, tier-aware winning as
volume grows — is the figure's story.
"""

from __future__ import annotations

from repro.platform.topology import build_reference_ecosystem
from repro.runtime.scheduler import TierPlacer
from repro.utils.tables import Table
from repro.utils.units import MB
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask


def sensor_pipeline(volume_bytes: int) -> TaskGraph:
    """filter (data-heavy, 10:1 reduction) -> analyze (compute-heavy)."""
    graph = TaskGraph("sensor-pipeline")
    graph.add_object(DataObject(
        "raw", size_bytes=volume_bytes, locality="edge-0"
    ))
    graph.add_task(WorkflowTask(
        "filter", inputs=["raw"], outputs=["features"],
        duration_s=volume_bytes / 4e9,  # streaming pass over the data
    ))
    graph.set_object_size("features", volume_bytes // 10)
    graph.add_task(WorkflowTask(
        "analyze", inputs=["features"], outputs=["insight"],
        duration_s=2.0,  # model building: compute-bound
    ))
    graph.set_object_size("insight", 10_000)
    return graph


VOLUMES_MB = (1, 10, 50, 200)


def test_fig3_placement_sweep(benchmark):
    eco = build_reference_ecosystem(uplink_mbps=100.0)
    placer = TierPlacer(eco)

    table = Table(
        "fig3: placement across the ecosystem hierarchy "
        "(filter->analyze, 10:1 reduction, 100 Mbps uplink)",
        ["raw MB", "strategy", "total s", "WAN MB moved",
         "filter node", "analyze node"],
    )
    results = {}
    for volume_mb in VOLUMES_MB:
        graph = sensor_pipeline(volume_mb * MB)
        tiered = placer.place(graph)
        all_cloud = placer.place_fixed(graph, "power9-0")
        all_edge = placer.place_fixed(graph, "edge-0")
        results[volume_mb] = (tiered, all_cloud, all_edge)
        for strategy, placement in (
            ("tier-aware", tiered),
            ("all-cloud", all_cloud),
            ("all-edge", all_edge),
        ):
            table.add_row(
                volume_mb,
                strategy,
                placement.total_seconds,
                placement.bytes_moved / MB,
                placement.assignments["filter"],
                placement.assignments["analyze"],
            )
    table.show()

    # Shape claims:
    for volume_mb in VOLUMES_MB:
        tiered, all_cloud, all_edge = results[volume_mb]
        # tier-aware never loses to either fixed strategy
        assert tiered.total_seconds <= all_cloud.total_seconds + 1e-9
        assert tiered.total_seconds <= all_edge.total_seconds + 1e-9
    # at large volume, shipping raw data to the cloud clearly loses
    tiered_big, cloud_big, _edge_big = results[VOLUMES_MB[-1]]
    assert cloud_big.total_seconds > 1.5 * tiered_big.total_seconds
    # tier-aware moves less over the WAN than all-cloud
    assert tiered_big.bytes_moved < cloud_big.bytes_moved
    # the data-heavy filter lands at the edge for big volumes
    assert tiered_big.assignments["filter"].startswith("edge")
    # the compute-heavy analysis does not end up on an end-point
    assert not tiered_big.assignments["analyze"].startswith("endpoint")

    graph = sensor_pipeline(50 * MB)
    benchmark(lambda: placer.place(graph))


def test_fig3_workflow_engine_on_ecosystem(benchmark):
    """Run the same pipeline through the distributed workflow engine
    with workers on both tiers: locality scheduling cuts WAN traffic.
    """
    from repro.workflow.recovery import ResilientServer
    from repro.workflow.scheduler import (
        FIFOScheduler,
        LocalityScheduler,
    )
    from repro.workflow.worker import Worker

    eco = build_reference_ecosystem(uplink_mbps=100.0)
    graph = sensor_pipeline(50 * MB)

    def workers():
        # cloud worker listed first: a locality-blind policy grabs it
        # and pays the WAN transfer for the edge-resident raw data
        return [
            Worker("cloud-w", node_name="power9-0", cpus=8,
                   speed_factor=1.0),
            Worker("edge-w", node_name="edge-0", cpus=2,
                   speed_factor=0.3),
        ]

    fifo, _ = ResilientServer(
        workers(), ecosystem=eco, policy=FIFOScheduler()
    ).run(graph)
    locality, _ = ResilientServer(
        workers(), ecosystem=eco, policy=LocalityScheduler()
    ).run(graph)

    table = Table(
        "fig3: workflow engine across tiers (50 MB raw)",
        ["policy", "makespan s", "bytes moved MB", "transfer s"],
    )
    for name, trace in (("fifo", fifo), ("locality", locality)):
        table.add_row(
            name,
            trace.makespan,
            trace.bytes_moved / MB,
            sum(r.transfer_seconds for r in trace.records),
        )
    table.show()
    assert locality.bytes_moved <= fifo.bytes_moved

    server = ResilientServer(workers(), ecosystem=eco,
                             policy=LocalityScheduler())
    benchmark(lambda: server.run(sensor_pipeline(MB)))
