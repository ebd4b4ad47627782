"""Tests for the flexible memory manager."""

import pytest

from repro.errors import CapacityError, RuntimeSystemError
from repro.platform.interconnect import OpenCAPILink
from repro.platform.memory import MemoryModel, MemoryTechnology
from repro.runtime.memory_manager import (
    BufferRequest,
    MemoryManager,
)
from repro.utils.units import GB, KB, MB


def hierarchy():
    return [
        MemoryModel("bram", MemoryTechnology.BRAM,
                    capacity_bytes=4 * MB, channels=8),
        MemoryModel("card-ddr", MemoryTechnology.DDR4,
                    capacity_bytes=8 * GB, channels=2),
        MemoryModel("host-ddr", MemoryTechnology.HOST_DDR,
                    capacity_bytes=256 * GB, channels=8),
    ]


def manager():
    return MemoryManager(hierarchy(), host_link=OpenCAPILink())


class TestBufferRequest:
    def test_intensity(self):
        request = BufferRequest("b", size_bytes=1000,
                                accesses_per_invocation=10)
        assert request.intensity == 10_000

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BufferRequest("b", size_bytes=0,
                          accesses_per_invocation=1)


class TestPlacement:
    def test_hot_small_buffer_gets_bram(self):
        plan = manager().place([
            BufferRequest("hot", size_bytes=64 * KB,
                          accesses_per_invocation=1000),
            BufferRequest("cold", size_bytes=64 * KB,
                          accesses_per_invocation=1),
        ])
        assert plan.memory_of("hot") == "bram"

    def test_oversized_buffer_falls_outward(self):
        plan = manager().place([
            BufferRequest("huge", size_bytes=16 * MB,
                          accesses_per_invocation=100),
        ])
        assert plan.memory_of("huge") in ("card-ddr", "host-ddr")

    def test_capacity_respected_across_buffers(self):
        # two 3 MiB buffers cannot both sit in the 4 MiB BRAM
        plan = manager().place([
            BufferRequest("a", size_bytes=3 * MB,
                          accesses_per_invocation=100),
            BufferRequest("b", size_bytes=3 * MB,
                          accesses_per_invocation=90),
        ])
        memories = {plan.memory_of("a"), plan.memory_of("b")}
        assert len(memories) == 2

    def test_nothing_fits_raises(self):
        tiny = MemoryManager([
            MemoryModel("small-bram", MemoryTechnology.BRAM,
                        capacity_bytes=1 * KB),
        ])
        with pytest.raises(CapacityError):
            tiny.place([BufferRequest("big", size_bytes=1 * MB,
                                      accesses_per_invocation=1)])

    def test_smart_beats_host_only(self):
        requests = [
            BufferRequest("weights", size_bytes=1 * MB,
                          accesses_per_invocation=500,
                          resident=True),
            BufferRequest("activations", size_bytes=256 * KB,
                          accesses_per_invocation=200),
        ]
        smart = manager().place(requests)
        host_only = manager().place_all_in(
            requests, MemoryTechnology.HOST_DDR
        )
        assert smart.total_seconds < host_only.total_seconds
        assert smart.energy_j < host_only.energy_j

    def test_staging_charged_for_streaming_buffers(self):
        requests = [
            BufferRequest("stream", size_bytes=4 * MB,
                          accesses_per_invocation=2),
        ]
        plan = manager().place(requests)
        if plan.memory_of("stream") != "host-ddr":
            assert plan.staging_seconds > 0

    def test_resident_buffers_amortize_staging(self):
        resident = manager().place([
            BufferRequest("w", size_bytes=1 * MB,
                          accesses_per_invocation=100,
                          resident=True),
        ])
        assert resident.staging_seconds == 0.0

    def test_unplaced_query_raises(self):
        plan = manager().place([])
        with pytest.raises(RuntimeSystemError):
            plan.memory_of("ghost")

    def test_empty_memories_rejected(self):
        with pytest.raises(RuntimeSystemError):
            MemoryManager([])

    def test_place_all_in_missing_tech(self):
        only_host = MemoryManager([
            MemoryModel("h", MemoryTechnology.HOST_DDR,
                        capacity_bytes=GB),
        ])
        with pytest.raises(RuntimeSystemError):
            only_host.place_all_in([], MemoryTechnology.HBM)
