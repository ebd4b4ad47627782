"""Tests for resource bundles and memory models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError
from repro.platform.memory import MemoryModel, MemoryTechnology
from repro.platform.resources import (
    CPUDescription,
    FPGAResources,
    GPUDescription,
)
from repro.utils.units import GB
from tests.conftest import examples

small = st.integers(min_value=0, max_value=10**6)


class TestFPGAResources:
    def test_add(self):
        total = FPGAResources(luts=10, dsps=1) + FPGAResources(luts=5)
        assert total.luts == 15 and total.dsps == 1

    def test_scaled(self):
        assert FPGAResources(luts=10).scaled(3).luts == 30

    def test_fits_in(self):
        small_fp = FPGAResources(luts=10, ffs=10)
        big = FPGAResources(luts=100, ffs=100, bram_kb=10, dsps=10)
        assert small_fp.fits_in(big)
        assert not big.fits_in(small_fp)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FPGAResources(luts=-1)

    @settings(max_examples=examples())
    @given(small, small, small, small)
    def test_property_add_then_sub_roundtrip(self, a, b, c, d):
        x = FPGAResources(luts=a, ffs=b, bram_kb=c, dsps=d)
        y = FPGAResources(luts=a, ffs=b, bram_kb=c, dsps=d)
        assert (x + y) - y == x

    @settings(max_examples=examples())
    @given(small, small)
    def test_property_fits_is_reflexive(self, a, b):
        x = FPGAResources(luts=a, ffs=b)
        assert x.fits_in(x)


class TestCPUDescription:
    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            CPUDescription("c", cores=0, frequency_hz=1e9)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            CPUDescription("c", cores=4, frequency_hz=0.0)


class TestGPUDescription:
    def test_invalid_memory_bandwidth(self):
        with pytest.raises(ValueError):
            GPUDescription("g", peak_flops=1e12, memory_bandwidth=0.0)


class TestMemoryModel:
    def make(self, **kwargs) -> MemoryModel:
        defaults = dict(
            name="m", technology=MemoryTechnology.DDR4,
            capacity_bytes=GB,
        )
        defaults.update(kwargs)
        return MemoryModel(**defaults)

    def test_defaults_filled_from_technology(self):
        memory = self.make()
        assert memory.latency_s > 0
        assert memory.bandwidth_per_channel > 0

    def test_allocate_and_free(self):
        memory = self.make()
        memory.allocate(1000)
        assert memory.free_bytes == GB - 1000
        memory.free(1000)
        assert memory.free_bytes == GB

    def test_over_allocation_rejected(self):
        memory = self.make()
        with pytest.raises(CapacityError):
            memory.allocate(GB + 1)

    def test_over_free_rejected(self):
        memory = self.make()
        memory.allocate(10)
        with pytest.raises(CapacityError):
            memory.free(20)

    def test_access_energy(self):
        memory = self.make()
        assert memory.access_energy(10**6) > 0
        assert memory.access_energy(0) == 0

    def test_bram_faster_than_remote(self):
        bram = self.make(technology=MemoryTechnology.BRAM)
        remote = self.make(technology=MemoryTechnology.REMOTE)
        assert bram.latency_s < remote.latency_s
        assert bram.peak_bandwidth > remote.peak_bandwidth
