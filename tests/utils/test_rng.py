"""Tests for deterministic RNG helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import deterministic_rng, stable_hash
from tests.conftest import examples


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_different_keys_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_order_matters(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_is_63_bit_non_negative(self):
        value = stable_hash("anything")
        assert 0 <= value < 2**63

    @settings(max_examples=examples())
    @given(st.text(), st.integers())
    def test_property_stable(self, text, number):
        assert stable_hash(text, number) == stable_hash(text, number)


class TestDeterministicRng:
    def test_same_keys_same_stream(self):
        a = deterministic_rng("x", 1).normal(size=8)
        b = deterministic_rng("x", 1).normal(size=8)
        assert np.allclose(a, b)

    def test_different_keys_different_stream(self):
        a = deterministic_rng("x", 1).normal(size=8)
        b = deterministic_rng("x", 2).normal(size=8)
        assert not np.allclose(a, b)

    def test_generators_independent(self):
        first = deterministic_rng("k")
        first.normal(size=100)  # advance
        second = deterministic_rng("k")
        assert np.allclose(
            second.normal(size=4), deterministic_rng("k").normal(size=4)
        )
