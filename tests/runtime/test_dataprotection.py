"""Tests for crypto, anomaly monitors, flow tracking and auto-protection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SecurityError
from repro.runtime.dataprotection.anomaly import HardwareMonitor
from repro.runtime.dataprotection.crypto import (
    SoftwareAEAD,
    derive_key,
)
from repro.runtime.dataprotection.ift import FlowTracker
from repro.runtime.dataprotection.policy import (
    AutoProtection,
    Reaction,
)
from repro.utils.rng import deterministic_rng
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from tests.conftest import examples


class TestSoftwareAEAD:
    def make(self):
        return SoftwareAEAD(key=derive_key(b"master", "test"))

    def test_roundtrip(self):
        aead = self.make()
        plaintext = b"weather ensemble member 7"
        payload = aead.encrypt(plaintext, b"nonce-01")
        assert aead.decrypt(payload, b"nonce-01") == plaintext

    def test_ciphertext_differs_from_plaintext(self):
        aead = self.make()
        plaintext = b"x" * 64
        payload = aead.encrypt(plaintext, b"nonce-01")
        assert payload[:64] != plaintext

    def test_tamper_detected(self):
        aead = self.make()
        payload = bytearray(aead.encrypt(b"data", b"nonce-01"))
        payload[0] ^= 0xFF
        with pytest.raises(SecurityError, match="tag"):
            aead.decrypt(bytes(payload), b"nonce-01")

    def test_wrong_nonce_rejected(self):
        aead = self.make()
        payload = aead.encrypt(b"data", b"nonce-01")
        with pytest.raises(SecurityError):
            aead.decrypt(payload, b"nonce-02")

    def test_wrong_key_rejected(self):
        payload = self.make().encrypt(b"data", b"nonce-01")
        other = SoftwareAEAD(key=derive_key(b"other", "test"))
        with pytest.raises(SecurityError):
            other.decrypt(payload, b"nonce-01")

    def test_empty_key_rejected(self):
        with pytest.raises(SecurityError):
            SoftwareAEAD(key=b"")

    def test_truncated_payload_rejected(self):
        with pytest.raises(SecurityError, match="too short"):
            self.make().decrypt(b"short", b"nonce-01")

    def test_short_nonce_rejected(self):
        with pytest.raises(SecurityError):
            self.make().encrypt(b"data", b"abc")

    def test_derive_key_domain_separation(self):
        assert derive_key(b"m", "a") != derive_key(b"m", "b")

    @settings(max_examples=examples())
    @given(st.binary(min_size=0, max_size=300))
    def test_property_roundtrip(self, plaintext):
        aead = SoftwareAEAD(key=b"property-key")
        payload = aead.encrypt(plaintext, b"fixed-nonce")
        assert aead.decrypt(payload, b"fixed-nonce") == plaintext


class TestHardwareMonitor:
    def trained(self) -> HardwareMonitor:
        monitor = HardwareMonitor(threshold_sigma=4.0, min_training=16)
        rng = deterministic_rng("anomaly-test")
        for _ in range(64):
            monitor.train("timing", float(rng.normal(100.0, 5.0)))
        return monitor

    def test_normal_values_pass(self):
        monitor = self.trained()
        assert monitor.observe("timing", 102.0) is None

    def test_outlier_detected(self):
        monitor = self.trained()
        anomaly = monitor.observe("timing", 200.0)
        assert anomaly is not None
        assert anomaly.z_score > 4.0
        assert anomaly.metric == "timing"

    def test_no_detection_before_training(self):
        monitor = HardwareMonitor(min_training=16)
        assert monitor.observe("m", 1e9) is None  # still training

    def test_constant_baseline_flags_any_change(self):
        monitor = HardwareMonitor(min_training=4)
        for _ in range(8):
            monitor.train("size", 128.0)
        assert monitor.observe("size", 128.0) is None
        assert monitor.observe("size", 129.0) is not None

    def test_frozen_monitor_does_not_adapt(self):
        monitor = self.trained()
        monitor.freeze()
        for _ in range(64):
            assert monitor.observe("timing", 115.0) is None  # < 4 sigma
        # the shifted values never entered the baseline
        assert monitor.observe("timing", 125.0) is not None

    def test_unfrozen_monitor_adapts(self):
        assert self.trained().observe("timing", 125.0) is not None
        monitor = self.trained()
        for _ in range(64):
            monitor.observe("timing", 115.0)
        # the baseline followed the shift: 125 is normal now
        assert monitor.observe("timing", 125.0) is None


class TestFlowTracker:
    def graph(self) -> TaskGraph:
        graph = TaskGraph("secure")
        graph.add_object(DataObject("secret", size_bytes=100))
        graph.add_object(DataObject("public", size_bytes=100))
        graph.add_task(WorkflowTask(
            "mix", inputs=["secret", "public"], outputs=["mixed"],
        ))
        graph.add_task(WorkflowTask(
            "scrub", inputs=["mixed"], outputs=["clean"],
            declassifies=True,
        ))
        graph.add_task(WorkflowTask(
            "pub", inputs=["public"], outputs=["derived"],
        ))
        return graph

    def test_propagation(self):
        tracker = FlowTracker(self.graph())
        tracker.taint_source("secret", "pii")
        tracker.propagate()
        assert tracker.labels_of("mixed") == {"pii"}
        assert tracker.labels_of("derived") == set()
        assert tracker.labels_of("clean") == set()

    def test_egress_blocked_for_tainted(self):
        tracker = FlowTracker(self.graph())
        tracker.taint_source("secret", "pii")
        tracker.propagate()
        with pytest.raises(SecurityError, match=r"'mixed' carries labels \['pii'\]"):
            tracker.check_egress("mixed")

    def test_encrypted_egress_allowed(self):
        tracker = FlowTracker(self.graph())
        tracker.taint_source("secret", "pii")
        tracker.propagate()
        assert tracker.check_egress("mixed", encrypted=True)

    def test_declassified_egress_allowed(self):
        tracker = FlowTracker(self.graph())
        tracker.taint_source("secret", "pii")
        tracker.propagate()
        assert tracker.check_egress("clean")

    def test_untainted_egress_allowed(self):
        tracker = FlowTracker(self.graph())
        tracker.propagate()
        assert tracker.check_egress("derived")

    def test_audit_lists_tainted(self):
        tracker = FlowTracker(self.graph())
        tracker.taint_source("secret", "pii")
        tracker.propagate()
        names = [name for name, _labels in tracker.audit()]
        assert names == ["mixed", "secret"]

    def test_unknown_object(self):
        tracker = FlowTracker(self.graph())
        with pytest.raises(SecurityError):
            tracker.taint_source("ghost", "x")


class TestAutoProtection:
    def test_timing_anomaly_forces_dift(self):
        engine = AutoProtection()
        monitor = HardwareMonitor(min_training=4)
        for _ in range(8):
            monitor.train("timing", 10.0)
        anomaly = monitor.observe("timing", 100.0)
        incident = engine.report_anomaly(anomaly, node="n0")
        assert incident.reaction is Reaction.FORCE_DIFT_VARIANTS
        assert engine.dift_forced

    def test_flow_violation_quarantines(self):
        engine = AutoProtection()
        incident = engine.report("flow-violation", "leak", node="edge-1")
        assert incident.reaction is Reaction.QUARANTINE_NODE
        assert engine.summary() == {"quarantine_node": 1}

    def test_tag_mismatch_rekeys(self):
        engine = AutoProtection()
        engine.report("tag-mismatch", "bad tag")
        assert engine.key_generation == 1

    def test_summary_counts(self):
        engine = AutoProtection()
        engine.report("timing-anomaly", "a")
        engine.report("timing-anomaly", "b")
        engine.report("tag-mismatch", "c")
        summary = engine.summary()
        assert summary["force_dift_variants"] == 2
        assert summary["rekey"] == 1

    def test_unknown_kind_is_logged_only(self):
        engine = AutoProtection()
        assert engine.report("mystery", "x").reaction is Reaction.LOG_ONLY
        assert not engine.dift_forced
