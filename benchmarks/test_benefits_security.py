"""Experiment ben-secure — the data-protection stack (paper §III-A/IV).

Claims examined:

1. hardware DIFT (TaintHLS [18]) costs single-digit-percent area and
   ~no latency, while software shadow tracking costs ~2x runtime —
   the motivation for doing it in hardware;
2. the crypto accelerator library encrypts at line rate where software
   encryption eats CPU time;
3. the anomaly monitors detect injected attacks (timing channel,
   access-pattern scan, exfiltration-sized transfers) at high rate
   with zero false positives on clean traffic;
4. end-to-end flow tracking blocks unencrypted egress of tainted data.
"""

from __future__ import annotations

from repro.core.dse.cost_model import evaluate_variant
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls.crypto import CRYPTO_LIBRARY
from repro.core.variants import VariantKnobs
from repro.runtime.dataprotection.anomaly import HardwareMonitor
from repro.runtime.dataprotection.crypto import (
    SOFTWARE_CYCLES_PER_BYTE,
    SoftwareAEAD,
    derive_key,
)
from repro.utils.rng import deterministic_rng
from repro.utils.tables import Table

SENSITIVE_KERNEL = """
kernel score(X: tensor<1024xf32> @sensitive, G: tensor<1024xf32>)
        -> tensor<1024xf32> {
  Y = sigmoid(exp(X) * G)
  return Y
}
"""


def test_secure_dift_overhead(benchmark):
    module = compile_kernel(SENSITIVE_KERNEL)
    plain_hw = evaluate_variant(
        module, "score", VariantKnobs(target="fpga", unroll=4)
    )
    dift_hw = evaluate_variant(
        module, "score",
        VariantKnobs(target="fpga", unroll=4, dift=True),
    )
    plain_sw = evaluate_variant(
        module, "score", VariantKnobs(target="cpu", threads=4)
    )
    dift_sw = evaluate_variant(
        module, "score",
        VariantKnobs(target="cpu", threads=4, dift=True),
    )

    hw_area_overhead = (
        (dift_hw.resources.luts + dift_hw.resources.ffs)
        / (plain_hw.resources.luts + plain_hw.resources.ffs) - 1.0
    )
    hw_latency_overhead = dift_hw.latency_s / plain_hw.latency_s - 1.0
    sw_latency_overhead = dift_sw.latency_s / plain_sw.latency_s - 1.0

    table = Table(
        "ben-secure: information flow tracking cost",
        ["implementation", "latency overhead %", "area overhead %"],
    )
    table.add_row("hardware DIFT (TaintHLS)",
                  hw_latency_overhead * 100, hw_area_overhead * 100)
    table.add_row("software shadow tracking",
                  sw_latency_overhead * 100, 0.0)
    table.show()

    # TaintHLS shape: small area, negligible latency; software ~2x
    assert hw_area_overhead < 0.30
    assert hw_latency_overhead < 0.25
    assert sw_latency_overhead > 0.8

    benchmark(lambda: evaluate_variant(
        module, "score", VariantKnobs(target="fpga", dift=True)
    ))


def test_secure_crypto_line_rate(benchmark):
    table = Table(
        "ben-secure: crypto library, hardware core vs software "
        "(1 MiB payload)",
        ["cipher", "hw core us", "hw GB/s", "sw us (3 GHz)",
         "hw/sw speedup"],
    )
    payload = 1 << 20
    clock = 250e6
    for cipher, core in sorted(CRYPTO_LIBRARY.items()):
        hw_seconds = core.cycles_for(payload) / clock
        sw_seconds = (
            SOFTWARE_CYCLES_PER_BYTE[cipher] * payload / 3e9
        )
        table.add_row(
            cipher,
            hw_seconds * 1e6,
            payload / hw_seconds / 1e9,
            sw_seconds * 1e6,
            sw_seconds / hw_seconds,
        )
        # AES-class cores encrypt at multi-GB/s
        if cipher.startswith("aes"):
            assert payload / hw_seconds > 3e9
            assert sw_seconds / hw_seconds > 2.0
    table.show()

    aead = SoftwareAEAD(key=derive_key(b"bench", "crypto"))
    blob = bytes(range(256)) * 16
    benchmark(lambda: aead.decrypt(
        aead.encrypt(blob, b"nonce-42"), b"nonce-42"
    ))


def test_secure_anomaly_detection(benchmark):
    rng = deterministic_rng("ben-secure-anomaly")
    monitor = HardwareMonitor(threshold_sigma=4.5, min_training=32)
    # train on clean behaviour
    for _ in range(256):
        monitor.train("timing", float(rng.normal(100.0, 6.0)))
        monitor.train("stride", float(rng.normal(64.0, 2.0)))
        monitor.train("volume", float(rng.normal(4096.0, 200.0)))
    monitor.freeze()

    # clean traffic: expect no detections
    false_positives = 0
    for _ in range(500):
        if monitor.observe("timing",
                           float(rng.normal(100.0, 6.0))):
            false_positives += 1
        if monitor.observe("stride", float(rng.normal(64.0, 2.0))):
            false_positives += 1
        if monitor.observe("volume",
                           float(rng.normal(4096.0, 200.0))):
            false_positives += 1

    # attacks
    attacks = {
        "timing channel (slow leak)": ("timing", 160.0, 3.0),
        "access scan (stride sweep)": ("stride", 640.0, 30.0),
        "exfiltration (bulk read)": ("volume", 50_000.0, 1_000.0),
    }
    detected = {}
    for name, (metric, mean, std) in attacks.items():
        hits = 0
        for _ in range(50):
            if monitor.observe(metric,
                               float(rng.normal(mean, std))):
                hits += 1
        detected[name] = hits / 50

    table = Table(
        "ben-secure: hardware-monitor detection (z > 4.5 sigma)",
        ["trace", "detection rate"],
    )
    table.add_row("clean traffic (1500 obs, false positives)",
                  false_positives / 1500)
    for name, rate in detected.items():
        table.add_row(name, rate)
    table.show()

    assert false_positives / 1500 < 0.01
    assert all(rate > 0.95 for rate in detected.values())

    benchmark(lambda: monitor.observe("timing", 101.0))


def test_secure_flow_enforcement(benchmark):
    from repro.errors import SecurityError
    from repro.runtime.dataprotection.ift import FlowTracker
    from repro.workflow.graph import (
        DataObject,
        TaskGraph,
        WorkflowTask,
    )

    graph = TaskGraph("pipeline")
    graph.add_object(DataObject("patient-data", size_bytes=1 << 20))
    graph.add_object(DataObject("public-weather", size_bytes=1 << 16))
    graph.add_task(WorkflowTask(
        "train", inputs=["patient-data", "public-weather"],
        outputs=["model"],
    ))
    graph.add_task(WorkflowTask(
        "aggregate", inputs=["model"], outputs=["report"],
        declassifies=True,
    ))
    tracker = FlowTracker(graph)
    tracker.taint_source("patient-data", "phi")
    tracker.propagate()

    blocked = 0
    for _ in range(10):
        try:
            tracker.check_egress("model", encrypted=False)
        except SecurityError:
            blocked += 1
    allowed_encrypted = tracker.check_egress("model", encrypted=True)
    allowed_declassified = tracker.check_egress("report")

    print(f"\nben-secure: unencrypted egress of tainted model "
          f"blocked {blocked}/10; encrypted allowed: "
          f"{allowed_encrypted}; declassified report allowed: "
          f"{allowed_declassified}")
    assert blocked == 10
    assert allowed_encrypted and allowed_declassified

    benchmark(lambda: tracker.labels_of("model"))
